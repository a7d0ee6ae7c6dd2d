//! Regenerates the paper's evaluation in one pass — **Table 1**, **Table
//! 2**, **Figures 1–4** — plus the ablation studies, and asserts each
//! section's shape checks. A failed check panics with its message, so the
//! harness exits non-zero.
//!
//! Every distinct piece of work runs once and feeds every section that
//! reads it:
//!
//! * one suite sweep per machine (baseline, squash-L1, squash-L0). The
//!   baseline sweep also keeps Table 2's trace and program facts and
//!   Figure 3's PET coverage, so no program is emulated twice;
//! * Figure 1's four golden runs, shared by its three protection schemes;
//! * the ablation runs on four benchmarks.
//!
//! Run with `cargo bench -p ses-bench --bench paper`.

use std::sync::Arc;

use ses_core::{
    mean, run_suite, run_suite_with, run_workload, spec_by_name, suite, Avf, BenchSummary,
    Campaign, CampaignConfig, CampaignReport, Category, DetectionModel, FalseDueCause, GoldenRun,
    IssueOrder, Level, Outcome, PipelineConfig, PredictorKind, Table, TrackingConfig, WorkloadRun,
};

/// Figure 3's PET buffer sizes.
const SIZES: [u64; 8] = [32, 128, 512, 2048, 4096, 8192, 16384, 65536];

/// What Table 2 and Figure 3 read from one baseline workload's full run,
/// beyond its summary row.
struct RunFacts {
    halted: bool,
    dynamic_len: usize,
    static_len: usize,
    outputs: usize,
    /// FDD coverage per entry of [`SIZES`]: (non-return, +returns,
    /// +memory).
    pet: [[f64; 3]; SIZES.len()],
}

fn main() {
    let (base_rows, facts): (Vec<BenchSummary>, Vec<RunFacts>) =
        run_suite_with(&PipelineConfig::default(), 0, |_, run| {
            let facts = RunFacts {
                halted: run.trace.halted(),
                dynamic_len: run.trace.len(),
                static_len: run.program.len(),
                outputs: run.trace.output().len(),
                pet: SIZES.map(|size| {
                    [
                        run.dead.pet_coverage_fdd_reg(size, false),
                        run.dead.pet_coverage_fdd_reg(size, true),
                        run.dead.pet_coverage_with_memory(size),
                    ]
                }),
            };
            (run.summary(), facts)
        })
        .expect("baseline suite")
        .into_iter()
        .unzip();
    let l1_rows =
        run_suite(&PipelineConfig::default().with_squash(Level::L1)).expect("squash suite");
    let l0_rows = run_suite(&PipelineConfig::default().with_squash(Level::L0)).expect("suite run");

    table1([&base_rows, &l1_rows, &l0_rows]);
    table2(&facts);
    fig1();
    fig2(&base_rows);
    fig3(&facts);
    fig4(&base_rows, &l1_rows);
    ablate();
}

/// Table 1's paper values: design point, IPC, SDC AVF %, DUE AVF %.
const PAPER: [(&str, f64, f64, f64); 3] = [
    ("No squashing", 1.21, 29.0, 62.0),
    ("Squash on L1 load misses", 1.19, 22.0, 51.0),
    ("Squash on L0 load misses", 1.09, 19.0, 48.0),
];

/// **Table 1**: impact of squashing on IPC and the instruction queue's
/// SDC and DUE AVFs, averaged across all benchmarks.
///
/// Paper values (Itanium®2-like machine, SPEC CPU2000):
///
/// | Design point             | IPC  | SDC AVF | DUE AVF | IPC/SDC | IPC/DUE |
/// |--------------------------|------|---------|---------|---------|---------|
/// | No squashing             | 1.21 | 29 %    | 62 %    | 4.1     | 2.0     |
/// | Squash on L1 load misses | 1.19 | 22 %    | 51 %    | 5.6     | 2.3     |
/// | Squash on L0 load misses | 1.09 | 19 %    | 48 %    | 5.7     | 2.3     |
fn table1(machines: [&[BenchSummary]; 3]) {
    let mut table = Table::new(vec![
        "Design point",
        "IPC",
        "SDC AVF",
        "DUE AVF",
        "IPC/SDC AVF",
        "IPC/DUE AVF",
        "paper IPC",
        "paper SDC",
        "paper DUE",
    ]);

    let measured = machines.map(|rows| {
        (
            mean(rows.iter().map(|r| r.ipc.value())),
            mean(rows.iter().map(|r| r.sdc_avf.percent())),
            mean(rows.iter().map(|r| r.due_avf.percent())),
        )
    });
    for ((ipc, sdc, due), (name, paper_ipc, paper_sdc, paper_due)) in
        measured.into_iter().zip(PAPER)
    {
        table.row(vec![
            name.into(),
            format!("{ipc:.2}"),
            format!("{sdc:.1}%"),
            format!("{due:.1}%"),
            format!("{:.1}", ipc / (sdc / 100.0)),
            format!("{:.1}", ipc / (due / 100.0)),
            format!("{paper_ipc:.2}"),
            format!("{paper_sdc:.0}%"),
            format!("{paper_due:.0}%"),
        ]);
    }

    println!("\n=== Table 1: impact of squashing (measured vs paper) ===\n");
    println!("{table}");

    let [(ipc0, sdc0, due0), (ipc1, sdc1, due1), (ipc2, sdc2, due2)] = measured;
    println!("Shape checks (paper in parentheses):");
    println!(
        "  squash-L1: IPC {:+.1}% (-1.7%), SDC AVF {:+.1}% (-26%), DUE AVF {:+.1}% (-18%)",
        (ipc1 / ipc0 - 1.0) * 100.0,
        (sdc1 / sdc0 - 1.0) * 100.0,
        (due1 / due0 - 1.0) * 100.0,
    );
    println!(
        "  squash-L0: IPC {:+.1}% (-10%),  SDC AVF {:+.1}% (-35%), DUE AVF {:+.1}% (-23%)",
        (ipc2 / ipc0 - 1.0) * 100.0,
        (sdc2 / sdc0 - 1.0) * 100.0,
        (due2 / due0 - 1.0) * 100.0,
    );
    let mitf1 = (ipc1 / sdc1) / (ipc0 / sdc0) - 1.0;
    let mitf2 = (ipc2 / sdc2) / (ipc0 / sdc0) - 1.0;
    println!(
        "  SDC MITF gain: L1 {:+.0}% (paper +37%), L0 {:+.0}% (paper +39%)",
        mitf1 * 100.0,
        mitf2 * 100.0
    );
    let dmitf1 = (ipc1 / due1) / (ipc0 / due0) - 1.0;
    println!("  DUE MITF gain: L1 {:+.0}% (paper +15%)", dmitf1 * 100.0);

    assert!(
        ipc1 < ipc0 && ipc2 < ipc1,
        "IPC must fall with aggressiveness"
    );
    assert!(sdc1 < sdc0 && sdc2 < sdc1, "SDC AVF must fall");
    assert!(due1 < due0 && due2 < due1, "DUE AVF must fall");
    assert!(mitf1 > 0.0, "squash-L1 must raise SDC MITF");
    println!("\nAll Table-1 shape assertions hold.");
}

/// **Table 2**: the benchmark suite definition.
///
/// The paper's Table 2 lists the SPEC CPU2000 programs with their SimPoint
/// skip intervals. Our substitution (DESIGN.md) is a synthetic suite of 26
/// named analogues; this prints each entry's generation parameters and
/// verifies the suite's structural properties: 12 integer + 14 FP
/// entries, and every program synthesising, running to halt, and
/// producing output. (Unique seeds are `ses-workloads`' own unit test.)
fn table2(facts: &[RunFacts]) {
    let specs = suite();
    let mut table = Table::new(vec![
        "Benchmark",
        "Class",
        "Seed",
        "Working set",
        "Stride",
        "Miss gate",
        "Dynamic len",
        "Static len",
        "Outputs",
    ]);

    let mut ints = 0;
    for (spec, run) in specs.iter().zip(facts) {
        assert!(run.halted, "{} must halt", spec.name);
        assert!(run.outputs > 0, "{} must produce output", spec.name);
        if spec.category == Category::Integer {
            ints += 1;
        }
        table.row(vec![
            spec.name.clone(),
            spec.category.label().into(),
            format!("{:#x}", spec.seed),
            format!("{} KB", spec.working_set_bytes / 1024),
            format!("{} B", spec.stride_bytes),
            format!("1/{}", spec.far_gate_mask + 1),
            run.dynamic_len.to_string(),
            run.static_len.to_string(),
            run.outputs.to_string(),
        ]);
    }

    println!("\n=== Table 2: the synthetic SPEC CPU2000 analogue suite ===\n");
    println!("{table}");
    assert_eq!(specs.len(), 26, "paper suite size");
    assert_eq!(ints, 12, "12 integer benchmarks (paper: 12)");
    assert_eq!(specs.len() - ints, 14, "14 FP benchmarks (paper: 14)");
    println!("Suite structure matches the paper: 12 INT + 14 FP benchmarks.");
}

const FIG1_BENCHES: [&str; 4] = ["crafty", "gzip", "twolf", "mgrid"];
const INJECTIONS: u32 = 300;

/// **Figure 1**: the outcome taxonomy of a faulty bit, measured by
/// statistical fault injection.
///
/// The paper's Figure 1 is a classification tree: (1–3) benign outcomes,
/// (4) silent data corruption, (5) false DUE, (6) true DUE. This injects
/// random single-bit faults into the instruction queue under three
/// protection schemes and checks the taxonomy's central claims:
///
/// * without detection, strikes split into benign and SDC;
/// * parity converts every consumed strike into a DUE (no SDC), and a
///   large share of those DUEs are *false*;
/// * π-bit tracking suppresses most false DUEs without (materially)
///   reintroducing SDC.
fn fig1() {
    let models: [(&str, DetectionModel); 3] = [
        ("unprotected", DetectionModel::None),
        ("parity", DetectionModel::Parity { tracking: None }),
        (
            "parity + pi (store scope)",
            DetectionModel::Parity {
                tracking: Some(TrackingConfig::paper_combined()),
            },
        ),
    ];

    println!("\n=== Figure 1: measured single-bit fault outcome taxonomy ===");
    println!(
        "({} injections per benchmark x {:?})\n",
        INJECTIONS, FIG1_BENCHES
    );

    let mut table = Table::new(vec![
        "Protection",
        "benign",
        "SDC",
        "false DUE",
        "true DUE",
        "suppressed",
        "supp-SDC",
        "hang",
    ]);

    let goldens = FIG1_BENCHES.map(|bench| {
        let spec = spec_by_name(bench).expect("known benchmark");
        Arc::new(GoldenRun::prepare(&spec, &CampaignConfig::default()).expect("golden prepare"))
    });
    let [unprot, parity, tracked] = models.map(|(name, model)| {
        let mut merged = CampaignReport::default();
        // Every protection scheme is planned on the same golden runs.
        for (i, golden) in goldens.iter().enumerate() {
            let config = CampaignConfig {
                injections: INJECTIONS,
                seed: 0xF1 + i as u64,
                detection: model,
                ..CampaignConfig::default()
            };
            merged.merge(&Campaign::on(Arc::clone(golden), config).run());
        }
        table.row(vec![
            name.into(),
            format!("{:.1}%", merged.fraction(Outcome::Benign) * 100.0),
            format!("{:.1}%", merged.fraction(Outcome::Sdc) * 100.0),
            format!("{:.1}%", merged.fraction(Outcome::FalseDue) * 100.0),
            format!("{:.1}%", merged.fraction(Outcome::TrueDue) * 100.0),
            format!("{:.1}%", merged.fraction(Outcome::SuppressedSafe) * 100.0),
            format!("{:.1}%", merged.fraction(Outcome::SuppressedSdc) * 100.0),
            format!("{:.1}%", merged.fraction(Outcome::Hang) * 100.0),
        ]);
        merged
    });
    println!("{table}");

    // Taxonomy assertions (the paper's Figure-1 structure).
    assert_eq!(
        unprot.count(Outcome::FalseDue) + unprot.count(Outcome::TrueDue),
        0,
        "no detection, no DUE"
    );
    assert!(
        unprot.count(Outcome::Sdc) > 0,
        "unprotected strikes cause SDC"
    );
    assert_eq!(parity.count(Outcome::Sdc), 0, "parity eliminates SDC");
    assert!(
        parity.count(Outcome::FalseDue) > 0,
        "parity introduces false DUE"
    );
    let due_parity = parity.due_avf_estimate();
    let due_tracked = tracked.due_avf_estimate();
    assert!(
        due_tracked < due_parity,
        "tracking reduces the DUE rate ({due_tracked:.3} vs {due_parity:.3})"
    );
    println!(
        "False DUE share of parity DUEs: {:.0}% (paper: up to 52% of total DUE)",
        parity.fraction(Outcome::FalseDue) / parity.due_avf_estimate() * 100.0
    );
    println!(
        "DUE rate reduction from pi tracking: {:.0}%",
        (1.0 - due_tracked / due_parity) * 100.0
    );
    println!(
        "Statistical SDC AVF (unprotected): {:.1}% +/- {:.1}%",
        unprot.sdc_avf_estimate() * 100.0,
        unprot.ci95(unprot.sdc_avf_estimate()) * 100.0
    );
    println!("\nAll Figure-1 taxonomy assertions hold.");
}

/// **Figure 2**: coverage of the instruction queue's false DUE AVF by the
/// π-bit tracking techniques, per benchmark.
///
/// Paper findings being reproduced:
///
/// * π-at-commit (wrong path + false predication) covers ~18 % of false
///   DUE on average, more for integer codes;
/// * the anti-π bit covers ~49 % on average — ~60 % for FP versus ~35 %
///   for INT (FP codes carry more no-ops and prefetches);
/// * a 512-entry PET buffer adds ~3 %;
/// * register-file π bits add ~11 %; store-commit scope another ~8 %;
///   memory scope the final ~12 % — reaching 100 % cumulative coverage.
fn fig2(rows: &[BenchSummary]) {
    let mut table = Table::new(vec![
        "Benchmark",
        "Class",
        "false DUE AVF",
        "pi@commit",
        "anti-pi",
        "PET-512",
        "pi reg",
        "pi store",
        "pi memory",
        "cumulative",
    ]);

    // Per workload: its class, the share of its false DUE each technique
    // adds in the paper's cumulative order (pi@commit, anti-pi, PET-512,
    // pi reg, pi store, pi memory), and their sum.
    let mut shares: Vec<(Category, [f64; 6], f64)> = Vec::new();
    for r in rows {
        let c = &r.coverage;
        let total = c.total_false.max(1) as f64;
        let added = [
            c.pi_commit,
            c.anti_pi,
            c.pet512,
            c.pi_register - c.pet512,
            c.pi_store - c.pi_register,
            c.pi_memory - c.pi_store,
        ]
        .map(|bits| bits as f64 / total);
        let cumulative: f64 = added.iter().sum();
        let pct = |x: f64| format!("{:.0}%", x * 100.0);
        let mut row = vec![
            r.name.clone(),
            r.category.label().into(),
            r.false_due_avf.to_string(),
        ];
        row.extend(added.map(pct));
        row.push(pct(cumulative));
        table.row(row);
        shares.push((r.category, added, cumulative));
    }

    println!("\n=== Figure 2: false-DUE coverage by tracking technique ===\n");
    println!("{table}");

    let avg = |k: usize| mean(shares.iter().map(|s| s.1[k]));
    let avg_cat =
        |cat: Category, k: usize| mean(shares.iter().filter(|s| s.0 == cat).map(|s| s.1[k]));
    let [commit, anti, pet, reg, store, mem] = [0, 1, 2, 3, 4, 5];

    println!("Averages (paper values in parentheses):");
    println!(
        "  pi@commit : {:.0}% (18%)   INT {:.0}% vs FP {:.0}% (INT higher in paper)",
        avg(commit) * 100.0,
        avg_cat(Category::Integer, commit) * 100.0,
        avg_cat(Category::FloatingPoint, commit) * 100.0,
    );
    println!(
        "  anti-pi   : {:.0}% (49%)   INT {:.0}% (35%) vs FP {:.0}% (60%)",
        avg(anti) * 100.0,
        avg_cat(Category::Integer, anti) * 100.0,
        avg_cat(Category::FloatingPoint, anti) * 100.0,
    );
    println!("  PET-512   : {:.0}% (3%)", avg(pet) * 100.0);
    println!("  pi reg    : {:.0}% (11%)", avg(reg) * 100.0);
    println!("  pi store  : {:.0}% (8%)", avg(store) * 100.0);
    println!("  pi memory : {:.0}% (12%)", avg(mem) * 100.0);
    let cum = mean(shares.iter().map(|s| s.2));
    println!("  cumulative: {:.0}% (100%)", cum * 100.0);

    // Shape assertions.
    assert!(
        avg_cat(Category::FloatingPoint, anti) > avg_cat(Category::Integer, anti),
        "anti-pi must matter more for FP (paper)"
    );
    assert!(
        avg_cat(Category::Integer, commit) > avg_cat(Category::FloatingPoint, commit),
        "pi@commit must matter more for INT (paper)"
    );
    assert!((cum - 1.0).abs() < 1e-6, "cumulative coverage must be 100%");
    assert!(
        avg(anti) > avg(commit),
        "anti-pi is the largest single technique"
    );
    println!("\nAll Figure-2 shape assertions hold.");
}

/// **Figure 3**: coverage of FDD (first-level dynamically dead)
/// instructions by PET buffers of varying size.
///
/// Paper findings being reproduced:
///
/// * a 512-entry PET buffer covers about 32 % of FDD-via-register
///   instructions;
/// * return-attributed FDD registers need much larger buffers — around
///   10,000 entries covers "most" FDD;
/// * FDD tracked via memory needs the largest windows of all.
///
/// This figure is pure trace analysis (no timing model): coverage comes
/// from the dead map's kill-distance distribution.
fn fig3(facts: &[RunFacts]) {
    let mut table = Table::new(vec![
        "PET entries",
        "FDD-reg (non-return)",
        "FDD-reg (+returns)",
        "FDD (+memory)",
    ]);
    let mut rows = Vec::new();
    for (i, &size) in SIZES.iter().enumerate() {
        let [a, b, c] = std::array::from_fn(|k| mean(facts.iter().map(|r| r.pet[i][k])));
        table.row(vec![
            size.to_string(),
            format!("{:.0}%", a * 100.0),
            format!("{:.0}%", b * 100.0),
            format!("{:.0}%", c * 100.0),
        ]);
        rows.push((size, a, b, c));
    }

    println!("\n=== Figure 3: FDD coverage vs PET buffer size ===\n");
    println!("{table}");

    let at = |size: u64| rows.iter().find(|r| r.0 == size).expect("size in sweep");

    // Shape assertions from the paper.
    let (_, _a512, b512, _) = *at(512);
    println!(
        "512-entry PET covers {:.0}% of FDD-reg incl. returns (paper: ~32%)",
        b512 * 100.0
    );
    assert!(
        (0.15..0.70).contains(&b512),
        "512-entry coverage must be partial, got {b512:.2}"
    );
    let (_, _, b16k, c16k) = *at(16384);
    assert!(
        b16k > 0.85,
        "a ~10k-entry buffer covers most FDD-reg (paper), got {b16k:.2}"
    );
    assert!(c16k > b512, "memory-tracked FDD needs the largest windows");
    // Monotonicity of all three curves.
    for w in rows.windows(2) {
        assert!(w[1].1 >= w[0].1 && w[1].2 >= w[0].2 && w[1].3 >= w[0].3);
    }
    // Return-killed registers need larger buffers: the +returns curve lags
    // at small sizes relative to its own asymptote.
    let gap_small = at(512).2 - at(512).1;
    println!(
        "Return-attributed gap at 512 entries: {:+.0}% of FDD-reg",
        gap_small * 100.0
    );
    println!("\nAll Figure-3 shape assertions hold.");
}

/// **Figure 4**: impact of the combined techniques on the instruction
/// queue's SDC and DUE AVFs, per benchmark.
///
/// The paper's §6.3 combination: squash on L1 load misses (exposure
/// reduction), plus — for the parity-protected queue — π-bit tracking
/// carried to the store-commit point with the anti-π bit.
///
/// Paper findings being reproduced:
///
/// * relative SDC AVF (squash only) averages 0.74 (a 26 % reduction),
///   with `ammp` an outlier near 0.10 (90 % reduction for ~7 % IPC);
/// * relative DUE AVF (squash + tracking) averages 0.43 (57 % reduction);
/// * the combined IPC cost stays around 2 %.
fn fig4(base_rows: &[BenchSummary], sq_rows: &[BenchSummary]) {
    let mut table = Table::new(vec![
        "Benchmark",
        "Class",
        "rel SDC AVF (squash)",
        "rel DUE AVF (squash+pi)",
        "rel IPC",
    ]);

    // Per workload: relative SDC AVF, relative DUE AVF, relative IPC.
    let mut rel = Vec::new();
    for (b, s) in base_rows.iter().zip(sq_rows) {
        assert_eq!(b.name, s.name);
        // DUE with tracking on the squash run: true DUE (= SDC AVF) plus
        // the false DUE left uncovered by pi@commit + anti-pi + store
        // scope.
        let total_bits = s.total_bit_cycles(64);
        let residual = s.residual_false_due(s.coverage.pi_store, total_bits);
        let due_tracked: Avf = s.sdc_avf.saturating_add(residual);

        let rs = s.sdc_avf.fraction() / b.sdc_avf.fraction();
        let rd = due_tracked.fraction() / b.due_avf.fraction();
        let ri = s.ipc.value() / b.ipc.value();
        table.row(vec![
            b.name.clone(),
            b.category.label().into(),
            format!("{rs:.2}"),
            format!("{rd:.2}"),
            format!("{ri:.3}"),
        ]);
        rel.push([rs, rd, ri]);
    }

    println!("\n=== Figure 4: combined squash + pi-bit tracking, per benchmark ===\n");
    println!("{table}");

    let [avg_sdc, avg_due, avg_ipc] = std::array::from_fn(|k| mean(rel.iter().map(|r| r[k])));
    println!("Averages (paper in parentheses):");
    println!("  relative SDC AVF: {avg_sdc:.2} (0.74, i.e. -26%)");
    println!("  relative DUE AVF: {avg_due:.2} (0.43, i.e. -57%)");
    println!("  relative IPC    : {avg_ipc:.3} (0.98, i.e. -2%)");

    let ammp_idx = base_rows.iter().position(|r| r.name == "ammp").unwrap();
    let [ammp_sdc, _, ammp_ipc] = rel[ammp_idx];
    println!(
        "  ammp outlier    : rel SDC {:.2} (paper ~0.10), rel IPC {:.3} (paper ~0.93)",
        ammp_sdc, ammp_ipc
    );

    // Shape assertions.
    assert!(avg_sdc < 1.0, "squash must reduce SDC AVF");
    assert!(
        avg_due < avg_sdc,
        "combined techniques cut DUE more than SDC alone"
    );
    assert!(
        avg_due < 0.60,
        "DUE reduction must be substantial (paper -57%)"
    );
    assert!(
        avg_ipc > 0.90,
        "combined IPC cost must stay small (paper -2%)"
    );
    assert!(
        ammp_sdc < 0.35,
        "ammp must be the dramatic-reduction outlier (paper ~0.10)"
    );
    assert!(
        rel.iter().all(|r| r[0] < 1.05),
        "no benchmark may materially regress"
    );
    println!("\nAll Figure-4 shape assertions hold.");
}

const ABLATION_BENCHES: [&str; 4] = ["gap", "gzip", "twolf", "ammp"];

/// Means, over the ablation benchmarks on one machine, of what `probe`
/// reads from each run.
fn measure<const N: usize>(
    cfg: &PipelineConfig,
    probe: impl Fn(&WorkloadRun) -> [f64; N],
) -> [f64; N] {
    let runs = ABLATION_BENCHES.map(|b| {
        let spec = spec_by_name(b).expect("bench");
        probe(&run_workload(&spec, cfg).expect("run"))
    });
    std::array::from_fn(|i| mean(runs.iter().map(|r| r[i])))
}

/// IPC, SDC AVF (percent) and idle fraction of one run.
fn ipc_sdc_idle(run: &WorkloadRun) -> [f64; 3] {
    [
        run.result.ipc().value(),
        run.avf.sdc_avf().percent(),
        run.avf.state_fractions().idle,
    ]
}

/// Ablation studies of the design choices DESIGN.md calls out: how
/// sensitive are the reproduced results to the modelling knobs that are
/// *not* pinned down by the paper?
///
/// * **Instruction-queue size** — AVF and IPC versus queue depth (the
///   64-entry point is the paper's machine);
/// * **Front-end stall model** — the synthetic I-fetch stall duty cycle
///   that calibrates the paper's ~30 % idle fraction;
/// * **Front-end depth** — refill penalty after squash/misprediction;
/// * **Branch predictor** — wrong-path exposure;
/// * **Squash vs throttle** — the paper's two actions, separately and
///   combined;
/// * **Issue order** — in-order versus out-of-order.
fn ablate() {
    println!("\n=== Ablation 1: instruction-queue size ===\n");
    let mut t = Table::new(vec!["IQ entries", "IPC", "SDC AVF", "idle"]);
    let mut iq_rows = Vec::new();
    for entries in [16usize, 32, 64, 128] {
        let cfg = PipelineConfig {
            iq_entries: entries,
            ..PipelineConfig::default()
        };
        let [ipc, sdc, idle] = measure(&cfg, ipc_sdc_idle);
        t.row(vec![
            entries.to_string(),
            format!("{ipc:.2}"),
            format!("{sdc:.1}%"),
            format!("{idle:.2}"),
        ]);
        iq_rows.push((entries, ipc, sdc));
    }
    println!("{t}");
    // Bigger queues buffer more exposed state: AVF should not collapse
    // with size, and IPC should not degrade.
    assert!(
        iq_rows[3].1 >= iq_rows[0].1 - 0.05,
        "IPC monotone-ish in size"
    );

    println!("\n=== Ablation 2: synthetic I-fetch stall duty (idle calibration) ===\n");
    let mut t = Table::new(vec!["stall cycles / period", "IPC", "SDC AVF", "idle"]);
    let mut duty_rows = Vec::new();
    for (cycles, period) in [(0u64, 0u64), (20, 80), (48, 80), (64, 80)] {
        let cfg = PipelineConfig {
            ifetch_stall_period: period,
            ifetch_stall_cycles: cycles,
            ..PipelineConfig::default()
        };
        let [ipc, sdc, idle] = measure(&cfg, ipc_sdc_idle);
        t.row(vec![
            format!("{cycles}/{period}"),
            format!("{ipc:.2}"),
            format!("{sdc:.1}%"),
            format!("{idle:.2}"),
        ]);
        duty_rows.push((cycles, idle, sdc));
    }
    println!("{t}");
    assert!(
        duty_rows[3].1 > duty_rows[0].1,
        "more fetch-off duty must raise idle fraction"
    );
    assert!(
        duty_rows[3].2 < duty_rows[0].2,
        "idle time displaces exposed state, lowering AVF"
    );

    println!("\n=== Ablation 3: front-end depth (squash refill penalty) ===\n");
    let mut t = Table::new(vec!["depth", "IPC (squash L1)", "SDC AVF (squash L1)"]);
    for depth in [4u64, 8, 16] {
        let mut cfg = PipelineConfig::default().with_squash(Level::L1);
        cfg.frontend_depth = depth;
        let [ipc, sdc, _] = measure(&cfg, ipc_sdc_idle);
        t.row(vec![
            depth.to_string(),
            format!("{ipc:.2}"),
            format!("{sdc:.1}%"),
        ]);
    }
    println!("{t}");

    println!("\n=== Ablation 4: branch predictor vs wrong-path exposure ===\n");
    let mut t = Table::new(vec![
        "predictor",
        "mispredict",
        "wrong-path false DUE share",
        "IPC",
    ]);
    let mut wp_rows = Vec::new();
    for kind in [
        PredictorKind::Gshare,
        PredictorKind::Bimodal,
        PredictorKind::StaticTaken,
    ] {
        let mut cfg = PipelineConfig::default();
        cfg.predictor.kind = kind;
        let [mp, wp, ipc] = measure(&cfg, |run| {
            let wrong = run.avf.false_due_cause(FalseDueCause::WrongPath) as f64;
            let total: f64 = FalseDueCause::ALL
                .iter()
                .map(|&c| run.avf.false_due_cause(c) as f64)
                .sum();
            let share = if total > 0.0 { wrong / total } else { 0.0 };
            [
                run.result.mispredict_ratio(),
                share,
                run.result.ipc().value(),
            ]
        });
        t.row(vec![
            format!("{kind:?}"),
            format!("{:.1}%", mp * 100.0),
            format!("{:.1}%", wp * 100.0),
            format!("{ipc:.2}"),
        ]);
        wp_rows.push((mp, wp));
    }
    println!("{t}");
    assert!(
        wp_rows[2].0 > wp_rows[0].0,
        "static-taken must mispredict more than gshare"
    );
    assert!(
        wp_rows[2].1 > wp_rows[0].1,
        "more mispredicts, more wrong-path false-DUE exposure"
    );

    println!("\n=== Ablation 5: squash vs throttle vs both ===\n");
    let mut t = Table::new(vec!["action", "IPC", "SDC AVF", "IPC/AVF"]);
    let mut rows = Vec::new();
    let actions: [(&str, PipelineConfig); 4] = [
        ("none", PipelineConfig::default()),
        (
            "throttle L1",
            PipelineConfig::default().with_throttle(Level::L1),
        ),
        (
            "squash L1",
            PipelineConfig::default().with_squash(Level::L1),
        ),
        (
            "squash + throttle L1",
            PipelineConfig::default()
                .with_squash(Level::L1)
                .with_throttle(Level::L1),
        ),
    ];
    for (name, cfg) in &actions {
        let [ipc, sdc, _] = measure(cfg, ipc_sdc_idle);
        t.row(vec![
            (*name).into(),
            format!("{ipc:.2}"),
            format!("{sdc:.1}%"),
            format!("{:.2}", ipc / (sdc / 100.0)),
        ]);
        rows.push(sdc);
    }
    println!("{t}");
    // The paper's observation: throttling adds little beyond squashing.
    let squash = rows[2];
    let both = rows[3];
    assert!(
        (both - squash).abs() < 0.35 * squash,
        "throttle must add little AVF benefit on top of squashing \
         (paper: 'we did not observe significant reduction ... beyond what \
         instruction squashing already provides')"
    );
    println!("\n=== Ablation 6: in-order vs out-of-order issue ===\n");
    let mut t = Table::new(vec![
        "machine",
        "IPC",
        "SDC AVF",
        "squash-L1 SDC cut",
        "squash-L1 IPC cost",
    ]);
    let mut oo_rows = Vec::new();
    for order in [IssueOrder::InOrder, IssueOrder::OutOfOrder] {
        let base_cfg = PipelineConfig {
            issue_order: order,
            ..PipelineConfig::default()
        };
        let sq_cfg = base_cfg.clone().with_squash(Level::L1);
        let [ipc0, sdc0, _] = measure(&base_cfg, ipc_sdc_idle);
        let [ipc1, sdc1, _] = measure(&sq_cfg, ipc_sdc_idle);
        let cut = 1.0 - sdc1 / sdc0;
        let cost = 1.0 - ipc1 / ipc0;
        t.row(vec![
            format!("{order:?}"),
            format!("{ipc0:.2}"),
            format!("{sdc0:.1}%"),
            format!("{:.0}%", cut * 100.0),
            format!("{:.1}%", cost * 100.0),
        ]);
        oo_rows.push((ipc0, cut));
    }
    println!("{t}");
    assert!(
        oo_rows[1].0 > oo_rows[0].0,
        "out-of-order issue must raise IPC"
    );
    assert!(
        oo_rows[1].1 < oo_rows[0].1,
        "squash benefit must be less pronounced out of order (paper §3.1)"
    );

    println!("\nAll ablation assertions hold.");
}
