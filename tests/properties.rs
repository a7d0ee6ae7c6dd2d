//! Property-based integration tests: randomly parameterised workloads must
//! flow through the entire stack without violating structural invariants.

use proptest::prelude::*;
use ses_arch::Emulator;
use ses_core::{run_workload, AvfAnalysis, DeadMap, PipelineConfig, WorkloadSpec};
use ses_pipeline::Pipeline;
use ses_workloads::{synthesize, BlockMix, Category};

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        (
            any::<u64>(),
            prop_oneof![Just(Category::Integer), Just(Category::FloatingPoint)],
            1u8..5, // arith
            0u8..3, // load_live
            0u8..2, // load_far
            0u8..2, // load_deep
        ),
        (
            0u8..2,    // store_live
            0u8..2,    // dead_chain
            0u8..8,    // neutral
            0u8..2,    // branchy
            0u8..3,    // call
            10u64..16, // log2 working set
            prop_oneof![Just(8u64), Just(64), Just(256)],
        ),
    )
        .prop_map(
            |(
                (seed, category, arith, ll, lf, ld),
                (sl, dc, neutral, br, call, ws_log2, stride),
            )| {
                WorkloadSpec {
                    name: format!("prop-{seed:x}"),
                    category,
                    seed,
                    target_dynamic: 8_000,
                    mix: BlockMix {
                        arith,
                        load_live: ll,
                        load_far: lf,
                        load_deep: ld,
                        load_dead: 1,
                        store_live: sl,
                        store_dead: 1,
                        dead_chain: dc,
                        dead_slow: 1,
                        neutral,
                        predicated: 1,
                        branchy: br,
                        call,
                    },
                    working_set_bytes: 1 << ws_log2,
                    stride_bytes: stride,
                    far_gate_mask: 1,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_spec_synthesises_runs_and_halts(spec in arb_spec()) {
        let program = synthesize(&spec);
        let trace = Emulator::new(&program).run(spec.target_dynamic * 6).unwrap();
        prop_assert!(trace.halted(), "program must halt");
        prop_assert!(!trace.output().is_empty(), "program must emit output");
    }

    #[test]
    fn timing_commits_exactly_the_trace(spec in arb_spec()) {
        let program = synthesize(&spec);
        let trace = Emulator::new(&program).run(spec.target_dynamic * 6).unwrap();
        let result = Pipeline::new(PipelineConfig::default()).run(&program, &trace);
        prop_assert_eq!(result.committed, trace.len() as u64);
        prop_assert!(!result.budget_exhausted);
        // Retirement can never beat the 6-wide width bound.
        prop_assert!(result.cycles * 6 >= result.committed);
    }

    #[test]
    fn avf_invariants_hold_for_any_spec(spec in arb_spec()) {
        let run = run_workload(&spec, &PipelineConfig::default()).unwrap();
        let s = run.avf.state_fractions();
        prop_assert!((s.idle + s.unread + s.unace + s.ace - 1.0).abs() < 1e-9);
        prop_assert!(run.avf.due_avf().fraction() >= run.avf.sdc_avf().fraction());
        prop_assert!(run.avf.due_avf().fraction() <= 1.0);
        // Dead fraction is a fraction.
        let df = run.dead.dead_fraction();
        prop_assert!((0.0..=1.0).contains(&df));
    }

    #[test]
    fn dead_analysis_kill_distances_are_sane(spec in arb_spec()) {
        let program = synthesize(&spec);
        let trace = Emulator::new(&program).run(spec.target_dynamic * 6).unwrap();
        let dead = DeadMap::analyze(&trace);
        for (idx, info) in dead.iter().enumerate() {
            if let Some(kd) = info.kill_distance {
                prop_assert!(kd > 0, "kill distance must be positive");
                prop_assert!(
                    idx as u64 + kd <= trace.len() as u64,
                    "kill must land inside the trace"
                );
            }
        }
        // PET coverage is monotone in capacity.
        let caps = [16u64, 64, 256, 1024, 4096, 16384];
        let mut last = 0.0;
        for c in caps {
            let cov = dead.pet_coverage_fdd_reg(c, true);
            prop_assert!(cov + 1e-12 >= last);
            last = cov;
        }
    }

    #[test]
    fn bit_cycles_partition_exactly(spec in arb_spec()) {
        // Conservation: every simulated (bit x cycle) lands in exactly one
        // class, as integers -- no float slop allowed.
        let run = run_workload(&spec, &PipelineConfig::default()).unwrap();
        let d = run.avf.decomposition();
        prop_assert_eq!(d.ace + d.unace_total() + d.unread + d.idle, d.total);
        prop_assert_eq!(d.ace_by_kind.iter().sum::<u64>(), d.ace);
        prop_assert_eq!(d.total, run.avf.total_bit_cycles());
    }

    #[test]
    fn due_avf_is_sdc_plus_false_due(spec in arb_spec()) {
        let run = run_workload(&spec, &PipelineConfig::default()).unwrap();
        let sdc = run.avf.sdc_avf().fraction();
        let false_due = run.avf.false_due_avf().fraction();
        let due = run.avf.due_avf().fraction();
        prop_assert!((sdc + false_due - due).abs() < 1e-12,
            "DUE {} must be SDC {} + false DUE {}", due, sdc, false_due);
    }

    #[test]
    fn pet_coverage_never_exceeds_register_pi(spec in arb_spec()) {
        let run = run_workload(&spec, &PipelineConfig::default()).unwrap();
        let pet = run.avf.covered_by(ses_core::Technique::Pet(512), &run.dead);
        let reg = run.avf.covered_by(ses_core::Technique::PiRegister, &run.dead);
        let store = run.avf.covered_by(ses_core::Technique::PiStoreCommit, &run.dead);
        let mem = run.avf.covered_by(ses_core::Technique::PiMemory, &run.dead);
        prop_assert!(pet <= reg && reg <= store && store <= mem);
        prop_assert!(mem <= run.avf.false_due_avf().fraction().mul_add(run.avf.total_bit_cycles() as f64, 1.0) as u64);
        let _ = AvfAnalysis::new(&run.result, &run.dead); // reconstructible
    }
}

// --- idempotent-region recovery invariants -------------------------------

/// Satellite: structural and conservation properties of the
/// detection-latency + idempotent-region recovery model.
mod recovery {
    use super::*;
    use ses_core::{
        Campaign, CampaignConfig, DetailedReport, DetectionModel, LatencyDistribution, Outcome,
        RecoveryPolicy, RegionMap,
    };
    use ses_workloads::{fuzz_program_with, FuzzProgramSpec};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The region analysis partitions every trace — no gaps, no
        /// overlaps, exact coverage — and every boundary is justified by
        /// an actual store, output, call, or live-in overwrite at that
        /// trace index. Checked over both fuzz-program families (plain
        /// and store-dense) so alias-heavy traces are in the net.
        #[test]
        fn regions_partition_every_fuzz_trace(seed in any::<u64>(), mem_heavy in any::<bool>()) {
            let spec = if mem_heavy {
                FuzzProgramSpec::mem_heavy()
            } else {
                FuzzProgramSpec::default()
            };
            let program = fuzz_program_with(ses_core::splitmix64(seed), &spec);
            let trace = Emulator::new(&program).run(500_000).unwrap();
            prop_assert!(trace.halted());
            let regions = RegionMap::analyze(&trace);
            prop_assert!(!regions.is_empty());
            if let Err(e) = regions.check_partition() {
                prop_assert!(false, "partition violated: {e}");
            }
            if let Err(e) = regions.check_boundaries(&trace) {
                prop_assert!(false, "unjustified boundary: {e}");
            }
        }
    }

    fn run_recovery(
        spec: &WorkloadSpec,
        latency: Option<LatencyDistribution>,
        seed: u64,
    ) -> DetailedReport {
        let config = CampaignConfig {
            injections: 200,
            seed,
            detection: DetectionModel::Parity { tracking: None },
            recovery: if latency.is_some() {
                RecoveryPolicy::Idempotent
            } else {
                RecoveryPolicy::MachineCheck
            },
            detect_latency: latency,
            ..CampaignConfig::default()
        };
        Campaign::prepare(spec, config)
            .expect("campaign prepares")
            .run_detailed()
    }

    /// With zero detection latency every would-be DUE lands inside the
    /// faulting region and recovers; DUE + SDC mass is conserved exactly
    /// against the legacy campaign, per fault, and the SDC samples are
    /// untouched — recovery converts detections, it never manufactures
    /// or hides corruption.
    #[test]
    fn zero_latency_recovery_conserves_due_plus_sdc_per_fault() {
        let spec = WorkloadSpec::quick("recovery-conserve", 17);
        let legacy = run_recovery(&spec, None, 7);
        let recovered = run_recovery(&spec, Some(LatencyDistribution::Fixed(0)), 7);

        assert_eq!(legacy.samples().len(), recovered.samples().len());
        for ((fa, a), (fb, b)) in legacy.samples().iter().zip(recovered.samples()) {
            assert_eq!(fa, fb, "both campaigns must draw the same fault sequence");
            match a {
                Outcome::FalseDue | Outcome::TrueDue => {
                    assert_eq!(*b, Outcome::Recovered, "zero-latency DUE must recover");
                }
                other => assert_eq!(b, other, "non-DUE outcomes must be untouched"),
            }
        }

        let (l, r) = (legacy.summary(), recovered.summary());
        assert_eq!(
            r.count(Outcome::Recovered),
            l.count(Outcome::FalseDue) + l.count(Outcome::TrueDue),
            "recovered mass must equal the legacy DUE mass"
        );
        assert_eq!(r.due_avf_estimate(), 0.0);
        assert_eq!(r.sdc_avf_estimate(), l.sdc_avf_estimate());
        let stanza = recovered.recovery().expect("recovery stanza present");
        assert_eq!(stanza.fallback_due, 0);
        assert_eq!(stanza.recovered, r.count(Outcome::Recovered));
    }

    /// Recovery cost is monotone in detection latency: the detected set
    /// is latency-independent, the recovered subset can only shrink as
    /// signals escape their regions, and the per-recovery re-execution
    /// charge can only grow.
    #[test]
    fn recovery_cost_is_monotone_in_detection_latency() {
        let spec = WorkloadSpec::quick("recovery-monotone", 29);
        let ladder = [0u64, 4, 16, 64, 256];
        let reports: Vec<_> = ladder
            .iter()
            .map(|&l| {
                run_recovery(&spec, Some(LatencyDistribution::Fixed(l)), 13)
                    .recovery()
                    .copied()
                    .expect("recovery stanza present")
            })
            .collect();

        let detected = reports[0].detected();
        assert!(detected > 0, "the ladder needs detections to be meaningful");
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(
                r.detected(),
                detected,
                "latency {} must not change the detected set",
                ladder[i]
            );
        }
        for pair in reports.windows(2) {
            assert!(
                pair[1].recovered <= pair[0].recovered,
                "recovered count must not rise with latency ({} -> {})",
                pair[0].recovered,
                pair[1].recovered
            );
        }
        // Mean re-execution charge grows with latency while anything
        // still recovers: the signal lands deeper into the region.
        let charged: Vec<_> = reports.iter().filter(|r| r.recovered > 0).collect();
        for pair in charged.windows(2) {
            assert!(
                pair[1].mean_reexec_instructions() >= pair[0].mean_reexec_instructions(),
                "per-recovery charge must not shrink with latency"
            );
        }
        assert!(
            reports.last().unwrap().recovered < reports[0].recovered,
            "a 256-cycle latency must push some signals past their region"
        );
    }
}

// --- pi-bit tracker state invariants -------------------------------------

use ses_arch::{DynInstr, SideEffect};
use ses_isa::Instruction;
use ses_pipeline::{PiScope, PiTracker};
use ses_types::{Addr, Reg};

/// One register-file op for the tracker: 0 = add d,s1,s2; 1 = movi d.
fn reg_op((kind, d, s1, s2): (u8, u8, u8, u8), idx: u64) -> DynInstr {
    let instr = match kind % 2 {
        0 => Instruction::add(
            Reg::new(d % 8 + 1),
            Reg::new(s1 % 8 + 1),
            Reg::new(s2 % 8 + 1),
        ),
        _ => Instruction::movi(Reg::new(d % 8 + 1), i32::from(s1)),
    };
    DynInstr {
        index: idx,
        pc: Addr::new(0x1_0000 + idx * 8),
        instr,
        executed: true,
        reg_written: instr.reg_write().filter(|r| !r.is_zero()),
        pred_written: instr.pred_write(),
        side_effect: SideEffect::None,
        taken: None,
        next_pc: Addr::new(0x1_0000 + (idx + 1) * 8),
        call_depth: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn commit_scope_holds_no_poison(ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..40)) {
        // Commit scope signals or suppresses at the commit point itself:
        // after every commit-scope clearing the tracker must carry zero
        // pi bits, even when the corrupted instruction itself commits.
        let mut t = PiTracker::new(PiScope::Commit, 8);
        for (i, op) in ops.iter().enumerate() {
            let self_pi = op.0 & 4 != 0;
            let _ = t.on_commit(&reg_op(*op, i as u64), self_pi);
            prop_assert_eq!(t.poison_count(), 0);
            prop_assert!(!t.poison_pending());
        }
    }

    #[test]
    fn register_scope_poison_is_monotone_without_new_faults(ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..40)) {
        // Seed exactly one poisoned register, then commit only clean
        // register ops: the pi population can shrink (overwrite) or be
        // consumed (signal), but never grow, and once it reaches zero it
        // must stay there (no resurrection).
        let mut t = PiTracker::new(PiScope::Register, 8);
        let seed = reg_op((0, 0, 4, 5), 0); // add r1, r5, r6
        let _ = t.on_commit(&seed, true);
        let mut last = t.poison_count();
        for (i, op) in ops.iter().enumerate() {
            let _ = t.on_commit(&reg_op(*op, i as u64 + 1), false);
            let now = t.poison_count();
            prop_assert!(now <= last, "pi count grew {last} -> {now} without a new fault");
            if last == 0 {
                prop_assert_eq!(now, 0, "pi poison resurrected after reaching zero");
            }
            last = now;
        }
    }
}

/// The adaptive stratified estimator: its algebra must reproduce the
/// uniform estimator exactly at the census limit and in expectation
/// under sampling, and its pooled interval must always sit inside the
/// per-stratum union bound.
mod adaptive_estimator {
    use super::*;
    use ses_core::{
        splitmix64, AdaptiveConfig, AdaptiveScheduler, FaultCoord, OccupancyProfile, Strata,
    };

    fn toy_strata(cycles: u64, iq: usize) -> Strata {
        // Queue busy in the middle half, so the occupancy axis is real.
        let intervals: Vec<(u64, u64)> = (0..iq).map(|_| (cycles / 4, 3 * cycles / 4)).collect();
        let profile = OccupancyProfile::from_intervals(cycles, iq, intervals, 8);
        Strata::build(cycles, iq, &profile)
    }

    /// A deterministic pseudo-random outcome field over coordinates with
    /// bit-dependent density, so strata genuinely differ in proportion.
    fn synthetic_outcome(seed: u64, c: &FaultCoord) -> bool {
        let h = splitmix64(seed ^ (c.cycle << 20) ^ ((c.slot as u64) << 8) ^ u64::from(c.bit));
        h % 1000 < 60 + 500 * u64::from(c.bit < 12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// At the census limit (every stratum enumerated) the
        /// post-stratified estimate IS the uniform population mean, with
        /// a zero-width interval.
        #[test]
        fn exhaustive_stratified_estimate_equals_population_mean(
            seed in any::<u64>(),
            cycles in 24u64..72,
            iq in 2usize..6,
        ) {
            let strata = toy_strata(cycles, iq);
            let cfg = AdaptiveConfig {
                exhaust_threshold: u64::MAX,
                ..AdaptiveConfig::default()
            };
            let mut sched = AdaptiveScheduler::new(strata.clone(), cfg);
            sched.run_to_completion(|c| synthetic_outcome(seed, c));
            let est = sched.estimate();

            let mut events = 0u64;
            for cycle in 0..cycles {
                for slot in 0..iq {
                    for bit in 0..64 {
                        let c = FaultCoord { cycle, slot, bit };
                        prop_assert!(strata.stratum_of(&c).is_some());
                        events += u64::from(synthetic_outcome(seed, &c));
                    }
                }
            }
            let mean = events as f64 / strata.total_size() as f64;
            prop_assert!((est.estimate - mean).abs() < 1e-9,
                "census estimate {} != population mean {}", est.estimate, mean);
            prop_assert_eq!(est.halfwidth, 0.0);
        }

        /// Under sampling, the pooled interval must sit inside the
        /// weighted union bound (quadrature <= linear combination), the
        /// estimate must stay a convex combination, and the trajectory's
        /// cumulative trial count must be monotone.
        #[test]
        fn sampled_estimate_pooled_interval_within_union_bound(
            seed in any::<u64>(),
            sched_seed in any::<u64>(),
        ) {
            let strata = toy_strata(48, 4);
            let cfg = AdaptiveConfig {
                target_halfwidth: 0.05,
                round_budget: 256,
                seed: sched_seed,
                ..AdaptiveConfig::default()
            };
            let mut sched = AdaptiveScheduler::new(strata, cfg);
            sched.run_to_completion(|c| synthetic_outcome(seed, c));
            let est = sched.estimate();
            prop_assert!((0.0..=1.0).contains(&est.estimate));
            let (plo, phi) = est.interval();
            let (ulo, uhi) = est.union_bound();
            prop_assert!(plo >= ulo - 1e-12 && phi <= uhi + 1e-12,
                "pooled [{plo}, {phi}] escapes union [{ulo}, {uhi}]");
            let mut last = 0u64;
            for r in sched.trajectory() {
                prop_assert!(r.cumulative_trials >= last);
                last = r.cumulative_trials;
            }
        }
    }

    /// Averaged over many scheduler seeds, the sampled post-stratified
    /// estimate agrees with the uniform population mean: the estimator
    /// is unbiased in expectation. Deterministic given the fixed seed
    /// list, so this cannot flap.
    #[test]
    fn sampled_estimate_is_unbiased_in_expectation() {
        let strata = toy_strata(40, 4);
        let outcome_seed = 0xFEED;
        let mut events = 0u64;
        for cycle in 0..40 {
            for slot in 0..4usize {
                for bit in 0..64 {
                    let c = FaultCoord { cycle, slot, bit };
                    events += u64::from(synthetic_outcome(outcome_seed, &c));
                }
            }
        }
        let mean = events as f64 / strata.total_size() as f64;

        let runs = 32;
        let avg: f64 = (0..runs)
            .map(|s| {
                let cfg = AdaptiveConfig {
                    target_halfwidth: 0.06,
                    round_budget: 192,
                    seed: 0x1000 + s,
                    ..AdaptiveConfig::default()
                };
                let mut sched = AdaptiveScheduler::new(strata.clone(), cfg);
                sched.run_to_completion(|c| synthetic_outcome(outcome_seed, c));
                sched.estimate().estimate
            })
            .sum::<f64>()
            / runs as f64;
        assert!(
            (avg - mean).abs() < 0.02,
            "mean of {runs} adaptive estimates {avg:.4} drifted from population mean {mean:.4}"
        );
    }
}

/// Pooled-versus-union consistency of the uniform campaign's own
/// intervals: for any grouping of outcome classes, the CI of the pooled
/// proportion must sit inside the sum of the member CIs (sqrt
/// subadditivity), so reports can always quote the tighter pooled
/// number.
#[test]
fn campaign_report_pooled_ci_within_union_of_member_cis() {
    use ses_core::{Campaign, CampaignConfig, Outcome};
    let spec = WorkloadSpec::quick("pooled-ci", 23);
    let config = CampaignConfig {
        injections: 400,
        seed: 9,
        detection: ses_core::DetectionModel::Parity { tracking: None },
        ..CampaignConfig::default()
    };
    let report = Campaign::prepare(&spec, config).unwrap().run();
    let groups: [&[Outcome]; 2] = [
        &[Outcome::FalseDue, Outcome::TrueDue],
        &[Outcome::Sdc, Outcome::SuppressedSdc, Outcome::Hang],
    ];
    for group in groups {
        let pooled_p: f64 = group.iter().map(|&o| report.fraction(o)).sum();
        let pooled_ci = report.ci95(pooled_p);
        let union_ci: f64 = group.iter().map(|&o| report.ci95(report.fraction(o))).sum();
        assert!(
            pooled_ci <= union_ci + 1e-12,
            "pooled CI {pooled_ci} exceeds union {union_ci} for {group:?}"
        );
    }
}

/// Satellite: fixed-seed adaptive campaign on a small program, run at the
/// exhaustive limit, must agree *exactly* with a brute-force census of the
/// whole injection space — the estimator's weights, masked-idle handling
/// and phase partition introduce no bias at all, not just asymptotically.
#[test]
fn adaptive_exhaustive_agrees_with_census_on_small_program() {
    use ses_core::{
        build_strata, AdaptiveCampaignConfig, AdaptiveConfig, AdaptiveSession, Campaign,
        CampaignConfig, DetectionModel, FaultSpec, GoldenRun, MetricKind, PipelineConfig,
    };
    use ses_isa::Program;
    use std::sync::Arc;
    // Hand-built so the injection space is small enough to enumerate
    // twice: dependent adds (live reads), an overwritten-without-read
    // value (a dead tail for the Tail phase), and an output to make
    // corruption architecturally visible.
    let mut code = vec![Instruction::movi(Reg::new(1), 3)];
    for i in 0..24u8 {
        code.push(Instruction::add(
            Reg::new(2 + i % 4),
            Reg::new(1),
            Reg::new(if i % 3 == 0 { 1 } else { 2 + (i + 1) % 4 }),
        ));
        if i % 6 == 0 {
            // Dead write: clobbered by the next iteration before any read.
            code.push(Instruction::movi(Reg::new(7), i32::from(i)));
        }
    }
    code.push(Instruction::out(Reg::new(2)));
    code.push(Instruction::out(Reg::new(5)));
    code.push(Instruction::halt());
    let config = CampaignConfig {
        seed: 5,
        detection: DetectionModel::None,
        threads: 1,
        pipeline: PipelineConfig {
            iq_entries: 4,
            ..PipelineConfig::default()
        },
        ..CampaignConfig::default()
    };
    let golden = GoldenRun::prepare_program(Program::new(code), 1000, &config).unwrap();
    let campaign = Campaign::on(Arc::new(golden), config);
    let metric = MetricKind::SdcAvf;
    let mut session = AdaptiveSession::new(
        &campaign,
        AdaptiveCampaignConfig {
            adaptive: AdaptiveConfig {
                exhaust_threshold: u64::MAX,
                ..AdaptiveConfig::default()
            },
            metric,
            pattern: None,
        },
    );
    let report = session.run();

    // Brute-force census over every stratified coordinate; masked (idle)
    // coordinates are benign by construction and contribute zero events.
    let strata = build_strata(&campaign);
    let faults: Vec<FaultSpec> = strata
        .strata()
        .iter()
        .flat_map(|s| (0..s.size()).map(|rank| s.coord(rank)))
        .map(|c| FaultSpec::single(ses_types::Cycle::new(c.cycle), c.slot, c.bit))
        .collect();
    let census_run = campaign.inject_batch(&faults);
    let events = census_run
        .samples()
        .iter()
        .filter(|&&(_, outcome)| metric.is_event(outcome))
        .count() as u64;
    let census = events as f64 / strata.total_size() as f64;
    assert_eq!(report.total_trials, strata.sampled_size());
    assert!(
        (report.estimate.estimate - census).abs() < 1e-12,
        "exhaustive adaptive {} != census {census}",
        report.estimate.estimate
    );
    assert_eq!(report.estimate.halfwidth, 0.0);
}

/// The shared quick campaign for the spatial-strike properties below:
/// prepared once, injected many times.
fn ecc_prop_campaign() -> &'static ses_core::Campaign {
    use ses_core::{Campaign, CampaignConfig, DetectionModel};
    use std::sync::OnceLock;
    static CAMPAIGN: OnceLock<Campaign> = OnceLock::new();
    CAMPAIGN.get_or_init(|| {
        Campaign::prepare(
            &WorkloadSpec::quick("ecc-prop", 31),
            CampaignConfig {
                injections: 0,
                seed: 3,
                detection: DetectionModel::None,
                pipeline: ses_core::PipelineConfig {
                    iq_entries: 8,
                    ..ses_core::PipelineConfig::default()
                },
                ..CampaignConfig::default()
            },
        )
        .expect("ecc property campaign prepares")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite: two spatial-strike invariants, end to end.
    ///
    /// *Permutation invariance* — a strike is a **set** of flipped bits:
    /// folding the same bits into a mask in any of the 3! orders must
    /// produce the same mask, the same domain verdict, and the same
    /// injected pipeline outcome.
    ///
    /// *Weight monotonicity* — growing a strike never strengthens the
    /// decoder's grip: along the subset chain single ⊂ adjacent-double ⊂
    /// adjacent-triple (wrapping mod 64 like the generator), a superset
    /// is never Corrected while its subset left a residual, and a
    /// superset can only yield strictly fewer DUE+SDC events than its
    /// subset by going Silent (a signalling decoder fires at the same
    /// read regardless of which residual pattern tripped it).
    #[test]
    fn strike_outcome_is_permutation_invariant_and_weight_monotone(
        anchor in 0u32..64,
        perm in 0usize..6,
        scheme_idx in 0usize..6,
        interleave in prop_oneof![Just(1u32), Just(2), Just(4)],
        coord_seed in any::<u64>(),
    ) {
        use ses_core::{ecc_fault, splitmix64, EccDomain, EccScheme, Outcome, WordVerdict};
        use ses_types::Cycle;

        let campaign = ecc_prop_campaign();
        let domain = EccDomain::interleaved(EccScheme::ALL[scheme_idx], interleave);
        let cycle = Cycle::new(splitmix64(coord_seed) % campaign.baseline_cycles().max(1));
        let slot = (splitmix64(coord_seed ^ 1) % campaign.iq_entries() as u64) as usize;

        // Classify through the domain and run the resulting fault
        // through the pipeline, exactly like the campaign layer does.
        let outcome_of = |mask: u64| -> (WordVerdict, Outcome) {
            let outcome = ecc_fault(&domain, cycle, slot, mask).map_or(Outcome::Benign, |fault| {
                campaign.inject_batch(&[fault]).samples()[0].1
            });
            (domain.classify_word(mask), outcome)
        };

        // Permutation invariance over the adjacent triple's bits.
        let bits = [anchor, (anchor + 1) % 64, (anchor + 2) % 64];
        let orders = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let sorted_mask = bits.iter().fold(0u64, |m, &b| m | 1 << b);
        let permuted_mask = orders[perm].iter().fold(0u64, |m, &i| m ^ (1u64 << bits[i]));
        prop_assert_eq!(sorted_mask, permuted_mask, "a strike is a set of bits");
        prop_assert_eq!(outcome_of(sorted_mask), outcome_of(permuted_mask));

        // Weight monotonicity along the anchored subset chain.
        let chain = [
            1u64 << anchor,
            1 << anchor | 1 << ((anchor + 1) % 64),
            sorted_mask,
        ];
        let results: Vec<(WordVerdict, Outcome)> =
            chain.iter().map(|&m| outcome_of(m)).collect();
        for pair in results.windows(2) {
            let (sub_verdict, sub_outcome) = pair[0];
            let (sup_verdict, sup_outcome) = pair[1];
            prop_assert!(
                !(sub_verdict != WordVerdict::Corrected && sup_verdict == WordVerdict::Corrected),
                "superset absorbed while subset left a residual: {:?} -> {:?}",
                sub_verdict,
                sup_verdict
            );
            if sub_outcome.is_failure() && !sup_outcome.is_failure() {
                prop_assert!(
                    matches!(sup_verdict, WordVerdict::Silent { .. }),
                    "superset dropped a {:?} event without going silent ({:?})",
                    sub_outcome,
                    sup_verdict
                );
            }
        }
    }
}
