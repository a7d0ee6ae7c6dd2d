//! Behavioural tests of the paper's two technique families across machine
//! configurations.

use ses_core::{
    run_workload, spec_by_name, Level, PipelineConfig, SquashPolicy, Technique, ThrottlePolicy,
};

#[test]
fn squash_l0_is_a_superset_of_squash_l1() {
    // Every L1 miss is also an L0 miss, so the L0 trigger must fire at
    // least as often and cut exposure at least as much.
    let spec = spec_by_name("cc").expect("cc in suite");
    let l1 = run_workload(&spec, &PipelineConfig::default().with_squash(Level::L1)).unwrap();
    let l0 = run_workload(&spec, &PipelineConfig::default().with_squash(Level::L0)).unwrap();
    assert!(l0.result.squashes >= l1.result.squashes);
    assert!(l0.avf.sdc_avf().fraction() <= l1.avf.sdc_avf().fraction() + 0.02);
    assert!(l0.result.ipc().value() <= l1.result.ipc().value() + 0.01);
}

#[test]
fn throttling_reduces_exposure_less_than_squashing() {
    // Paper §3.1: fetch throttling did not add much beyond squashing; on
    // its own it reduces exposure, but less than squashing does.
    let spec = spec_by_name("equake").expect("equake in suite");
    let base = run_workload(&spec, &PipelineConfig::default()).unwrap();
    let thr = run_workload(&spec, &PipelineConfig::default().with_throttle(Level::L1)).unwrap();
    let sq = run_workload(&spec, &PipelineConfig::default().with_squash(Level::L1)).unwrap();

    assert!(thr.result.throttled_cycles > 0, "throttle must engage");
    assert_eq!(thr.result.squashes, 0);
    let (b, t, s) = (
        base.avf.sdc_avf().fraction(),
        thr.avf.sdc_avf().fraction(),
        sq.avf.sdc_avf().fraction(),
    );
    assert!(t < b, "throttling reduces exposure ({t:.3} vs {b:.3})");
    assert!(s < t, "squashing reduces exposure more ({s:.3} vs {t:.3})");
}

#[test]
fn squash_on_memory_trigger_fires_rarely() {
    // A Memory-level trigger only fires on accesses that miss L2 entirely.
    let spec = spec_by_name("gzip").expect("gzip in suite");
    let l1 = run_workload(&spec, &PipelineConfig::default().with_squash(Level::L1)).unwrap();
    let mem = run_workload(&spec, &PipelineConfig::default().with_squash(Level::L2)).unwrap();
    assert!(mem.result.squashes <= l1.result.squashes);
}

#[test]
fn policies_default_to_off() {
    let cfg = PipelineConfig::default();
    assert_eq!(cfg.squash, SquashPolicy::None);
    assert_eq!(cfg.throttle, ThrottlePolicy::None);
    let spec = spec_by_name("mesa").expect("mesa in suite");
    let run = run_workload(&spec, &cfg).unwrap();
    assert_eq!(run.result.squashes, 0);
    assert_eq!(run.result.throttled_cycles, 0);
}

#[test]
fn tracking_scopes_are_strictly_ordered_on_real_workloads() {
    let spec = spec_by_name("vortex").expect("vortex in suite");
    let run = run_workload(&spec, &PipelineConfig::default()).unwrap();
    let due = |t| run.avf.due_avf_with_tracking(Some(t), &run.dead).fraction();
    let parity = run.avf.due_avf().fraction();
    let commit_only = run.avf.due_avf_with_tracking(None, &run.dead).fraction();
    let reg = due(Technique::PiRegister);
    let store = due(Technique::PiStoreCommit);
    let mem = due(Technique::PiMemory);
    assert!(commit_only < parity);
    assert!(reg <= commit_only);
    assert!(store <= reg);
    assert!(mem <= store);
    assert!(
        (mem - run.avf.true_due_avf().fraction()).abs() < 1e-9,
        "full tracking reaches the true-DUE floor"
    );
}

#[test]
fn pet_sizes_interpolate_between_nothing_and_register_pi() {
    let spec = spec_by_name("perlbmk").expect("perlbmk in suite");
    let run = run_workload(&spec, &PipelineConfig::default()).unwrap();
    let cov = |t| run.avf.covered_by(t, &run.dead);
    let c32 = cov(Technique::Pet(32));
    let c512 = cov(Technique::Pet(512));
    let c16k = cov(Technique::Pet(16384));
    let reg = cov(Technique::PiRegister);
    assert!(c32 <= c512 && c512 <= c16k && c16k <= reg);
    assert!(c16k > c32, "bigger PET buffers must add coverage");
}

#[test]
fn squash_and_throttle_trade_ipc_for_mitf_on_corpus_programs() {
    // Paper §3 Table 1: both technique families must move the machine in
    // the same direction on real workloads — AVF down, MITF (mean
    // instructions to failure) up — at a bounded IPC cost. A technique
    // that lowered AVF by stalling so hard that MITF fell too would be
    // a net reliability loss; this pins the trade on two corpus programs
    // with distinct memory behaviour.
    use ses_core::ReliabilityModel;
    let model = ReliabilityModel::default();
    for name in ["cc", "equake"] {
        let spec = spec_by_name(name).expect("program in suite");
        let base = run_workload(&spec, &PipelineConfig::default()).unwrap();
        let base_ipc = base.result.ipc();
        let base_rate = model.rate(base_ipc, base.avf.sdc_avf());

        for (label, cfg, stalls) in [
            (
                "squash",
                PipelineConfig::default().with_squash(Level::L1),
                false,
            ),
            (
                "throttle",
                PipelineConfig::default().with_throttle(Level::L1),
                true,
            ),
        ] {
            let run = run_workload(&spec, &cfg).unwrap();
            if stalls {
                assert!(run.result.throttled_cycles > 0, "{name}: throttle engages");
            } else {
                assert!(run.result.squashes > 0, "{name}: squash engages");
            }
            let ipc = run.result.ipc();
            let avf = run.avf.sdc_avf();
            let rate = model.rate(ipc, avf);
            assert!(
                avf.fraction() < base.avf.sdc_avf().fraction(),
                "{name}/{label}: AVF must drop ({:.4} vs base {:.4})",
                avf.fraction(),
                base.avf.sdc_avf().fraction()
            );
            assert!(
                rate.mitf.instructions() > base_rate.mitf.instructions(),
                "{name}/{label}: MITF must rise ({:.3e} vs base {:.3e})",
                rate.mitf.instructions(),
                base_rate.mitf.instructions()
            );
            let ipc_loss = 1.0 - ipc.value() / base_ipc.value();
            assert!(
                ipc_loss < 0.35,
                "{name}/{label}: IPC cost must stay modest, lost {:.1}%",
                ipc_loss * 100.0
            );
            assert!(
                rate.ipc_over_avf > base_rate.ipc_over_avf,
                "{name}/{label}: IPC/AVF figure of merit must improve"
            );
        }
    }
}

#[test]
fn idempotent_recovery_completes_the_technique_trade_space() {
    // Tentpole trade entry: π-bit tracking suppresses *false* DUE but is
    // floored by the true-DUE mass; squashing pays pipeline IPC for lower
    // exposure; idempotent-region recovery converts detected faults —
    // including true DUE — into bounded re-execution, paying instructions
    // only when a fault actually strikes. Pinned on two corpus programs
    // with distinct memory behaviour:
    //
    //  * zero-latency recovery conserves the analytic DUE + SDC totals
    //    exactly (every legacy DUE sample becomes Recovered, SDC is
    //    untouched, the statistical DUE estimate reaches zero);
    //  * at any latency, recovered + machine-check fallback equals the
    //    legacy DUE mass — recovery re-labels detections, never invents
    //    or loses them;
    //  * the amortised re-execution cost sits far below the IPC loss
    //    squashing charges on every instruction, fault or no fault.
    use ses_core::{
        Campaign, CampaignConfig, DetectionModel, LatencyDistribution, Outcome, RecoveryPolicy,
    };
    for name in ["cc", "equake"] {
        let spec = spec_by_name(name).expect("program in suite");
        let prepare = |latency: Option<LatencyDistribution>| {
            Campaign::prepare(
                &spec,
                CampaignConfig {
                    injections: 200,
                    seed: 2026,
                    detection: DetectionModel::Parity { tracking: None },
                    recovery: if latency.is_some() {
                        RecoveryPolicy::Idempotent
                    } else {
                        RecoveryPolicy::MachineCheck
                    },
                    detect_latency: latency,
                    ..CampaignConfig::default()
                },
            )
            .expect("campaign prepares")
        };
        let campaign = prepare(Some(LatencyDistribution::Fixed(0)));
        let legacy = prepare(None).run_detailed();
        let zero = campaign.run_detailed();
        let latent = prepare(Some(LatencyDistribution::Fixed(12))).run_detailed();
        let (l, z, t) = (legacy.summary(), zero.summary(), latent.summary());
        let legacy_due = l.count(Outcome::FalseDue) + l.count(Outcome::TrueDue);
        assert!(legacy_due > 0, "{name}: the campaign needs detections");

        // Zero-latency conservation of the analytic DUE + SDC totals.
        assert_eq!(
            z.due_avf_estimate(),
            0.0,
            "{name}: zero latency recovers every DUE"
        );
        assert_eq!(z.count(Outcome::Recovered), legacy_due);
        assert_eq!(
            z.sdc_avf_estimate(),
            l.sdc_avf_estimate(),
            "{name}: SDC untouched"
        );

        // Any-latency conservation: re-labelled, never invented or lost.
        let rt = latent.recovery().expect("recovery stanza");
        assert_eq!(
            rt.recovered + rt.fallback_due,
            legacy_due,
            "{name}: mass conserved"
        );
        assert!(t.due_avf_estimate() <= l.due_avf_estimate());

        // π-bit tracking is floored by true DUE; recovery is not.
        let run = run_workload(&spec, &PipelineConfig::default()).unwrap();
        let parity = run.avf.due_avf().fraction();
        let tracked = run.avf.due_avf_with_tracking(None, &run.dead).fraction();
        let floor = run.avf.true_due_avf().fraction();
        assert!(tracked < parity, "{name}: pi-bit must cut false DUE");
        assert!(
            floor > 0.0,
            "{name}: a true-DUE floor must exist for the trade to bind"
        );
        assert!(
            tracked >= floor,
            "{name}: tracking cannot go below the floor"
        );

        // Recovery's amortised instruction cost versus squashing's
        // always-on IPC cost.
        let rz = zero.recovery().expect("recovery stanza");
        let committed = campaign.baseline_ipc() * campaign.baseline_cycles() as f64;
        let recovery_cost = rz.reexec_instructions as f64 / (200.0 * committed);
        let squashed =
            run_workload(&spec, &PipelineConfig::default().with_squash(Level::L1)).unwrap();
        let squash_loss = 1.0 - squashed.result.ipc().value() / run.result.ipc().value();
        assert!(squash_loss > 0.0, "{name}: squashing must pay IPC");
        assert!(
            recovery_cost < squash_loss,
            "{name}: amortised re-execution ({recovery_cost:.6}) must undercut \
             the squash IPC loss ({squash_loss:.4})"
        );
    }
}

#[test]
fn ecc_buys_residual_coverage_with_area_instead_of_ipc() {
    // Tentpole trade entry: the exposure-reduction techniques (squash,
    // throttle) pay IPC — and therefore MITF — for lower AVF, while an
    // ECC domain pays *check bits* (area) and leaves the pipeline
    // untouched. This pins both axes of that trade:
    //
    //  * check-bit cost is strictly ordered SEC < SEC-DED ≤ TAEC < DEC;
    //  * residual silent (SDC-candidate) mass under the spatial strike
    //    distribution is ordered the opposite way — each extra check bit
    //    buys coverage: SEC > SEC-DED > TAEC > DEC, with parity and the
    //    unprotected domain worse than all of them;
    //  * on a real workload, ECC improves the SDC MITF without moving
    //    IPC at all, whereas squashing moves IPC to get its gain.
    use ses_core::{EccDomain, EccScheme, PatternDistribution, ReliabilityModel, ResidualModel};
    use ses_types::Avf;

    let dist = PatternDistribution::default();
    let domain = |s| EccDomain::new(s);
    let silent = |s| ResidualModel::analytic(&dist, &domain(s)).silent;

    // Area cost ordering (check bits per 64-bit word).
    let bits = |s: EccScheme| domain(s).check_bits();
    assert!(bits(EccScheme::HammingSec) < bits(EccScheme::SecDed));
    assert!(bits(EccScheme::SecDed) <= bits(EccScheme::Taec));
    assert!(bits(EccScheme::Taec) < bits(EccScheme::Dec));

    // Coverage ordering: silent residual mass strictly shrinks as check
    // bits grow across the correcting schemes.
    assert!(silent(EccScheme::None) > silent(EccScheme::HammingSec));
    assert!(silent(EccScheme::HammingSec) > silent(EccScheme::SecDed));
    assert!(silent(EccScheme::SecDed) > silent(EccScheme::Taec));
    assert!(silent(EccScheme::Taec) > silent(EccScheme::Dec));

    // The miscorrection hazard, pinned: under a multi-bit strike mix,
    // plain SEC carries *more* silent mass than detect-only parity —
    // every aliased double is "corrected" into a three-bit residual
    // instead of being flagged. Correction without double-detection is a
    // net SDC regression; this is why real parts ship SEC-DED.
    assert!(silent(EccScheme::HammingSec) > silent(EccScheme::Parity));

    // ECC versus squash on a real workload: same raw-rate model, same
    // structure. ECC derates the SDC AVF by the silent fraction at zero
    // IPC cost; squashing pays cycles for its AVF cut.
    let spec = spec_by_name("cc").expect("cc in suite");
    let base = run_workload(&spec, &PipelineConfig::default()).unwrap();
    let squashed = run_workload(&spec, &PipelineConfig::default().with_squash(Level::L1)).unwrap();
    let model = ReliabilityModel::default();
    let base_rate = model.rate(base.result.ipc(), base.avf.sdc_avf());

    let ecc_avf = base.avf.sdc_avf().fraction() * silent(EccScheme::SecDed);
    let ecc_rate = model.rate(base.result.ipc(), Avf::from_fraction(ecc_avf));
    let squash_rate = model.rate(squashed.result.ipc(), squashed.avf.sdc_avf());

    assert!(
        squashed.result.ipc().value() < base.result.ipc().value(),
        "squashing pays IPC for its AVF cut"
    );
    assert!(
        ecc_rate.mitf.instructions() > base_rate.mitf.instructions(),
        "ECC must raise the SDC MITF"
    );
    assert!(
        ecc_rate.mitf.instructions() > squash_rate.mitf.instructions(),
        "at the paper's strike mix, SEC-DED's 50x residual cut dwarfs \
         what exposure reduction can buy ({:.3e} vs {:.3e})",
        ecc_rate.mitf.instructions(),
        squash_rate.mitf.instructions()
    );
}
