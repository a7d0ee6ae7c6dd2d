//! Reproducibility: every layer of the stack is a pure function of its
//! seeds and configuration.

use ses_arch::Emulator;
use ses_core::{run_workload, synthesize, PipelineConfig, WorkloadSpec};

#[test]
fn synthesis_emulation_and_timing_are_deterministic() {
    let spec = WorkloadSpec::quick("det", 777);
    let a = run_workload(&spec, &PipelineConfig::default()).expect("a");
    let b = run_workload(&spec, &PipelineConfig::default()).expect("b");
    assert_eq!(a.program, b.program);
    assert_eq!(a.trace.output(), b.trace.output());
    assert_eq!(a.result.cycles, b.result.cycles);
    assert_eq!(a.result.committed, b.result.committed);
    assert_eq!(a.result.squashes, b.result.squashes);
    assert_eq!(a.result.residencies.len(), b.result.residencies.len());
    assert_eq!(a.avf.sdc_avf(), b.avf.sdc_avf());
    assert_eq!(a.avf.due_avf(), b.avf.due_avf());
}

#[test]
fn different_seeds_differ() {
    let mut s1 = WorkloadSpec::quick("det", 1);
    let mut s2 = WorkloadSpec::quick("det", 2);
    s1.seed = 1;
    s2.seed = 2;
    let p1 = synthesize(&s1);
    let p2 = synthesize(&s2);
    assert_ne!(p1, p2);
    let t1 = Emulator::new(&p1).run(100_000).unwrap();
    let t2 = Emulator::new(&p2).run(100_000).unwrap();
    assert_ne!(t1.output(), t2.output());
}

#[test]
fn golden_rerun_is_bit_identical() {
    let spec = WorkloadSpec::quick("det", 99);
    let p = synthesize(&spec);
    let t1 = Emulator::new(&p).run(100_000).unwrap();
    let t2 = Emulator::new(&p).run(100_000).unwrap();
    assert_eq!(t1, t2);
}

#[test]
fn campaign_report_is_seed_deterministic() {
    use ses_core::{Campaign, CampaignConfig, DetectionModel, Outcome};
    let spec = WorkloadSpec::quick("det-campaign", 5);
    let mk = || {
        Campaign::prepare(
            &spec,
            CampaignConfig {
                injections: 40,
                seed: 3,
                detection: DetectionModel::Parity { tracking: None },
                threads: 2,
                ..CampaignConfig::default()
            },
        )
        .unwrap()
        .run()
    };
    let (a, b) = (mk(), mk());
    for o in Outcome::ALL {
        assert_eq!(a.count(o), b.count(o), "outcome {o} must be stable");
    }
}

#[test]
fn campaign_artifact_is_thread_count_invariant() {
    use ses_core::telemetry::campaign_artifact;
    use ses_core::{Campaign, CampaignConfig, DetectionModel, TelemetryLevel};
    let spec = WorkloadSpec::quick("det-campaign-threads", 5);
    let run_with = |threads: usize| {
        let config = CampaignConfig {
            injections: 60,
            seed: 11,
            detection: DetectionModel::Parity { tracking: None },
            threads,
            ..CampaignConfig::default()
        };
        let iq = config.pipeline.iq_entries;
        let detailed = Campaign::prepare(&spec, config).unwrap().run_detailed();
        (detailed, iq)
    };
    let (one, iq) = run_with(1);
    let (four, _) = run_with(4);
    assert_eq!(
        one.samples(),
        four.samples(),
        "per-fault outcomes must match"
    );
    // The Summary artifact excludes wall-clock and scheduling-dependent
    // counters, so it must be byte-identical across worker counts.
    let a = campaign_artifact("det", &one, iq, TelemetryLevel::Summary).render();
    let b = campaign_artifact("det", &four, iq, TelemetryLevel::Summary).render();
    assert_eq!(
        a, b,
        "campaign telemetry artifact must not depend on threads"
    );
}

#[test]
fn suite_artifact_is_thread_count_invariant() {
    use ses_core::telemetry::suite_artifact;
    use ses_core::{run_suite_with, TelemetryLevel};
    let cfg = PipelineConfig::default();
    let one = run_suite_with(&cfg, 1, |_, run| run.summary()).unwrap();
    let many = run_suite_with(&cfg, 4, |_, run| run.summary()).unwrap();
    let a = suite_artifact(&cfg, &one, &[], TelemetryLevel::Summary).render();
    let b = suite_artifact(&cfg, &many, &[], TelemetryLevel::Summary).render();
    assert_eq!(a, b, "suite telemetry artifact must not depend on threads");
}

/// The adaptive campaign plans rounds single-threaded and evaluates them
/// through an order-preserving parallel map, so its Summary artifact —
/// estimate, per-stratum trial counts, CI trajectory and all — must be
/// byte-identical no matter how many workers evaluate the trials.
#[test]
fn adaptive_artifact_is_thread_count_invariant() {
    use ses_core::telemetry::adaptive_campaign_artifact;
    use ses_core::{
        AdaptiveCampaignConfig, AdaptiveConfig, AdaptiveSession, Campaign, CampaignConfig,
        DetectionModel, MetricKind, ReliabilityModel, TelemetryLevel,
    };
    let spec = WorkloadSpec::quick("det-adaptive-threads", 13);
    let cfg = AdaptiveCampaignConfig {
        adaptive: AdaptiveConfig {
            target_halfwidth: 0.08,
            min_per_stratum: 8,
            round_budget: 128,
            max_rounds: 16,
            seed: 0xD7,
            ..AdaptiveConfig::default()
        },
        metric: MetricKind::SdcAvf,
        pattern: None,
    };
    let render_with = |threads: usize| {
        let campaign = Campaign::prepare(
            &spec,
            CampaignConfig {
                seed: 21,
                detection: DetectionModel::Parity { tracking: None },
                threads,
                ..CampaignConfig::default()
            },
        )
        .unwrap();
        let mut session = AdaptiveSession::new(&campaign, cfg.clone());
        let report = session.run();
        adaptive_campaign_artifact(
            "det-adaptive",
            &cfg,
            &report,
            &ReliabilityModel::default(),
            TelemetryLevel::Summary,
        )
        .render()
    };
    let one = render_with(1);
    let two = render_with(2);
    let eight = render_with(8);
    assert_eq!(
        one, two,
        "adaptive artifact must not depend on threads (1 vs 2)"
    );
    assert_eq!(
        one, eight,
        "adaptive artifact must not depend on threads (1 vs 8)"
    );
}

/// Stopping an adaptive campaign mid-flight, checkpointing the scheduler,
/// and resuming in a fresh session must land on the same artifact as an
/// uninterrupted run — byte for byte, including the round trajectory.
#[test]
fn adaptive_artifact_survives_stop_and_resume() {
    use ses_core::telemetry::adaptive_campaign_artifact;
    use ses_core::{
        AdaptiveCampaignConfig, AdaptiveConfig, AdaptiveSession, Campaign, CampaignConfig,
        DetectionModel, MetricKind, ReliabilityModel, TelemetryLevel,
    };
    let spec = WorkloadSpec::quick("det-adaptive-resume", 29);
    let cfg = AdaptiveCampaignConfig {
        adaptive: AdaptiveConfig {
            target_halfwidth: 0.06,
            min_per_stratum: 8,
            round_budget: 128,
            max_rounds: 16,
            seed: 0xAB,
            ..AdaptiveConfig::default()
        },
        metric: MetricKind::DueAvf,
        pattern: None,
    };
    let campaign = Campaign::prepare(
        &spec,
        CampaignConfig {
            seed: 33,
            detection: DetectionModel::Parity { tracking: None },
            threads: 2,
            ..CampaignConfig::default()
        },
    )
    .unwrap();
    let render = |report: &ses_core::AdaptiveCampaignReport| {
        adaptive_campaign_artifact(
            "det-adaptive-resume",
            &cfg,
            report,
            &ReliabilityModel::default(),
            TelemetryLevel::Summary,
        )
        .render()
    };

    let mut straight = AdaptiveSession::new(&campaign, cfg.clone());
    let uninterrupted = straight.run();

    // Interrupt after the pilot round, serialise, resume elsewhere.
    let mut first = AdaptiveSession::new(&campaign, cfg.clone());
    assert!(first.step_round(), "pilot round must run");
    let ckpt = first.checkpoint();
    drop(first);
    let mut resumed = AdaptiveSession::resume(&campaign, cfg.clone(), &ckpt);
    let resumed_report = resumed.run();

    assert!(uninterrupted.total_trials > 0);
    assert_eq!(
        render(&uninterrupted),
        render(&resumed_report),
        "stop/resume must not perturb the adaptive artifact"
    );
}

/// Satellite: the multi-bit (spatial strike + ECC domain) adaptive
/// campaign inherits every determinism guarantee of the single-bit one —
/// the pattern draw and decoder verdict are pure functions of the
/// stratified coordinate, so the artifact is byte-identical across
/// worker-thread counts *and* across a checkpoint/resume boundary.
#[test]
fn pattern_adaptive_artifact_is_thread_count_invariant_and_resumable() {
    use ses_core::telemetry::adaptive_campaign_artifact;
    use ses_core::{
        AdaptiveCampaignConfig, AdaptiveConfig, AdaptiveSession, Campaign, CampaignConfig,
        DetectionModel, EccDomain, EccScheme, MetricKind, PatternDistribution, PatternModel,
        ReliabilityModel, TelemetryLevel,
    };
    let spec = WorkloadSpec::quick("det-ecc-adaptive", 41);
    let cfg = AdaptiveCampaignConfig {
        adaptive: AdaptiveConfig {
            target_halfwidth: 0.08,
            min_per_stratum: 8,
            round_budget: 128,
            max_rounds: 12,
            seed: 0xEC,
            ..AdaptiveConfig::default()
        },
        metric: MetricKind::DueAvf,
        pattern: Some(PatternModel {
            distribution: PatternDistribution::default(),
            domain: EccDomain::new(EccScheme::SecDed),
        }),
    };
    let prepare = |threads: usize| {
        Campaign::prepare(
            &spec,
            CampaignConfig {
                seed: 17,
                detection: DetectionModel::None,
                threads,
                ..CampaignConfig::default()
            },
        )
        .unwrap()
    };
    let render = |report: &ses_core::AdaptiveCampaignReport| {
        adaptive_campaign_artifact(
            "det-ecc-adaptive",
            &cfg,
            report,
            &ReliabilityModel::default(),
            TelemetryLevel::Summary,
        )
        .render()
    };
    let run_with = |threads: usize| {
        let campaign = prepare(threads);
        let report = AdaptiveSession::new(&campaign, cfg.clone()).run();
        render(&report)
    };
    let one = run_with(1);
    let two = run_with(2);
    let eight = run_with(8);
    assert_eq!(
        one, two,
        "ECC adaptive artifact must not depend on threads (1 vs 2)"
    );
    assert_eq!(
        one, eight,
        "ECC adaptive artifact must not depend on threads (1 vs 8)"
    );
    assert!(
        one.contains("\"pattern_model\""),
        "multi-bit artifact must carry the spatial-strike stanza"
    );

    // Checkpoint/resume: interrupt after the pilot round, serialise the
    // scheduler, resume in a fresh session — same bytes.
    let campaign = prepare(2);
    let mut straight = AdaptiveSession::new(&campaign, cfg.clone());
    let uninterrupted = straight.run();
    let mut first = AdaptiveSession::new(&campaign, cfg.clone());
    assert!(first.step_round(), "pilot round must run");
    let ckpt = first.checkpoint();
    drop(first);
    let mut resumed = AdaptiveSession::resume(&campaign, cfg.clone(), &ckpt);
    let resumed_report = resumed.run();
    assert_eq!(
        render(&uninterrupted),
        render(&resumed_report),
        "stop/resume must not perturb the ECC adaptive artifact"
    );
}

/// Satellite: the recovery campaign inherits the thread-count guarantee —
/// the latency draw and region lookup are pure functions of the per-fault
/// coordinate, so the Summary artifact (recovery stanza included) is
/// byte-identical no matter how many workers evaluate the injections.
#[test]
fn recovery_artifact_is_thread_count_invariant() {
    use ses_core::telemetry::campaign_artifact;
    use ses_core::{
        Campaign, CampaignConfig, DetectionModel, LatencyDistribution, RecoveryPolicy,
        TelemetryLevel,
    };
    let spec = WorkloadSpec::quick("recovery-threads", 11);
    let render = |threads: usize| {
        let config = CampaignConfig {
            injections: 120,
            seed: 3,
            detection: DetectionModel::Parity { tracking: None },
            detect_latency: Some(LatencyDistribution::Geometric { mean: 12.0 }),
            recovery: RecoveryPolicy::Idempotent,
            threads,
            ..CampaignConfig::default()
        };
        let iq = config.pipeline.iq_entries;
        let detailed = Campaign::prepare(&spec, config).unwrap().run_detailed();
        campaign_artifact("recovery-threads", &detailed, iq, TelemetryLevel::Summary).render()
    };
    let one = render(1);
    assert_eq!(
        one,
        render(2),
        "recovery artifact must not depend on threads (1 vs 2)"
    );
    assert_eq!(
        one,
        render(8),
        "recovery artifact must not depend on threads (1 vs 8)"
    );
    assert!(
        one.contains("\"recovery\""),
        "artifact must carry the recovery stanza"
    );
}

/// A prepared campaign is immutable: two detailed runs on one shared
/// campaign, racing each other and a stream of single-fault injections,
/// each report exactly what a lone run reports — samples, perf counters,
/// recovery and pruning stanzas — and each single injection classifies
/// as its sample did.
#[test]
fn concurrent_runs_on_one_campaign_match_a_lone_run() {
    use std::sync::Arc;
    use std::time::Duration;

    use ses_core::{
        Campaign, CampaignConfig, CampaignPerf, DetectionModel, LatencyDistribution, RecoveryPolicy,
    };
    let spec = WorkloadSpec::quick("concurrent-runs", 19);
    let campaign = Arc::new(
        Campaign::prepare(
            &spec,
            CampaignConfig {
                injections: 80,
                seed: 29,
                detection: DetectionModel::Parity { tracking: None },
                detect_latency: Some(LatencyDistribution::Fixed(6)),
                recovery: RecoveryPolicy::Idempotent,
                prune: true,
                threads: 2,
                ..CampaignConfig::default()
            },
        )
        .unwrap(),
    );
    let counters = |perf: CampaignPerf| CampaignPerf {
        inject_wall: Duration::ZERO,
        ..perf
    };
    let lone = campaign.run_detailed();
    assert!(lone.recovery().is_some_and(|r| r.detected() > 0));
    assert!(lone.prune().is_some_and(|p| p.idle_skips > 0));
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let c = Arc::clone(&campaign);
            std::thread::spawn(move || c.run_detailed())
        })
        .collect();
    let c = Arc::clone(&campaign);
    let singles = std::thread::spawn(move || {
        (0..80)
            .map(|i| c.inject_batch(&[c.fault_for(i)]).samples()[0].1)
            .collect::<Vec<_>>()
    });
    for run in runs {
        let report = run.join().unwrap();
        assert_eq!(report.samples(), lone.samples());
        assert_eq!(counters(report.perf()), counters(lone.perf()));
        assert_eq!(report.recovery(), lone.recovery());
        assert_eq!(report.prune(), lone.prune());
    }
    let want: Vec<_> = lone.samples().iter().map(|&(_, o)| o).collect();
    assert_eq!(singles.join().unwrap(), want);
}

/// Checkpointed injection replay must not perturb recovery accounting:
/// the per-fault outcomes and the whole recovery stanza are identical
/// between a from-scratch campaign and one that resumes from pipeline
/// snapshots. (Full artifact bytes legitimately differ — the perf block
/// records cycles skipped — so equality is on samples and stanza.)
#[test]
fn recovery_survives_checkpoint_resume() {
    use ses_core::{Campaign, CampaignConfig, DetectionModel, LatencyDistribution, RecoveryPolicy};
    let spec = WorkloadSpec::quick("recovery-ckpt", 23);
    let run = |checkpoints: bool| {
        let config = CampaignConfig {
            injections: 120,
            seed: 41,
            detection: DetectionModel::Parity { tracking: None },
            detect_latency: Some(LatencyDistribution::Fixed(6)),
            recovery: RecoveryPolicy::Idempotent,
            checkpoints,
            ..CampaignConfig::default()
        };
        Campaign::prepare(&spec, config).unwrap().run_detailed()
    };
    let scratch = run(false);
    let checkpointed = run(true);
    assert!(
        checkpointed.perf().cycles_skipped > 0,
        "the checkpointed run must actually exercise snapshot resume"
    );
    assert_eq!(
        scratch.samples(),
        checkpointed.samples(),
        "per-fault outcomes must match"
    );
    assert_eq!(
        scratch.recovery(),
        checkpointed.recovery(),
        "checkpoint/resume must not perturb the recovery stanza"
    );
}

/// Guard for pre-recovery artifact compatibility: a campaign with no
/// detection latency configured must emit exactly the legacy bytes — no
/// `recovery` stanza, no `recovered` outcome key.
#[test]
fn latency_off_artifact_has_no_recovery_stanza() {
    use ses_core::telemetry::campaign_artifact;
    use ses_core::{Campaign, CampaignConfig, DetectionModel, TelemetryLevel};
    let spec = WorkloadSpec::quick("latency-off", 5);
    let config = CampaignConfig {
        injections: 80,
        seed: 9,
        detection: DetectionModel::Parity { tracking: None },
        ..CampaignConfig::default()
    };
    let iq = config.pipeline.iq_entries;
    let detailed = Campaign::prepare(&spec, config).unwrap().run_detailed();
    assert!(
        detailed.recovery().is_none(),
        "legacy runs must not grow a recovery report"
    );
    let rendered =
        campaign_artifact("latency-off", &detailed, iq, TelemetryLevel::Summary).render();
    assert!(
        !rendered.contains("\"recovery\""),
        "no recovery stanza on legacy runs"
    );
    assert!(
        !rendered.contains("\"recovered\""),
        "no recovered outcome key on legacy runs"
    );
}

/// Guard for pre-pruning artifact compatibility: a campaign run without
/// `--prune` must emit exactly the legacy bytes — no `pruning` stanza,
/// no prune report on the detailed result.
#[test]
fn prune_off_artifact_has_no_pruning_stanza() {
    use ses_core::telemetry::campaign_artifact;
    use ses_core::{Campaign, CampaignConfig, DetectionModel, TelemetryLevel};
    let spec = WorkloadSpec::quick("prune-off", 5);
    let config = CampaignConfig {
        injections: 80,
        seed: 9,
        detection: DetectionModel::Parity { tracking: None },
        ..CampaignConfig::default()
    };
    let iq = config.pipeline.iq_entries;
    let detailed = Campaign::prepare(&spec, config).unwrap().run_detailed();
    assert!(
        detailed.prune().is_none(),
        "legacy runs must not grow a prune report"
    );
    let rendered = campaign_artifact("prune-off", &detailed, iq, TelemetryLevel::Summary).render();
    assert!(
        !rendered.contains("\"pruning\""),
        "no pruning stanza on legacy runs"
    );
    let full = campaign_artifact("prune-off", &detailed, iq, TelemetryLevel::Full).render();
    assert!(
        !full.contains("\"pruning\""),
        "no pruning stanza at Full level either"
    );
}

/// The single-bit adaptive artifact pre-dates the spatial-strike engine:
/// with `pattern: None` its bytes must not change — no stanza, no label
/// suffixes, nothing.
#[test]
fn single_bit_adaptive_artifact_has_no_pattern_stanza() {
    use ses_core::telemetry::adaptive_campaign_artifact;
    use ses_core::{
        AdaptiveCampaignConfig, AdaptiveConfig, AdaptiveSession, Campaign, CampaignConfig,
        DetectionModel, MetricKind, ReliabilityModel, TelemetryLevel,
    };
    let spec = WorkloadSpec::quick("det-no-pattern", 43);
    let cfg = AdaptiveCampaignConfig {
        adaptive: AdaptiveConfig {
            target_halfwidth: 0.1,
            min_per_stratum: 8,
            round_budget: 64,
            max_rounds: 6,
            seed: 0x51,
            ..AdaptiveConfig::default()
        },
        metric: MetricKind::SdcAvf,
        pattern: None,
    };
    let campaign = Campaign::prepare(
        &spec,
        CampaignConfig {
            seed: 19,
            detection: DetectionModel::None,
            threads: 2,
            ..CampaignConfig::default()
        },
    )
    .unwrap();
    let report = AdaptiveSession::new(&campaign, cfg.clone()).run();
    let rendered = adaptive_campaign_artifact(
        "det-no-pattern",
        &cfg,
        &report,
        &ReliabilityModel::default(),
        TelemetryLevel::Summary,
    )
    .render();
    assert!(!rendered.contains("pattern_model"));
    assert!(
        !rendered.contains("/single"),
        "stratum labels must stay unsuffixed"
    );
}
