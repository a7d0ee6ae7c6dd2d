//! The checkpointed injection engine is an optimisation, not a model
//! change: every fault must classify identically whether the timing run
//! starts at cycle 0 or resumes from the nearest pipeline snapshot, and
//! whether the functional replay starts at instruction 0 or resumes from
//! the nearest golden checkpoint.
//!
//! The fast paths compared here are checked again in debug builds by
//! sampled guards inside the campaign; these tests carry the same
//! evidence into release builds, where those guards are off.

use ses_arch::{Checkpoint, Emulator, ExecutionTrace, RunOutcome};
use ses_core::{
    synthesize, Campaign, CampaignConfig, Cycle, DetectionModel, FaultSpec, PiScope,
    TrackingConfig, WorkloadSpec,
};
use ses_isa::{encode, Program};
use ses_pipeline::{FaultOutcome, FaultRun, Pipeline, PipelineConfig, PipelineResult};
use ses_types::Reg;

fn campaign_pair(detection: DetectionModel, injections: u32) -> (Campaign, Campaign) {
    let spec = WorkloadSpec::quick("ckpt-equiv", 23);
    let base = CampaignConfig {
        injections,
        seed: 41,
        detection,
        threads: 2,
        ..CampaignConfig::default()
    };
    let scratch = Campaign::prepare(
        &spec,
        CampaignConfig {
            checkpoints: false,
            ..base.clone()
        },
    )
    .expect("scratch campaign");
    let ckpt = Campaign::prepare(&spec, base).expect("checkpointed campaign");
    (scratch, ckpt)
}

#[test]
fn boundary_strikes_classify_identically() {
    let (scratch, ckpt) = campaign_pair(DetectionModel::Parity { tracking: None }, 1);
    let k = ckpt.checkpoint_interval();
    assert!(k > 0, "auto interval must enable checkpointing");
    let last = ckpt.baseline_cycles() - 1;
    // Strike cycles straddling the checkpoint grid: the very first cycle,
    // both sides of the first snapshot boundary, the middle, and the last
    // simulated cycle.
    let cycles = [0, 1, k - 1, k, k + 1, last / 2, last];
    let coords = [(0usize, 0u32), (5, 17), (31, 63)];
    let faults: Vec<FaultSpec> = cycles
        .into_iter()
        .flat_map(|cycle| coords.map(|(slot, bit)| FaultSpec::single(Cycle::new(cycle), slot, bit)))
        .collect();
    let want = scratch.inject_batch(&faults);
    let got = ckpt.inject_batch(&faults);
    for (want, got) in want.samples().iter().zip(got.samples()) {
        assert_eq!(want, got, "fault {:?} must classify identically", want.0);
    }
}

#[test]
fn full_campaigns_agree_across_detection_models() {
    for detection in detection_models() {
        let (scratch, ckpt) = campaign_pair(detection, 40);
        let scratch_report = scratch.run();
        let ckpt_report = ckpt.run();
        assert_eq!(
            scratch_report, ckpt_report,
            "reports must match under {detection:?}"
        );
        assert_eq!(
            scratch.run_detailed().samples(),
            ckpt.run_detailed().samples(),
            "per-fault samples must match under {detection:?}"
        );
        assert_eq!(scratch_report.perf().cycles_skipped, 0);
        assert!(
            ckpt_report.perf().cycles_skipped > 0,
            "checkpointed campaign must actually skip work"
        );
        assert!(ckpt_report.perf().checkpoints > 0);
    }
}

/// Every kind of detection: none, parity, π tracking, interleaved
/// parity, and a Commit-scope PET buffer, the one model whose fault-free
/// detector state (its commit log) is not empty.
fn detection_models() -> [DetectionModel; 5] {
    [
        DetectionModel::None,
        DetectionModel::Parity { tracking: None },
        DetectionModel::Parity {
            tracking: Some(TrackingConfig::paper_combined()),
        },
        DetectionModel::InterleavedParity {
            domains: 4,
            tracking: None,
        },
        DetectionModel::Parity {
            tracking: Some(TrackingConfig {
                scope: PiScope::Commit,
                pet_entries: Some(512),
                ..TrackingConfig::paper_combined()
            }),
        },
    ]
}

/// `run` as a resume from `cycle` reports it: every field equal, and the
/// residency log's tail from the first residency that ends at or after
/// `cycle` (a resumed run logs only those).
fn resumed_view(run: &PipelineResult, cycle: Cycle) -> PipelineResult {
    let log = &run.residencies;
    let split = log
        .iter()
        .position(|r| r.dealloc >= cycle)
        .unwrap_or(log.len());
    PipelineResult {
        residencies: log[split..].to_vec(),
        ..*run
    }
}

fn quick_program(name: &str, seed: u64) -> (Program, ExecutionTrace, u64) {
    let spec = WorkloadSpec::quick(name, seed);
    let program = synthesize(&spec);
    let budget = spec.target_dynamic * 4;
    let trace = Emulator::new(&program).run(budget).expect("golden run");
    assert!(trace.halted());
    (program, trace, budget)
}

/// A fault window restores its snapshot lean (no residency log). With
/// the convergence gate off, both of its runs — on a fork of the base and
/// on the base itself — must report the verdict and end cycle of the full
/// `resume` and of the from-scratch run, for a fault in every checkpoint
/// window and in the from-scratch window. The windows restore snapshots
/// captured under no detection model, as a campaign's golden run holds
/// them, and run under each model; `resume` restores under the model its
/// snapshot was captured with, so it runs on snapshots captured under
/// that model, and must equal the from-scratch run in every field.
#[test]
fn lean_fault_runs_match_full_resume_and_scratch_in_every_window() {
    let (program, trace, _) = quick_program("ckpt-lean", 23);
    let pipeline = Pipeline::new(PipelineConfig::default());
    let cycles = pipeline.run(&program, &trace).cycles;
    let interval = (cycles / 64).max(1);
    let (_, windows) =
        pipeline.run_with_snapshots(&program, &trace, DetectionModel::None, interval);
    for detection in detection_models() {
        let (_, snaps) = pipeline.run_with_snapshots(&program, &trace, detection, interval);
        assert!(
            snaps.len() > 32,
            "about 64 windows expected, got {}",
            snaps.len()
        );
        assert_eq!(snaps.len(), windows.len());
        let mut struck = 0;
        for (w, (snap, window)) in std::iter::once((None, None))
            .chain(snaps.iter().zip(&windows).map(|(s, w)| (Some(s), Some(w))))
            .enumerate()
        {
            let w = w as u64;
            let start = snap.map_or(0, |s| s.cycle().as_u64());
            let cycle = (start + (w * 37) % interval).min(cycles - 1);
            // Low slots fill first, so most of these strikes land on a
            // resident entry.
            let fault =
                FaultSpec::single(Cycle::new(cycle), (w % 4) as usize, (w * 13 % 64) as u32);
            let scratch = pipeline.run_with_fault(&program, &trace, Some(fault), detection);
            if let Some(s) = snap {
                let full = pipeline.resume(&program, &trace, s, Some(fault));
                assert_eq!(
                    full,
                    resumed_view(&scratch, s.cycle()),
                    "resume diverged from scratch under {detection:?} for {fault:?}"
                );
            }
            let want = FaultRun {
                outcome: scratch.fault.expect("fault run resolves an outcome"),
                end_cycle: scratch.cycles,
                pruned: false,
            };
            let window = pipeline.fault_window(&program, &trace, window, detection);
            let forked = window.run_fault(fault, false);
            assert_eq!(
                forked, want,
                "forked window run diverged under {detection:?} for {fault:?}"
            );
            let consumed = window.run_last(fault, false);
            assert_eq!(
                consumed, want,
                "consuming window run diverged under {detection:?} for {fault:?}"
            );
            struck += usize::from(want.outcome != FaultOutcome::SlotIdle);
        }
        assert!(
            struck * 2 > snaps.len(),
            "only {struck} strikes hit an entry"
        );
    }
}

/// Checks a resumed replay against the replay from program start: equal
/// outcomes, where a resumed output is the golden prefix's continuation.
/// Returns the from-start outcome for coverage counting and the
/// checkpoint the resumed replay converged at, if any.
fn assert_resume_matches(
    program: &Program,
    golden: &ExecutionTrace,
    ckpts: &[Checkpoint],
    idx: u64,
    word: u64,
    budget: u64,
) -> (RunOutcome, Option<u64>) {
    let from_start = Emulator::new(program).run_with_override(idx, word, budget);
    let resumed = Emulator::resume_with_override(program, golden, ckpts, idx, word, budget);
    let context = format!(
        "index {idx}, word {word:#x}, budget {budget}, converged at {:?}",
        resumed.converged_at
    );
    match (&from_start, resumed.outcome) {
        (RunOutcome::Completed { output }, RunOutcome::Completed { output: tail }) => {
            let stitched: Vec<u64> = golden.output()[..resumed.output_offset]
                .iter()
                .chain(&tail)
                .copied()
                .collect();
            assert_eq!(output, &stitched, "{context}");
        }
        (want, got) => assert_eq!(want, &got, "{context}"),
    }
    (from_start, resumed.converged_at)
}

/// Runs `program`'s golden run with a checkpoint every `interval`
/// instructions and corrupts three indices per checkpoint window (its
/// first, middle and last) three ways each (a low bit, a window-dependent
/// bit, an undecodable word), under the generous campaign budget and one
/// that runs out one instruction before the golden run would halt. Every
/// resumed replay must equal the replay from program start.
///
/// Each replay that converged at a checkpoint is rerun against a planted
/// defect: the same golden checkpoints with one register (or one memory
/// word) altered at that checkpoint. The replay must not converge there,
/// and its outcome must still equal the replay from program start, so a
/// convergence check that skips a register or memory, or trusts a stale
/// reference, fails. At least one replay must converge, so a check that
/// never fires fails too.
fn check_checkpointed_replays(program: &Program, budget: u64, interval: u64) {
    let golden = Emulator::new(program).run(budget).expect("golden run");
    assert!(golden.halted());
    let len = golden.len() as u64;
    let (trace, ckpts) = Emulator::new(program)
        .run_checkpointed(budget, interval)
        .expect("golden run");
    assert_eq!(
        trace, golden,
        "checkpoint capture must not change the trace"
    );
    assert_eq!(ckpts[0].index(), 0);
    assert!(ckpts.len() > 16, "got {} checkpoints", ckpts.len());
    let planted_addr = golden
        .entries()
        .iter()
        .find_map(|d| d.mem_written())
        .expect("the program stores to memory");
    let mut planted = ckpts.clone();
    let (mut differ, mut crashed, mut timed_out) = (0, 0, 0);
    let (mut converged, mut planted_regs, mut planted_mems) = (0, 0, 0);
    for (k, ckpt) in ckpts.iter().enumerate() {
        let next = ckpts.get(k + 1).map_or(len, Checkpoint::index);
        for idx in [ckpt.index(), (ckpt.index() + next) / 2, next - 1] {
            let golden_word = encode(&golden.entries()[idx as usize].instr);
            let words = [
                golden_word ^ 1,
                golden_word ^ (1 << (k % 40 + 8)),
                u64::MAX, // reserved bits set: undecodable
            ];
            for word in words {
                for budget in [len * 4, len - 1] {
                    let (outcome, at) =
                        assert_resume_matches(program, &golden, &ckpts, idx, word, budget);
                    match outcome {
                        RunOutcome::Completed { output } => {
                            differ += usize::from(output != golden.output());
                        }
                        RunOutcome::Crashed { .. } => crashed += 1,
                        RunOutcome::TimedOut => timed_out += 1,
                    }
                    let Some(at) = at else { continue };
                    converged += 1;
                    let j = ckpts.partition_point(|c| c.index() < at);
                    if converged % 2 == 0 {
                        let r = Reg::new(1 + (converged / 2 % 63) as u8);
                        let state = planted[j].state_mut();
                        state.set_reg(r, state.reg(r) ^ 1);
                        planted_regs += 1;
                    } else {
                        let mem = planted[j].mem_mut();
                        mem.store(planted_addr, mem.load(planted_addr) ^ 1);
                        planted_mems += 1;
                    }
                    let (_, planted_at) =
                        assert_resume_matches(program, &golden, &planted, idx, word, budget);
                    assert_ne!(
                        planted_at,
                        Some(at),
                        "converged at a checkpoint with a planted defect (index {idx})"
                    );
                    planted[j] = ckpts[j].clone();
                }
            }
        }
    }
    assert!(
        differ > 0 && crashed > 0 && timed_out > 0,
        "{differ} {crashed} {timed_out}"
    );
    assert!(
        planted_regs > 0 && planted_mems > 0,
        "{converged} converged replays, {planted_regs} register and {planted_mems} memory defects"
    );
}

/// The functional replay resumed from any golden checkpoint, and stopped
/// wherever it rejoins the golden run, equals the replay from program
/// start: completed outputs, crashes, and timeouts at a budget that still
/// counts from program start.
#[test]
fn checkpointed_functional_replay_matches_replay_from_start() {
    let (program, _, budget) = quick_program("ckpt-arch", 29);
    check_checkpointed_replays(&program, budget, (budget / 256).max(1));
}

/// The same checks on a fuzz-generated corpus program, whose control flow
/// and memory traffic the synthetic workloads do not produce.
#[test]
fn checkpointed_functional_replay_matches_on_a_fuzzed_program() {
    let text = include_str!("corpus/fuzz-00-910a2dec89025cc1.s");
    let program = ses_isa::assemble(text).expect("corpus program assembles");
    let len = Emulator::new(&program)
        .run(1_000_000)
        .expect("golden run")
        .len() as u64;
    check_checkpointed_replays(&program, len * 4, (len / 32).max(1));
}
