//! Scenario-level tests of the timing engine: hand-built programs whose
//! pipeline behaviour can be reasoned about exactly.

use ses_arch::Emulator;
use ses_isa::{Instruction, Program, ProgramBuilder};
use ses_mem::Level;
use ses_pipeline::{
    DetectionModel, FaultOutcome, FaultSpec, Occupant, Pipeline, PipelineConfig, Residency,
    ResidencyEnd, SignalPoint, SquashPolicy,
};
use ses_types::{Cycle, Pred, Reg};

fn r(n: u8) -> Reg {
    Reg::new(n)
}

/// A pipeline with the synthetic front-end stall pattern disabled, so
/// cycle counts are exactly analysable.
fn quiet_config() -> PipelineConfig {
    PipelineConfig {
        ifetch_stall_period: 0,
        ..PipelineConfig::default()
    }
}

fn straightline(n: usize) -> Program {
    let mut code = Vec::new();
    code.push(Instruction::movi(r(1), 1));
    for i in 0..n {
        // Independent adds across distinct destinations.
        code.push(Instruction::add(r(2 + (i % 8) as u8), r(1), r(1)));
    }
    code.push(Instruction::out(r(2)));
    code.push(Instruction::halt());
    Program::new(code)
}

#[test]
fn straightline_code_fills_and_drains() {
    let p = straightline(100);
    let trace = Emulator::new(&p).run(1000).unwrap();
    let result = Pipeline::new(quiet_config()).run(&p, &trace);
    assert_eq!(result.committed, trace.len() as u64);
    assert_eq!(result.squashes, 0);
    assert_eq!(result.mispredictions, 0, "no conditional branches");
    // Every retired residency must have been read before retiring.
    for res in result
        .residencies
        .iter()
        .filter(|x| x.end == ResidencyEnd::Retired)
    {
        assert!(res.last_read.is_some(), "retired entries were issued");
        assert!(res.last_read.unwrap() >= res.alloc);
        assert!(res.dealloc >= res.last_read.unwrap());
    }
}

#[test]
fn residency_log_covers_every_commit_exactly_once_without_squash() {
    let p = straightline(50);
    let trace = Emulator::new(&p).run(1000).unwrap();
    let result = Pipeline::new(quiet_config()).run(&p, &trace);
    let mut seen = vec![0u32; trace.len()];
    for res in &result.residencies {
        if let Occupant::CorrectPath { trace_idx } = res.occupant {
            if res.end == ResidencyEnd::Retired {
                seen[trace_idx as usize] += 1;
            }
        }
    }
    assert!(
        seen.iter().all(|&c| c == 1),
        "each instruction retires once"
    );
}

/// A program with one load that always misses to memory, followed by a
/// long tail of independent work.
fn memory_miss_program(tail: usize) -> Program {
    let mut code = Vec::new();
    code.push(Instruction::movi(r(1), 0x40_0000)); // cold address
    code.push(Instruction::ld(r(3), r(1), 0));
    for i in 0..tail {
        code.push(Instruction::add(r(4 + (i % 4) as u8), r(1), r(1)));
    }
    code.push(Instruction::out(r(3)));
    code.push(Instruction::halt());
    Program::new(code)
}

#[test]
fn load_miss_stalls_inorder_issue() {
    let p = memory_miss_program(20);
    let trace = Emulator::new(&p).run(1000).unwrap();
    let mut cfg = quiet_config();
    cfg.warm_caches = false; // keep the miss cold
    let result = Pipeline::new(cfg).run(&p, &trace);
    assert!(
        result.cycles > 200,
        "the 200-cycle memory miss must stall the in-order machine, got {}",
        result.cycles
    );
}

#[test]
fn squash_removes_the_miss_shadow() {
    let p = memory_miss_program(60);
    let trace = Emulator::new(&p).run(1000).unwrap();
    let mut base_cfg = quiet_config();
    base_cfg.warm_caches = false;
    let mut squash_cfg = base_cfg.clone().with_squash(Level::L1);
    squash_cfg.warm_caches = false;

    let base = Pipeline::new(base_cfg).run(&p, &trace);
    let squashed = Pipeline::new(squash_cfg).run(&p, &trace);
    assert!(
        squashed.squashes >= 1,
        "the cold miss must trigger a squash"
    );
    assert!(squashed.squashed_instrs > 0);

    // Squashed run: the tail instructions' residencies start much later
    // (refetched near data-ready), so their total valid time shrinks.
    let exposure = |res: &[Residency]| -> u64 { res.iter().map(|x| x.valid_cycles()).sum() };
    assert!(
        exposure(&squashed.residencies) < exposure(&base.residencies),
        "squash must reduce total queue occupancy"
    );
    // And both runs commit identically.
    assert_eq!(base.committed, squashed.committed);
}

#[test]
fn squashed_instructions_refetch_and_retire() {
    let p = memory_miss_program(40);
    let trace = Emulator::new(&p).run(1000).unwrap();
    let mut cfg = quiet_config().with_squash(Level::L1);
    cfg.warm_caches = false;
    let result = Pipeline::new(cfg).run(&p, &trace);
    // Some trace indices appear twice: once squashed, once retired.
    let mut squashed_idx = None;
    for res in &result.residencies {
        if res.end == ResidencyEnd::Squashed {
            if let Occupant::CorrectPath { trace_idx } = res.occupant {
                squashed_idx = Some(trace_idx);
                break;
            }
        }
    }
    let idx = squashed_idx.expect("at least one squashed entry");
    let retired = result.residencies.iter().any(|res| {
        res.end == ResidencyEnd::Retired
            && matches!(res.occupant, Occupant::CorrectPath { trace_idx } if trace_idx == idx)
    });
    assert!(
        retired,
        "squashed instruction {idx} must refetch and retire"
    );
}

/// A loop with a data-dependent (alternating) branch to exercise
/// misprediction recovery and wrong-path fetch.
fn branchy_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.push(Instruction::movi(r(1), 200)); // counter
    b.push(Instruction::movi(r(2), 0)); // accumulator
    b.push(Instruction::movi(r(3), 1)); // constant
    let top = b.new_label();
    b.bind(top);
    // Alternate the branch on the counter's low bit.
    b.push(Instruction::alu(ses_isa::Opcode::And, r(4), r(1), r(3)));
    b.push(Instruction::cmp_eq(Pred::new(2), r(4), Reg::ZERO));
    let skip = b.new_label();
    b.branch(Pred::new(2), skip);
    b.push(Instruction::add(r(2), r(2), r(3)));
    b.push(Instruction::add(r(2), r(2), r(3)));
    b.bind(skip);
    b.push(Instruction::addi(r(1), r(1), -1));
    b.push(Instruction::cmp_lt(Pred::new(1), Reg::ZERO, r(1)));
    b.branch(Pred::new(1), top);
    b.push(Instruction::out(r(2)));
    b.push(Instruction::halt());
    b.build().unwrap()
}

#[test]
fn mispredictions_create_and_flush_wrong_path() {
    let p = branchy_program();
    let trace = Emulator::new(&p).run(10_000).unwrap();
    let result = Pipeline::new(quiet_config()).run(&p, &trace);
    assert!(result.mispredictions > 0, "fresh predictor must miss");
    assert!(result.wrong_path_fetched > 0);
    let flushed = result
        .residencies
        .iter()
        .filter(|x| x.end == ResidencyEnd::FlushedWrongPath)
        .count();
    assert!(flushed > 0, "wrong-path entries must be flushed");
    // No wrong-path entry may ever retire.
    assert!(result
        .residencies
        .iter()
        .filter(|x| x.is_wrong_path())
        .all(|x| x.end != ResidencyEnd::Retired));
    assert_eq!(result.committed, trace.len() as u64);
}

/// Nested calls deeper than the 8-entry return-address stack force
/// return mispredictions.
fn deep_recursion_program(depth: usize) -> Program {
    // A chain of functions f0 -> f1 -> ... -> f{depth-1}, each saving its
    // link register to memory and restoring it before returning.
    let mut b = ProgramBuilder::new();
    let funcs: Vec<_> = (0..depth).map(|_| b.new_label()).collect();
    let end = b.new_label();
    b.call(r(31), funcs[0]);
    b.jump(end);
    for (i, &label) in funcs.iter().enumerate() {
        b.bind(label);
        // Save the link register at a per-depth slot.
        b.push(Instruction::movi(r(1), 0x8000 + (i as i32) * 8));
        b.push(Instruction::st(r(1), r(31), 0));
        if i + 1 < depth {
            b.call(r(31), funcs[i + 1]);
        }
        // Restore and return.
        b.push(Instruction::movi(r(1), 0x8000 + (i as i32) * 8));
        b.push(Instruction::ld(r(31), r(1), 0));
        b.push(Instruction::ret(r(31)));
    }
    b.bind(end);
    b.push(Instruction::out(r(1)));
    b.push(Instruction::halt());
    b.build().unwrap()
}

#[test]
fn shallow_calls_predict_returns_perfectly() {
    let p = deep_recursion_program(3);
    let trace = Emulator::new(&p).run(10_000).unwrap();
    assert!(trace.halted());
    let result = Pipeline::new(quiet_config()).run(&p, &trace);
    assert_eq!(result.mispredictions, 0, "RAS depth 8 covers 3-deep calls");
    assert_eq!(result.committed, trace.len() as u64);
}

#[test]
fn deep_recursion_overflows_the_ras() {
    let p = deep_recursion_program(12);
    let trace = Emulator::new(&p).run(10_000).unwrap();
    assert!(trace.halted());
    let result = Pipeline::new(quiet_config()).run(&p, &trace);
    assert!(
        result.mispredictions > 0,
        "12-deep recursion must overflow the 8-entry RAS"
    );
    assert!(result.wrong_path_fetched > 0);
    assert_eq!(result.committed, trace.len() as u64, "recovery still exact");
}

#[test]
fn fault_on_idle_slot_is_benign() {
    let p = straightline(10);
    let trace = Emulator::new(&p).run(1000).unwrap();
    // Strike a high slot very early: nothing lives there yet.
    let fault = FaultSpec::single(Cycle::new(0), 63, 5);
    let result = Pipeline::new(quiet_config()).run_with_fault(
        &p,
        &trace,
        Some(fault),
        DetectionModel::Parity { tracking: None },
    );
    assert_eq!(result.fault, Some(FaultOutcome::SlotIdle));
}

#[test]
fn fault_after_run_ends_is_idle() {
    let p = straightline(10);
    let trace = Emulator::new(&p).run(1000).unwrap();
    let fault = FaultSpec::single(Cycle::new(1_000_000), 0, 0);
    let result =
        Pipeline::new(quiet_config()).run_with_fault(&p, &trace, Some(fault), DetectionModel::None);
    assert_eq!(result.fault, Some(FaultOutcome::SlotIdle));
}

#[test]
fn parity_fault_on_occupied_slot_signals_at_issue() {
    // Stall the machine on a memory miss so slots stay occupied, then
    // strike one mid-stall: the entry is read at issue and parity fires.
    let p = memory_miss_program(40);
    let trace = Emulator::new(&p).run(1000).unwrap();
    let mut cfg = quiet_config();
    cfg.warm_caches = false;
    // Mid-miss, deep in the stalled queue, an immediate bit.
    let fault = FaultSpec::single(Cycle::new(60), 20, 33);
    let result = Pipeline::new(cfg).run_with_fault(
        &p,
        &trace,
        Some(fault),
        DetectionModel::Parity { tracking: None },
    );
    match result.fault {
        Some(FaultOutcome::Signalled { point, .. }) => {
            assert_eq!(point, SignalPoint::IssueParity)
        }
        other => panic!("expected a parity signal, got {other:?}"),
    }
}

#[test]
fn temporal_double_strike_escapes_parity_without_scrubbing() {
    // Two strikes 40 cycles apart accumulate in a stalled entry; by the
    // time the entry is read, the flip count is even and parity is blind.
    let p = memory_miss_program(40);
    let trace = Emulator::new(&p).run(1000).unwrap();
    let mut cfg = quiet_config();
    cfg.warm_caches = false;
    let fault = FaultSpec::temporal_double(Cycle::new(40), 20, 33, 40);
    let result = Pipeline::new(cfg).run_with_fault(
        &p,
        &trace,
        Some(fault),
        DetectionModel::Parity { tracking: None },
    );
    assert!(
        matches!(result.fault, Some(FaultOutcome::CorruptIssued { .. })),
        "even accumulated flips must slip past parity, got {:?}",
        result.fault
    );
}

#[test]
fn scrubbing_detects_the_first_strike_before_the_second() {
    // With a scrub sweep every 16 cycles, the single-bit fault is caught
    // while it is still odd -- restoring fail-stop behaviour (§2's
    // scrubbing defence).
    let p = memory_miss_program(40);
    let trace = Emulator::new(&p).run(1000).unwrap();
    let mut cfg = quiet_config();
    cfg.warm_caches = false;
    cfg.scrub_period = 16;
    let fault = FaultSpec::temporal_double(Cycle::new(40), 20, 33, 40);
    let result = Pipeline::new(cfg).run_with_fault(
        &p,
        &trace,
        Some(fault),
        DetectionModel::Parity { tracking: None },
    );
    assert!(
        matches!(
            result.fault,
            Some(FaultOutcome::Signalled {
                point: SignalPoint::IssueParity,
                ..
            })
        ),
        "the scrub sweep must detect the odd flip early, got {:?}",
        result.fault
    );
}

#[test]
fn second_strike_skipped_if_entry_left_the_queue() {
    // The second strike lands long after everything retired: only the
    // first (odd, detectable) flip ever exists.
    let p = memory_miss_program(10);
    let trace = Emulator::new(&p).run(1000).unwrap();
    let mut cfg = quiet_config();
    cfg.warm_caches = false;
    let fault = FaultSpec::temporal_double(Cycle::new(40), 20, 33, 100_000);
    let result = Pipeline::new(cfg).run_with_fault(
        &p,
        &trace,
        Some(fault),
        DetectionModel::Parity { tracking: None },
    );
    // Odd flip: either read (signalled) or never read (benign), but never
    // a silent corruption.
    assert!(
        !matches!(result.fault, Some(FaultOutcome::CorruptIssued { .. })),
        "a lone odd flip cannot escape parity, got {:?}",
        result.fault
    );
}

#[test]
fn squash_policy_none_by_default_and_configs_validate() {
    let cfg = PipelineConfig::default();
    assert_eq!(cfg.squash, SquashPolicy::None);
    assert!(cfg.validate().is_ok());
}
