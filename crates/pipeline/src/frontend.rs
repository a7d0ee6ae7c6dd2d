//! Front end: trace-driven fetch with branch prediction and wrong-path
//! synthesis.
//!
//! Correct-path instructions come from the functional trace. When the
//! direction predictor disagrees with a conditional branch's actual
//! outcome, the front end starts fetching *wrong-path* instructions from
//! the static program image at the mispredicted target — mirroring the
//! paper's methodology ("for wrong paths, we fetch the mis-speculated
//! instructions, but do not have the correct memory addresses") — until the
//! engine reports the branch resolved.

use std::collections::VecDeque;

use ses_arch::DynInstr;
use ses_isa::{static_target, Instruction, Opcode, Program, INSTR_BYTES};

/// Depth of the return-address stack.
const RAS_DEPTH: usize = 8;
use ses_types::{Addr, Cycle, SeqNo};

use crate::config::PipelineConfig;
use crate::predictor::Gshare;
use crate::residency::Occupant;

/// An instruction travelling down the front-end pipe towards the
/// instruction queue.
#[derive(Debug, Clone, Copy)]
pub struct FetchedInstr {
    /// Correct-path (with trace index) or wrong-path.
    pub occupant: Occupant,
    /// The instruction bits to be stored in the queue.
    pub instr: Instruction,
    /// Fetch order.
    pub seq: SeqNo,
    /// Whether the qualifying predicate evaluates false (correct path).
    pub falsely_predicated: bool,
    /// Whether this is a conditional branch the predictor got wrong; its
    /// completion triggers misprediction recovery.
    pub mispredicted_branch: bool,
    /// Cycle at which the instruction reaches the queue-insert stage.
    pub ready_at: Cycle,
}

/// Front-end statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontEndStats {
    /// Correct-path instructions fetched (including refetches after
    /// squash).
    pub fetched: u64,
    /// Wrong-path instructions fetched.
    pub wrong_path_fetched: u64,
    /// Cycles fetch was blocked by throttling.
    pub throttled_cycles: u64,
    /// Returns predicted via the RAS.
    pub ras_predictions: u64,
    /// Returns the RAS got wrong (stack overflow or corruption).
    pub ras_mispredictions: u64,
}

/// The fetch engine.
#[derive(Clone)]
pub struct FrontEnd<'a> {
    program: &'a Program,
    trace: &'a [DynInstr],
    pipe_capacity: usize,
    width: usize,
    depth: u64,
    /// Set by the engine while a throttling miss is outstanding. It is an
    /// input, not state: the engine sets it every cycle before fetching.
    pub throttled: bool,
    /// Everything else fetch changes, and all a checkpoint holds of the
    /// front end.
    pub(crate) state: FrontEndState,
}

/// The front end's mutable state: a lifetime-free image that a pipeline
/// checkpoint clones whole.
#[derive(Debug, Clone)]
pub(crate) struct FrontEndState {
    predictor: Gshare,
    /// Next trace index to fetch on the correct path.
    cursor: usize,
    /// `Some(pc)` while fetching the wrong path; `None` within wrong-path
    /// mode means the wrong path ran off the image (fetch bubbles).
    wrong_pc: Option<Addr>,
    /// Whether an unresolved misprediction has the front end on the wrong
    /// path.
    wrong_path_active: bool,
    pipe: VecDeque<FetchedInstr>,
    resume_at: Cycle,
    next_seq: SeqNo,
    /// Return-address stack: call targets are static, but return targets
    /// are register-indirect and must be predicted.
    ras: Vec<Addr>,
    stats: FrontEndStats,
}

impl<'a> FrontEnd<'a> {
    /// Creates a front end positioned at the start of the trace.
    pub fn new(config: &PipelineConfig, program: &'a Program, trace: &'a [DynInstr]) -> Self {
        FrontEnd {
            program,
            trace,
            pipe_capacity: config.width * config.frontend_depth.max(1) as usize,
            width: config.width,
            depth: config.frontend_depth,
            throttled: false,
            state: FrontEndState {
                predictor: Gshare::new(config.predictor),
                cursor: 0,
                wrong_pc: None,
                wrong_path_active: false,
                pipe: VecDeque::new(),
                resume_at: Cycle::ZERO,
                next_seq: SeqNo::FIRST,
                ras: Vec::with_capacity(RAS_DEPTH),
                stats: FrontEndStats::default(),
            },
        }
    }

    /// Whether every correct-path instruction has been fetched and the pipe
    /// is empty.
    pub fn exhausted(&self) -> bool {
        self.state.cursor >= self.trace.len() && self.state.pipe.is_empty()
    }

    /// Pops the oldest instruction in the pipe if it has reached the
    /// queue-insert stage by `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<FetchedInstr> {
        match self.state.pipe.front() {
            Some(f) if f.ready_at <= now => self.state.pipe.pop_front(),
            _ => None,
        }
    }

    /// Fetches up to `width` instructions this cycle, returning how many
    /// (correct-path, wrong-path) instructions entered the pipe.
    pub fn fetch(&mut self, now: Cycle) -> (u64, u64) {
        if now < self.state.resume_at {
            return (0, 0);
        }
        if self.throttled {
            self.state.stats.throttled_cycles += 1;
            return (0, 0);
        }
        let before = self.state.stats;
        let ready_at = now + self.depth;
        for _ in 0..self.width {
            if self.state.pipe.len() >= self.pipe_capacity {
                break;
            }
            if self.state.wrong_path_active {
                if !self.fetch_wrong_path(ready_at) {
                    break;
                }
            } else if !self.fetch_correct_path(ready_at) {
                break;
            }
        }
        let after = self.state.stats;
        (
            after.fetched - before.fetched,
            after.wrong_path_fetched - before.wrong_path_fetched,
        )
    }

    fn fetch_correct_path(&mut self, ready_at: Cycle) -> bool {
        let Some(d) = self.trace.get(self.state.cursor) else {
            return false;
        };
        self.state.cursor += 1;
        let mut mispredicted = false;
        if d.instr.op.is_conditional_branch() {
            let taken = d.taken.unwrap_or(false);
            let correct = self.state.predictor.update(d.pc, taken);
            if !correct {
                mispredicted = true;
                // The machine fetches down the predicted (wrong) path.
                self.state.wrong_path_active = true;
                self.state.wrong_pc = if taken {
                    // Predicted not-taken: wrong path is the fall-through.
                    Some(d.pc.offset(INSTR_BYTES))
                } else {
                    // Predicted taken: wrong path is the branch target.
                    static_target(&d.instr, d.pc)
                };
            }
        } else if d.instr.op == Opcode::Call && d.executed {
            // Push the return address; a full stack drops its oldest entry.
            if self.state.ras.len() == RAS_DEPTH {
                self.state.ras.remove(0);
            }
            self.state.ras.push(d.pc.offset(INSTR_BYTES));
        } else if d.instr.op == Opcode::Ret && d.executed {
            // Returns are register-indirect: predict via the RAS.
            let predicted = self.state.ras.pop();
            self.state.stats.ras_predictions += 1;
            if predicted != Some(d.next_pc) {
                self.state.stats.ras_mispredictions += 1;
                mispredicted = true;
                self.state.wrong_path_active = true;
                // The machine fetches wherever the (wrong) RAS entry
                // points, or falls through on an empty stack.
                self.state.wrong_pc = Some(predicted.unwrap_or(d.pc.offset(INSTR_BYTES)));
            }
        }
        self.state.pipe.push_back(FetchedInstr {
            occupant: Occupant::CorrectPath { trace_idx: d.index },
            instr: d.instr,
            seq: self.state.next_seq.bump(),
            falsely_predicated: !d.executed,
            mispredicted_branch: mispredicted,
            ready_at,
        });
        self.state.stats.fetched += 1;
        // A fetch group ends at a taken control transfer (the fetch unit
        // must redirect); misprediction handling continues on the wrong
        // path next call within this same cycle.
        let redirected = d.next_pc != d.pc.offset(INSTR_BYTES);
        !redirected || mispredicted
    }

    fn fetch_wrong_path(&mut self, ready_at: Cycle) -> bool {
        let Some(pc) = self.state.wrong_pc else {
            // Wrong path ran off the image: fetch bubbles until recovery.
            return false;
        };
        let Some(&instr) = self.program.instr_at(pc) else {
            self.state.wrong_pc = None;
            return false;
        };
        self.state.pipe.push_back(FetchedInstr {
            occupant: Occupant::WrongPath,
            instr,
            seq: self.state.next_seq.bump(),
            falsely_predicated: false,
            mispredicted_branch: false,
            ready_at,
        });
        self.state.stats.wrong_path_fetched += 1;
        // Follow the wrong path: take unconditional transfers, predict
        // conditional branches not-taken, stop at returns and halts.
        self.state.wrong_pc = match instr.op {
            Opcode::Jmp | Opcode::Call => static_target(&instr, pc),
            Opcode::Ret | Opcode::Halt => None,
            _ => Some(pc.offset(INSTR_BYTES)),
        };
        true
    }

    /// Redirects fetch to `trace_idx`, clearing the pipe and any wrong-path
    /// mode; fetch resumes at `resume_at`. Used for misprediction recovery
    /// (`trace_idx` = branch + 1) and squash refetch (`trace_idx` =
    /// load + 1).
    pub fn redirect(&mut self, trace_idx: u64, resume_at: Cycle) {
        self.state.cursor = trace_idx as usize;
        self.state.pipe.clear();
        self.state.wrong_pc = None;
        self.state.wrong_path_active = false;
        self.state.resume_at = resume_at;
    }

    /// Whether the front end is currently fetching (or stalled on) the
    /// wrong path.
    pub fn on_wrong_path(&self) -> bool {
        self.state.wrong_path_active
    }

    /// Fetch statistics so far.
    pub fn stats(&self) -> FrontEndStats {
        self.state.stats
    }

    /// Prediction statistics over conditional branches *and* returns:
    /// (predictions, mispredictions).
    pub fn predictor_stats(&self) -> (u64, u64) {
        (
            self.state.predictor.predictions() + self.state.stats.ras_predictions,
            self.state.predictor.mispredictions() + self.state.stats.ras_mispredictions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_arch::Emulator;
    use ses_isa::{Instruction, ProgramBuilder};
    use ses_types::{Pred, Reg};

    fn loopy_program() -> Program {
        // A loop whose backward branch alternates taken 7 times then exits.
        let mut b = ProgramBuilder::new();
        b.push(Instruction::movi(Reg::new(1), 8));
        let top = b.new_label();
        b.bind(top);
        b.push(Instruction::addi(Reg::new(1), Reg::new(1), -1));
        b.push(Instruction::cmp_lt(Pred::new(1), Reg::ZERO, Reg::new(1)));
        b.branch(Pred::new(1), top);
        b.push(Instruction::out(Reg::new(1)));
        b.push(Instruction::halt());
        b.build().unwrap()
    }

    /// Pops everything that has reached the queue-insert stage by `now`.
    fn pop_all_ready(fe: &mut FrontEnd<'_>, now: Cycle) -> Vec<FetchedInstr> {
        std::iter::from_fn(|| fe.pop_ready(now)).collect()
    }

    /// Drives the front end, performing instant misprediction recovery as
    /// the engine would once each mispredicted branch resolves.
    fn fetch_all(fe: &mut FrontEnd<'_>, cycles: u64) -> Vec<FetchedInstr> {
        let mut got = Vec::new();
        for c in 0..cycles {
            let now = Cycle::new(c);
            fe.fetch(now);
            let batch = pop_all_ready(fe, now);
            let redirect = batch
                .iter()
                .find(|f| f.mispredicted_branch)
                .and_then(|f| f.occupant_trace());
            got.extend(batch);
            if let Some(idx) = redirect {
                fe.redirect(idx + 1, now.next());
            }
        }
        got
    }

    #[test]
    fn fetches_whole_trace_in_order() {
        let p = loopy_program();
        let trace = Emulator::new(&p).run(1000).unwrap();
        let cfg = PipelineConfig::default();
        let mut fe = FrontEnd::new(&cfg, &p, trace.entries());
        let got = fetch_all(&mut fe, 200);
        let correct: Vec<u64> = got.iter().filter_map(|f| f.occupant_trace()).collect();
        // All trace indices present, in order (wrong-path may interleave).
        let expected: Vec<u64> = (0..trace.len() as u64).collect();
        assert_eq!(correct, expected);
        assert!(fe.exhausted());
    }

    impl FetchedInstr {
        fn occupant_trace(&self) -> Option<u64> {
            match self.occupant {
                Occupant::CorrectPath { trace_idx } => Some(trace_idx),
                Occupant::WrongPath => None,
            }
        }
    }

    #[test]
    fn frontend_depth_delays_arrival() {
        let p = loopy_program();
        let trace = Emulator::new(&p).run(1000).unwrap();
        let cfg = PipelineConfig::default();
        let mut fe = FrontEnd::new(&cfg, &p, trace.entries());
        fe.fetch(Cycle::ZERO);
        assert!(
            pop_all_ready(&mut fe, Cycle::new(cfg.frontend_depth - 1)).is_empty(),
            "nothing arrives before the front-end depth elapses"
        );
        assert!(!pop_all_ready(&mut fe, Cycle::new(cfg.frontend_depth)).is_empty());
    }

    #[test]
    fn mispredict_spawns_wrong_path_then_redirect_recovers() {
        let p = loopy_program();
        let trace = Emulator::new(&p).run(1000).unwrap();
        let cfg = PipelineConfig::default();
        let mut fe = FrontEnd::new(&cfg, &p, trace.entries());
        // Fetch until we see a mispredicted branch.
        let mut mis_at = None;
        'outer: for c in 0..200u64 {
            fe.fetch(Cycle::new(c));
            for f in pop_all_ready(&mut fe, Cycle::new(c)) {
                if f.mispredicted_branch {
                    mis_at = Some(f);
                    break 'outer;
                }
            }
        }
        let branch = mis_at.expect("fresh predictor must mispredict somewhere");
        assert!(fe.on_wrong_path());
        // Recovery: resume after the branch.
        let idx = branch.occupant_trace().unwrap();
        fe.redirect(idx + 1, Cycle::new(300));
        assert!(!fe.on_wrong_path());
        fe.fetch(Cycle::new(299));
        assert!(
            pop_all_ready(&mut fe, Cycle::new(320)).is_empty(),
            "fetch stalled until resume_at"
        );
        fe.fetch(Cycle::new(300));
        let refetched = pop_all_ready(&mut fe, Cycle::new(300 + cfg.frontend_depth));
        assert_eq!(refetched[0].occupant_trace(), Some(idx + 1));
    }

    #[test]
    fn throttling_blocks_fetch_and_counts() {
        let p = loopy_program();
        let trace = Emulator::new(&p).run(1000).unwrap();
        let cfg = PipelineConfig::default();
        let mut fe = FrontEnd::new(&cfg, &p, trace.entries());
        fe.throttled = true;
        fe.fetch(Cycle::ZERO);
        assert!(pop_all_ready(&mut fe, Cycle::new(50)).is_empty());
        assert_eq!(fe.stats().throttled_cycles, 1);
        fe.throttled = false;
        fe.fetch(Cycle::new(1));
        assert!(!pop_all_ready(&mut fe, Cycle::new(50)).is_empty());
    }

    #[test]
    fn wrong_path_stops_at_halt() {
        // Program: mispredictable branch directly before halt; wrong path
        // into halt stops fetching.
        let p = loopy_program();
        let trace = Emulator::new(&p).run(1000).unwrap();
        let cfg = PipelineConfig::default();
        let mut fe = FrontEnd::new(&cfg, &p, trace.entries());
        let got = fetch_all(&mut fe, 500);
        // However many wrong-path instructions were fetched, the stream
        // must terminate (no infinite wrong path).
        assert!(got.len() < 5000);
    }
}
