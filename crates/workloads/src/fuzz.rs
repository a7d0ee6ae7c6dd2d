//! Seeded random program generator for the differential oracle.
//!
//! Where [`crate::synthesize`] builds *calibrated* workloads (block mixes
//! tuned to reproduce the paper's dynamic profiles), this module builds
//! *adversarial* ones: structurally random SES-64 programs that stress the
//! corners a hand-tuned mix never reaches — aliasing load/store pairs to
//! the same scratch words, skewed and near-50/50 data-dependent branches
//! (the wrong-path fetch source), predicated groups whose guards flip with
//! the data, transitively dead register chains, dead stores, gated calls,
//! and neutral filler, all in a randomly shuffled order with random
//! register/immediate choices.
//!
//! Guarantees the oracle relies on:
//!
//! * **Termination** — control flow is a single counted outer loop plus
//!   forward-only internal branches and leaf calls, so every generated
//!   program halts within a statically known dynamic budget
//!   ([`FuzzProgramSpec::dynamic_budget`]).
//! * **Determinism** — the same `seed` always yields the identical
//!   program.
//! * **Output** — the accumulator is emitted via `out` at least once, so
//!   SDC classification (output-stream comparison) is meaningful.
//! * **Assembler round-trip** — no data segments are used (memory is
//!   seeded by stores), so `assemble(disassemble(p))` reproduces the
//!   program exactly; shrunk reproducers and the regression corpus are
//!   plain `.s` files.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_isa::{Instruction, Opcode, Program, ProgramBuilder};
use ses_types::{Pred, Reg};

/// Base of the aliased scratch region both loads and stores walk.
const SCRATCH_BASE: i32 = 0x2_0000;
/// Byte span of the aliased scratch region (word-granular offsets inside
/// it are chosen from a handful of slots so loads and stores collide).
const SCRATCH_SPAN: i32 = 256;
/// Byte offset of the never-loaded dead-store region above the scratch
/// base.
const DEAD_STORE_OFF: i32 = 1024;

/// The live data-register pool atoms read and write (`r10`–`r19`).
const POOL: [u8; 10] = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19];
/// Dead-chain registers: written every iteration, never read outside the
/// chain itself (`r22` is first-level dead, `r20`/`r21` transitively dead).
const DEAD: [u8; 3] = [20, 21, 22];
/// Registers written by call targets and never read (return-killed).
const CALL_BANK: [u8; 4] = [40, 41, 42, 43];

fn r(n: u8) -> Reg {
    Reg::new(n)
}

fn p(n: u8) -> Pred {
    Pred::new(n)
}

/// Shape knobs for one generated program. The defaults give the small,
/// fast programs the fuzz loop wants; tests can widen or narrow them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzProgramSpec {
    /// Inclusive range of outer-loop trip counts.
    pub min_trips: u32,
    /// See [`FuzzProgramSpec::min_trips`].
    pub max_trips: u32,
    /// Inclusive range of random atoms per loop iteration.
    pub min_atoms: u32,
    /// See [`FuzzProgramSpec::min_atoms`].
    pub max_atoms: u32,
    /// Maximum number of leaf functions reachable via gated calls.
    pub max_functions: u32,
    /// Bias atom selection towards memory traffic: half the draws come
    /// from the store/load atoms instead of the uniform mix. The resulting
    /// store-dense, alias-heavy programs pack many idempotent-region
    /// boundaries into few instructions — the hunting ground for the
    /// region-mode fuzzer.
    pub mem_bias: bool,
}

impl Default for FuzzProgramSpec {
    fn default() -> Self {
        FuzzProgramSpec {
            min_trips: 6,
            max_trips: 24,
            min_atoms: 6,
            max_atoms: 18,
            max_functions: 2,
            mem_bias: false,
        }
    }
}

impl FuzzProgramSpec {
    /// The store-dense, alias-heavy shape: default sizes with
    /// [`FuzzProgramSpec::mem_bias`] enabled.
    pub fn mem_heavy() -> Self {
        FuzzProgramSpec {
            mem_bias: true,
            ..FuzzProgramSpec::default()
        }
    }
}

impl FuzzProgramSpec {
    /// A safe dynamic-instruction budget for any program this spec can
    /// generate: the worst-case loop body (every atom at its longest,
    /// every call taken) times the worst-case trip count, plus prologue
    /// and epilogue, with 4x headroom. A generated program that exceeds
    /// this budget without halting is itself a generator bug the oracle
    /// reports.
    pub fn dynamic_budget(&self) -> u64 {
        let worst_atom = 8u64; // longest atom emission, in instructions
        let body = u64::from(self.max_atoms) * worst_atom + 16;
        let calls = u64::from(self.max_functions) * (CALL_BANK.len() as u64 + 4);
        (u64::from(self.max_trips) * (body + calls) + 64) * 4
    }
}

/// One randomly chosen loop-body ingredient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Atom {
    /// Three-register ALU op over the live pool.
    Alu,
    /// `movi`/`addi` with a random immediate.
    AluImm,
    /// Store to a random scratch slot, then (sometimes) a load that may
    /// alias it.
    StoreScratch,
    /// Load from a random scratch slot into the pool.
    LoadScratch,
    /// Store to the never-loaded dead region.
    StoreDead,
    /// Three-instruction dead chain (TDD + FDD defs).
    DeadChain,
    /// Compare-defined predicate guarding 1–3 pool ops.
    Predicated,
    /// Data-dependent forward branch over 1–3 instructions.
    Branch,
    /// Gated call to a leaf function.
    Call,
    /// `out` of the accumulator, guarded so it fires on some iterations.
    Output,
    /// Neutral filler (`nop` / `hint` / `lfetch`).
    Neutral,
}

/// The atoms the memory bias over-samples.
const MEM_ATOMS: [Atom; 3] = [Atom::StoreScratch, Atom::LoadScratch, Atom::StoreDead];

const ATOMS: [Atom; 11] = [
    Atom::Alu,
    Atom::AluImm,
    Atom::StoreScratch,
    Atom::LoadScratch,
    Atom::StoreDead,
    Atom::DeadChain,
    Atom::Predicated,
    Atom::Branch,
    Atom::Call,
    Atom::Output,
    Atom::Neutral,
];

const ALU_OPS: [Opcode; 8] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Shl,
    Opcode::Shr,
];

fn pool_reg(rng: &mut StdRng) -> Reg {
    r(POOL[rng.gen_range(0..POOL.len() as u32) as usize])
}

/// Word-aligned offset into the aliased scratch region. Eight slots only,
/// so independent atoms collide often — the load/store aliasing the
/// oracle's diff must stay correct under.
fn scratch_off(rng: &mut StdRng) -> i32 {
    rng.gen_range(0..(SCRATCH_SPAN / 8) as u32 / 4) as i32 * 8
}

/// Generates a random, always-halting SES-64 program from a seed, with
/// default shape knobs.
pub fn fuzz_program(seed: u64) -> Program {
    fuzz_program_with(seed, &FuzzProgramSpec::default())
}

/// Generates a random, always-halting SES-64 program with explicit shape
/// knobs. The same `(seed, spec)` pair always yields the same program.
pub fn fuzz_program_with(seed: u64, spec: &FuzzProgramSpec) -> Program {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    build(&mut rng, spec)
}

fn build(rng: &mut StdRng, spec: &FuzzProgramSpec) -> Program {
    let mut b = ProgramBuilder::new();
    let trips = rng.gen_range(spec.min_trips..spec.max_trips + 1) as i32;
    let atoms = rng.gen_range(spec.min_atoms..spec.max_atoms + 1);
    let n_funcs = if spec.max_functions == 0 {
        0
    } else {
        rng.gen_range(0..spec.max_functions + 1)
    };

    // --- prologue: counter, accumulator, bases, live pool ---
    b.push(Instruction::movi(r(1), trips));
    b.push(Instruction::movi(r(2), 0));
    b.push(Instruction::movi(r(3), SCRATCH_BASE));
    b.push(Instruction::movi(r(4), 1));
    for &reg in &POOL {
        b.push(Instruction::movi(r(reg), rng.gen_range(1i32..2000)));
    }
    // Seed a few scratch slots so early loads see data-dependent values.
    for slot in 0..4 {
        b.push(Instruction::st(r(3), pool_reg(rng), slot * 8));
    }

    // Function labels are created up front so call atoms can target them.
    let funcs: Vec<ses_isa::Label> = (0..n_funcs).map(|_| b.new_label()).collect();

    let loop_top = b.new_label();
    b.bind(loop_top);

    // --- loop body: shuffled random atoms ---
    let mut next_pred: u8 = 2; // p2..p7 rotate; p1 is the loop guard
    for _ in 0..atoms {
        let atom = if spec.mem_bias && rng.gen_range(0..2u32) == 0 {
            MEM_ATOMS[rng.gen_range(0..MEM_ATOMS.len() as u32) as usize]
        } else {
            ATOMS[rng.gen_range(0..ATOMS.len() as u32) as usize]
        };
        emit_atom(&mut b, rng, atom, &funcs, &mut next_pred);
    }

    // Fold a pool register into the accumulator so the body is live.
    b.push(Instruction::add(r(2), r(2), pool_reg(rng)));

    // --- loop control ---
    b.push(Instruction::addi(r(1), r(1), -1));
    b.push(Instruction::cmp_lt(p(1), Reg::ZERO, r(1)));
    b.branch(p(1), loop_top);

    // --- epilogue ---
    b.push(Instruction::out(r(2)));
    b.push(Instruction::halt());

    // --- leaf functions (after halt; reachable only by call) ---
    for (i, label) in funcs.iter().enumerate() {
        b.bind(*label);
        // Return-killed writes: nothing ever reads the call bank.
        for (k, &reg) in CALL_BANK.iter().enumerate() {
            b.push(Instruction::movi(r(reg), (i + k + 3) as i32));
        }
        // One live side effect so the call itself matters.
        b.push(Instruction::add(r(2), r(2), r(4)));
        b.push(Instruction::ret(r(31)));
    }

    b.build().expect("fuzz program must build")
}

fn emit_atom(
    b: &mut ProgramBuilder,
    rng: &mut StdRng,
    atom: Atom,
    funcs: &[ses_isa::Label],
    next_pred: &mut u8,
) {
    let take_pred = |n: &mut u8| {
        let pr = p(*n);
        *n = if *n >= 7 { 2 } else { *n + 1 };
        pr
    };
    match atom {
        Atom::Alu => {
            let op = ALU_OPS[rng.gen_range(0..ALU_OPS.len() as u32) as usize];
            b.push(Instruction::alu(
                op,
                pool_reg(rng),
                pool_reg(rng),
                pool_reg(rng),
            ));
        }
        Atom::AluImm => {
            let dest = pool_reg(rng);
            if rng.gen_range(0..2u32) == 0 {
                b.push(Instruction::movi(dest, rng.gen_range(0i32..4000) - 2000));
            } else {
                b.push(Instruction::addi(
                    dest,
                    pool_reg(rng),
                    rng.gen_range(0i32..200) - 100,
                ));
            }
        }
        Atom::StoreScratch => {
            let off = scratch_off(rng);
            b.push(Instruction::st(r(3), pool_reg(rng), off));
            if rng.gen_range(0..2u32) == 0 {
                // Immediately read a (possibly identical) slot back: the
                // aliasing pair the oracle must see commit in order.
                b.push(Instruction::ld(pool_reg(rng), r(3), scratch_off(rng)));
            }
        }
        Atom::LoadScratch => {
            b.push(Instruction::ld(pool_reg(rng), r(3), scratch_off(rng)));
        }
        Atom::StoreDead => {
            let off = DEAD_STORE_OFF + rng.gen_range(0..16u32) as i32 * 8;
            b.push(Instruction::st(r(3), pool_reg(rng), off));
        }
        Atom::DeadChain => {
            // r22 is never read (FDD); r20/r21 feed only dead consumers.
            b.push(Instruction::movi(r(DEAD[0]), rng.gen_range(1i32..100)));
            b.push(Instruction::add(r(DEAD[1]), r(DEAD[0]), r(4)));
            b.push(Instruction::mul(r(DEAD[2]), r(DEAD[1]), r(DEAD[1])));
        }
        Atom::Predicated => {
            let pr = take_pred(next_pred);
            let gate = pool_reg(rng);
            b.push(Instruction::alu(Opcode::And, r(6), gate, r(4)));
            b.push(Instruction::cmp_eq(pr, r(6), Reg::ZERO));
            for _ in 0..rng.gen_range(1..4u32) {
                let op = ALU_OPS[rng.gen_range(0..6u32) as usize];
                b.push(
                    Instruction::alu(op, pool_reg(rng), pool_reg(rng), pool_reg(rng))
                        .guarded_by(pr),
                );
            }
        }
        Atom::Branch => {
            // Taken iff a pool value clears a random threshold: the data
            // decides, so some of these sit near 50/50 and mispredict.
            let pr = take_pred(next_pred);
            let skip = b.new_label();
            b.push(Instruction::addi(
                r(6),
                pool_reg(rng),
                -(rng.gen_range(0..2000u32) as i32),
            ));
            b.push(Instruction::cmp_lt(pr, r(6), Reg::ZERO));
            b.branch(pr, skip);
            for _ in 0..rng.gen_range(1..4u32) {
                b.push(Instruction::add(pool_reg(rng), pool_reg(rng), r(4)));
            }
            b.bind(skip);
        }
        Atom::Call => {
            if funcs.is_empty() {
                b.push(Instruction::nop());
                return;
            }
            let pr = take_pred(next_pred);
            let i = rng.gen_range(0..funcs.len() as u32) as usize;
            // Gate on the loop counter's low bits so the call fires on a
            // subset of iterations.
            b.push(Instruction::alu(Opcode::And, r(6), r(1), r(4)));
            b.push(Instruction::cmp_eq(pr, r(6), Reg::ZERO));
            b.call_guarded(pr, r(31), funcs[i]);
        }
        Atom::Output => {
            let pr = take_pred(next_pred);
            b.push(Instruction::alu(Opcode::And, r(6), r(1), r(4)));
            b.push(Instruction::cmp_eq(pr, r(6), Reg::ZERO));
            b.push(Instruction::out(r(2)).guarded_by(pr));
        }
        Atom::Neutral => {
            b.push(match rng.gen_range(0..3u32) {
                0 => Instruction::nop(),
                1 => Instruction::hint(),
                _ => Instruction::prefetch(r(3), rng.gen_range(0..8u32) as i32 * 64),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_arch::Emulator;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(fuzz_program(7), fuzz_program(7));
        assert_ne!(fuzz_program(7), fuzz_program(8));
    }

    #[test]
    fn every_seed_halts_within_budget_and_outputs() {
        let spec = FuzzProgramSpec::default();
        for seed in 0..200u64 {
            let program = fuzz_program(seed);
            let trace = Emulator::new(&program)
                .run(spec.dynamic_budget())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(trace.halted(), "seed {seed} must halt");
            assert!(!trace.output().is_empty(), "seed {seed} must emit output");
        }
    }

    #[test]
    fn population_exercises_all_phenomena() {
        // No single seed need contain every atom, but across a batch the
        // generator must produce predication, branches both taken and not,
        // aliasing memory traffic, and calls.
        let mut agg = ses_arch::TraceStats::default();
        for seed in 0..40u64 {
            let program = fuzz_program(seed);
            let trace = Emulator::new(&program)
                .run(FuzzProgramSpec::default().dynamic_budget())
                .unwrap();
            let s = trace.stats();
            agg.total += s.total;
            agg.falsely_predicated += s.falsely_predicated;
            agg.neutral += s.neutral;
            agg.loads += s.loads;
            agg.stores += s.stores;
            agg.cond_branches += s.cond_branches;
            agg.taken_branches += s.taken_branches;
            agg.calls += s.calls;
            agg.outputs += s.outputs;
        }
        assert!(agg.falsely_predicated > 0);
        assert!(agg.loads > 0 && agg.stores > 0);
        assert!(agg.cond_branches > 0);
        assert!(agg.taken_branches > 0 && agg.taken_branches < agg.cond_branches);
        assert!(agg.calls > 0);
        assert!(agg.outputs >= 40, "every program outputs at least once");
        assert!(agg.neutral > 0);
    }

    #[test]
    fn mem_bias_makes_programs_store_denser() {
        let count = |spec: &FuzzProgramSpec| {
            let mut stores = 0u64;
            let mut total = 0u64;
            for seed in 0..30u64 {
                let trace = Emulator::new(&fuzz_program_with(seed, spec))
                    .run(spec.dynamic_budget())
                    .unwrap();
                let s = trace.stats();
                stores += s.stores;
                total += s.total;
            }
            stores as f64 / total as f64
        };
        let plain = count(&FuzzProgramSpec::default());
        let heavy = count(&FuzzProgramSpec::mem_heavy());
        assert!(
            heavy > plain * 1.3,
            "mem bias must raise store density: {heavy:.3} vs {plain:.3}"
        );
    }

    #[test]
    fn programs_roundtrip_through_the_assembler() {
        for seed in [0u64, 3, 11, 42] {
            let program = fuzz_program(seed);
            let text = ses_isa::disassemble(&program);
            let back = ses_isa::assemble(&text).expect("reassemble");
            assert_eq!(program, back, "seed {seed} must survive asm round-trip");
        }
    }
}
