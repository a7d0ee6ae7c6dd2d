//! The program synthesiser: turns a [`WorkloadSpec`] into a runnable
//! SES-64 program.
//!
//! ## Register conventions
//!
//! | Register | Role |
//! |---|---|
//! | `r1`  | outer-loop down-counter |
//! | `r2`  | live output accumulator (periodically `out`) |
//! | `r3`  | base of the cache-stressing array **A** |
//! | `r4`  | base of the branch-pattern array **B** (random-initialised) |
//! | `r5`  | byte index into A |
//! | `r6`  | A index mask (working set − 1) |
//! | `r7`  | constant 1 |
//! | `r8`  | current pattern value (loaded from B each iteration) |
//! | `r9`  | control-block scratch (branch tests, call gates) |
//! | `r10`–`r13` | live accumulators, folded into `r2` each iteration |
//! | `r52` | far-load gate mask constant |
//! | `r53` | deep-load gate mask constant (31) |
//! | `r54` | base of the cold-streaming deep region **E** |
//! | `r55` | deep-region byte index (never wraps) |
//! | `r14`, `r15`, `r32`–`r51` | per-block temporaries (straight-line blocks are register-renamed and interleaved for ILP, as an IA-64 compiler would schedule them) |
//! | `r16` | short-distance dead register (dead loads) |
//! | `r17`–`r19` | dead chain (one FDD def, two TDD defs) |
//! | `r24` | slow-killed dead register (written every 8th iteration) |
//! | `r20`–`r23`, `r56`–`r61` | procedure scratch banks (return-killed dead registers) |
//! | `r62` | dead-store index mask constant (511) |
//! | `r63` | second call-gate phase constant (4) |
//! | `r25` | constant 15 (call / output gate mask) |
//! | `r26` | constant 7 (slow-dead gate mask) |
//! | `r27` | byte index into B / store regions |
//! | `r28` | B index mask (4095) |
//! | `r29` | base of the never-read store region **C** (dead stores) |
//! | `r30` | base of the read-back store region **D** (live stores) |
//! | `r31` | link register |
//!
//! Predicates: `p1` loop, `p2` data-dependent branches, `p3` call/output
//! gate, `p4` predication, `p5` slow-dead gate, `p6` far-load gate, `p7`
//! deep-load gate.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use ses_isa::{Instruction, Opcode, Program, ProgramBuilder};
use ses_types::{Addr, Pred, Reg};

use crate::spec::{Category, WorkloadSpec};

const A_BASE: i32 = 0x10_0000;
const B_BASE: i32 = 0x8000;
const C_BASE: i32 = 0x4_0000;
const D_BASE: i32 = 0x6_0000;
const E_BASE: i32 = 0x1000_0000;
const B_WORDS: usize = 512;
const B_MASK: i32 = 4095;

fn r(n: u8) -> Reg {
    Reg::new(n)
}

fn p(n: u8) -> Pred {
    Pred::new(n)
}

/// One of the shuffled per-iteration block kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    Arith,
    LoadLive(u8),
    LoadFar(u8),
    LoadDeep(u8),
    LoadDead(u8),
    StoreLive,
    StoreDead,
    DeadChain,
    DeadSlow,
    Neutral,
    Predicated,
    Branchy,
    Call(u8),
}

fn block_list(spec: &WorkloadSpec, rng: &mut StdRng) -> Vec<Block> {
    let m = &spec.mix;
    let mut blocks = Vec::new();
    for _ in 0..m.arith {
        blocks.push(Block::Arith);
    }
    for i in 0..m.load_live {
        blocks.push(Block::LoadLive(i));
    }
    for i in 0..m.load_far {
        blocks.push(Block::LoadFar(i));
    }
    for i in 0..m.load_deep {
        blocks.push(Block::LoadDeep(i));
    }
    for i in 0..m.load_dead {
        blocks.push(Block::LoadDead(i));
    }
    for _ in 0..m.store_live {
        blocks.push(Block::StoreLive);
    }
    for _ in 0..m.store_dead {
        blocks.push(Block::StoreDead);
    }
    for _ in 0..m.dead_chain {
        blocks.push(Block::DeadChain);
    }
    for _ in 0..m.dead_slow {
        blocks.push(Block::DeadSlow);
    }
    for _ in 0..m.neutral {
        blocks.push(Block::Neutral);
    }
    for _ in 0..m.predicated {
        blocks.push(Block::Predicated);
    }
    for _ in 0..m.branchy {
        blocks.push(Block::Branchy);
    }
    for i in 0..m.call {
        blocks.push(Block::Call(i));
    }
    blocks.shuffle(rng);
    blocks
}

/// Emits a straight-line block as an instruction list using temporary
/// register `t`, so blocks can be interleaved for instruction-level
/// parallelism without hazards.
fn straight_block(block: Block, t: Reg, fp: bool, rng: &mut StdRng) -> Vec<Instruction> {
    match block {
        Block::Arith => {
            let acc = r(10 + rng.gen_range(0..4));
            let mut v = vec![
                Instruction::movi(t, rng.gen_range(1..1000)),
                Instruction::add(t, t, r(8)),
            ];
            if fp {
                // FP-like codes carry longer-latency chains.
                v.push(Instruction::mul(t, t, t));
            }
            v.push(Instruction::add(acc, acc, t));
            v
        }
        Block::LoadLive(i) => {
            // Hot-region load: L0-resident after warm-up.
            let acc = r(10 + (i % 4));
            let off = (i as i32) * 64;
            vec![
                Instruction::add(t, r(30), r(27)),
                Instruction::ld(t, t, off),
                Instruction::add(acc, acc, t),
            ]
        }
        Block::LoadFar(i) => {
            // Far load: walks the large working set, gated by the
            // iteration counter so the miss *frequency* is a spec knob
            // (p6 true when (counter & far_gate_mask) == 0).
            let acc = r(10 + (i % 4));
            let off = (i as i32) * 8;
            vec![
                Instruction::alu(Opcode::And, t, r(1), r(52)),
                Instruction::cmp_eq(p(6), t, Reg::ZERO),
                Instruction::add(t, r(3), r(5)).guarded_by(p(6)),
                Instruction::ld(t, t, off).guarded_by(p(6)),
                Instruction::add(acc, acc, t).guarded_by(p(6)),
            ]
        }
        Block::LoadDeep(i) => {
            // Deep load: fires every 64th iteration and streams cold lines
            // (touched once) from main memory -- the occasional critical
            // miss every real workload exhibits (p7 gate).
            let acc = r(10 + (i % 4));
            vec![
                Instruction::alu(Opcode::And, t, r(1), r(53)),
                Instruction::cmp_eq(p(7), t, Reg::ZERO),
                Instruction::add(t, r(54), r(55)).guarded_by(p(7)),
                Instruction::ld(t, t, (i as i32) * 8).guarded_by(p(7)),
                Instruction::add(acc, acc, t).guarded_by(p(7)),
            ]
        }
        Block::LoadDead(i) => {
            // Destination r16 is written by every dead load and never
            // read: each def but the last dies within the iteration (short
            // PET distance), the last at the next iteration.
            let off = (i as i32) * 64 + 8;
            vec![
                Instruction::add(t, r(30), r(27)),
                Instruction::ld(r(16), t, off),
            ]
        }
        Block::StoreLive => vec![
            Instruction::add(t, r(30), r(27)),
            Instruction::st(t, r(2), 0),
            Instruction::ld(t, t, 0),
            Instruction::add(r(11), r(11), t),
        ],
        Block::StoreDead => vec![
            // Region C is never loaded: these stores are dynamically dead,
            // tracked via memory. The narrow index mask (r62 = 511) makes
            // the same word be re-stored every 64 iterations, giving dead
            // stores the long kill distances of Figure 3's memory curve.
            Instruction::alu(Opcode::And, t, r(27), r(62)),
            Instruction::add(t, t, r(29)),
            Instruction::st(t, r(10), 0),
        ],
        Block::DeadChain => vec![
            // r19 is never read (FDD); r17/r18 feed only dead consumers
            // (TDD).
            Instruction::movi(r(17), rng.gen_range(1..100)),
            Instruction::add(r(18), r(17), r(7)),
            Instruction::mul(r(19), r(18), r(18)),
        ],
        Block::DeadSlow => vec![
            // Written only when (counter & 7) == 0, so the overwrite
            // arrives 8 iterations later: a medium PET distance.
            Instruction::alu(Opcode::And, t, r(1), r(26)),
            Instruction::cmp_eq(p(5), t, Reg::ZERO),
            Instruction::movi(r(24), rng.gen_range(1..100)).guarded_by(p(5)),
        ],
        Block::Neutral => {
            // FP codes carry more prefetches; INT more plain no-ops.
            let roll: f64 = rng.gen();
            vec![if roll < if fp { 0.4 } else { 0.1 } {
                Instruction::prefetch(r(3), rng.gen_range(0..64) * 64)
            } else if roll < 0.55 {
                Instruction::hint()
            } else {
                Instruction::nop()
            }]
        }
        Block::Predicated => vec![
            // p4 follows a data bit: roughly half the guarded adds are
            // falsely predicated.
            Instruction::alu(Opcode::And, t, r(8), r(7)),
            Instruction::cmp_eq(p(4), t, Reg::ZERO),
            Instruction::add(r(12), r(12), r(7)).guarded_by(p(4)),
        ],
        Block::Branchy | Block::Call(_) => unreachable!("control blocks are emitted separately"),
    }
}

/// The rotating per-block temporary pool.
const TEMP_POOL: [u8; 20] = [
    32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51,
];

/// Emits a control block (branch or call) in place; returns a function
/// label for call blocks.
fn emit_control(
    b: &mut ProgramBuilder,
    block: Block,
    rng: &mut StdRng,
) -> Option<(ses_isa::Label, u8)> {
    match block {
        Block::Branchy => {
            // Taken iff the pattern value clears a threshold. Most branches
            // are heavily skewed (predictable, like real codes); a minority
            // sit near 50/50 and drive mispredictions.
            let threshold = match rng.gen_range(0..10) {
                0..=4 => rng.gen_range(8..24),    // rarely taken
                5..=8 => rng.gen_range(232..248), // almost always taken
                _ => rng.gen_range(96..160),      // hard to predict
            };
            let skip = b.new_label();
            b.push(Instruction::addi(r(9), r(8), -threshold));
            b.push(Instruction::cmp_lt(p(2), r(9), Reg::ZERO));
            b.branch(p(2), skip);
            b.push(Instruction::add(r(13), r(13), r(7)));
            b.push(Instruction::hint());
            b.bind(skip);
            None
        }
        Block::Call(i) => {
            // Call cadences stagger the lifetimes of the return-killed
            // register banks (Figure 3's long-distance FDD population):
            // function 0 runs every 8th iteration, function 1 every 16th,
            // function 2 every 64th.
            let label = b.new_label();
            match i % 3 {
                0 => {
                    b.push(Instruction::alu(Opcode::And, r(9), r(1), r(26)));
                    b.push(Instruction::cmp_eq(p(3), r(9), Reg::ZERO));
                }
                1 => {
                    b.push(Instruction::alu(Opcode::And, r(9), r(1), r(25)));
                    b.push(Instruction::cmp_eq(p(3), r(9), r(63)));
                }
                _ => {
                    b.push(Instruction::alu(Opcode::And, r(9), r(1), r(53)));
                    b.push(Instruction::cmp_eq(p(3), r(9), Reg::ZERO));
                }
            }
            b.call_guarded(p(3), r(31), label);
            Some((label, i))
        }
        _ => unreachable!("straight-line blocks are emitted separately"),
    }
}

/// Synthesises a runnable program from a workload specification.
///
/// The same spec always produces the identical program (all randomness is
/// drawn from `spec.seed`).
///
/// # Panics
///
/// Panics if the spec fails [`WorkloadSpec::validate`].
pub fn synthesize(spec: &WorkloadSpec) -> Program {
    spec.validate().expect("invalid workload spec");

    // Pass 1: count instructions per iteration so we can hit the dynamic
    // target. Uses a throwaway builder with the same RNG stream.
    let body_len = {
        let mut scratch = ProgramBuilder::new();
        let mut rng = StdRng::seed_from_u64(spec.seed);
        emit_iteration(&mut scratch, spec, &mut rng, None);
        scratch.len() as u64
    };
    // +4 loop-control instructions per iteration are inside
    // emit_iteration, so body_len is the full per-iteration cost.
    let iters = (spec.target_dynamic / body_len.max(1)).max(4);

    let mut b = ProgramBuilder::new();
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // --- prologue: constants and bases ---
    b.push(Instruction::movi(r(1), iters as i32));
    b.push(Instruction::movi(r(2), 0));
    b.push(Instruction::movi(r(3), A_BASE));
    b.push(Instruction::movi(r(4), B_BASE));
    b.push(Instruction::movi(r(5), 0));
    b.push(Instruction::movi(r(6), (spec.working_set_bytes - 1) as i32));
    b.push(Instruction::movi(r(7), 1));
    b.push(Instruction::movi(r(25), 15));
    b.push(Instruction::movi(r(26), 7));
    b.push(Instruction::movi(r(27), 0));
    b.push(Instruction::movi(r(28), B_MASK));
    b.push(Instruction::movi(r(29), C_BASE));
    b.push(Instruction::movi(r(30), D_BASE));
    b.push(Instruction::movi(r(52), spec.far_gate_mask as i32));
    b.push(Instruction::movi(r(53), 63));
    b.push(Instruction::movi(r(54), E_BASE));
    b.push(Instruction::movi(r(55), 0));
    b.push(Instruction::movi(r(62), 511));
    b.push(Instruction::movi(r(63), 4));

    let loop_top = b.new_label();
    b.bind(loop_top);
    let func_labels = emit_iteration(&mut b, spec, &mut rng, Some(loop_top));

    // --- epilogue: final output and halt ---
    b.push(Instruction::out(r(2)));
    b.push(Instruction::halt());

    // --- functions ---
    // Each function writes an independent bank of scratch registers that
    // nothing reads; the same function's next activation (8 iterations
    // later) overwrites them. These are the return-attributed FDD
    // registers whose coverage requires large PET buffers (Figure 3).
    const BANKS: [&[u8]; 3] = [&[20, 21, 22, 23, 56, 57], &[58, 59, 60, 61], &[14, 15]];
    for (label, fidx) in func_labels {
        b.bind(label);
        for (k, &reg) in BANKS[fidx as usize % BANKS.len()].iter().enumerate() {
            b.push(Instruction::movi(r(reg), 11 + fidx as i32 + k as i32));
        }
        // A visible side effect so the call itself is live.
        b.push(Instruction::add(r(2), r(2), r(7)));
        b.push(Instruction::ret(r(31)));
    }

    // --- data: random pattern array B ---
    let mut data_rng = StdRng::seed_from_u64(spec.seed ^ 0xB157_F00D);
    let pattern: Vec<u64> = (0..B_WORDS).map(|_| data_rng.gen_range(0..256)).collect();
    b.data_segment(Addr::new(B_BASE as u64), pattern);

    b.build().expect("synthesised program must build")
}

/// Emits one loop iteration: pattern load, interleaved straight-line
/// blocks, control blocks, accumulator fold, gated call/output, index
/// update and loop control. Returns labels for functions to be emitted
/// after the main body, with their indices.
fn emit_iteration(
    b: &mut ProgramBuilder,
    spec: &WorkloadSpec,
    rng: &mut StdRng,
    loop_top: Option<ses_isa::Label>,
) -> Vec<(ses_isa::Label, u8)> {
    let mut funcs = Vec::new();
    let fp = spec.category == Category::FloatingPoint;

    // Pattern load: r8 = B[r27].
    b.push(Instruction::add(r(9), r(4), r(27)));
    b.push(Instruction::ld(r(8), r(9), 0));
    b.push(Instruction::addi(r(27), r(27), 8));
    b.push(Instruction::alu(Opcode::And, r(27), r(27), r(28)));

    let blocks = block_list(spec, rng);
    let mut straight: Vec<Vec<Instruction>> = Vec::new();
    let mut control: Vec<Block> = Vec::new();
    let mut temp_i = 0usize;
    for block in blocks {
        match block {
            Block::Branchy | Block::Call(_) => control.push(block),
            other => {
                // Neutral blocks never touch their temporary; skip them
                // when assigning pool registers so the blocks that do use
                // temporaries never collide (a collision would corrupt
                // gating predicates computed through the temp).
                let t = r(TEMP_POOL[temp_i % TEMP_POOL.len()]);
                if other != Block::Neutral {
                    temp_i += 1;
                    assert!(
                        temp_i <= TEMP_POOL.len(),
                        "block mix exceeds the temporary pool; raise TEMP_POOL"
                    );
                }
                straight.push(straight_block(other, t, fp, rng));
            }
        }
    }

    // Interleave the straight-line blocks round-robin within small
    // windows: consecutive instructions come from a few independent
    // blocks, exposing moderate ILP to the in-order issue logic the way a
    // compiler schedule would, while keeping issue (not fetch) the
    // steady-state bottleneck -- the regime the paper's 1.2-IPC machine
    // operates in.
    const INTERLEAVE_WINDOW: usize = 3;
    for window in straight.chunks(INTERLEAVE_WINDOW) {
        let mut round = 0;
        loop {
            let mut any = false;
            for list in window {
                if let Some(&instr) = list.get(round) {
                    b.push(instr);
                    any = true;
                }
            }
            if !any {
                break;
            }
            round += 1;
        }
    }

    for block in control {
        if let Some(f) = emit_control(b, block, rng) {
            funcs.push(f);
        }
    }

    // Fold the per-iteration accumulators into the output register.
    for acc in 10..14 {
        b.push(Instruction::add(r(2), r(2), r(acc)));
    }

    // Output gate shares p3's cadence when calls exist; otherwise compute it.
    if spec.mix.call == 0 {
        b.push(Instruction::alu(Opcode::And, r(9), r(1), r(25)));
        b.push(Instruction::cmp_eq(p(3), r(9), Reg::ZERO));
    }
    b.push(Instruction::out(r(2)).guarded_by(p(3)));

    // Advance the A index and the (unwrapped) deep-region index.
    b.push(Instruction::addi(r(5), r(5), spec.stride_bytes as i32));
    b.push(Instruction::alu(Opcode::And, r(5), r(5), r(6)));
    b.push(Instruction::addi(r(55), r(55), 4096));

    // Loop control.
    b.push(Instruction::addi(r(1), r(1), -1));
    b.push(Instruction::cmp_lt(p(1), Reg::ZERO, r(1)));
    match loop_top {
        Some(top) => {
            b.branch(p(1), top);
        }
        None => {
            // Pass-1 scratch: account for the branch without a target.
            b.push(Instruction::nop());
        }
    }
    funcs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BlockMix;
    use ses_arch::Emulator;

    fn quick() -> WorkloadSpec {
        WorkloadSpec::quick("unit", 42)
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = synthesize(&quick());
        let b = synthesize(&quick());
        assert_eq!(a, b);
        let mut other = quick();
        other.seed = 43;
        assert_ne!(a, synthesize(&other), "different seed, different program");
    }

    #[test]
    fn program_runs_to_halt_near_target() {
        let spec = quick();
        let p = synthesize(&spec);
        let trace = Emulator::new(&p)
            .run(spec.target_dynamic * 3)
            .expect("golden run");
        assert!(trace.halted(), "program must halt");
        let n = trace.len() as u64;
        assert!(
            n > spec.target_dynamic / 2 && n < spec.target_dynamic * 2,
            "dynamic length {n} far from target {}",
            spec.target_dynamic
        );
        assert!(!trace.output().is_empty(), "program must emit output");
    }

    #[test]
    fn trace_has_all_phenomena() {
        let spec = quick();
        let p = synthesize(&spec);
        let trace = Emulator::new(&p).run(100_000).unwrap();
        let s = trace.stats();
        assert!(s.falsely_predicated > 0, "predication present");
        assert!(s.neutral > 0, "neutral instructions present");
        assert!(s.loads > 0 && s.stores > 0, "memory traffic present");
        assert!(s.cond_branches > 0, "branches present");
        assert!(
            s.taken_fraction() > 0.05 && s.taken_fraction() < 0.99,
            "branches must vary, got {}",
            s.taken_fraction()
        );
        assert!(s.calls > 0, "calls present");
        assert!(s.outputs > 1, "periodic output present");
    }

    #[test]
    fn working_set_is_respected() {
        let mut spec = quick();
        spec.working_set_bytes = 4096;
        let p = synthesize(&spec);
        let trace = Emulator::new(&p).run(100_000).unwrap();
        for e in trace.entries() {
            if let Some(a) = e.mem_read() {
                let a = a.as_u64();
                if (A_BASE as u64..A_BASE as u64 + 0x10_0000).contains(&a) {
                    assert!(
                        a < A_BASE as u64 + 4096 + 4096,
                        "A access {a:#x} beyond working set + block offsets"
                    );
                }
            }
        }
    }

    #[test]
    fn dead_store_region_is_never_loaded() {
        let p = synthesize(&quick());
        let trace = Emulator::new(&p).run(100_000).unwrap();
        let c_lo = C_BASE as u64;
        let c_hi = c_lo + 0x2_0000;
        assert!(
            trace
                .entries()
                .iter()
                .filter_map(|e| e.mem_read())
                .all(|a| !(c_lo..c_hi).contains(&a.as_u64())),
            "no load may touch the dead-store region"
        );
        assert!(
            trace
                .entries()
                .iter()
                .filter_map(|e| e.mem_written())
                .any(|a| (c_lo..c_hi).contains(&a.as_u64())),
            "dead stores must exist"
        );
    }

    #[test]
    fn zero_call_mix_still_outputs() {
        let mut spec = quick();
        spec.mix = BlockMix {
            call: 0,
            ..BlockMix::balanced()
        };
        let p = synthesize(&spec);
        let trace = Emulator::new(&p).run(100_000).unwrap();
        assert!(trace.halted());
        assert!(trace.stats().outputs > 0);
        assert_eq!(trace.stats().calls, 0);
    }

    #[test]
    fn output_differs_across_seeds() {
        let a = synthesize(&quick());
        let mut s2 = quick();
        s2.seed = 1234;
        let b = synthesize(&s2);
        let ta = Emulator::new(&a).run(100_000).unwrap();
        let tb = Emulator::new(&b).run(100_000).unwrap();
        assert_ne!(ta.output(), tb.output());
    }
}
