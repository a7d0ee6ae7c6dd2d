//! Hand-written kernels: small, real programs with known outputs.
//!
//! Unlike the synthetic suite (whose *statistics* are calibrated), these
//! kernels compute verifiable results — Fibonacci numbers, sieve counts,
//! checksums — so they double as golden tests of the emulator and as
//! credibility checks for the AVF machinery on non-synthetic code shapes:
//! pointer chasing, streaming copies, tight dependence chains, data-
//! dependent branching.

use ses_isa::{Instruction, Opcode, Program, ProgramBuilder};
use ses_types::{Addr, Pred, Reg};

fn r(n: u8) -> Reg {
    Reg::new(n)
}

fn p(n: u8) -> Pred {
    Pred::new(n)
}

/// A named kernel with its expected output.
pub struct Kernel {
    /// Kernel name.
    pub name: &'static str,
    /// The program.
    pub program: Program,
    /// Expected output stream.
    pub expected_output: Vec<u64>,
}

/// `fib(n)` for n in 1..=20: a tight two-register dependence chain.
pub fn fibonacci() -> Kernel {
    let mut b = ProgramBuilder::new();
    b.push(Instruction::movi(r(1), 20));
    b.push(Instruction::movi(r(2), 0));
    b.push(Instruction::movi(r(3), 1));
    let top = b.new_label();
    b.bind(top);
    b.push(Instruction::add(r(4), r(2), r(3)));
    b.push(Instruction::out(r(3)));
    b.push(Instruction::add(r(2), r(3), Reg::ZERO));
    b.push(Instruction::add(r(3), r(4), Reg::ZERO));
    b.push(Instruction::addi(r(1), r(1), -1));
    b.push(Instruction::cmp_lt(p(1), Reg::ZERO, r(1)));
    b.branch(p(1), top);
    b.push(Instruction::halt());
    let mut expected = Vec::new();
    let (mut a, mut c) = (0u64, 1u64);
    for _ in 0..20 {
        expected.push(c);
        let n = a + c;
        a = c;
        c = n;
    }
    Kernel {
        name: "fibonacci",
        program: b.build().expect("fibonacci builds"),
        expected_output: expected,
    }
}

/// Linked-list pointer chase: 256 nodes in pseudo-random order, walk the
/// chain and checksum the indices — the `mcf` access pattern in miniature.
pub fn list_chase() -> Kernel {
    const NODES: u64 = 256;
    const BASE: u64 = 0x2_0000;
    // Build the list: node i at BASE + i*16; [addr] = next-node address,
    // [addr+8] = payload (i). Next order is a simple permutation.
    let mut next = vec![0u64; NODES as usize];
    let mut order: Vec<u64> = (0..NODES).map(|i| (i * 167 + 13) % NODES).collect();
    order.dedup();
    // Ensure a full cycle: use a stride permutation (167 is coprime to 256).
    let mut words = Vec::new();
    for i in 0..NODES {
        next[i as usize] = (i * 167 + 13) % NODES;
        words.push(BASE + next[i as usize] * 16);
        words.push(i);
    }

    let mut b = ProgramBuilder::new();
    b.data_segment(Addr::new(BASE), words);
    b.push(Instruction::movi(r(1), NODES as i32)); // counter
    b.push(Instruction::movi(r(2), BASE as i32)); // cursor
    b.push(Instruction::movi(r(3), 0)); // checksum
    let top = b.new_label();
    b.bind(top);
    b.push(Instruction::ld(r(4), r(2), 8)); // payload
    b.push(Instruction::add(r(3), r(3), r(4)));
    b.push(Instruction::ld(r(2), r(2), 0)); // chase
    b.push(Instruction::addi(r(1), r(1), -1));
    b.push(Instruction::cmp_lt(p(1), Reg::ZERO, r(1)));
    b.branch(p(1), top);
    b.push(Instruction::out(r(3)));
    b.push(Instruction::halt());

    // Expected checksum: payload of each visited node, starting at BASE.
    let mut sum = 0u64;
    let mut cursor = 0u64;
    for _ in 0..NODES {
        sum += cursor;
        cursor = next[cursor as usize];
    }
    Kernel {
        name: "list_chase",
        program: b.build().expect("list_chase builds"),
        expected_output: vec![sum],
    }
}

/// Streaming copy of 512 words with a rolling checksum: the `swim`-like
/// regular streaming pattern.
pub fn memcpy_checksum() -> Kernel {
    const WORDS: u64 = 512;
    const SRC: u64 = 0x3_0000;
    const DST: u64 = 0x5_0000;
    let data: Vec<u64> = (0..WORDS).map(|i| i * i + 7).collect();

    let mut b = ProgramBuilder::new();
    b.data_segment(Addr::new(SRC), data.clone());
    b.push(Instruction::movi(r(1), WORDS as i32));
    b.push(Instruction::movi(r(2), SRC as i32));
    b.push(Instruction::movi(r(3), DST as i32));
    b.push(Instruction::movi(r(4), 0)); // checksum
    let top = b.new_label();
    b.bind(top);
    b.push(Instruction::ld(r(5), r(2), 0));
    b.push(Instruction::st(r(3), r(5), 0));
    b.push(Instruction::alu(Opcode::Xor, r(4), r(4), r(5)));
    b.push(Instruction::addi(r(2), r(2), 8));
    b.push(Instruction::addi(r(3), r(3), 8));
    b.push(Instruction::addi(r(1), r(1), -1));
    b.push(Instruction::cmp_lt(p(1), Reg::ZERO, r(1)));
    b.branch(p(1), top);
    // Read one copied word back to keep the copy live.
    b.push(Instruction::movi(r(6), DST as i32));
    b.push(Instruction::ld(r(7), r(6), 8)); // dst[1]
    b.push(Instruction::out(r(4)));
    b.push(Instruction::out(r(7)));
    b.push(Instruction::halt());

    let checksum = data.iter().fold(0u64, |a, &b| a ^ b);
    Kernel {
        name: "memcpy_checksum",
        program: b.build().expect("memcpy builds"),
        expected_output: vec![checksum, data[1]],
    }
}

/// Sieve of Eratosthenes over [2, 200): counts primes with data-dependent
/// control flow and flag stores.
pub fn sieve() -> Kernel {
    const N: u64 = 200;
    const FLAGS: u64 = 0x6_0000; // one word per candidate, 0 = prime
    let mut b = ProgramBuilder::new();
    // Outer loop over i in 2..N; if flags[i]==0, count it and mark
    // multiples.
    b.push(Instruction::movi(r(1), 2)); // i
    b.push(Instruction::movi(r(2), 0)); // prime count
    b.push(Instruction::movi(r(3), FLAGS as i32));
    b.push(Instruction::movi(r(4), N as i32));
    b.push(Instruction::movi(r(5), 1)); // the constant one
    let outer = b.new_label();
    let next_i = b.new_label();
    let inner = b.new_label();
    b.bind(outer);
    // addr = FLAGS + i*8
    b.push(Instruction::alu(Opcode::Shl, r(6), r(1), r(7))); // r7=3 set below
    b.push(Instruction::add(r(6), r(6), r(3)));
    b.push(Instruction::ld(r(8), r(6), 0));
    b.push(Instruction::cmp_eq(p(2), r(8), Reg::ZERO));
    // not prime -> skip marking
    let skip = b.new_label();
    b.push(Instruction::cmp_eq(p(3), r(8), r(5)));
    b.branch(p(3), skip);
    b.push(Instruction::add(r(2), r(2), r(5))); // count += 1
                                                // mark multiples: j = 2*i; while j < N { flags[j] = 1; j += i }
    b.push(Instruction::add(r(9), r(1), r(1))); // j = 2i
    b.bind(inner);
    b.push(Instruction::cmp_lt(p(4), r(9), r(4)));
    let done_marking = b.new_label();
    b.push(Instruction::cmp_lt(p(5), r(9), r(4)));
    // (note: p4/p5 identical; branch on p4's negation via p5 false path)
    b.push(Instruction::alu(Opcode::Shl, r(10), r(9), r(7)));
    b.push(Instruction::add(r(10), r(10), r(3)));
    b.push(Instruction::st(r(10), r(5), 0).guarded_by(p(4)));
    b.push(Instruction::add(r(9), r(9), r(1)).guarded_by(p(4)));
    b.branch(p(4), inner);
    b.bind(done_marking);
    b.bind(skip);
    b.bind(next_i);
    b.push(Instruction::addi(r(1), r(1), 1));
    b.push(Instruction::cmp_lt(p(1), r(1), r(4)));
    b.branch(p(1), outer);
    b.push(Instruction::out(r(2)));
    b.push(Instruction::halt());

    // r7 = 3 must be set before the loop; patch by prepending is awkward,
    // so rebuild with it included.
    let mut code = vec![Instruction::movi(r(7), 3)];
    code.extend_from_slice(b.build().expect("sieve builds").code());
    // The branch offsets are relative, so inserting at the front is safe.
    let program = Program::new(code);

    // Count primes below 200 the boring way.
    let mut is_comp = vec![false; N as usize];
    let mut count = 0u64;
    for i in 2..N as usize {
        if !is_comp[i] {
            count += 1;
            let mut j = 2 * i;
            while j < N as usize {
                is_comp[j] = true;
                j += i;
            }
        }
    }
    Kernel {
        name: "sieve",
        program,
        expected_output: vec![count],
    }
}

/// Population count over a 64-word table using shifts and masks: long
/// ALU-only dependence chains (a `sixtrack`-ish compute kernel).
pub fn bitcount() -> Kernel {
    const WORDS: u64 = 64;
    const BASE: u64 = 0x7_0000;
    let data: Vec<u64> = (0..WORDS)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let expected: u64 = data.iter().map(|w| w.count_ones() as u64).sum();

    let mut b = ProgramBuilder::new();
    b.data_segment(Addr::new(BASE), data);
    b.push(Instruction::movi(r(1), WORDS as i32));
    b.push(Instruction::movi(r(2), BASE as i32));
    b.push(Instruction::movi(r(3), 0)); // total
    b.push(Instruction::movi(r(4), 1)); // const 1
    let outer = b.new_label();
    b.bind(outer);
    b.push(Instruction::ld(r(5), r(2), 0));
    b.push(Instruction::movi(r(6), 64)); // bit counter
    let inner = b.new_label();
    b.bind(inner);
    b.push(Instruction::alu(Opcode::And, r(7), r(5), r(4)));
    b.push(Instruction::add(r(3), r(3), r(7)));
    b.push(Instruction::alu(Opcode::Shr, r(5), r(5), r(4)));
    b.push(Instruction::addi(r(6), r(6), -1));
    b.push(Instruction::cmp_lt(p(2), Reg::ZERO, r(6)));
    b.branch(p(2), inner);
    b.push(Instruction::addi(r(2), r(2), 8));
    b.push(Instruction::addi(r(1), r(1), -1));
    b.push(Instruction::cmp_lt(p(1), Reg::ZERO, r(1)));
    b.branch(p(1), outer);
    b.push(Instruction::out(r(3)));
    b.push(Instruction::halt());

    Kernel {
        name: "bitcount",
        program: b.build().expect("bitcount builds"),
        expected_output: vec![expected],
    }
}

/// 8x8 integer matrix multiply with a checksum of the product: nested
/// loops, accumulator recurrences, and strided loads from two arrays.
pub fn matmul() -> Kernel {
    const N: u64 = 8;
    const A: u64 = 0x9_0000;
    const B: u64 = 0xA_0000;
    let a: Vec<u64> = (0..N * N).map(|i| (i * 7 + 3) % 23).collect();
    let bm: Vec<u64> = (0..N * N).map(|i| (i * 5 + 1) % 19).collect();
    let mut checksum = 0u64;
    for i in 0..N as usize {
        for j in 0..N as usize {
            let mut acc = 0u64;
            for k in 0..N as usize {
                acc = acc.wrapping_add(a[i * 8 + k].wrapping_mul(bm[k * 8 + j]));
            }
            checksum = checksum.wrapping_add(acc);
        }
    }

    let mut b = ProgramBuilder::new();
    b.data_segment(Addr::new(A), a);
    b.data_segment(Addr::new(B), bm);
    b.push(Instruction::movi(r(1), 0)); // i
    b.push(Instruction::movi(r(2), N as i32)); // N
    b.push(Instruction::movi(r(3), A as i32));
    b.push(Instruction::movi(r(4), B as i32));
    b.push(Instruction::movi(r(5), 0)); // checksum
    b.push(Instruction::movi(r(6), 3)); // shift for *8 bytes
    b.push(Instruction::movi(r(15), 6)); // shift for *64 bytes (row)
    let li = b.new_label();
    b.bind(li);
    b.push(Instruction::movi(r(7), 0)); // j
    let lj = b.new_label();
    b.bind(lj);
    b.push(Instruction::movi(r(8), 0)); // k
    b.push(Instruction::movi(r(9), 0)); // acc
    let lk = b.new_label();
    b.bind(lk);
    // a[i*8+k]: addr = A + (i<<6) + (k<<3)
    b.push(Instruction::alu(Opcode::Shl, r(10), r(1), r(15)));
    b.push(Instruction::alu(Opcode::Shl, r(11), r(8), r(6)));
    b.push(Instruction::add(r(10), r(10), r(11)));
    b.push(Instruction::add(r(10), r(10), r(3)));
    b.push(Instruction::ld(r(12), r(10), 0));
    // b[k*8+j]: addr = B + (k<<6) + (j<<3)
    b.push(Instruction::alu(Opcode::Shl, r(10), r(8), r(15)));
    b.push(Instruction::alu(Opcode::Shl, r(11), r(7), r(6)));
    b.push(Instruction::add(r(10), r(10), r(11)));
    b.push(Instruction::add(r(10), r(10), r(4)));
    b.push(Instruction::ld(r(13), r(10), 0));
    b.push(Instruction::mul(r(14), r(12), r(13)));
    b.push(Instruction::add(r(9), r(9), r(14)));
    b.push(Instruction::addi(r(8), r(8), 1));
    b.push(Instruction::cmp_lt(p(1), r(8), r(2)));
    b.branch(p(1), lk);
    b.push(Instruction::add(r(5), r(5), r(9)));
    b.push(Instruction::addi(r(7), r(7), 1));
    b.push(Instruction::cmp_lt(p(2), r(7), r(2)));
    b.branch(p(2), lj);
    b.push(Instruction::addi(r(1), r(1), 1));
    b.push(Instruction::cmp_lt(p(3), r(1), r(2)));
    b.branch(p(3), li);
    b.push(Instruction::out(r(5)));
    b.push(Instruction::halt());

    Kernel {
        name: "matmul",
        program: b.build().expect("matmul builds"),
        expected_output: vec![checksum],
    }
}

/// Insertion sort of 48 pseudo-random words with predicated swaps:
/// data-dependent predication pressure on real control structure.
pub fn insertion_sort() -> Kernel {
    const N: i32 = 48;
    const BASE: u64 = 0xB_0000;
    let data: Vec<u64> = (0..N as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9) % 1000)
        .collect();
    let mut sorted = data.clone();
    sorted.sort_unstable();
    let checksum: u64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| v.wrapping_mul(i as u64 + 1))
        .fold(0u64, |a, b| a.wrapping_add(b));
    let expected = vec![sorted[0], sorted[24], sorted[47], checksum];

    let mut b = ProgramBuilder::new();
    b.data_segment(Addr::new(BASE), data);
    b.push(Instruction::movi(r(1), 1)); // i
    b.push(Instruction::movi(r(2), N)); // N
    b.push(Instruction::movi(r(3), BASE as i32));
    b.push(Instruction::movi(r(4), 1)); // const 1
    b.push(Instruction::movi(r(6), 3)); // shift
    let li = b.new_label();
    b.bind(li);
    b.push(Instruction::add(r(7), r(1), Reg::ZERO)); // j = i
    let lj = b.new_label();
    let done_j = b.new_label();
    b.bind(lj);
    // Exit when j < 1 *before* touching memory: no stale predicates.
    b.push(Instruction::cmp_lt(p(1), r(7), r(4)));
    b.branch(p(1), done_j);
    b.push(Instruction::alu(Opcode::Shl, r(8), r(7), r(6)));
    b.push(Instruction::add(r(8), r(8), r(3)));
    b.push(Instruction::ld(r(9), r(8), 0)); // a[j]
    b.push(Instruction::ld(r(10), r(8), -8)); // a[j-1]
                                              // Swap needed iff a[j] < a[j-1]; otherwise fall through to done_j.
    b.push(Instruction::cmp_lt(p(2), r(9), r(10)));
    b.push(Instruction::st(r(8), r(10), 0).guarded_by(p(2)));
    b.push(Instruction::st(r(8), r(9), -8).guarded_by(p(2)));
    b.push(Instruction::addi(r(7), r(7), -1).guarded_by(p(2)));
    b.branch(p(2), lj);
    b.bind(done_j);
    b.push(Instruction::addi(r(1), r(1), 1));
    b.push(Instruction::cmp_lt(p(3), r(1), r(2)));
    b.branch(p(3), li);
    // Emit first, middle, last and a weighted checksum.
    b.push(Instruction::ld(r(11), r(3), 0));
    b.push(Instruction::out(r(11)));
    b.push(Instruction::ld(r(11), r(3), 24 * 8));
    b.push(Instruction::out(r(11)));
    b.push(Instruction::ld(r(11), r(3), 47 * 8));
    b.push(Instruction::out(r(11)));
    b.push(Instruction::movi(r(12), 0)); // checksum
    b.push(Instruction::movi(r(13), 0)); // idx
    b.push(Instruction::movi(r(14), 1)); // weight
    let lc = b.new_label();
    b.bind(lc);
    b.push(Instruction::alu(Opcode::Shl, r(8), r(13), r(6)));
    b.push(Instruction::add(r(8), r(8), r(3)));
    b.push(Instruction::ld(r(9), r(8), 0));
    b.push(Instruction::mul(r(9), r(9), r(14)));
    b.push(Instruction::add(r(12), r(12), r(9)));
    b.push(Instruction::addi(r(13), r(13), 1));
    b.push(Instruction::addi(r(14), r(14), 1));
    b.push(Instruction::cmp_lt(p(5), r(13), r(2)));
    b.branch(p(5), lc);
    b.push(Instruction::out(r(12)));
    b.push(Instruction::halt());

    Kernel {
        name: "insertion_sort",
        program: b.build().expect("sort builds"),
        expected_output: expected,
    }
}

/// All kernels.
pub fn kernels() -> Vec<Kernel> {
    vec![
        fibonacci(),
        list_chase(),
        memcpy_checksum(),
        sieve(),
        bitcount(),
        matmul(),
        insertion_sort(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_arch::Emulator;

    #[test]
    fn all_kernels_produce_their_expected_output() {
        for k in kernels() {
            let trace = Emulator::new(&k.program)
                .run(5_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            assert!(trace.halted(), "{} must halt", k.name);
            assert_eq!(
                trace.output(),
                k.expected_output.as_slice(),
                "{} output mismatch",
                k.name
            );
        }
    }

    #[test]
    fn kernels_have_distinct_shapes() {
        use crate::mix::TraceMix;
        let mixes: Vec<(String, TraceMix)> = kernels()
            .iter()
            .map(|k| {
                let t = Emulator::new(&k.program).run(5_000_000).unwrap();
                (k.name.to_string(), TraceMix::measure(&t))
            })
            .collect();
        let get = |n: &str| {
            mixes
                .iter()
                .find(|(name, _)| name == n)
                .map(|(_, m)| *m)
                .unwrap()
        };
        assert!(
            get("list_chase").load > get("bitcount").load,
            "the chase is load-heavy; bitcount is ALU-heavy"
        );
        assert!(get("bitcount").alu > 0.5);
        assert!(get("memcpy_checksum").store > 0.1);
    }
}
