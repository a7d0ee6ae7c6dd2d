//! Opcode definitions and static properties.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The SES-64 opcodes.
///
/// The set is deliberately close to the instruction mix the paper's analysis
/// cares about: ordinary ALU work, compares that write predicates, loads and
/// stores, branches / calls / returns (wrong-path sources), the three
/// *neutral* instruction types (no-op, prefetch, branch hint), and `Out`,
/// the I/O commit point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Opcode {
    /// `dest = src1 + src2`
    Add = 0,
    /// `dest = src1 - src2`
    Sub = 1,
    /// `dest = src1 * src2` (wrapping)
    Mul = 2,
    /// `dest = src1 & src2`
    And = 3,
    /// `dest = src1 | src2`
    Or = 4,
    /// `dest = src1 ^ src2`
    Xor = 5,
    /// `dest = src1 << (src2 & 63)`
    Shl = 6,
    /// `dest = src1 >> (src2 & 63)` (logical)
    Shr = 7,
    /// `dest = src1 + imm`
    AddI = 8,
    /// `dest = imm` (sign-extended)
    MovI = 9,
    /// `pdest = (src1 == src2)`
    CmpEq = 10,
    /// `pdest = (src1 < src2)` (signed)
    CmpLt = 11,
    /// `dest = mem[src1 + imm]`
    Ld = 12,
    /// `mem[src1 + imm] = src2`
    St = 13,
    /// Software prefetch of `mem[src1 + imm]`; never faults, no dest.
    Prefetch = 14,
    /// Conditional branch: taken iff the qualifying predicate is true.
    /// Target is `pc + imm` (in bytes).
    Br = 15,
    /// Unconditional direct jump to `pc + imm`.
    Jmp = 16,
    /// Call: `dest = return address`, jump to `pc + imm`.
    Call = 17,
    /// Return: jump to the address in `src1`.
    Ret = 18,
    /// No operation.
    Nop = 19,
    /// Branch-prediction hint; architecturally a no-op.
    Hint = 20,
    /// Write `src1`'s value to the program's output stream (I/O commit).
    Out = 21,
    /// Stop the program.
    Halt = 22,
}

/// Coarse classification of an opcode, used by the issue logic, the ACE
/// analysis, and the workload synthesiser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpcodeClass {
    /// Integer ALU operations (including immediate forms and compares).
    Alu,
    /// Memory loads.
    Load,
    /// Memory stores.
    Store,
    /// Control transfer (branch, jump, call, return).
    Control,
    /// Neutral instructions: no-ops, prefetches, hints (paper §4.1).
    Neutral,
    /// I/O output.
    Io,
    /// Program termination.
    Halt,
}

impl Opcode {
    /// All opcodes, in encoding order.
    pub const ALL: [Opcode; 23] = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Shl,
        Opcode::Shr,
        Opcode::AddI,
        Opcode::MovI,
        Opcode::CmpEq,
        Opcode::CmpLt,
        Opcode::Ld,
        Opcode::St,
        Opcode::Prefetch,
        Opcode::Br,
        Opcode::Jmp,
        Opcode::Call,
        Opcode::Ret,
        Opcode::Nop,
        Opcode::Hint,
        Opcode::Out,
        Opcode::Halt,
    ];

    /// The opcode's 6-bit encoding value.
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a 6-bit opcode value.
    pub fn from_code(code: u8) -> Option<Opcode> {
        Self::ALL.get(code as usize).copied()
    }

    /// The coarse class this opcode belongs to.
    pub const fn class(self) -> OpcodeClass {
        use Opcode::*;
        match self {
            Add | Sub | Mul | And | Or | Xor | Shl | Shr | AddI | MovI | CmpEq | CmpLt => {
                OpcodeClass::Alu
            }
            Ld => OpcodeClass::Load,
            St => OpcodeClass::Store,
            Br | Jmp | Call | Ret => OpcodeClass::Control,
            Nop | Prefetch | Hint => OpcodeClass::Neutral,
            Out => OpcodeClass::Io,
            Halt => OpcodeClass::Halt,
        }
    }

    /// Whether this opcode is one of the paper's *neutral* instruction types
    /// (no-op, prefetch, branch hint): instructions whose non-opcode bits can
    /// never affect program outcome, targeted by the anti-π bit (§4.3.2).
    pub const fn is_neutral(self) -> bool {
        matches!(self.class(), OpcodeClass::Neutral)
    }

    /// Whether this opcode writes a general-purpose destination register.
    pub const fn writes_reg(self) -> bool {
        use Opcode::*;
        matches!(
            self,
            Add | Sub | Mul | And | Or | Xor | Shl | Shr | AddI | MovI | Ld | Call
        )
    }

    /// Whether this opcode writes a predicate register.
    pub const fn writes_pred(self) -> bool {
        matches!(self, Opcode::CmpEq | Opcode::CmpLt)
    }

    /// Whether this opcode reads `src1`.
    pub const fn reads_src1(self) -> bool {
        use Opcode::*;
        !matches!(self, MovI | Jmp | Call | Nop | Hint | Halt | Br)
    }

    /// Whether this opcode reads `src2`.
    pub const fn reads_src2(self) -> bool {
        use Opcode::*;
        matches!(
            self,
            Add | Sub | Mul | And | Or | Xor | Shl | Shr | CmpEq | CmpLt | St
        )
    }

    /// Whether this opcode uses the immediate field.
    pub const fn uses_imm(self) -> bool {
        use Opcode::*;
        matches!(self, AddI | MovI | Ld | St | Prefetch | Br | Jmp | Call)
    }

    /// Whether this opcode accesses data memory (loads, stores, prefetches).
    pub const fn touches_memory(self) -> bool {
        matches!(self, Opcode::Ld | Opcode::St | Opcode::Prefetch)
    }

    /// Whether this opcode transfers control.
    pub const fn is_control(self) -> bool {
        matches!(self.class(), OpcodeClass::Control)
    }

    /// Whether this is a *conditional* control transfer (prediction matters).
    pub const fn is_conditional_branch(self) -> bool {
        matches!(self, Opcode::Br)
    }

    /// The assembly mnemonic.
    pub const fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            And => "and",
            Or => "or",
            Xor => "xor",
            Shl => "shl",
            Shr => "shr",
            AddI => "addi",
            MovI => "movi",
            CmpEq => "cmp.eq",
            CmpLt => "cmp.lt",
            Ld => "ld8",
            St => "st8",
            Prefetch => "lfetch",
            Br => "br",
            Jmp => "jmp",
            Call => "call",
            Ret => "ret",
            Nop => "nop",
            Hint => "hint",
            Out => "out",
            Halt => "halt",
        }
    }

    /// Nominal execute latency in cycles, excluding memory hierarchy time.
    ///
    /// Loads add the cache access latency on top of this issue-to-ready
    /// base; these values are in line with the Itanium®2-class core the
    /// paper models.
    pub const fn base_latency(self) -> u64 {
        use Opcode::*;
        match self {
            Mul => 4,
            Ld => 0, // memory latency dominates; added by the cache model
            _ => 1,
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip_all() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_code(op.code()), Some(op), "{op:?}");
        }
        assert_eq!(Opcode::from_code(23), None);
        assert_eq!(Opcode::from_code(63), None);
    }

    #[test]
    fn codes_are_dense_and_unique() {
        for (i, op) in Opcode::ALL.iter().enumerate() {
            assert_eq!(op.code() as usize, i);
        }
    }

    #[test]
    fn neutral_set_matches_paper() {
        // Paper §4.1: "No-ops, prefetches, and branch prediction hint
        // instructions ... do not affect correctness."
        let neutral: Vec<_> = Opcode::ALL.iter().filter(|o| o.is_neutral()).collect();
        assert_eq!(
            neutral,
            vec![&Opcode::Prefetch, &Opcode::Nop, &Opcode::Hint]
        );
    }

    #[test]
    fn register_write_properties() {
        assert!(Opcode::Add.writes_reg());
        assert!(Opcode::Ld.writes_reg());
        assert!(Opcode::Call.writes_reg(), "call writes the return address");
        assert!(!Opcode::St.writes_reg());
        assert!(!Opcode::CmpEq.writes_reg());
        assert!(Opcode::CmpEq.writes_pred());
        assert!(!Opcode::Add.writes_pred());
    }

    #[test]
    fn source_read_properties() {
        assert!(Opcode::St.reads_src1(), "store reads its base register");
        assert!(Opcode::St.reads_src2(), "store reads its data register");
        assert!(Opcode::Ret.reads_src1(), "ret reads the link register");
        assert!(!Opcode::MovI.reads_src1());
        assert!(!Opcode::Br.reads_src1(), "br is guarded by qp only");
        assert!(Opcode::Out.reads_src1());
        assert!(!Opcode::Out.reads_src2());
    }

    #[test]
    fn memory_and_control_properties() {
        assert!(Opcode::Ld.touches_memory());
        assert!(Opcode::Prefetch.touches_memory());
        assert!(!Opcode::Out.touches_memory());
        assert!(Opcode::Br.is_control() && Opcode::Br.is_conditional_branch());
        assert!(Opcode::Jmp.is_control() && !Opcode::Jmp.is_conditional_branch());
        assert!(Opcode::Ret.is_control());
    }

    #[test]
    fn latency_sanity() {
        assert_eq!(Opcode::Add.base_latency(), 1);
        assert_eq!(Opcode::Mul.base_latency(), 4);
        assert_eq!(Opcode::Ld.base_latency(), 0);
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in Opcode::ALL {
            assert!(seen.insert(op.mnemonic()), "duplicate mnemonic {op}");
        }
    }
}
