//! The architectural instruction type and its constructors.

use std::fmt;

use serde::{Deserialize, Serialize};
use ses_types::{Pred, Reg};

use crate::opcode::Opcode;

/// A decoded SES-64 instruction.
///
/// Every instruction carries a qualifying predicate `qp` (IA-64 style); an
/// instruction whose guard evaluates false at run time is *falsely
/// predicated* — it occupies pipeline resources but commits nothing, making
/// it one of the paper's sources of false DUE events (§4.1).
///
/// Fields that an opcode does not use are kept at their default encoding of
/// zero; [`crate::encode`] produces a canonical word for every instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Instruction {
    /// Operation.
    pub op: Opcode,
    /// Qualifying (guard) predicate.
    pub qp: Pred,
    /// Destination register (when [`Opcode::writes_reg`]).
    pub dest: Reg,
    /// First source register.
    pub src1: Reg,
    /// Second source register.
    pub src2: Reg,
    /// Destination predicate (when [`Opcode::writes_pred`]).
    pub pdest: Pred,
    /// Signed 32-bit immediate (displacement, constant, or branch offset).
    pub imm: i32,
}

impl Default for Instruction {
    fn default() -> Self {
        Instruction::nop()
    }
}

impl Instruction {
    /// A fully specified instruction; prefer the named constructors below.
    pub fn raw(
        op: Opcode,
        qp: Pred,
        dest: Reg,
        src1: Reg,
        src2: Reg,
        pdest: Pred,
        imm: i32,
    ) -> Self {
        Instruction {
            op,
            qp,
            dest,
            src1,
            src2,
            pdest,
            imm,
        }
    }

    fn basic(op: Opcode) -> Self {
        Instruction {
            op,
            qp: Pred::TRUE,
            dest: Reg::ZERO,
            src1: Reg::ZERO,
            src2: Reg::ZERO,
            pdest: Pred::TRUE,
            imm: 0,
        }
    }

    /// `dest = src1 + src2`.
    pub fn add(dest: Reg, src1: Reg, src2: Reg) -> Self {
        Instruction {
            dest,
            src1,
            src2,
            ..Self::basic(Opcode::Add)
        }
    }

    /// `dest = src1 - src2`.
    pub fn sub(dest: Reg, src1: Reg, src2: Reg) -> Self {
        Instruction {
            dest,
            src1,
            src2,
            ..Self::basic(Opcode::Sub)
        }
    }

    /// `dest = src1 * src2` (wrapping).
    pub fn mul(dest: Reg, src1: Reg, src2: Reg) -> Self {
        Instruction {
            dest,
            src1,
            src2,
            ..Self::basic(Opcode::Mul)
        }
    }

    /// A three-register ALU operation of the given opcode.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a register-writing ALU opcode.
    pub fn alu(op: Opcode, dest: Reg, src1: Reg, src2: Reg) -> Self {
        assert!(
            matches!(op.class(), crate::OpcodeClass::Alu) && op.writes_reg(),
            "{op} is not a 3-register ALU opcode"
        );
        Instruction {
            dest,
            src1,
            src2,
            ..Self::basic(op)
        }
    }

    /// `dest = src1 + imm`.
    pub fn addi(dest: Reg, src1: Reg, imm: i32) -> Self {
        Instruction {
            dest,
            src1,
            imm,
            ..Self::basic(Opcode::AddI)
        }
    }

    /// `dest = imm`.
    pub fn movi(dest: Reg, imm: i32) -> Self {
        Instruction {
            dest,
            imm,
            ..Self::basic(Opcode::MovI)
        }
    }

    /// `pdest = (src1 == src2)`.
    pub fn cmp_eq(pdest: Pred, src1: Reg, src2: Reg) -> Self {
        Instruction {
            pdest,
            src1,
            src2,
            ..Self::basic(Opcode::CmpEq)
        }
    }

    /// `pdest = (src1 < src2)` (signed).
    pub fn cmp_lt(pdest: Pred, src1: Reg, src2: Reg) -> Self {
        Instruction {
            pdest,
            src1,
            src2,
            ..Self::basic(Opcode::CmpLt)
        }
    }

    /// `dest = mem[src1 + imm]`.
    pub fn ld(dest: Reg, base: Reg, imm: i32) -> Self {
        Instruction {
            dest,
            src1: base,
            imm,
            ..Self::basic(Opcode::Ld)
        }
    }

    /// `mem[base + imm] = data`.
    pub fn st(base: Reg, data: Reg, imm: i32) -> Self {
        Instruction {
            src1: base,
            src2: data,
            imm,
            ..Self::basic(Opcode::St)
        }
    }

    /// Software prefetch of `mem[base + imm]`.
    pub fn prefetch(base: Reg, imm: i32) -> Self {
        Instruction {
            src1: base,
            imm,
            ..Self::basic(Opcode::Prefetch)
        }
    }

    /// Conditional branch to `pc + offset` guarded by `qp`.
    pub fn br(qp: Pred, offset: i32) -> Self {
        Instruction {
            qp,
            imm: offset,
            ..Self::basic(Opcode::Br)
        }
    }

    /// Unconditional jump to `pc + offset`.
    pub fn jmp(offset: i32) -> Self {
        Instruction {
            imm: offset,
            ..Self::basic(Opcode::Jmp)
        }
    }

    /// Call `pc + offset`, writing the return address to `link`.
    pub fn call(link: Reg, offset: i32) -> Self {
        Instruction {
            dest: link,
            imm: offset,
            ..Self::basic(Opcode::Call)
        }
    }

    /// Return to the address in `link`.
    pub fn ret(link: Reg) -> Self {
        Instruction {
            src1: link,
            ..Self::basic(Opcode::Ret)
        }
    }

    /// No operation.
    pub fn nop() -> Self {
        Self::basic(Opcode::Nop)
    }

    /// Branch-prediction hint (architectural no-op).
    pub fn hint() -> Self {
        Self::basic(Opcode::Hint)
    }

    /// Write `src`'s value to the output stream.
    pub fn out(src: Reg) -> Self {
        Instruction {
            src1: src,
            ..Self::basic(Opcode::Out)
        }
    }

    /// Stop the program.
    pub fn halt() -> Self {
        Self::basic(Opcode::Halt)
    }

    /// Replaces the qualifying predicate, builder-style.
    pub fn guarded_by(mut self, qp: Pred) -> Self {
        self.qp = qp;
        self
    }

    /// The registers this instruction reads, in (src1, src2) order.
    pub fn reads(&self) -> impl Iterator<Item = Reg> + '_ {
        let a = self.op.reads_src1().then_some(self.src1);
        let b = self.op.reads_src2().then_some(self.src2);
        a.into_iter().chain(b)
    }

    /// The general-purpose register this instruction writes, if any.
    pub fn reg_write(&self) -> Option<Reg> {
        self.op.writes_reg().then_some(self.dest)
    }

    /// The predicate register this instruction writes, if any.
    pub fn pred_write(&self) -> Option<Pred> {
        self.op.writes_pred().then_some(self.pdest)
    }

    /// Whether the instruction is one of the paper's neutral types.
    pub fn is_neutral(&self) -> bool {
        self.op.is_neutral()
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Opcode::*;
        write!(f, "({}) ", self.qp)?;
        match self.op {
            Add | Sub | Mul | And | Or | Xor | Shl | Shr => {
                write!(
                    f,
                    "{} {} = {}, {}",
                    self.op, self.dest, self.src1, self.src2
                )
            }
            AddI => write!(f, "addi {} = {}, {}", self.dest, self.src1, self.imm),
            MovI => write!(f, "movi {} = {}", self.dest, self.imm),
            CmpEq | CmpLt => {
                write!(
                    f,
                    "{} {} = {}, {}",
                    self.op, self.pdest, self.src1, self.src2
                )
            }
            Ld => write!(f, "ld8 {} = [{} + {}]", self.dest, self.src1, self.imm),
            St => write!(f, "st8 [{} + {}] = {}", self.src1, self.imm, self.src2),
            Prefetch => write!(f, "lfetch [{} + {}]", self.src1, self.imm),
            Br => write!(f, "br {:+}", self.imm),
            Jmp => write!(f, "jmp {:+}", self.imm),
            Call => write!(f, "call {:+}, link={}", self.imm, self.dest),
            Ret => write!(f, "ret {}", self.src1),
            Nop => write!(f, "nop"),
            Hint => write!(f, "hint {:+}", self.imm),
            Out => write!(f, "out {}", self.src1),
            Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_expected_fields() {
        let r = |n| Reg::new(n);
        let i = Instruction::add(r(3), r(1), r(2));
        assert_eq!(i.reg_write(), Some(r(3)));
        assert_eq!(i.reads().collect::<Vec<_>>(), vec![r(1), r(2)]);
        assert_eq!(i.pred_write(), None);

        let c = Instruction::cmp_lt(Pred::new(2), r(4), r(5));
        assert_eq!(c.pred_write(), Some(Pred::new(2)));
        assert_eq!(c.reg_write(), None);

        let l = Instruction::ld(r(6), r(7), 16);
        assert_eq!(l.reg_write(), Some(r(6)));
        assert_eq!(l.reads().collect::<Vec<_>>(), vec![r(7)]);

        let s = Instruction::st(r(8), r(9), -8);
        assert_eq!(s.reg_write(), None);
        assert_eq!(s.reads().collect::<Vec<_>>(), vec![r(8), r(9)]);

        let ret = Instruction::ret(r(10));
        assert_eq!(ret.reads().collect::<Vec<_>>(), vec![r(10)]);

        let call = Instruction::call(r(11), 64);
        assert_eq!(call.reg_write(), Some(r(11)));
        assert_eq!(call.reads().count(), 0);
    }

    #[test]
    fn guarded_by_changes_qp_only() {
        let i = Instruction::nop().guarded_by(Pred::new(3));
        assert_eq!(i.qp, Pred::new(3));
        assert_eq!(i.op, Opcode::Nop);
        assert!(i.is_neutral());
    }

    #[test]
    fn neutral_flag() {
        assert!(Instruction::nop().is_neutral());
        assert!(Instruction::hint().is_neutral());
        assert!(Instruction::prefetch(Reg::new(1), 0).is_neutral());
        assert!(!Instruction::add(Reg::new(1), Reg::new(2), Reg::new(3)).is_neutral());
    }

    #[test]
    fn display_is_readable() {
        let r = |n| Reg::new(n);
        assert_eq!(
            Instruction::add(r(3), r(1), r(2)).to_string(),
            "(p0) add r3 = r1, r2"
        );
        assert_eq!(
            Instruction::br(Pred::new(1), -16).to_string(),
            "(p1) br -16"
        );
        assert_eq!(
            Instruction::st(r(1), r(2), 8).to_string(),
            "(p0) st8 [r1 + 8] = r2"
        );
        assert_eq!(Instruction::halt().to_string(), "(p0) halt");
        assert_eq!(Instruction::movi(r(5), -7).to_string(), "(p0) movi r5 = -7");
    }

    #[test]
    #[should_panic(expected = "not a 3-register ALU opcode")]
    fn alu_constructor_rejects_non_alu() {
        let _ = Instruction::alu(Opcode::Ld, Reg::ZERO, Reg::ZERO, Reg::ZERO);
    }

    #[test]
    fn default_is_nop() {
        assert_eq!(Instruction::default(), Instruction::nop());
    }
}
