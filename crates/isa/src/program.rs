//! Static program images: code, initial data, and a label-resolving builder.

use serde::{Deserialize, Serialize};
use ses_types::{Addr, ConfigError, Pred, Reg};

use crate::encode::INSTR_BYTES;
use crate::instr::Instruction;
use crate::opcode::Opcode;

/// A contiguous run of initialised data words.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataSegment {
    /// Base byte address of the segment.
    pub base: Addr,
    /// 64-bit words, laid out consecutively from `base`.
    pub words: Vec<u64>,
}

/// A complete, executable SES-64 program image.
///
/// Code lives at [`Program::code_base`] with one instruction per
/// [`INSTR_BYTES`] bytes. The timing model fetches *wrong-path* instructions
/// from this same image at mispredicted targets, mirroring the paper's
/// methodology ("for wrong paths, we fetch the mis-speculated instructions").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    code_base: Addr,
    code: Vec<Instruction>,
    data: Vec<DataSegment>,
}

impl Program {
    /// Default base address for code.
    pub const DEFAULT_CODE_BASE: Addr = Addr::new(0x1_0000);

    /// Creates a program from a flat instruction list at the default base.
    ///
    /// # Panics
    ///
    /// Panics if `code` is empty.
    pub fn new(code: Vec<Instruction>) -> Self {
        assert!(!code.is_empty(), "a program needs at least one instruction");
        Program {
            code_base: Self::DEFAULT_CODE_BASE,
            code,
            data: Vec::new(),
        }
    }

    /// Adds an initialised data segment, builder-style.
    pub fn with_data(mut self, segment: DataSegment) -> Self {
        self.data.push(segment);
        self
    }

    /// The address of the first instruction.
    pub fn entry(&self) -> Addr {
        self.code_base
    }

    /// Base address of the code image.
    pub fn code_base(&self) -> Addr {
        self.code_base
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program has no instructions (never true for built
    /// programs).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// The static instructions in layout order.
    pub fn code(&self) -> &[Instruction] {
        &self.code
    }

    /// Initial data segments.
    pub fn data(&self) -> &[DataSegment] {
        &self.data
    }

    /// The instruction at byte address `pc`, or `None` if `pc` falls outside
    /// the image or is misaligned. Wrong-path fetch relies on the `None`
    /// case: a bogus target simply fetches nothing.
    pub fn instr_at(&self, pc: Addr) -> Option<&Instruction> {
        let off = pc.as_u64().checked_sub(self.code_base.as_u64())?;
        if off % INSTR_BYTES != 0 {
            return None;
        }
        self.code.get((off / INSTR_BYTES) as usize)
    }

    /// Converts an instruction index into its byte address.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn addr_of(&self, index: usize) -> Addr {
        assert!(index < self.code.len(), "instruction index out of range");
        self.code_base.offset(index as u64 * INSTR_BYTES)
    }

    /// The address just past the last instruction.
    pub fn end(&self) -> Addr {
        self.code_base.offset(self.code.len() as u64 * INSTR_BYTES)
    }
}

/// An unresolved branch-target label issued by [`ProgramBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

enum Pending {
    Ready(Instruction),
    Branch { qp: Pred, label: Label },
    Jump { qp: Pred, label: Label },
    Call { qp: Pred, link: Reg, label: Label },
}

/// Incrementally builds a [`Program`] with symbolic branch targets.
///
/// # Example
///
/// ```
/// use ses_isa::{Instruction, ProgramBuilder};
/// use ses_types::{Pred, Reg};
///
/// let mut b = ProgramBuilder::new();
/// let top = b.new_label();
/// b.bind(top);
/// b.push(Instruction::addi(Reg::new(1), Reg::new(1), -1));
/// b.push(Instruction::cmp_lt(Pred::new(1), Reg::ZERO, Reg::new(1)));
/// b.branch(Pred::new(1), top);
/// b.push(Instruction::halt());
/// let program = b.build()?;
/// assert_eq!(program.len(), 4);
/// # Ok::<(), ses_types::ConfigError>(())
/// ```
pub struct ProgramBuilder {
    items: Vec<Pending>,
    labels: Vec<Option<usize>>,
    data: Vec<DataSegment>,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder {
            items: Vec::new(),
            labels: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Creates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the next instruction pushed.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound more than once");
        self.labels[label.0] = Some(self.items.len());
    }

    /// Appends a fully resolved instruction. Returns its index.
    pub fn push(&mut self, instr: Instruction) -> usize {
        self.items.push(Pending::Ready(instr));
        self.items.len() - 1
    }

    /// Appends a conditional branch to `label`, guarded by `qp`.
    pub fn branch(&mut self, qp: Pred, label: Label) -> usize {
        self.items.push(Pending::Branch { qp, label });
        self.items.len() - 1
    }

    /// Appends an unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) -> usize {
        self.jump_guarded(Pred::TRUE, label)
    }

    /// Appends a jump to `label` guarded by `qp`.
    pub fn jump_guarded(&mut self, qp: Pred, label: Label) -> usize {
        self.items.push(Pending::Jump { qp, label });
        self.items.len() - 1
    }

    /// Appends a call to `label`, linking through `link`.
    pub fn call(&mut self, link: Reg, label: Label) -> usize {
        self.call_guarded(Pred::TRUE, link, label)
    }

    /// Appends a call to `label` guarded by `qp`, linking through `link`.
    pub fn call_guarded(&mut self, qp: Pred, link: Reg, label: Label) -> usize {
        self.items.push(Pending::Call { qp, link, label });
        self.items.len() - 1
    }

    /// Adds an initialised data segment.
    pub fn data_segment(&mut self, base: Addr, words: Vec<u64>) {
        self.data.push(DataSegment { base, words });
    }

    /// Number of instructions appended so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no instructions have been appended.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Resolves all labels and produces the program.
    ///
    /// # Errors
    ///
    /// Returns an error if the program is empty, a referenced label was
    /// never bound, or a branch displacement overflows the immediate field.
    pub fn build(self) -> Result<Program, ConfigError> {
        if self.items.is_empty() {
            return Err(ConfigError::new("program has no instructions"));
        }
        let resolve = |label: Label, from: usize| -> Result<i32, ConfigError> {
            let target = self.labels[label.0]
                .ok_or_else(|| ConfigError::new("branch references an unbound label"))?;
            let delta = (target as i64 - from as i64) * INSTR_BYTES as i64;
            i32::try_from(delta)
                .map_err(|_| ConfigError::new("branch displacement overflows immediate field"))
        };
        let mut code = Vec::with_capacity(self.items.len());
        for (idx, item) in self.items.iter().enumerate() {
            let instr = match *item {
                Pending::Ready(i) => i,
                Pending::Branch { qp, label } => Instruction::br(qp, resolve(label, idx)?),
                Pending::Jump { qp, label } => {
                    Instruction::jmp(resolve(label, idx)?).guarded_by(qp)
                }
                Pending::Call { qp, link, label } => {
                    Instruction::call(link, resolve(label, idx)?).guarded_by(qp)
                }
            };
            code.push(instr);
        }
        let mut program = Program::new(code);
        program.data = self.data;
        Ok(program)
    }
}

/// Computes the target address of a control-transfer instruction fetched at
/// `pc`. Returns `None` for indirect transfers (`ret`), whose target comes
/// from a register at execute time.
pub fn static_target(instr: &Instruction, pc: Addr) -> Option<Addr> {
    match instr.op {
        Opcode::Br | Opcode::Jmp | Opcode::Call => {
            Some(Addr::new((pc.as_u64() as i64 + instr.imm as i64) as u64))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_resolves_backward_branch() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.bind(top);
        b.push(Instruction::nop()); // index 0
        b.push(Instruction::nop()); // index 1
        b.branch(Pred::new(1), top); // index 2 -> offset -16
        b.push(Instruction::halt());
        let p = b.build().unwrap();
        assert_eq!(p.code()[2].imm, -2 * INSTR_BYTES as i32);
        let pc = p.addr_of(2);
        assert_eq!(static_target(&p.code()[2], pc), Some(p.addr_of(0)));
    }

    #[test]
    fn builder_resolves_forward_jump_and_call() {
        let mut b = ProgramBuilder::new();
        let end = b.new_label();
        let func = b.new_label();
        b.call(Reg::new(31), func); // 0
        b.jump(end); // 1
        b.bind(func);
        b.push(Instruction::ret(Reg::new(31))); // 2
        b.bind(end);
        b.push(Instruction::halt()); // 3
        let p = b.build().unwrap();
        assert_eq!(p.code()[0].imm, 2 * INSTR_BYTES as i32);
        assert_eq!(p.code()[1].imm, 2 * INSTR_BYTES as i32);
        assert_eq!(p.code()[0].dest, Reg::new(31));
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.jump(l);
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("unbound label"));
    }

    #[test]
    fn empty_program_is_an_error() {
        assert!(ProgramBuilder::new().build().is_err());
    }

    #[test]
    #[should_panic(expected = "bound more than once")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn instr_at_handles_misalignment_and_range() {
        let p = Program::new(vec![Instruction::nop(), Instruction::halt()]);
        assert_eq!(p.instr_at(p.entry()), Some(&Instruction::nop()));
        assert_eq!(p.instr_at(p.entry() + 8), Some(&Instruction::halt()));
        assert_eq!(p.instr_at(p.entry() + 4), None, "misaligned");
        assert_eq!(p.instr_at(p.entry() + 16), None, "past the end");
        assert_eq!(p.instr_at(Addr::new(0)), None, "before the base");
        assert_eq!(p.end(), p.entry() + 16);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn data_segments_survive_build() {
        let mut b = ProgramBuilder::new();
        b.push(Instruction::halt());
        b.data_segment(Addr::new(0x8000), vec![1, 2, 3]);
        let p = b.build().unwrap();
        assert_eq!(p.data().len(), 1);
        assert_eq!(p.data()[0].words, vec![1, 2, 3]);
    }

    #[test]
    fn static_target_of_ret_is_none() {
        let ret = Instruction::ret(Reg::new(5));
        assert_eq!(static_target(&ret, Addr::new(0x1000)), None);
    }
}
