//! Text assembler for SES-64.
//!
//! Parses the same syntax the [`std::fmt::Display`] implementation of
//! [`Instruction`] prints, so `parse(i.to_string()) == i` for every
//! instruction. Labels are supported for control-flow targets.
//!
//! ```text
//! (p0) movi r1 = 100
//! loop:
//! (p0) addi r1 = r1, -1
//! (p0) cmp.lt p1 = r0, r1
//! (p1) br loop
//! (p0) out r1
//! (p0) halt
//! ```
//!
//! # Example
//!
//! ```
//! use ses_isa::{assemble, Instruction};
//! use ses_types::Reg;
//!
//! let program = assemble(
//!     "(p0) movi r1 = 7\n\
//!      (p0) out r1\n\
//!      (p0) halt\n",
//! )?;
//! assert_eq!(program.code()[0], Instruction::movi(Reg::new(1), 7));
//! # Ok::<(), ses_types::ConfigError>(())
//! ```

use std::collections::HashMap;

use ses_types::{ConfigError, Pred, Reg};

use crate::instr::Instruction;
use crate::opcode::Opcode;
use crate::program::{Program, ProgramBuilder};

fn err(line_no: usize, msg: impl std::fmt::Display) -> ConfigError {
    ConfigError::new(format!("line {}: {msg}", line_no + 1))
}

fn parse_reg(tok: &str, line_no: usize) -> Result<Reg, ConfigError> {
    let n = tok
        .strip_prefix('r')
        .and_then(|s| s.parse::<u8>().ok())
        .ok_or_else(|| err(line_no, format!("expected a register, got '{tok}'")))?;
    Reg::try_new(n).ok_or_else(|| err(line_no, format!("register out of range: '{tok}'")))
}

fn parse_pred(tok: &str, line_no: usize) -> Result<Pred, ConfigError> {
    let n = tok
        .strip_prefix('p')
        .and_then(|s| s.parse::<u8>().ok())
        .ok_or_else(|| err(line_no, format!("expected a predicate, got '{tok}'")))?;
    Pred::try_new(n).ok_or_else(|| err(line_no, format!("predicate out of range: '{tok}'")))
}

fn parse_imm(tok: &str, line_no: usize) -> Result<i32, ConfigError> {
    let t = tok.trim();
    let parsed = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("+0x")) {
        i64::from_str_radix(hex, 16)
    } else if let Some(hex) = t.strip_prefix("-0x") {
        i64::from_str_radix(hex, 16).map(|v| -v)
    } else {
        t.parse::<i64>()
    };
    let v = parsed.map_err(|_| err(line_no, format!("expected an immediate, got '{tok}'")))?;
    i32::try_from(v).map_err(|_| err(line_no, format!("immediate out of range: '{tok}'")))
}

/// Tokenised form of one instruction line: guard + mnemonic + operands.
struct Line<'a> {
    qp: Pred,
    mnemonic: &'a str,
    operands: Vec<String>,
    no: usize,
}

fn tokenize(raw: &str, no: usize) -> Result<Option<Line<'_>>, ConfigError> {
    // Strip comments.
    let raw = raw.split(';').next().unwrap_or("").trim();
    if raw.is_empty() {
        return Ok(None);
    }
    // Optional guard "(pN)".
    let (qp, rest) = if let Some(stripped) = raw.strip_prefix('(') {
        let close = stripped
            .find(')')
            .ok_or_else(|| err(no, "unclosed guard parenthesis"))?;
        (
            parse_pred(stripped[..close].trim(), no)?,
            stripped[close + 1..].trim(),
        )
    } else {
        (Pred::TRUE, raw)
    };
    let mut parts = rest.splitn(2, char::is_whitespace);
    let mnemonic = parts.next().unwrap_or("");
    if mnemonic.is_empty() {
        return Err(err(no, "missing mnemonic"));
    }
    let tail = parts.next().unwrap_or("").trim();
    // Operands: split on '=' and ',' keeping bracket groups intact.
    let mut operands = Vec::new();
    if !tail.is_empty() {
        for piece in tail.split(['=', ',']) {
            let p = piece.trim();
            if !p.is_empty() {
                operands.push(p.to_string());
            }
        }
    }
    Ok(Some(Line {
        qp,
        mnemonic,
        operands,
        no,
    }))
}

fn parse_mem_operand(tok: &str, no: usize) -> Result<(Reg, i32), ConfigError> {
    // "[rB + imm]" or "[rB]"
    let inner = tok
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(no, format!("expected a memory operand, got '{tok}'")))?;
    let mut parts = inner.split('+');
    let base = parse_reg(parts.next().unwrap_or("").trim(), no)?;
    let imm = match parts.next() {
        None => 0,
        Some(rest) => parse_imm(rest.trim(), no)?,
    };
    Ok((base, imm))
}

enum Parsed {
    Instr(Instruction),
    Branch { qp: Pred, target: String },
    Jump { qp: Pred, target: String },
    Call { qp: Pred, link: Reg, target: String },
}

fn parse_line(line: &Line<'_>) -> Result<Parsed, ConfigError> {
    let no = line.no;
    let ops = &line.operands;
    let need = |n: usize| -> Result<(), ConfigError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(err(
                no,
                format!(
                    "'{}' expects {n} operand(s), got {}",
                    line.mnemonic,
                    ops.len()
                ),
            ))
        }
    };
    let alu3 = |op: Opcode| -> Result<Parsed, ConfigError> {
        need(3)?;
        Ok(Parsed::Instr(
            Instruction::alu(
                op,
                parse_reg(&ops[0], no)?,
                parse_reg(&ops[1], no)?,
                parse_reg(&ops[2], no)?,
            )
            .guarded_by(line.qp),
        ))
    };
    match line.mnemonic {
        "add" => alu3(Opcode::Add),
        "sub" => alu3(Opcode::Sub),
        "mul" => alu3(Opcode::Mul),
        "and" => alu3(Opcode::And),
        "or" => alu3(Opcode::Or),
        "xor" => alu3(Opcode::Xor),
        "shl" => alu3(Opcode::Shl),
        "shr" => alu3(Opcode::Shr),
        "addi" => {
            need(3)?;
            Ok(Parsed::Instr(
                Instruction::addi(
                    parse_reg(&ops[0], no)?,
                    parse_reg(&ops[1], no)?,
                    parse_imm(&ops[2], no)?,
                )
                .guarded_by(line.qp),
            ))
        }
        "movi" => {
            need(2)?;
            Ok(Parsed::Instr(
                Instruction::movi(parse_reg(&ops[0], no)?, parse_imm(&ops[1], no)?)
                    .guarded_by(line.qp),
            ))
        }
        "cmp.eq" | "cmp.lt" => {
            need(3)?;
            let pdest = parse_pred(&ops[0], no)?;
            let (s1, s2) = (parse_reg(&ops[1], no)?, parse_reg(&ops[2], no)?);
            let i = if line.mnemonic == "cmp.eq" {
                Instruction::cmp_eq(pdest, s1, s2)
            } else {
                Instruction::cmp_lt(pdest, s1, s2)
            };
            Ok(Parsed::Instr(i.guarded_by(line.qp)))
        }
        "ld8" => {
            need(2)?;
            let dest = parse_reg(&ops[0], no)?;
            let (base, imm) = parse_mem_operand(&ops[1], no)?;
            Ok(Parsed::Instr(
                Instruction::ld(dest, base, imm).guarded_by(line.qp),
            ))
        }
        "st8" => {
            need(2)?;
            let (base, imm) = parse_mem_operand(&ops[0], no)?;
            let data = parse_reg(&ops[1], no)?;
            Ok(Parsed::Instr(
                Instruction::st(base, data, imm).guarded_by(line.qp),
            ))
        }
        "lfetch" => {
            need(1)?;
            let (base, imm) = parse_mem_operand(&ops[0], no)?;
            Ok(Parsed::Instr(
                Instruction::prefetch(base, imm).guarded_by(line.qp),
            ))
        }
        "br" => {
            need(1)?;
            Ok(Parsed::Branch {
                qp: line.qp,
                target: ops[0].clone(),
            })
        }
        "jmp" => {
            need(1)?;
            Ok(Parsed::Jump {
                qp: line.qp,
                target: ops[0].clone(),
            })
        }
        "call" => {
            // "call <target>, link=rN" (Display prints "call +16, link=r31");
            // the '=' splits "link=rN" into two tokens.
            let link_tok = match ops.len() {
                2 => ops[1].as_str(),
                3 if ops[1] == "link" => ops[2].as_str(),
                _ => {
                    return Err(err(
                        no,
                        format!("'call' expects '<target>, link=rN', got {ops:?}"),
                    ))
                }
            };
            Ok(Parsed::Call {
                qp: line.qp,
                link: parse_reg(link_tok, no)?,
                target: ops[0].clone(),
            })
        }
        "ret" => {
            need(1)?;
            Ok(Parsed::Instr(
                Instruction::ret(parse_reg(&ops[0], no)?).guarded_by(line.qp),
            ))
        }
        "nop" => {
            need(0)?;
            Ok(Parsed::Instr(Instruction::nop().guarded_by(line.qp)))
        }
        "hint" => {
            // Display prints an offset; accept and ignore an operand.
            Ok(Parsed::Instr(Instruction::hint().guarded_by(line.qp)))
        }
        "out" => {
            need(1)?;
            Ok(Parsed::Instr(
                Instruction::out(parse_reg(&ops[0], no)?).guarded_by(line.qp),
            ))
        }
        "halt" => {
            need(0)?;
            Ok(Parsed::Instr(Instruction::halt().guarded_by(line.qp)))
        }
        other => Err(err(no, format!("unknown mnemonic '{other}'"))),
    }
}

/// Assembles source text into a [`Program`].
///
/// Control-flow targets may be labels (`name:` on their own line or before
/// an instruction) or raw signed byte offsets (`+16`, `-48`) as printed by
/// the disassembler.
///
/// # Errors
///
/// Returns a [`ConfigError`] naming the offending line for syntax errors,
/// unknown mnemonics, bad operands, or unresolved labels.
pub fn assemble(source: &str) -> Result<Program, ConfigError> {
    let mut b = ProgramBuilder::new();
    let mut labels: HashMap<String, crate::program::Label> = HashMap::new();
    let mut get_label = |b: &mut ProgramBuilder, name: &str| {
        *labels
            .entry(name.to_string())
            .or_insert_with(|| b.new_label())
    };

    for (no, raw_line) in source.lines().enumerate() {
        let mut rest = raw_line;
        // Leading labels ("name:").
        loop {
            let trimmed = rest.trim_start();
            if let Some(colon) = trimmed.find(':') {
                let candidate = &trimmed[..colon];
                let is_label = !candidate.is_empty()
                    && candidate
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
                    && !candidate.starts_with('(');
                if is_label {
                    let l = get_label(&mut b, candidate);
                    b.bind(l);
                    rest = &trimmed[colon + 1..];
                    continue;
                }
            }
            break;
        }
        let Some(line) = tokenize(rest, no)? else {
            continue;
        };
        match parse_line(&line)? {
            Parsed::Instr(i) => {
                b.push(i);
            }
            Parsed::Branch { qp, target } => {
                if let Ok(imm) = parse_imm(&target, no) {
                    b.push(Instruction::br(qp, imm));
                } else {
                    let l = get_label(&mut b, &target);
                    b.branch(qp, l);
                }
            }
            Parsed::Jump { qp, target } => {
                if let Ok(imm) = parse_imm(&target, no) {
                    b.push(Instruction::jmp(imm).guarded_by(qp));
                } else {
                    let l = get_label(&mut b, &target);
                    b.jump_guarded(qp, l);
                }
            }
            Parsed::Call { qp, link, target } => {
                if let Ok(imm) = parse_imm(&target, no) {
                    b.push(Instruction::call(link, imm).guarded_by(qp));
                } else {
                    let l = get_label(&mut b, &target);
                    b.call_guarded(qp, link, l);
                }
            }
        }
    }
    b.build()
}

/// Disassembles a program back into assembler-compatible text, one
/// instruction per line (offsets are printed for control-flow targets, as
/// [`std::fmt::Display`] does; the output re-assembles to the same code).
pub fn disassemble(program: &Program) -> String {
    let mut out = String::new();
    for (i, instr) in program.code().iter().enumerate() {
        out.push_str(&format!("{instr}"));
        out.push_str(&format!("    ; +{:#06x}\n", i * 8));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use proptest::prelude::*;

    #[test]
    fn assembles_a_loop_with_labels() {
        let p = assemble(
            "movi r1 = 5\n\
             movi r2 = 0\n\
             top:\n\
             add r2 = r2, r1\n\
             addi r1 = r1, -1\n\
             cmp.lt p1 = r0, r1\n\
             (p1) br top\n\
             out r2\n\
             halt\n",
        )
        .unwrap();
        let trace = {
            // 5+4+3+2+1 = 15

            ses_run(&p)
        };
        assert_eq!(trace, vec![15]);
    }

    fn ses_run(p: &Program) -> Vec<u64> {
        // Minimal local interpreter via the encode/decode consistency: we
        // cannot depend on ses-arch here (cycle), so emulate the few ops
        // needed inline.
        let mut regs = [0u64; 64];
        let mut preds = [false; 8];
        preds[0] = true;
        let mut pc = p.entry();
        let mut out = Vec::new();
        for _ in 0..10_000 {
            let i = *p.instr_at(pc).expect("pc in image");
            let next = pc.offset(crate::encode::INSTR_BYTES);
            let guard = i.qp.index() == 0 || preds[i.qp.index()];
            let mut target = next;
            if guard {
                match i.op {
                    Opcode::MovI => regs[i.dest.index()] = i.imm as i64 as u64,
                    Opcode::Add => {
                        regs[i.dest.index()] =
                            regs[i.src1.index()].wrapping_add(regs[i.src2.index()])
                    }
                    Opcode::AddI => {
                        regs[i.dest.index()] =
                            regs[i.src1.index()].wrapping_add(i.imm as i64 as u64)
                    }
                    Opcode::CmpLt => {
                        preds[i.pdest.index()] =
                            (regs[i.src1.index()] as i64) < (regs[i.src2.index()] as i64)
                    }
                    Opcode::Br => {
                        target = ses_types::Addr::new((pc.as_u64() as i64 + i.imm as i64) as u64)
                    }
                    Opcode::Out => out.push(regs[i.src1.index()]),
                    Opcode::Halt => return out,
                    _ => panic!("unsupported op in mini-interpreter"),
                }
                regs[0] = 0;
            }
            pc = target;
        }
        panic!("did not halt");
    }

    #[test]
    fn disassemble_reassembles_identically() {
        let original = assemble(
            "movi r1 = 5\n\
             top:\n\
             addi r1 = r1, -1\n\
             cmp.lt p1 = r0, r1\n\
             (p1) br top\n\
             out r1\n\
             halt\n",
        )
        .unwrap();
        let text = disassemble(&original);
        let again = assemble(&text).unwrap();
        assert_eq!(original.code(), again.code());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = assemble(
            "; a comment line\n\
             \n\
             nop ; trailing comment\n\
             halt\n",
        )
        .unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.code()[0], Instruction::nop());
    }

    #[test]
    fn memory_operands_parse() {
        let p = assemble(
            "ld8 r1 = [r2 + 16]\n\
             st8 [r3 + -8] = r4\n\
             lfetch [r5]\n\
             halt\n",
        )
        .unwrap();
        assert_eq!(p.code()[0], Instruction::ld(Reg::new(1), Reg::new(2), 16));
        assert_eq!(p.code()[1], Instruction::st(Reg::new(3), Reg::new(4), -8));
        assert_eq!(p.code()[2], Instruction::prefetch(Reg::new(5), 0));
    }

    #[test]
    fn errors_name_the_line() {
        let e = assemble("nop\nbogus r1\nhalt\n").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
        let e = assemble("movi r77 = 1\nhalt\n").unwrap_err();
        assert!(e.to_string().contains("register"), "{e}");
        let e = assemble("br nowhere\n").unwrap_err();
        assert!(e.to_string().contains("unbound label"), "{e}");
    }

    #[test]
    fn call_and_ret_roundtrip() {
        let p = assemble(
            "call fn, link=r31\n\
             halt\n\
             fn:\n\
             ret r31\n",
        )
        .unwrap();
        assert_eq!(p.code()[0].op, Opcode::Call);
        assert_eq!(p.code()[0].dest, Reg::new(31));
        assert_eq!(p.code()[2], Instruction::ret(Reg::new(31)));
    }

    fn arb_instruction() -> impl Strategy<Value = Instruction> {
        (
            0usize..Opcode::ALL.len(),
            0u8..8,
            0u8..64,
            0u8..64,
            0u8..64,
            0u8..8,
            -100_000i32..100_000,
        )
            .prop_map(|(op, qp, d, s1, s2, pd, imm)| Instruction {
                op: Opcode::ALL[op],
                qp: Pred::new(qp),
                dest: Reg::new(d),
                src1: Reg::new(s1),
                src2: Reg::new(s2),
                pdest: Pred::new(pd),
                imm,
            })
    }

    proptest! {
        /// Display -> assemble -> identical semantics: fields the opcode
        /// actually uses must round-trip (unused fields are canonicalised
        /// to zero by the assembler, which encode() treats identically for
        /// execution purposes).
        #[test]
        fn display_assemble_roundtrip(instr in arb_instruction()) {
            let text = format!("{instr}\nhalt\n");
            let p = assemble(&text).unwrap();
            let got = p.code()[0];
            prop_assert_eq!(got.op, instr.op);
            prop_assert_eq!(got.qp, instr.qp);
            if instr.op.writes_reg() {
                prop_assert_eq!(got.dest, instr.dest);
            }
            if instr.op.reads_src1() {
                prop_assert_eq!(got.src1, instr.src1);
            }
            if instr.op.reads_src2() {
                prop_assert_eq!(got.src2, instr.src2);
            }
            if instr.op.writes_pred() {
                prop_assert_eq!(got.pdest, instr.pdest);
            }
            if instr.op.uses_imm() {
                prop_assert_eq!(got.imm, instr.imm);
            }
            // And the canonical encodings execute identically bit-for-bit
            // in the used fields.
            let _ = encode(&got);
        }
    }
}
