//! Lossless binary codec for [`TranslatedBlock`] and its host
//! instructions — the payload of the BLKS and TRCE sections.
//!
//! Every enum is encoded through its stable `index()` (host opcodes,
//! condition codes and registers all define one in encoding order), so
//! the byte layout is pinned by the ISA definition, not by Rust's enum
//! discriminants. Decoding validates as it goes: out-of-range indices,
//! malformed operand shapes and absurd lengths all surface as a
//! [`CodecError`], which the artifact loader turns into a quarantined
//! section — never a panic.

use crate::bytes::{err, CodecError, Reader, Writer};
use pdbt_isa_x86::{Cc, Inst, Mem, Op, Operand, Operands, Reg, Shape, Xmm};
use pdbt_runtime::{
    BlockSuccs, CodeClass, DelegOutcome, MemberMark, RuleAttribution, TranslatedBlock,
};

/// `Option<Reg>` as one byte: `0xFF` = none, else the register index.
fn write_opt_reg(w: &mut Writer, r: Option<Reg>) {
    w.u8(r.map_or(0xFF, |r| r.index() as u8));
}

fn read_opt_reg(r: &mut Reader) -> Result<Option<Reg>, CodecError> {
    match r.u8()? {
        0xFF => Ok(None),
        i => match Reg::from_index(i as usize) {
            Some(reg) => Ok(Some(reg)),
            None => err(format!("bad register index {i}")),
        },
    }
}

fn write_operand(w: &mut Writer, o: &Operand) {
    match o {
        Operand::Reg(r) => {
            w.u8(0);
            w.u8(r.index() as u8);
        }
        Operand::Imm(v) => {
            w.u8(1);
            w.i32(*v);
        }
        Operand::Mem(m) => {
            w.u8(2);
            write_opt_reg(w, m.base);
            write_opt_reg(w, m.index);
            w.i32(m.disp);
        }
        Operand::Xmm(x) => {
            w.u8(3);
            w.u8(x.index() as u8);
        }
        Operand::Target(d) => {
            w.u8(4);
            w.i32(*d);
        }
    }
}

fn read_operand(r: &mut Reader) -> Result<Operand, CodecError> {
    match r.u8()? {
        0 => {
            let i = r.u8()? as usize;
            match Reg::from_index(i) {
                Some(reg) => Ok(Operand::Reg(reg)),
                None => err(format!("bad register index {i}")),
            }
        }
        1 => Ok(Operand::Imm(r.i32()?)),
        2 => {
            let base = read_opt_reg(r)?;
            let index = read_opt_reg(r)?;
            let disp = r.i32()?;
            Ok(Operand::Mem(Mem { base, index, disp }))
        }
        3 => {
            let i = r.u8()?;
            if i >= 8 {
                return err(format!("bad xmm index {i}"));
            }
            Ok(Operand::Xmm(Xmm::new(i)))
        }
        4 => Ok(Operand::Target(r.i32()?)),
        t => err(format!("bad operand tag {t}")),
    }
}

fn write_inst(w: &mut Writer, inst: &Inst) {
    w.u8(inst.op.index());
    w.u8(inst.cc.map_or(0xFF, Cc::index));
    w.u8(inst.operands.len() as u8);
    for o in &inst.operands {
        write_operand(w, o);
    }
}

fn read_inst(r: &mut Reader) -> Result<Inst, CodecError> {
    let op = match Op::from_index(r.u8()?) {
        Some(op) => op,
        None => return err("bad opcode index"),
    };
    let cc = match r.u8()? {
        0xFF => None,
        i => match Cc::from_index(i) {
            Some(cc) => Some(cc),
            None => return err(format!("bad condition-code index {i}")),
        },
    };
    let n = r.u8()? as usize;
    let mut operands = Operands::new();
    for _ in 0..n {
        if operands.try_push(read_operand(r)?).is_err() {
            return err(format!("{n} operands on one host instruction"));
        }
    }
    // A conditional op without its condition code cannot even be
    // displayed, so reject it before `validate` formats an error.
    if matches!(op.shape(), Shape::CondBranch | Shape::SetCc) && cc.is_none() {
        return err(format!("{op:?} requires a condition code"));
    }
    let inst = Inst { op, cc, operands };
    // Shape validation keeps a corrupted-but-decodable section from
    // smuggling a malformed instruction into the executor.
    match inst.validate() {
        Ok(()) => Ok(inst),
        Err(e) => err(format!("malformed host instruction: {e}")),
    }
}

fn class_index(c: CodeClass) -> u8 {
    c.index() as u8
}

fn class_from_index(i: u8) -> Result<CodeClass, CodecError> {
    match i {
        0 => Ok(CodeClass::RuleCore),
        1 => Ok(CodeClass::QemuCore),
        2 => Ok(CodeClass::DataTransfer),
        3 => Ok(CodeClass::Control),
        _ => err(format!("bad code-class index {i}")),
    }
}

fn write_deleg(w: &mut Writer, d: Option<DelegOutcome>) {
    match d {
        None => w.u8(0),
        Some(DelegOutcome::Delegated(depth)) => {
            w.u8(1);
            w.u32(depth);
        }
        Some(DelegOutcome::EnvFallback) => w.u8(2),
    }
}

fn read_deleg(r: &mut Reader) -> Result<Option<DelegOutcome>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(DelegOutcome::Delegated(r.u32()?))),
        2 => Ok(Some(DelegOutcome::EnvFallback)),
        t => err(format!("bad delegation tag {t}")),
    }
}

fn write_succ(w: &mut Writer, s: &BlockSuccs) {
    match s {
        BlockSuccs::None => w.u8(0),
        BlockSuccs::One(t) => {
            w.u8(1);
            w.u32(*t);
        }
        BlockSuccs::Two { taken, fall } => {
            w.u8(2);
            w.u32(*taken);
            w.u32(*fall);
        }
    }
}

fn read_succ(r: &mut Reader) -> Result<BlockSuccs, CodecError> {
    match r.u8()? {
        0 => Ok(BlockSuccs::None),
        1 => Ok(BlockSuccs::One(r.u32()?)),
        2 => Ok(BlockSuccs::Two {
            taken: r.u32()?,
            fall: r.u32()?,
        }),
        t => err(format!("bad successor tag {t}")),
    }
}

/// Serializes one translated block (plain or superblock).
pub fn write_block(w: &mut Writer, b: &TranslatedBlock) {
    w.u32(b.start);
    w.u32(b.guest_len);
    w.u32(b.rule_covered);
    write_deleg(w, b.deleg);
    write_succ(w, &b.succ);
    w.u32(b.code.len() as u32);
    for inst in &b.code {
        write_inst(w, inst);
    }
    w.u32(b.classes.len() as u32);
    for c in &b.classes {
        w.u8(class_index(*c));
    }
    w.u32(b.attributions.len() as u32);
    for a in &b.attributions {
        w.str(&a.label);
        w.str(&a.subgroup);
        w.u32(a.covered);
    }
    w.u32(b.lookup_misses.len() as u32);
    for m in &b.lookup_misses {
        w.str(m);
    }
    w.u32(b.member_marks.len() as u32);
    for m in &b.member_marks {
        w.u32(m.start);
        w.u32(m.anchor as u32);
        w.u32(m.guest_len);
        w.u32(m.rule_covered);
        w.u32(m.attr_range.0 as u32);
        w.u32(m.attr_range.1 as u32);
        write_deleg(w, m.deleg);
    }
}

/// Deserializes one translated block.
pub fn read_block(r: &mut Reader) -> Result<TranslatedBlock, CodecError> {
    let start = r.u32()?;
    let guest_len = r.u32()?;
    let rule_covered = r.u32()?;
    let deleg = read_deleg(r)?;
    let succ = read_succ(r)?;
    let n_code = r.count(3)?;
    let mut code = Vec::with_capacity(n_code);
    for _ in 0..n_code {
        code.push(read_inst(r)?);
    }
    let n_classes = r.count(1)?;
    if n_classes != n_code {
        return err(format!(
            "class count {n_classes} does not match code length {n_code}"
        ));
    }
    let mut classes = Vec::with_capacity(n_classes);
    for _ in 0..n_classes {
        classes.push(class_from_index(r.u8()?)?);
    }
    let n_attr = r.count(12)?;
    let mut attributions = Vec::with_capacity(n_attr);
    for _ in 0..n_attr {
        attributions.push(RuleAttribution {
            label: r.str()?.into(),
            subgroup: r.str()?.into(),
            covered: r.u32()?,
        });
    }
    let n_miss = r.count(4)?;
    let mut lookup_misses = Vec::with_capacity(n_miss);
    for _ in 0..n_miss {
        lookup_misses.push(r.str()?);
    }
    let n_marks = r.count(25)?;
    let mut member_marks = Vec::with_capacity(n_marks);
    for _ in 0..n_marks {
        member_marks.push(MemberMark {
            start: r.u32()?,
            anchor: r.u32()? as usize,
            guest_len: r.u32()?,
            rule_covered: r.u32()?,
            attr_range: (r.u32()? as usize, r.u32()? as usize),
            deleg: read_deleg(r)?,
        });
    }
    Ok(TranslatedBlock {
        start,
        code,
        classes,
        guest_len,
        rule_covered,
        attributions,
        lookup_misses,
        deleg,
        succ,
        member_marks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdbt_isa_arm::{builders as g, Operand as GOperand, Program, Reg as GReg};
    use pdbt_runtime::{translate_block, TranslateConfig};

    fn sample_blocks() -> Vec<TranslatedBlock> {
        // Real translator output, not hand-built shapes: a block per
        // branch target of a small loop program.
        let prog = Program::new(
            0x1000,
            vec![
                g::mov(GReg::R0, GOperand::Imm(5)),
                g::mov(GReg::R1, GOperand::Imm(0)),
                g::add(GReg::R1, GReg::R1, GOperand::Reg(GReg::R0)),
                g::sub(GReg::R0, GReg::R0, GOperand::Imm(1)).with_s(),
                g::b(pdbt_isa::Cond::Ne, -8),
                g::mov(GReg::R0, GOperand::Reg(GReg::R1)),
                g::svc(1),
                g::svc(0),
            ],
        );
        [0x1000u32, 0x1008, 0x1014]
            .iter()
            .map(|&pc| translate_block(&prog, pc, None, &TranslateConfig::default()).unwrap())
            .collect()
    }

    #[test]
    fn translated_blocks_roundtrip_byte_exactly() {
        for block in sample_blocks() {
            let mut w = Writer::new();
            write_block(&mut w, &block);
            let mut r = Reader::new(&w.buf);
            let back = read_block(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, block);
            // Re-encoding the decoded block is the byte-level fixpoint
            // the artifact format builds on.
            let mut w2 = Writer::new();
            write_block(&mut w2, &back);
            assert_eq!(w2.buf, w.buf);
        }
    }

    #[test]
    fn corrupt_block_bytes_error_instead_of_panicking() {
        let block = sample_blocks().remove(0);
        let mut w = Writer::new();
        write_block(&mut w, &block);
        for i in 0..w.buf.len() {
            for bit in [0x01u8, 0x80] {
                let mut bytes = w.buf.clone();
                bytes[i] ^= bit;
                let mut r = Reader::new(&bytes);
                // Any outcome but a panic is acceptable; a silent
                // mutation may decode, but must stay a valid block.
                if let Ok(b) = read_block(&mut r) {
                    for inst in &b.code {
                        inst.validate().unwrap();
                    }
                }
            }
        }
    }
}
