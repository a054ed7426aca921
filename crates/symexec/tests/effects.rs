//! What each instruction reads and writes, pinned row by row.
//!
//! Flag liveness, delegation windows, register allocation and the
//! verifier's mapping proposals all trust an instruction's register and
//! flag effects. `tests/golden/effects.txt` holds them for every opcode
//! of both ISAs over the operand shapes below — the guest with and
//! without `s` and under three conditions, the host under every
//! condition code it takes — so a change to what an instruction is said
//! to touch names the rows it moved. `UPDATE_GOLDEN=1` rewrites the file.

use pdbt_isa::Effects;
use std::fmt::{Debug, Display, Write};

fn row<R: Debug>(out: &mut String, side: &str, inst: &dyn Display, fx: Effects<R>) {
    let (uses, defs) = (&fx.uses[..], &fx.defs[..]);
    let (fu, fd) = (fx.flag_uses, fx.flag_defs);
    writeln!(
        out,
        "{side} {inst} | uses {uses:?} | defs {defs:?} | flag uses {fu} | flag defs {fd}"
    )
    .unwrap();
}

fn guest_rows(out: &mut String) {
    use pdbt_isa::Cond;
    use pdbt_isa_arm::{FReg, Inst, MemAddr, Op, Operand, Reg, RegList, Shape, ShiftKind};

    let flex = [
        Operand::Reg(Reg::R2),
        Operand::Imm(0),
        Operand::Imm(5),
        Operand::Shifted {
            rm: Reg::R2,
            kind: ShiftKind::Lsr,
            amount: 3,
        },
    ];
    let (r, f) = (Operand::Reg, |i| Operand::FReg(FReg::new(i)));
    let mem = Operand::Mem(MemAddr::BaseImm {
        base: Reg::R1,
        offset: 8,
    });
    let shapes = |op: Op| -> Vec<Vec<Operand>> {
        match op.shape() {
            Shape::Dp3 => flex
                .iter()
                .map(|o| vec![r(Reg::R0), r(Reg::R3), *o])
                .collect(),
            Shape::Dp2 | Shape::Cmp2 => flex.iter().map(|o| vec![r(Reg::R0), *o]).collect(),
            Shape::Unary2 => vec![vec![r(Reg::R0), r(Reg::R2)]],
            Shape::Mul3 => vec![vec![r(Reg::R0), r(Reg::R2), r(Reg::R3)]],
            Shape::Mul4 => vec![vec![r(Reg::R0), r(Reg::R4), r(Reg::R2), r(Reg::R3)]],
            Shape::LdSt => vec![vec![r(Reg::R0), mem]],
            Shape::Stack => vec![vec![Operand::RegList(RegList::from_regs([
                Reg::R4,
                Reg::R5,
            ]))]],
            Shape::Branch => vec![vec![Operand::Target(16)]],
            Shape::BranchReg => vec![vec![r(Reg::R2)]],
            Shape::Sys => vec![vec![Operand::Imm(0)], vec![Operand::Imm(1)]],
            Shape::Vfp3 => vec![vec![f(0), f(1), f(2)]],
            Shape::Vfp2 => vec![vec![f(0), f(1)]],
            Shape::VfpLdSt => vec![vec![f(0), mem]],
        }
    };
    for op in Op::ALL {
        for operands in shapes(op) {
            let base = Inst::new(op, operands).expect("a valid shape");
            for s in [false, true] {
                if s && !op.supports_s() {
                    continue;
                }
                for cond in [Cond::Al, Cond::Gt, Cond::Cc] {
                    let mut inst = base.clone().with_cond(cond);
                    inst.s = s;
                    row(out, "guest", &inst, inst.effects());
                }
            }
        }
    }
}

fn host_rows(out: &mut String) {
    use pdbt_isa_x86::{Cc, Inst, Mem, Op, Operand, Reg, Shape, Xmm};

    let r = Operand::Reg;
    let mem = Operand::Mem(Mem::base_disp(Reg::Ebp, 8));
    let x = |i| Operand::Xmm(Xmm::new(i));
    let shapes = |op: Op| -> Vec<Vec<Operand>> {
        match op.shape() {
            Shape::Alu2 | Shape::Mov2 => vec![
                vec![r(Reg::Eax), r(Reg::Ecx)],
                vec![r(Reg::Eax), Operand::Imm(0)],
                vec![r(Reg::Eax), Operand::Imm(3)],
                vec![r(Reg::Eax), mem],
                vec![mem, r(Reg::Ecx)],
            ],
            Shape::NarrowStore => vec![vec![mem, r(Reg::Ecx)]],
            Shape::RegMem => vec![vec![r(Reg::Eax), r(Reg::Ecx)], vec![r(Reg::Eax), mem]],
            Shape::Unary => vec![vec![r(Reg::Ecx)], vec![mem]],
            Shape::Branch => vec![vec![Operand::Target(0)], vec![r(Reg::Ecx)]],
            Shape::CondBranch => vec![vec![Operand::Target(0)]],
            Shape::SetCc => vec![vec![r(Reg::Eax)]],
            Shape::Nullary => vec![vec![]],
            Shape::Sse2Op => vec![vec![x(0), x(1)], vec![x(0), mem]],
            Shape::SseMov => vec![vec![x(0), x(1)], vec![x(0), mem], vec![mem, x(1)]],
        }
    };
    for op in Op::ALL {
        let ccs: Vec<Option<Cc>> = match op.shape() {
            Shape::CondBranch | Shape::SetCc => Cc::ALL.into_iter().map(Some).collect(),
            _ => vec![None],
        };
        for operands in shapes(op) {
            for cc in &ccs {
                let inst = match cc {
                    Some(cc) => Inst::new_cc(op, *cc, operands.clone()),
                    None => Inst::new(op, operands.clone()),
                }
                .expect("a valid shape");
                row(out, "host", &inst, inst.effects());
            }
        }
    }
}

#[test]
fn instruction_effects_match_the_golden() {
    let mut got = String::new();
    guest_rows(&mut got);
    host_rows(&mut got);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/effects.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).unwrap();
    }
    let want = std::fs::read_to_string(path).expect("golden file present");
    assert!(
        got == want,
        "instruction effects changed; review and refresh with UPDATE_GOLDEN=1"
    );
}
