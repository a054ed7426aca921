//! Host-code templates: the host side of a rule with registers and
//! immediates abstracted into slots.
//!
//! A learned rule's host sequence is converted into a template by
//! replacing mapped host registers with *slots*, scratch registers with
//! scratch markers, and immediates that match guest immediates with
//! *immediate slots*. Auxiliary instructions (the paper's Fig 6 `movl`)
//! survive verbatim as scratch-register operations. Instantiation
//! substitutes concrete host locations — a cached host register or an
//! in-environment memory slot — and legalizes the result (mem-mem
//! operand fixes, address materialization).

use pdbt_isa_x86::{Cc, Inst as HInst, Mem, Op as HOp, Operand as HOperand, Operands, Reg as HReg};
use std::fmt;

/// A template register reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TReg {
    /// Rule parameter slot `i`.
    Slot(u8),
    /// Scratch register (`0` = `eax`, `1` = `edx`).
    Scratch(u8),
}

/// A template immediate reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TImm {
    /// Guest immediate slot `j`.
    Slot(u8),
    /// A fixed constant baked into the rule.
    Fixed(i32),
}

/// A template memory operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TMem {
    /// Base register.
    pub base: Option<TReg>,
    /// Index register.
    pub index: Option<TReg>,
    /// Displacement.
    pub disp: TImm,
}

/// A template operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TOperand {
    /// A register reference.
    Reg(TReg),
    /// An immediate reference.
    Imm(TImm),
    /// A memory reference.
    Mem(TMem),
}

/// One template instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TemplateInst {
    /// The host opcode.
    pub op: HOp,
    /// Condition for `setcc`.
    pub cc: Option<Cc>,
    /// Operands.
    pub operands: Vec<TOperand>,
}

impl fmt::Display for TemplateInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.op)?;
        if let Some(cc) = self.cc {
            write!(f, "{cc}")?;
        }
        for (i, o) in self.operands.iter().enumerate() {
            let sep = if i == 0 { " " } else { ", " };
            match o {
                TOperand::Reg(TReg::Slot(s)) => write!(f, "{sep}S{s}")?,
                TOperand::Reg(TReg::Scratch(0)) => write!(f, "{sep}eax")?,
                TOperand::Reg(TReg::Scratch(_)) => write!(f, "{sep}edx")?,
                TOperand::Imm(TImm::Slot(j)) => write!(f, "{sep}$I{j}")?,
                TOperand::Imm(TImm::Fixed(v)) => write!(f, "{sep}${v}")?,
                TOperand::Mem(m) => {
                    write!(f, "{sep}[")?;
                    match m.base {
                        Some(TReg::Slot(s)) => write!(f, "S{s}")?,
                        Some(TReg::Scratch(0)) => write!(f, "eax")?,
                        Some(TReg::Scratch(_)) => write!(f, "edx")?,
                        None => {}
                    }
                    if let Some(TReg::Slot(s)) = m.index {
                        write!(f, "+S{s}")?;
                    }
                    match m.disp {
                        TImm::Slot(j) => write!(f, "+I{j}")?,
                        TImm::Fixed(0) => {}
                        TImm::Fixed(v) => write!(f, "{v:+}")?,
                    }
                    write!(f, "]")?;
                }
            }
        }
        Ok(())
    }
}

/// A whole host template.
pub type Template = Vec<TemplateInst>;

/// Where a rule parameter lives at instantiation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostLoc {
    /// Cached in a host register.
    Reg(HReg),
    /// In memory (an environment slot addressed off `ebp`).
    Mem(Mem),
}

/// An error raised while extracting or instantiating a template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateError {
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "template error: {}", self.detail)
    }
}

impl std::error::Error for TemplateError {}

fn terr<T>(detail: impl Into<String>) -> Result<T, TemplateError> {
    Err(TemplateError {
        detail: detail.into(),
    })
}

const SCRATCH: [HReg; 2] = [HReg::Eax, HReg::Edx];

fn treg_of(r: HReg, slot_of: &dyn Fn(HReg) -> Option<u8>) -> Result<TReg, TemplateError> {
    if let Some(i) = slot_of(r) {
        return Ok(TReg::Slot(i));
    }
    if let Some(k) = SCRATCH.iter().position(|s| *s == r) {
        return Ok(TReg::Scratch(k as u8));
    }
    terr(format!("host register {r} is neither a slot nor scratch"))
}

fn timm_of(v: i32, guest_imms: &[u32]) -> TImm {
    match guest_imms.iter().position(|g| *g as i32 == v) {
        Some(j) => TImm::Slot(j as u8),
        None => TImm::Fixed(v),
    }
}

/// Extracts a template from a learned rule's host sequence.
///
/// `slot_of` maps a host register to its rule-parameter slot (from the
/// verified mapping); `guest_imms` are the guest instruction's immediate
/// slot values (matched by value).
///
/// # Errors
///
/// [`TemplateError`] when the host code references registers outside the
/// mapping and scratch set (e.g. frame slots off `ebp`) or contains
/// control flow — such candidates are not templatable, one of the
/// verification-strictness losses of §II-B.
pub fn extract(
    host: &[HInst],
    slot_of: &dyn Fn(HReg) -> Option<u8>,
    guest_imms: &[u32],
) -> Result<Template, TemplateError> {
    let mut out = Vec::with_capacity(host.len());
    for inst in host {
        if matches!(
            inst.op,
            HOp::Jmp | HOp::Jcc | HOp::Call | HOp::Ret | HOp::Hlt | HOp::Push | HOp::Pop
        ) {
            return terr(format!("control flow or stack op `{inst}` in host code"));
        }
        let mut operands = Vec::with_capacity(inst.operands.len());
        for o in &inst.operands {
            let t = match o {
                HOperand::Reg(r) => TOperand::Reg(treg_of(*r, slot_of)?),
                HOperand::Imm(v) => TOperand::Imm(timm_of(*v, guest_imms)),
                HOperand::Mem(m) => {
                    let base = m.base.map(|r| treg_of(r, slot_of)).transpose()?;
                    let index = m.index.map(|r| treg_of(r, slot_of)).transpose()?;
                    TOperand::Mem(TMem {
                        base,
                        index,
                        disp: timm_of(m.disp, guest_imms),
                    })
                }
                HOperand::Xmm(_) => return terr("float operands are not templated"),
                HOperand::Target(_) => return terr("branch target in host code"),
            };
            operands.push(t);
        }
        out.push(TemplateInst {
            op: inst.op,
            cc: inst.cc,
            operands,
        });
    }
    Ok(out)
}

/// What `t` does to scratch register `k` first: reads it (`Some(true)`),
/// overwrites it unread (`Some(false)`), or leaves it alone — the
/// effects of `t` with scratch `k` standing for itself and every other
/// register for one that is no scratch.
fn first_touch(t: &TemplateInst, k: usize) -> Option<bool> {
    let reg = |r: TReg| match r {
        TReg::Scratch(s) if usize::from(s) % 2 == k => SCRATCH[k],
        _ => HReg::Ebx,
    };
    let operand = |o: &TOperand| match *o {
        TOperand::Reg(r) => HOperand::Reg(reg(r)),
        TOperand::Imm(_) => HOperand::Imm(0),
        TOperand::Mem(m) => HOperand::Mem(Mem {
            base: m.base.map(reg),
            index: m.index.map(reg),
            disp: 0,
        }),
    };
    let operands: Vec<HOperand> = t.operands.iter().map(operand).collect();
    let (op, cc) = (t.op, t.cc);
    let operands = Operands::from_slice(&operands)?;
    let fx = HInst { op, cc, operands }.effects();
    let scratch = &SCRATCH[k];
    (fx.uses.contains(scratch) || fx.defs.contains(scratch)).then(|| fx.uses.contains(scratch))
}

/// Whether scratch `k` holds a value `rest` still wants: an instruction
/// reads it before any overwrites it. Only legalization asks.
#[cold]
fn live_into(rest: &[TemplateInst], k: usize) -> bool {
    rest.iter().find_map(|t| first_touch(t, k)).unwrap_or(false)
}

/// The first scratch (an index into `SCRATCH`) of `order` that is not
/// `busy`; none is a template this instantiation cannot legalize.
fn free_scratch(order: [usize; 2], busy: impl Fn(usize) -> bool) -> Result<usize, TemplateError> {
    match order.into_iter().find(|&k| !busy(k)) {
        Some(k) => Ok(k),
        None => terr("both scratch registers hold live values"),
    }
}

/// Instantiation context: resolves slots to concrete host locations.
struct Resolver<'a> {
    locs: &'a [HostLoc],
    imms: &'a [u32],
    /// The instruction being resolved and the ones after it.
    rest: &'a [TemplateInst],
    /// Scratches holding an address this instruction materialized.
    held: [bool; 2],
    /// The caller's buffer: materializations land in it ahead of the
    /// instruction whose operands need them.
    out: &'a mut Vec<HInst>,
}

impl Resolver<'_> {
    fn imm(&self, t: TImm) -> Result<i32, TemplateError> {
        match t {
            TImm::Fixed(v) => Ok(v),
            TImm::Slot(j) => {
                self.imms
                    .get(j as usize)
                    .map(|v| *v as i32)
                    .ok_or_else(|| TemplateError {
                        detail: format!("missing imm slot {j}"),
                    })
            }
        }
    }

    fn reg_operand(&self, t: TReg) -> Result<HOperand, TemplateError> {
        Ok(match t {
            TReg::Scratch(k) => HOperand::Reg(SCRATCH[k as usize % 2]),
            TReg::Slot(i) => match self.locs.get(i as usize) {
                Some(HostLoc::Reg(r)) => HOperand::Reg(*r),
                Some(HostLoc::Mem(m)) => HOperand::Mem(*m),
                None => return terr(format!("missing slot {i}")),
            },
        })
    }

    /// Resolves a template register to a *register*, materializing an
    /// in-memory slot through a scratch if needed: `prefer`, unless it
    /// holds another address of this instruction or a value this or a
    /// later instruction reads.
    fn reg_strict(&mut self, t: TReg, prefer: usize) -> Result<HReg, TemplateError> {
        match self.reg_operand(t)? {
            HOperand::Reg(r) => Ok(r),
            HOperand::Mem(m) => {
                let (held, rest) = (self.held, self.rest);
                let k = free_scratch([prefer, 1 - prefer], |k| held[k] || live_into(rest, k))?;
                self.held[k] = true;
                let scratch = SCRATCH[k];
                self.out.push(pdbt_isa_x86::builders::mov(
                    HOperand::Reg(scratch),
                    HOperand::Mem(m),
                ));
                Ok(scratch)
            }
            _ => unreachable!(),
        }
    }

    fn operand(&mut self, t: &TOperand) -> Result<HOperand, TemplateError> {
        Ok(match t {
            TOperand::Reg(r) => self.reg_operand(*r)?,
            TOperand::Imm(i) => HOperand::Imm(self.imm(*i)?),
            TOperand::Mem(m) => {
                let base = match m.base {
                    Some(r) => Some(self.reg_strict(r, 1)?),
                    None => None,
                };
                let index = match m.index {
                    Some(r) => Some(self.reg_strict(r, 0)?),
                    None => None,
                };
                HOperand::Mem(Mem {
                    base,
                    index,
                    disp: self.imm(m.disp)?,
                })
            }
        })
    }
}

/// Instantiates a template with concrete parameter locations and
/// immediate values, legalizing mem-mem operand pairs and materializing
/// memory-resident address bases. This is the paper's "matched rule
/// instantiation" step (§IV-D). The host code is appended to `out`, the
/// caller's buffer; a failed instantiation leaves `out` as it found it.
///
/// # Errors
///
/// [`TemplateError`] on arity mismatches.
pub fn instantiate(
    template: &Template,
    locs: &[HostLoc],
    imms: &[u32],
    out: &mut Vec<HInst>,
) -> Result<(), TemplateError> {
    let start = out.len();
    let appended = append(template, locs, imms, out);
    if appended.is_err() {
        out.truncate(start);
    }
    appended
}

fn append(
    template: &Template,
    locs: &[HostLoc],
    imms: &[u32],
    out: &mut Vec<HInst>,
) -> Result<(), TemplateError> {
    use pdbt_isa_x86::builders as hb;
    out.reserve(template.len());
    for (i, t) in template.iter().enumerate() {
        let (rest, later) = (&template[i..], &template[i + 1..]);
        let mut r = Resolver {
            locs,
            imms,
            rest,
            held: [false; 2],
            out,
        };
        let mut operands = Operands::new();
        for o in &t.operands {
            let resolved = r.operand(o)?;
            // Rule files are outside input: a third operand is the
            // template's defect, not a full list's panic.
            operands.try_push(resolved).map_err(|_| TemplateError {
                detail: format!("`{t}` has more operands than a host instruction takes"),
            })?;
        }
        if let [dst, src] = &mut operands[..] {
            // Two memory operands, or a narrow store from memory: load
            // the source into a scratch register first (zero-extending
            // loads have their own fix below).
            let load_src = match t.op {
                HOp::MovB | HOp::MovW => !matches!(src, HOperand::Reg(_)),
                HOp::MovzxB | HOp::MovzxW => false,
                _ => matches!((&dst, &src), (HOperand::Mem(_), HOperand::Mem(_))),
            };
            if load_src {
                // The scratch must not hold the destination's address
                // or a value a later instruction reads; the source's own
                // address it may, the load reads before it writes.
                let in_dst = dst.as_mem();
                let busy = |k: usize| {
                    in_dst.is_some_and(|m| m.uses().any(|r| r == SCRATCH[k])) || live_into(later, k)
                };
                // `eax` first, unless the template addresses off it.
                let eax_based = |o: &TOperand| {
                    let base = Some(TReg::Scratch(0));
                    matches!(o, TOperand::Mem(m) if m.base == base)
                };
                let first = usize::from(t.operands.iter().any(eax_based));
                let scratch = HOperand::Reg(SCRATCH[free_scratch([first, 1 - first], busy)?]);
                out.push(hb::mov(scratch, *src));
                *src = scratch;
            }
        }
        // Zero-extending loads need a register destination: load into
        // a scratch nothing later reads, then move it to where the rule
        // wants it.
        let spill = match operands.first_mut() {
            Some(dst)
                if matches!(t.op, HOp::MovzxB | HOp::MovzxW)
                    && !matches!(dst, HOperand::Reg(_)) =>
            {
                let scratch =
                    HOperand::Reg(SCRATCH[free_scratch([0, 1], |k| live_into(later, k))?]);
                Some((std::mem::replace(dst, scratch), scratch))
            }
            _ => None,
        };
        let inst = HInst {
            op: t.op,
            cc: t.cc,
            operands,
        };
        inst.validate().map_err(|e| TemplateError {
            detail: e.to_string(),
        })?;
        out.push(inst);
        if let Some((final_dst, scratch)) = spill {
            out.push(hb::mov(final_dst, scratch));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdbt_isa_x86::builders as hb;

    fn slot_map(pairs: &[(HReg, u8)]) -> impl Fn(HReg) -> Option<u8> + '_ {
        move |r| pairs.iter().find(|(h, _)| *h == r).map(|(_, i)| *i)
    }

    /// The host code `super::instantiate` appends to an empty buffer.
    fn instantiate(
        t: &Template,
        locs: &[HostLoc],
        imms: &[u32],
    ) -> Result<Vec<HInst>, TemplateError> {
        let mut out = Vec::new();
        super::instantiate(t, locs, imms, &mut out).map(|()| out)
    }

    #[test]
    fn extract_basic_rmw() {
        // addl ecx, $5 with r0↔ecx and guest imm [5].
        let host = [hb::add(HReg::Ecx.into(), HOperand::Imm(5))];
        let t = extract(&host, &slot_map(&[(HReg::Ecx, 0)]), &[5]).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].operands[0], TOperand::Reg(TReg::Slot(0)));
        assert_eq!(t[0].operands[1], TOperand::Imm(TImm::Slot(0)));
    }

    #[test]
    fn extract_keeps_aux_scratch() {
        // movl eax, ebx; addl eax, esi; movl ecx, eax (Fig 6 shape).
        let host = [
            hb::mov(HReg::Eax.into(), HReg::Ebx.into()),
            hb::add(HReg::Eax.into(), HReg::Esi.into()),
            hb::mov(HReg::Ecx.into(), HReg::Eax.into()),
        ];
        let t = extract(
            &host,
            &slot_map(&[(HReg::Ecx, 0), (HReg::Ebx, 1), (HReg::Esi, 2)]),
            &[],
        )
        .unwrap();
        assert_eq!(t[0].operands[0], TOperand::Reg(TReg::Scratch(0)));
        assert_eq!(t[2].operands[1], TOperand::Reg(TReg::Scratch(0)));
    }

    #[test]
    fn extract_rejects_frame_slots_and_control() {
        let host = [hb::mov(
            HReg::Ecx.into(),
            Mem::base_disp(HReg::Ebp, -8).into(),
        )];
        assert!(extract(&host, &slot_map(&[(HReg::Ecx, 0)]), &[]).is_err());
        let host = [hb::ret()];
        assert!(extract(&host, &slot_map(&[]), &[]).is_err());
        let host = [hb::jcc(Cc::E, 1)];
        assert!(extract(&host, &slot_map(&[]), &[]).is_err());
    }

    #[test]
    fn unmatched_imm_stays_fixed() {
        let host = [hb::add(HReg::Ecx.into(), HOperand::Imm(99))];
        let t = extract(&host, &slot_map(&[(HReg::Ecx, 0)]), &[5]).unwrap();
        assert_eq!(t[0].operands[1], TOperand::Imm(TImm::Fixed(99)));
    }

    #[test]
    fn instantiate_with_registers() {
        let host = [hb::add(HReg::Ecx.into(), HOperand::Imm(5))];
        let t = extract(&host, &slot_map(&[(HReg::Ecx, 0)]), &[5]).unwrap();
        let insts = instantiate(&t, &[HostLoc::Reg(HReg::Edi)], &[123]).unwrap();
        assert_eq!(insts, vec![hb::add(HReg::Edi.into(), HOperand::Imm(123))]);
    }

    #[test]
    fn instantiate_with_env_slot() {
        // Slot in memory: addl [ebp+12], $7 is directly legal.
        let host = [hb::add(HReg::Ecx.into(), HOperand::Imm(5))];
        let t = extract(&host, &slot_map(&[(HReg::Ecx, 0)]), &[5]).unwrap();
        let env = Mem::base_disp(HReg::Ebp, 12);
        let insts = instantiate(&t, &[HostLoc::Mem(env)], &[7]).unwrap();
        assert_eq!(insts, vec![hb::add(env.into(), HOperand::Imm(7))]);
    }

    #[test]
    fn instantiate_legalizes_mem_mem() {
        // addl S0, S1 with both slots in memory needs a scratch load.
        let host = [hb::add(HReg::Ecx.into(), HReg::Ebx.into())];
        let t = extract(&host, &slot_map(&[(HReg::Ecx, 0), (HReg::Ebx, 1)]), &[]).unwrap();
        let m0 = Mem::base_disp(HReg::Ebp, 0);
        let m1 = Mem::base_disp(HReg::Ebp, 4);
        let insts = instantiate(&t, &[HostLoc::Mem(m0), HostLoc::Mem(m1)], &[]).unwrap();
        assert_eq!(
            insts,
            vec![
                hb::mov(HReg::Eax.into(), m1.into()),
                hb::add(m0.into(), HReg::Eax.into())
            ]
        );
    }

    #[test]
    fn instantiate_materializes_memory_base() {
        // movl S0, [S1 + 8] with the base slot living in the environment.
        let host = [hb::mov(
            HReg::Ecx.into(),
            Mem::base_disp(HReg::Ebx, 8).into(),
        )];
        let t = extract(&host, &slot_map(&[(HReg::Ecx, 0), (HReg::Ebx, 1)]), &[8]).unwrap();
        let env = Mem::base_disp(HReg::Ebp, 20);
        let insts = instantiate(&t, &[HostLoc::Reg(HReg::Esi), HostLoc::Mem(env)], &[32]).unwrap();
        assert_eq!(
            insts,
            vec![
                hb::mov(HReg::Edx.into(), env.into()),
                hb::mov(HReg::Esi.into(), Mem::base_disp(HReg::Edx, 32).into()),
            ]
        );
    }

    #[test]
    fn instantiate_narrow_store_needs_register_source() {
        // movb [S1], S0 with the value slot in the environment.
        let host = [hb::movb(Mem::base(HReg::Ebx).into(), HReg::Ecx.into())];
        let t = extract(&host, &slot_map(&[(HReg::Ecx, 0), (HReg::Ebx, 1)]), &[]).unwrap();
        let env = Mem::base_disp(HReg::Ebp, 24);
        let insts = instantiate(&t, &[HostLoc::Mem(env), HostLoc::Reg(HReg::Esi)], &[]).unwrap();
        assert_eq!(insts.len(), 2);
        assert_eq!(insts[0], hb::mov(HReg::Eax.into(), env.into()));
        assert_eq!(insts[1].op, HOp::MovB);
    }

    #[test]
    fn instantiate_zero_extend_to_env_destination() {
        let host = [hb::movzxb(HReg::Ecx.into(), Mem::base(HReg::Ebx).into())];
        let t = extract(&host, &slot_map(&[(HReg::Ecx, 0), (HReg::Ebx, 1)]), &[]).unwrap();
        let env = Mem::base_disp(HReg::Ebp, 28);
        let insts = instantiate(&t, &[HostLoc::Mem(env), HostLoc::Reg(HReg::Esi)], &[]).unwrap();
        assert_eq!(insts.len(), 2);
        assert_eq!(insts[0].op, HOp::MovzxB);
        assert_eq!(insts[1], hb::mov(env.into(), HReg::Eax.into()));
    }

    #[test]
    fn legalization_spares_a_scratch_a_later_instruction_reads() {
        // `sub r4, r8, r4, lsl #27` on environment slots: `eax` holds
        // the shifted operand until the `subl`, so the mem-to-mem
        // `movl S0, S1` in between has to go through `edx`.
        let (eax, edx) = (HOperand::Reg(HReg::Eax), HOperand::Reg(HReg::Edx));
        let mut host = vec![
            hb::mov(eax, HReg::Esi.into()),
            hb::shl(eax, HOperand::Imm(27)),
            hb::mov(HReg::Ecx.into(), HReg::Ebx.into()),
            hb::sub(HReg::Ecx.into(), eax),
        ];
        let slots = [(HReg::Ecx, 0), (HReg::Ebx, 1), (HReg::Esi, 2)];
        let (r4, r8) = (Mem::base_disp(HReg::Ebp, 16), Mem::base_disp(HReg::Ebp, 32));
        let locs = [HostLoc::Mem(r4), HostLoc::Mem(r8), HostLoc::Mem(r4)];
        let t = extract(&host, &slot_map(&slots), &[27]).unwrap();
        assert_eq!(
            instantiate(&t, &locs, &[27]).unwrap(),
            vec![
                hb::mov(eax, r4.into()),
                hb::shl(eax, HOperand::Imm(27)),
                hb::mov(edx, r8.into()),
                hb::mov(r4.into(), edx),
                hb::sub(r4.into(), eax),
            ]
        );
        // With `edx` live across the move as well there is no scratch
        // left: a counted miss, not a miscompile.
        host.insert(1, hb::mov(edx, HReg::Esi.into()));
        host.push(hb::sub(HReg::Ecx.into(), edx));
        let t = extract(&host, &slot_map(&slots), &[27]).unwrap();
        assert!(instantiate(&t, &locs, &[27]).is_err());
    }

    #[test]
    fn template_display_is_readable() {
        let host = [
            hb::mov(HReg::Eax.into(), HReg::Ebx.into()),
            hb::add(HReg::Eax.into(), HOperand::Imm(5)),
            hb::mov(HReg::Ecx.into(), HReg::Eax.into()),
        ];
        let t = extract(&host, &slot_map(&[(HReg::Ecx, 0), (HReg::Ebx, 1)]), &[5]).unwrap();
        let text: Vec<String> = t.iter().map(|i| i.to_string()).collect();
        assert_eq!(text, vec!["movl eax, S1", "addl eax, $I0", "movl S0, eax"]);
    }
}
