//! Rule-set persistence: a line-oriented text format for saving learned
//! and derived rules, so a trained corpus can be shipped with a DBT
//! deployment and reloaded without re-running the pipeline.
//!
//! Format (one block per rule):
//!
//! ```text
//! # pdbt rules v1
//! rule eor|s=1|modes=reg,reg,imm|pat=0,0,1|prov=O|flags=N:E,Z:E|imms=*
//!   movl S0, S1
//!   xorl S0, $I0
//! end
//! ```

use crate::key::{seq_arity, ComboKey, ModeTag, MAX_OPERANDS, MAX_REG_MENTIONS, MAX_WINDOW};
use crate::ruleset::{Provenance, RuleEntry, RuleSet, MAX_SLOTS};
use crate::template::{TImm, TMem, TOperand, TReg, TemplateInst};
use pdbt_isa::Flag;
use pdbt_isa_arm::{Op as GOp, ShiftKind};
use pdbt_isa_x86::{Cc, Op as HOp};
use pdbt_symexec::FlagEquiv;
use std::fmt;

/// A parse error with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// 1-based line.
    pub line: usize,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rules file line {}: {}", self.line, self.detail)
    }
}

impl std::error::Error for StoreError {}

fn mode_name(m: &ModeTag) -> String {
    match m {
        ModeTag::Reg => "reg".into(),
        ModeTag::Imm => "imm".into(),
        ModeTag::Shifted(k) => format!("s{k}"),
        ModeTag::MemBaseImm => "mbi".into(),
        ModeTag::MemBaseReg => "mbr".into(),
        ModeTag::Opaque => "opaque".into(),
    }
}

fn parse_mode(s: &str) -> Option<ModeTag> {
    Some(match s {
        "reg" => ModeTag::Reg,
        "imm" => ModeTag::Imm,
        "slsl" => ModeTag::Shifted(ShiftKind::Lsl),
        "slsr" => ModeTag::Shifted(ShiftKind::Lsr),
        "sasr" => ModeTag::Shifted(ShiftKind::Asr),
        "sror" => ModeTag::Shifted(ShiftKind::Ror),
        "mbi" => ModeTag::MemBaseImm,
        "mbr" => ModeTag::MemBaseReg,
        _ => return None,
    })
}

fn flag_letter(f: Flag) -> char {
    match f {
        Flag::N => 'N',
        Flag::Z => 'Z',
        Flag::C => 'C',
        Flag::V => 'V',
    }
}

fn parse_flag(c: char) -> Option<Flag> {
    Some(match c {
        'N' => Flag::N,
        'Z' => Flag::Z,
        'C' => Flag::C,
        'V' => Flag::V,
        _ => return None,
    })
}

fn equiv_letter(e: FlagEquiv) -> char {
    match e {
        FlagEquiv::Exact => 'E',
        FlagEquiv::Inverted => 'I',
        FlagEquiv::Mismatch => 'M',
    }
}

fn parse_equiv(c: char) -> Option<FlagEquiv> {
    Some(match c {
        'E' => FlagEquiv::Exact,
        'I' => FlagEquiv::Inverted,
        'M' => FlagEquiv::Mismatch,
        _ => return None,
    })
}

fn prov_letter(p: Provenance) -> char {
    match p {
        Provenance::Learned => 'L',
        Provenance::OpcodeDerived => 'O',
        Provenance::AddrModeDerived => 'A',
    }
}

fn parse_prov(c: char) -> Option<Provenance> {
    Some(match c {
        'L' => Provenance::Learned,
        'O' => Provenance::OpcodeDerived,
        'A' => Provenance::AddrModeDerived,
        _ => return None,
    })
}

fn treg_text(r: &TReg) -> String {
    match r {
        TReg::Slot(i) => format!("S{i}"),
        TReg::Scratch(0) => "eax".into(),
        TReg::Scratch(_) => "edx".into(),
    }
}

fn timm_text(i: &TImm) -> String {
    match i {
        TImm::Slot(j) => format!("I{j}"),
        TImm::Fixed(v) => format!("{v}"),
    }
}

fn operand_text(o: &TOperand) -> String {
    match o {
        TOperand::Reg(r) => treg_text(r),
        TOperand::Imm(i) => format!("${}", timm_text(i)),
        TOperand::Mem(m) => {
            let mut s = String::from("[");
            if let Some(b) = &m.base {
                s.push_str(&treg_text(b));
            }
            if let Some(i) = &m.index {
                s.push('+');
                s.push_str(&treg_text(i));
            }
            s.push(':');
            s.push_str(&timm_text(&m.disp));
            s.push(']');
            s
        }
    }
}

fn parse_treg(s: &str) -> Option<TReg> {
    match s {
        "eax" => Some(TReg::Scratch(0)),
        "edx" => Some(TReg::Scratch(1)),
        _ => s.strip_prefix('S')?.parse().ok().map(TReg::Slot),
    }
}

fn parse_timm(s: &str) -> Option<TImm> {
    if let Some(j) = s.strip_prefix('I') {
        return j.parse().ok().map(TImm::Slot);
    }
    s.parse().ok().map(TImm::Fixed)
}

fn parse_operand(s: &str) -> Option<TOperand> {
    if let Some(imm) = s.strip_prefix('$') {
        return parse_timm(imm).map(TOperand::Imm);
    }
    if let Some(body) = s.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
        let (regs, disp) = body.split_once(':')?;
        let (base, index) = match regs.split_once('+') {
            Some((b, i)) => (
                if b.is_empty() {
                    None
                } else {
                    Some(parse_treg(b)?)
                },
                Some(parse_treg(i)?),
            ),
            None => (
                if regs.is_empty() {
                    None
                } else {
                    Some(parse_treg(regs)?)
                },
                None,
            ),
        };
        return Some(TOperand::Mem(TMem {
            base,
            index,
            disp: parse_timm(disp)?,
        }));
    }
    parse_treg(s).map(TOperand::Reg)
}

fn template_inst_text(t: &TemplateInst) -> String {
    let mut s = t.op.mnemonic().to_string();
    if let Some(cc) = t.cc {
        s.push('.');
        s.push_str(&cc.to_string());
    }
    for (i, o) in t.operands.iter().enumerate() {
        s.push_str(if i == 0 { " " } else { ", " });
        s.push_str(&operand_text(o));
    }
    s
}

fn parse_template_inst(line: &str) -> Option<TemplateInst> {
    let (head, rest) = match line.find(' ') {
        Some(i) => (&line[..i], line[i + 1..].trim()),
        None => (line, ""),
    };
    let (mnemonic, cc) = match head.split_once('.') {
        Some((m, c)) => {
            let cc = Cc::ALL.iter().find(|x| x.to_string() == c)?;
            (m, Some(*cc))
        }
        None => (head, None),
    };
    let op = HOp::ALL.into_iter().find(|o| o.mnemonic() == mnemonic)?;
    let operands: Option<Vec<TOperand>> = if rest.is_empty() {
        Some(Vec::new())
    } else {
        rest.split(", ").map(parse_operand).collect()
    };
    Some(TemplateInst {
        op,
        cc,
        operands: operands?,
    })
}

fn key_text(key: &ComboKey) -> String {
    let modes: Vec<String> = key.modes.iter().map(mode_name).collect();
    let pat: Vec<String> = key.reg_pattern.iter().map(|p| p.to_string()).collect();
    format!(
        "{}|s={}|modes={}|pat={}",
        key.op.mnemonic(),
        u8::from(key.s),
        modes.join(","),
        pat.join(","),
    )
}

/// Parses one key. A `modes=` or `pat=` list longer than a key holds is
/// a defect of the block, not of the line: the key comes back cut at
/// its capacity together with the complaint, which [`Block::defect`]
/// raises at the block's `end` — so the cut key is never inserted.
fn parse_key(text: &str, line: usize) -> Result<(ComboKey, Option<String>), StoreError> {
    let err = |detail: String| StoreError {
        line: line + 1,
        detail,
    };
    let mut op = None;
    let mut key = ComboKey::default();
    let mut overflow = None;
    for (i, field) in text.split('|').enumerate() {
        if i == 0 {
            op = GOp::ALL.into_iter().find(|o| o.mnemonic() == field);
            if op.is_none() {
                return Err(err(format!("unknown opcode `{field}`")));
            }
            continue;
        }
        let (k, v) = field
            .split_once('=')
            .ok_or_else(|| err(format!("bad field `{field}`")))?;
        match k {
            "s" => key.s = v == "1",
            "modes" => {
                for m in v.split(',').filter(|m| !m.is_empty()) {
                    let mode = parse_mode(m).ok_or_else(|| err(format!("bad mode `{m}`")))?;
                    if key.modes.try_push(mode).is_err() {
                        overflow = Some(format!(
                            "modes= lists more than the {MAX_OPERANDS} operands a key holds"
                        ));
                    }
                }
            }
            "pat" => {
                for p in v.split(',').filter(|p| !p.is_empty()) {
                    let slot = p.parse().map_err(|_| err(format!("bad pattern `{p}`")))?;
                    if key.reg_pattern.try_push(slot).is_err() {
                        overflow = Some(format!(
                            "pat= lists more than the {MAX_REG_MENTIONS} register mentions a key holds"
                        ));
                    }
                }
            }
            other => return Err(err(format!("unknown key field `{other}`"))),
        }
    }
    key.op = op.expect("checked");
    Ok((key, overflow))
}

fn entry_meta_text(entry: &RuleEntry) -> String {
    let flags: Vec<String> = entry
        .flags
        .iter()
        .map(|(f, e)| format!("{}:{}", flag_letter(*f), equiv_letter(*e)))
        .collect();
    let imms = match &entry.imm_constraint {
        None => "*".to_string(),
        Some(v) => v.iter().map(u32::to_string).collect::<Vec<_>>().join(","),
    };
    format!(
        "prov={}|flags={}|imms={}",
        prov_letter(entry.provenance),
        flags.join(","),
        imms
    )
}

/// Serializes a rule set to the text format: one-key rules as `rule`
/// blocks, then multi-key rules as `seq` blocks, each group sorted by
/// its keys' display form so files are reproducible.
#[must_use]
pub fn save_rules(rules: &RuleSet) -> String {
    let mut out = String::from("# pdbt rules v1\n");
    let mut entries: Vec<(&[ComboKey], &RuleEntry)> = rules.entries().collect();
    entries.sort_by_cached_key(|(keys, _)| {
        let shown: Vec<String> = keys.iter().map(ComboKey::to_string).collect();
        (keys.len() > 1, shown.join(";"))
    });
    for (keys, entry) in entries {
        // A one-key block carries its key in the header and bare
        // template lines; a multi-key block tags `g` key and `h`
        // template lines.
        let tag = match keys {
            [key] => {
                out.push_str(&format!(
                    "rule {}|{}\n",
                    key_text(key),
                    entry_meta_text(entry)
                ));
                ""
            }
            _ => {
                out.push_str(&format!("seq {}\n", entry_meta_text(entry)));
                for k in keys {
                    out.push_str(&format!("  g {}\n", key_text(k)));
                }
                "h "
            }
        };
        for t in &entry.template {
            out.push_str(&format!("  {tag}{}\n", template_inst_text(t)));
        }
        out.push_str("end\n");
    }
    out
}

/// A rule block being parsed: its keys so far, its entry so far,
/// whether a `seq` header opened it (body lines are then `g`/`h`-tagged),
/// and the first key list found longer than a key holds.
struct Block {
    keys: Vec<ComboKey>,
    entry: RuleEntry,
    tagged: bool,
    overflow: Option<String>,
}

impl Block {
    /// What is wrong with a finished block, if anything. Stores are
    /// outside input: beyond shape, a block must bind what its template
    /// and immediate constraint name — otherwise the rule would never
    /// match, or match and then fail to instantiate — no more slots than
    /// verification has registers for, and nothing past the fixed
    /// capacities keys and scanned windows are stored in ([`crate::key`]).
    fn defect(&self) -> Option<String> {
        if let Some(overflow) = &self.overflow {
            return Some(overflow.clone());
        }
        if self.keys.len() > MAX_WINDOW {
            return Some(format!(
                "{} keys exceed the {MAX_WINDOW}-instruction window a rule is matched in",
                self.keys.len()
            ));
        }
        if self.tagged && (self.keys.len() < 2 || self.entry.template.is_empty()) {
            return Some("seq rule needs ≥2 keys and a template".into());
        }
        if self.entry.template.is_empty() {
            return Some("rule has an empty template".into());
        }
        let (slots, imms) = seq_arity(&self.keys);
        if slots > MAX_SLOTS {
            return Some(format!(
                "{slots} parameter slots exceed the {MAX_SLOTS} a rule is verified over"
            ));
        }
        if let Some(pinned) = &self.entry.imm_constraint {
            if pinned.len() != imms {
                return Some(format!(
                    "imms= pins {} immediates, the keys bind {imms}",
                    pinned.len()
                ));
            }
        }
        // The slots and immediates the template names: highest index + 1.
        let (mut named_slots, mut named_imms) = (0, 0);
        for o in self.entry.template.iter().flat_map(|t| &t.operands) {
            let (regs, imm) = match o {
                TOperand::Reg(r) => ([Some(*r), None], None),
                TOperand::Imm(i) => ([None, None], Some(*i)),
                TOperand::Mem(m) => ([m.base, m.index], Some(m.disp)),
            };
            for r in regs {
                if let Some(TReg::Slot(i)) = r {
                    named_slots = named_slots.max(usize::from(i) + 1);
                }
            }
            if let Some(TImm::Slot(j)) = imm {
                named_imms = named_imms.max(usize::from(j) + 1);
            }
        }
        if named_slots > slots || named_imms > imms {
            return Some(format!(
                "template names {named_slots} slots and {named_imms} immediates, \
                 the keys bind {slots} and {imms}"
            ));
        }
        None
    }
}

/// Parses a rule set from the text format.
///
/// # Errors
///
/// [`StoreError`] pinpointing the offending line; a defect of a whole
/// block (empty template, arity its keys do not bind) is reported at the
/// block's `end` line.
pub fn load_rules(text: &str) -> Result<RuleSet, StoreError> {
    let err = |line: usize, detail: String| StoreError {
        line: line + 1,
        detail,
    };
    let mut out = RuleSet::new();
    let mut pending: Option<Block> = None;
    for (no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let rule_header = line.strip_prefix("rule ");
        if let Some(header) = rule_header.or_else(|| line.strip_prefix("seq ")) {
            if pending.is_some() {
                return Err(err(no, "rule block not closed with `end`".into()));
            }
            // A `rule` header is the key's four fields, then the entry
            // metadata a `seq` header consists of.
            let (keys, overflow, meta) = if rule_header.is_some() {
                let fields: Vec<&str> = header.split('|').collect();
                if fields.len() < 7 {
                    return Err(err(no, "truncated rule header".into()));
                }
                let (key, overflow) = parse_key(&fields[..4].join("|"), no)?;
                (vec![key], overflow, fields[4..].join("|"))
            } else {
                (Vec::new(), None, header.to_string())
            };
            pending = Some(Block {
                keys,
                entry: parse_entry_meta(&meta, no)?,
                tagged: rule_header.is_none(),
                overflow,
            });
        } else if line == "end" {
            let block = pending
                .take()
                .ok_or_else(|| err(no, "`end` without a rule".into()))?;
            if let Some(defect) = block.defect() {
                return Err(err(no, defect));
            }
            out.insert(block.keys, block.entry);
        } else {
            // The body of a `seq` block is tagged — `g` lines are keys,
            // `h` lines template instructions — a `rule` block's is bare
            // template instructions.
            let tag = ["g ", "h "].into_iter().find(|t| line.starts_with(t));
            let (block, text) = match (pending.as_mut(), tag) {
                (Some(block), Some("g ")) if block.tagged => {
                    let (key, overflow) = parse_key(line[2..].trim(), no)?;
                    block.keys.push(key);
                    block.overflow = block.overflow.take().or(overflow);
                    continue;
                }
                (Some(block), Some(_)) if block.tagged => (block, &line[2..]),
                (_, Some(tag)) => {
                    let tag = tag.trim();
                    return Err(err(no, format!("`{tag}` line outside a seq block")));
                }
                (Some(block), None) if !block.tagged => (block, line),
                _ => return Err(err(no, format!("unexpected line `{line}`"))),
            };
            let t = parse_template_inst(text.trim())
                .ok_or_else(|| err(no, format!("bad template instruction `{text}`")))?;
            block.entry.template.push(t);
        }
    }
    if pending.is_some() {
        return Err(StoreError {
            line: text.lines().count(),
            detail: "unterminated rule".into(),
        });
    }
    Ok(out)
}

/// One rule block (or stray line) rejected by [`load_rules_salvage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRule {
    /// 1-based line of the offending content (the block header for
    /// block-level failures, the exact line for parse errors).
    pub line: usize,
    /// Why the block was dropped.
    pub reason: String,
}

/// Parses a rule set in **salvage mode**: instead of failing the whole
/// store on the first malformed line, each `rule`/`seq` block is parsed
/// independently — a block that fails (malformed, truncated, or failed
/// by the `store` fault site) is quarantined with its line and reason
/// while every healthy block still loads. On a well-formed store this
/// returns exactly what [`load_rules`] returns, with no quarantines.
///
/// This is the production loading path (`pdbt run`/`stats` surface the
/// quarantine count in the `resilience` report section); the strict
/// [`load_rules`] remains for contexts where a corrupt store should be
/// a hard error.
#[must_use]
pub fn load_rules_salvage(text: &str) -> (RuleSet, Vec<QuarantinedRule>) {
    let mut out = RuleSet::new();
    let mut quarantined = Vec::new();
    // Block collector: `start` is the 0-based header line of the block
    // being collected, `block` its raw lines (header included).
    let mut start: Option<usize> = None;
    let mut block: Vec<&str> = Vec::new();
    let finish = |start: usize,
                  block: &[&str],
                  out: &mut RuleSet,
                  quarantined: &mut Vec<QuarantinedRule>| {
        if pdbt_faults::hit_with(pdbt_faults::Site::Store, || start as u64 + 1) {
            quarantined.push(QuarantinedRule {
                line: start + 1,
                reason: "injected fault: store entry corrupted".into(),
            });
            return;
        }
        // Each block reuses the strict parser, so salvage and strict
        // semantics can never drift; error lines are block-relative and
        // rebased onto the block's position in the file.
        match load_rules(&block.join("\n")) {
            Ok(rules) => {
                out.merge(rules);
            }
            Err(e) => quarantined.push(QuarantinedRule {
                line: start + e.line,
                reason: e.detail,
            }),
        }
    };
    for (no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let is_header = line.starts_with("rule ") || line.starts_with("seq ");
        match start {
            Some(s) if is_header => {
                // A new header before `end`: the open block is
                // unterminated. Quarantine it and start fresh.
                quarantined.push(QuarantinedRule {
                    line: s + 1,
                    reason: "rule block not closed with `end`".into(),
                });
                start = Some(no);
                block = vec![raw];
            }
            Some(s) => {
                block.push(raw);
                if line == "end" {
                    finish(s, &block, &mut out, &mut quarantined);
                    start = None;
                    block.clear();
                }
            }
            None if is_header => {
                start = Some(no);
                block = vec![raw];
            }
            None => {
                if !line.is_empty() && !line.starts_with('#') {
                    quarantined.push(QuarantinedRule {
                        line: no + 1,
                        reason: format!("unexpected line `{line}`"),
                    });
                }
            }
        }
    }
    if let Some(s) = start {
        quarantined.push(QuarantinedRule {
            line: s + 1,
            reason: "unterminated rule".into(),
        });
    }
    (out, quarantined)
}

fn parse_entry_meta(text: &str, line: usize) -> Result<RuleEntry, StoreError> {
    let err = |detail: String| StoreError {
        line: line + 1,
        detail,
    };
    let mut prov = Provenance::Learned;
    let mut flags = Vec::new();
    let mut imms = None;
    for field in text.split('|') {
        let (k, v) = field
            .split_once('=')
            .ok_or_else(|| err(format!("bad field `{field}`")))?;
        match k {
            "prov" => {
                prov = v
                    .chars()
                    .next()
                    .and_then(parse_prov)
                    .ok_or_else(|| err(format!("bad provenance `{v}`")))?;
            }
            "flags" => {
                for pair in v.split(',').filter(|p| !p.is_empty()) {
                    let mut cs = pair.chars();
                    let f = cs
                        .next()
                        .and_then(parse_flag)
                        .ok_or_else(|| err(format!("bad flag `{pair}`")))?;
                    let e = cs
                        .nth(1)
                        .and_then(parse_equiv)
                        .ok_or_else(|| err(format!("bad flag `{pair}`")))?;
                    flags.push((f, e));
                }
            }
            "imms" => {
                imms = if v == "*" {
                    None
                } else {
                    let vals: Result<Vec<u32>, _> = v.split(',').map(str::parse).collect();
                    Some(vals.map_err(|_| err(format!("bad imms `{v}`")))?)
                };
            }
            other => return Err(err(format!("unknown field `{other}`"))),
        }
    }
    Ok(RuleEntry {
        template: Vec::new(),
        flags,
        provenance: prov,
        imm_constraint: imms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::emit_for;
    use crate::key::{parameterize, Scan};
    use crate::ruleset::verify_combo;
    use pdbt_isa_arm::{builders as g, MemAddr, Operand as O, Reg};
    use pdbt_symexec::CheckOptions;

    fn sample_rules() -> RuleSet {
        let mut rs = RuleSet::new();
        for inst in [
            g::add(Reg::R4, Reg::R4, O::Imm(5)),
            g::eor(Reg::R4, Reg::R5, O::Reg(Reg::R6)),
            g::bic(Reg::R4, Reg::R4, O::Reg(Reg::R5)),
            g::sub(
                Reg::R4,
                Reg::R5,
                O::Shifted {
                    rm: Reg::R6,
                    kind: ShiftKind::Asr,
                    amount: 3,
                },
            ),
            g::cmp(Reg::R4, O::Reg(Reg::R5)),
            g::ldrb(
                Reg::R4,
                MemAddr::BaseReg {
                    base: Reg::R5,
                    index: Reg::R6,
                },
            ),
            g::str_(
                Reg::R4,
                MemAddr::BaseImm {
                    base: Reg::R5,
                    offset: 8,
                },
            ),
            g::add(Reg::R4, Reg::R4, O::Imm(1)).with_s(),
        ] {
            let p = parameterize(&inst).unwrap();
            let template = emit_for(&p.key).unwrap();
            let flags = verify_combo(&p.key, &template, CheckOptions::default()).unwrap();
            rs.insert(
                vec![p.key],
                RuleEntry {
                    template,
                    flags,
                    provenance: Provenance::Learned,
                    imm_constraint: None,
                },
            );
        }
        rs
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let rules = sample_rules();
        let text = save_rules(&rules);
        let back = load_rules(&text).expect("loads");
        assert_eq!(back.len(), rules.len());
        for (key, entry) in rules.iter() {
            let loaded = back.get(key).unwrap_or_else(|| panic!("missing {key}"));
            assert_eq!(loaded, entry, "entry for {key}");
        }
        // And the reloaded file serializes identically (canonical order).
        assert_eq!(save_rules(&back), text);
    }

    #[test]
    fn roundtrip_imm_constraint_and_provenance() {
        let mut rules = RuleSet::new();
        let p = parameterize(&g::add(Reg::R4, Reg::R4, O::Imm(5))).unwrap();
        let template = emit_for(&p.key).unwrap();
        rules.insert(
            vec![p.key],
            RuleEntry {
                template,
                flags: vec![(Flag::C, FlagEquiv::Inverted)],
                provenance: Provenance::AddrModeDerived,
                imm_constraint: Some(vec![5]),
            },
        );
        let back = load_rules(&save_rules(&rules)).unwrap();
        let (_, e) = back.iter().next().unwrap();
        assert_eq!(e.provenance, Provenance::AddrModeDerived);
        assert_eq!(e.imm_constraint, Some(vec![5]));
        assert_eq!(e.flags, vec![(Flag::C, FlagEquiv::Inverted)]);
    }

    #[test]
    fn reloaded_rules_still_translate() {
        use crate::template::HostLoc;
        let rules = load_rules(&save_rules(&sample_rules())).unwrap();
        let m = rules
            .lookup(&g::eor(Reg::R9, Reg::R10, O::Reg(Reg::R11)))
            .expect("matches");
        let code = rules
            .instantiate_match(
                &m,
                &[
                    HostLoc::Reg(pdbt_isa_x86::Reg::Ecx),
                    HostLoc::Reg(pdbt_isa_x86::Reg::Ebx),
                    HostLoc::Reg(pdbt_isa_x86::Reg::Esi),
                ],
            )
            .unwrap();
        assert!(!code.is_empty());
    }

    #[test]
    fn parse_errors_are_located() {
        assert!(load_rules("bogus line").unwrap_err().line == 1);
        let e = load_rules(
            "rule add|s=0|modes=reg,reg,imm|pat=0,0,1|prov=L|flags=|imms=*\n  zorkl S0\nend",
        )
        .unwrap_err();
        assert_eq!(e.line, 2);
        let e = load_rules("rule add|s=0|modes=reg|pat=0|prov=L|flags=|imms=*\n").unwrap_err();
        assert!(e.detail.contains("unterminated"));
        let e = load_rules("rule nope|s=0|modes=|pat=|prov=L|flags=|imms=*\nend").unwrap_err();
        assert!(e.detail.contains("unknown opcode"));
    }

    #[test]
    fn sequence_rules_roundtrip() {
        use crate::ruleset::verify_seq;
        let seq = [
            g::mov(Reg::R4, O::Imm(5)),
            g::add(Reg::R5, Reg::R5, O::Reg(Reg::R4)),
        ];
        let (keys, concrete) = crate::key::parameterize_seq(&seq).unwrap();
        let host = [
            pdbt_isa_x86::builders::mov(
                pdbt_isa_x86::Reg::Ecx.into(),
                pdbt_isa_x86::Operand::Imm(5),
            ),
            pdbt_isa_x86::builders::add(
                pdbt_isa_x86::Reg::Ebx.into(),
                pdbt_isa_x86::Reg::Ecx.into(),
            ),
        ];
        let slot_of = |r: pdbt_isa_x86::Reg| match r {
            pdbt_isa_x86::Reg::Ecx => Some(0u8),
            pdbt_isa_x86::Reg::Ebx => Some(1),
            _ => None,
        };
        let tmpl = crate::template::extract(&host, &slot_of, &concrete.imms).unwrap();
        let flags = verify_seq(&keys, &tmpl, CheckOptions::default()).unwrap();
        let mut rules = sample_rules();
        rules.insert(
            keys.clone(),
            RuleEntry {
                template: tmpl,
                flags,
                provenance: Provenance::Learned,
                imm_constraint: None,
            },
        );
        let text = save_rules(&rules);
        assert!(text.contains("seq "), "{text}");
        let back = load_rules(&text).expect("loads");
        assert_eq!(back.seq_len(), 1);
        assert_eq!(back.len(), rules.len());
        let renamed = [
            g::mov(Reg::R8, O::Imm(7)),
            g::add(Reg::R9, Reg::R9, O::Reg(Reg::R8)),
        ];
        assert!(
            back.lookup_scan(&Scan::of(&renamed, 2), 2..=2).is_some(),
            "reloaded sequence rule matches"
        );
        assert_eq!(save_rules(&back), text, "canonical reserialization");
    }

    /// A block with a whole-block defect: the strict loader errors at the
    /// block's `end` line with `why`, salvage drops exactly that block and
    /// keeps the healthy store after it.
    fn assert_rejected_at_block_close(block: &str, why: &str) {
        let healthy = save_rules(&sample_rules());
        let e = load_rules(block).unwrap_err();
        assert!(e.detail.contains(why), "{block}: {e}");
        assert_eq!(e.line, block.lines().count(), "{block}: the `end` line");
        let (back, quarantined) = load_rules_salvage(&format!("{block}{healthy}"));
        assert_eq!(save_rules(&back), healthy, "{block}");
        assert_eq!(quarantined.len(), 1, "{quarantined:?}");
        assert_eq!(quarantined[0].line, block.lines().count());
    }

    /// Keys and scanned windows are stored inline: a rule file naming
    /// more than a capacity holds is refused at the block's close, one
    /// case per capacity, and what exactly fills one loads and matches.
    #[test]
    fn lists_longer_than_the_inline_capacities_are_rejected() {
        let meta = "prov=L|flags=|imms=*";
        let g = "  g mov|s=0|modes=reg,imm|pat=0\n";
        let cases = [
            // Operands per key.
            (
                format!("rule add|s=0|modes=reg,reg,reg,reg,imm|pat=0,1,2,3|{meta}\n  addl S0, S1\nend\n"),
                "modes= lists more than the 4 operands",
            ),
            // Register mentions per key.
            (
                format!("rule add|s=0|modes=reg,reg,reg|pat=0,1,2,0,1|{meta}\n  addl S0, S1\nend\n"),
                "pat= lists more than the 4 register mentions",
            ),
            // The same, on a `g` line in the middle of a sequence.
            (
                format!("seq {meta}\n{g}  g add|s=0|modes=reg,reg,reg|pat=0,0,0,0,0\n{g}  h movl S0, $I0\nend\n"),
                "pat= lists more than the 4 register mentions",
            ),
            // Keys per window.
            (
                format!("seq {meta}\n{}  h movl S0, $I0\nend\n", g.repeat(MAX_WINDOW + 1)),
                "5 keys exceed the 4-instruction window",
            ),
            // Immediates per window: more pinned than any window binds.
            (
                format!(
                    "seq prov=L|flags=|imms={}\n{g}{g}  h movl S0, $I0\nend\n",
                    vec!["7"; crate::key::MAX_WINDOW_IMMS + 1].join(",")
                ),
                "imms= pins 17 immediates",
            ),
        ];
        // (Slots per window: `arity_the_keys_do_not_bind_is_rejected`.)
        for (block, why) in cases {
            assert_rejected_at_block_close(&block, why);
        }
        // A window's worth of keys loads, and matches four instructions.
        let full = format!(
            "seq {meta}\n{}  h movl S0, $I3\nend\n",
            g.repeat(MAX_WINDOW)
        );
        let rules = load_rules(&full).expect("exactly MAX_WINDOW keys load");
        assert_eq!((rules.seq_len(), rules.max_len()), (1, MAX_WINDOW));
        let window: Vec<_> = (0..5).map(|i| g::mov(Reg::R4, O::Imm(i))).collect();
        let m = rules
            .lookup_scan(&Scan::of(&window, rules.max_len()), 2..=usize::MAX)
            .expect("the four-key rule matches");
        assert_eq!(
            (m.keys.len(), &m.inst.imms[..]),
            (MAX_WINDOW, &[0, 1, 2, 3][..])
        );
    }

    /// Blocks whose keys do not bind what the block names: the strict
    /// loader errors at the block's `end` line, salvage drops exactly
    /// that block.
    #[test]
    fn arity_the_keys_do_not_bind_is_rejected() {
        let add = "rule add|s=0|modes=reg,reg,imm|pat=0,0|prov=L|flags=";
        let five_slots = "seq prov=L|flags=|imms=*\n  \
            g mov|s=0|modes=reg,reg|pat=0,1\n  \
            g mov|s=0|modes=reg,reg|pat=2,3\n  \
            g mov|s=0|modes=reg,reg|pat=4,0\n  \
            h movl S0, S1\nend\n";
        let cases = [
            (format!("{add}|imms=5,12\n  addl S0, $I0\nend\n"), "imms="),
            (
                format!("{add}|imms=*\n  addl S1, $I0\nend\n"),
                "template names 2 slots",
            ),
            (
                format!("{add}|imms=*\n  addl S0, $I1\nend\n"),
                "and 2 immediates",
            ),
            (
                format!("{add}|imms=*\n  movl eax, [S0+S3:I0]\nend\n"),
                "template names 4 slots",
            ),
            (five_slots.to_string(), "5 parameter slots"),
        ];
        for (block, why) in cases {
            assert_rejected_at_block_close(&block, why);
        }
        // What the keys do bind loads: two keys, two pinned immediates.
        let pinned = "seq prov=L|flags=|imms=5,12\n  \
            g mov|s=0|modes=reg,imm|pat=0\n  \
            g add|s=0|modes=reg,reg,imm|pat=1,0\n  \
            h leal S1, [S0:I1]\nend\n";
        let back = load_rules(pinned).expect("loads");
        let (_, e) = back.entries().next().unwrap();
        assert_eq!(e.imm_constraint, Some(vec![5, 12]));
    }

    #[test]
    fn salvage_matches_strict_on_healthy_stores() {
        let rules = sample_rules();
        let text = save_rules(&rules);
        let (back, quarantined) = load_rules_salvage(&text);
        assert!(quarantined.is_empty(), "{quarantined:?}");
        assert_eq!(save_rules(&back), text);
    }

    #[test]
    fn salvage_quarantines_only_the_corrupt_block() {
        let rules = sample_rules();
        let text = save_rules(&rules);
        // Corrupt the template line of the *second* rule block.
        let target_header = text
            .lines()
            .enumerate()
            .filter(|(_, l)| l.starts_with("rule "))
            .nth(1)
            .expect("second rule block")
            .0;
        let mutated: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(no, l)| {
                if no == target_header + 1 {
                    "  zorkl S0, S1".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect();
        let (back, quarantined) = load_rules_salvage(&mutated.join("\n"));
        assert_eq!(back.len(), rules.len() - 1, "one block lost, rest loaded");
        assert_eq!(quarantined.len(), 1, "{quarantined:?}");
        assert_eq!(quarantined[0].line, target_header + 2, "1-based bad line");
        assert!(
            quarantined[0].reason.contains("bad template instruction"),
            "{quarantined:?}"
        );
    }

    #[test]
    fn salvage_handles_unterminated_and_stray_lines() {
        let rules = sample_rules();
        let mut text = String::from("stray garbage\n");
        text.push_str(&save_rules(&rules));
        // Truncate the final `end`, leaving the last block open.
        let text = text.trim_end().strip_suffix("end").unwrap().to_string();
        let (back, quarantined) = load_rules_salvage(&text);
        assert_eq!(back.len(), rules.len() - 1);
        assert_eq!(quarantined.len(), 2, "{quarantined:?}");
        assert!(quarantined[0].reason.contains("unexpected line"));
        assert!(quarantined[1].reason.contains("unterminated"));
        // A header opening before the previous block closed quarantines
        // the open block, not the new one.
        let (back, quarantined) = load_rules_salvage(
            "rule add|s=0|modes=reg,reg,imm|pat=0,0,1|prov=L|flags=|imms=*\n\
             rule eor|s=0|modes=reg,reg,reg|pat=0,1,2|prov=L|flags=|imms=*\n  \
             movl S0, S1\n  xorl S0, S2\nend\n",
        );
        assert_eq!(back.len(), 1, "the well-formed eor block loads");
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].line, 1);
        assert!(quarantined[0].reason.contains("not closed"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let rules = sample_rules();
        let mut text = String::from("# header\n\n");
        text.push_str(&save_rules(&rules));
        text.push_str("\n# trailing\n");
        assert_eq!(load_rules(&text).unwrap().len(), rules.len());
    }
}
