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
use crate::ruleset::{Provenance, RuleEntry, RuleSet, SharedRule, MAX_SLOTS};
use crate::template::{TImm, TMem, TOperand, TReg, TemplateInst};
use pdbt_isa::{Flag, InlineVec};
use pdbt_isa_arm::{Op as GOp, ShiftKind};
use pdbt_isa_x86::{Cc, Op as HOp};
use pdbt_symexec::FlagEquiv;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

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

/// `text.split(sep)` by a plain byte scan. A store's fields are a few
/// bytes long, and loading one splits hundreds of thousands of them:
/// at that length `str::split`'s searcher set-up, or a `memcmp` call
/// per position, costs more than the scan. Separators are ASCII, so
/// every cut is a character boundary.
fn split<'a>(text: &'a str, sep: &'static str) -> impl Iterator<Item = &'a str> {
    let (&first, tail) = sep.as_bytes().split_first().expect("a separator");
    let mut rest = Some(text);
    std::iter::from_fn(move || {
        let s = rest?;
        let b = s.as_bytes();
        let at =
            (0..b.len()).find(|&i| b[i] == first && b[i + 1..].iter().take(tail.len()).eq(tail));
        rest = at.map(|i| &s[i + sep.len()..]);
        Some(at.map_or(s, |i| &s[..i]))
    })
}

/// `text.lines()` by the same byte scan as [`split`], except that a line
/// keeps a `\r` before its `\n` and an empty text is one blank line:
/// both loaders trim every line and skip blank ones.
fn lines(text: &str) -> Lines<'_> {
    Lines(Some(text.strip_suffix('\n').unwrap_or(text)))
}

/// The iterator [`lines`] returns: what is left of the text, `None` once
/// its last line is out. [`Lines::rest`] lets a loader name the bytes a
/// block spans, and a copy of the walk look ahead.
#[derive(Clone)]
struct Lines<'a>(Option<&'a str>);

impl<'a> Lines<'a> {
    /// The text from the next line on, without the final `\n`.
    fn rest(&self) -> &'a str {
        self.0.unwrap_or_default()
    }
}

impl<'a> Iterator for Lines<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.0?;
        let (line, tail) = split_once(rest, b'\n').map_or((rest, None), |(l, t)| (l, Some(t)));
        self.0 = tail;
        Some(line)
    }
}

/// `text.split_once(sep)` by the same byte scan as [`split`].
fn split_once(text: &str, sep: u8) -> Option<(&str, &str)> {
    let i = text.bytes().position(|b| b == sep)?;
    Some((&text[..i], &text[i + 1..]))
}

/// A mnemonic as one sortable word: its bytes under a marker byte that
/// holds its length, so trailing NULs cannot alias. `None` past fifteen
/// bytes, longer than any mnemonic.
fn mnemonic_key(name: &str) -> Option<u128> {
    let marked = |word: u128, b: u8| word << 8 | u128::from(b);
    (name.len() < 16).then(|| name.bytes().rev().fold(name.len() as u128, marked))
}

/// Finds `name` in a table of ops sorted by [`mnemonic_key`], built on
/// first use: a store names an opcode on every line, and comparing
/// words is cheaper than a string comparison per probe.
fn by_mnemonic<T: Copy>(
    table: &'static OnceLock<Vec<(u128, T)>>,
    all: &[T],
    mnemonic: fn(T) -> &'static str,
    name: &str,
) -> Option<T> {
    let sorted = table.get_or_init(|| {
        let key = |op| mnemonic_key(mnemonic(op)).expect("mnemonics fit a word");
        let mut sorted: Vec<_> = all.iter().map(|&op| (key(op), op)).collect();
        sorted.sort_unstable_by_key(|(key, _)| *key);
        sorted
    });
    let key = mnemonic_key(name)?;
    let i = sorted.binary_search_by_key(&key, |(key, _)| *key).ok()?;
    Some(sorted[i].1)
}

fn guest_op(name: &str) -> Option<GOp> {
    static TABLE: OnceLock<Vec<(u128, GOp)>> = OnceLock::new();
    by_mnemonic(&TABLE, &GOp::ALL, GOp::mnemonic, name)
}

fn host_op(name: &str) -> Option<HOp> {
    static TABLE: OnceLock<Vec<(u128, HOp)>> = OnceLock::new();
    by_mnemonic(&TABLE, &HOp::ALL, HOp::mnemonic, name)
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
        let (regs, disp) = split_once(body, b':')?;
        let (base, index) = match split_once(regs, b'+') {
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
    let (head, rest) = match split_once(line, b' ') {
        Some((head, rest)) => (head, rest.trim()),
        None => (line, ""),
    };
    let (mnemonic, cc) = match split_once(head, b'.') {
        Some((m, c)) => {
            let cc = Cc::ALL.into_iter().find(|x| x.suffix() == c)?;
            (m, Some(cc))
        }
        None => (head, None),
    };
    let op = host_op(mnemonic)?;
    let mut operands = Vec::new();
    if !rest.is_empty() {
        // Host instructions take at most two operands.
        operands.reserve_exact(2);
        for operand in split(rest, ", ") {
            operands.push(parse_operand(operand)?);
        }
    }
    Some(TemplateInst { op, cc, operands })
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
fn parse_key<'a>(
    fields: impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<(ComboKey, Option<String>), StoreError> {
    let err = |detail| line_err(line, detail);
    let mut op = None;
    let mut key = ComboKey::default();
    let mut overflow = None;
    for (i, field) in fields.enumerate() {
        if i == 0 {
            op = guest_op(field);
            if op.is_none() {
                return Err(err(format!("unknown opcode `{field}`")));
            }
            continue;
        }
        let (k, v) = split_once(field, b'=').ok_or_else(|| err(format!("bad field `{field}`")))?;
        match k {
            "s" => key.s = v == "1",
            "modes" => {
                for m in split(v, ",").filter(|m| !m.is_empty()) {
                    let mode = parse_mode(m).ok_or_else(|| err(format!("bad mode `{m}`")))?;
                    if key.modes.try_push(mode).is_err() {
                        overflow = Some(format!(
                            "modes= lists more than the {MAX_OPERANDS} operands a key holds"
                        ));
                    }
                }
            }
            "pat" => {
                for p in split(v, ",").filter(|p| !p.is_empty()) {
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

/// Whether a (trimmed) line opens a rule block.
fn is_header(line: &str) -> bool {
    line.starts_with("rule ") || line.starts_with("seq ")
}

/// A [`StoreError`] at 0-based line `no`.
fn line_err(no: usize, detail: String) -> StoreError {
    StoreError {
        line: no + 1,
        detail,
    }
}

/// A rule block being parsed: its keys so far (as many as a window
/// holds) and how many it listed, its entry so far, whether a `seq`
/// header opened it (body lines are then `g`/`h`-tagged), and the first
/// key list found longer than a key holds.
struct Block {
    keys: InlineVec<ComboKey, MAX_WINDOW>,
    listed: usize,
    entry: RuleEntry,
    tagged: bool,
    overflow: Option<String>,
}

impl Block {
    /// Opens a block at its (trimmed) header line `no`. A `rule` header
    /// is the key's four fields, then the entry metadata a `seq` header
    /// consists of.
    fn open(no: usize, line: &str) -> Result<Block, StoreError> {
        let (tagged, header) = match line.strip_prefix("rule ") {
            Some(header) => (false, header),
            None => (true, &line["seq ".len()..]),
        };
        let mut fields = split(header, "|");
        let (keys, overflow) = if tagged {
            (InlineVec::new(), None)
        } else {
            if header.bytes().filter(|&b| b == b'|').count() < 6 {
                return Err(line_err(no, "truncated rule header".into()));
            }
            let (key, overflow) = parse_key(fields.by_ref().take(4), no)?;
            ([key].into_iter().collect(), overflow)
        };
        Ok(Block {
            listed: keys.len(),
            keys,
            entry: parse_entry_meta(fields, no)?,
            tagged,
            overflow,
        })
    }

    /// Lists one more key; past a window's worth, only the count grows.
    fn push_key(&mut self, key: ComboKey) {
        let _ = self.keys.try_push(key);
        self.listed += 1;
    }

    /// Closes the block at its `end` line `no`: the rule, or the block's
    /// defect reported at that line.
    fn close(self, no: usize) -> Result<SharedRule, StoreError> {
        match self.defect() {
            Some(defect) => Err(line_err(no, defect)),
            None => Ok(SharedRule::new(&self.keys, self.entry)),
        }
    }

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
        if self.listed > MAX_WINDOW {
            return Some(format!(
                "{} keys exceed the {MAX_WINDOW}-instruction window a rule is matched in",
                self.listed
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

/// Parses one (trimmed) body line at `no` — neither blank, a comment, a
/// header nor `end` — into the open block, if any. The body of a `seq`
/// block is tagged — `g` lines are keys, `h` lines template
/// instructions — a `rule` block's is bare template instructions.
fn parse_body(pending: Option<&mut Block>, no: usize, line: &str) -> Result<(), StoreError> {
    let tag = ["g ", "h "].into_iter().find(|t| line.starts_with(t));
    let (block, text) = match (pending, tag) {
        (Some(block), Some("g ")) if block.tagged => {
            let (key, overflow) = parse_key(split(line[2..].trim(), "|"), no)?;
            block.push_key(key);
            block.overflow = block.overflow.take().or(overflow);
            return Ok(());
        }
        (Some(block), Some(_)) if block.tagged => (block, &line[2..]),
        (_, Some(tag)) => {
            let tag = tag.trim();
            return Err(line_err(no, format!("`{tag}` line outside a seq block")));
        }
        (Some(block), None) if !block.tagged => (block, line),
        _ => return Err(line_err(no, format!("unexpected line `{line}`"))),
    };
    let t = parse_template_inst(text.trim())
        .ok_or_else(|| line_err(no, format!("bad template instruction `{text}`")))?;
    block.entry.template.push(t);
    Ok(())
}

/// Parses a rule set from the text format.
///
/// # Errors
///
/// [`StoreError`] pinpointing the offending line; a defect of a whole
/// block (empty template, arity its keys do not bind) is reported at the
/// block's `end` line.
pub fn load_rules(text: &str) -> Result<RuleSet, StoreError> {
    load_strict(text, None)
}

/// The rule blocks loads through it ([`load_rules_cached`]) have parsed
/// cleanly, by their exact bytes, each with the rule it parsed to. Rule
/// sets that overlap — the leave-one-out sets a daemon's artifacts carry
/// — then parse each distinct block once, and every set that loads it
/// shares the one parsed body. A cache grows with the distinct clean
/// blocks of what was loaded through it and nothing else; it is meant to
/// live for one batch of loads.
#[derive(Debug, Default)]
pub struct RuleCache {
    /// The default hasher: blocks come from disk and from peers.
    blocks: HashMap<Box<str>, SharedRule>,
    shared: u64,
}

impl RuleCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> RuleCache {
        RuleCache::default()
    }

    /// How many blocks loads took from the cache instead of parsing.
    #[must_use]
    pub fn shared(&self) -> u64 {
        self.shared
    }

    /// The rule of the recorded block that opens `at`, if one has exactly
    /// its bytes: the header through the first `end` line after it, the
    /// line the parser closes a block at. `ahead` starts after the header
    /// and, on a hit, ends past the block; the hit returns how many lines
    /// that is. A header before any `end` is a block the parser refuses,
    /// and no hit.
    fn hit(&mut self, at: &str, ahead: &mut Lines<'_>) -> Option<(SharedRule, usize)> {
        if self.blocks.is_empty() {
            return None;
        }
        let mut lines = 0;
        let len = loop {
            let from = ahead.rest();
            let line = ahead.next()?;
            lines += 1;
            match line.trim() {
                "end" => break at.len() - from.len() + line.len(),
                l if is_header(l) => return None,
                _ => {}
            }
        };
        let rule = self.blocks.get(&at[..len])?.clone();
        self.shared += 1;
        Some((rule, lines))
    }
}

/// [`load_rules`] through a [`RuleCache`]: a block whose exact bytes the
/// cache holds is inserted as the rule it parsed to before; any other
/// block is parsed as [`load_rules`] parses it and, once it closes
/// cleanly, recorded. The set, or the error, is what [`load_rules`]
/// returns for the same text: a damaged block never matches a clean
/// one's bytes, so it takes the parser's path and fails where it would.
///
/// # Errors
///
/// As [`load_rules`].
pub fn load_rules_cached(text: &str, cache: &mut RuleCache) -> Result<RuleSet, StoreError> {
    load_strict(text, Some(cache))
}

/// The strict loader, with a cache or without: without one it hashes and
/// copies nothing.
fn load_strict(text: &str, mut cache: Option<&mut RuleCache>) -> Result<RuleSet, StoreError> {
    let mut out = RuleSet::new();
    // The open block: the text from its header line on, and the block so
    // far.
    let mut pending: Option<(&str, Block)> = None;
    let mut walk = lines(text);
    // The 0-based number of the line `walk` yields next.
    let mut next = 0;
    loop {
        let at = walk.rest();
        let Some(raw) = walk.next() else { break };
        let no = next;
        next += 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if is_header(line) {
            if pending.is_some() {
                return Err(line_err(no, "rule block not closed with `end`".into()));
            }
            if let Some(cache) = cache.as_deref_mut() {
                let mut ahead = walk.clone();
                if let Some((rule, lines)) = cache.hit(at, &mut ahead) {
                    out.insert_shared(rule);
                    (walk, next) = (ahead, next + lines);
                    continue;
                }
            }
            pending = Some((at, Block::open(no, line)?));
        } else if line == "end" {
            let (header_at, block) = pending
                .take()
                .ok_or_else(|| line_err(no, "`end` without a rule".into()))?;
            let rule = block.close(no)?;
            if let Some(cache) = cache.as_deref_mut() {
                let block = &header_at[..header_at.len() - at.len() + raw.len()];
                cache.blocks.insert(block.into(), rule.clone());
            }
            out.insert_shared(rule);
        } else {
            parse_body(pending.as_mut().map(|(_, block)| block), no, line)?;
        }
    }
    if pending.is_some() {
        return Err(StoreError {
            line: next,
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
    let mut quarantine = |line: usize, reason: String| {
        quarantined.push(QuarantinedRule { line, reason });
    };
    // The block being collected: its 0-based header line, and the block
    // so far or the error of its first bad line. Blocks go through the
    // strict loader's own steps, so the two can never drift.
    let mut open: Option<(usize, Result<Block, StoreError>)> = None;
    for (no, raw) in lines(text).enumerate() {
        let line = raw.trim();
        if is_header(line) {
            // A new header before `end`: the open block is
            // unterminated. Quarantine it and start fresh.
            if let Some((s, _)) = open.take() {
                quarantine(s + 1, "rule block not closed with `end`".into());
            }
            open = Some((no, Block::open(no, line)));
            continue;
        }
        let Some((start, parsed)) = open.as_mut() else {
            if !line.is_empty() && !line.starts_with('#') {
                quarantine(no + 1, format!("unexpected line `{line}`"));
            }
            continue;
        };
        if line == "end" {
            let start = *start;
            let (_, parsed) = open.take().expect("a block is open");
            if pdbt_faults::hit_with(pdbt_faults::Site::Store, || start as u64 + 1) {
                quarantine(start + 1, "injected fault: store entry corrupted".into());
                continue;
            }
            match parsed.and_then(|block| block.close(no)) {
                Ok(rule) => {
                    out.insert_shared(rule);
                }
                Err(e) => quarantine(e.line, e.detail),
            }
        } else if line.is_empty() || line.starts_with('#') {
            continue;
        } else if let Ok(block) = parsed {
            if let Err(e) = parse_body(Some(block), no, line) {
                *parsed = Err(e);
            }
        }
    }
    if let Some((s, _)) = open {
        quarantine(s + 1, "unterminated rule".into());
    }
    (out, quarantined)
}

fn parse_entry_meta<'a>(
    fields: impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<RuleEntry, StoreError> {
    let err = |detail| line_err(line, detail);
    let mut prov = Provenance::Learned;
    let mut flags = Vec::new();
    let mut imms = None;
    for field in fields {
        let (k, v) = split_once(field, b'=').ok_or_else(|| err(format!("bad field `{field}`")))?;
        match k {
            "prov" => {
                prov = v
                    .chars()
                    .next()
                    .and_then(parse_prov)
                    .ok_or_else(|| err(format!("bad provenance `{v}`")))?;
            }
            "flags" => {
                for pair in split(v, ",").filter(|p| !p.is_empty()) {
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
                    let vals: Result<Vec<u32>, _> = split(v, ",").map(str::parse).collect();
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

    /// The byte-scan splitters and the sorted mnemonic tables answer as
    /// `str::split`, `str::split_once` and a linear search would.
    #[test]
    fn byte_splits_and_mnemonic_tables_match_std() {
        for text in ["", "a", "a|b", "|a||", "a, b,c, ,", ", ", "x,  y", "é|ü, x"] {
            for sep in ["|", ",", ", "] {
                let std: Vec<&str> = text.split(sep).collect();
                assert_eq!(
                    split(text, sep).collect::<Vec<_>>(),
                    std,
                    "{text:?} by {sep:?}"
                );
            }
            assert_eq!(split_once(text, b'|'), text.split_once('|'), "{text:?}");
        }
        for op in GOp::ALL {
            assert_eq!(guest_op(op.mnemonic()), Some(op));
        }
        for op in HOp::ALL {
            assert_eq!(host_op(op.mnemonic()), Some(op));
        }
        for name in ["", "movl\0", "movlmovlmovlmovlx", "MOVL"] {
            assert_eq!(host_op(name), None, "{name:?}");
        }
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
