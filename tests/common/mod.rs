//! Fixtures and helpers shared between the integration-test binaries:
//! the schema-golden machinery (`report_schema.rs` pins the
//! `--report-json` document, `serve.rs` the PING/STATS payloads — a
//! document's *schema* is the sorted set of its field paths in
//! `rules[].label` style, structure only, no values), the three
//! re-degraded training corpora of the determinism suites, the
//! loopback-daemon helpers of the serving suites, and the seeded
//! guest-program samplers of the differential and dispatch suites.

// Each test binary uses its own subset.
#![allow(dead_code)]

use pdbt::arm::{builders as g, Inst, MemAddr, Operand, Program, Reg, ShiftKind};
use pdbt::compiler::{degrade, DegradeProfile};
use pdbt::core::RuleSet;
use pdbt::obs::json::Json;
use pdbt::runtime::{Engine, EngineConfig, Report};
use pdbt::workloads::{build, learn_suite, suite, Benchmark, Scale};
use pdbt_serve::{ServeConfig, ServeSummary, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::process::{Command, Output};
use std::time::Duration;

/// Runs the `pdbt` binary and captures what it prints.
pub fn pdbt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pdbt"))
        .args(args)
        .output()
        .expect("pdbt binary runs")
}

/// The determinism lockdown's three degraded corpora.
pub const SEEDS: [u64; 3] = [0xDE7_001, 0xDE7_002, 0xDE7_003];

/// A learned rule set over the tiny suite with seed-specific extra
/// debug-map degradation: each seed trains on a distinct corpus, so an
/// identity proven over [`SEEDS`] is proven over three different rule
/// sets (and candidate universes), not one lucky input.
pub fn learned_for(seed: u64) -> RuleSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let profile = DegradeProfile {
        drop: 0.15,
        merge: 0.08,
        skew: 0.05,
    };
    let mut suite = suite(Scale::tiny());
    for w in &mut suite {
        w.debug = degrade(&w.debug, profile, &mut rng);
    }
    learn_suite(&suite, None)
}

/// The stripped report ([`Report::stripped`]) minus the `also` paths a
/// suite has its own reason to ignore; everything left must be
/// bit-identical between the runs it compares.
pub fn stripped(doc: &Json, also: &[&str]) -> String {
    let mut doc = Report::stripped(doc);
    for path in also {
        doc.remove_path(path);
    }
    doc.to_string()
}

/// Socket timeout for every client call; far above any tiny-scale run.
pub const T: Duration = Duration::from_secs(120);

pub fn spawn_server(cfg: ServeConfig) -> (SocketAddr, std::thread::JoinHandle<ServeSummary>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle)
}

/// A cold standalone run of the corpus and configuration the server
/// uses per session (`EngineConfig::default()`, one thread).
pub fn oracle_run() -> Report {
    let w = build(Benchmark::Mcf, Scale::tiny());
    let mut engine = Engine::new(None, EngineConfig::default());
    engine
        .run(&w.pair.guest.program, &w.setup())
        .expect("oracle run")
}

pub fn mcf_request(id: u64) -> Json {
    Json::obj([
        ("id", Json::from(id)),
        ("workload", Json::str("mcf")),
        ("scale", Json::str("tiny")),
    ])
}

pub fn schema_paths(doc: &Json, path: &str, out: &mut BTreeSet<String>) {
    match doc {
        Json::Obj(map) => {
            for (key, value) in map {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                schema_paths(value, &sub, out);
            }
        }
        Json::Arr(items) => {
            let sub = format!("{path}[]");
            if items.is_empty() {
                out.insert(sub);
            } else {
                for item in items {
                    schema_paths(item, &sub, out);
                }
            }
        }
        _ => {
            out.insert(path.to_string());
        }
    }
}

/// `prefix.name` for every counter of a family: the paths a section
/// rendered from the family's table must contain.
pub fn family_paths(prefix: &str, fields: &[&str]) -> Vec<String> {
    fields.iter().map(|f| format!("{prefix}.{f}")).collect()
}

/// Asserts `paths` contains every `required` path and equals the golden
/// file `tests/golden/<name>` ([`assert_golden`]).
pub fn assert_schema(paths: BTreeSet<String>, required: &[String], name: &str) {
    for path in required {
        assert!(paths.contains(path), "{name}: missing the `{path}` field");
    }
    let got = paths.into_iter().collect::<Vec<_>>().join("\n") + "\n";
    assert_golden(&got, name);
}

/// Where the golden file `tests/golden/<name>` lives.
pub fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Asserts `got` equals the golden file `tests/golden/<name>`;
/// `UPDATE_GOLDEN=1` rewrites the file first.
pub fn assert_golden(got: &str, name: &str) {
    let golden_path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden_path, got).unwrap();
    }
    let want = std::fs::read_to_string(&golden_path).expect("golden file present");
    assert_eq!(
        got, want,
        "{name} changed; review and refresh with UPDATE_GOLDEN=1"
    );
}

/// Base of the data region the generated programs address through `r1`.
pub const DATA_BASE: u32 = 0x10_0000;

/// Registers the generated body may use (r1 holds the data base).
pub fn body_reg(rng: &mut StdRng) -> Reg {
    Reg::from_index(rng.gen_range(4..12)).unwrap()
}

pub fn op2(rng: &mut StdRng) -> Operand {
    match rng.gen_range(0..3) {
        0 => Operand::Reg(body_reg(rng)),
        1 => Operand::Imm(rng.gen_range(0u32..2048)),
        _ => Operand::Shifted {
            rm: body_reg(rng),
            kind: ShiftKind::ALL[rng.gen_range(0..4)],
            amount: rng.gen_range(1u8..32),
        },
    }
}

/// The three-operand data-processing builders; the first seven may take
/// the S suffix (see [`body_inst`]).
const ALU3: [fn(Reg, Reg, Operand) -> Inst; 14] = [
    g::add,
    g::sub,
    g::and,
    g::orr,
    g::eor,
    g::bic,
    g::rsb,
    g::adc,
    g::sbc,
    g::rsc,
    g::lsl,
    g::lsr,
    g::asr,
    g::ror,
];

/// One safe straight-line instruction.
pub fn body_inst(rng: &mut StdRng) -> Inst {
    match rng.gen_range(0..14) {
        0 => {
            // Three-operand data processing (with optional S).
            let opi = rng.gen_range(0..14);
            let inst = ALU3[opi](body_reg(rng), body_reg(rng), op2(rng));
            // Variable-amount flag-setting shifts and flag-setting
            // carry-chain ops (adcs/sbcs/rscs) are outside the
            // supported subset (the compiler never emits them).
            if rng.gen_bool(0.5) && opi < 7 {
                inst.with_s()
            } else {
                inst
            }
        }
        1 => {
            // Moves.
            let i = g::mov(body_reg(rng), op2(rng));
            if rng.gen_bool(0.5) {
                i.with_s()
            } else {
                i
            }
        }
        2 => g::mvn(body_reg(rng), op2(rng)),
        // Compares.
        3 => g::cmp(body_reg(rng), op2(rng)),
        4 => g::tst(body_reg(rng), op2(rng)),
        5 => g::cmn(body_reg(rng), op2(rng)),
        6 => g::teq(body_reg(rng), op2(rng)),
        // Multiplies and specials (the unlearnables must also run
        // correctly through the QEMU path).
        7 => g::mul(body_reg(rng), body_reg(rng), body_reg(rng)),
        8 => g::mla(body_reg(rng), body_reg(rng), body_reg(rng), body_reg(rng)),
        9 => g::clz(body_reg(rng), body_reg(rng)),
        // Memory within the data region: [r1 + small offset].
        10 => g::ldr(
            body_reg(rng),
            MemAddr::BaseImm {
                base: Reg::R1,
                offset: rng.gen_range(0i32..0x3f0) & !3,
            },
        ),
        11 => g::str_(
            body_reg(rng),
            MemAddr::BaseImm {
                base: Reg::R1,
                offset: rng.gen_range(0i32..0x3f0) & !3,
            },
        ),
        12 => g::ldrb(
            body_reg(rng),
            MemAddr::BaseImm {
                base: Reg::R1,
                offset: rng.gen_range(0i32..0x3f0),
            },
        ),
        _ => g::strh(
            body_reg(rng),
            MemAddr::BaseImm {
                base: Reg::R1,
                offset: rng.gen_range(0i32..0x3f0) & !1,
            },
        ),
    }
}

/// A looped program: the body runs `iters` times under a counter in
/// `r2` (reserved; bodies only touch `r4..r11`), exercising the code
/// cache, block chaining, delegated loop branches and repeated flag
/// materialization.
pub fn loop_program(body: Vec<Inst>, seeds: Vec<u32>, iters: u32) -> Program {
    let mut insts = vec![
        g::mov(Reg::R1, Operand::Imm(DATA_BASE >> 12)),
        g::lsl(Reg::R1, Reg::R1, Operand::Imm(12)),
        g::mov(Reg::R2, Operand::Imm(iters)),
    ];
    for (i, v) in seeds.iter().enumerate() {
        insts.push(g::mov(Reg::from_index(4 + i).unwrap(), Operand::Imm(*v)));
    }
    let body_len = body.len() as i32;
    insts.extend(body);
    insts.push(g::sub(Reg::R2, Reg::R2, Operand::Imm(1)).with_s());
    insts.push(g::b(pdbt_isa::Cond::Ne, -4 * (body_len + 1)));
    for i in 4..12 {
        insts.push(g::mov(Reg::R0, Operand::Reg(Reg::from_index(i).unwrap())));
        insts.push(g::svc(1));
    }
    insts.push(g::svc(0));
    Program::new(0x1000, insts)
}

/// How the member boundary between a flag producer and its consumer
/// comes about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// The producer's block reaches the translator's length cap.
    FallThrough,
    /// An unconditional `b` to the next instruction.
    B,
    /// A `bl` to the next instruction (writes `lr`).
    Bl,
}

/// One instruction that defines no guest flag: `transparent` ones also
/// leave the host's alone (moves, loads, stores), the others lower to
/// flag-clobbering host arithmetic.
fn neutral_inst(rng: &mut StdRng, transparent: bool) -> Inst {
    let word = MemAddr::BaseImm {
        base: Reg::R1,
        offset: rng.gen_range(0i32..0x3f0) & !3,
    };
    if transparent {
        match rng.gen_range(0..4) {
            0 => g::mov(body_reg(rng), Operand::Reg(body_reg(rng))),
            1 => g::mov(body_reg(rng), Operand::Imm(rng.gen_range(0u32..2048))),
            2 => g::ldr(body_reg(rng), word),
            _ => g::str_(body_reg(rng), word),
        }
    } else {
        match rng.gen_range(0..8) {
            0 => g::mul(body_reg(rng), body_reg(rng), body_reg(rng)),
            1 => g::mvn(body_reg(rng), op2(rng)),
            i => ALU3[i - 2](body_reg(rng), body_reg(rng), op2(rng)),
        }
    }
}

/// A loop whose body holds one flag producer, `between` guest
/// instructions that define no flags — a member boundary of the given
/// kind among them — and a conditional branch on the producer's flags
/// (optionally a second one, sharing the producer). `cap` is the
/// translator's block-length cap, which [`Boundary::FallThrough`] pads
/// the loop head's block up to. Each branch skips one `add r3, r3, #1`;
/// `r3` is output with the body registers, so a branch decided from
/// stale or clobbered flags changes what the program prints.
pub fn boundary_program(rng: &mut StdRng, kind: Boundary, between: usize, cap: usize) -> Program {
    let mut insts = vec![
        g::mov(Reg::R1, Operand::Imm(DATA_BASE >> 12)),
        g::lsl(Reg::R1, Reg::R1, Operand::Imm(12)),
        g::mov(Reg::R2, Operand::Imm(rng.gen_range(3u32..9))),
        g::mov(Reg::R3, Operand::Imm(0)),
    ];
    for i in 4..12 {
        let seed = Operand::Imm(rng.gen_range(0u32..2048));
        insts.push(g::mov(Reg::from_index(i).unwrap(), seed));
    }
    let head = insts.len();
    let fillers = between - usize::from(kind != Boundary::FallThrough);
    let before = rng.gen_range(0..=fillers);
    let transparent = rng.gen_bool(0.5);
    if kind == Boundary::FallThrough {
        // The head's block is the padding, the producer and `before`.
        insts.extend((0..cap - 1 - before).map(|_| body_inst(rng)));
    }
    insts.push(match rng.gen_range(0..11) {
        0 => g::cmp(body_reg(rng), op2(rng)),
        1 => g::cmn(body_reg(rng), op2(rng)),
        2 => g::tst(body_reg(rng), op2(rng)),
        3 => g::teq(body_reg(rng), op2(rng)),
        i => ALU3[i - 4](body_reg(rng), body_reg(rng), op2(rng)).with_s(),
    });
    insts.extend((0..before).map(|_| neutral_inst(rng, transparent)));
    match kind {
        Boundary::FallThrough => {}
        Boundary::B => insts.push(g::b(pdbt_isa::Cond::Al, 4)),
        Boundary::Bl => insts.push(g::bl(4)),
    }
    insts.extend((before..fillers).map(|_| neutral_inst(rng, transparent)));
    for _ in 0..rng.gen_range(1..3) {
        insts.push(g::b(pdbt_isa::Cond::ALL[rng.gen_range(0..14)], 8));
        insts.push(g::add(Reg::R3, Reg::R3, Operand::Imm(1)));
    }
    insts.push(g::sub(Reg::R2, Reg::R2, Operand::Imm(1)).with_s());
    let back = insts.len() - head;
    insts.push(g::b(pdbt_isa::Cond::Ne, -4 * back as i32));
    for i in 3..12 {
        insts.push(g::mov(Reg::R0, Operand::Reg(Reg::from_index(i).unwrap())));
        insts.push(g::svc(1));
    }
    insts.push(g::svc(0));
    Program::new(0x1000, insts)
}
