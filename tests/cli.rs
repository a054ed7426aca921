//! The command line refuses what it does not understand: an unknown
//! flag, a value flag without its value, an unknown scale, benchmark or
//! experiment name each exit 2, naming the offending token and printing
//! that subcommand's usage line — instead of training at the wrong
//! scale or running without the rules that were asked for. What it
//! does understand, `pdbt stats` prints from the counter tables, and
//! `--trace-out` writes the spans of the run it exports.

mod common;

use common::pdbt;
use pdbt::obs::json::Json;
use pdbt::obs::DispatchCounters;
use pdbt::workloads::{Experiment, Scale, EXPERIMENTS};

#[test]
fn mistakes_exit_2_naming_the_token_and_the_usage_line() {
    let dir = std::env::temp_dir().join(format!("pdbt-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (out, prog) = (dir.join("r.txt"), dir.join("p.s"));
    std::fs::write(&prog, "mov r0, #1\nsvc #1\nsvc #0\n").unwrap();
    let (out, prog) = (out.to_str().unwrap(), prog.to_str().unwrap());

    // The first three ran (at full scale, without rules, at full scale)
    // before the flag tables.
    let mistakes: [(&[&str], &str); 9] = [
        (&["train", "--scael", "tiny", "-o", out], "`--scael`"),
        (&["run", prog, "--rules"], "`--rules`"),
        (&["train", "--scale", "medium", "-o", out], "`medium`"),
        (
            &["compile", "mcf", "--scale", "medium", "-o", out],
            "`medium`",
        ),
        (&["train", "--exclude", "spec", "-o", out], "`spec`"),
        (&["submit", "--workload", "spec"], "`spec`"),
        (&["stats", prog, "--stats"], "`--stats`"),
        (&["train", "tiny", "-o", out], "`tiny`"),
        // An unknown experiment ID lists the eleven there are.
        (&["experiments", "fig11"], "fig16_training_sweep"),
    ];
    for (args, token) in mistakes {
        let run = pdbt(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(token), "{args:?}: {stderr}");
        let usage = format!("usage: pdbt {} ", args[0]);
        assert!(stderr.contains(&usage), "{args:?}: {stderr}");
        assert!(!std::path::Path::new(out).exists(), "{args:?} wrote {out}");
    }

    // A misspelt `PDBT_BACKEND` is refused, not run on the default.
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_pdbt"))
        .args(["run", prog])
        .env("PDBT_BACKEND", "modle")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{stderr}");
    for token in ["\"modle\"", "model or threaded", "usage: pdbt run "] {
        assert!(stderr.contains(token), "{stderr}");
    }

    // The same program runs once the line is right.
    let run = pdbt(&["run", prog, "--stats"]);
    assert_eq!(run.status.code(), Some(0));
    assert_eq!(run.stdout, b"1\n");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn experiments_prints_the_named_views_in_the_order_asked() {
    let ids = ["table3_rule_counts", "fig02_rule_growth"];
    let run = pdbt(&["experiments", ids[0], ids[1], "--scale", "tiny"]);
    assert_eq!(run.status.code(), Some(0));
    let mut exp = Experiment::new(Scale::tiny());
    let mut want = Vec::new();
    for id in ids {
        let view = EXPERIMENTS.iter().find(|e| e.0 == id).unwrap().1;
        view(&mut exp, &mut want).unwrap();
    }
    assert_eq!(run.stdout, want);
}

#[test]
fn stats_prints_every_dispatch_counter() {
    let dir = std::env::temp_dir().join(format!("pdbt-cli-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prog = dir.join("p.s");
    std::fs::write(&prog, "mov r0, #1\nsvc #1\nsvc #0\n").unwrap();
    let run = pdbt(&["stats", prog.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(run.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&run.stdout);
    for name in DispatchCounters::FIELDS {
        let printed = stdout.lines().any(|line| {
            let mut words = line.split_whitespace();
            words.next() == Some(name) && words.next().is_some_and(|n| n.parse::<u64>().is_ok())
        });
        assert!(printed, "no `{name}` row in:\n{stdout}");
    }
}

#[test]
fn trace_out_writes_the_spans_of_the_run() {
    let dir = std::env::temp_dir().join(format!("pdbt-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (prog, trace) = (dir.join("p.s"), dir.join("t.json"));
    std::fs::write(
        &prog,
        "mov r0, #5\nmov r1, #0\nadd r1, r1, r0\nsubs r0, r0, #1\nbne .-8\nmov r0, r1\nsvc #1\nsvc #0\n",
    )
    .unwrap();
    let run = pdbt(&[
        "run",
        prog.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&trace);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(run.status.code(), Some(0));
    assert_eq!(run.stdout, b"15\n");
    let text = text.expect("--trace-out wrote its file");
    let doc = Json::parse(&text).expect("the trace parses");
    assert_eq!(doc.to_string(), text, "the trace is a write fixpoint");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    for name in ["translate_block", "exec_segment"] {
        let n = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .count();
        assert!(n > 0, "no `{name}` event in {text}");
    }
}
