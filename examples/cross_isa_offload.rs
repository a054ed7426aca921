//! The paper's motivating scenario (§I): offloading a guest (ARM)
//! binary onto a host (x86) server via DBT. Runs one synthetic SPEC-like
//! benchmark under every system configuration and prints the evaluation
//! row it contributes to Figs 11–15.
//!
//! ```sh
//! cargo run --release --example cross_isa_offload [benchmark]
//! ```

use pdbt::workloads::{Benchmark, Config, Experiment, Scale};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "libquantum".into());
    let bench = Benchmark::from_name(&name).unwrap_or_else(|e| panic!("{e}"));

    println!("building the synthetic suite and training leave-one-out (excluding {bench})…");
    let mut exp = Experiment::new(Scale::full());
    let learned = exp.rules_for(Config::WoPara, bench).map_or(0, |r| r.len());
    let full = exp.rules_for(Config::Para, bench).map_or(0, |r| r.len());
    println!("rules: {learned} learned -> {full} applicable after full parameterization\n");

    println!(
        "{:<14}{:>10}{:>12}{:>10}",
        "config", "coverage", "host/guest", "speedup"
    );
    // Each cell's output has been compared with the reference
    // interpreter's before `metrics` hands it out.
    let cell =
        |exp: &mut Experiment, cfg| exp.metrics(cfg, bench).unwrap_or_else(|e| panic!("{e}"));
    let qemu = cell(&mut exp, Config::Qemu).host_executed() as f64;
    for cfg in Config::ALL {
        let m = cell(&mut exp, cfg);
        println!(
            "{:<14}{:>9.1}%{:>12.2}{:>9.2}x",
            cfg.label(),
            m.coverage() * 100.0,
            m.total_ratio(),
            qemu / m.host_executed() as f64,
        );
    }
    println!("\nall configurations produced the reference output");
}
