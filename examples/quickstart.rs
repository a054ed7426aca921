//! Quickstart: assemble a small guest program from text, run it under
//! the QEMU-path DBT and under the parameterized DBT, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pdbt::arm::{parse_listing, Program};
use pdbt::core::derive::{derive, DeriveConfig};
use pdbt::runtime::{Engine, EngineConfig, RunSetup};
use pdbt::workloads::{learn_suite, Benchmark, Scale};
use pdbt_symexec::CheckOptions;

fn main() {
    // A guest program in assembly: sum of squares 1..=100.
    let listing = "
        mov r4, #100        ; n
        mov r5, #0          ; acc
        mul r6, r4, r4      ; loop: n^2 (mul is QEMU-path: unlearnable family)
        add r5, r5, r6      ;   acc += n^2
        subs r4, r4, #1     ;   n -= 1  (fused flags)
        bne .-12            ;   until n == 0
        mov r0, r5
        svc #1              ; emit acc
        svc #0              ; exit
    ";
    let program = Program::new(0x1000, parse_listing(listing).expect("assembles"));
    println!("guest program:\n{}", program.disassemble());

    let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);

    // Baseline: pure lift/lower through the TCG-like IR.
    let mut qemu = Engine::new(None, EngineConfig::default());
    let q = qemu.run(&program, &setup).expect("qemu run");
    println!("qemu-path : output {:?}", q.output);
    println!(
        "            {:.2} host instrs/guest instr, coverage {:.0}%",
        q.metrics.total_ratio(),
        q.metrics.coverage() * 100.0
    );

    // Parameterized: rules learned from the synthetic suite (leave-one-
    // out style) and expanded along the opcode/addressing-mode
    // dimensions with condition-flag delegation.
    let suite = pdbt::workloads::suite(Scale::tiny());
    let learned = learn_suite(&suite, Some(Benchmark::Mcf));
    let (rules, stats) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
    println!(
        "\nrules: {} learned -> {} applicable after parameterization",
        stats.learned, stats.instantiated
    );
    let mut para = Engine::new(Some(rules), EngineConfig::default());
    let p = para.run(&program, &setup).expect("para run");
    assert_eq!(p.output, q.output, "both translators agree");
    println!("para      : output {:?}", p.output);
    println!(
        "            {:.2} host instrs/guest instr, coverage {:.1}%",
        p.metrics.total_ratio(),
        p.metrics.coverage() * 100.0
    );
    println!(
        "\nspeedup (executed-host-instruction proxy): {:.2}x",
        q.metrics.host_executed() as f64 / p.metrics.host_executed() as f64
    );
}
