//! Peek inside the translator: print one guest basic block next to the
//! host code each configuration generates for it, with per-instruction
//! cost classes (the raw material of Table II).
//!
//! ```sh
//! cargo run --release --example dbt_trace
//! ```

use pdbt::arm::{parse_listing, Program};
use pdbt::core::derive::{derive, DeriveConfig};
use pdbt::runtime::{translate_block, CodeClass, TranslateConfig};
use pdbt::workloads::{learn_suite, Benchmark, Scale};
use pdbt_symexec::CheckOptions;

fn class_tag(c: CodeClass) -> &'static str {
    match c {
        CodeClass::RuleCore => "rule",
        CodeClass::QemuCore => "qemu",
        CodeClass::DataTransfer => "data",
        CodeClass::Control => "ctrl",
    }
}

fn main() {
    let listing = "
        eor r6, r4, #21
        add r5, r5, r6
        and r6, r6, #255
        subs r4, r4, #1
        bne .-16
    ";
    let program = Program::new(0x2000, parse_listing(listing).expect("assembles"));
    println!("guest block:\n{}", program.disassemble());

    let suite = pdbt::workloads::suite(Scale::tiny());
    let learned = learn_suite(&suite, Some(Benchmark::Mcf));
    let (rules, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());

    for (label, rules) in [("qemu path", None), ("parameterized rules", Some(&rules))] {
        let block = translate_block(&program, 0x2000, rules, &TranslateConfig::default())
            .expect("translates");
        println!(
            "--- {label}: {} host instructions, {}/{} guest instructions rule-covered ---",
            block.code.len(),
            block.rule_covered,
            block.guest_len
        );
        for (inst, class) in block.code.iter().zip(&block.classes) {
            println!("  [{}] {}", class_tag(*class), inst);
        }
        println!();
    }
}
