//! Seed a bug, hunt it, reduce it: the full reporting workflow of paper §7.
//!
//! A compiler seeded with a semantic bug is hunted over a random seed range
//! with reduction enabled; every finding is delta-debugged down to a
//! minimal reproducer that still triggers the *same* bug (identical dedup
//! key) before the report is committed.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example reduce_bug -- [--jobs N] [--seeds S]
//! ```
//!
//! An unknown flag or an unparsable value exits with status 2.

use gauntlet_core::{render_reduction_summary, HuntConfig, ParallelCampaign, Platform, SeededBug};
use p4_gen::RandomProgramGenerator;
use p4_ir::print_program;

#[path = "common/flags.rs"]
mod flags;

fn main() {
    let flags = flags::Flags::parse(&["--jobs", "--seeds"], &[]);
    let jobs = flags.number("--jobs", 1);
    let seeds = flags.number("--seeds", 40);

    // Seed a miscompilation into the open compiler.
    let bug = SeededBug::catalogue()
        .into_iter()
        .find(|b| b.platform() == Platform::P4c && !b.is_crash_class())
        .expect("catalogue has a P4C semantic bug");
    println!(
        "hunting {seeds} random programs against `{}` ({jobs} job(s), reduction on) ...",
        bug.name()
    );

    let config = HuntConfig {
        jobs,
        seed_count: seeds,
        reduce_reports: true,
        ..HuntConfig::default()
    };
    let generator_config = config.generator.clone();
    let hunt = ParallelCampaign::new(config).run(|| bug.build_compiler());
    println!(
        "hunt + reduction finished in {:?} ({} program(s) checked, {} finding(s))",
        hunt.elapsed, hunt.programs_checked, hunt.total_bugs
    );
    println!();
    println!("{}", render_reduction_summary(&hunt));

    // Show the first finding in full: original vs minimized reproducer.
    let Some(outcome) = hunt.outcomes.first() else {
        println!("no findings in this seed range; try more --seeds");
        return;
    };
    let report = &outcome.reports[0];
    let original = RandomProgramGenerator::new(generator_config, outcome.seed).generate();
    let Some(stats) = report.reduction else {
        // Should not happen for the seeded catalogue (the hunt warns via
        // `reduction_failures` if an oracle ever fails to reproduce).
        println!("seed {}: finding could not be reduced", outcome.seed);
        return;
    };
    println!(
        "seed {}: {}",
        outcome.seed,
        report.message.lines().next().unwrap_or("")
    );
    println!(
        "original program: {} statements ({} AST nodes)",
        stats.initial_statements,
        original.size()
    );
    println!(
        "minimized program: {} statements ({} AST nodes, {:.0}% of the original, {} oracle calls)",
        stats.final_statements,
        stats.final_nodes,
        stats.statement_ratio() * 100.0,
        stats.oracle_calls
    );
    println!();
    println!("--- minimized reproducer ---");
    println!(
        "{}",
        report
            .minimized
            .as_deref()
            .expect("reduction attaches the source")
    );
    println!("--- original program (for comparison) ---");
    println!("{}", print_program(&original));
}
