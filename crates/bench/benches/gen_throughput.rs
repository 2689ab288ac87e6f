//! Experiment §5.2 — campaign throughput (programs checked per second).
//!
//! The paper reports generating roughly 10 000 programs per week of
//! wall-clock campaign time (dominated by compilation and validation, not
//! generation).  This bench measures raw generator throughput, the
//! end-to-end per-program cost of the full local pipeline, and — the
//! headline number — the parallel campaign engine's throughput scaling
//! across `--jobs`.
//!
//! Run with `cargo bench --bench gen_throughput`.

use criterion::{criterion_group, criterion_main, Criterion};
use gauntlet_core::{Gauntlet, HuntConfig, ParallelCampaign};
use p4_gen::{GeneratorConfig, RandomProgramGenerator};
use p4c::Compiler;

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("gen_throughput");
    group.sample_size(20);
    group.bench_function("generate_default_program", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut generator = RandomProgramGenerator::new(GeneratorConfig::default(), seed);
            std::hint::black_box(generator.generate().size());
        })
    });
    group.bench_function("generate_and_type_check", |b| {
        let mut seed = 10_000u64;
        b.iter(|| {
            seed += 1;
            let mut generator = RandomProgramGenerator::new(GeneratorConfig::default(), seed);
            let program = generator.generate();
            assert!(p4_check::check_program(&program).is_empty());
        })
    });
    group.sample_size(10);
    group.bench_function("generate_compile_validate_tiny", |b| {
        let gauntlet = Gauntlet::default();
        let compiler = Compiler::reference();
        let mut seed = 20_000u64;
        b.iter(|| {
            seed += 1;
            let mut generator = RandomProgramGenerator::new(GeneratorConfig::tiny(), seed);
            let program = generator.generate();
            let outcome = gauntlet.check_open_compiler(&compiler, &program);
            std::hint::black_box(outcome.reports.len());
        })
    });
    group.finish();
}

/// The campaign-engine comparison: throughput at increasing `--jobs`.
/// Printed as a table so the reproduction guide can quote it directly.
fn campaign_scaling(_c: &mut Criterion) {
    const SEEDS: usize = 200;
    let base = HuntConfig {
        seed_start: 0,
        seed_count: SEEDS,
        generator: GeneratorConfig::tiny(),
        ..HuntConfig::default()
    };

    println!();
    println!("campaign throughput over {SEEDS} generated programs (reference compiler):");
    let mut baseline = None;
    let mut reference_render = None;
    for jobs in [1usize, 2, 4] {
        let config = HuntConfig {
            jobs,
            ..base.clone()
        };
        let report = ParallelCampaign::new(config).run(Compiler::reference);
        let throughput = report.throughput();
        let speedup = baseline.map(|b: f64| throughput / b).unwrap_or(1.0);
        baseline.get_or_insert(throughput);
        println!(
            "  --jobs {jobs}: {:>8.1} programs/s  ({:>6.2}x vs --jobs 1, {:?} wall clock)",
            throughput, speedup, report.elapsed
        );
        // The determinism contract: every jobs setting commits the identical
        // report.
        match &reference_render {
            None => reference_render = Some(report.render()),
            Some(expected) => assert_eq!(
                expected,
                &report.render(),
                "bug reports must be byte-identical across --jobs"
            ),
        }
    }
}

criterion_group!(benches, bench_generation, campaign_scaling);
criterion_main!(benches);
