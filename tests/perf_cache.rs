//! Acceptance tests for the campaign-lifetime validation cache and
//! portfolio SAT: both must be *semantically invisible* — the engine's
//! committed findings equal a straight-line, uncached reference over the
//! same seeds, with portfolio racing on or off, at `--jobs 1` and
//! `--jobs 4`; reports and saved corpora are byte-identical across
//! `--jobs` — and the pool-wide cache counters must reconcile exactly with
//! the per-session tallies summed over every worker.

use gauntlet_core::{
    bug_report_json, cache_summary_from_json, hunt_mutation_seed, CacheSummary, CoverageOptions,
    Gauntlet, HuntConfig, HuntReport, MetamorphicChecker, MetamorphicOptions, ParallelCampaign,
    Platform, SeedOutcome, SeededBug,
};
use p4_gen::{GeneratorConfig, RandomProgramGenerator};
use std::path::PathBuf;

mod common;
use common::full_acceptance;

/// Seed budget: the full matrix runs 50-seed hunts in CI, a 10-seed smoke
/// variant by default.
fn budget() -> usize {
    if full_acceptance() {
        50
    } else {
        10
    }
}

/// The compiler under test: the catalogue's first P4C semantic (non-crash)
/// seeded bug — the same selection as the committed trajectory bench — so
/// hunts produce real counterexamples and the solver path (not just
/// structural discharge) is exercised.
fn hunted_compiler() -> p4c::Compiler {
    SeededBug::catalogue()
        .into_iter()
        .find(|b| b.platform() == Platform::P4c && !b.is_crash_class())
        .expect("catalogue has a P4C semantic bug")
        .build_compiler()
}

/// A hunt over the fixed seed range with both oracle dimensions on
/// (translation validation + metamorphic mutation), parameterised by the
/// two knobs under test.
fn hunt(jobs: usize, portfolio: bool) -> HuntReport {
    ParallelCampaign::new(HuntConfig {
        jobs,
        seed_start: 0,
        seed_count: budget(),
        generator: GeneratorConfig::tiny(),
        mutation: Some(MetamorphicOptions::default()),
        portfolio,
        ..HuntConfig::default()
    })
    .run(hunted_compiler)
}

/// The straight-line reference for [`hunt`]: the same seeds checked one
/// after another, without the worker pool and without any shared cache —
/// every program gets a fresh, uncached validation session through
/// [`Gauntlet::check_open_compiler`], and one uncached
/// [`MetamorphicChecker`] serves every mutant family.
fn reference_outcomes() -> Vec<SeedOutcome> {
    let gauntlet = Gauntlet::default();
    let compiler = hunted_compiler();
    let options = MetamorphicOptions::default();
    let mut checker = MetamorphicChecker::new(hunted_compiler());
    let mut outcomes = Vec::new();
    for seed in 0..budget() as u64 {
        let program = RandomProgramGenerator::new(GeneratorConfig::tiny(), seed).generate();
        let open = gauntlet.check_open_compiler(&compiler, &program);
        let mut reports = open.reports;
        let mutated = match &open.compiled {
            Some(seed_final) => gauntlet.check_mutants_against(
                &mut checker,
                seed_final,
                &program,
                &options,
                hunt_mutation_seed(seed),
            ),
            None => {
                gauntlet.check_mutants(&mut checker, &program, &options, hunt_mutation_seed(seed))
            }
        };
        reports.extend(mutated.reports);
        if !reports.is_empty() {
            outcomes.push(SeedOutcome { seed, reports });
        }
    }
    outcomes
}

/// Outcomes as comparable data: every report in its full JSON form.
fn findings(outcomes: &[SeedOutcome]) -> Vec<(u64, Vec<String>)> {
    outcomes
        .iter()
        .map(|outcome| {
            let reports = outcome.reports.iter().map(bug_report_json).collect();
            (outcome.seed, reports)
        })
        .collect()
}

/// A scratch path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gauntlet-perf-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// The headline determinism claim: across the knob matrix — portfolio
/// on/off × `--jobs` 1/4 — the engine commits exactly the findings of the
/// straight-line, uncached reference, report for report.  Cached SAT
/// verdicts carry canonical models and portfolio races are
/// verdict-preserving, so neither the shared cache nor any knob may change
/// a single byte of output.
#[test]
fn reports_are_byte_identical_across_cache_jobs_and_portfolio() {
    let reference = findings(&reference_outcomes());
    let total: usize = reference.iter().map(|(_, reports)| reports.len()).sum();
    assert!(
        total > 0,
        "the seeded bug must be visible, or the matrix proves nothing"
    );
    // Findings carry counterexamples: the canonical-model discipline is
    // actually load-bearing in this comparison.
    assert!(
        reference
            .iter()
            .flat_map(|(_, reports)| reports)
            .any(|report| report.contains("semantic difference")),
        "{reference:?}"
    );
    let mut rendered = None;
    for (jobs, portfolio) in [(1, false), (4, false), (1, true), (4, true)] {
        let variant = hunt(jobs, portfolio);
        assert_eq!(
            reference,
            findings(&variant.outcomes),
            "jobs={jobs} portfolio={portfolio} diverged from the uncached reference"
        );
        assert_eq!(variant.total_bugs, total);
        assert_eq!(variant.programs_checked, budget());
        let render = variant.render();
        assert_eq!(
            rendered.get_or_insert_with(|| render.clone()),
            &render,
            "jobs={jobs} portfolio={portfolio} changed the report"
        );
    }
}

/// The coverage feedback loop (adaptive weights + corpus admission) is
/// downstream of validation, so the shared cache must leave the saved
/// corpus byte-identical at any `--jobs`.
#[test]
fn corpus_bytes_are_identical_across_jobs() {
    let corpus_hunt = |jobs: usize, path: &PathBuf| -> HuntReport {
        let _ = std::fs::remove_file(path);
        ParallelCampaign::new(HuntConfig {
            jobs,
            seed_start: 0,
            seed_count: budget(),
            generator: GeneratorConfig::tiny(),
            coverage: Some(CoverageOptions {
                adapt: true,
                adapt_every: budget().div_ceil(2).max(1),
                corpus: Some(path.display().to_string()),
                ..CoverageOptions::default()
            }),
            ..HuntConfig::default()
        })
        .run(p4c::Compiler::reference)
    };
    let path_1 = scratch("corpus-jobs1.txt");
    let baseline = corpus_hunt(1, &path_1);
    let bytes_1 = std::fs::read(&path_1).expect("corpus saved at jobs 1");
    assert!(!bytes_1.is_empty());
    for jobs in [2, 4] {
        let path = scratch(&format!("corpus-jobs{jobs}.txt"));
        let variant = corpus_hunt(jobs, &path);
        assert_eq!(baseline.render(), variant.render(), "jobs={jobs}");
        assert_eq!(baseline.coverage, variant.coverage, "jobs={jobs}");
        let bytes = std::fs::read(&path).expect("corpus saved");
        let _ = std::fs::remove_file(&path);
        assert_eq!(bytes_1, bytes, "jobs={jobs} changed the corpus bytes");
    }
    let _ = std::fs::remove_file(path_1);
}

/// Cross-epoch reuse must be semantically invisible too.  A coverage-
/// guided hunt whose adaptation interval cuts the seed range into several
/// epochs exercises the campaign-lifetime cache across epoch barriers
/// (semantics memo, verdict memo, and interner all survive into the next
/// epoch); the rendered report, the coverage block, and the saved corpus
/// must still be byte-identical at `--jobs` 1, 2 and 4.
#[test]
fn multi_epoch_reports_and_corpus_are_identical_across_jobs() {
    // Strictly less than the seed count, so the hunt crosses epoch
    // boundaries (ceil(budget / epoch_len) >= 3 epochs).
    let epoch_len = (budget() / 3).max(2);
    let epoch_hunt = |jobs: usize, path: &PathBuf| -> HuntReport {
        let _ = std::fs::remove_file(path);
        ParallelCampaign::new(HuntConfig {
            jobs,
            seed_start: 0,
            seed_count: budget(),
            generator: GeneratorConfig::tiny(),
            coverage: Some(CoverageOptions {
                adapt: true,
                adapt_every: epoch_len,
                corpus: Some(path.display().to_string()),
                ..CoverageOptions::default()
            }),
            mutation: Some(MetamorphicOptions::default()),
            ..HuntConfig::default()
        })
        .run(hunted_compiler)
    };
    let base_path = scratch("multi-epoch-baseline.txt");
    let baseline = epoch_hunt(1, &base_path);
    let baseline_bytes = std::fs::read(&base_path).expect("baseline corpus saved");
    let _ = std::fs::remove_file(&base_path);
    assert!(baseline.total_bugs > 0, "the seeded bug must be visible");
    let summary = baseline.cache.expect("cache summary present");
    assert!(
        summary.epochs > 1,
        "the matrix must actually cross epoch boundaries: {summary:?}"
    );
    for jobs in [2, 4] {
        let path = scratch(&format!("multi-epoch-jobs{jobs}.txt"));
        let variant = epoch_hunt(jobs, &path);
        assert_eq!(
            baseline.render(),
            variant.render(),
            "jobs={jobs} changed the multi-epoch report"
        );
        assert_eq!(baseline.coverage, variant.coverage);
        let bytes = std::fs::read(&path).expect("variant corpus saved");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            baseline_bytes, bytes,
            "jobs={jobs} changed the corpus bytes"
        );
        assert_eq!(
            variant.cache.expect("cache summary present").epochs,
            summary.epochs
        );
    }
}

/// Exact accounting under the parallel pool: the pool-wide [`CacheStats`]
/// (counted inside the shared cache) and the per-session tallies (summed
/// over every worker session of both oracle dimensions) must reconcile
/// *exactly* at the lookup level — every hit and miss attributed, none
/// dropped, none double-counted — even with four workers racing.
#[test]
fn cache_counters_reconcile_with_session_tallies() {
    for jobs in [1, 4] {
        let report = hunt(jobs, false);
        let summary = report.cache.expect("cache summary present");
        assert_eq!(summary.epochs, 1, "mutation-only hunts run one epoch");
        let (cache, sessions) = (summary.stats, summary.sessions);
        assert_eq!(
            cache.semantics_hits, sessions.semantics_hits,
            "jobs={jobs}: semantics hits diverge: {summary:?}"
        );
        assert_eq!(
            cache.semantics_misses, sessions.semantics_misses,
            "jobs={jobs}: semantics misses diverge: {summary:?}"
        );
        assert_eq!(
            cache.verdict_hits, sessions.verdict_hits,
            "jobs={jobs}: verdict hits diverge: {summary:?}"
        );
        assert_eq!(
            cache.verdict_misses, sessions.verdict_misses,
            "jobs={jobs}: verdict misses diverge: {summary:?}"
        );
        // The hunt did real work through the cache on both layers.
        assert!(cache.semantics_lookups() > 0, "jobs={jobs}: {summary:?}");
        assert!(cache.verdict_lookups() > 0, "jobs={jobs}: {summary:?}");
        assert!(
            sessions.solver_checks > 0,
            "jobs={jobs}: seeded bug must force solving: {summary:?}"
        );
    }
}

/// With no bug quota every seed is processed exactly once, so the cache
/// counters themselves are schedule-independent: the full summary is equal
/// at `--jobs 1` and `--jobs 4` (misses count distinct work by
/// construction — the miss is recorded at insert, so a racing loser counts
/// as a hit, exactly like a sequential second lookup).
#[test]
fn cache_counters_are_schedule_independent_without_a_quota() {
    let sequential = hunt(1, false);
    let parallel = hunt(4, false);
    assert_eq!(
        sequential.cache.expect("summary on"),
        parallel.cache.expect("summary on"),
        "quota-free hunts must produce identical cache accounting"
    );
}

/// The engine always validates through its campaign cache, so every hunt
/// carries the summary block — with or without portfolio racing — and the
/// block round-trips through the JSON report.  It never leaks into the
/// rendered report (it is run-descriptive, like `elapsed`).
#[test]
fn cache_summary_is_always_present_and_never_rendered() {
    for portfolio in [false, true] {
        let report = hunt(2, portfolio);
        let summary = report.cache.expect("the engine fills the cache summary");
        assert_eq!(summary.epochs, 1, "mutation-only hunts run one epoch");
        assert!(summary.stats.semantics_lookups() > 0, "{summary:?}");
        let document = gauntlet_telemetry::json::parse(&report.to_json()).expect("report parses");
        let cache = document
            .get("run")
            .and_then(|run| run.get("cache"))
            .expect("run.cache present");
        assert_eq!(
            cache_summary_from_json(cache).expect("cache block parses"),
            summary
        );
        let rendered = report.render();
        assert!(
            !rendered.to_lowercase().contains("cache"),
            "the render must not depend on run-descriptive cache data:\n{rendered}"
        );
    }
}

/// Portfolio racing keeps the race *count* deterministic per seed range:
/// escalation triggers on a fixed conflict budget over a deterministic
/// query stream, so the tally is schedule-independent too.
#[test]
fn portfolio_race_count_is_schedule_independent() {
    let sequential = hunt(1, true);
    let parallel = hunt(4, true);
    let races_1 = sequential.cache.expect("summary on").portfolio_races;
    let races_4 = parallel.cache.expect("summary on").portfolio_races;
    assert_eq!(races_1, races_4, "portfolio race tallies diverged");
}

/// `CacheSummary` is plain data with an exhaustive equality: a copy round-
/// trips and a default is all-zero (the shape the golden-report fixture
/// relies on).
#[test]
fn cache_summary_default_is_all_zero() {
    let summary = CacheSummary::default();
    assert_eq!(summary.epochs, 0);
    assert_eq!(summary.stats.semantics_lookups(), 0);
    assert_eq!(summary.stats.verdict_lookups(), 0);
    assert_eq!(summary.sessions.solver_checks, 0);
    assert_eq!(summary.portfolio_races, 0);
}
