//! The work of each child process: set-up, a campaign, a one-at-a-time
//! pass (untraced or traced), or one pinned hard input.  Each prints one
//! JSON object on its last stdout line.

use crate::procs::own_peak_rss_kb;
use crate::trace::{layer_times, spans_jsonl, Tracer};
use crate::workload::{table_input, Pinned, Plan, JOBS};
use gauntlet_core::{
    bug_report_json, hunt_mutation_seed, BugKind, BugReport, CampaignCache, CompilerArea, Gauntlet,
    GauntletOptions, MetamorphicChecker, ParallelCampaign, Platform, SeedOutcome, Technique,
};
use gauntlet_telemetry::json;
use p4_ir::Program;
use p4_symbolic::{Equivalence, EquivalenceError, ValidationSession};
use p4c::{CompileError, PassArea};
use std::sync::Arc;
use std::time::Instant;
use targets::{Target, TargetRegistry};

/// Builds what a campaign worker builds before its first seed, on `JOBS`
/// threads, plus the campaign cache.
pub fn setup(plan: &Plan) -> String {
    let cache = Arc::new(CampaignCache::new());
    std::thread::scope(|scope| {
        for _ in 0..JOBS {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                std::hint::black_box(&Pipeline::new(plan, cache));
            });
        }
    });
    "{}".to_string()
}

/// One `ParallelCampaign` over the plan's range.  With `result_path` the
/// report's deterministic `result` block is written there.
pub fn campaign(plan: &Plan, start: u64, result_path: Option<&str>) -> Result<String, String> {
    let factory = || plan.compiler();
    let campaign = ParallelCampaign::new(plan.hunt_config(start));
    let started = Instant::now();
    let report = campaign.run(factory);
    let wall_s = started.elapsed().as_secs_f64();
    if let Some(path) = result_path {
        std::fs::write(path, report.deterministic_json())
            .map_err(|error| format!("cannot write `{path}`: {error}"))?;
    }
    let stats = report.cache.as_ref().map(|c| c.stats).unwrap_or_default();
    Ok(format!(
        "{{\"wall_s\":{wall_s},\"programs_checked\":{},\"cache\":{{\"semantics_hits\":{},\"semantics_misses\":{},\"verdict_hits\":{},\"verdict_misses\":{}}},\"findings\":{},\"rss_kb\":{}}}",
        report.programs_checked,
        stats.semantics_hits,
        stats.semantics_misses,
        stats.verdict_hits,
        stats.verdict_misses,
        findings_json(&report.outcomes),
        own_peak_rss_kb()
    ))
}

/// The plan's seeds one at a time through a campaign worker's per-seed
/// calls.  Traced, it splits each call into its layers and writes the
/// spans to `spans_path`.
pub fn pass(
    plan: &Plan,
    start: u64,
    judge: bool,
    spans_path: Option<&str>,
) -> Result<String, String> {
    let traced = spans_path.is_some();
    let cache = Arc::new(CampaignCache::new());
    let mut pipeline = Pipeline::new(plan, cache);
    let mut tracer = Tracer::new(traced);
    let mut per_seed_ms = Vec::with_capacity(plan.count);
    let mut outcomes = Vec::new();
    let started = Instant::now();
    for seed in start..start + plan.count as u64 {
        let seed_started = Instant::now();
        let reports = if traced {
            pipeline.check_traced(seed, &mut tracer)
        } else {
            pipeline.check(seed)
        };
        per_seed_ms.push(seed_started.elapsed().as_secs_f64() * 1e3);
        if !reports.is_empty() {
            outcomes.push(SeedOutcome { seed, reports });
        }
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    // Untimed, with `judge`: the independent half of the known answer.  A
    // metamorphic divergence traces to the seeded defect only if the
    // reference compiler does not diverge on the same mutant family.
    let mut reference_diverges = Vec::new();
    if judge {
        for outcome in &outcomes {
            let metamorphic = outcome
                .reports
                .iter()
                .any(|r| r.kind == BugKind::Metamorphic);
            if metamorphic && pipeline.reference_diverges(outcome.seed) {
                reference_diverges.push(outcome.seed);
            }
        }
    }

    let mut layers = String::from("{");
    if let Some(path) = spans_path {
        std::fs::write(path, spans_jsonl(tracer.spans()))
            .map_err(|error| format!("cannot write `{path}`: {error}"))?;
        for (index, (name, layer)) in layer_times(tracer.spans()).iter().enumerate() {
            if index > 0 {
                layers.push(',');
            }
            layers.push_str(&format!(
                "{}:{{\"self_ms\":{},\"calls\":{}}}",
                json::string(name),
                layer.self_ns as f64 / 1e6,
                layer.calls
            ));
        }
    }
    layers.push('}');
    Ok(format!(
        "{{\"wall_ms\":{wall_ms},\"per_seed_ms\":[{}],\"findings\":{},\"reference_diverges\":{:?},\"layers\":{layers},\"counters\":{}}}",
        per_seed_ms
            .iter()
            .map(|ms| ms.to_string())
            .collect::<Vec<_>>()
            .join(","),
        findings_json(&outcomes),
        reference_diverges,
        pipeline.counters.to_json(),
    ))
}

/// One pinned input, checked to a verdict.
pub fn hard(pinned: Pinned) -> String {
    let started = Instant::now();
    let (reports, conflicts) = match pinned {
        Pinned::ReferenceSeed(seed) => {
            let plan = Plan::reference();
            let mut pipeline = Pipeline::new(&plan, Arc::new(CampaignCache::new()));
            let reports = pipeline.check_traced(seed, &mut Tracer::new(false));
            (reports, pipeline.counters.conflicts)
        }
        Pinned::TableInput => {
            let (bug, program) = table_input();
            let gauntlet = Gauntlet::new(GauntletOptions::default());
            (bug.detect(&gauntlet, &program), 0)
        }
    };
    let verdict_ms = started.elapsed().as_secs_f64() * 1e3;
    format!(
        "{{\"verdict_ms\":{verdict_ms},\"conflicts\":{conflicts},\"findings\":{}}}",
        findings_json(&[SeedOutcome { seed: 0, reports }]),
    )
}

fn findings_json(outcomes: &[SeedOutcome]) -> String {
    let items: Vec<String> = outcomes
        .iter()
        .map(|outcome| {
            let reports: Vec<String> = outcome.reports.iter().map(bug_report_json).collect();
            format!(
                "{{\"seed\":{},\"reports\":[{}]}}",
                outcome.seed,
                reports.join(",")
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Work counts gathered at the layer boundaries of the traced pass.
#[derive(Debug, Default)]
struct Counters {
    snapshots: u64,
    snapshot_bytes: u64,
    semantics_hits: u64,
    semantics_misses: u64,
    trivial_checks: u64,
    solver_checks: u64,
    cached_checks: u64,
    verdict_hits: u64,
    verdict_misses: u64,
    skipped_pairs: u64,
    /// Summed over the last solver query of every pair that reached the
    /// solver (`ValidationSession::solver_stats` covers the last query).
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    /// The largest incremental solver seen.
    sat_vars: u64,
    sat_clauses: u64,
    mutants: u64,
    oracle_calls: u64,
    accepted_steps: u64,
    typecheck_rejections: u64,
}

impl Counters {
    fn to_json(&self) -> String {
        format!(
            "{{\"snapshots\":{},\"snapshot_bytes\":{},\"semantics_hits\":{},\"semantics_misses\":{},\"trivial_checks\":{},\"solver_checks\":{},\"cached_checks\":{},\"verdict_hits\":{},\"verdict_misses\":{},\"skipped_pairs\":{},\"conflicts\":{},\"decisions\":{},\"propagations\":{},\"sat_vars\":{},\"sat_clauses\":{},\"mutants\":{},\"oracle_calls\":{},\"accepted_steps\":{},\"typecheck_rejections\":{}}}",
            self.snapshots,
            self.snapshot_bytes,
            self.semantics_hits,
            self.semantics_misses,
            self.trivial_checks,
            self.solver_checks,
            self.cached_checks,
            self.verdict_hits,
            self.verdict_misses,
            self.skipped_pairs,
            self.conflicts,
            self.decisions,
            self.propagations,
            self.sat_vars,
            self.sat_clauses,
            self.mutants,
            self.oracle_calls,
            self.accepted_steps,
            self.typecheck_rejections
        )
    }
}

/// What one campaign worker holds, and its per-seed calls.
struct Pipeline<'a> {
    plan: &'a Plan,
    gauntlet: Gauntlet,
    compiler: p4c::Compiler,
    targets: Vec<Box<dyn Target>>,
    checker: Option<MetamorphicChecker>,
    cache: Arc<CampaignCache>,
    counters: Counters,
}

impl<'a> Pipeline<'a> {
    fn new(plan: &'a Plan, cache: Arc<CampaignCache>) -> Pipeline<'a> {
        let registry = TargetRegistry::builtin();
        Pipeline {
            plan,
            gauntlet: Gauntlet::new(GauntletOptions::default()),
            compiler: plan.compiler(),
            targets: plan
                .targets
                .iter()
                .map(|spec| registry.build_spec(spec).expect("plan targets are builtin"))
                .collect(),
            checker: plan
                .mutation()
                .map(|_| MetamorphicChecker::with_cache(plan.compiler(), Arc::clone(&cache))),
            cache,
            counters: Counters::default(),
        }
    }

    /// The worker's per-seed calls, unsplit, exactly as `ParallelCampaign`
    /// makes them.
    fn check(&mut self, seed: u64) -> Vec<BugReport> {
        let program = self.plan.generate(seed);
        let mut session = Some(ValidationSession::with_cache(Arc::clone(&self.cache)));
        let (gauntlet, compiler) = (&self.gauntlet, &self.compiler);
        let open = if self.plan.coverage {
            p4c::coverage::with_sink(|| {
                gauntlet.check_open_compiler_in(&mut session, compiler, &program)
            })
            .0
        } else {
            gauntlet.check_open_compiler_in(&mut session, compiler, &program)
        };
        let mut reports = open.reports;
        if !self.targets.is_empty() {
            reports.extend(gauntlet.check_differential(&self.targets, &program).reports);
        }
        if let (Some(options), Some(checker)) = (self.plan.mutation(), &mut self.checker) {
            let result = match &open.compiled {
                Some(seed_final) => gauntlet.check_mutants_against(
                    checker,
                    seed_final,
                    &program,
                    &options,
                    hunt_mutation_seed(seed),
                ),
                None => {
                    gauntlet.check_mutants(checker, &program, &options, hunt_mutation_seed(seed))
                }
            };
            reports.extend(result.reports);
        }
        if self.plan.reduce {
            for report in &mut reports {
                self.reduce(seed, &program, report);
            }
        }
        reports
    }

    /// The same calls split at every layer boundary, each in a span.
    fn check_traced(&mut self, seed: u64, tracer: &mut Tracer) -> Vec<BugReport> {
        tracer.span("input", seed, |tracer| {
            let plan = self.plan;
            let program = tracer.span("p4-gen.generate", seed, |_| plan.generate(seed));
            let mut session = ValidationSession::with_cache(Arc::clone(&self.cache));
            let mut open = || {
                open_compiler(
                    &self.compiler,
                    &mut session,
                    &program,
                    seed,
                    tracer,
                    &mut self.counters,
                )
            };
            let (mut reports, compiled) = match plan.coverage {
                true => p4c::coverage::with_sink(open).0,
                false => open(),
            };
            let stats = session.stats();
            let counters = &mut self.counters;
            counters.trivial_checks += stats.trivial_checks;
            counters.solver_checks += stats.solver_checks;
            counters.cached_checks += stats.cached_checks;
            counters.verdict_hits += stats.verdict_hits;
            counters.verdict_misses += stats.verdict_misses;

            let gauntlet = &self.gauntlet;
            if !self.targets.is_empty() {
                let targets = &self.targets;
                reports.extend(
                    tracer
                        .span("targets.differential", seed, |_| {
                            gauntlet.check_differential(targets, &program)
                        })
                        .reports,
                );
            }
            if let (Some(options), Some(checker)) = (plan.mutation(), &mut self.checker) {
                let result = tracer.span("p4-mutate.check", seed, |_| match &compiled {
                    Some(seed_final) => gauntlet.check_mutants_against(
                        checker,
                        seed_final,
                        &program,
                        &options,
                        hunt_mutation_seed(seed),
                    ),
                    None => gauntlet.check_mutants(
                        checker,
                        &program,
                        &options,
                        hunt_mutation_seed(seed),
                    ),
                });
                self.counters.mutants += result.mutants_checked as u64;
                reports.extend(result.reports);
            }
            if plan.reduce {
                for report in &mut reports {
                    tracer.span("p4-reduce.reduce", seed, |_| {
                        self.reduce(seed, &program, report)
                    });
                }
            }
            reports
        })
    }

    /// Reduces one open-compiler finding through the oracle a campaign
    /// worker picks for it.
    fn reduce(&mut self, seed: u64, program: &Program, report: &mut BugReport) {
        if report.platform != Platform::P4c {
            return;
        }
        let mut oracle: Box<dyn p4_reduce::Oracle> =
            if matches!(report.technique, Technique::MetamorphicMutation) {
                Box::new(p4_reduce::MetamorphicOracle::new(
                    self.plan.compiler(),
                    self.plan
                        .mutation()
                        .expect("metamorphic reports imply mutation"),
                    hunt_mutation_seed(seed),
                ))
            } else {
                Gauntlet::open_compiler_oracle(report, self.plan.compiler())
            };
        self.gauntlet.reduce_report(&mut *oracle, program, report);
        if let Some(stats) = &report.reduction {
            self.counters.oracle_calls += stats.oracle_calls as u64;
            self.counters.accepted_steps += stats.accepted_steps as u64;
            self.counters.typecheck_rejections += stats.typecheck_rejections as u64;
        }
    }

    /// Whether the reference compiler diverges on the seed's mutant family.
    fn reference_diverges(&self, seed: u64) -> bool {
        let Some(options) = self.plan.mutation() else {
            return false;
        };
        let mut checker = MetamorphicChecker::new(p4c::Compiler::reference());
        self.gauntlet
            .check_mutants(
                &mut checker,
                &self.plan.generate(seed),
                &options,
                hunt_mutation_seed(seed),
            )
            .reports
            .iter()
            .any(|report| report.kind == BugKind::Metamorphic)
    }
}

/// `Gauntlet::check_open_compiler_in`, split into compile, re-parse,
/// interpretation and equivalence, each in its own span.  Returns the
/// reports and the fully compiled program.
fn open_compiler(
    compiler: &p4c::Compiler,
    session: &mut ValidationSession,
    program: &Program,
    seed: u64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> (Vec<BugReport>, Option<Program>) {
    let result = match tracer.span("p4c.compile", seed, |_| compiler.compile(program)) {
        Err(CompileError::Crash {
            pass,
            area,
            message,
        }) => {
            let report = BugReport::new(
                BugKind::Crash,
                Platform::P4c,
                area_of(area),
                Technique::RandomGeneration,
                Some(pass),
                message,
            );
            return (vec![report], None);
        }
        Err(CompileError::Rejected { pass, diagnostics }) => {
            let report = BugReport::new(
                BugKind::Rejection,
                Platform::P4c,
                area_of_pass(&pass),
                Technique::RandomGeneration,
                Some(pass),
                diagnostics.join("; "),
            );
            return (vec![report], None);
        }
        Ok(result) => result,
    };
    counters.snapshots += result.snapshots.len() as u64;
    counters.snapshot_bytes += result
        .snapshots
        .iter()
        .map(|s| s.printed.len() as u64)
        .sum::<u64>();

    let mut reports = Vec::new();
    for (before, after) in result.pass_pairs() {
        let invalid = |detail: String| {
            BugReport::new(
                BugKind::InvalidTransformation,
                Platform::P4c,
                area_of(after.area),
                Technique::TranslationValidation,
                Some(after.pass_name.clone()),
                detail,
            )
        };
        let reparsed = tracer.span("p4-parser.reparse", seed, |_| {
            p4_parser::parse_program(&after.printed)
        });
        if let Err(error) = reparsed {
            reports.push(invalid(format!(
                "emitted program no longer parses: {error}"
            )));
            continue;
        }
        let looked_up = session.stats();
        tracer.span("p4-symbolic.interpret", seed, |_| {
            // A failed interpretation fails the pair's check below too.
            let _ = session.semantics(&before.program);
            let _ = session.semantics(&after.program);
        });
        let interpreted = session.stats();
        counters.semantics_hits += interpreted.semantics_hits - looked_up.semantics_hits;
        counters.semantics_misses += interpreted.semantics_misses - looked_up.semantics_misses;
        let verdict = tracer.span("p4-symbolic.equiv", seed, |_| {
            session.check_pair(&before.program, &after.program)
        });
        if session.stats().verdict_misses > interpreted.verdict_misses {
            let solver = session.solver_stats();
            counters.conflicts += solver.conflicts;
            counters.decisions += solver.decisions;
            counters.propagations += solver.propagations;
            counters.sat_vars = counters.sat_vars.max(solver.sat_variables as u64);
            counters.sat_clauses = counters.sat_clauses.max(solver.sat_clauses as u64);
        }
        match verdict {
            Ok(Equivalence::Equal) => {}
            Ok(Equivalence::NotEqual(counterexample)) => reports.push(BugReport::new(
                BugKind::Semantic,
                Platform::P4c,
                area_of(after.area),
                Technique::TranslationValidation,
                Some(after.pass_name.clone()),
                format!("{counterexample}"),
            )),
            Err(EquivalenceError::StructureMismatch { block, detail }) => reports.push(invalid(
                format!("structure mismatch in `{block}`: {detail}"),
            )),
            Err(EquivalenceError::Interpreter(_)) => counters.skipped_pairs += 1,
        }
    }
    (reports, Some(result.program))
}

fn area_of(area: PassArea) -> CompilerArea {
    match area {
        PassArea::FrontEnd => CompilerArea::FrontEnd,
        PassArea::MidEnd => CompilerArea::MidEnd,
        PassArea::BackEnd => CompilerArea::BackEnd,
    }
}

fn area_of_pass(name: &str) -> CompilerArea {
    p4c::passes::default_pipeline()
        .iter()
        .find(|pass| pass.name() == name)
        .map(|pass| area_of(pass.area()))
        .unwrap_or(CompilerArea::FrontEnd)
}
