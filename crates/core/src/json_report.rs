//! The machine-readable campaign report: `gauntlet-report-v1`.
//!
//! [`HuntReport::to_json`] renders the whole report as one versioned JSON
//! document with two top-level halves:
//!
//! * `"result"` — the deterministic outcome: bugs (with attribution and
//!   reduction statistics), the aggregated table-2/3 summary, and the
//!   coverage/mutation blocks.  A pure function of the
//!   [`HuntConfig`](crate::campaign::HuntConfig):
//!   byte-identical at any `--jobs`, with or without telemetry, cache, or
//!   portfolio (also available alone via
//!   [`HuntReport::deterministic_json`], which the determinism tests pin).
//! * `"run"` — everything that describes the particular execution and is
//!   therefore excluded from [`HuntReport::render`]: `elapsed`, the
//!   per-worker loads, the [`CacheSummary`], and the telemetry flight
//!   recorder.
//!
//! Every `render_*` table is derivable from the document: `render` needs
//! only `result.outcomes` + the coverage/mutation blocks, and
//! `render_table2`/`render_table3` need only `result.summary` — a property
//! `tests/golden_report.rs` proves by re-rendering the tables from the
//! parsed JSON alone.
//!
//! The workspace's `serde` shim is a no-op, so the document is hand-written
//! with a fixed key order (the same discipline as the committed
//! `BENCH_*.json` trajectory files) using `gauntlet_telemetry::json` for
//! escaping.

use crate::bugs::{BugKind, BugReport, CompilerArea, Platform, Technique};
use crate::campaign::{
    CacheSummary, CoverageSummary, DiversitySummary, HuntReport, MutationSummary, SeedOutcome,
};
use gauntlet_telemetry::json;
use gauntlet_telemetry::json::Json;
use p4_symbolic::{CacheStats, SessionStats};
use std::collections::BTreeMap;
use std::time::Duration;

/// Schema tag of the JSON report document.
pub const REPORT_SCHEMA: &str = "gauntlet-report-v1";

fn json_opt_string(value: &Option<String>) -> String {
    match value {
        Some(text) => json::string(text),
        None => "null".to_string(),
    }
}

fn json_counter_map(map: &BTreeMap<String, usize>) -> String {
    let mut out = String::from("{");
    for (index, (key, value)) in map.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", json::string(key), value));
    }
    out.push('}');
    out
}

fn json_string_array(items: &[String]) -> String {
    let mut out = String::from("[");
    for (index, item) in items.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str(&json::string(item));
    }
    out.push(']');
    out
}

/// Serialize one [`BugReport`] in the `gauntlet-report-v1` layout.  Public
/// because the fleet's `TriageStore` persists first-seen reports in exactly
/// this form (so triage bytes match report bytes).
pub fn bug_report_json(report: &BugReport) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"kind\":{}",
        json::string(&format!("{:?}", report.kind))
    ));
    out.push_str(&format!(
        ",\"platform\":{}",
        json::string(&report.platform.to_string())
    ));
    out.push_str(&format!(
        ",\"area\":{}",
        json::string(&report.area.to_string())
    ));
    out.push_str(&format!(
        ",\"technique\":{}",
        json::string(&format!("{:?}", report.technique))
    ));
    out.push_str(&format!(",\"pass\":{}", json_opt_string(&report.pass)));
    out.push_str(&format!(",\"message\":{}", json::string(&report.message)));
    out.push_str(&format!(
        ",\"attributed_to\":{}",
        json_opt_string(&report.attributed_to)
    ));
    out.push_str(&format!(
        ",\"minimized\":{}",
        json_opt_string(&report.minimized)
    ));
    match &report.reduction {
        Some(stats) => out.push_str(&format!(
            ",\"reduction\":{{\"initial_statements\":{},\"final_statements\":{},\"initial_nodes\":{},\"final_nodes\":{},\"oracle_calls\":{},\"typecheck_rejections\":{},\"accepted_steps\":{},\"rounds\":{}}}",
            stats.initial_statements,
            stats.final_statements,
            stats.initial_nodes,
            stats.final_nodes,
            stats.oracle_calls,
            stats.typecheck_rejections,
            stats.accepted_steps,
            stats.rounds
        )),
        None => out.push_str(",\"reduction\":null"),
    }
    out.push('}');
    out
}

fn coverage_json(coverage: &CoverageSummary) -> String {
    let mut trajectory = String::from("[");
    for (index, (programs, rules)) in coverage.rules_over_time.iter().enumerate() {
        if index > 0 {
            trajectory.push(',');
        }
        trajectory.push_str(&format!("[{programs},{rules}]"));
    }
    trajectory.push(']');
    format!(
        "{{\"fired\":{},\"rules_total\":{},\"constructs_seen\":{},\"corpus_size\":{},\"corpus_added\":{},\"rules_over_time\":{},\"pairs\":{},\"pairs_total\":{}}}",
        json_string_array(&coverage.fired),
        coverage.rules_total,
        coverage.constructs_seen,
        coverage.corpus_size,
        coverage.corpus_added,
        trajectory,
        json_string_array(&coverage.pairs),
        coverage.pairs_total
    )
}

fn diversity_json(diversity: &DiversitySummary) -> String {
    format!(
        "{{\"slices\":{},\"distinct_bugs\":{}}}",
        diversity.slices,
        json_counter_map(&diversity.distinct_bugs)
    )
}

fn mutation_json(mutation: &MutationSummary) -> String {
    format!(
        "{{\"mutants_checked\":{},\"divergent\":{},\"fired\":{},\"rules_total\":{}}}",
        mutation.mutants_checked,
        mutation.divergent,
        json_string_array(&mutation.fired),
        mutation.rules_total
    )
}

/// Render a [`CacheSummary`] as its `gauntlet-report-v1` `run.cache`
/// object.  Public because fleet fragments embed the same shape (a worker
/// reports its shard's cache counters through the frame protocol and the
/// coordinator sums them into the merged summary).
pub fn cache_json(cache: &CacheSummary) -> String {
    format!(
        "{{\"epochs\":{},\"stats\":{{\"semantics_hits\":{},\"semantics_misses\":{},\"verdict_hits\":{},\"verdict_misses\":{}}},\"sessions\":{{\"semantics_hits\":{},\"semantics_misses\":{},\"trivial_checks\":{},\"solver_checks\":{},\"cached_checks\":{},\"verdict_hits\":{},\"verdict_misses\":{}}},\"portfolio_races\":{}}}",
        cache.epochs,
        cache.stats.semantics_hits,
        cache.stats.semantics_misses,
        cache.stats.verdict_hits,
        cache.stats.verdict_misses,
        cache.sessions.semantics_hits,
        cache.sessions.semantics_misses,
        cache.sessions.trivial_checks,
        cache.sessions.solver_checks,
        cache.sessions.cached_checks,
        cache.sessions.verdict_hits,
        cache.sessions.verdict_misses,
        cache.portfolio_races
    )
}

/// Parse a `run.cache`-shaped object back into a [`CacheSummary`] — the
/// inverse of [`cache_json`].  Fleet workers embed this shape in fragment
/// bodies; the coordinator parses and sums the blocks at merge time.
pub fn cache_summary_from_json(value: &Json) -> Result<CacheSummary, String> {
    fn counter(value: &Json, key: &str) -> Result<u64, String> {
        req(value, key)?
            .as_u64()
            .ok_or_else(|| format!("`{key}` is not an integer"))
    }
    let stats = req(value, "stats")?;
    let sessions = req(value, "sessions")?;
    Ok(CacheSummary {
        epochs: usize_field(value, "epochs")?,
        stats: CacheStats {
            semantics_hits: counter(stats, "semantics_hits")?,
            semantics_misses: counter(stats, "semantics_misses")?,
            verdict_hits: counter(stats, "verdict_hits")?,
            verdict_misses: counter(stats, "verdict_misses")?,
        },
        sessions: SessionStats {
            semantics_hits: counter(sessions, "semantics_hits")?,
            semantics_misses: counter(sessions, "semantics_misses")?,
            trivial_checks: counter(sessions, "trivial_checks")?,
            solver_checks: counter(sessions, "solver_checks")?,
            cached_checks: counter(sessions, "cached_checks")?,
            verdict_hits: counter(sessions, "verdict_hits")?,
            verdict_misses: counter(sessions, "verdict_misses")?,
        },
        portfolio_races: counter(value, "portfolio_races")?,
    })
}

fn req<'a>(value: &'a Json, key: &str) -> Result<&'a Json, String> {
    value.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn usize_field(value: &Json, key: &str) -> Result<usize, String> {
    req(value, key)?
        .as_u64()
        .map(|n| n as usize)
        .ok_or_else(|| format!("`{key}` is not an integer"))
}

fn string_field(value: &Json, key: &str) -> Result<String, String> {
    req(value, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn opt_string_field(value: &Json, key: &str) -> Result<Option<String>, String> {
    match req(value, key)? {
        Json::Null => Ok(None),
        other => other
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("`{key}` is not a string or null")),
    }
}

fn string_array_field(value: &Json, key: &str) -> Result<Vec<String>, String> {
    let items = req(value, key)?
        .as_array()
        .ok_or_else(|| format!("`{key}` is not an array"))?;
    items
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` holds a non-string"))
        })
        .collect()
}

/// Parse one bug report from its `gauntlet-report-v1` object form — the
/// exact inverse of [`bug_report_json`] (round-trip pinned by test).
pub fn bug_report_from_json(value: &Json) -> Result<BugReport, String> {
    let kind_name = string_field(value, "kind")?;
    let kind = BugKind::from_name(&kind_name).ok_or_else(|| format!("bad kind `{kind_name}`"))?;
    let platform_name = string_field(value, "platform")?;
    let platform = Platform::from_display(&platform_name)
        .ok_or_else(|| format!("bad platform `{platform_name}`"))?;
    let area_name = string_field(value, "area")?;
    let area =
        CompilerArea::from_display(&area_name).ok_or_else(|| format!("bad area `{area_name}`"))?;
    let technique_name = string_field(value, "technique")?;
    let technique = Technique::from_name(&technique_name)
        .ok_or_else(|| format!("bad technique `{technique_name}`"))?;
    let reduction = match req(value, "reduction")? {
        Json::Null => None,
        stats => Some(p4_reduce::ReductionStats {
            initial_statements: usize_field(stats, "initial_statements")?,
            final_statements: usize_field(stats, "final_statements")?,
            initial_nodes: usize_field(stats, "initial_nodes")?,
            final_nodes: usize_field(stats, "final_nodes")?,
            oracle_calls: usize_field(stats, "oracle_calls")?,
            typecheck_rejections: usize_field(stats, "typecheck_rejections")?,
            accepted_steps: usize_field(stats, "accepted_steps")?,
            rounds: usize_field(stats, "rounds")?,
        }),
    };
    Ok(BugReport {
        kind,
        platform,
        area,
        technique,
        pass: opt_string_field(value, "pass")?,
        message: string_field(value, "message")?,
        attributed_to: opt_string_field(value, "attributed_to")?,
        minimized: opt_string_field(value, "minimized")?,
        reduction,
    })
}

/// Parse the `outcomes` array of a `result` document.
pub fn outcomes_from_json(value: &Json) -> Result<Vec<SeedOutcome>, String> {
    let items = value.as_array().ok_or("`outcomes` is not an array")?;
    items
        .iter()
        .map(|outcome| {
            let seed = req(outcome, "seed")?
                .as_u64()
                .ok_or("`seed` is not an integer")?;
            let reports = req(outcome, "reports")?
                .as_array()
                .ok_or("`reports` is not an array")?
                .iter()
                .map(bug_report_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(SeedOutcome { seed, reports })
        })
        .collect()
}

/// Parse a `coverage` block.
pub fn coverage_from_json(value: &Json) -> Result<CoverageSummary, String> {
    let trajectory = req(value, "rules_over_time")?
        .as_array()
        .ok_or("`rules_over_time` is not an array")?
        .iter()
        .map(|pair| {
            let pair = pair.as_array().ok_or("trajectory entry is not a pair")?;
            match pair {
                [programs, rules] => Ok((
                    programs.as_u64().ok_or("bad trajectory count")? as usize,
                    rules.as_u64().ok_or("bad trajectory count")? as usize,
                )),
                _ => Err("trajectory entry is not a pair".to_string()),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    // `pairs`/`pairs_total` are absent from pre-pair-tracking documents;
    // tolerate that instead of rejecting the whole report.
    let pairs = match value.get("pairs") {
        Some(_) => string_array_field(value, "pairs")?,
        None => Vec::new(),
    };
    let pairs_total = match value.get("pairs_total") {
        Some(_) => usize_field(value, "pairs_total")?,
        None => 0,
    };
    Ok(CoverageSummary {
        fired: string_array_field(value, "fired")?,
        rules_total: usize_field(value, "rules_total")?,
        constructs_seen: usize_field(value, "constructs_seen")?,
        corpus_size: usize_field(value, "corpus_size")?,
        corpus_added: usize_field(value, "corpus_added")?,
        rules_over_time: trajectory,
        pairs,
        pairs_total,
    })
}

/// Parse a `diversity` block.
pub fn diversity_from_json(value: &Json) -> Result<DiversitySummary, String> {
    let map = req(value, "distinct_bugs")?;
    let entries = map
        .as_object()
        .ok_or("`distinct_bugs` is not an object")?
        .iter()
        .map(|(slice, count)| {
            count
                .as_u64()
                .map(|n| (slice.clone(), n as usize))
                .ok_or_else(|| format!("`distinct_bugs.{slice}` is not an integer"))
        })
        .collect::<Result<BTreeMap<_, _>, String>>()?;
    Ok(DiversitySummary {
        slices: usize_field(value, "slices")?,
        distinct_bugs: entries,
    })
}

/// Parse a `mutation` block.
pub fn mutation_from_json(value: &Json) -> Result<MutationSummary, String> {
    Ok(MutationSummary {
        mutants_checked: usize_field(value, "mutants_checked")?,
        divergent: usize_field(value, "divergent")?,
        fired: string_array_field(value, "fired")?,
        rules_total: usize_field(value, "rules_total")?,
    })
}

/// Reconstruct a [`HuntReport`] from the deterministic `result` half of a
/// `gauntlet-report-v1` document (either the bare [`deterministic_json`]
/// object or the `result` field of a full [`to_json`] document).
///
/// Only the deterministic fields are recovered: `elapsed` is zero,
/// `per_worker` is empty, and the run-descriptive `cache`/`telemetry`
/// blocks are `None` — which is exactly what `render`, `render_table2`, and
/// `render_table3` need.  The round trip
/// `report.deterministic_json()` → parse → `hunt_result_from_json` →
/// `.deterministic_json()` is byte-identical (pinned by test), which is the
/// property the fleet merge relies on.
///
/// [`deterministic_json`]: HuntReport::deterministic_json
/// [`to_json`]: HuntReport::to_json
pub fn hunt_result_from_json(value: &Json) -> Result<HuntReport, String> {
    let result = match value.get("result") {
        Some(result) => result,
        None => value,
    };
    let coverage = match req(result, "coverage")? {
        Json::Null => None,
        block => Some(coverage_from_json(block)?),
    };
    let mutation = match req(result, "mutation")? {
        Json::Null => None,
        block => Some(mutation_from_json(block)?),
    };
    // Absent from pre-diversity documents; tolerate like `coverage.pairs`.
    let diversity = match result.get("diversity") {
        None | Some(Json::Null) => None,
        Some(block) => Some(diversity_from_json(block)?),
    };
    let outcomes = outcomes_from_json(req(result, "outcomes")?)?;
    let total_bugs = usize_field(result, "total_bugs")?;
    Ok(HuntReport {
        outcomes,
        programs_checked: usize_field(result, "programs_checked")?,
        total_bugs,
        elapsed: Duration::ZERO,
        per_worker: Vec::new(),
        reduction_failures: usize_field(result, "reduction_failures")?,
        coverage,
        mutation,
        diversity,
        cache: None,
        telemetry: None,
    })
}

impl HuntReport {
    /// The deterministic half of the report as one JSON object: outcomes
    /// (with full bug reports and reduction statistics), the aggregated
    /// table summary, and the coverage/mutation blocks.  Byte-identical at
    /// any `--jobs` and with telemetry/cache/portfolio on or off — the
    /// machine-readable counterpart of [`HuntReport::render`].
    pub fn deterministic_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"programs_checked\":{}", self.programs_checked));
        out.push_str(&format!(",\"seeds_with_bugs\":{}", self.outcomes.len()));
        out.push_str(&format!(",\"total_bugs\":{}", self.total_bugs));
        out.push_str(&format!(
            ",\"reduction_failures\":{}",
            self.reduction_failures
        ));
        out.push_str(",\"outcomes\":[");
        for (index, outcome) in self.outcomes.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"seed\":{},\"reports\":[", outcome.seed));
            for (report_index, report) in outcome.reports.iter().enumerate() {
                if report_index > 0 {
                    out.push(',');
                }
                out.push_str(&bug_report_json(report));
            }
            out.push_str("]}");
        }
        out.push(']');
        let summary = self.campaign_summary();
        out.push_str(&format!(
            ",\"summary\":{{\"by_platform\":{},\"by_area\":{},\"by_attribution\":{},\"total_detected\":{}}}",
            json_counter_map(&summary.by_platform),
            json_counter_map(&summary.by_area),
            json_counter_map(&summary.by_attribution),
            summary.total_detected
        ));
        match &self.coverage {
            Some(coverage) => out.push_str(&format!(",\"coverage\":{}", coverage_json(coverage))),
            None => out.push_str(",\"coverage\":null"),
        }
        match &self.mutation {
            Some(mutation) => out.push_str(&format!(",\"mutation\":{}", mutation_json(mutation))),
            None => out.push_str(",\"mutation\":null"),
        }
        match &self.diversity {
            Some(diversity) => {
                out.push_str(&format!(",\"diversity\":{}", diversity_json(diversity)))
            }
            None => out.push_str(",\"diversity\":null"),
        }
        out.push('}');
        out
    }

    /// The full `gauntlet-report-v1` document: the deterministic `result`
    /// half plus the run-descriptive `run` half (elapsed, per-worker loads,
    /// cache counters, telemetry flight recorder).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":{},\"result\":{}",
            json::string(REPORT_SCHEMA),
            self.deterministic_json()
        );
        out.push_str(&format!(
            ",\"run\":{{\"elapsed_us\":{}",
            self.elapsed.as_micros()
        ));
        out.push_str(",\"per_worker\":[");
        for (index, processed) in self.per_worker.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&processed.to_string());
        }
        out.push(']');
        match &self.cache {
            Some(cache) => out.push_str(&format!(",\"cache\":{}", cache_json(cache))),
            None => out.push_str(",\"cache\":null"),
        }
        match &self.telemetry {
            Some(recorder) => out.push_str(&format!(",\"telemetry\":{}", recorder.to_json())),
            None => out.push_str(",\"telemetry\":null"),
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::HuntConfig;
    use crate::campaign::ParallelCampaign;

    /// The JSON document must parse, carry the schema tag, and agree with
    /// the struct fields on the headline counts — on a real (small) hunt.
    #[test]
    fn report_json_round_trips_through_the_parser() {
        let hunt = ParallelCampaign::new(HuntConfig {
            seed_count: 4,
            ..HuntConfig::default()
        })
        .run(p4c::Compiler::reference);
        let parsed = json::parse(&hunt.to_json()).expect("report JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(|s| s.as_str()),
            Some(REPORT_SCHEMA)
        );
        let result = parsed.get("result").expect("result half");
        assert_eq!(
            result.get("programs_checked").and_then(|n| n.as_u64()),
            Some(hunt.programs_checked as u64)
        );
        assert_eq!(
            result.get("total_bugs").and_then(|n| n.as_u64()),
            Some(hunt.total_bugs as u64)
        );
        let run = parsed.get("run").expect("run half");
        assert_eq!(
            run.get("elapsed_us").and_then(|n| n.as_u64()),
            Some(hunt.elapsed.as_micros() as u64)
        );
        // The engine always validates through its campaign cache, so the
        // cache block is an object that parses back to the same summary.
        let cache = run.get("cache").expect("run.cache present");
        assert!(matches!(cache, json::Json::Object(_)), "{cache:?}");
        assert_eq!(
            cache_summary_from_json(cache).expect("cache block parses"),
            hunt.cache.expect("the engine fills the cache summary")
        );
        assert_eq!(run.get("telemetry"), Some(&json::Json::Null));
        // And the result half is exactly the deterministic document.
        assert_eq!(
            json::parse(&hunt.deterministic_json()).expect("deterministic half parses"),
            *result
        );
    }

    /// `deterministic_json` → parse → `hunt_result_from_json` →
    /// `deterministic_json` must be byte-identical: the fleet merge ships
    /// report fragments as JSON and reconstructs `HuntReport`s on the far
    /// side, so the parse direction must lose nothing deterministic.
    #[test]
    fn deterministic_half_round_trips_through_the_struct() {
        let hunt = ParallelCampaign::new(HuntConfig {
            seed_count: 8,
            coverage: Some(crate::campaign::CoverageOptions {
                adapt: false,
                ..Default::default()
            }),
            mutation: Some(p4_mutate::MetamorphicOptions {
                mutants_per_seed: 1,
                ..Default::default()
            }),
            ..HuntConfig::default()
        })
        .run(|| {
            crate::inject::SeededBug::catalogue()
                .into_iter()
                .find(|b| b.platform() == Platform::P4c && !b.is_crash_class())
                .expect("catalogue has a P4C semantic bug")
                .build_compiler()
        });
        assert!(hunt.total_bugs > 0, "seeded hunt must find something");
        let bytes = hunt.deterministic_json();
        let parsed = json::parse(&bytes).expect("parses");
        let rebuilt = hunt_result_from_json(&parsed).expect("reconstructs");
        assert_eq!(rebuilt.deterministic_json(), bytes);
        // The full document's `result` field reconstructs identically.
        let full = json::parse(&hunt.to_json()).expect("full document parses");
        let from_full = hunt_result_from_json(&full).expect("reconstructs from full");
        assert_eq!(from_full.deterministic_json(), bytes);
        // And the rebuilt report renders the same tables.
        assert_eq!(rebuilt.render(), hunt.render());
    }
}
