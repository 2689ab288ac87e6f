//! One benchmark run: the workload's phases as child processes, the known
//! answers, and the metrics.

use crate::answers::is_right;
use crate::metrics::{result_line, validate, Metric};
use crate::procs::{self, Ending, Finished, Job};
use crate::stats::{median, Tail};
use crate::workload::{Plan, Workload, JOBS, PINNED};
use gauntlet_core::{bug_report_from_json, BugReport};
use gauntlet_telemetry::json::{self, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Everything a run must finish within, leaving room to report.
const RUN_BUDGET: Duration = Duration::from_secs(165);
/// Limit of one campaign or one pass.
const PHASE_LIMIT: Duration = Duration::from_secs(60);
/// Per-input verdict limit of the pinned hard inputs: about three times
/// the slowest pinned input that decides (seed 74, 3-5 s).
const HARD_LIMIT: Duration = Duration::from_secs(12);
/// Set-ups measured at the start of each round; `setup_s` is the median
/// over all rounds.
const SETUPS: usize = 15;
/// Untraced one-at-a-time passes per run; a seed's latency is its median
/// over them, so one pass slowed by a burst of load does not move it.
const PASSES: usize = 3;
/// Most campaigns per run, however little campaign time was spent.
const MAX_REPS: usize = 5;
/// The fleet's merged report, judged as one more output of the workload.
const FLEET_REPORT: &str = "fleet-report";

pub struct Settings {
    pub workload: Workload,
    pub seed: u64,
    /// Campaign time to measure; campaigns repeat until it is spent.
    pub seconds: u64,
    pub trace: bool,
    pub exe: PathBuf,
    pub gauntlet: PathBuf,
    pub out: PathBuf,
}

pub struct Report {
    pub human: String,
    pub result_line: String,
}

/// Per-seed findings, each report as canonical JSON.
type Findings = BTreeMap<u64, Vec<String>>;

/// What happened to every input of the run.
#[derive(Default)]
struct Ledger {
    attempted: BTreeSet<String>,
    undecided: BTreeSet<String>,
    wrong: BTreeSet<String>,
    /// Consistency checks that failed; any makes the run incorrect.
    broken: Vec<String>,
}

impl Ledger {
    fn failed(&self) -> usize {
        self.undecided.union(&self.wrong).count()
    }
}

fn seed_id(seed: u64) -> String {
    format!("seed:{seed}")
}

#[derive(Default)]
struct Campaigns {
    /// Committed seeds per second of each completed campaign.
    rates: Vec<f64>,
    /// Wall seconds of each completed campaign.
    walls: Vec<f64>,
    /// Wall seconds of the fleet run, when the plan has one.
    fleet_wall: Option<f64>,
    /// Peak resident set of each campaign child, in KiB.
    rss_kb: Vec<f64>,
    findings: Vec<Findings>,
    /// `HuntReport.cache` of the first campaign.
    cache: Option<Json>,
}

struct Passes {
    /// Each seed's median time to verdict over the passes.
    latencies: Vec<f64>,
    /// Median wall time of a pass.
    wall_ms: f64,
    count: usize,
    findings: Option<Findings>,
}

/// A pinned input's time to verdict (or to its stop) and its conflicts.
type Hard = BTreeMap<String, (f64, u64)>;

/// A child to run: program, arguments, limit, and whether it leads a
/// process group.
type Spec = (PathBuf, Vec<String>, Duration, bool);

struct Bench<'a> {
    settings: &'a Settings,
    plan: Plan,
    start: u64,
    seeds: Vec<u64>,
    deadline: Instant,
    ledger: Ledger,
    /// Wall seconds of each phase, in order, and when the last one ended.
    laps: Vec<(&'static str, f64)>,
    lap_start: Instant,
}

pub fn run(settings: &Settings) -> Result<Report, String> {
    let plan = settings.workload.plan();
    let start = plan.start(settings.seed);
    let seeds: Vec<u64> = (start..start + plan.count as u64).collect();
    let mut bench = Bench {
        settings,
        start,
        deadline: Instant::now() + RUN_BUDGET,
        ledger: Ledger {
            attempted: seeds.iter().map(|&s| seed_id(s)).collect(),
            ..Ledger::default()
        },
        plan,
        seeds,
        laps: Vec::new(),
        lap_start: Instant::now(),
    };
    let mut setups = Vec::new();
    let (mut campaigns, runs) = bench.rounds(&mut setups)?;
    bench.lap("rounds");
    if bench.plan.fleet {
        bench.fleet(&mut campaigns)?;
        bench.lap("fleet");
    }
    let passes = bench.passes(runs, &campaigns)?;
    let mut traced = None;
    if settings.trace {
        traced = bench.traced(&passes)?;
        bench.lap("traced pass");
    }
    let mut hard = Hard::new();
    if settings.workload == Workload::HuntReference {
        hard = bench.pinned()?;
        bench.lap("pinned inputs");
    }
    bench.report(&setups, &campaigns, &passes, traced.as_ref(), &hard)
}

impl Bench<'_> {
    /// Ends the current phase.
    fn lap(&mut self, phase: &'static str) {
        let now = Instant::now();
        let wall = now.duration_since(self.lap_start).as_secs_f64();
        self.laps.push((phase, wall));
        self.lap_start = now;
    }

    /// Runs children at most `parallel` at a time, each limited by its own
    /// limit and by what is left of the run.  `None` marks a child there
    /// was no time left for.
    fn jobs(&mut self, specs: Vec<Spec>, parallel: usize) -> Result<Vec<Option<Finished>>, String> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left < Duration::from_secs(1) {
            return Ok(specs.iter().map(|_| None).collect());
        }
        let jobs = specs
            .into_iter()
            .map(|(program, args, limit, group)| Job {
                program,
                args,
                limit: limit.min(left),
                group,
            })
            .collect();
        let finished = procs::run(jobs, parallel)?;
        Ok(finished.into_iter().map(Some).collect())
    }

    fn job(&mut self, spec: Spec) -> Result<Option<Finished>, String> {
        Ok(self.jobs(vec![spec], 1)?.pop().flatten())
    }

    /// A `campaignbench job KIND` child for this workload.
    fn own(&self, kind: &str, extra: &[&str]) -> Spec {
        let mut args = strings(&["job", kind, "--workload", self.settings.workload.name()]);
        if kind != "setup" {
            args.extend(["--start".into(), self.start.to_string()]);
        }
        args.extend(strings(extra));
        (self.settings.exe.clone(), args, PHASE_LIMIT, false)
    }

    fn out_path(&self, name: &str) -> String {
        let file = format!("{}-{name}", self.settings.workload.name());
        self.settings.out.join(file).display().to_string()
    }

    /// A phase that was stopped at its limit, or failed, leaves every seed
    /// it covers without a verdict.
    fn phase_failed(&mut self, job: Option<&Finished>, phase: &str) {
        let ledger = &mut self.ledger;
        ledger
            .undecided
            .extend(self.seeds.iter().map(|&s| seed_id(s)));
        if job.is_some_and(|job| job.ending != Ending::Stopped) {
            ledger.broken.push(format!("{phase} exited with an error"));
        }
    }

    /// `SETUPS` set-ups: process and worker spawn, compiler and target
    /// construction.  Their wall times go to `walls`.
    fn setups(&mut self, walls: &mut Vec<f64>) -> Result<(), String> {
        let spec = self.own("setup", &[]);
        for _ in 0..SETUPS {
            match self.job(spec.clone())? {
                Some(job) if job.succeeded() => walls.push(job.wall.as_secs_f64()),
                _ => self.ledger.broken.push("a set-up did not complete".into()),
            }
        }
        Ok(())
    }

    /// The measured phases in rounds: each round runs `SETUPS` set-ups, the
    /// real campaign once and then, for the first `PASSES` rounds, one
    /// untraced one-at-a-time pass.  Alternating them spreads each kind of
    /// sample over the whole run, so a stretch of load on a shared host
    /// lands on a few samples of each kind rather than on every sample of
    /// one kind.  Campaigns go on past the plan's count until `--seconds`
    /// of campaign time is spent, at most `MAX_REPS`.
    fn rounds(&mut self, setups: &mut Vec<f64>) -> Result<(Campaigns, Vec<Json>), String> {
        let mut campaigns = Campaigns::default();
        let mut runs = Vec::new();
        let (mut campaigning, mut passing) = (true, true);
        let mut spent = 0.0;
        let mut round = 0;
        while round < self.plan.campaigns.max(PASSES)
            || (campaigning && spent < self.settings.seconds as f64 && round < MAX_REPS)
        {
            self.setups(setups)?;
            if campaigning {
                match self.campaign(&mut campaigns, round == 0)? {
                    Some(wall) => spent += wall,
                    None => campaigning = false,
                }
            }
            if passing && round < PASSES {
                passing = self.pass(&mut runs, round == 0)?;
            }
            round += 1;
        }
        Ok((campaigns, runs))
    }

    /// One real campaign.  With a fleet run to follow, the first campaign
    /// writes its report's `result` block.  `None` when it did not complete.
    fn campaign(&mut self, campaigns: &mut Campaigns, first: bool) -> Result<Option<f64>, String> {
        let result_path = self.out_path("inprocess-result.json");
        let extra = match self.plan.fleet && first {
            true => vec!["--result", result_path.as_str()],
            false => Vec::new(),
        };
        let job = self.job(self.own("campaign", &extra))?;
        let Some(value) = job.as_ref().and_then(output) else {
            self.phase_failed(job.as_ref(), "campaign");
            return Ok(None);
        };
        let wall = field_f64(&value, "wall_s");
        campaigns
            .rates
            .push(field_f64(&value, "programs_checked") / wall);
        campaigns.rss_kb.push(field_f64(&value, "rss_kb"));
        campaigns.walls.push(wall);
        campaigns.findings.push(findings(
            value.get("findings").ok_or("campaign without findings")?,
        )?);
        if campaigns.cache.is_none() {
            campaigns.cache = value.get("cache").cloned();
        }
        Ok(Some(wall))
    }

    /// One untraced one-at-a-time pass; the first is judged against the
    /// known answers.  `false` when it did not complete.
    fn pass(&mut self, runs: &mut Vec<Json>, first: bool) -> Result<bool, String> {
        let extra = match first {
            true => vec!["--judge"],
            false => Vec::new(),
        };
        let job = self.job(self.own("pass", &extra))?;
        let Some(value) = job.as_ref().and_then(output) else {
            self.phase_failed(job.as_ref(), "one-at-a-time pass");
            return Ok(false);
        };
        runs.push(value);
        Ok(true)
    }

    /// The same campaign once through `gauntlet fleet hunt`: its
    /// deterministic report must equal the first in-process campaign's, and
    /// its wall time gives the fleet's overhead.  A fleet run stopped at its
    /// limit leaves the fleet report undecided.
    fn fleet(&mut self, campaigns: &mut Campaigns) -> Result<(), String> {
        let report_path = self.out_path("fleet-report.json");
        let result_path = self.out_path("inprocess-result.json");
        self.ledger.attempted.insert(FLEET_REPORT.into());
        let mut args = self.plan.fleet_args(self.start, self.plan.count);
        args.extend(["--report".into(), report_path.clone()]);
        let job = self.job((self.settings.gauntlet.clone(), args, PHASE_LIMIT, true))?;
        let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
        match &job {
            Some(finished) if finished.succeeded() => {
                campaigns.fleet_wall = Some(finished.wall.as_secs_f64());
                compare_fleet_report(&read(&report_path), &read(&result_path), &mut self.ledger);
            }
            _ => {
                if job.as_ref().is_some_and(|j| j.ending != Ending::Stopped) {
                    self.ledger
                        .broken
                        .push("fleet campaign exited with an error".into());
                }
                self.ledger.undecided.insert(FLEET_REPORT.into());
            }
        }
        Ok(())
    }

    /// The untraced passes: the same seeds one at a time.  A seed's latency
    /// is its median over the passes.  The first pass is judged against the
    /// known answers; the others and the campaigns must agree with it.
    fn passes(&mut self, passes: Vec<Json>, campaigns: &Campaigns) -> Result<Passes, String> {
        let mut judged = None;
        if let Some(first) = passes.first() {
            let found = first.get("findings").ok_or("pass without findings")?;
            let canonical = findings(found)?;
            let reports = parsed_reports(found)?;
            let reference_diverges: BTreeSet<u64> = first
                .get("reference_diverges")
                .and_then(Json::as_array)
                .map(|seeds| seeds.iter().filter_map(Json::as_u64).collect())
                .unwrap_or_default();
            for &seed in &self.seeds {
                let seed_reports = reports.get(&seed).map_or(&[][..], Vec::as_slice);
                if !is_right(self.plan.answer, seed_reports, |_| {
                    reference_diverges.contains(&seed)
                }) {
                    self.ledger.wrong.insert(seed_id(seed));
                }
            }
            let mut others = Vec::new();
            for value in &passes[1..] {
                others.push(findings(
                    value.get("findings").ok_or("pass without findings")?,
                )?);
            }
            let comparisons = others.iter().map(|found| ("two passes", found)).chain(
                campaigns
                    .findings
                    .iter()
                    .map(|found| ("campaign and pass", found)),
            );
            for (what, found) in comparisons {
                let differ = differing(found, &canonical);
                if !differ.is_empty() {
                    let ledger = &mut self.ledger;
                    ledger
                        .broken
                        .push(format!("{what} disagree on {} seed(s)", differ.len()));
                    ledger.wrong.extend(differ.iter().map(|&s| seed_id(s)));
                }
            }
            judged = Some(canonical);
        }
        let per_seed: Vec<Vec<f64>> = passes
            .iter()
            .map(|value| numbers(value.get("per_seed_ms")))
            .collect();
        let latencies = (0..self.seeds.len())
            .filter_map(|index| {
                let samples: Vec<f64> = per_seed
                    .iter()
                    .filter_map(|p| p.get(index).copied())
                    .collect();
                median(&samples)
            })
            .collect();
        let walls: Vec<f64> = passes.iter().map(|v| field_f64(v, "wall_ms")).collect();
        Ok(Passes {
            latencies,
            wall_ms: median(&walls).unwrap_or(0.0),
            count: passes.len(),
            findings: judged,
        })
    }

    /// The traced pass: the same work split at every layer boundary.  Its
    /// findings must equal the untraced passes', which shows it measured
    /// the same work.
    fn traced(&mut self, passes: &Passes) -> Result<Option<Json>, String> {
        let spans = self.out_path(&format!("seed{}.spans.jsonl", self.settings.seed));
        let job = self.job(self.own("pass", &["--spans", &spans]))?;
        let Some(value) = job.as_ref().and_then(output) else {
            self.phase_failed(job.as_ref(), "traced pass");
            return Ok(None);
        };
        let canonical = findings(
            value
                .get("findings")
                .ok_or("traced pass without findings")?,
        )?;
        if let Some(untraced) = &passes.findings {
            if !differing(&canonical, untraced).is_empty() {
                self.ledger
                    .broken
                    .push("the traced and untraced passes disagree".into());
            }
        }
        Ok(Some(value))
    }

    /// The pinned hard inputs, two at a time, each under the verdict limit.
    fn pinned(&mut self) -> Result<Hard, String> {
        let mut hard = Hard::new();
        for batch in PINNED.chunks(JOBS) {
            let specs = batch
                .iter()
                .map(|pinned| {
                    let args = strings(&["job", "hard", "--input", &pinned.name()]);
                    (self.settings.exe.clone(), args, HARD_LIMIT, false)
                })
                .collect();
            let finished = self.jobs(specs, JOBS)?;
            for (pinned, job) in batch.iter().zip(finished) {
                let id = format!("pinned:{}", pinned.name());
                self.ledger.attempted.insert(id.clone());
                let Some(value) = job.as_ref().and_then(output) else {
                    if job.as_ref().is_some_and(|j| j.ending != Ending::Stopped) {
                        self.ledger
                            .broken
                            .push(format!("pinned input {} failed", pinned.name()));
                    }
                    self.ledger.undecided.insert(id);
                    let wall_ms = job.as_ref().map_or(0.0, |j| j.wall.as_secs_f64() * 1e3);
                    hard.insert(pinned.name(), (wall_ms, 0));
                    continue;
                };
                let found = parsed_reports(value.get("findings").ok_or("no findings")?)?;
                let reports: Vec<BugReport> = found.into_values().flatten().collect();
                if !is_right(pinned.answer(), &reports, |_| false) {
                    self.ledger.wrong.insert(id);
                }
                let conflicts = value.get("conflicts").and_then(Json::as_u64).unwrap_or(0);
                hard.insert(pinned.name(), (field_f64(&value, "verdict_ms"), conflicts));
            }
        }
        Ok(hard)
    }

    fn report(
        &self,
        setups: &[f64],
        campaigns: &Campaigns,
        passes: &Passes,
        traced: Option<&Json>,
        hard: &Hard,
    ) -> Result<Report, String> {
        let ledger = &self.ledger;
        let attempted = ledger.attempted.len();
        let failed = ledger.failed();
        let share = |count: usize| count as f64 / attempted as f64;
        let latencies = &passes.latencies;
        let tail = Tail::of(latencies);
        let end_to_end = vec![
            Metric::new("setup_s", median(setups).unwrap_or(0.0), "s"),
            Metric::new(
                "seeds_per_s",
                median(&campaigns.rates).unwrap_or(0.0),
                "1/s",
            ),
            Metric::new(
                "seed_latency_p50_ms",
                median(latencies).unwrap_or(0.0),
                "ms",
            ),
            Metric::new("seed_latency_tail_ms", tail.map_or(0.0, |t| t.value), "ms"),
            Metric::new(
                "seed_latency_max_ms",
                latencies.iter().copied().fold(0.0, f64::max),
                "ms",
            ),
            Metric::new(
                "decided_share",
                1.0 - share(ledger.undecided.len()),
                "ratio",
            ),
            Metric::new("right_verdict_share", 1.0 - share(failed), "ratio"),
            Metric::new(
                "peak_rss_mb",
                median(&campaigns.rss_kb).unwrap_or(0.0) / 1024.0,
                "MB",
            ),
        ];

        let mut human = format!(
            "workload {} seed {} (seeds {}..{}, {} jobs, closed loop)\n",
            self.settings.workload.name(),
            self.settings.seed,
            self.start,
            self.start + self.plan.count as u64,
            JOBS
        );
        let undecided_share =
            Metric::new("undecided_share", share(ledger.undecided.len()), "ratio");
        let wrong = Metric::new("wrong_verdicts", ledger.wrong.len() as f64, "count");
        for metric in end_to_end.iter().chain([&undecided_share, &wrong]) {
            human.push_str(&line(metric));
        }
        let metrics = match self.settings.trace {
            true => per_layer(campaigns, passes.wall_ms, traced, hard),
            false => end_to_end,
        };
        if self.settings.trace {
            for metric in &metrics {
                human.push_str(&line(metric));
            }
        }
        validate(&metrics)?;

        let mut notes = vec![format!(
            "setup_s: median of {} set-ups; seeds_per_s: median of {} campaign(s) [{}]; latencies: per-seed medians of {} pass(es)",
            setups.len(),
            campaigns.rates.len(),
            campaigns
                .rates
                .iter()
                .map(|rate| format!("{rate:.2}"))
                .collect::<Vec<_>>()
                .join(" "),
            passes.count
        )];
        let laps: Vec<String> = self
            .laps
            .iter()
            .map(|(phase, wall)| format!("{phase} {wall:.1} s"))
            .collect();
        notes.push(format!("phase walls: {}", laps.join(", ")));
        notes.push(match tail {
            Some(tail) => format!(
                "seed_latency_tail_ms is p{:.2}: {} samples, {} beyond it",
                tail.percentile, tail.samples, tail.beyond
            ),
            None => "seed_latency_tail_ms: fewer than 11 samples".into(),
        });
        for (label, set) in [
            ("undecided", &ledger.undecided),
            ("wrong verdicts", &ledger.wrong),
        ] {
            if !set.is_empty() {
                let list: Vec<&str> = set.iter().map(String::as_str).collect();
                notes.push(format!("{label}: {}", list.join(" ")));
            }
        }
        notes.extend(ledger.broken.iter().map(|b| format!("check failed: {b}")));
        for note in notes {
            human.push_str(&format!("# {note}\n"));
        }
        Ok(Report {
            human,
            result_line: result_line(
                ledger.broken.is_empty(),
                attempted as u64,
                failed as u64,
                &metrics,
            ),
        })
    }
}

/// The parsed last stdout line of a job that exited successfully.
fn output(job: &Finished) -> Option<Json> {
    if !job.succeeded() {
        return None;
    }
    let line = job
        .stdout
        .lines()
        .rev()
        .find(|line| !line.trim().is_empty())?;
    json::parse(line).ok()
}

fn field_f64(value: &Json, key: &str) -> f64 {
    value.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn numbers(value: Option<&Json>) -> Vec<f64> {
    value
        .and_then(Json::as_array)
        .map(|items| items.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Per-seed findings from a `[{"seed":..,"reports":[..]}]` array.
fn findings(value: &Json) -> Result<Findings, String> {
    outcomes(value)?
        .into_iter()
        .map(|(seed, list)| Ok((seed, list.iter().map(json::render).collect())))
        .collect()
}

/// The same findings as `BugReport`s, for judging against known answers.
fn parsed_reports(value: &Json) -> Result<BTreeMap<u64, Vec<BugReport>>, String> {
    outcomes(value)?
        .into_iter()
        .map(|(seed, list)| {
            let reports = list
                .iter()
                .map(bug_report_from_json)
                .collect::<Result<_, _>>()?;
            Ok((seed, reports))
        })
        .collect()
}

fn outcomes(value: &Json) -> Result<Vec<(u64, &[Json])>, String> {
    value
        .as_array()
        .ok_or("findings are not an array")?
        .iter()
        .map(|outcome| {
            let seed = outcome
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("finding without a seed")?;
            let list = outcome
                .get("reports")
                .and_then(Json::as_array)
                .ok_or("finding without reports")?;
            Ok((seed, list))
        })
        .collect()
}

/// Seeds whose findings differ between two runs over the same inputs.
fn differing(a: &Findings, b: &Findings) -> BTreeSet<u64> {
    a.keys()
        .chain(b.keys())
        .filter(|seed| a.get(seed) != b.get(seed))
        .copied()
        .collect()
}

/// The raw `result` block of a `gauntlet-report-v1` document.
fn result_block(report: &str) -> Option<&str> {
    let start = report.find("\"result\":")? + "\"result\":".len();
    let end = report.rfind(",\"run\":")?;
    (start <= end).then(|| &report[start..end])
}

/// The fleet's deterministic report must be byte-identical to the
/// in-process campaign's over the same inputs; a difference makes the
/// report, and every seed whose findings differ, a wrong verdict.
fn compare_fleet_report(fleet_text: &str, local: &str, ledger: &mut Ledger) {
    if result_block(fleet_text) == Some(local) {
        return;
    }
    ledger.wrong.insert(FLEET_REPORT.into());
    let seeds_of = |text: &str| -> Findings {
        json::parse(text)
            .ok()
            .and_then(|doc| findings(doc.get("outcomes")?).ok())
            .unwrap_or_default()
    };
    let fleet_seeds = seeds_of(result_block(fleet_text).unwrap_or("{}"));
    for seed in differing(&fleet_seeds, &seeds_of(local)) {
        ledger.wrong.insert(seed_id(seed));
    }
}

/// Span names of the traced pass, and the metric of each one's self time.
const LAYER_SPANS: [(&str, &str); 8] = [
    ("p4-gen.generate", "p4-gen.generate_ms"),
    ("p4c.compile", "p4c.compile_ms"),
    ("p4-parser.reparse", "p4-parser.reparse_ms"),
    ("p4-symbolic.interpret", "p4-symbolic.interpret_ms"),
    ("p4-symbolic.equiv", "p4-symbolic.equiv_ms"),
    ("p4-mutate.check", "p4-mutate.check_ms"),
    ("p4-reduce.reduce", "p4-reduce.reduce_ms"),
    ("targets.differential", "targets.differential_ms"),
];

fn per_layer(
    campaigns: &Campaigns,
    untraced_wall_ms: f64,
    traced: Option<&Json>,
    hard: &Hard,
) -> Vec<Metric> {
    let empty = Json::Object(Vec::new());
    let traced = traced.unwrap_or(&empty);
    let layers = traced.get("layers").unwrap_or(&empty);
    let counters = traced.get("counters").unwrap_or(&empty);
    let layer_ms = |span: &str| layers.get(span).map_or(0.0, |l| field_f64(l, "self_ms"));
    let calls = |span: &str| layers.get(span).map_or(0.0, |l| field_f64(l, "calls"));
    let counter = |name: &str| field_f64(counters, name);
    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let count = |name: &str, value: f64| Metric::new(name, value, "count");

    let mut out: Vec<Metric> = LAYER_SPANS
        .iter()
        .map(|(span, metric)| Metric::new(*metric, layer_ms(span), "ms"))
        .collect();
    let semantics = counter("semantics_hits") + counter("semantics_misses");
    let verdicts = counter("verdict_hits") + counter("verdict_misses");
    out.extend([
        count("p4-gen.calls", calls("p4-gen.generate")),
        count("p4c.calls", calls("p4c.compile")),
        count("p4c.snapshots", counter("snapshots")),
        count("p4c.snapshot_bytes", counter("snapshot_bytes")),
        count("p4-parser.calls", calls("p4-parser.reparse")),
        count("p4-symbolic.interpret_calls", semantics),
        Metric::new(
            "p4-symbolic.semantics_hit_ratio",
            ratio(counter("semantics_hits"), semantics),
            "ratio",
        ),
        count("p4-symbolic.equiv_calls", calls("p4-symbolic.equiv")),
        count("p4-symbolic.trivial_checks", counter("trivial_checks")),
        count("p4-symbolic.solver_checks", counter("solver_checks")),
        count("p4-symbolic.cached_checks", counter("cached_checks")),
        Metric::new(
            "p4-symbolic.verdict_hit_ratio",
            ratio(counter("verdict_hits"), verdicts),
            "ratio",
        ),
        count("p4-symbolic.skipped_pairs", counter("skipped_pairs")),
        count("smt.conflicts", counter("conflicts")),
        count("smt.decisions", counter("decisions")),
        count("smt.propagations", counter("propagations")),
        count("smt.sat_vars", counter("sat_vars")),
        count("smt.sat_clauses", counter("sat_clauses")),
        count("p4-mutate.mutants", counter("mutants")),
        count("p4-reduce.oracle_calls", counter("oracle_calls")),
        Metric::new(
            "p4-reduce.accept_ratio",
            ratio(counter("accepted_steps"), counter("oracle_calls")),
            "ratio",
        ),
        count(
            "p4-reduce.typecheck_rejections",
            counter("typecheck_rejections"),
        ),
        count("targets.calls", calls("targets.differential")),
    ]);
    for pinned in PINNED {
        let (verdict_ms, conflicts) = hard.get(&pinned.name()).copied().unwrap_or_default();
        let name = pinned.name();
        out.push(Metric::new(
            format!("hard.{name}.verdict_ms"),
            verdict_ms,
            "ms",
        ));
        if pinned.counts_conflicts() {
            out.push(count(&format!("hard.{name}.conflicts"), conflicts as f64));
        }
    }

    // The engine: idle worker time, and the campaign cache.  Self times of
    // a span tree sum to its roots' durations: the traced per-seed work.
    let self_ms = |keep: &dyn Fn(&str) -> bool| -> f64 {
        layers.as_object().map_or(0.0, |entries| {
            entries
                .iter()
                .filter(|(name, _)| keep(name))
                .map(|(_, layer)| field_f64(layer, "self_ms"))
                .sum()
        })
    };
    let traced_work_ms = self_ms(&|_| true);
    let campaign_wall = median(&campaigns.walls).unwrap_or(0.0);
    out.push(Metric::new(
        "core.idle_s",
        if traced_work_ms > 0.0 {
            JOBS as f64 * campaign_wall - traced_work_ms / 1e3
        } else {
            0.0
        },
        "s",
    ));
    let cache = campaigns.cache.clone().unwrap_or(empty.clone());
    for (metric, key) in [
        ("core.cache_semantics_hits", "semantics_hits"),
        ("core.cache_semantics_misses", "semantics_misses"),
        ("core.cache_verdict_hits", "verdict_hits"),
        ("core.cache_verdict_misses", "verdict_misses"),
    ] {
        out.push(count(metric, field_f64(&cache, key)));
    }
    out.push(Metric::new(
        "fleet.overhead_s",
        campaigns
            .fleet_wall
            .map_or(0.0, |fleet| fleet - campaign_wall),
        "s",
    ));

    // The layers add up: the residual makes their self times equal the
    // traced pass's wall time.
    let traced_wall_ms = field_f64(traced, "wall_ms");
    let named_ms = self_ms(&|name| name != "input");
    out.push(Metric::new(
        "trace.other_ms",
        traced_wall_ms - named_ms,
        "ms",
    ));
    out.push(Metric::new("trace.wall_ms", traced_wall_ms, "ms"));
    out.push(Metric::new(
        "trace.overhead_pct",
        if untraced_wall_ms > 0.0 && traced_wall_ms > 0.0 {
            100.0 * (traced_wall_ms - untraced_wall_ms) / untraced_wall_ms
        } else {
            0.0
        },
        "%",
    ));
    out
}

fn line(metric: &Metric) -> String {
    let value = format!("{:.6}", metric.value);
    format!("{:<36} {value:>16} {}\n", metric.name, metric.unit)
}

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_block_is_cut_between_schema_and_run() {
        let doc = "{\"schema\":\"gauntlet-report-v1\",\"result\":{\"a\":{\"run\":1}},\"run\":{\"elapsed_us\":3}}";
        assert_eq!(result_block(doc), Some("{\"a\":{\"run\":1}}"));
        assert_eq!(result_block("{}"), None);
    }

    #[test]
    fn differing_seeds_cover_both_sides() {
        let a: Findings = [(1, vec!["x".into()]), (2, vec!["y".into()])].into();
        let b: Findings = [(2, vec!["z".into()]), (3, vec!["w".into()])].into();
        assert_eq!(differing(&a, &b), [1, 2, 3].into());
        assert!(differing(&a, &a).is_empty());
    }

    #[test]
    fn layer_self_times_and_the_residual_add_up_to_the_traced_wall() {
        let traced = json::parse(
            "{\"wall_ms\":100.0,\"layers\":{\"input\":{\"self_ms\":4.0,\"calls\":2},\"p4c.compile\":{\"self_ms\":30.5,\"calls\":2},\"p4-symbolic.equiv\":{\"self_ms\":60.0,\"calls\":5}},\"counters\":{}}",
        )
        .expect("valid JSON");
        let campaigns = Campaigns {
            walls: vec![1.0],
            ..Campaigns::default()
        };
        let metrics = per_layer(&campaigns, 90.0, Some(&traced), &Hard::new());
        let value = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("metric present")
        };
        let layer_sum: f64 = LAYER_SPANS.iter().map(|(_, metric)| value(metric)).sum();
        assert_eq!(value("trace.other_ms"), 9.5);
        assert_eq!(layer_sum + value("trace.other_ms"), value("trace.wall_ms"));
        assert!((value("trace.overhead_pct") - 100.0 * 10.0 / 90.0).abs() < 1e-9);
        // 2 jobs x 1 s of campaign wall, minus 94.5 ms of traced work.
        assert!((value("core.idle_s") - (2.0 - 0.0945)).abs() < 1e-9);
        assert_eq!(validate(&metrics), Ok(()));
    }

    #[test]
    fn a_fleet_report_that_differs_is_wrong_with_its_seeds() {
        let local = "{\"outcomes\":[{\"seed\":7,\"reports\":[{\"kind\":\"Semantic\"}]}]}";
        let same = format!("{{\"schema\":\"s\",\"result\":{local},\"run\":{{}}}}");
        let mut ledger = Ledger::default();
        compare_fleet_report(&same, local, &mut ledger);
        assert!(ledger.wrong.is_empty());
        let other = same.replace("\"seed\":7", "\"seed\":8");
        compare_fleet_report(&other, local, &mut ledger);
        assert_eq!(
            ledger.wrong,
            [FLEET_REPORT, "seed:7", "seed:8"].map(String::from).into()
        );
    }

    #[test]
    fn an_undecided_input_that_is_also_wrong_fails_once() {
        let ledger = Ledger {
            attempted: ["seed:1", "seed:2"].map(String::from).into(),
            undecided: ["seed:1"].map(String::from).into(),
            wrong: ["seed:1", "seed:2"].map(String::from).into(),
            broken: Vec::new(),
        };
        assert_eq!(ledger.failed(), 2);
    }
}
