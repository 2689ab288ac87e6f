//! The `gauntlet` binary: the one command-line front door to campaigns.
//!
//! ```text
//! gauntlet hunt --seeds 100 --compiler DefUseDropsParameterWrites --reduce
//! gauntlet table --jobs 2 --programs-per-bug 1
//! gauntlet fleet hunt --seeds 100 --workers 2 --coverage --checkpoint fleet.ckpt
//! gauntlet fleet status --checkpoint fleet.ckpt
//! gauntlet fleet resume --checkpoint fleet.ckpt
//! gauntlet report report.json
//! gauntlet fleet-worker        # spawned by the coordinator, not by hand
//! ```
//!
//! `hunt` and `fleet hunt` read the same campaign flags into one
//! [`FleetSpec`] and build their `HuntConfig` through
//! [`FleetSpec::hunt_config`].  Every command parses its flags through the
//! strict [`Flags`] parser: an unknown flag, a missing value or a value
//! that does not parse exits with status 2.

use gauntlet_core::flags::Flags;
use gauntlet_core::{
    render_detection_matrix, render_reduction_summary, render_table2, render_table3, run_campaign,
    CampaignConfig, CoverageOptions, ParallelCampaign, TelemetryOptions,
};
use gauntlet_fleet::{
    checkpoint::Checkpoint, coordinator, worker, CompilerSpec, FleetMode, FleetOptions,
    FleetOutcome, FleetSpec,
};
use std::time::Duration;

const USAGE: &str = "\
gauntlet — Gauntlet campaign driver

USAGE:
  gauntlet hunt [FLAGS]             run a campaign in this process
  gauntlet table [--jobs N] [--programs-per-bug P]
                                    seeded-bug campaign (paper Tables 2 and 3)
  gauntlet fleet hunt [FLAGS]       run a multi-process campaign
  gauntlet fleet resume [FLAGS]     continue from --checkpoint
  gauntlet fleet status --checkpoint PATH
  gauntlet report FILE              render a gauntlet-report-v1 JSON file
  gauntlet fleet-worker             (internal) shard executor

HUNT FLAGS (hunt and fleet hunt):
  --jobs N                threads (per worker process in a fleet) (default 1)
  --seed-start N          first seed (default 0)
  --seeds N               seed count (default 100)
  --compiler NAME         `reference` or a SeededBug name (default reference)
  --generator NAME        tiny | default | tofino (default tiny)
  --coverage              account pass-rule coverage and build a corpus; in
                          one process generator weights also adapt to it
  --corpus PATH           corpus file (implies --coverage); `hunt` replays
                          it first, both write the final corpus here
  --mutants N             metamorphic mutants per seed (default 0)
  --reduce                delta-debug committed findings
  --target SPEC           differential target (repeatable)
  --report PATH           write the gauntlet-report-v1 JSON here
  --events PATH           JSONL event log (merged across a fleet)
  --quiet                 no progress or status line, no worker stderr

FLEET HUNT FLAGS:
  --workers N             worker processes (default 2)
  --shard-size N          seeds per lease (default 25)
  --mode MODE             deterministic | throughput (default deterministic)
  --diversity             swarm mode: per-slice generator perturbation and
                          disjoint pair-frontier partitions (implies --coverage)
  --checkpoint PATH       checkpoint file (enables resume/status)
  --checkpoint-every N    shards between checkpoints (default 1)
  --triage PATH           write the gauntlet-triage-v1 JSON here

FLEET RESUME FLAGS:
  --checkpoint PATH       the checkpoint to continue (required)
  --report, --triage, --events, --quiet as for fleet hunt

FAULT-INJECTION / RUNTIME FLAGS (fleet hunt and resume):
  --chaos-kill W:F        kill worker W after its F-th delivered fragment
  --chaos-stall W:F       park worker W instead of its next assignment
  --stop-after-checkpoints N   stop (resumably) after N checkpoints
  --lease-timeout-ms N    kill workers whose lease exceeds N ms
  --max-respawns N        replacement processes allowed (default 8)
";

/// Campaign flags `hunt` and `fleet hunt` share: the spec plus its outputs.
const HUNT_VALUED: &[&str] = &[
    "--jobs",
    "--seed-start",
    "--seeds",
    "--compiler",
    "--generator",
    "--corpus",
    "--mutants",
    "--target",
    "--events",
    "--report",
];
const HUNT_SWITCHES: &[&str] = &["--coverage", "--reduce", "--quiet"];

/// Flags only `fleet hunt` takes on top of [`HUNT_VALUED`].
const FLEET_VALUED: &[&str] = &[
    "--workers",
    "--shard-size",
    "--mode",
    "--checkpoint",
    "--checkpoint-every",
    "--triage",
];

/// Fault-injection and lease flags of `fleet hunt` and `fleet resume`.
const RUNTIME_VALUED: &[&str] = &[
    "--chaos-kill",
    "--chaos-stall",
    "--stop-after-checkpoints",
    "--lease-timeout-ms",
    "--max-respawns",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(error) = run(&args) {
        eprintln!("gauntlet: {error}");
        std::process::exit(2);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("fleet-worker") => worker::serve(),
        Some("hunt") => hunt(&args[1..]),
        Some("table") => table(&args[1..]),
        Some("fleet") => fleet(&args[1..]),
        Some("report") => report(&args[1..]),
        None | Some("--help") | Some("-h") | Some("help") => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (see `gauntlet --help`)")),
    }
}

/// Parses one command's flags, naming the command in any error.
fn parse(
    command: &str,
    args: &[String],
    valued: &[&str],
    switches: &[&str],
) -> Result<Flags, String> {
    Flags::parse(args, valued, switches).map_err(|error| format!("{command}: {error}"))
}

/// The campaign spec from the flags `hunt` and `fleet hunt` share; fleet-only
/// fields keep their defaults.
fn spec_from_flags(flags: &Flags) -> Result<FleetSpec, String> {
    let defaults = FleetSpec::default();
    let corpus = flags.string("--corpus");
    Ok(FleetSpec {
        jobs_per_worker: flags.number("--jobs")?.unwrap_or(defaults.jobs_per_worker),
        seed_start: flags.number("--seed-start")?.unwrap_or(defaults.seed_start),
        seed_count: flags.number("--seeds")?.unwrap_or(defaults.seed_count),
        compiler: flags
            .string("--compiler")
            .map_or(defaults.compiler, |name| CompilerSpec::from_name(&name)),
        generator: flags.string("--generator").unwrap_or(defaults.generator),
        coverage: flags.switch("--coverage") || corpus.is_some(),
        corpus,
        mutants_per_seed: flags
            .number("--mutants")?
            .unwrap_or(defaults.mutants_per_seed),
        reduce_reports: flags.switch("--reduce"),
        targets: flags.all("--target").to_vec(),
        ..defaults
    })
}

fn write_report(path: Option<String>, json: String) -> Result<(), String> {
    match path {
        Some(path) => std::fs::write(&path, json)
            .map_err(|error| format!("cannot write report `{path}`: {error}")),
        None => Ok(()),
    }
}

/// `gauntlet hunt`: the single-process twin of `gauntlet fleet hunt`.
fn hunt(args: &[String]) -> Result<(), String> {
    let flags = parse("hunt", args, HUNT_VALUED, HUNT_SWITCHES)?;
    let spec = spec_from_flags(&flags)?;
    spec.validate()?;
    let mut config = spec.hunt_config()?;
    // In one process coverage keeps adaptive steering: adaptation feeds
    // committed coverage back into generation, which needs the global
    // commit order only a single process has (the fleet runs `adapt: false`).
    if spec.coverage {
        config.coverage = Some(CoverageOptions {
            corpus: spec.corpus.clone(),
            ..CoverageOptions::default()
        });
    }
    config.telemetry = Some(TelemetryOptions {
        events: flags.string("--events"),
        progress: !flags.switch("--quiet"),
        ..TelemetryOptions::default()
    });
    let compiler = spec.compiler.clone();
    let report = ParallelCampaign::new(config).run(move || compiler.build());
    write_report(flags.string("--report"), report.to_json())?;
    print!("{}", report.render());
    if spec.reduce_reports {
        print!("{}", render_reduction_summary(&report));
    }
    Ok(())
}

/// `gauntlet table`: the seeded-bug campaign behind paper Tables 2 and 3.
fn table(args: &[String]) -> Result<(), String> {
    let flags = parse("table", args, &["--jobs", "--programs-per-bug"], &[])?;
    let report = run_campaign(&CampaignConfig {
        jobs: flags.number("--jobs")?.unwrap_or(1),
        random_programs_per_bug: flags.number("--programs-per-bug")?.unwrap_or(2),
        ..CampaignConfig::default()
    });
    println!("{}", render_table2(&report));
    println!("{}", render_table3(&report));
    println!("{}", render_detection_matrix(&report));
    Ok(())
}

/// `W:F` pairs for the chaos flags.
fn parse_pair(text: &str) -> Result<(usize, usize), String> {
    let (worker, fragments) = text
        .split_once(':')
        .ok_or_else(|| format!("expected `WORKER:FRAGMENTS`, got `{text}`"))?;
    Ok((
        worker
            .parse()
            .map_err(|_| format!("bad worker index `{worker}`"))?,
        fragments
            .parse()
            .map_err(|_| format!("bad fragment count `{fragments}`"))?,
    ))
}

/// Coordinator options from the output and runtime flags shared by
/// `fleet hunt` and `fleet resume`.
fn fleet_options(spec: FleetSpec, flags: &Flags) -> Result<FleetOptions, String> {
    let exe = std::env::current_exe()
        .map_err(|error| format!("cannot locate the gauntlet binary: {error}"))?;
    let mut options = FleetOptions::new(
        spec,
        vec![exe.display().to_string(), "fleet-worker".to_string()],
    );
    options.quiet = flags.switch("--quiet");
    options.events = flags.string("--events");
    options.chaos_kill = flags
        .string("--chaos-kill")
        .as_deref()
        .map(parse_pair)
        .transpose()?;
    options.chaos_stall = flags
        .string("--chaos-stall")
        .as_deref()
        .map(parse_pair)
        .transpose()?;
    options.stop_after_checkpoints = flags.number("--stop-after-checkpoints")?;
    options.lease_timeout = flags
        .number("--lease-timeout-ms")?
        .map(Duration::from_millis);
    options.max_respawns = flags
        .number("--max-respawns")?
        .unwrap_or(options.max_respawns);
    Ok(options)
}

fn finish(outcome: FleetOutcome, flags: &Flags) -> Result<(), String> {
    if let Some(path) = flags.string("--triage") {
        std::fs::write(&path, outcome.triage.to_json())
            .map_err(|error| format!("cannot write triage `{path}`: {error}"))?;
    }
    match &outcome.report {
        Some(report) => {
            write_report(flags.string("--report"), report.to_json())?;
            print!("{}", report.render());
            print!("{}", outcome.triage.render());
            Ok(())
        }
        None => {
            // Interrupted (stop_after_checkpoints): resumable, so not an
            // error — but say so and skip the report outputs.
            println!(
                "fleet: interrupted after {} checkpoint(s); resume with `gauntlet fleet resume`",
                outcome.stats.checkpoints_written
            );
            print!("{}", outcome.triage.render());
            Ok(())
        }
    }
}

fn fleet(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("hunt") => fleet_hunt(&args[1..]),
        Some("resume") => fleet_resume(&args[1..]),
        Some("status") => fleet_status(&args[1..]),
        _ => Err("usage: gauntlet fleet <hunt|resume|status> [flags]".into()),
    }
}

fn fleet_hunt(args: &[String]) -> Result<(), String> {
    let valued = [HUNT_VALUED, FLEET_VALUED, RUNTIME_VALUED].concat();
    let switches = [HUNT_SWITCHES, &["--diversity"]].concat();
    let flags = parse("fleet hunt", args, &valued, &switches)?;
    let defaults = FleetSpec::default();
    let mut spec = spec_from_flags(&flags)?;
    spec.workers = flags.number("--workers")?.unwrap_or(defaults.workers);
    spec.shard_size = flags.number("--shard-size")?.unwrap_or(defaults.shard_size);
    if let Some(name) = flags.string("--mode") {
        spec.mode = FleetMode::from_name(&name).ok_or_else(|| format!("unknown mode `{name}`"))?;
    }
    spec.diversity = flags.switch("--diversity");
    spec.coverage |= spec.diversity;
    spec.checkpoint = flags.string("--checkpoint");
    spec.checkpoint_every = flags
        .number("--checkpoint-every")?
        .unwrap_or(defaults.checkpoint_every);
    finish(coordinator::hunt(fleet_options(spec, &flags)?)?, &flags)
}

fn fleet_resume(args: &[String]) -> Result<(), String> {
    let valued = [
        &["--checkpoint", "--events", "--report", "--triage"],
        RUNTIME_VALUED,
    ]
    .concat();
    let flags = parse("fleet resume", args, &valued, &["--quiet"])?;
    let path = flags
        .string("--checkpoint")
        .ok_or("fleet resume needs --checkpoint PATH")?;
    let checkpoint = Checkpoint::load(&path)?;
    if checkpoint.complete {
        println!("fleet: checkpoint `{path}` is already complete");
    }
    let options = fleet_options(FleetSpec::default(), &flags)?;
    finish(coordinator::resume(options, checkpoint)?, &flags)
}

fn fleet_status(args: &[String]) -> Result<(), String> {
    let flags = parse("fleet status", args, &["--checkpoint"], &[])?;
    let path = flags
        .string("--checkpoint")
        .ok_or("fleet status needs --checkpoint PATH")?;
    print!("{}", Checkpoint::load(&path)?.render_status());
    Ok(())
}

fn report(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("usage: gauntlet report FILE".into());
    };
    let text =
        std::fs::read_to_string(path).map_err(|error| format!("cannot read `{path}`: {error}"))?;
    let value = gauntlet_telemetry::json::parse(&text)?;
    let report = gauntlet_core::hunt_result_from_json(&value)?;
    print!("{}", report.render());
    Ok(())
}
