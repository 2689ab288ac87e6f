//! Campaign benchmark for the Gauntlet reproduction.
//!
//! ```text
//! campaignbench --workload NAME --seed N --seconds S --trace 0|1 \
//!               --gauntlet PATH --out DIR
//! ```
//!
//! Runs one workload (see `NOTES.md`), checks every verdict against its
//! known answer, prints each metric by name with its unit, and prints one
//! JSON result object as the last stdout line.  `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones.  Every measured
//! phase runs in a child process of this binary (`campaignbench job ...`)
//! or of the `gauntlet` binary, under a time limit.

mod answers;
mod jobs;
mod metrics;
mod procs;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use workload::{Pinned, Plan, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("job") => job(&args[1..]).map(|line| println!("{line}")),
        _ => bench(&args),
    };
    if let Err(error) = outcome {
        eprintln!("campaignbench: {error}");
        std::process::exit(2);
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|arg| arg == name)
        .and_then(|index| args.get(index + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn number<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let text = required(args, name)?;
    text.parse()
        .map_err(|_| format!("bad value `{text}` for {name}"))
}

fn workload(args: &[String]) -> Result<Workload, String> {
    let name = required(args, "--workload")?;
    Workload::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })
}

fn bench(args: &[String]) -> Result<(), String> {
    let trace = match required(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let settings = run::Settings {
        workload: workload(args)?,
        seed: number(args, "--seed")?,
        seconds: number(args, "--seconds")?,
        trace,
        exe: std::env::current_exe().map_err(|error| format!("cannot find own binary: {error}"))?,
        gauntlet: PathBuf::from(required(args, "--gauntlet")?),
        out: PathBuf::from(required(args, "--out")?),
    };
    if !settings.gauntlet.is_file() {
        return Err(format!(
            "no gauntlet binary at `{}`",
            settings.gauntlet.display()
        ));
    }
    std::fs::create_dir_all(&settings.out)
        .map_err(|error| format!("cannot create `{}`: {error}", settings.out.display()))?;
    let report = run::run(&settings)?;
    print!("{}", report.human);
    println!("{}", report.result_line);
    Ok(())
}

/// The child-process side: one job, one JSON line.
fn job(args: &[String]) -> Result<String, String> {
    let kind = args.first().map(String::as_str).unwrap_or("");
    let args = &args[1.min(args.len())..];
    match kind {
        "setup" => Ok(jobs::setup(&workload(args)?.plan())),
        "campaign" => {
            let plan: Plan = workload(args)?.plan();
            jobs::campaign(&plan, number(args, "--start")?, flag(args, "--result"))
        }
        "pass" => {
            let plan: Plan = workload(args)?.plan();
            let judge = args.iter().any(|arg| arg == "--judge");
            jobs::pass(
                &plan,
                number(args, "--start")?,
                judge,
                flag(args, "--spans"),
            )
        }
        "hard" => {
            let name = required(args, "--input")?;
            let pinned =
                Pinned::parse(name).ok_or_else(|| format!("unknown pinned input `{name}`"))?;
            Ok(jobs::hard(pinned))
        }
        other => Err(format!("unknown job `{other}`")),
    }
}
