//! The `gauntlet` command line, driven as a real process.
//!
//! Pinned here:
//!
//! 1. **Strict flags** — an unknown flag, a missing value, a flag where a
//!    value belongs and an unparsable number each exit with status 2 before
//!    any campaign runs, for every campaign command.
//! 2. **One config builder** — `gauntlet hunt` and `gauntlet fleet hunt`
//!    read the same flags into the same spec, so their reports' `result`
//!    blocks are identical.
//! 3. **Determinism** — `gauntlet hunt` prints the same stdout at any
//!    `--jobs`.
//! 4. **Table campaign** — `gauntlet table` at 12 random programs per class
//!    (a range that includes the hard miter of `Bmv2SliceWritesWholeField`'s
//!    program 7) finishes and raises no false alarm on the correct pipeline.

use gauntlet_telemetry::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gauntlet-cli-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn gauntlet(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gauntlet"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run gauntlet")
}

/// The flags of the hunt both `hunt` and `fleet hunt` run: a seeded
/// front-end bug, mutants, reduction and a three-way differential vote.
const HUNT: &[&str] = &[
    "--compiler",
    "DefUseDropsParameterWrites",
    "--seeds",
    "20",
    "--mutants",
    "2",
    "--reduce",
    "--target",
    "bmv2+Bmv2ExitIgnored",
    "--target",
    "tofino",
    "--target",
    "ref-interp",
    "--quiet",
];

#[test]
fn malformed_flags_exit_2_for_every_campaign_command() {
    let dir = scratch("malformed");
    let commands: [(&[&str], &[&str]); 3] = [
        (&["hunt"], &["--events", "--quiet"]),
        (&["table"], &["--jobs", "--programs-per-bug", "1"]),
        (&["fleet", "hunt"], &["--events", "--quiet"]),
    ];
    for (command, flag_as_value) in commands {
        let cases: [&[&str]; 4] = [
            &["--no-such-flag"],
            &["--jobs"],
            flag_as_value,
            &["--jobs", "4x"],
        ];
        for case in cases {
            let args = [command, case].concat();
            let output = gauntlet(&dir, &args);
            assert_eq!(output.status.code(), Some(2), "{args:?} must exit 2");
            assert!(output.stdout.is_empty(), "{args:?} ran a campaign");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(stderr.starts_with("gauntlet: "), "{args:?}: {stderr}");
        }
    }
    // A flag taken as a value used to become a file name.
    assert!(!dir.join("--quiet").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hunt_and_fleet_hunt_write_identical_result_blocks() {
    let dir = scratch("twins");
    let result_of = |args: &[&str], report: &str| -> Json {
        let args = [args, HUNT, &["--report", report]].concat();
        let output = gauntlet(&dir, &args);
        assert!(output.status.success(), "{args:?} failed: {output:?}");
        let text = std::fs::read_to_string(dir.join(report)).expect("report written");
        let document = json::parse(&text).expect("report parses");
        document.get("result").expect("result block").clone()
    };
    let hunt = result_of(&["hunt"], "hunt.json");
    let fleet = result_of(
        &["fleet", "hunt", "--workers", "2", "--shard-size", "5"],
        "fleet.json",
    );
    assert!(
        hunt.get("total_bugs").and_then(Json::as_u64).unwrap_or(0) > 0,
        "the seeded bug must be found"
    );
    assert_eq!(hunt, fleet);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hunt_stdout_is_identical_across_jobs() {
    let dir = scratch("jobs");
    let stdout = |jobs: &str| {
        let args = [&["hunt", "--jobs", jobs], HUNT].concat();
        let output = gauntlet(&dir, &args);
        assert!(output.status.success(), "{args:?} failed: {output:?}");
        String::from_utf8(output.stdout).expect("utf-8 stdout")
    };
    let serial = stdout("1");
    assert!(serial.contains("Reduction summary"), "{serial}");
    assert_eq!(serial, stdout("4"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table_raises_no_false_alarm_on_the_correct_pipeline() {
    let dir = scratch("table");
    let output = gauntlet(&dir, &["table", "--jobs", "2", "--programs-per-bug", "12"]);
    assert!(output.status.success(), "table failed: {output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("False alarms on the correct pipeline: 0"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
