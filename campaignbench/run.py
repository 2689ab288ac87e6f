#!/usr/bin/env python3
"""Build the campaign benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 campaignbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `gauntlet` binary and the `campaignbench` package in release mode
into $CARGO_TARGET_DIR (default `.bench_build`), then replaces itself with
the benchmark binary, which prints the metrics and, as its last stdout line,
one JSON result object.  Spans, reports and the fleet workers' scratch
files go to `.bench_out/`.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    bench = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        (root / "Cargo.toml", ["--bin", "gauntlet"]),
        (bench / "Cargo.toml", []),
    ]
    for manifest, extra in builds:
        if not manifest.is_file():
            print(f"run.py: no {manifest}; run from the repository root", file=sys.stderr)
            return 1
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(manifest), *extra],
            env=env,
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            print(f"run.py: building {manifest} failed", file=sys.stderr)
            return 1
    exe = target / "release" / "campaignbench"
    gauntlet = target / "release" / "gauntlet"
    out = root / ".bench_out"
    # Fleet workers keep scratch files in the temporary directory; keep
    # them inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    args = [str(exe), *sys.argv[1:], "--gauntlet", str(gauntlet), "--out", str(out)]
    sys.stdout.flush()
    os.execv(str(exe), args)
    return 1


if __name__ == "__main__":
    sys.exit(main())
