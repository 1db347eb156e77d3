#!/usr/bin/env python3
"""Build and run the Oscar benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <grow|storm|churn> --seed <n> \
        --seconds <s> --trace <0|1>

Builds the `perfbench` binary (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), prints the run context (git commit or source
digest, rustc version), then runs the binary, whose last stdout line is
the JSON result. Exits non-zero without a result when the repository's
crates are missing, the build fails, or the run fails.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return "git " + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    files = [ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", HERE.name):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file()]
    for p in sorted(files):
        rel = p.relative_to(ROOT)
        if p.exists() and not any(s.startswith(".") or s == "target" for s in rel.parts):
            h.update(str(rel).encode())
            h.update(p.read_bytes())
    return "tree-sha256 " + h.hexdigest()[:16]


def main():
    if not (ROOT / "crates").is_dir() or not (ROOT / "Cargo.toml").is_file():
        fail(f"run from the repository root: {ROOT} has no crates/ to build")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(HERE / "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True)
    print(f"context   source = {source_id()}")
    print(f"context   rustc = {rustc.stdout.strip()}")
    sys.stdout.flush()

    binary = target / "release" / "perfbench"
    try:
        run = subprocess.run(
            [str(binary)] + sys.argv[1:],
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        print("\n".join(lines[:-1]))
        fail(f"run exited with {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(run.stdout)
        fail("run printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed JSON result")
    print(run.stdout, end="")


if __name__ == "__main__":
    main()
