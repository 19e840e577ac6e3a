#!/usr/bin/env python3
"""Build and run the DM explorer benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload <sweep-drr|design-cases|replay-panel> \
        --seed <n> --seconds <n> --trace <0|1>

The benchmark binary is built in release mode (offline) into
$CARGO_TARGET_DIR, or `.bench_build` when that is unset. Its standard output
is passed through; the last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`, whose metric names are
checked against BENCHMARK.json. Any bad argument, a missing source tree, a
failed build, a wrong output or a malformed result exits non-zero.
"""

import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("sweep-drr", "design-cases", "replay-panel")
BINARY_TIMEOUT_S = 175
MANIFEST = os.path.join("perfbench", "Cargo.toml")
SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench")


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    """Strict parsing: every flag exactly once, nothing else."""
    want = {"--workload": None, "--seed": None, "--seconds": None, "--trace": None}
    i = 0
    while i < len(argv):
        flag, eq, value = argv[i].partition("=")
        if flag not in want:
            fail(f"unknown argument {argv[i]!r}")
        if want[flag] is not None:
            fail(f"{flag} given twice")
        if not eq:
            i += 1
            if i >= len(argv):
                fail(f"{flag} needs a value")
            value = argv[i]
        want[flag] = value
        i += 1
    for flag, value in want.items():
        if value is None:
            fail(f"missing {flag}")
    if want["--workload"] not in WORKLOADS:
        fail(f"unknown workload {want['--workload']!r}; expected one of {', '.join(WORKLOADS)}")
    for flag in ("--seed", "--seconds"):
        if not want[flag].isascii() or not want[flag].isdigit() or int(want[flag]) >= 2**64:
            fail(f"{flag} must be a non-negative integer, got {want[flag]!r}")
    if not 1 <= int(want["--seconds"]) <= 3600:
        fail("--seconds must be in 1..=3600")
    if want["--trace"] not in ("0", "1"):
        fail(f"--trace must be 0 or 1, got {want['--trace']!r}")
    return want


def source_digest():
    """SHA-256 over the source files the benchmark builds from."""
    h = hashlib.sha256()
    for top in SOURCES:
        paths = []
        if os.path.isfile(top):
            paths.append(top)
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "target")
            paths.extend(os.path.join(root, f) for f in sorted(files))
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_result(line, trace):
    """The result line has exactly the contract's keys and metrics."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a whole number >= 0")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            raise ValueError(f"metric {name} has no numeric value")
    return result


def main():
    args = parse_args(sys.argv[1:])
    if not (os.path.isfile("Cargo.toml") and os.path.isfile(os.path.join("crates", "core", "Cargo.toml"))):
        fail("run from the root of a repository checkout: Cargo.toml and crates/ are missing")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "dmm-perfbench")
    built_at = os.path.getmtime(binary) if os.path.exists(binary) else None
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail("benchmark build failed", build.returncode or 1)
    if os.path.getmtime(binary) != built_at:
        # A fresh build leaves hundreds of MB of dirty pages; writing them
        # back during the timed loop slowed the first run by up to 30% on a
        # 2-core Xeon VM.
        os.sync()
    env["DMM_PERFBENCH_COMMIT"] = commit()
    env["DMM_PERFBENCH_SOURCE_SHA256"] = source_digest()
    cmd = [binary] + [f"{k}={v}" for k, v in args.items()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {BINARY_TIMEOUT_S} s", 1)
    lines = run.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if run.returncode != 0:
        fail(f"benchmark exited with code {run.returncode}", run.returncode)
    try:
        result = check_result(lines[-1] if lines else "", args["--trace"] == "1")
    except (ValueError, KeyError, OSError) as e:
        fail(f"malformed result: {e}", 1)
    print(lines[-1], flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
