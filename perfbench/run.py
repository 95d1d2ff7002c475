#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                             [--results FILE]

Run it from the root of a checkout. The first call configures and builds
perfbench/ (and through it the libraries under src/) in Release, in
$CARGO_TARGET_DIR or .bench_build; later calls rebuild incrementally. Each
run prints the machine context, every metric by name with its unit and the
correctness verdict. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is nonzero when a
check failed or the benchmark could not run.

Every result is also appended, stamped with its machine context, to a JSONL
results file (default <build dir>/results.jsonl); compare.py reads two such
files.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The workloads BENCHMARK.json names; "all" runs these. swim-scale runs only
# when named: on a shared host its rate moved too far between runs of the
# same code to carry a regression bound (see README.md).
WORKLOADS = ["burst-backlog", "rt-drain-traced"]
DIAGNOSTIC_WORKLOADS = ["swim-scale"]
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or str(ROOT / ".bench_build")
    return Path(base).resolve() / "perfbench-release"


def build(out):
    """Configures once, then builds incrementally; logs go to build.log."""
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log_path})")
    return out / "perfbench"


def source_context():
    """Commit when the checkout is a git repository, plus a digest of src/."""
    commit = ""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"git_commit": commit or "unknown", "src_sha256": digest.hexdigest()[:16]}


def run_one(binary, workload, args, spec, context):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(binary.parent / "out")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"{workload}: exited with code {proc.returncode} and no output")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"{workload}: exited with code {proc.returncode} without a result line")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"{workload}: metrics {sorted(set(got) ^ set(expected))} disagree with BENCHMARK.json")
    stamp = dict(context)
    for line in lines:
        if line.startswith("context: "):
            stamp["machine"] = line[len("context: "):]
    print(f"source: git_commit={stamp['git_commit']} src_sha256={stamp['src_sha256']}")
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": stamp, **result}
    Path(args.results).parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a") as f:
        f.write(json.dumps(record) + "\n")
    return result, proc.returncode


def main():
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + DIAGNOSTIC_WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.get("run_seconds", 10))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results", default=None,
                        help="JSONL file results are appended to "
                             "(default: <build dir>/results.jsonl)")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources at {ROOT / 'src'}; run from a full checkout", code=2)
    if not spec:
        fail(f"no BENCHMARK.json at {ROOT}", code=2)
    binary = build(build_dir())
    if args.results is None:
        args.results = str(binary.parent / "results.jsonl")
    context = source_context()

    if args.workload != "all":
        result, code = run_one(binary, args.workload, args, spec, context)
        print(json.dumps(result))
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        result, code = run_one(binary, workload, args, spec, context)
        worst = worst or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
