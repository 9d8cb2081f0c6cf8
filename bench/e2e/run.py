#!/usr/bin/env python3
"""End-to-end pipeline benchmark: analyze -> checkpoint -> restart.

Builds the scrutiny libraries, scrutinyd and the scrutiny_e2e harness into
build/e2e (once), then runs workloads, each in its own harness process.

One workload, one run (the form BENCHMARK.json's command takes):
  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
  Prints one JSON line: correct, attempted, failed and the end-to-end
  metrics (--trace 0) or the per-layer metrics (--trace 1).

Every workload, untraced then traced:
  python3 bench/e2e/run.py [--seed N] [--workloads a,b] [--out DIR]
                           [--seconds S] [--smoke]
  Prints one line per metric x workload, writes DIR/results.json and
  DIR/trace-<workload>.json, exits 1 if a correctness check fails.

Two result sets against BENCHMARK.json's bounds:
  python3 bench/e2e/run.py --compare A B
  A and B are results.json files or directories holding them.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build" / "e2e"
HARNESS = BUILD / "scrutiny_e2e"
DAEMON = BUILD / "scrutiny" / "src" / "scrutinyd"
SPEC_FILE = ROOT / "BENCHMARK.json"
HARNESS_TIMEOUT_S = 170
P99_FLOOR = 1000
SMOKE_SECONDS = 2


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads(SPEC_FILE.read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read {SPEC_FILE}: {error}")


def build():
    """Configures build/e2e once and brings the two binaries up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no scrutiny source tree at {ROOT}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "scrutiny_e2e", "scrutinyd"])
    for step in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def run_harness(workload, seed, seconds, trace, out_dir, smoke=False):
    """Runs one workload in its own harness process; returns its JSON."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = out_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    # Tape spill files land under TMPDIR, so keep them in the checkout.
    env = dict(os.environ, TMPDIR=str(tmp))
    command = [str(HARNESS), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--out", str(out_dir), "--scrutinyd", str(DAEMON)]
    if smoke:
        command += ["--setups", "1"]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: harness did not finish in {HARNESS_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: harness exited with {proc.returncode}")
    return json.loads(lines[-1])


def single_run(args, spec):
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known:
        fail(f"unknown workload {args.workload} (valid: {' '.join(known)})")
    build()
    out = BUILD / "runs" / args.workload
    result = run_harness(args.workload, args.seed, args.seconds, args.trace,
                         out)
    section = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in section:
        measured = result["metrics"].get(metric["name"])
        if measured is None:
            fail(f"{args.workload}: harness reported no {metric['name']}")
        metrics[metric["name"]] = {"value": measured["value"],
                                   "unit": metric["unit"]}
    for error in result["errors"]:
        print(f"{args.workload}: {error}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def context_stamp(seed):
    """Where and how the results were measured."""
    def read(path, default="unknown"):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return default

    cpu = "unknown"
    for line in read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    build_type = "unknown"
    for line in read(BUILD / "CMakeCache.txt", "").splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
            "build_type": build_type, "git_sha": sha, "seed": seed}


def all_workloads(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    for name in chosen:
        if name not in names:
            fail(f"unknown workload {name} (valid: {' '.join(names)})")
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    build()
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    results = {"context": context_stamp(args.seed), "smoke": args.smoke,
               "workloads": {}}
    correct = True
    for name in chosen:
        work = out / name
        plain = run_harness(name, args.seed, seconds, False, work, args.smoke)
        traced = run_harness(name, args.seed, seconds, True, work, args.smoke)
        shutil.move(str(work / f"trace-{name}.json"),
                    str(out / f"trace-{name}.json"))
        shutil.rmtree(work, ignore_errors=True)
        results["context"]["compiler"] = plain["compiler"]
        key = "analyze_s" if name.startswith("analyze") else "ckpt_ms_p50"
        base = plain["metrics"][key]["value"]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        results["workloads"][name] = {
            "duration_s": plain["duration_s"],
            "correct": plain["correct"] and traced["correct"],
            "attempted": attempted,
            "failed": failed,
            "failed_ops_frac": failed / attempted if attempted else 1.0,
            "errors": plain["errors"] + traced["errors"],
            "metrics": {m["name"]: plain["metrics"][m["name"]]
                        for m in spec["end_to_end"]},
            "per_layer": {m["name"]: traced["metrics"][m["name"]]
                          for m in spec["per_layer"]},
            "trace_overhead_frac":
                traced["metrics"][key]["value"] / base - 1 if base else 0.0,
        }
        correct = correct and results["workloads"][name]["correct"]
    (out / "results.json").write_text(json.dumps(results, indent=2) + "\n")
    print_results(results, spec)
    print(f"results: {out / 'results.json'}")
    return 0 if correct else 1


def print_results(results, spec):
    for name, w in results["workloads"].items():
        print(f"== {name}  ({w['duration_s']:.1f} s measured, "
              f"{w['attempted']} ops attempted)")
        print(f"  {'failed_ops_frac':32} {w['failed_ops_frac']:>14.6g} "
              f"{'ratio':6} n={w['attempted']}")
        for section in ("metrics", "per_layer"):
            for metric, value in w[section].items():
                print(f"  {metric:32} {value['value']:>14.6g} "
                      f"{value['unit']:6} n={value['samples']}")
        print(f"  {'trace.overhead_frac':32} "
              f"{w['trace_overhead_frac']:>14.6g} ratio")
        for metric in spec["end_to_end"]:
            samples = w["metrics"][metric["name"]]["samples"]
            if (metric["name"].endswith("_p99") and samples < P99_FLOOR
                    and not results["smoke"]):
                print(f"  warning: {metric['name']} rests on {samples} "
                      f"samples (< {P99_FLOOR})")
        for error in w["errors"]:
            print(f"  {error}")


def load_result_sets(path):
    path = Path(path)
    files = sorted(path.rglob("results.json")) if path.is_dir() else [path]
    if not files:
        fail(f"no results.json under {path}")
    return [json.loads(f.read_text()) for f in files]


def spread(values):
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def metric_values(sets, workload, name):
    values = []
    for result in sets:
        entry = result["workloads"].get(workload)
        if entry is None:
            continue
        values.append(entry[name] if name == "failed_ops_frac"
                      else entry["metrics"][name]["value"])
    return values


def judge(metric, a, b):
    """(change, spread, verdict) of B against A for one metric."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    if metric["name"] == "failed_ops_frac":
        # Any rise in failed ops is a difference.
        change = med_b - med_a
        return change, 0.0, "differs (worse)" if change > 0 else "agree"
    change = (med_b - med_a) / med_a if med_a else 0.0
    width = max(spread(a), spread(b))
    worse = change if metric["better"] == "lower" else -change
    b_wins = max(b) < min(a) if metric["better"] == "lower" \
        else min(b) > max(a)
    if width > metric["bound"] and not b_wins:
        return change, width, "unresolved"
    if abs(change) > metric["bound"]:
        return change, width, "differs (worse)" if worse > 0 \
            else "differs (better)"
    return change, width, "agree"


def compare_results(args, spec):
    a_sets = load_result_sets(args.compare[0])
    b_sets = load_result_sets(args.compare[1])
    for key in ("nproc", "build_type", "smoke"):
        seen = {str(r.get(key, r["context"].get(key)))
                for r in a_sets + b_sets}
        if len(seen) > 1:
            fail(f"refusing to compare results with different {key}: "
                 f"{', '.join(sorted(seen))}")
    metrics = spec["end_to_end"] + [
        {"name": "failed_ops_frac", "better": "lower", "bound": 0.0}]
    differs = False
    print(f"{'workload':18} {'metric':16} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in metrics:
            a = metric_values(a_sets, workload, metric["name"])
            b = metric_values(b_sets, workload, metric["name"])
            if not a or not b:
                continue
            change, width, verdict = judge(metric, a, b)
            differs = differs or verdict.startswith("differs")
            print(f"{workload:18} {metric['name']:16} "
                  f"{statistics.median(a):>12.6g} "
                  f"{statistics.median(b):>12.6g} {change:>+8.1%} "
                  f"{width:>7.1%} {metric['bound']:>6.0%}  {verdict}")
    return 1 if differs else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", help="comma list (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--out", default=str(ROOT / "bench-results" / "e2e"))
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS} s per workload, every "
                             "correctness gate, no p99 sample floor")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.compare:
        return compare_results(args, spec)
    if args.workload:
        return single_run(args, spec)
    return all_workloads(args, spec)


if __name__ == "__main__":
    sys.exit(main())
