#!/usr/bin/env python3
"""Build and run the Pipette benchmark (see README.md in this directory).

One run of one workload, as BENCHMARK.json's command is invoked:
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload untraced, then traced, with the merged table:
    python3 benchmark/run.py [--seeds 42] [--runs 1] [--out summary.json]

Compare two summaries against BENCHMARK.json's bounds:
    python3 benchmark/run.py --compare BASE.json NEW.json

Run from the repository root. pipette_bench is built from source into
benchmark/build on first use; build output goes to stderr, so the last line
of stdout in single-run mode is pipette_bench's JSON result.
"""

import argparse
import fcntl
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"
SPEC = ROOT / "BENCHMARK.json"

# Metrics read off a host clock (or the host's memory use). All others are
# pure functions of (workload, seed, scale) and must repeat exactly.
HOST_UNITS = {"s", "ns", "us", "MiB"}
HOST_RATIOS = {
    "fleet.parallel_efficiency",
    "obs.trace_overhead_frac",
}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    if not SPEC.is_file():
        fail(f"{SPEC} not found")
    return json.loads(SPEC.read_text())


def is_host_metric(name, unit):
    return unit in HOST_UNITS or name in HOST_RATIOS


def build():
    """Configures (once) and builds pipette_bench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("simulator sources (src/) not found next to benchmark/")
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        if not (BUILD / "CMakeCache.txt").is_file():
            step = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        step = ["cmake", "--build", str(BUILD), "-j", "2"]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return BUILD / "pipette_bench"


def bench_args(binary, workload, seed, seconds, trace, scale):
    return [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--scale", scale]


def run_once(binary, workload, seed, seconds, trace, scale):
    """Runs pipette_bench once; returns its JSON result line, parsed.

    Exit status 1 is an incorrect run, whose result line still counts."""
    proc = subprocess.run(
        bench_args(binary, workload, seed, seconds, trace, scale),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{workload} seed {seed} trace {trace} exited "
             f"{proc.returncode}")
    return json.loads(lines[-1])


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def machine_info():
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = ""
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1]
                out = subprocess.run([path, "--version"], text=True,
                                     stdout=subprocess.PIPE)
                compiler = out.stdout.splitlines()[0] if out.stdout else path
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler}


def suite(args, spec):
    """Runs every workload; returns the summary and whether all passed."""
    binary = Path(args.binary) if args.binary else build()
    seeds = parse_seeds(args.seeds)
    traces = [args.trace] if args.trace is not None else [0, 1]
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    ok = True
    summary = {"meta": {**machine_info(), "seeds": seeds, "runs": args.runs,
                        "seconds": args.seconds, "scale": args.scale},
               "workloads": {w: {} for w in workloads}}
    for trace in traces:
        for workload in workloads:
            values = {}
            for seed in seeds:
                for _ in range(args.runs):
                    res = run_once(binary, workload, seed, args.seconds,
                                   trace, args.scale)
                    print(f"  {workload} seed {seed} trace {trace}: "
                          f"correct={res['correct']} "
                          f"failed={res['failed']}/{res['attempted']}",
                          file=sys.stderr)
                    if not res["correct"] or res["failed"] != 0:
                        ok = False
                    for m in wanted[trace]:
                        got = res["metrics"].get(m["name"])
                        if got is None or got["unit"] != m["unit"]:
                            print(f"run.py: {workload} does not emit "
                                  f"{m['name']} in {m['unit']}",
                                  file=sys.stderr)
                            ok = False
                            continue
                        values.setdefault(m["name"], []).append(got["value"])
            for m in wanted[trace]:
                vals = values.get(m["name"])
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                summary["workloads"][workload][m["name"]] = {
                    "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                    "values": vals}
    return summary, ok


def print_table(summary, spec):
    workloads = list(summary["workloads"])
    rows = [["metric", "unit"] + workloads]
    for m in spec["end_to_end"] + spec["per_layer"]:
        cells = []
        for w in workloads:
            s = summary["workloads"][w].get(m["name"])
            if s is None:
                cells.append("-")
                continue
            cell = f"{s['median']:.6g}"
            if len(s["values"]) > 1 and s["median"] != 0:
                spread = (s["q3"] - s["q1"]) / abs(s["median"])
                cell += f" ±{100 * spread:.1f}%"
            cells.append(cell)
        if any(c != "-" for c in cells):
            rows.append([m["name"], m["unit"]] + cells)
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)))
    print("(median over all runs; ± is the interquartile range as a share "
          "of the median)")


def compare(base_path, new_path, spec):
    """Applies BENCHMARK.json's bounds; returns True if nothing regressed."""
    base_doc = json.loads(Path(base_path).read_text())
    new_doc = json.loads(Path(new_path).read_text())
    for key in ("seeds", "scale"):
        if base_doc["meta"][key] != new_doc["meta"][key]:
            fail(f"the summaries differ in {key}; compare like with like")
    base, new = base_doc["workloads"], new_doc["workloads"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in sorted(set(base) & set(new)):
        problems = []
        for name, b in base[workload].items():
            n = new[workload].get(name)
            if n is None:
                problems.append(f"{name} missing")
                continue
            if not is_host_metric(name, b["unit"]):
                if n["median"] != b["median"]:
                    problems.append(f"{name} changed {b['median']:.9g} -> "
                                    f"{n['median']:.9g}")
                continue
            if name not in bounds:
                continue  # host-timed per-layer rows carry no bound
            m = bounds[name]
            worse = (n["median"] - b["median"] if m["better"] == "lower"
                     else b["median"] - n["median"])
            if worse > m["bound"] * abs(b["median"]):
                problems.append(f"{name} {b['median']:.6g} -> "
                                f"{n['median']:.6g} (bound {m['bound']:.0%})")
        ok = ok and not problems
        print(f"{workload:20s} {'ok' if not problems else 'REGRESSED'}")
        for p in problems:
            print(f"    {p}")
    return ok


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seeds", help="suite mode: list like 42 or 1-10,42")
    p.add_argument("--runs", type=int, default=1,
                   help="suite mode: runs per seed")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--scale", choices=["smoke", "bench"], default="bench")
    p.add_argument("--binary",
                   help="use this pipette_bench instead of building one")
    p.add_argument("--out", help="suite mode: write the summary here")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args()

    if args.compare:
        sys.exit(0 if compare(*args.compare, spec) else 1)
    if args.workload:
        binary = Path(args.binary) if args.binary else build()
        cmd = bench_args(binary, args.workload, args.seed, args.seconds,
                         0 if args.trace is None else args.trace, args.scale)
        sys.exit(subprocess.run(cmd).returncode)
    if args.seeds is None:
        args.seeds = str(args.seed)
    summary, ok = suite(args, spec)
    print_table(summary, spec)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    if not ok:
        print("run.py: FAILED: a run was incorrect or a metric is missing",
              file=sys.stderr)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
