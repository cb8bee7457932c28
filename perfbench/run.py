#!/usr/bin/env python3
"""The SkinnyMine benchmark: one command per workload run, plus a compare mode.

Run (from the repository root):

    python3 perfbench/run.py --workload mine_grow --seed 1 --seconds 15 --trace 0

builds perfbench/perfbench.exe with dune, generates the workload's input
from the seed, runs the workload in child processes, checks every output,
prints each metric by name with its unit, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (a separate, traced run). The exit code is 0 only when every
output was correct. --out FILE appends the stamped result to FILE (JSON
lines); --compare BASE NEW compares two such files metric by metric.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170  # one run, after the build, must end within 180 s
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORK = ".perfbench"
SOURCE_DIRS = ("lib", "bin", "perfbench")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ".", "perfbench/perfbench.exe"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if p.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(p.stdout[-4000:])
        fail("build failed")


def nproc():
    return len(os.sched_getaffinity(0))


def source_digest():
    """Content hash of the sources, so results stay attributable where the
    checkout is not a git repository."""
    h = hashlib.sha256()
    paths = ["dune-project"]
    for top in SOURCE_DIRS:
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if not x.startswith((".", "_")))
            paths += [os.path.join(d, f) for f in files]
    for p in sorted(paths):
        if p.endswith((".ml", ".mli", ".py")) or os.path.basename(p) in (
            "dune",
            "dune-project",
        ):
            h.update(p.encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        p = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
        )
        return p.stdout.strip() if p.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def run_child(args, deadline):
    """Run one perfbench subcommand in its own process group; return its
    last stdout line as JSON. The group is killed if the run overstays."""
    p = subprocess.Popen(
        [EXE] + args, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{args[0]} overran the run budget", code=3)
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(f"{args[0]} exited with {p.returncode}", code=3)
    return json.loads(lines[-1])


def measure(a):
    """Generate the input and run the workload in a fresh work directory;
    the traced run's spans are kept beside it, the rest is removed."""
    workdir = os.path.join(WORK, f"{a.workload}-{a.seed}-{os.getpid()}")
    os.makedirs(workdir)
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--seed", str(a.seed), "--dir", workdir, "--jobs", str(nproc())]
    timing = ["--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        gen = run_child(["gen", "--workload", a.workload] + common, deadline)
        if a.workload == "serve_mixed":
            res = run_child(["serve"] + common + timing, deadline)
        else:
            res = run_child(
                ["mine", "--workload", a.workload] + common + timing, deadline
            )
        spans = os.path.join(workdir, "trace.jsonl")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(WORK, f"{a.workload}-{a.seed}.trace.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return gen["info"], res


def result(a, bench, gen_info, res):
    declared = bench["per_layer"] if a.trace else bench["end_to_end"]
    info = res["info"]
    attempted = gen_info["attempted"] + info["attempted"]
    failed = gen_info["failed"] + info["failed"]
    problems = gen_info["problems"] + info["problems"]
    metrics = {}
    for m in declared:
        v = res["metrics"].get(m["name"])
        if v is None or not math.isfinite(v) or (not a.trace and v <= 0):
            problems.append(f"metric {m['name']} missing or not positive: {v}")
            failed += 1
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    stamp = {
        "nproc": nproc(),
        "jobs": info["jobs"],
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "ocaml": info["ocaml"],
        "seed": a.seed,
        "seconds": a.seconds,
        "workload": a.workload,
        "sizes": info["sizes"],
    }
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return out, stamp, problems, info


def print_report(out, stamp, problems, info):
    print("stamp " + json.dumps(stamp, sort_keys=True))
    counts = {k: info[k] for k in ("mines", "reads", "updates", "patterns") if k in info}
    print("counts " + json.dumps(counts, sort_keys=True))
    for name, m in out["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    rate = out["failed"] / max(1, out["attempted"])
    print(f"{'fail_rate':34s} {rate:>16.6g} ratio "
          f"({out['failed']} of {out['attempted']})")
    for p in problems:
        print(f"FAILED: {p}")


# ---------------------------------------------------------------- compare


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def read_results(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(base_path, new_path, bench):
    """For each workload and metric: each side's median and quartiles; a
    regression beyond the metric's bound is flagged, and the verdict is
    'unresolved' when the base's own quartile spread is wider than the bound."""
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sides = [read_results(base_path), read_results(new_path)]
    for key in ("nproc", "jobs", "ocaml", "sizes", "seconds"):
        seen = {json.dumps(r["stamp"][key], sort_keys=True) for s in sides for r in s}
        if len(seen) > 1:
            print(f"WARNING: stamps differ in {key}: {sorted(seen)}")
    table = {}
    for i, side in enumerate(sides):
        for r in side:
            for name, v in r["metrics"].items():
                key = (r["stamp"]["workload"], name)
                table.setdefault(key, ([], []))[i].append(v)
    regressions = 0
    print(f"{'workload':12s} {'metric':34s} {'base q1/med/q3':>30s} "
          f"{'new q1/med/q3':>30s}  verdict")
    for (workload, name), (b, n) in sorted(table.items()):
        if not b or not n or name not in spec:
            continue
        m = spec[name]
        bq, nq = quartiles(b), quartiles(n)
        worse = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        if m["better"] == "higher":
            worse = -worse
        bound = m.get("bound")
        spread = (bq[2] - bq[0]) / bq[1] if bq[1] else math.inf
        if bound is None:
            verdict = "info"
        elif spread > bound:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "REGRESSION"
            regressions += 1
        else:
            verdict = "ok"
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{workload:12s} {name:34s} {fmt(bq):>30s} {fmt(nq):>30s}  "
              f"{verdict} ({worse:+.1%} worse, base spread {spread:.1%})")
    return 1 if regressions else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the stamped result to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    a = ap.parse_args()
    bench = load_benchmark()
    if a.compare:
        sys.exit(compare(a.compare[0], a.compare[1], bench))
    names = [w["name"] for w in bench["workloads"]]
    if a.workload not in names:
        fail(f"--workload must be one of {names}")
    build()
    gen_info, res = measure(a)
    out, stamp, problems, info = result(a, bench, gen_info, res)
    print_report(out, stamp, problems, info)
    if a.out:
        record = {
            "stamp": stamp,
            "trace": a.trace,
            "correct": out["correct"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()},
        }
        with open(a.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
