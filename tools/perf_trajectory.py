#!/usr/bin/env python3
"""Append one row to the committed perf trajectory (BENCH_perf.json), or
gate a fresh measurement against its last row.

Usage, from the repository root:

    python3 tools/perf_trajectory.py --label TEXT [--root DIR]
    python3 tools/perf_trajectory.py --check [--root DIR]

Runs `python3 perfbench/run.py --seed 1 --seconds 10 --trace 0` RUNS times
for each workload BENCHMARK.json names, in the tree at --root (default: this
repository), and appends a row to this repository's BENCH_perf.json. Each
tree is built in its own DIR/.bench_build, so two trees never share a build.
The row holds, per workload, every run's rep count and final JSON line plus
the quartiles (q1, median, q3) of each BENCHMARK.json end-to-end metric over
the runs; the host, compiler and nproc perfbench reported; and the sha256 of
the src/ and perfbench/ files that were built.
`tools/validate_bench_json BENCH_perf.json` checks the file's schema.

--check measures the tree the same way but appends nothing. It compares
each workload's end-to-end medians with the last row's. A metric fails
when it is worse than the last median by more than its BENCHMARK.json
bound plus both rows' interquartile spreads: the two rows were measured one
after the other, not in alternating pairs, so each row's own noise widens
the bound. A run that reports a failed operation fails too. Exit 0 when
every metric holds, 1 otherwise.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_perf.json")
SEED = 1
SECONDS = 10
RUNS = 5


def host():
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{platform.system()} {platform.machine()}, {model}"


def source_sha256(root):
    """Digest of the files perfbench compiles: src/ and perfbench/."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read() + b"\0")
    return h.hexdigest()


def run(root, workload):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    out = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                         text=True, check=True).stdout.splitlines()
    info = dict(re.findall(r'(\w+)=("[^"]*"|\S+)', out[0]))
    reps = int(re.match(r"measured: (\d+) reps", out[1]).group(1))
    return info, {"reps": reps, "result": json.loads(out[-1])}


def summary(runs, metrics):
    out = {}
    for m in metrics:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[m["name"]] = {"unit": m["unit"], "q1": q1, "median": median,
                          "q3": q3}
    return out


def measure(root, bench):
    """Run every workload RUNS times in the tree at `root`; return the row."""
    workloads = {}
    for w in bench["workloads"]:
        runs = []
        for _ in range(RUNS):
            info, r = run(root, w["name"])
            runs.append(r)
        workloads[w["name"]] = {"runs": runs,
                                "summary": summary(runs, bench["end_to_end"])}
    return {"source_sha256": source_sha256(root), "host": host(),
            "compiler": info["compiler"].strip('"'),
            "nproc": int(info["nproc"]), "seed": SEED, "seconds": SECONDS,
            "workloads": workloads}


def check(last, fresh, bench):
    """Print one line per (workload, metric); return the number that fail."""
    print(f"against: {last['label']} ({last['host']}, nproc {last['nproc']})")
    print(f"fresh:   {fresh['host']}, nproc {fresh['nproc']}")
    failures = 0
    for w in bench["workloads"]:
        name = w["name"]
        for r in fresh["workloads"][name]["runs"]:
            if not r["result"]["correct"] or r["result"]["failed"] > 0:
                print(f"FAIL {name}: a run reported failed operations")
                failures += 1
        for m in bench["end_to_end"]:
            old = last["workloads"][name]["summary"][m["name"]]
            new = fresh["workloads"][name]["summary"][m["name"]]
            spread = (old["q3"] - old["q1"]) + (new["q3"] - new["q1"])
            if m["better"] == "lower":
                limit = old["median"] * (1 + m["bound"]) + spread
                ok = new["median"] <= limit
            else:
                limit = old["median"] * (1 - m["bound"]) - spread
                ok = new["median"] >= limit
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name} {m['name']}: "
                  f"{new['median']:.6g} (last {old['median']:.6g}, "
                  f"limit {limit:.6g} {m['unit']})")
    return failures


def dumps(v, depth=0):
    """Indented JSON, with each run and each metric summary on one line."""
    if depth == 6 or not isinstance(v, (dict, list)) or not v:
        return json.dumps(v)
    pad = "\n" + " " * (depth + 1)
    if isinstance(v, dict):
        items = [json.dumps(k) + ": " + dumps(x, depth + 1)
                 for k, x in v.items()]
        return "{" + pad + ("," + pad).join(items) + "\n" + " " * depth + "}"
    items = [dumps(x, depth + 1) for x in v]
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--label")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--root", default=ROOT)
    a = ap.parse_args()
    if a.check == (a.label is not None):
        ap.error("give exactly one of --label and --check")
    root = os.path.abspath(a.root)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    doc = {"tool": "perfbench", "schema_version": 1, "rows": []}
    if os.path.exists(OUT):
        with open(OUT) as f:
            doc = json.load(f)
    if a.check and not doc["rows"]:
        ap.error(f"{OUT} has no row to check against")

    row = measure(root, bench)
    if a.check:
        return 1 if check(doc["rows"][-1], row, bench) else 0
    doc["rows"].append({"label": a.label, **row})
    with open(OUT, "w") as f:
        f.write(dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
