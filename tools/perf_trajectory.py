#!/usr/bin/env python3
"""Append one row to the committed perf trajectory (BENCH_perf.json).

Usage, from the repository root:

    python3 tools/perf_trajectory.py --label TEXT [--root DIR]

Runs `python3 perfbench/run.py --seed 1 --seconds 10 --trace 0` RUNS times
for each workload BENCHMARK.json names, in the tree at --root (default: this
repository), and appends a row to this repository's BENCH_perf.json. Each
tree is built in its own DIR/.bench_build, so two trees never share a build.
The row holds, per workload, every run's rep count and final JSON line plus
the quartiles (q1, median, q3) of each BENCHMARK.json end-to-end metric over
the runs; the host, compiler and nproc perfbench reported; and the sha256 of
the src/ and perfbench/ files that were built. The row records what was
measured; nothing here compares it against an earlier row.
`tools/validate_bench_json BENCH_perf.json` checks the file's schema.
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
    ap.add_argument("--label", required=True)
    ap.add_argument("--root", default=ROOT)
    a = ap.parse_args()
    root = os.path.abspath(a.root)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    workloads = {}
    for w in bench["workloads"]:
        runs = []
        for _ in range(RUNS):
            info, r = run(root, w["name"])
            runs.append(r)
        workloads[w["name"]] = {"runs": runs,
                                "summary": summary(runs, bench["end_to_end"])}
    row = {"label": a.label, "source_sha256": source_sha256(root),
           "host": host(), "compiler": info["compiler"].strip('"'),
           "nproc": int(info["nproc"]), "seed": SEED, "seconds": SECONDS,
           "workloads": workloads}

    doc = {"tool": "perfbench", "schema_version": 1, "rows": []}
    if os.path.exists(OUT):
        with open(OUT) as f:
            doc = json.load(f)
    doc["rows"].append(row)
    with open(OUT, "w") as f:
        f.write(dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
