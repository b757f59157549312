#!/usr/bin/env python3
"""Build klb_benchmark and run it.

One run, as BENCHMARK.json's command (the last stdout line is the result
as one JSON object):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Repeated runs of every workload, each in its own process, alternating the
workload order between rounds; writes one JSON file per run:

    python3 benchmark/run.py --repeat N [--trace] [--seed S] [--seconds S]
                             [--out DIR]

Both build benchmark/ (CMake, Release) into $CARGO_TARGET_DIR, or
.bench_build at the checkout root, before running anything.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
BINARY = BUILD / "klb_benchmark"
WORKLOADS = ["steady_pool", "klb_churn", "dataplane_burst", "fleet_control"]


def die_with_parent():
    """Child pre-exec hook: the child is killed if this process dies."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def call(cmd, **kw):
    """Run `cmd` to completion; it dies with us if we are killed first."""
    proc = subprocess.Popen(cmd, preexec_fn=die_with_parent, **kw)
    out, _ = proc.communicate()
    return proc.returncode, out


def build():
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    cmd = ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    code, _ = call(cmd, stdout=sys.stderr, env=env)
    if code != 0:
        sys.exit("run.py: configuring benchmark/ failed")
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = call(["cmake", "--build", str(BUILD), "--target",
                    "klb_benchmark", "-j", jobs], stdout=sys.stderr, env=env)
    if code != 0:
        sys.exit("run.py: building klb_benchmark failed")


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_binary(args):
    """Run klb_benchmark; returns (exit code, result objects)."""
    code, out = call([str(BINARY)] + args, stdout=subprocess.PIPE, text=True)
    results = [json.loads(line) for line in out.splitlines()
               if line.startswith("{")]
    return code, results


def single_run(a):
    end_to_end, per_layer = declared_metrics()
    build()
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds)]
    if a.trace == "1":
        args.append("--trace")
    code, results = run_binary(args)
    if code not in (0, 1) or len(results) != 1:
        sys.exit(f"run.py: klb_benchmark failed (exit {code})")
    res = results[0]
    group, declared = ((res.get("per_layer", {}), per_layer) if a.trace == "1"
                       else (res["end_to_end"], end_to_end))
    if {n: m["unit"] for n, m in group.items()} != declared:
        sys.exit("run.py: metrics differ from BENCHMARK.json")
    line = {
        "correct": bool(res["correct"]) and code == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in group.items()},
    }
    print(json.dumps(line), flush=True)
    return 0 if code == 0 else 1


def repeat_runs(a):
    build()
    out = Path(a.out)
    out.mkdir(parents=True, exist_ok=True)
    files, failures = [], 0
    for i in range(a.repeat):
        seed = a.seed + i
        for w in WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]:
            path = out / f"{w}-seed{seed}{'-trace' if a.trace else ''}.json"
            args = ["--workload", w, "--seed", str(seed),
                    "--seconds", str(a.seconds), "--json", str(path)]
            if a.trace:
                args.append("--trace")
            code, _ = run_binary(args)
            failures += code != 0
            files.append(str(path))
    print(f"\n{len(files)} runs written to {out}; {failures} failed.")
    print("summarise or compare with: python3 benchmark/compare.py "
          f"{out}/*.json [-- OTHER/*.json]")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   choices=["0", "1"])
    p.add_argument("--repeat", type=int)
    p.add_argument("--out", default=str(BUILD / "runs"))
    a = p.parse_args()
    if (a.workload is None) == (a.repeat is None):
        p.error("give exactly one of --workload or --repeat")
    if a.seconds < 1 or (a.repeat is not None and a.repeat < 1):
        p.error("--seconds and --repeat must be at least 1")
    if a.workload is not None:
        return single_run(a)
    a.trace = a.trace == "1"
    return repeat_runs(a)


if __name__ == "__main__":
    sys.exit(main())
