#!/usr/bin/env python3
"""Compare two sets of klb_benchmark runs against BENCHMARK.json's bounds.

    python3 benchmark/compare.py BASE.json... -- HEAD.json...
    python3 benchmark/compare.py RUNS.json...        # one side: summary only

Each file is what `klb_benchmark --json PATH` (or benchmark/run.py
--repeat) writes. For every workload and end-to-end metric the report
gives each side's run count, median and quartiles, and a verdict against
the metric's bound (the share of BASE's median it may worsen by):

  worse       HEAD's median is worse than BASE's by more than the bound
  better      HEAD's median is better than BASE's by more than the bound
  within      the medians differ by no more than the bound
  unresolved  a side's spread (quartile distance over median) exceeds the
              bound, and the runs do not separate (not every HEAD run beats,
              or loses to, every BASE run)

Exits 1 when any verdict is "worse" or any run failed its checks.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    """{workload: {metric: [values]}}, plus the number of incorrect runs."""
    runs, incorrect = {}, 0
    for path in paths:
        data = json.loads(Path(path).read_text())
        for res in data if isinstance(data, list) else [data]:
            incorrect += not res["correct"]
            per = runs.setdefault(res["workload"], {})
            for name, m in res["end_to_end"].items():
                per.setdefault(name, []).append(m["value"])
    return runs, incorrect


def stats(values):
    """(median, first quartile, third quartile, spread share)."""
    med = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = med
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def verdict(base, head, better, bound):
    bm, _, _, bs = stats(base)
    hm, _, _, hs = stats(head)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (hm - bm) / bm if bm else 0.0
    if max(bs, hs) > bound:
        if all(sign * (h - b) < 0 for h in head for b in base):
            return "better", worse_by
        if all(sign * (h - b) > 0 for h in head for b in base):
            return "worse", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "within", worse_by


def fmt(v):
    return f"{v:.6g}"


def main(argv):
    if "--" in argv:
        cut = argv.index("--")
        base_paths, head_paths = argv[:cut], argv[cut + 1:]
    else:
        base_paths, head_paths = argv, []
    if not base_paths or ("--" in argv and not head_paths):
        sys.exit(__doc__)
    spec = json.loads(SPEC.read_text())
    base, bad = load(base_paths)
    head, head_bad = load(head_paths)
    bad += head_bad

    worse = 0
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base:
            continue
        print(f"== {name}")
        for m in spec["end_to_end"]:
            b = base[name].get(m["name"])
            if not b:
                continue
            med, q1, q3, spread = stats(b)
            line = (f"  {m['name']:16s} base n={len(b):<2d} median {fmt(med):>11s}"
                    f" [{fmt(q1)}, {fmt(q3)}] spread {spread:6.3f}")
            h = head.get(name, {}).get(m["name"])
            if h:
                hmed, hq1, hq3, hspread = stats(h)
                v, worse_by = verdict(b, h, m["better"], m["bound"])
                worse += v == "worse"
                line += (f" | head n={len(h):<2d} median {fmt(hmed):>11s}"
                         f" [{fmt(hq1)}, {fmt(hq3)}] spread {hspread:6.3f}"
                         f" | {worse_by:+7.3f} vs bound {m['bound']:.2f}: {v}")
            print(line)
    if bad:
        print(f"{bad} run(s) failed their checks")
    return 1 if worse or bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
