#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent and a change, or one
commit against itself.

    python3 perfbench/compare.py --base PARENT_CHECKOUT --head CHANGE_CHECKOUT
    python3 perfbench/compare.py                  # this checkout against itself

Both sides run this script's own run.py (``--root`` points it at each
side's ``src/``), so the benchmark code is identical on both. Every workload
in BENCHMARK.json runs; pair i uses seed i on both sides (i = 1..runs), and
the side that runs first alternates from pair to pair. For every workload and end-to-end metric the report gives
each side's median and quartiles (``statistics.quantiles(n=4)``), the spread
(quartile distance over the median) and the head's change against the base,
and flags:

* ``SPREAD``: a side's spread exceeds the metric's bound;
* ``WORSE``: the head's median is worse than the base's by more than the
  bound;
* ``INCORRECT``: a run reported correct=false or did not finish.

Exits 1 when anything is flagged. Raw results go to
``.perfbench_out/compare-<time>.json`` in this checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(tree: Path, workload: str, seed: int, seconds: float, timeout: float):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--root", str(tree)]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def worse_by(base: float, head: float, better: str) -> float:
    """Share of the base median by which head is worse (negative: better)."""
    change = (head - base) / base
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default=str(ROOT), help="parent checkout")
    parser.add_argument("--head", help="change checkout (default: the base again)")
    parser.add_argument("--runs", type=int, default=10, help="runs per side")
    args = parser.parse_args(argv)

    bench = load_benchmark()
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    sides = {"base": Path(args.base).resolve(),
             "head": Path(args.head or args.base).resolve()}
    results = {w: {"base": [], "head": []} for w in workloads}

    for i in range(args.runs):
        seed = i + 1
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for workload in workloads:
            for side in order:
                res = run_once(sides[side], workload, seed, seconds, timeout=900)
                results[workload][side].append(res)
                status = "failed to finish" if res is None else (
                    "ok" if res["correct"] else "INCORRECT")
                print(f"pair {i + 1}/{args.runs} seed {seed} {workload} {side}: {status}",
                      flush=True)

    flagged = False
    print()
    print(f"base {sides['base']}\nhead {sides['head']}\n"
          f"{args.runs} runs per side, {seconds} s each")
    for workload in workloads:
        print(f"\n{workload}")
        runs = results[workload]
        bad = [s for s in ("base", "head") if any(r is None or not r["correct"]
                                                  for r in runs[s])]
        if bad:
            flagged = True
            print(f"  INCORRECT: runs on {', '.join(bad)} failed or were incorrect")
            continue
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            base = summarize([r["metrics"][name]["value"] for r in runs["base"]])
            head = summarize([r["metrics"][name]["value"] for r in runs["head"]])
            worse = worse_by(base["median"], head["median"], metric["better"])
            flags = []
            if max(base["spread"], head["spread"]) > bound:
                flags.append("SPREAD")
            if worse > bound:
                flags.append("WORSE")
            flagged |= bool(flags)
            print(f"  {name:<12} base {base['median']:.6g} [{base['q1']:.6g}, "
                  f"{base['q3']:.6g}] spread {base['spread']:.3f} | head "
                  f"{head['median']:.6g} [{head['q1']:.6g}, {head['q3']:.6g}] "
                  f"spread {head['spread']:.3f} | worse by {worse:+.3f} "
                  f"(bound {bound}) {' '.join(flags)}")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"sides": {k: str(v) for k, v in sides.items()},
                   "runs": args.runs, "results": results}, fh, indent=1)
    print(f"\nraw results: {path}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
