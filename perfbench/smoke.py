#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny input sizes.

    python3 perfbench/smoke.py

Runs every workload untraced and traced with ``--tiny`` and checks the
output contract: the last line is one JSON object with exactly the keys
correct, attempted, failed and metrics; the metric names and units are
exactly those BENCHMARK.json lists for the mode; the run is correct and no op
failed (failed_frac is 0); the detail file carries every end-to-end figure
perfbench/README.md names for the workload. It also checks that the
benchmark refuses to run, without printing a result, in a directory holding
only BENCHMARK.json and perfbench/. Timings are never checked.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# End-to-end figures each workload must print (README.md, "Metrics").
DETAIL_KEYS = {
    "pipeline-votek": ("uniq_clusters", "mean_inv_size", "phi"),
    "select-dpp-ucs": ("uniq_clusters", "mean_inv_size", "phi"),
    "estimate-oracle": ("oracle_abs_err",),
}
COMMON_KEYS = ("setup_s", "op_ref_p50", "op_s_p50", "ref_s_p50", "op_s_p90",
               "op_s_p90_samples", "ops_per_s", "peak_rss_mb", "failed_frac")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.5",
               "--trace", str(trace), "--tiny")
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted={result['attempted']}")
    listed = bench["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        errors.append(f"{where}: metric names/units differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)) \
                or not math.isfinite(m["value"]):
            errors.append(f"{where}: metric {name} is {m}")
    detail_dir = next(line.split(": ", 1)[1] for line in lines
                      if line.startswith("details: "))
    with open(Path(detail_dir) / "result.json", "r", encoding="utf-8") as fh:
        e2e = json.load(fh)["end_to_end"]
    for key in COMMON_KEYS + DETAIL_KEYS[workload]:
        if key not in e2e:
            errors.append(f"{where}: detail lacks {key}")
    if e2e.get("failed_frac") != 0:
        errors.append(f"{where}: failed_frac {e2e.get('failed_frac')}")
    if trace:
        if not (Path(detail_dir) / "spans.jsonl").is_file():
            errors.append(f"{where}: no spans.jsonl written")
    return errors


def check_bare_directory() -> list[str]:
    """Without src/ next to it, the benchmark must fail and print no result."""
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=outdir))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "estimate-oracle", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["bare directory: the benchmark ran without the library"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    errors = check_bare_directory()
    for workload in DETAIL_KEYS:
        for trace in (0, 1):
            errors += check_run(bench, workload, trace)
            print(f"checked {workload} trace={trace}", flush=True)
    for error in errors:
        print("FAIL", error)
    print("smoke: " + ("FAILED" if errors else "OK"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
