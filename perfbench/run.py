#!/usr/bin/env python3
"""ucs benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The library is imported from that
checkout's ``src/`` (or from ``--root DIR``); the benchmark refuses to run
when it is not there. Set-up builds the seeded inputs, runs a tiny
lambda = 0 self-check and one discarded warm-up op. An untraced run then
times more complete set-ups, each in a fresh process started with
``--setup-only``, with reference samples between them. The timed phase
then runs ops back to back, checking every op's outputs, and starts another
op only while the median op so far would still end within ``--seconds``
(but always runs at least MIN_OPS).
Between ops it times a fixed reference computation. Op latency is gated as
a multiple of that reference (``op_ref_p50``). ``setup_s`` is the median
set-up time scaled to the reference's nominal speed, by the reference
samples taken between the set-ups. Both cancel most of a shared host's
speed swings.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics from the traced
ones, plus the tracing overhead against the untraced ones. The last line of
standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; everything else (all metrics named
in perfbench/README.md, the per-op durations, spans) is printed above it and
written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os
import sys
import time

BLAS_THREADS = 2
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import LAYERS, Tracer  # noqa: E402

_T_SCRIPT = time.perf_counter()

# An untraced run does at least SETUP_MIN_REPS complete set-ups, and more
# until they add up to SETUP_MIN_S, so that a short set-up, which a burst of
# the host can stretch, is repeated more often. setup_s is their median.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_REPS = 16
SETUP_REF_DUTY = 0.2  # reference time between set-ups, as a share of them
MIN_OPS = 2  # timed ops per run even when they outlast --seconds
STAGES = ("preprocess", "dict_fit", "dict_encode", "cluster", "prior", "select",
          "analyze")

END_TO_END = (("setup_s", "s"), ("op_ref_p50", "ref"), ("peak_rss_mb", "MB"))

# The reference computation touches no ucs code. Its interpreted part is a
# loop of dict and integer work (about 0.025 s on a 2-core VM); its numpy
# part is a stable argsort of an array larger than the CPU caches and a
# matrix product (about 0.4 s). Each part is timed on its own, and a
# workload runs only the parts its ref_weights use. Op latency divided by
# the weighted geometric mean of the parts' medians cancels most of the
# host's speed swings, which reach 2x over seconds to minutes on a shared
# machine. Set-up time is scaled the same way, by samples taken between the
# set-ups, against REF_NOMINAL_S, those typical part times, so setup_s stays
# in seconds: seconds at the reference's nominal speed. The numpy part's arrays exist only while a
# batch runs, so they add nothing to the ops' peak RSS.
REF_PY_ITERS = 150_000
REF_SORT_N = 2_000_000
REF_MATMUL_N = 600
REF_EVERY_S = 1.0  # reference batches are at least this far apart
REF_DUTY = 0.1  # each batch lasts about this share of the time since the last
REF_MAX_BATCH = 64
REF_NOMINAL_S = (0.025, 0.4)  # (interpreted, numpy)

# Per-layer metrics read from the tracer's per-op stats, named
# "<stat name>.<field>". Times, counts and bytes are means per traced op;
# peaks are the maximum over traced ops.
STAT_METRICS = (
    *(f"cli.stage_{stage}.s" for stage in STAGES),
    "cli.stage_select.calls",
    "preprocess.preprocess_pool.s",
    "latent_dictionary.fit_dictionary.s",
    "latent_dictionary.ridge_encode.s",
    "clustering.cosine_distance_matrix.s",
    "clustering.cosine_distance_matrix.calls",
    "clustering.cosine_distance_matrix.bytes_computed",
    "clustering.cosine_distance_matrix.peak_mb",
    "clustering.knn_quantile_eps_from.s",
    "clustering.dbscan_from.s",
    "coverage.CoverageTracker.gain_if_added.s",
    "coverage.CoverageTracker.gain_if_added.calls",
    "coverage.sgt_weights.calls",
    "coverage.subset_spectrum.s",
    "coverage.subset_spectrum.calls",
    "coverage.sgt_unseen.s",
    "coverage.sgt_unseen.calls",
    "coverage.coverage_phi.s",
    "coverage.coverage_phi.calls",
    "coverage.corpus_prior.s",
    "selection.votek_ucs_select.s",
    "selection.votek_ucs_select.self_s",
    "selection.votek_ucs_select.peak_mb",
    "selection.dpp_kernel.s",
    "selection.dpp_kernel.bytes_computed",
    "selection.dpp_kernel.peak_mb",
    "selection.greedy_dpp_ucs.s",
    "selection.greedy_dpp_ucs.self_s",
    "matrix_store.read_matrix.s",
    "matrix_store.read_matrix.bytes",
    "matrix_store.write_matrix.s",
    "matrix_store.write_matrix.bytes",
    "matrix_store.sha256_file.s",
    "matrix_store.sha256_file.calls",
    "matrix_store.read_labels.s",
    "matrix_store.write_labels.s",
    "synth_oracle.mc_unseen_oracle.s",
    "synth_oracle.mc_unseen_oracle.self_s",
    "synth_oracle.sample_labels.s",
    "synth_oracle.sample_labels.calls",
)
# Metric suffix -> (Stat field, unit).
FIELDS = {"s": ("s", "s"), "self_s": ("self_s", "s"), "calls": ("calls", "count"),
          "bytes": ("bytes", "bytes"), "bytes_computed": ("bytes", "bytes"),
          "peak_mb": ("peak_mb", "MB")}

# Per-layer values taken from the checked outputs: (metric, fact, unit).
FACT_METRICS = (
    ("latent_dictionary.fit_dictionary.n_iter", "n_iter", "count"),
    ("clustering.eps", "eps", "dist"),
    ("clustering.n_clusters", "n_clusters", "count"),
    ("clustering.singleton_frac", "singleton_frac", "frac"),
    ("selection.phi", "phi", "clusters"),
    ("selection.uniq_clusters", "uniq_clusters", "clusters"),
    ("selection.mean_inv_size", "mean_inv_size", "1/size"),
    ("synth_oracle.oracle_abs_err", "oracle_abs_err", "clusters"),
)

# Metric suffixes of values that are computed or counted rather than timed;
# they repeat exactly for a given seed.
COMPUTED_SUFFIXES = ("calls", "bytes", "bytes_computed", "n_iter", "eps",
                     "n_clusters", "singleton_frac")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric (name, unit), in output order."""
    names = [(m, FIELDS[m.rsplit(".", 1)[1]][1]) for m in STAT_METRICS]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [(m, unit) for m, _, unit in FACT_METRICS]
    names += [("trace.overhead_frac", "frac"), ("trace.op_s_p50", "s"),
              ("trace.self_gap_frac", "frac")]
    return names


def process_age() -> float:
    """Seconds since this process started (from /proc), else since the
    script started."""
    try:
        with open("/proc/self/stat", "r", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _T_SCRIPT


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline-votek", "select-dpp-ucs", "estimate-oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes, for the smoke test only")
    parser.add_argument("--root", help="checkout whose src/ is measured "
                        "(default: the one holding this script)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time in seconds and exit")
    return parser.parse_args(argv)


def import_library(root: Path) -> bool:
    """Import ucs from root/src and nowhere else."""
    src = root / "src"
    if not (src / "ucs" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import ucs  # noqa: PLC0415

    return Path(ucs.__file__).resolve().parent == (src / "ucs").resolve()


def weighted_geomean(weights, values) -> float:
    return math.exp(sum(w * math.log(v) for w, v in zip(weights, values) if w))


class Reference:
    """Times the reference computation between ops."""

    def __init__(self, weights: tuple[float, float], duty: float = REF_DUTY):
        self.weights = weights  # (interpreted, numpy)
        self.duty = duty
        self.py_s: list[float] = []
        self.np_s: list[float] = []
        self.total_s = 0.0
        self._last = time.perf_counter()

    def _once(self, arrays) -> None:
        if self.weights[0]:
            start = time.perf_counter()
            counts: dict[int, int] = {}
            acc = 0
            for i in range(REF_PY_ITERS):
                key = i & 1023
                counts[key] = counts.get(key, 0) + 1
                acc += i * i
            self.py_s.append(time.perf_counter() - start)
        if self.weights[1]:
            to_sort, mat = arrays
            start = time.perf_counter()
            np.argsort(to_sort, kind="stable")
            mat @ mat
            self.np_s.append(time.perf_counter() - start)

    def divisor(self) -> float:
        """Weighted geometric mean of the parts' median times, in seconds."""
        return weighted_geomean(self.weights, (median(self.py_s), median(self.np_s)))

    def nominal(self) -> float:
        """The divisor at the nominal speed, in seconds."""
        return weighted_geomean(self.weights, REF_NOMINAL_S)

    @property
    def samples(self) -> int:
        return max(len(self.py_s), len(self.np_s))

    def between_ops(self, force: bool = False) -> None:
        """Take a batch of samples lasting about ``duty`` of the time since
        the last batch, so the samples spread evenly over the timed phase."""
        start = time.perf_counter()
        since = start - self._last
        if since < REF_EVERY_S and not force:
            return
        typical = sum(statistics.median(samples) if samples else guess
                      for weight, samples, guess in zip(
                          self.weights, (self.py_s, self.np_s), REF_NOMINAL_S)
                      if weight)
        batch = min(REF_MAX_BATCH, max(1, round(self.duty * since / typical)))
        arrays = None
        if self.weights[1]:
            rng = np.random.default_rng(0)
            arrays = (rng.standard_normal(REF_SORT_N),
                      rng.standard_normal((REF_MATMUL_N, REF_MATMUL_N)))
        for _ in range(batch):
            self._once(arrays)
        del arrays
        self._last = time.perf_counter()
        self.total_s += self._last - start


class Runner:
    """Runs ops of one workload and keeps their durations and outcomes."""

    def __init__(self, workload, inputs, tracer, outcome_cls):
        self.workload = workload
        self.outcome_cls = outcome_cls
        self.inputs = inputs
        self.tracer = tracer
        self.reference = None  # fingerprint of the warm-up op
        self.log: list[dict] = []

    def attempt(self, index: int, traced: bool):
        wl = self.workload
        sink = io.StringIO()  # the analyze stage prints its report table
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                if traced:
                    with self.tracer.op(index):
                        raw = wl.op(self.inputs, index)
                else:
                    raw = wl.op(self.inputs, index)
        except Exception:  # an op that raises is a failed op; keep running
            duration = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            problem = "op raised " + traceback.format_exc(limit=1)
            outcome = self.outcome_cls(problems=[problem])
        else:
            duration = time.perf_counter() - start
            outcome = wl.inspect(self.inputs, raw, index)
        if wl.deterministic and not outcome.problems:
            if self.reference is None:
                self.reference = outcome.fingerprint
            elif outcome.fingerprint != self.reference:
                outcome.problems.append("output differs from the warm-up op's")
        for problem in outcome.problems:
            print(f"[op {index}] FAILED CHECK: {problem}", file=sys.stderr)
        self.log.append({"op": index, "traced": traced, "s": duration,
                         "ok": not outcome.problems})
        return duration, outcome


def median(values):
    return statistics.median(values) if values else float("nan")


def p90_with_tail(values):
    """Linear-interpolated 90th percentile and how many samples lie above it."""
    if len(values) < 2:
        return float("nan"), 0
    value = statistics.quantiles(values, n=10, method="inclusive")[-1]
    return value, sum(1 for v in values if v > value)


def layer_metrics(tracer, runner_log, outcomes_quality, computed_counts):
    ops = tracer.op_stats
    out = {}
    for metric in STAT_METRICS:
        stat_name, suffix = metric.rsplit(".", 1)
        field = FIELDS[suffix][0]
        values = [getattr(s[stat_name], field) if stat_name in s else 0 for s in ops]
        if field == "peak_mb":
            out[metric] = max(values, default=0.0)
        else:
            out[metric] = sum(values) / len(values) if values else 0.0
    selfs = [tracer.layer_self_s(s) for s in ops]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s[layer] for s in selfs) / len(selfs) if selfs else 0.0
    for metric, fact, _unit in FACT_METRICS:
        out[metric] = outcomes_quality.get(fact, 0)
    untraced = [e["s"] for e in runner_log if not e["traced"] and e["ok"]]
    traced = [e["s"] for e in runner_log if e["traced"] and e["ok"]]
    out["trace.op_s_p50"] = median(traced)
    out["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0
    gaps = [(d - sum(s.values())) / d for d, s in zip(tracer.op_durations, selfs)]
    out["trace.self_gap_frac"] = median(gaps)
    self_sum = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    blocking = {"self_sum_s": self_sum, "traced_op_s_p50": out["trace.op_s_p50"],
                "traced_op_s_mean": sum(tracer.op_durations) / len(tracer.op_durations),
                "frac_from_p50": self_sum / out["trace.op_s_p50"] - 1.0}
    checks = {}
    for metric, expected in computed_counts.items():
        checks[metric] = {"counted": out[metric], "expected": expected,
                          "match": out[metric] == expected}
    return out, checks, blocking


def main(argv=None) -> int:
    args = parse_args(argv)
    here = Path(__file__).resolve().parent
    root = Path(args.root).resolve() if args.root else here.parent
    if not import_library(root):
        print(f"ucs benchmark: no ucs package under {root / 'src'}; "
              "run from the root of a ucs checkout", file=sys.stderr)
        return 2
    import workloads  # noqa: PLC0415

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    outdir = root / ".perfbench_out" / run_id
    workdir = outdir / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            problems = set_up(args, workloads, str(workdir))[-1]
            print(process_age())
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1 if problems else 0
        return run(args, workloads, root, outdir, str(workdir))
    finally:
        shutil.rmtree(outdir if args.setup_only else workdir, ignore_errors=True)


def set_up(args, workloads, workdir: str):
    """Build the inputs, run the self-check and one discarded warm-up op."""
    wl = workloads.WORKLOADS[args.workload](args.tiny, workdir)
    problems = [f"self-check: {p}" for p in workloads.self_check(args.seed)]
    start = time.perf_counter()
    inputs = wl.build(args.seed)
    build_s = time.perf_counter() - start
    modules = {name: sys.modules[f"ucs.{name}"] for name in LAYERS}
    tracer = Tracer(modules)
    runner = Runner(wl, inputs, tracer, workloads.Outcome)
    warm_s, warm = runner.attempt(0, traced=False)
    problems += [f"warm-up: {p}" for p in warm.problems]
    runner.log.clear()
    return wl, inputs, tracer, runner, build_s, warm_s, problems


def repeat_set_up(args, root: Path, first_s: float, setup_ref: Reference):
    """Time complete set-ups, each in a fresh process, with a batch of
    reference samples after each, until there are enough of them."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only",
           "--root", str(root)] + (["--tiny"] if args.tiny else [])
    times, problems = [first_s], []
    while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_MIN_S
                                          and len(times) < SETUP_MAX_REPS):
        try:
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                                  timeout=120, check=False)
        except subprocess.TimeoutExpired:
            problems.append("a repeated set-up timed out")
            break
        if proc.returncode != 0:
            problems.append("a repeated set-up failed: " + proc.stderr.strip()[-500:])
            break
        times.append(float(proc.stdout.split()[-1]))
        setup_ref.between_ops(force=True)
    return times, problems


def run(args, workloads, root: Path, outdir: Path, workdir: str) -> int:
    rss_base_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_ref = Reference(workloads.WORKLOADS[args.workload].ref_weights,
                          duty=SETUP_REF_DUTY)
    wl, inputs, tracer, runner, build_s, warm_s, problems = set_up(args, workloads,
                                                                   workdir)
    setup_times = [process_age()]
    setup_ref.between_ops(force=True)
    if not args.trace:  # setup_s is an end-to-end metric only
        setup_times, failures = repeat_set_up(args, root, setup_times[0], setup_ref)
        problems += failures

    outcomes, durations = [], []
    reference = Reference(wl.ref_weights)
    phase_start = time.perf_counter()
    reference.between_ops(force=True)
    index = 0
    while index < MIN_OPS or (time.perf_counter() - phase_start
                              + statistics.median(durations) <= args.seconds):
        index += 1
        traced = bool(args.trace) and index % 2 == 0
        duration, outcome = runner.attempt(index, traced)
        outcomes.append(outcome)
        durations.append(duration)
        reference.between_ops()
    wall = time.perf_counter() - phase_start - reference.total_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.problems)
    ok_untraced = [e["s"] for e in runner.log if e["ok"] and not e["traced"]]
    quality = workloads.quality(wl.name, outcomes)
    p90, beyond = p90_with_tail(ok_untraced)
    ref_s = reference.divisor()
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "inputs": wl.describe(),
        "threads": {"pipeline": workloads.PIPELINE_THREADS, "blas": BLAS_THREADS,
                    "nproc": os.cpu_count()},
        "setup": {"times_s": setup_times, "build_s": build_s, "warmup_s": warm_s,
                  "self_check": "ok" if not any(p.startswith("self-check")
                                                for p in problems) else "FAILED"},
        "problems": problems, "ops": runner.log,
        "end_to_end": {
            "setup_s": (statistics.median(setup_times) * setup_ref.nominal()
                        / setup_ref.divisor()),
            "setup_wall_s": statistics.median(setup_times),
            "setup_ref_s_p50": setup_ref.divisor(),
            "setup_ref_samples": setup_ref.samples,
            "op_s_p50": median(ok_untraced),
            "op_ref_p50": median(ok_untraced) / ref_s,
            "ref_s_p50": ref_s, "ref_nominal_s": reference.nominal(),
            "ref_weights": wl.ref_weights,
            "ref_samples": reference.samples,
            "op_s_p90": p90, "op_s_p90_samples": len(ok_untraced),
            "op_s_p90_beyond": beyond,
            "ops_per_s": sum(1 for e in runner.log if e["ok"]) / wall,
            "peak_rss_mb": peak_rss_mb, "rss_base_mb": rss_base_mb,
            "failed_frac": failed / attempted,
            **quality,
        },
    }
    correct = not problems and failed == 0

    if args.trace:
        values, checks, blocking = layer_metrics(tracer, runner.log, quality,
                                                 wl.computed_counts(inputs))
        detail["per_layer"] = values
        detail["count_checks"] = checks
        detail["blocking_path"] = blocking
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_names()}
        tracer.write(str(outdir / "spans.jsonl"))
    else:
        e2e = detail["end_to_end"]
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    with open(outdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print_report(detail, metrics, outdir)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_report(detail, metrics, outdir) -> None:
    e2e = detail["end_to_end"]
    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"seconds {detail['seconds']}  trace {detail['trace']}")
    print("inputs", json.dumps(detail["inputs"], sort_keys=True))
    t = detail["threads"]
    print(f"threads: pipeline={t['pipeline']} blas={t['blas']} nproc={t['nproc']}")
    print(f"self-check (lambda=0 equals base selector): {detail['setup']['self_check']}")
    n_ops = e2e["op_s_p90_samples"]
    rows = [("setup_s", e2e["setup_s"], "s",
             f"median of {len(detail['setup']['times_s'])} set-ups, "
             f"{e2e['setup_wall_s']:.4g} s wall, x ref_nominal_s / setup_ref_s_p50 "
             f"({e2e['setup_ref_samples']} samples between set-ups)"),
            ("op_ref_p50", e2e["op_ref_p50"], "ref",
             f"op_s_p50 / ref_s_p50 ({e2e['ref_samples']} reference samples)"),
            ("op_s_p50", e2e["op_s_p50"], "s", f"n={n_ops} untraced ops"),
            ("ref_s_p50", e2e["ref_s_p50"], "s",
             "reference, (interpreted, numpy) weights {}".format(e2e["ref_weights"]))]
    if e2e["op_s_p90_beyond"] >= 10:
        rows.append(("op_s_p90", e2e["op_s_p90"], "s",
                     f"n={n_ops}, {e2e['op_s_p90_beyond']} beyond"))
    rows += [("ops_per_s", e2e["ops_per_s"], "1/s", ""),
             ("peak_rss_mb", e2e["peak_rss_mb"], "MB",
              f"{e2e['rss_base_mb']:.4g} MB of it before set-up (interpreter, "
              "numpy, ucs)"),
             ("failed_frac", e2e["failed_frac"], "frac", "")]
    units = {"uniq_clusters": "clusters", "mean_inv_size": "1/size",
             "phi": "clusters", "oracle_abs_err": "clusters"}
    rows += [(k, e2e[k], u, "seeded, deterministic") for k, u in units.items() if k in e2e]
    print("end-to-end" + (" (informational: this run alternates traced ops; "
                          "measure these with --trace 0)" if detail["trace"] else ""))
    for name, value, unit, note in rows:
        print(f"  {name:<16} {value:>14.6g} {unit:<9} {note}")
    if detail["trace"]:
        print("per-layer (from the traced ops; 'computed' marks counts that repeat exactly)")
        for name, m in metrics.items():
            note = "computed" if name.rsplit(".", 1)[1] in COMPUTED_SUFFIXES else ""
            print(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<8} {note}")
        b = detail["blocking_path"]
        print(f"  blocking path: layer self times sum to {b['self_sum_s']:.6g} s; traced "
              f"op mean {b['traced_op_s_mean']:.6g} s, p50 {b['traced_op_s_p50']:.6g} s "
              f"(sum vs p50 {b['frac_from_p50']:+.4f}, trace.overhead_frac "
              f"{metrics['trace.overhead_frac']['value']:+.4f})")
        for name, c in detail["count_checks"].items():
            print(f"  check {name}: counted {c['counted']:.0f}, expected "
                  f"(B*N - B(B-1)/2) {c['expected']}, match={c['match']}")
    for problem in detail["problems"]:
        print("PROBLEM", problem)
    print(f"details: {outdir}")


if __name__ == "__main__":
    sys.exit(main())
