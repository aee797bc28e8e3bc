"""Traced-run instrumentation that lives entirely outside the library.

While an op is traced, the public functions of each ucs module are replaced
by wrappers in the namespace where their caller looks them up (for example
``ucs.cli.cluster_pool``, or ``ucs.clustering.cosine_distance_matrix``, which
``selection._knn_graph`` re-imports on every call). Nothing under ``src/`` is
edited; the originals are put back when the op ends, so untraced ops and the
output checks run the library as shipped.

Three kinds of wrapper exist:

* span: one record per call (name, start, end, parent span, op id); the
  parent's self time excludes it;
* counter: hot per-call methods (hundreds of thousands of calls per op) get
  a call count and summed time instead of one span per call, and their time
  is removed from the enclosing span's self time. No span may open inside a
  counter, or its time would be removed from the parent twice;
* count-only: a call count and no timing.

Spans flagged ``peak`` also record the tracemalloc peak above the traced
memory level at entry, in MiB, with nested producers handled so that an
inner call's peak-reset does not hide the outer call's peak.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

MIB = float(1 << 20)

LAYERS = ("cli", "preprocess", "latent_dictionary", "clustering", "coverage",
          "selection", "matrix_store", "synth_oracle")


def _square_bytes(args, kwargs, result):
    # Bytes of the N x N float64 matrix the call produces (computed, not
    # measured): 8 * N^2.
    n = result.shape[0]
    return 8 * n * n


def _result_nbytes(args, kwargs, result):
    return int(result.nbytes)


def _written_nbytes(args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    dtype = args[2] if len(args) > 2 else kwargs.get("dtype", "f64")
    return int(matrix.size) * (4 if dtype == "f32" else 8)


# (namespaces, attribute, metric name, byte sizer, track tracemalloc peak)
SPANS = (
    (("cli",), "run_pipeline", "cli.run_pipeline", None, False),
    (("cli",), "stage_preprocess", "cli.stage_preprocess", None, False),
    (("cli",), "stage_dict_fit", "cli.stage_dict_fit", None, False),
    (("cli",), "stage_dict_encode", "cli.stage_dict_encode", None, False),
    (("cli",), "stage_cluster", "cli.stage_cluster", None, False),
    (("cli",), "stage_prior", "cli.stage_prior", None, False),
    (("cli",), "stage_select", "cli.stage_select", None, False),
    (("cli",), "stage_analyze", "cli.stage_analyze", None, False),
    (("cli",), "preprocess_pool", "preprocess.preprocess_pool", None, False),
    (("cli",), "fit_dictionary", "latent_dictionary.fit_dictionary", None, False),
    (("cli",), "ridge_encode", "latent_dictionary.ridge_encode", None, False),
    (("cli",), "cluster_pool", "clustering.cluster_pool", None, False),
    (("clustering",), "cosine_distance_matrix", "clustering.cosine_distance_matrix",
     _square_bytes, True),
    (("clustering",), "knn_quantile_eps_from", "clustering.knn_quantile_eps_from",
     None, False),
    (("clustering",), "dbscan_from", "clustering.dbscan_from", None, False),
    (("cli", "selection"), "corpus_prior", "coverage.corpus_prior", None, False),
    (("cli", "selection"), "coverage_phi", "coverage.coverage_phi", None, False),
    (("coverage", "synth_oracle"), "subset_spectrum", "coverage.subset_spectrum",
     None, False),
    (("coverage", "synth_oracle"), "sgt_unseen", "coverage.sgt_unseen", None, False),
    (("cli", "selection"), "dpp_kernel", "selection.dpp_kernel", _square_bytes, True),
    (("cli", "selection"), "greedy_dpp_ucs", "selection.greedy_dpp_ucs", None, False),
    (("cli", "selection"), "votek_ucs_select", "selection.votek_ucs_select",
     None, True),
    (("cli", "preprocess"), "read_matrix", "matrix_store.read_matrix",
     _result_nbytes, False),
    (("cli", "preprocess"), "write_matrix", "matrix_store.write_matrix",
     _written_nbytes, False),
    (("cli",), "read_labels", "matrix_store.read_labels", None, False),
    (("cli",), "write_labels", "matrix_store.write_labels", None, False),
    (("cli",), "sha256_file", "matrix_store.sha256_file", None, False),
    (("synth_oracle",), "mc_unseen_oracle", "synth_oracle.mc_unseen_oracle",
     None, False),
)

# (namespace, attribute path, metric name); the attribute path may name a
# method on a class.
COUNTERS = (
    ("coverage", "CoverageTracker.gain_if_added", "coverage.CoverageTracker.gain_if_added"),
    ("synth_oracle", "sample_labels", "synth_oracle.sample_labels"),
)

COUNT_ONLY = (
    ("coverage", "sgt_weights", "coverage.sgt_weights"),
)


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    bytes: int = 0
    peak_mb: float = 0.0


class _Frame:
    __slots__ = ("span_id", "child_s", "base", "peak")

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.child_s = 0.0
        self.base = 0
        self.peak = 0


class Tracer:
    """Wraps the library while an op is traced and keeps spans in memory."""

    def __init__(self, modules: dict):
        self.modules = modules  # short module name -> module object
        self.spans: list[tuple] = []  # (op, span id, parent id, name, start, end)
        self.op_stats: list[dict[str, Stat]] = []  # one dict per traced op
        self.op_durations: list[float] = []
        self._stack: list[_Frame] = []
        self._peaks: list[_Frame] = []
        self._stats: dict[str, Stat] = {}
        self._op_id = -1
        self._t0 = time.perf_counter()

    # -- wrappers ---------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = Stat()
        return stat

    def _span(self, name, fn, sizer, peak):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1]
            frame = _Frame(len(tracer.spans))
            tracer.spans.append(None)  # reserve the id; filled in below
            tracer._stack.append(frame)
            if peak:
                tracer._peak_enter(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                parent.child_s += duration
                stat = tracer._stat(name)
                stat.calls += 1
                stat.s += duration
                stat.self_s += duration - frame.child_s
                if peak:
                    stat.peak_mb = max(stat.peak_mb, tracer._peak_exit(frame))
                tracer.spans[frame.span_id] = (
                    tracer._op_id, frame.span_id, parent.span_id, name,
                    start - tracer._t0, end - tracer._t0,
                )
            if sizer is not None:
                stat.bytes += sizer(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stat = tracer._stat(name)
                stat.calls += 1
                stat.s += duration
                stat.self_s += duration
                tracer._stack[-1].child_s += duration

        return wrapper

    def _count_only(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._stat(name).calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- tracemalloc peaks --------------------------------------------------

    def _peak_enter(self, frame: _Frame) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._peaks:  # keep the enclosing producer's peak before resetting
            outer = self._peaks[-1]
            outer.peak = max(outer.peak, peak)
        tracemalloc.reset_peak()
        frame.base = frame.peak = current
        self._peaks.append(frame)

    def _peak_exit(self, frame: _Frame) -> float:
        _, peak = tracemalloc.get_traced_memory()
        self._peaks.pop()
        frame.peak = max(frame.peak, peak)
        if self._peaks:
            outer = self._peaks[-1]
            outer.peak = max(outer.peak, frame.peak)
        else:
            tracemalloc.stop()
        return (frame.peak - frame.base) / MIB

    # -- patching -----------------------------------------------------------

    def _patches(self):
        for namespaces, attr, name, sizer, peak in SPANS:
            for ns in namespaces:
                module = self.modules[ns]
                original = getattr(module, attr)
                yield module, attr, original, self._span(name, original, sizer, peak)
        for ns, path, name in COUNTERS:
            owner, attr = self._resolve(ns, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            yield owner, attr, original, self._counter(name, original)
        for ns, path, name in COUNT_ONLY:
            owner, attr = self._resolve(ns, path)
            original = getattr(owner, attr)
            yield owner, attr, original, self._count_only(name, original)

    def _resolve(self, ns: str, path: str):
        owner = self.modules[ns]
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr

    @contextmanager
    def op(self, op_id: int):
        """Trace one op: patch, run, restore, and keep its stats."""
        self._op_id = op_id
        self._stats = {}
        root = _Frame(-1)
        self._stack = [root]
        patches = list(self._patches())
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)
            self.op_durations.append(duration)
            self.op_stats.append(self._stats)
            self._stack = []

    # -- output ---------------------------------------------------------------

    def layer_self_s(self, stats: dict[str, Stat]) -> dict[str, float]:
        """Self time per layer for one op: spans' self time plus counters'."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, stat in stats.items():
            out[name.split(".", 1)[0]] += stat.self_s
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op_id, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "op": op_id, "span": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")
            for op_index, stats in enumerate(self.op_stats):
                for name, stat in sorted(stats.items()):
                    fh.write(json.dumps({
                        "traced_op": op_index, "name": name,
                        "calls": stat.calls, "s": stat.s, "self_s": stat.self_s,
                    }) + "\n")
