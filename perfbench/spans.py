"""Host-time spans recorded from outside the program.

:class:`SpanRecorder` wraps the public functions of each simulator layer
(engine, memory controllers, NoC allocation, SNAPEA, parallel runner and
cache) in spans kept in memory. Nothing in the program is edited: the
wrappers replace module and class attributes for the duration of a
``with recorder.installed():`` block and restore them on exit. The spans
(name, start, end, parent, counts) are written to one JSON file when the
run ends, and :func:`layer_metrics` derives the per-layer figures from
that file alone.
"""

import contextlib
import functools
import json
import sys
import time
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class SpanRecorder:
    """In-memory span store with a parent stack."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, counts dict or None]
        self.spans: List[list] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def close(self, index: int, counts: Optional[Dict] = None) -> None:
        span = self.spans[index]
        span[2] = _clock()
        if counts:
            span[4] = counts
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, counter=None) -> Callable:
        """``fn`` inside a span; ``counter(args, result)`` adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index)
                raise
            self.close(index, counter(args, result) if counter else None)
            return result

        return wrapper

    # ---- installation ---------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        from repro.engine import accelerator, systolic
        from repro.memory import dense_controller, sparse_controller
        from repro.noc import art_allocation
        from repro.opts import snapea
        from repro.parallel import cache, workload

        def layer_counts(args, _result):
            layer = args[0].report.layers[-1]
            return {"cycles": layer.cycles}

        def spmm_counts(_args, result):
            return {"rounds": result.rounds}

        def get_counts(_args, result):
            return {"hit": int(result is not None)}

        acc = accelerator.Accelerator
        methods = [
            (acc, "run_conv", "engine.run_conv", layer_counts),
            (acc, "run_gemm", "engine.run_gemm", layer_counts),
            (acc, "run_spmm", "engine.run_spmm", layer_counts),
            (acc, "run_maxpool", "engine.run_maxpool", layer_counts),
            (systolic.SystolicEngine, "run_gemm", "engine.systolic.run_gemm", None),
            (dense_controller.DenseController, "run_conv",
             "memory.dense_controller", None),
            (dense_controller.DenseController, "run_gemm",
             "memory.dense_controller", None),
            (sparse_controller.SparseController, "run_spmm",
             "memory.sparse_controller", spmm_counts),
            (snapea.SnapeaContext, "conv", "opts.snapea.conv", None),
            (cache.SimCache, "get", "parallel.cache_get", get_counts),
            (cache.SimCache, "put", "parallel.cache_put", None),
        ]
        functions = [
            (accelerator.conv_functional, "engine.functional"),
            (accelerator.gemm_functional, "engine.functional"),
            (accelerator.maxpool_functional, "engine.functional"),
            (art_allocation.allocate_virtual_trees,
             "noc.allocate_virtual_trees"),
            (workload.record_model, "parallel.record"),
        ]
        restore = []
        for owner, attr, name, counter in methods:
            original = owner.__dict__[attr]
            restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))
        # a module-level function is bound by name in every module that
        # imported it, so each of those bindings is replaced
        for original, name in functions:
            wrapped = self.wrap(name, original)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, attr, original))
                        setattr(module, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"clock": "perf_counter", "spans": self.spans}, handle)


# ----------------------------------------------------------------------
# analysis of a written span file
# ----------------------------------------------------------------------
def load_spans(path) -> List[list]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["spans"]


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its child spans cover.

    Spans nest strictly (one thread, a stack), so the children of a span
    are disjoint and their durations add up to the covered time.
    """
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            own[parent] -= span[2] - span[1]
    return own


def _count(spans, name):
    return sum(1 for span in spans if span[0] == name)


def _total(spans, name):
    return sum(span[2] - span[1] for span in spans if span[0] == name)


def _counted(spans, name, key):
    return sum((span[4] or {}).get(key, 0) for span in spans if span[0] == name)


def layer_metrics(spans: List[list], rounds: int) -> Dict[str, float]:
    """Per-layer host times and counts, per round, from a span file."""
    own = self_times(spans)
    metrics = {
        "frontend.forward_s": sum(
            t for span, t in zip(spans, own) if span[0] == "frontend.forward"
        ),
        "engine.functional_s": _total(spans, "engine.functional"),
        "engine.systolic.run_gemm_s": _total(spans, "engine.systolic.run_gemm"),
        "engine.systolic.run_gemm_calls": _count(spans, "engine.systolic.run_gemm"),
        "memory.dense_controller_s": _total(spans, "memory.dense_controller"),
        "memory.dense_controller_calls": _count(spans, "memory.dense_controller"),
        "memory.sparse_controller_s": _total(spans, "memory.sparse_controller"),
        "memory.sparse_controller_calls": _count(spans, "memory.sparse_controller"),
        "memory.spmm_rounds": _counted(spans, "memory.sparse_controller", "rounds"),
        "noc.allocate_virtual_trees_s": _total(spans, "noc.allocate_virtual_trees"),
        "noc.allocate_virtual_trees_calls": _count(
            spans, "noc.allocate_virtual_trees"
        ),
        "opts.snapea.conv_s": _total(spans, "opts.snapea.conv"),
        "parallel.record_s": _total(spans, "parallel.record"),
        "parallel.cache_get_s": _total(spans, "parallel.cache_get"),
        "parallel.cache_put_s": _total(spans, "parallel.cache_put"),
    }
    hits = _counted(spans, "parallel.cache_get", "hit")
    lookups = _count(spans, "parallel.cache_get")
    metrics["parallel.cache_hits"] = hits
    metrics["parallel.cache_misses"] = lookups - hits
    metrics["parallel.cache_hit_pct"] = 100.0 * hits / lookups if lookups else 0.0
    for kind in ("conv", "gemm", "spmm", "maxpool"):
        name = f"engine.run_{kind}"
        seconds = _total(spans, name)
        metrics[f"{name}_s"] = seconds
        cycles = _counted(spans, name, "cycles")
        metrics[f"engine.{kind}.sim_cycles_per_s"] = (
            cycles / seconds if seconds else 0.0
        )
    # rates and ratios are per round already; times and counts are not
    per_round = {
        key: value / rounds for key, value in metrics.items()
        if not key.endswith(("_per_s", "_pct"))
    }
    metrics.update(per_round)
    return metrics
