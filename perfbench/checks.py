"""Output checks: independent computations and properties of the method.

Nothing here reads a stored copy of an earlier output. The reference
values come from the model's native forward (no simulation context) and
from a layer census taken by this module's own context, which derives
each offloaded layer's MAC count from operand shapes and non-zeros.
Every check returns a list of error strings; an empty list is a pass.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.frontend import functional as F
from repro.frontend.simulated import attach_context, detach_context

#: tolerance of a simulated output against the native forward, relative
#: to the native output's largest magnitude. The two paths lower
#: convolutions differently (im2col GEMM against einsum windows), so
#: only float32 summation-order differences are expected.
OUTPUT_RTOL = 1e-4


@dataclass(frozen=True)
class LayerCensus:
    """One offloaded layer as the census context saw it."""

    kind: str
    #: multiply-accumulates of the dense operation (every operand counted)
    dense_macs: int
    #: multiply-accumulates over the non-zero stationary operand only
    nnz_macs: int


class CensusContext:
    """Duck-typed simulation context that records layer shapes.

    Computes every offloaded layer natively and notes its MAC counts in
    framework execution order, the same order the simulator appends its
    layer reports.
    """

    def __init__(self) -> None:
        self.layers: List[LayerCensus] = []

    def _note(self, kind: str, stationary: np.ndarray, cols: int) -> None:
        rows, dot = stationary.shape
        self.layers.append(LayerCensus(
            kind, rows * dot * cols, int(np.count_nonzero(stationary)) * cols
        ))

    def conv(self, module, x):
        weights = module.weight.data
        out = F.conv2d(x, weights, None, module.stride, module.padding,
                       module.groups)
        k_total = weights.shape[0]
        # per output pixel, each filter runs one dot product over its group
        pixels = out.shape[0] * out.shape[2] * out.shape[3]
        self._note("conv", weights.reshape(k_total, -1), pixels)
        return out

    def linear(self, module, x):
        flat = np.asarray(x, dtype=np.float32).reshape(-1, x.shape[-1])
        self._note("gemm", module.weight.data, flat.shape[0])
        return F.linear(x, module.weight.data, None)

    def matmul(self, a, b, name="matmul"):
        self._note("gemm", np.asarray(a), np.asarray(b).shape[1])
        return (np.asarray(a, np.float32) @ np.asarray(b, np.float32)).astype(
            np.float32
        )

    def maxpool(self, module, x):
        self.layers.append(LayerCensus("maxpool", 0, 0))
        return F.maxpool2d(x, module.pool, module.stride)


def take_census(model, x) -> List[LayerCensus]:
    """The offloaded layers of ``model(x)``, in execution order."""
    context = CensusContext()
    attach_context(model, context)
    try:
        model(x)
    finally:
        detach_context(model)
    return context.layers


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check_output(label: str, simulated, native) -> List[str]:
    """The simulated model output equals the native forward."""
    simulated = np.asarray(simulated)
    native = np.asarray(native)
    if simulated.shape != native.shape:
        return [f"{label}: output shape {simulated.shape} != native {native.shape}"]
    scale = max(1.0, float(np.abs(native).max()))
    diff = float(np.abs(simulated.astype(np.float64) - native).max())
    if not diff <= OUTPUT_RTOL * scale:
        return [f"{label}: output differs from native by {diff:.3g}"]
    return []


def check_cycle_bound(
    label: str,
    cycles: Sequence[int],
    census: Sequence[LayerCensus],
    multipliers: int,
    sparse: bool,
) -> List[str]:
    """Every layer takes at least ceil(MACs / multipliers) cycles.

    A multiplier does at most one multiply-accumulate per cycle. A dense
    design performs every MAC of the layer; a sparse one at least those
    of the non-zero stationary operand.
    """
    if len(cycles) != len(census):
        return [f"{label}: {len(cycles)} layer reports for "
                f"{len(census)} offloaded layers"]
    errors = []
    for index, (cyc, layer) in enumerate(zip(cycles, census)):
        macs = layer.nnz_macs if sparse else layer.dense_macs
        bound = math.ceil(macs / multipliers)
        if cyc < bound:
            errors.append(
                f"{label}: layer {index} ({layer.kind}) took {cyc} cycles, "
                f"below the {bound}-cycle bound"
            )
    return errors


def check_repeat(
    label: str, cycles: Sequence[int], first_seen: Dict[str, tuple]
) -> List[str]:
    """A repeated cell gives the per-layer cycles it gave the first time."""
    cycles = tuple(cycles)
    previous = first_seen.setdefault(label, cycles)
    if previous != cycles:
        return [f"{label}: repeated cell gave different per-layer cycles"]
    return []


def check_same_cycles(
    label: str, cycles: Sequence[int], reference: Sequence[int]
) -> List[str]:
    """Per-layer cycles equal those of an uncached serial run."""
    if tuple(cycles) != tuple(reference):
        return [f"{label}: per-layer cycles differ from the uncached run"]
    return []


def check_all_hits(label: str, hits: int, simulated: int, layers: int) -> List[str]:
    """A warm pass serves every cacheable layer from the cache."""
    if hits != layers or simulated:
        return [f"{label}: warm pass hit {hits} of {layers} layers "
                f"and simulated {simulated}"]
    return []


def check_snapea(
    label: str,
    baseline: Sequence,
    snapea: Sequence,
    census: Sequence[LayerCensus],
) -> List[str]:
    """SNAPEA never costs more than its baseline nor exceeds dense work.

    ``baseline`` and ``snapea`` are per-layer records with ``cycles`` and
    ``ops`` (:class:`repro.opts.snapea.SnapeaLayerStats`).
    """
    if not len(baseline) == len(snapea) == len(census):
        return [f"{label}: layer counts differ (baseline {len(baseline)}, "
                f"snapea {len(snapea)}, census {len(census)})"]
    errors = []
    for index, (base, early, layer) in enumerate(zip(baseline, snapea, census)):
        if early.cycles > base.cycles:
            errors.append(f"{label}: layer {index} SNAPEA cycles "
                          f"{early.cycles} > baseline {base.cycles}")
        if early.ops > base.ops:
            errors.append(f"{label}: layer {index} SNAPEA ops "
                          f"{early.ops} > baseline {base.ops}")
        if max(early.ops, base.ops) > layer.dense_macs:
            errors.append(f"{label}: layer {index} ops exceed the "
                          f"{layer.dense_macs} dense MACs of its shape")
    return errors
