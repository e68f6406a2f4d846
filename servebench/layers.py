"""Per-layer host-time attribution by wrapping public entry points.

:class:`LayerTracer` replaces, for the duration of a ``with`` block,
one function per layer boundary with a timing wrapper and restores the
originals on exit. A layer's *self* time is its wrappers' wall time
minus the wall time of wrapped calls nested inside them, so the self
times of all layers add up to the outermost wrapper's wall time.

Module-level functions are patched where the caller looks them up (for
example ``batch_wave_timing`` in :mod:`repro.hardware.pim_array`), so a
kernel's self time excludes the timing model it calls.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

import repro.cost.model
import repro.hardware.pim_array
import repro.serving.sharding
import repro.substrate.crossbar
import repro.substrate.hbm_pim
from repro.hardware.pim_array import PIMArray
from repro.observability import BurnRateMonitor
from repro.serving import QueryService, ShardManager, SLOTracker
from repro.similarity.quantization import Quantizer
from repro.substrate.hbm_pim import HBMPIMArray


def _count_wave(prefix: str):
    def count(counts, args, kwargs, result) -> None:
        vectors = np.atleast_2d(
            kwargs["vectors"] if "vectors" in kwargs else args[2]
        )
        queries, rows = result.values.shape
        counts[prefix + ".calls"] += 1
        counts[prefix + ".queries"] += queries
        counts[prefix + ".macs"] += queries * rows * vectors.shape[1]

    return count


def _count_refine(counts, args, kwargs, result) -> None:
    counts["sharding.refined_rows"] += int(np.size(result))


def _count_knn(counts, args, kwargs, result) -> None:
    answers, _ = result
    counts["sharding.knn_refined"] += sum(a.refined for a in answers)
    counts["sharding.knn_pruned"] += sum(a.pruned for a in answers)


def _count_assign(counts, args, kwargs, result) -> None:
    answer, _ = result
    counts["sharding.assign_refined"] += answer.refined
    counts["sharding.assign_pruned"] += answer.pruned


@dataclass(frozen=True)
class Probe:
    """One wrapped attribute: ``owner.attr`` is charged to ``layer``."""

    owner: object
    attr: str
    layer: str
    count: Callable | None = None


PROBES = (
    Probe(PIMArray, "query_batch", "pim_array.kernel", _count_wave("pim_array")),
    Probe(PIMArray, "program_matrix", "pim_array.program"),
    Probe(HBMPIMArray, "query_batch", "hbm_pim.kernel", _count_wave("hbm_pim")),
    Probe(HBMPIMArray, "program_matrix", "hbm_pim.program"),
    Probe(repro.hardware.pim_array, "wave_timing", "timing.model"),
    Probe(repro.hardware.pim_array, "batch_wave_timing", "timing.model"),
    Probe(repro.substrate.crossbar, "batch_wave_timing", "timing.model"),
    Probe(repro.substrate.hbm_pim, "bank_wave_timing", "timing.model"),
    Probe(repro.substrate.hbm_pim, "bank_batch_timing", "timing.model"),
    Probe(repro.cost.model, "epoch_time_ns", "timing.model"),
    Probe(Quantizer, "normalize", "quantization"),
    Probe(Quantizer, "quantize", "quantization"),
    Probe(ShardManager, "knn_batch", "sharding.knn", _count_knn),
    Probe(ShardManager, "assign", "sharding.assign", _count_assign),
    Probe(
        repro.serving.sharding, "exact_sq_distances", "sharding.refine",
        _count_refine,
    ),
    Probe(QueryService, "run", "service.loop"),
    Probe(SLOTracker, "observe", "slo.observe"),
    Probe(BurnRateMonitor, "observe", "burnrate.observe"),
)


class LayerTracer:
    """Context manager that times every probe while it is entered."""

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.reset()

    def reset(self) -> None:
        """Zero the accumulated times and counts."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def _wrap(self, fn, layer: str, count):
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self.self_s[layer] += elapsed - stack.pop()
                self.calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return timed

    def __enter__(self) -> "LayerTracer":
        try:
            for probe in PROBES:
                original = vars(probe.owner)[probe.attr]
                self._originals.append((probe.owner, probe.attr, original))
                setattr(
                    probe.owner, probe.attr,
                    self._wrap(original, probe.layer, probe.count),
                )
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
