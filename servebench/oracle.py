"""Brute-force oracle on the raw query, and the run's output digests.

The oracle works in the documented metric space: min-max normalised
with the fitted quantizer's per-dimension min and range, *without*
clipping the query into the data box (paper Eqs. 5-6 define the space;
clipping is an operand constraint of the crossbar, not part of the
question asked). It never touches the program's shards or bounds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct

import numpy as np

#: Tolerance on reported scores. Indices must match exactly; a score
#: may differ from the oracle's only by float rounding of a different
#: but equivalent expression.
SCORE_RTOL = 1e-9
SCORE_ATOL = 1e-12


class Oracle:
    """Exact answers for one dataset under one fitted quantizer."""

    def __init__(self, data: np.ndarray, quantizer_state: dict) -> None:
        self._min = np.asarray(quantizer_state["min"], dtype=np.float64)
        self._range = np.asarray(quantizer_state["range"], dtype=np.float64)
        self.data = self.normalise(data)
        self._cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def normalise(self, vectors: np.ndarray) -> np.ndarray:
        """Min-max normalise with the fitted statistics; no clipping."""
        vectors = np.asarray(vectors, dtype=np.float64)
        return (vectors - self._min) / self._range

    def _sq_distances(self, point: np.ndarray) -> np.ndarray:
        diff = self.data - point
        return np.einsum("ij,ij->i", diff, diff)

    def knn(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-k in canonical (distance, global index) order."""
        key = ("knn", k, np.asarray(query, dtype=np.float64).tobytes())
        if key not in self._cache:
            dist = self._sq_distances(self.normalise(query))
            k = min(k, dist.size)
            kth = np.partition(dist, k - 1)[k - 1]
            cand = np.flatnonzero(dist <= kth)
            top = cand[np.lexsort((cand, dist[cand]))][:k]
            self._cache[key] = (top.astype(np.int64), dist[top])
        return self._cache[key]

    def assign(self, centres: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest centre per row, lowest centre index on ties."""
        key = ("assign", np.asarray(centres, dtype=np.float64).tobytes())
        if key not in self._cache:
            dist = np.stack(
                [self._sq_distances(c) for c in self.normalise(centres)],
                axis=1,
            )
            best = dist.argmin(axis=1)
            self._cache[key] = (
                best.astype(np.int64),
                dist[np.arange(best.size), best],
            )
        return self._cache[key]

    def check(self, request, response) -> tuple[bool, bool]:
        """(answer matches, indices match) for one completed response."""
        if request.kind == "assign":
            idx, dist = self.assign(request.query)
        else:
            idx, dist = self.knn(request.query, request.k)
        same_idx = np.array_equal(response.indices, idx)
        same = same_idx and np.allclose(
            response.scores, dist, rtol=SCORE_RTOL, atol=SCORE_ATOL
        )
        return bool(same), bool(same_idx)


def outside_box(oracle: Oracle, query: np.ndarray) -> bool:
    """Whether any coordinate of ``query`` lies outside the data box."""
    q = oracle.normalise(query)
    return bool((q < 0.0).any() or (q > 1.0).any())


def _canonical(value):
    """A JSON-able, bit-exact rendering of stats values."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return _canonical(value.tolist())
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    return value


def answer_digest(responses) -> str:
    """SHA-256 over every response's outcome, indices and scores."""
    h = hashlib.sha256()
    for r in sorted(responses, key=lambda r: r.request_id):
        h.update(f"{r.request_id}|{r.kind}|{r.ok}|{r.shed_reason}|".encode())
        if r.ok:
            h.update(np.asarray(r.indices, dtype=np.int64).tobytes())
            h.update(np.asarray(r.scores, dtype=np.float64).tobytes())
    return h.hexdigest()


def sim_digest(responses, merged_stats) -> str:
    """SHA-256 over per-request completion ns and the merged PIMStats."""
    h = hashlib.sha256()
    for r in sorted(responses, key=lambda r: r.request_id):
        h.update(r.request_id.encode())
        h.update(struct.pack("<d", r.completion_ns))
    h.update(json.dumps(_canonical(merged_stats), sort_keys=True).encode())
    return h.hexdigest()
