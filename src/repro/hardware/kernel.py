"""The exact integer value kernel shared by the fast substrate paths.

A PIM wave's value is the exact integer dot product of non-negative
operands, kept mod 2**64 and then truncated to the accumulator width by
:func:`~repro.hardware.bitslice.truncate_result`. NumPy has no BLAS for
int64, so :meth:`ExactMatrix.dot` evaluates the product in float64
through BLAS whenever that is provably exact:

* every term ``q[r] * m[r]`` and every partial sum of one row's dot
  product is a non-negative integer no larger than
  ``max(q) * max(M) * d``;
* while that bound is below ``2**53`` each of them fits a float64
  mantissa, so any summation order (blocked, pairwise, FMA) yields the
  exact integer, and converting back to int64 gives the bits of the
  int64 product.

The guard uses the *actual* maxima — the programmed matrix's, recorded
once at program time, and the query batch's — not the nominal
``2**operand_bits`` bound, which would always fail it. Past the guard
the kernel falls back to the int64 product, which wraps mod 2**64
exactly as the hardware's accumulator does. That is the branch a
verified matrix takes: the ABFT checksum row
(:mod:`repro.faults.integrity`) is a residue up to ``2**operand_bits``,
far beyond the data's own range.

The cell-level paths (the fused bit-sliced kernel, the crossbar loop
oracle and the HBM instruction-stream oracle) stay pure int64: they are
the independent oracles this kernel is tested against.
"""

from __future__ import annotations

import numpy as np

#: exclusive bound on a dot product the float64 path computes exactly
FLOAT_EXACT_BOUND = 1 << 53


class ExactMatrix:
    """The single resident copy of one programmed ``(n, d)`` matrix.

    Held as float64 when every entry is below ``2**53`` (the copy is then
    exact and the int64 matrix is rebuilt on demand), as int64 otherwise.
    ``max`` is the largest entry, taken from the validation scan.
    """

    __slots__ = ("values", "max")

    def __init__(self, matrix: np.ndarray, max_value: int) -> None:
        self.max = int(max_value)
        dtype = np.float64 if self.max < FLOAT_EXACT_BOUND else np.int64
        self.values = np.asarray(matrix).astype(dtype)

    def uses_float(self, query_max: int) -> bool:
        """Is a query block with this max inside the float64 guard?"""
        return (
            self.values.dtype == np.float64
            and int(query_max) * self.max * self.values.shape[1]
            < FLOAT_EXACT_BOUND
        )

    def as_int64(self) -> np.ndarray:
        """The matrix as int64 (a fresh array for a float64 copy)."""
        return self.values.astype(np.int64, copy=False)

    def dot(self, queries: np.ndarray, query_max: int) -> np.ndarray:
        """Exact ``(B, n)`` int64 products ``queries @ M.T`` mod 2**64."""
        if self.uses_float(query_max):
            product = np.asarray(queries, dtype=np.float64) @ self.values.T
            return product.astype(np.int64)
        return np.asarray(queries, dtype=np.int64) @ self.as_int64().T
