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

The cell-level paths (the crossbar oracle and the HBM instruction-stream
oracle) stay pure int64: they are the independent oracles this kernel
is tested against.

A dispatch that reads only some of a matrix's rows passes them as
``rows``, a list of row ranges (``slice`` objects). Each range is a
contiguous view of the resident copy, so BLAS runs on it without a
copy, and the product holds just those columns, in range order. Every
column is its own dot product, so they equal the full product's
columns bit for bit (:func:`served_columns` takes the same columns from
a full wave, which is how the cell-level oracles serve ranges).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import OperandError

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

    def dot(
        self,
        queries: np.ndarray,
        query_max: int,
        rows: Sequence[slice] | None = None,
    ) -> np.ndarray:
        """Exact int64 products ``queries @ M.T`` mod 2**64.

        ``(B, n)``, or ``(B, sum of range lengths)`` for the row ranges
        ``rows`` (see :func:`check_rows`).
        """
        dtype = np.float64 if self.uses_float(query_max) else np.int64
        queries = np.asarray(queries, dtype=dtype)
        blocks = (
            [self.values]
            if rows is None
            else [self.values[r] for r in check_rows(rows, len(self.values))]
        )
        products = [
            queries @ block.astype(dtype, copy=False).T for block in blocks
        ]
        product = (
            products[0]
            if len(products) == 1
            else np.concatenate(products, axis=1)
        )
        return product.astype(np.int64, copy=False)


def check_rows(rows: Sequence[slice], n: int) -> list[slice]:
    """Served row ranges of an ``n``-row matrix, as explicit slices.

    There must be at least one, and each must be a unit-step ``slice``
    inside ``[0, n]``.
    """
    if not rows:
        raise OperandError("no row ranges given")
    checked: list[slice] = []
    for r in rows:
        if not isinstance(r, slice) or r.step not in (None, 1):
            raise OperandError(f"row range {r!r} is not a unit-step slice")
        start = 0 if r.start is None else int(r.start)
        stop = n if r.stop is None else int(r.stop)
        if not 0 <= start <= stop <= n:
            raise OperandError(
                f"row range {start}:{stop} outside a {n}-row matrix"
            )
        checked.append(slice(start, stop))
    return checked


def served_columns(values: np.ndarray, rows: Sequence[slice]) -> np.ndarray:
    """The columns of a full wave's ``values`` that ``rows`` serves."""
    rows = check_rows(rows, values.shape[-1])
    if len(rows) == 1:
        return values[..., rows[0]]
    return np.concatenate([values[..., r] for r in rows], axis=-1)
