"""Property-based tests: the exact value kernel equals int64 arithmetic.

The fast value path of both substrates evaluates ``queries @ M.T`` in
float64 through BLAS while ``max(q) * max(M) * d < 2**53`` and in int64
past that guard (:mod:`repro.hardware.kernel`). Whichever branch runs,
the truncated accumulators must equal the plain int64 product bit for
bit — including matrices carrying the ABFT checksum row, batches either
side of the guard, and operands wide enough that the int64 product
wraps mod 2**64.

A dispatch that reads some rows only passes their ranges; every path —
fast, cell-level, instruction-stream, noisy and faulty — must return
the full wave's columns for them, while charging the full wave.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OperandError
from repro.faults.injectors import FaultyPIMArray
from repro.faults.integrity import append_checksum_row
from repro.faults.plan import FaultEvent, FaultPlan
from repro.hardware import bitslice
from repro.hardware.config import hbm_pim_platform
from repro.hardware.kernel import (
    FLOAT_EXACT_BOUND,
    ExactMatrix,
    check_rows,
    served_columns,
)
from repro.hardware.noise import NoiseModel, NoisyPIMArray
from repro.hardware.pim_array import PIMArray
from repro.serving import ShardManager
from repro.substrate.hbm_pim import HBMPIMArray

DIMS = [1, 90, 960, 4096]
PLATFORM = hbm_pim_platform()
OPERAND_BITS = PLATFORM.pim.operand_bits
ACC_BITS = PLATFORM.pim.accumulator_bits


def _array(substrate):
    if substrate == "crossbar":
        return PIMArray(PLATFORM)
    return HBMPIMArray(PLATFORM)


def _int64_reference(queries, matrix):
    product = queries.astype(np.int64) @ matrix.astype(np.int64).T
    return bitslice.truncate_result(product, ACC_BITS)


def _operands(rng, shape, top, saturate):
    """Values in ``[0, top]`` with ``top`` itself present."""
    if saturate:
        values = np.full(shape, top, dtype=np.int64)
    else:
        values = rng.integers(0, top, size=shape, endpoint=True)
    values.flat[0] = top
    return values


def _guard_edge(d, m_top):
    """The largest query max still inside the float guard for ``d``."""
    return (FLOAT_EXACT_BOUND - 1) // (m_top * d)


@st.composite
def kernel_case(draw):
    d = draw(st.sampled_from(DIMS))
    n = draw(st.integers(min_value=1, max_value=5))
    batch = draw(st.integers(min_value=1, max_value=4))
    regime = draw(
        st.sampled_from(["serving", "full", "checksum", "below", "above"])
    )
    saturate = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    full = (1 << OPERAND_BITS) - 1
    if regime in ("below", "above"):
        m_top = draw(st.integers(min_value=1 << 26, max_value=1 << 27))
        q_top = _guard_edge(d, m_top) + (regime == "above")
    elif regime == "full":
        m_top = q_top = full  # products wrap mod 2**64
    elif regime == "checksum":
        m_top = q_top = draw(st.sampled_from([1_000_001, full]))
    else:
        m_top = q_top = 1_000_001  # alpha = 1e6 quantized operands
    matrix = _operands(rng, (n, d), m_top, saturate)
    if regime == "checksum":
        matrix = append_checksum_row(matrix, OPERAND_BITS)
    queries = _operands(rng, (batch, d), q_top, saturate)
    return regime, matrix, queries


class TestExactKernel:
    @pytest.mark.parametrize("substrate", ["crossbar", "hbm_pim"])
    @given(case=kernel_case())
    @settings(max_examples=60, deadline=None)
    def test_every_dispatch_matches_int64(self, substrate, case):
        regime, matrix, queries = case
        array = _array(substrate)
        array.program_matrix("m", matrix)
        expected = _int64_reference(queries, matrix)
        assert np.array_equal(array.query_batch("m", queries).values, expected)
        assert np.array_equal(array.query_many("m", queries).values, expected)
        assert np.array_equal(array.query("m", queries[0]).values, expected[0])
        assert np.array_equal(array.matrix_of("m"), matrix)
        resident = ExactMatrix(matrix, int(matrix.max()))
        uses_float = resident.uses_float(int(queries.max()))
        if regime in ("serving", "below"):
            assert uses_float
        elif regime in ("above", "full"):
            assert not uses_float

    @given(
        d=st.sampled_from(DIMS),
        m_top=st.integers(min_value=1, max_value=(1 << 32) - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_guard_sits_exactly_at_2_pow_53(self, d, m_top):
        edge = _guard_edge(d, m_top)
        resident = ExactMatrix(np.array([[m_top] * d]), m_top)
        assert resident.uses_float(edge)
        assert edge * m_top * d < FLOAT_EXACT_BOUND
        assert not resident.uses_float(edge + 1)

    def test_wide_matrix_keeps_an_int64_copy(self):
        wide = np.array([[1 << 60, 3]], dtype=np.int64)
        resident = ExactMatrix(wide, 1 << 60)
        assert resident.values.dtype == np.int64
        assert not resident.uses_float(0)
        query = np.array([[2, 5]])
        assert np.array_equal(resident.dot(query, 5), query @ wide.T)


class TestServingTakesTheFloatPath:
    """Serving-shaped operands must not fall back silently."""

    @pytest.fixture()
    def guard_log(self, monkeypatch):
        log = []
        inner = ExactMatrix.uses_float

        def spy(self, query_max):
            verdict = inner(self, query_max)
            log.append(verdict)
            return verdict

        monkeypatch.setattr(ExactMatrix, "uses_float", spy)
        return log

    def _serve(self, verify, substrates=None):
        rng = np.random.default_rng(7)
        data = rng.random((120, 960))
        manager = ShardManager(
            data, n_shards=2, verify=verify, substrates=substrates
        )
        assert manager.quantizer.alpha == 1e6
        manager.knn_batch(rng.random((3, 960)), 5)

    @pytest.mark.parametrize("substrates", [None, "hbm_pim"])
    def test_alpha_1e6_d960_unverified_uses_float(self, guard_log, substrates):
        self._serve(verify=False, substrates=substrates)
        assert guard_log and all(guard_log)

    def test_checksum_row_takes_the_int64_fallback(self, guard_log):
        self._serve(verify=True)
        assert guard_log and not any(guard_log)


# ----------------------------------------------------------------------
# served rows: query_batch(..., rows) == the full wave's column slice
# ----------------------------------------------------------------------
def _faulty(kind, **params):
    def build(seed):
        plan = FaultPlan(
            [FaultEvent(t_ns=0.0, kind=kind, target="array", params=params)],
            seed=seed,
        )
        return FaultyPIMArray(PIMArray(PLATFORM), plan, "array")

    return build


#: name -> (factory(seed), dims it is drawn over)
SERVED_PATHS = {
    "crossbar": (lambda seed: PIMArray(PLATFORM), DIMS),
    "crossbar-cells": (
        lambda seed: PIMArray(PLATFORM, reference=True), [1, 90]
    ),
    "hbm_pim": (lambda seed: HBMPIMArray(PLATFORM), DIMS),
    "hbm_pim-stream": (
        lambda seed: HBMPIMArray(PLATFORM, reference=True), [1, 90]
    ),
    "noisy": (
        lambda seed: NoisyPIMArray(
            PLATFORM, NoiseModel(cell_sigma=0.01, adc_step=4.0, seed=seed)
        ),
        DIMS,
    ),
    "faulty-stuck": (_faulty("stuck_cells", fraction=0.2, stuck_to=1), DIMS),
    "faulty-corrupt": (_faulty("wave_corrupt", probability=0.5), DIMS),
    "faulty-latency": (_faulty("latency_spike", factor=3.0), DIMS),
}


@st.composite
def row_ranges(draw, n):
    """One to four unit-step ranges inside ``[0, n]`` (any order)."""
    ranges = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        start = draw(st.integers(min_value=0, max_value=n))
        stop = draw(st.integers(min_value=start, max_value=n))
        ranges.append(slice(start, stop))
    return ranges


@st.composite
def served_case(draw, dims):
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(min_value=1, max_value=12))
    batch = draw(st.integers(min_value=1, max_value=4))
    regime = draw(st.sampled_from(["serving", "checksum", "below", "above"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    if regime in ("below", "above"):
        m_top = draw(st.integers(min_value=1 << 26, max_value=1 << 27))
        q_top = _guard_edge(d, m_top) + (regime == "above")
    else:
        m_top = q_top = 1_000_001
    matrix = _operands(rng, (n, d), m_top, False)
    if regime == "checksum":
        matrix = append_checksum_row(matrix, OPERAND_BITS)
    queries = _operands(rng, (batch, d), q_top, False)
    rows = draw(row_ranges(matrix.shape[0]))
    return matrix, queries, rows, draw(st.integers(0, 2**31))


class TestServedRows:
    @pytest.mark.parametrize("path", sorted(SERVED_PATHS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_served_columns_equal_the_full_wave_slice(self, path, data):
        build, dims = SERVED_PATHS[path]
        matrix, queries, rows, seed = data.draw(served_case(dims))
        full, narrow = build(seed), build(seed)
        for array in (full, narrow):
            array.program_matrix("m", matrix)
        whole = full.query_batch("m", queries)
        served = narrow.query_batch("m", queries, rows=rows)
        assert np.array_equal(
            served.values, served_columns(whole.values, rows)
        )
        expected = sum(r.stop - r.start for r in rows)
        assert served.values.shape == (queries.shape[0], expected)
        if path in ("crossbar", "crossbar-cells", "crossbar-loop",
                    "hbm_pim", "hbm_pim-stream", "faulty-latency"):
            exact = _int64_reference(queries, matrix)
            assert np.array_equal(served.values, served_columns(exact, rows))
        # the device fires every row either way
        assert served.timing.total_ns == whole.timing.total_ns
        assert vars(served.timing) == vars(whole.timing)
        assert narrow.stats == full.stats
        assert narrow.stats.results_produced == matrix.shape[0] * len(queries)
        moved = [
            (a.buffer.total_bytes_written, a.buffer.total_bytes_read)
            for a in (narrow, full)
        ]
        assert moved[0] == moved[1] and moved[0][0] > 0

    @pytest.mark.parametrize("substrate", ["crossbar", "hbm_pim"])
    @pytest.mark.parametrize("offset", [0, 1])
    def test_guard_edge_with_several_ranges(self, substrate, offset):
        d, m_top = 960, (1 << 26) + 3
        q_top = _guard_edge(d, m_top) + offset
        rng = np.random.default_rng(offset)
        matrix = _operands(rng, (40, d), m_top, False)
        queries = _operands(rng, (3, d), q_top, False)
        array = _array(substrate)
        array.program_matrix("m", matrix)
        rows = [slice(30, 40), slice(0, 7), slice(7, 12), slice(20, 20)]
        resident = ExactMatrix(matrix, m_top)
        assert resident.uses_float(int(queries.max())) == (offset == 0)
        values = array.query_batch("m", queries, rows=rows).values
        expected = _int64_reference(queries, matrix)
        assert np.array_equal(values, served_columns(expected, rows))

    @pytest.mark.parametrize(
        "rows",
        [[], [slice(0, 5, 2)], [slice(3, 11)], [slice(-1, 2)], [(0, 2)]],
    )
    def test_bad_ranges_are_refused(self, rows):
        array = _array("crossbar")
        array.program_matrix("m", np.ones((10, 4), dtype=np.int64))
        with pytest.raises(OperandError):
            array.query_batch("m", np.ones((1, 4), dtype=np.int64), rows=rows)

    def test_open_ranges_are_made_explicit(self):
        assert check_rows([slice(None, 3), slice(8, None)], 10) == [
            slice(0, 3), slice(8, 10)
        ]
