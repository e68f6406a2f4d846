"""Regression tests: the cell-level oracle tracks what the crossbars hold.

``PIMArray(reference=True)`` evaluates every wave on real crossbar
objects. Every event that changes what the crossbars physically hold —
reset + reprogram under the same name, a spare-pool remap of one
crossbar, bulk remaps — must leave the oracle serving the *live*
matrix's values, bit-identical to the fast path. A stale crossbar
object would silently serve the previous matrix's bits: exactly the
class of bug these tests pin.

The oracle also allocates, wears and recycles physical crossbar ids
through the fast path's own code, so both paths report the same
placement and wear at every step.
"""

import numpy as np
import pytest

from repro.hardware.config import (
    CrossbarConfig,
    HardwareConfig,
    PIMArrayConfig,
)
from repro.hardware.pim_array import PIMArray


@pytest.fixture()
def platform():
    return HardwareConfig(
        pim=PIMArrayConfig(
            crossbar=CrossbarConfig(
                rows=8, cols=8, cell_bits=2, dac_bits=2,
                read_latency_ns=10.0,
            ),
            capacity_bytes=1 << 20,
            operand_bits=8,
            accumulator_bits=64,
        )
    )


@pytest.fixture()
def matrix():
    return (np.arange(9 * 14, dtype=np.int64).reshape(9, 14) * 13) % 251


@pytest.fixture()
def query():
    return (np.arange(14, dtype=np.int64) * 7) % 256


def _cell_ids(array, name):
    record = array._matrices[name]
    return [xbar.crossbar_id for column in record.crossbars for xbar in column]


class TestDecompositionCache:
    def test_reprogram_same_name_serves_fresh_values(
        self, platform, matrix, query
    ):
        array = PIMArray(platform, reference=True)
        array.program_matrix("m", matrix)
        stale = array.query("m", query).values
        successor = (matrix + 1) % 251
        array.reset_matrix("m")
        array.program_matrix("m", successor)
        fresh = array.query("m", query).values
        assert not np.array_equal(fresh, stale)
        oracle = PIMArray(platform)
        oracle.program_matrix("m", successor)
        assert np.array_equal(fresh, oracle.query("m", query).values)

    def test_remap_drops_cache_and_retargets_cells(
        self, platform, matrix, query
    ):
        array = PIMArray(platform, reference=True, spare_crossbars=2)
        array.program_matrix("m", matrix)
        expected = array.query("m", query).values
        victim = array.crossbar_ids_of("m")[0]
        spare, reprogram_ns = array.remap_crossbar(victim)
        assert reprogram_ns > 0
        # the crossbar object now answers to the spare id
        remapped = _cell_ids(array, "m")
        assert spare in remapped and victim not in remapped
        # values come from the live cells: bit-identical to before
        assert np.array_equal(array.query("m", query).values, expected)

    def test_bulk_remap_preserves_values(self, platform, matrix, query):
        array = PIMArray(platform, reference=True, spare_crossbars=4)
        array.program_matrix("m", matrix)
        expected = array.query("m", query).values
        victims = array.crossbar_ids_of("m")[:2]
        spares, _ = array.remap_crossbars(victims)
        assert len(spares) == 2
        assert array.spares_remaining == 2
        assert np.array_equal(array.query("m", query).values, expected)

    def test_remap_invalidates_reference_path_too(
        self, platform, matrix, query
    ):
        # a gather crossbar has no cell object: remapping it renames an
        # id only, and must perturb neither the cells nor their values
        array = PIMArray(platform, reference=True, spare_crossbars=2)
        array.program_matrix("m", matrix)
        expected = array.query("m", query).values
        cells_before = _cell_ids(array, "m")
        gather = array.crossbar_ids_of("m")[-1]
        assert gather not in cells_before
        array.remap_crossbar(gather)
        assert _cell_ids(array, "m") == cells_before
        assert np.array_equal(array.query("m", query).values, expected)

    def test_batch_after_reprogram_matches_fast_path(self, platform, matrix):
        queries = (np.arange(3 * 14, dtype=np.int64).reshape(3, 14) * 5) % 256
        array = PIMArray(platform, reference=True)
        array.program_matrix("m", matrix)
        array.query_batch("m", queries)
        successor = (matrix * 3) % 256
        array.reset_matrix("m")
        array.program_matrix("m", successor)
        oracle = PIMArray(platform)
        oracle.program_matrix("m", successor)
        assert np.array_equal(
            array.query_batch("m", queries).values,
            oracle.query_batch("m", queries).values,
        )


class TestCellOracleAccounting:
    """Fast path and cell oracle report the same physical accounting."""

    @staticmethod
    def _snapshot(array):
        return (
            array.crossbar_ids_of("m"),
            array.wear_report(),
            array.stats.crossbars_used,
            array.spares_remaining,
        )

    def test_ids_wear_and_spares_match_across_lifecycle(
        self, platform, matrix, query
    ):
        arrays = [
            PIMArray(platform, spare_crossbars=3),
            PIMArray(platform, spare_crossbars=3, reference=True),
        ]
        steps = []
        for array in arrays:
            trail = []
            array.program_matrix("m", matrix)
            trail.append(self._snapshot(array))
            array.reset_matrix("m")
            array.program_matrix("m", (matrix + 1) % 251)
            trail.append(self._snapshot(array))
            ids = array.crossbar_ids_of("m")
            # one data crossbar and one gather crossbar
            array.remap_crossbars([ids[0], ids[-1]])
            trail.append(self._snapshot(array))
            trail.append(array.query("m", query).values.tolist())
            steps.append(trail)
        assert steps[0] == steps[1]
        ids, wear, used, spares = steps[1][1]
        layout = arrays[1].layouts()["m"]
        # data plus gather crossbars, reused after the reset
        assert used == layout.n_crossbars == len(ids) == 15
        assert layout.n_data_crossbars == 10
        assert sorted(ids) == sorted(steps[1][0][0])
        assert wear["units_tracked"] == 15
        assert wear["total_writes"] == 30
        assert spares == 3
        assert steps[1][2][3] == 1
        # the cell objects sit on the first (data) ids, remaps included
        assert _cell_ids(arrays[1], "m") == (
            arrays[1].crossbar_ids_of("m")[: layout.n_data_crossbars]
        )
