"""Unit tests for dataset placement and exact scatter/gather.

The load-bearing contract: a :class:`ShardManager` answers exactly the
same kNN / k-means-assist queries as a single array — sharding changes
timing, never answers. Brute-force references below route through the
shards' own canonical kernel (:func:`exact_sq_distances` on quantizer-
normalised vectors) so equality checks are bit-exact, not approximate.
"""

import numpy as np
import pytest

from repro.errors import ProgrammingError, ServingError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.serving import (
    KNNAnswer,
    ShardManager,
    ShardPlacement,
    plan_placement,
)
from repro.hardware.pim_array import PIMArray
from repro.serving.sharding import GatherTiming, exact_sq_distances
from repro.substrate.hbm_pim import HBMPIMArray


def brute_knn(manager: ShardManager, data, query, k):
    """Canonical (score, index) top-k with the shards' own arithmetic."""
    nd = manager.quantizer.normalize(np.asarray(data, dtype=np.float64))
    nq = manager.quantizer.normalize(np.atleast_2d(query))[0]
    scores = exact_sq_distances(nd, nq)
    order = np.lexsort((np.arange(scores.size), scores))[:k]
    return order, scores[order]


@pytest.fixture
def data(rng):
    return rng.random((60, 8))


class TestPlacement:
    def test_range_blocks_cover_all_rows(self):
        placement = plan_placement(10, 3, kind="range")
        assert placement.n_rows == 10
        # first n % S shards absorb the remainder
        assert [placement.rows_of(s).size for s in range(3)] == [4, 3, 3]
        assert np.array_equal(
            np.sort(np.concatenate([placement.rows_of(s) for s in range(3)])),
            np.arange(10),
        )

    def test_range_rows_are_contiguous(self):
        placement = plan_placement(9, 3, kind="range")
        for s in range(3):
            rows = placement.rows_of(s)
            assert np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))

    def test_hash_is_deterministic_and_seeded(self):
        a = plan_placement(50, 4, kind="hash", seed=0)
        b = plan_placement(50, 4, kind="hash", seed=0)
        c = plan_placement(50, 4, kind="hash", seed=9)
        assert np.array_equal(a.assignments, b.assignments)
        assert not np.array_equal(a.assignments, c.assignments)

    def test_hash_covers_every_shard(self):
        placement = plan_placement(64, 4, kind="hash")
        assert sorted(set(placement.assignments.tolist())) == [0, 1, 2, 3]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ServingError):
            plan_placement(0, 2)
        with pytest.raises(ServingError):
            plan_placement(10, 0)
        with pytest.raises(ServingError):
            plan_placement(10, 2, kind="zigzag")

    def test_explicit_placement_validates_ids(self):
        with pytest.raises(ServingError):
            ShardPlacement(n_shards=2, assignments=np.array([0, 2]))
        with pytest.raises(ServingError):
            ShardPlacement(n_shards=0, assignments=np.array([], dtype=int))
        with pytest.raises(ServingError):
            ShardPlacement(n_shards=2, assignments=np.zeros((2, 2), int))

    def test_empty_shards_are_legal(self, data):
        placement = ShardPlacement(
            n_shards=3, assignments=np.zeros(len(data), dtype=np.int64)
        )
        manager = ShardManager(data, placement=placement)
        assert manager.shard_sizes() == [60, 0, 0]
        answer = manager.knn(data[4], k=5)
        assert answer.indices[0] == 4


class TestKNNExactness:
    def test_matches_brute_force(self, data):
        manager = ShardManager(data, n_shards=3)
        query = data[7] + 0.01
        answer = manager.knn(query, k=8)
        ref_idx, ref_scores = brute_knn(manager, data, query, 8)
        assert np.array_equal(answer.indices, ref_idx)
        assert np.array_equal(answer.scores, ref_scores)

    @pytest.mark.parametrize("placement", ["range", "hash"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_placement_invariant(self, data, placement, n_shards):
        single = ShardManager(data, n_shards=1)
        sharded = ShardManager(data, n_shards=n_shards, placement=placement)
        queries = data[[3, 11]] * 0.97
        singles, _ = single.knn_batch(queries, 5)
        shardeds, _ = sharded.knn_batch(queries, 5)
        for a, b in zip(singles, shardeds):
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.scores, b.scores)

    def test_duplicate_distance_ties_take_lowest_index(self):
        # rows 2, 5, 9 identical -> equal scores -> canonical order
        data = np.ones((12, 4)) * np.arange(12)[:, None] / 12.0
        data[5] = data[2]
        data[9] = data[2]
        manager = ShardManager(data, n_shards=3, placement="hash")
        answer = manager.knn(data[2], k=3)
        assert answer.indices.tolist() == [2, 5, 9]
        assert answer.scores[0] == answer.scores[1] == answer.scores[2]

    def test_k_larger_than_dataset(self, data):
        manager = ShardManager(data[:6], n_shards=2)
        answer = manager.knn(data[0], k=50)
        assert answer.indices.size == 6

    def test_per_query_k_and_degrade_flags(self, data):
        manager = ShardManager(data, n_shards=2)
        answers, _ = manager.knn_batch(
            data[[0, 1]], ks=[3, 7], approximate=[False, True]
        )
        assert answers[0].indices.size == 3
        assert not answers[0].approximate
        assert answers[1].indices.size == 7
        assert answers[1].approximate
        assert answers[1].refined == 0  # degraded path never refines

    def test_approximate_scores_lower_bound_exact(self, data):
        manager = ShardManager(data, n_shards=2)
        exact = manager.knn(data[3], k=5)
        approx, _ = manager.knn_batch(data[[3]], 5, approximate=True)
        # Theorem 1: every lower bound <= its exact distance
        assert approx[0].scores[0] <= exact.scores[0] + 1e-12

    def test_rejects_bad_queries(self, data):
        manager = ShardManager(data, n_shards=2)
        with pytest.raises(ServingError):
            manager.knn(np.zeros(5), k=3)  # wrong dims
        with pytest.raises(ServingError):
            manager.knn_batch(data[:2], ks=[1, 2, 3])
        with pytest.raises(ServingError):
            manager.knn(data[0], k=0)
        with pytest.raises(ServingError):
            ShardManager(np.zeros((0, 4)))


class TestLazyGather:
    """Refinement gathers only the candidate rows it scans.

    Under replication a shard serves a strict subset ``sel`` of its local
    rows, and with hash placement those rows' global indices are
    scattered. The answers are checked against plain NumPy brute force
    on the min-max-normalised data — not against another manager.
    """

    @staticmethod
    def _record_sels(monkeypatch):
        seen = []
        inner = ShardManager._shard_topk

        def spy(self, shard, *args, **kwargs):
            sel = kwargs.get("sel")
            if sel is not None:
                seen.append((shard.n_rows, sel, shard.global_indices[sel]))
            return inner(self, shard, *args, **kwargs)

        monkeypatch.setattr(ShardManager, "_shard_topk", spy)
        return seen

    @pytest.mark.parametrize("k", [1, 7, 40])
    def test_replicated_hash_matches_numpy_brute_force(self, monkeypatch, k):
        rng = np.random.default_rng(100 + k)
        data = rng.random((240, 16))
        seen = self._record_sels(monkeypatch)
        manager = ShardManager(
            data, n_shards=4, placement="hash", replication=2
        )
        lo, hi = data.min(axis=0), data.max(axis=0)
        queries = rng.uniform(lo, hi, size=(12, 16))  # inside the data box
        answers, _ = manager.knn_batch(queries, k)
        normed = (data - lo) / (hi - lo)
        for query, answer in zip(queries, answers):
            dist = (((query - lo) / (hi - lo) - normed) ** 2).sum(axis=1)
            expected = np.argsort(dist, kind="stable")[:k]
            assert answer.indices.tolist() == expected.tolist()
            assert np.allclose(answer.scores, dist[expected], rtol=1e-12)
        strict = [(n, sel, g) for n, sel, g in seen if sel.size < n]
        assert strict, "replication must hand shards a strict row subset"
        assert any(np.any(np.diff(g) != 1) for _, _, g in strict)


class TestInvalidQueries:
    """NaN, inf and empty blocks are refused before anything is queued."""

    @pytest.fixture
    def manager(self, data):
        return ShardManager(data, n_shards=2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_knn_batch_rejects_non_finite(self, manager, data, value):
        queries = data[:3].copy()
        queries[1, 2] = value
        with pytest.raises(ServingError, match="finite"):
            manager.knn_batch(queries, 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_assign_rejects_non_finite(self, manager, data, value):
        centers = data[:4].copy()
        centers[0, 0] = value
        with pytest.raises(ServingError, match="finite"):
            manager.assign(centers)

    def test_knn_batch_rejects_empty_batch(self, manager, data):
        with pytest.raises(ServingError, match="empty"):
            manager.knn_batch(np.empty((0, data.shape[1])), 3)

    def test_assign_rejects_empty_batch(self, manager, data):
        with pytest.raises(ServingError, match="empty"):
            manager.assign(np.empty((0, data.shape[1])))

    def test_rejection_leaves_no_trace_on_the_fleet(self, manager, data):
        with pytest.raises(ServingError):
            manager.knn_batch(np.full((1, data.shape[1]), np.nan), 3)
        assert manager.merged_stats().waves == 0


def numpy_knn(data, query, k):
    """Top-k by plain NumPy on min-max-normalised data (in-box queries)."""
    lo, hi = data.min(axis=0), data.max(axis=0)
    dist = ((((query - lo) / (hi - lo)) - (data - lo) / (hi - lo)) ** 2).sum(
        axis=1
    )
    return np.argsort(dist, kind="stable")[:k]


class TestServedRows:
    """Each wave computes only the rows its dispatch serves.

    Under replication a shard holds several chunks but serves a subset;
    the columns every substrate returns must add up to exactly one per
    dataset row and query, and the answers must stay those of NumPy
    brute force. Verified fleets keep full waves: the residue check
    needs every column.
    """

    @staticmethod
    def _record_columns(monkeypatch):
        waves = []
        for cls in (PIMArray, HBMPIMArray):
            def spy(self, *args, _inner=cls.query_batch, **kwargs):
                result = _inner(self, *args, **kwargs)
                waves.append(result.values.shape)
                return result

            monkeypatch.setattr(cls, "query_batch", spy)
        return waves

    @pytest.mark.parametrize("replication", [2, 3])
    @pytest.mark.parametrize("placement", ["range", "hash"])
    @pytest.mark.parametrize(
        "substrates",
        [None, "hbm_pim", ["crossbar", "hbm_pim", "crossbar", "hbm_pim"]],
    )
    def test_columns_sum_to_rows_times_queries(
        self, monkeypatch, replication, placement, substrates
    ):
        rng = np.random.default_rng(replication)
        data = rng.random((203, 12))
        # round-robin replica order, so mixed fleets serve subsets on
        # both substrates (the cost router would pick whole shards)
        manager = ShardManager(
            data, n_shards=4, placement=placement,
            replication=replication, substrates=substrates, route="none",
        )
        waves = self._record_columns(monkeypatch)
        lo, hi = data.min(axis=0), data.max(axis=0)
        queries = rng.uniform(lo, hi, size=(5, 12))
        answers, _ = manager.knn_batch(queries, 7)
        assert sum(q * c for q, c in waves) == len(queries) * len(data)
        # some wave skipped rows its shard holds but did not serve
        assert min(c for _, c in waves) < min(manager.shard_sizes())
        for query, answer in zip(queries, answers):
            expected = numpy_knn(data, query, 7)
            assert answer.indices.tolist() == expected.tolist()
        waves.clear()
        centers = rng.uniform(lo, hi, size=(3, 12))
        answer, _ = manager.assign(centers)
        assert sum(q * c for q, c in waves) == len(centers) * len(data)
        normed = (data - lo) / (hi - lo)
        cn = (centers - lo) / (hi - lo)
        dd = ((normed[:, None, :] - cn[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(answer.assignments, dd.argmin(axis=1))

    def test_verified_fleet_keeps_full_waves_and_detects_corruption(
        self, monkeypatch
    ):
        rng = np.random.default_rng(11)
        data = rng.random((160, 12))
        plan = FaultPlan(
            [
                FaultEvent(
                    t_ns=0.0, kind="wave_corrupt", target="shard0",
                    params={"probability": 1.0},
                )
            ]
        )
        manager = ShardManager(
            data, n_shards=4, replication=2, fault_plan=plan, verify=True
        )
        waves = self._record_columns(monkeypatch)
        lo, hi = data.min(axis=0), data.max(axis=0)
        queries = rng.uniform(lo, hi, size=(4, 12))
        answers, timing = manager.knn_batch(queries, 5)
        full = {n + 1 for n in manager.shard_sizes()}
        assert waves and all(c in full for _, c in waves)
        assert timing.corrupt_detected >= 1
        for query, answer in zip(queries, answers):
            expected = numpy_knn(data, query, 5)
            assert answer.indices.tolist() == expected.tolist()


class TestAssign:
    def test_matches_brute_force_argmin(self, data, rng):
        manager = ShardManager(data, n_shards=3, placement="hash")
        centers = rng.random((5, 8))
        answer, timing = manager.assign(centers)
        nd = manager.quantizer.normalize(data)
        nc = manager.quantizer.normalize(centers)
        dd = ((nd[:, None, :] - nc[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(answer.assignments, dd.argmin(axis=1))
        assert isinstance(timing, GatherTiming)
        assert timing.service_ns > 0

    def test_tie_breaks_to_lowest_center(self, data):
        manager = ShardManager(data, n_shards=2)
        centers = np.stack([data[0], data[0]])  # identical centers
        answer, _ = manager.assign(centers)
        assert (answer.assignments == 0).all()


class TestTimingAndStats:
    def test_gather_timing_is_max_plus_merge(self):
        timing = GatherTiming(
            per_shard_pim_ns=[10.0, 30.0],
            per_shard_cpu_ns=[5.0, 1.0],
            merge_cpu_ns=2.0,
        )
        assert timing.service_ns == 33.0
        assert GatherTiming().service_ns == 0.0

    def test_sharding_shrinks_service_time(self, rng):
        big = rng.random((2048, 16))
        t1 = ShardManager(big, n_shards=1).knn_batch(big[:4], 5)[1]
        t4 = ShardManager(big, n_shards=4).knn_batch(big[:4], 5)[1]
        assert t4.service_ns < t1.service_ns

    def test_busy_accounting_and_reset(self, data):
        manager = ShardManager(data, n_shards=2)
        assert manager.shard_busy_ns() == [0.0, 0.0]
        manager.knn(data[0], k=3)
        assert all(b > 0 for b in manager.shard_busy_ns())
        manager.reset_busy()
        assert manager.shard_busy_ns() == [0.0, 0.0]

    def test_merged_stats_namespaces_shards(self, data):
        manager = ShardManager(data, n_shards=2)
        manager.knn(data[0], k=3)
        stats = manager.merged_stats()
        assert stats.waves == sum(
            s.pim_stats.waves for s in manager.shards
        )
        assert "shard0.shard0" in stats.matrices
        assert "shard1.shard1" in stats.matrices

