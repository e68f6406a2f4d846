"""Property-based tests: every bound respects its inequality.

These are the paper's correctness theorems under random data:
Theorem 1 (LB_PIM-ED <= ED), Theorem 2 (LB_PIM-FNN <= LB_FNN <= ED),
Theorem 3 (the quantization error cap), plus the Table 3 baselines and
the CS/PCC upper bounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.ed import FNNBound, OSTBound, PartitionUpperBound, SMBound
from repro.bounds.pim import (
    PIMCosineBound,
    PIMEuclideanBound,
    PIMFNNBound,
    PIMPearsonBound,
)
from repro.hardware.controller import PIMController
from repro.similarity.measures import (
    cosine_batch,
    euclidean_batch,
    pearson_batch,
)
from repro.similarity.quantization import Quantizer


@st.composite
def dataset_and_query(draw):
    """Random [0,1] data with a query, sized for fast PIM preparation.

    Dimensionalities are multiples of 8 so every sampled segment count
    (2, 4, 8) yields equal-length segments.
    """
    n = draw(st.integers(min_value=2, max_value=40))
    dims = draw(st.sampled_from([8, 16, 24, 32]))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    data = rng.random((n, dims))
    query = rng.random(dims)
    return data, query


class TestCPUBoundInequalities:
    @given(dataset_and_query(), st.sampled_from([2, 4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_fnn_below_ed(self, case, segments):
        data, query = case
        bound = FNNBound(segments)
        bound.prepare(data)
        assert np.all(
            bound.evaluate(query) <= euclidean_batch(data, query) + 1e-9
        )

    @given(dataset_and_query(), st.sampled_from([2, 4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_sm_below_fnn(self, case, segments):
        data, query = case
        sm = SMBound(segments)
        fnn = FNNBound(segments)
        sm.prepare(data)
        fnn.prepare(data)
        assert np.all(sm.evaluate(query) <= fnn.evaluate(query) + 1e-9)

    @given(dataset_and_query())
    @settings(max_examples=40, deadline=None)
    def test_ost_below_ed(self, case):
        data, query = case
        bound = OSTBound(head_dims=max(1, data.shape[1] // 2))
        bound.prepare(data)
        assert np.all(
            bound.evaluate(query) <= euclidean_batch(data, query) + 1e-9
        )

    @given(dataset_and_query())
    @settings(max_examples=40, deadline=None)
    def test_ub_part_above_cosine(self, case):
        data, query = case
        bound = PartitionUpperBound(head_dims=max(1, data.shape[1] // 2))
        bound.prepare(data)
        assert np.all(
            bound.evaluate(query) >= cosine_batch(data, query) - 1e-9
        )


@pytest.fixture(scope="module")
def shared_controller():
    return PIMController()


class TestPIMBoundInequalities:
    @given(dataset_and_query(), st.sampled_from([10.0, 100.0, 10000.0]))
    @settings(max_examples=30, deadline=None)
    def test_theorem1_and_theorem3(self, case, alpha):
        data, query = case
        quantizer = Quantizer(alpha=alpha, assume_normalized=True)
        bound = PIMEuclideanBound(PIMController(), quantizer)
        bound.prepare(data)
        lb = bound.evaluate(query)
        ed = euclidean_batch(data, query)
        assert np.all(lb <= ed + 1e-9)
        assert np.all(ed - lb <= quantizer.error_bound(data.shape[1]) + 1e-9)

    @given(dataset_and_query(), st.sampled_from([2, 4]))
    @settings(max_examples=25, deadline=None)
    def test_theorem2_chain(self, case, segments):
        data, query = case
        original = FNNBound(segments)
        original.prepare(data)
        pim = PIMFNNBound(segments, PIMController())
        pim.prepare(data)
        lb_pim = pim.evaluate(query)
        lb_fnn = original.evaluate(query)
        ed = euclidean_batch(data, query)
        assert np.all(lb_pim <= lb_fnn + 1e-9)
        assert np.all(lb_fnn <= ed + 1e-9)

    @given(dataset_and_query())
    @settings(max_examples=25, deadline=None)
    def test_cosine_upper_bound(self, case):
        data, query = case
        bound = PIMCosineBound(PIMController())
        bound.prepare(data)
        assert np.all(
            bound.evaluate(query) >= cosine_batch(data, query) - 1e-9
        )

    @given(dataset_and_query())
    @settings(max_examples=25, deadline=None)
    def test_pearson_upper_bound(self, case):
        data, query = case
        bound = PIMPearsonBound(PIMController())
        bound.prepare(data)
        assert np.all(
            bound.evaluate(query) >= pearson_batch(data, query) - 1e-9
        )

    @given(
        dataset_and_query(),
        st.sampled_from([100.0, 1000.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_alpha_monotone_tightness(self, case, alpha):
        # Theorem 3: larger alpha gives (weakly) tighter average bounds
        data, query = case
        loose_q = Quantizer(alpha=alpha, assume_normalized=True)
        tight_q = Quantizer(alpha=alpha * 100, assume_normalized=True)
        loose = PIMEuclideanBound(PIMController(), loose_q)
        tight = PIMEuclideanBound(PIMController(), tight_q)
        loose.prepare(data)
        tight.prepare(data)
        ed = euclidean_batch(data, query)
        gap_loose = float(np.mean(ed - loose.evaluate(query)))
        gap_tight = float(np.mean(ed - tight.evaluate(query)))
        assert gap_tight <= gap_loose + 1e-9


@st.composite
def served_dataset_and_queries(draw):
    """Unnormalised data plus queries, some outside the data's box."""
    n = draw(st.integers(min_value=2, max_value=60))
    dims = draw(st.integers(min_value=1, max_value=24))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    data = rng.normal(3.0, 2.0, size=(n, dims))
    lo, hi = data.min(axis=0), data.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    # half the queries inside the box, half up to one box width beyond
    inside = rng.uniform(lo, hi, size=(2, dims))
    outside = rng.uniform(lo - span, hi + span, size=(2, dims))
    return data, np.vstack([inside, outside])


class TestOneEDBound:
    """Mining and serving compute LB_PIM-ED through one function.

    With ``approximate=True`` a serving answer's score *is* the bound,
    so the sharded fleet must return, bit for bit, the k smallest
    values the mining layer's :class:`PIMEuclideanBound` evaluates, in
    ``(lb, index)`` order.
    """

    @given(
        served_dataset_and_queries(),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(["range", "hash"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_approximate_scores_are_the_mining_bound(
        self, case, k, n_shards, placement
    ):
        from repro.serving import ShardManager

        data, queries = case
        quantizer = Quantizer()
        manager = ShardManager(
            data, quantizer=quantizer, n_shards=n_shards, placement=placement
        )
        bound = PIMEuclideanBound(PIMController(), quantizer)
        bound.prepare(data)
        answers, _ = manager.knn_batch(queries, k, approximate=True)
        for query, answer in zip(queries, answers):
            lb = bound.evaluate(query)
            order = np.lexsort((np.arange(lb.size), lb))[:k]
            assert answer.approximate
            assert np.array_equal(answer.indices, order)
            assert np.array_equal(answer.scores, lb[order])
