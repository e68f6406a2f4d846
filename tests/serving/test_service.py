"""Unit tests for the discrete-event query service.

Covers the acceptance criterion head-on: a 4-shard service answers the
same fixed-seed trace bit-identically to a 1-shard service, twice in a
row — plus admission control, every backpressure policy, deadline
shedding, batching, and input validation.
"""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving import (
    QueryService,
    Request,
    ShardManager,
    SLOTracker,
    TenantSpec,
    WorkloadDriver,
)

DIMS = 8


@pytest.fixture
def data(rng):
    return rng.random((80, DIMS))


def make_request(i, query, *, tenant="t", arrival=0.0, **kwargs):
    return Request(
        request_id=f"r{i:04d}",
        tenant=tenant,
        query=query,
        arrival_ns=arrival,
        **kwargs,
    )


class TestAcceptance:
    """4 shards == 1 array, bit-identical, twice in a row."""

    def run_once(self, data, n_shards):
        manager = ShardManager(data, n_shards=n_shards, placement="hash")
        tenants = [TenantSpec("a", k=5), TenantSpec("b", k=5)]
        driver = WorkloadDriver(data, tenants, seed=77)
        # low offered load + no batch window: nothing sheds or degrades
        requests = driver.open_loop(rate_qps=1_000, n_requests=30)
        service = QueryService(
            manager, tenants, max_batch=4, queue_capacity=64
        )
        responses = service.run(requests)
        assert all(r.ok for r in responses)
        return {
            r.request_id: (r.indices.tolist(), r.scores.tolist())
            for r in responses
        }

    def test_sharded_equals_single_twice(self, data):
        for _ in range(2):  # twice in a row, same fixed seed
            single = self.run_once(data, 1)
            sharded = self.run_once(data, 4)
            assert single == sharded

    def test_rerun_is_bit_identical(self, data):
        manager = ShardManager(data, n_shards=4)
        tenants = [TenantSpec("a")]
        traces = []
        for _ in range(2):
            driver = WorkloadDriver(data, tenants, seed=5)
            service = QueryService(manager, tenants, max_batch=4)
            responses = service.run(
                driver.open_loop(rate_qps=200_000, n_requests=25)
            )
            traces.append(
                [
                    (r.request_id, r.ok, r.completion_ns,
                     None if r.indices is None else r.indices.tolist())
                    for r in responses
                ]
            )
        assert traces[0] == traces[1]


class TestAdmission:
    def test_token_bucket_sheds_over_rate(self, data):
        manager = ShardManager(data)
        tenants = [TenantSpec("slow", rate_qps=1.0, burst=2)]
        service = QueryService(manager, tenants, tracker=SLOTracker())
        # burst of 5 at t=0: 2 tokens -> 3 admission sheds
        for i in range(5):
            service.submit(make_request(i, data[0], tenant="slow", k=3))
        service.drain()
        assert service.tracker.shed_reasons == {"admission": 3}
        assert service.tracker.completed == 2

    def test_unknown_tenant_is_refused(self, data):
        service = QueryService(ShardManager(data), [TenantSpec("a")])
        with pytest.raises(ServingError, match="unknown tenant"):
            service.submit(make_request(0, data[0], tenant="nobody"))

    def test_unknown_kind_is_refused(self, data):
        service = QueryService(ShardManager(data))
        with pytest.raises(ServingError, match="kind"):
            service.submit(make_request(0, data[0], kind="scan"))

    def test_arrivals_must_move_forward(self, data):
        service = QueryService(ShardManager(data))
        service.submit(make_request(0, data[0], arrival=100.0))
        with pytest.raises(ServingError, match="order"):
            service.submit(make_request(1, data[0], arrival=50.0))

    def test_constructor_validation(self, data):
        manager = ShardManager(data)
        with pytest.raises(ServingError):
            QueryService(manager, max_batch=0)
        with pytest.raises(ServingError):
            QueryService(manager, queue_capacity=0)
        with pytest.raises(ServingError):
            QueryService(manager, policy="spill")
        with pytest.raises(ServingError):
            QueryService(manager, batch_window_ns=-1.0)


class TestInvalidQueries:
    """A malformed request is shed; the rest of the trace is served."""

    @pytest.mark.parametrize("bad", ["nan", "inf", "empty"])
    @pytest.mark.parametrize("kind", ["knn", "assign"])
    def test_invalid_request_is_shed_not_fatal(self, data, rng, bad, kind):
        manager = ShardManager(data, n_shards=2)
        good = data[:3] if kind == "assign" else data[0]
        if bad == "empty":
            query = np.empty((0, DIMS))
        else:
            query = np.array(good, dtype=np.float64)
            query.flat[1] = float(bad)
        service = QueryService(manager, tracker=SLOTracker())
        requests = [
            make_request(0, data[1], k=3),
            make_request(1, query, kind=kind, k=3, arrival=10.0),
            make_request(2, good, kind=kind, k=3, arrival=20.0),
        ]
        responses = {r.request_id: r for r in service.run(requests)}
        assert responses["r0001"].shed_reason == "invalid_query"
        assert not responses["r0001"].ok
        assert responses["r0000"].ok and responses["r0002"].ok
        assert service.tracker.shed_reasons == {"invalid_query": 1}

    def test_multi_query_knn_request_is_shed(self, data):
        """A kNN request carries one vector; a (2, dims) block is shed."""
        manager = ShardManager(data, n_shards=2)
        service = QueryService(manager, max_batch=4, tracker=SLOTracker())
        requests = [
            make_request(0, data[1], k=3),
            make_request(1, data[:2], k=3),
            make_request(2, data[2], k=3),
        ]
        responses = {r.request_id: r for r in service.run(requests)}
        assert responses["r0001"].shed_reason == "invalid_query"
        assert responses["r0000"].ok and responses["r0002"].ok
        assert service.tracker.shed_reasons == {"invalid_query": 1}

    def test_single_row_knn_block_is_served(self, data):
        """A (1, dims) kNN query batches with 1-D ones, same answer."""
        manager = ShardManager(data, n_shards=2)
        service = QueryService(manager, max_batch=4, tracker=SLOTracker())
        requests = [
            make_request(0, data[1], k=3),
            make_request(1, data[2:3], k=3),
            make_request(2, data[2], k=3),
        ]
        responses = {r.request_id: r for r in service.run(requests)}
        assert all(r.ok for r in responses.values())
        # r0001 rode the same dispatch as the 1-D r0002
        assert responses["r0001"].batch_size >= 2
        assert responses["r0001"].dispatch_ns == responses["r0002"].dispatch_ns
        assert (
            responses["r0001"].indices.tolist()
            == responses["r0002"].indices.tolist()
        )
        assert (
            responses["r0001"].scores.tolist()
            == responses["r0002"].scores.tolist()
        )


class TestBackpressure:
    def overload(self, data, policy):
        """3 arrivals pile into a queue of 2 while the server is busy.

        r0000 occupies the server (its service time dwarfs the 1 ns
        arrival gaps), so r0001..r0003 all queue; the third hits the
        capacity-2 bound and triggers the policy under test.
        """
        manager = ShardManager(data)
        service = QueryService(
            manager, max_batch=1, queue_capacity=2, policy=policy,
            tracker=SLOTracker(),
        )
        for i in range(4):
            service.submit(
                make_request(i, data[i], k=3, arrival=float(i))
            )
        service.drain()
        return service

    def test_reject_sheds_the_newcomer(self, data):
        service = self.overload(data, "reject")
        shed = [r for r in service.responses if not r.ok]
        assert [r.request_id for r in shed] == ["r0003"]
        assert shed[0].shed_reason == "queue_full"

    def test_drop_oldest_sheds_the_head(self, data):
        service = self.overload(data, "drop_oldest")
        shed = [r for r in service.responses if not r.ok]
        assert [r.request_id for r in shed] == ["r0001"]

    def test_degrade_serves_approximately(self, data):
        service = self.overload(data, "degrade")
        assert service.tracker.shed == 0
        approx = [r for r in service.responses if r.approximate]
        assert [r.request_id for r in approx] == ["r0003"]
        assert service.tracker.degraded == 1


class TestDeadlines:
    def test_expired_requests_shed_at_dispatch(self, data):
        manager = ShardManager(data)
        service = QueryService(
            manager, max_batch=1, default_deadline_ns=1.0,
            tracker=SLOTracker(),
        )
        # r0 occupies the server long past r1's 1ns deadline
        service.submit(make_request(0, data[0], k=3))
        service.submit(make_request(1, data[1], k=3))
        service.drain()
        assert service.tracker.shed_reasons == {"deadline": 1}

    def test_tenant_deadline_overrides_default(self, data):
        manager = ShardManager(data)
        tenants = [TenantSpec("vip", deadline_ns=1e12)]
        service = QueryService(
            manager, tenants, max_batch=1, default_deadline_ns=1.0,
            tracker=SLOTracker(),
        )
        service.submit(make_request(0, data[0], tenant="vip", k=3))
        service.submit(make_request(1, data[1], tenant="vip", k=3))
        service.drain()
        assert service.tracker.shed == 0

    def test_edf_orders_dispatch(self, data):
        manager = ShardManager(data)
        service = QueryService(manager, max_batch=1)
        # r0 occupies the server; r1/r2 queue and r2's earlier
        # deadline wins the next dispatch despite arriving later
        service.submit(make_request(0, data[0], k=3, arrival=0.0))
        service.submit(
            make_request(1, data[1], k=3, arrival=1.0, deadline_ns=1e9)
        )
        service.submit(
            make_request(2, data[2], k=3, arrival=2.0, deadline_ns=1e6)
        )
        responses = service.drain()
        completions = [r for r in responses if r.ok]
        assert [r.request_id for r in completions] == [
            "r0000", "r0002", "r0001",
        ]


class TestBatching:
    def test_window_accumulates_batches(self, data):
        manager = ShardManager(data)
        service = QueryService(
            manager, max_batch=4, batch_window_ns=1e6
        )
        for i in range(4):
            service.submit(make_request(i, data[i], k=3, arrival=i * 10.0))
        responses = service.drain()
        assert all(r.batch_size == 4 for r in responses)

    def test_without_window_head_dispatches_alone(self, data):
        manager = ShardManager(data)
        service = QueryService(manager, max_batch=4, batch_window_ns=0.0)
        service.submit(make_request(0, data[0], k=3, arrival=0.0))
        # second request lands while the server is busy with r0
        service.submit(make_request(1, data[1], k=3, arrival=1.0))
        responses = service.drain()
        assert responses[0].batch_size == 1

    def test_assign_requests_ride_the_service(self, data, rng):
        manager = ShardManager(data, n_shards=2)
        centers = rng.random((4, DIMS))
        service = QueryService(manager)
        service.submit(make_request(0, centers, kind="assign"))
        service.submit(make_request(1, data[0], k=3))
        responses = service.drain()
        by_id = {r.request_id: r for r in responses}
        assert by_id["r0000"].indices.size == len(data)  # one per row
        direct, _ = manager.assign(centers)
        assert np.array_equal(by_id["r0000"].indices, direct.assignments)

    def test_summary_exposes_slo_numbers(self, data):
        manager = ShardManager(data, n_shards=2)
        service = QueryService(manager, tracker=SLOTracker())
        for i in range(6):
            service.submit(make_request(i, data[i], k=3, arrival=i * 100.0))
        service.drain()
        summary = service.summary()
        assert summary["completed"] == 6
        assert summary["p99_ns"] >= summary["p50_ns"] > 0
        assert len(summary["shard_utilization"]) == 2
        assert summary["throughput_qps"] > 0
