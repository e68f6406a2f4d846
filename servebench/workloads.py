"""The serving workloads and how one run builds and serves them.

Every workload is served the way ``python -m repro serve`` serves its
defaults: a :class:`~repro.serving.ShardManager` over four range-placed
shards, a :class:`~repro.serving.QueryService` with ``max_batch=8``, a
64-deep admission queue under the ``reject`` policy and a
:class:`~repro.observability.BurnRateMonitor` on a 500 us base window,
fed by a Poisson open loop in simulated time. Arrivals are scheduled in
simulated time and replayed as fast as the host allows, so the
generator can never run late.

The offered rate of each workload is a constant of its definition, not
probed at run time: a change to the timing model must not silently
move the load.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.data import make_dataset
from repro.observability import BurnRateMonitor
from repro.serving import (
    QueryService,
    Request,
    ShardManager,
    TenantSpec,
    WorkloadDriver,
)

#: Serving configuration shared by every workload (``repro serve``
#: defaults: ``--max-batch 8 --queue-capacity 64 --policy reject
#: --burn-window-us 500``).
N_SHARDS = 4
MAX_BATCH = 8
QUEUE_CAPACITY = 64
POLICY = "reject"
BURN_WINDOW_NS = 500e3
K = 10

#: Queries per tenant pool (the driver's default), also the size of the
#: out-of-box query pool and of the assign centre-set pool.
POOL_SIZE = 64
#: Out-of-box queries come from a box this share of the data range
#: wider than the data on each side.
WIDE_MARGIN = 0.1
#: Centres carried by one k-means-assist ``assign`` request.
N_CENTERS = 16


@dataclass(frozen=True)
class Workload:
    """One serving traffic mix; every field is fixed, only the seed varies.

    ``wide_every``: every this-many-th kNN request carries a query drawn
    uniformly from a box :data:`WIDE_MARGIN` of the data range wider
    than the data on each side (real queries are not confined to the
    dataset's min-max box). ``assign_every``: every this-many-th request
    is a k-means-assist ``assign`` carrying :data:`N_CENTERS` centres
    drawn from the data.
    """

    name: str
    why: str
    dataset: str
    n: int
    replication: int
    substrates: tuple[str, ...] | None
    rate_qps: float
    n_requests: int
    wide_every: int | None = None
    assign_every: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gist-knn",
            why=(
                "GIST d=960 n=4000, 4 shards x 2 replicas, 1200 req at "
                "9000 qps: the int64 value kernel and per-query row "
                "gather dominate host time"
            ),
            dataset="GIST",
            n=4000,
            replication=2,
            substrates=None,
            rate_qps=9000.0,
            n_requests=1200,
        ),
        Workload(
            name="year-assign",
            why=(
                "Year d=90 n=20000 on crossbar+HBM-PIM shards, 1000 req at "
                "1500 qps: 1 in 16 a k-means assign, 1 in 4 kNN queries "
                "outside the data box"
            ),
            dataset="Year",
            n=20000,
            replication=1,
            substrates=("crossbar", "hbm_pim", "crossbar", "hbm_pim"),
            rate_qps=1500.0,
            n_requests=1000,
            wide_every=4,
            assign_every=16,
        ),
    )
}

TENANTS = (
    TenantSpec(name="member", workload="member", k=K),
    TenantSpec(name="near", workload="near", k=K),
    # assign requests belong to their own tenant; weight 0 keeps the
    # driver from drawing kNN traffic for it
    TenantSpec(name="kmeans", workload="near", k=K, weight=0.0),
)


@dataclass
class Inputs:
    """Everything a run serves, generated from the workload and seed."""

    workload: Workload
    seed: int
    data: np.ndarray
    requests: list[Request]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """The dataset and request trace of ``workload`` under ``seed``.

    The same seed always gives the same inputs; the program under test
    receives only these.
    """
    data = make_dataset(workload.dataset, n=workload.n, seed=seed)
    driver = WorkloadDriver(data, list(TENANTS), seed=seed)
    requests = driver.open_loop(workload.rate_qps, workload.n_requests)
    rng = np.random.default_rng([seed, 0x5EB])
    if workload.assign_every is not None:
        centre_sets = [
            data[rng.choice(data.shape[0], N_CENTERS, replace=False)]
            for _ in range(POOL_SIZE)
        ]
        for j, request in enumerate(
            requests[workload.assign_every - 1 :: workload.assign_every]
        ):
            request.kind = "assign"
            request.tenant = "kmeans"
            request.query = centre_sets[j % POOL_SIZE]
    if workload.wide_every is not None:
        lo, hi = data.min(axis=0), data.max(axis=0)
        pad = WIDE_MARGIN * (hi - lo)
        pool = rng.uniform(lo - pad, hi + pad, (POOL_SIZE, data.shape[1]))
        knn = [r for r in requests if r.kind == "knn"]
        for j, request in enumerate(
            knn[workload.wide_every - 1 :: workload.wide_every]
        ):
            request.query = pool[j % POOL_SIZE]
    return Inputs(workload=workload, seed=seed, data=data, requests=requests)


def build_manager(inputs: Inputs) -> ShardManager:
    """Build and program the fleet (the timed set-up)."""
    w = inputs.workload
    return ShardManager(
        inputs.data,
        n_shards=N_SHARDS,
        placement="range",
        seed=inputs.seed,
        replication=w.replication,
        substrates=list(w.substrates) if w.substrates else None,
    )


def build_service(manager: ShardManager) -> QueryService:
    """The serving loop around ``manager``, configured as ``repro serve``."""
    return QueryService(
        manager,
        list(TENANTS),
        max_batch=MAX_BATCH,
        queue_capacity=QUEUE_CAPACITY,
        policy=POLICY,
        monitor=BurnRateMonitor(base_window_ns=BURN_WINDOW_NS),
    )


def fresh_requests(inputs: Inputs) -> list[Request]:
    """Copies of the trace; admission writes into the requests it sees."""
    return [dataclasses.replace(r) for r in inputs.requests]
