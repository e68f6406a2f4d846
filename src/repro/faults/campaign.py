"""Declarative chaos campaigns: phased gray/crash scenarios, measured.

A :class:`ChaosScenario` names one fault weather — a
:meth:`~repro.faults.plan.FaultPlan.gray_chaos` parameterization plus
optional extra (binary) fault events composed on top. A
:class:`ChaosCampaign` serves the *same* seeded query trace through
three arms per scenario:

* ``clean``        — single-array reference (the exactness oracle);
* ``detector_off`` — sharded under the fault plan with the legacy
  recovery policy (no outlier ejection, no adaptive hedging);
* ``detector_on``  — same plan, same traffic, gray-failure defenses on.

Each arm's answers are compared bit-for-bit against the clean
reference (any mismatch is an exactness violation — gray faults must
never change values), and the campaign reduces every arm to p99/p50
latency, availability, hedge accounting and health state. The whole
run serializes to a JSON *timeline artifact* (fault schedule + per-arm
stats + detector verdict transitions) for CI upload.

The trace, its pacing, the oracle, the serve loop and the artifact
writer live in the :class:`Campaign` base, which
:class:`~repro.faults.dr.DisasterRecoveryCampaign` shares.

Determinism: queries, plans and dispatch all derive from the campaign
seed on the simulated clock, so two runs of the same campaign emit
byte-identical artifacts (modulo float formatting).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.plan import FaultEvent, FaultPlan

# NOTE: repro.serving imports repro.faults (the injectors), so the
# serving classes the campaign drives are imported lazily inside the
# methods that need them to keep `import repro.faults` cycle-free.


@dataclass(frozen=True)
class ChaosScenario:
    """One named fault weather for a campaign.

    ``gray`` holds keyword arguments for
    :meth:`FaultPlan.gray_chaos` (victim counts, factors, link
    probabilities — everything except ``n_shards``/``horizon_ns``/
    ``seed``, which the campaign supplies). ``extra_events`` composes
    additional :class:`FaultEvent` s — crashes, corruption — on top of
    the gray plan; scenarios with extra non-gray events are still
    exactness-checked (corrupted waves must be *detected*, never
    served).
    """

    name: str
    description: str = ""
    gray: dict = field(default_factory=dict)
    extra_events: tuple = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenarios need a name")
        for event in self.extra_events:
            if not isinstance(event, FaultEvent):
                raise ConfigurationError(
                    "extra_events must be FaultEvent instances"
                )

    def plan(
        self, n_shards: int, horizon_ns: float, seed: int
    ) -> FaultPlan:
        """Materialize the scenario's fault plan for one fleet."""
        base = FaultPlan.gray_chaos(
            n_shards, horizon_ns, seed=seed, **self.gray
        )
        if not self.extra_events:
            return base
        return FaultPlan(
            base.events + tuple(self.extra_events), seed=seed
        )


def standard_campaign() -> tuple[ChaosScenario, ...]:
    """The five stock scenarios the chaos bench and CI gate run.

    ``straggler`` is the headline: one sustained slow shard, nothing
    else — the scenario under which the detector+hedging arm must beat
    the detector-off arm on p99. The others compose intermittent
    slowdowns, flaky links, the full gray mix, and gray + a mid-run
    crash (defenses must not confuse slow with dead).
    """
    no_gray = dict(
        straggler_shards=0, intermittent_shards=0, flaky_shards=0
    )
    return (
        ChaosScenario(
            name="straggler",
            description="one sustained 12x straggler shard",
            gray={
                **no_gray,
                "straggler_shards": 1,
                "straggler_factor": 12.0,
            },
        ),
        ChaosScenario(
            name="intermittent",
            description="one shard alternating fast/slow (50% duty)",
            gray={
                **no_gray,
                "intermittent_shards": 1,
                "intermittent_factor": 10.0,
            },
        ),
        ChaosScenario(
            name="flaky_link",
            description="one host<->shard link dropping/delaying",
            gray={
                **no_gray,
                "flaky_shards": 1,
                "drop_probability": 0.1,
                "delay_probability": 0.2,
            },
        ),
        ChaosScenario(
            name="gray_mix",
            description="straggler + intermittent + flaky link at once",
            gray={
                "straggler_shards": 1,
                "straggler_factor": 10.0,
                "intermittent_shards": 1,
                "flaky_shards": 1,
            },
        ),
        ChaosScenario(
            name="gray_plus_crash",
            description="gray mix with a mid-run hard shard crash",
            gray={
                **no_gray,
                "straggler_shards": 1,
                "straggler_factor": 10.0,
            },
            extra_events=(
                FaultEvent(
                    t_ns=0.5, kind="shard_crash", target="__mid__"
                ),
            ),
        ),
    )


#: GatherTiming recovery counters each chaos arm sums over its trace
_ARM_COUNTERS = (
    "attempts", "hedges", "hedges_won", "hedges_lost", "hedges_denied",
    "link_drops", "retries", "failovers", "crashes", "timeouts",
    "degraded_chunks",
)


class Campaign:
    """The harness every campaign shares: one seeded trace, one oracle.

    Holds the dataset, a seeded normal query trace paced evenly across
    ``horizon_ns``, the clean single-array answers every arm is checked
    against, and the serve loop that replays the trace on a fleet.
    Subclasses build the fleets and reduce the statistics.
    """

    def __init__(
        self,
        data: np.ndarray,
        *,
        n_requests: int,
        k: int,
        horizon_ns: float,
        seed: int,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[0] < 1:
            raise ConfigurationError(
                "campaign needs a non-empty (n, dims) dataset"
            )
        if n_requests < 1:
            raise ConfigurationError("n_requests must be >= 1")
        self.n_requests = int(n_requests)
        self.k = int(k)
        self.horizon_ns = float(horizon_ns)
        self.seed = int(seed)
        rng = np.random.default_rng(seed)
        self.queries = rng.normal(size=(self.n_requests, self.data.shape[1]))
        # spread the trace across the horizon so every fault window
        # actually sees traffic
        self.gap_ns = self.horizon_ns / (self.n_requests + 1)

    def _reference(self) -> list:
        """Clean single-array answers — the bit-exactness oracle."""
        from repro.serving.sharding import ShardManager

        manager = ShardManager(self.data, 1)
        answers = []
        for q in self.queries:
            result = manager.knn(q, self.k)
            answers.append(
                (result.indices.tolist(), result.scores.tolist())
            )
        return answers

    def _serve(
        self, manager, reference: list, start: int, stop: int, t: float
    ) -> dict:
        """Serve trace rows ``[start, stop)`` from simulated time ``t``.

        Each answer faces the oracle; a degraded one (exact host-side
        recompute of a replica-less chunk) still does, and is counted.
        """
        answers: list = []
        timings: list = []
        violations = 0
        degraded = 0
        for i in range(start, stop):
            batch, timing = manager.knn_batch(
                np.atleast_2d(self.queries[i]), self.k, now_ns=t
            )
            result = batch[0]
            timings.append(timing)
            pair = (result.indices.tolist(), result.scores.tolist())
            answers.append(pair)
            if result.degraded:
                degraded += 1
            if pair != reference[i]:
                violations += 1
            t += timing.service_ns + self.gap_ns
        return {
            "answers": answers,
            "timings": timings,
            "latencies": [timing.service_ns for timing in timings],
            "violations": violations,
            "degraded": degraded,
            "t_end": t,
        }

    @staticmethod
    def write_artifact(result: dict, path: str) -> None:
        """Serialize one ``run()`` result as the JSON artifact."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")


class ChaosCampaign(Campaign):
    """Run scenarios through clean / detector-off / detector-on arms.

    Parameters
    ----------
    data:
        The dataset every arm serves (``(n, dims)`` float array).
    scenarios:
        The scenario suite; defaults to :func:`standard_campaign`.
    n_shards / replication:
        Fleet shape shared by both faulted arms (equal hardware — the
        comparison is defenses on vs off, not more metal).
    n_requests / k:
        Seeded query trace length and top-k per request.
    horizon_ns:
        Fault-plan horizon; request pacing spreads the trace across it
        so every fault window sees traffic.
    hedge_budget:
        The detector arm's hedge budget (fraction of wave attempts).
    seed:
        Master seed for queries and every scenario plan.
    """

    def __init__(
        self,
        data: np.ndarray,
        scenarios=None,
        *,
        n_shards: int = 4,
        replication: int = 2,
        n_requests: int = 150,
        k: int = 10,
        horizon_ns: float = 1.5e7,
        hedge_budget: float = 0.3,
        seed: int = 0,
    ) -> None:
        super().__init__(
            data, n_requests=n_requests, k=k, horizon_ns=horizon_ns,
            seed=seed,
        )
        self.scenarios = tuple(
            scenarios if scenarios is not None else standard_campaign()
        )
        if not self.scenarios:
            raise ConfigurationError("campaign needs at least one scenario")
        self.n_shards = int(n_shards)
        self.replication = int(replication)
        self.hedge_budget = float(hedge_budget)

    # ------------------------------------------------------------------
    def _policies(self) -> dict:
        from repro.serving.health import RecoveryPolicy

        return {
            "detector_off": RecoveryPolicy(),
            "detector_on": RecoveryPolicy(
                outlier_ejection=True,
                adaptive_hedge=True,
                hedge_budget=self.hedge_budget,
            ),
        }

    def _resolve_events(self, scenario: ChaosScenario) -> ChaosScenario:
        """Resolve placeholder targets/times in extra events.

        ``target="__mid__"`` becomes the middle shard of the fleet and
        fractional ``t_ns`` in (0, 1] scales to the horizon, so stock
        scenarios stay fleet-agnostic.
        """
        if not scenario.extra_events:
            return scenario
        resolved = []
        for event in scenario.extra_events:
            target = event.target
            if target == "__mid__":
                target = f"shard{self.n_shards // 2}"
            t_ns = event.t_ns
            if 0.0 < t_ns <= 1.0:
                t_ns = t_ns * self.horizon_ns
            resolved.append(
                FaultEvent(
                    t_ns=t_ns,
                    kind=event.kind,
                    target=target,
                    duration_ns=event.duration_ns,
                    params=dict(event.params),
                )
            )
        return ChaosScenario(
            name=scenario.name,
            description=scenario.description,
            gray=scenario.gray,
            extra_events=tuple(resolved),
        )

    def _run_arm(
        self, plan: FaultPlan, policy, reference: list
    ) -> dict:
        from repro.serving.sharding import ShardManager

        manager = ShardManager(
            self.data,
            self.n_shards,
            replication=self.replication,
            fault_plan=plan,
            recovery=policy,
            seed=self.seed,
        )
        served = self._serve(manager, reference, 0, self.n_requests, 0.0)
        counters = {
            key: sum(getattr(timing, key) for timing in served["timings"])
            for key in _ARM_COUNTERS
        }
        degraded = served["degraded"]
        stats = manager.merged_stats()
        lat = np.asarray(served["latencies"])
        return {
            "latency_p50_ns": float(np.percentile(lat, 50.0)),
            "latency_p95_ns": float(np.percentile(lat, 95.0)),
            "latency_p99_ns": float(np.percentile(lat, 99.0)),
            "latency_mean_ns": float(lat.mean()),
            "requests": self.n_requests,
            "exactness_violations": served["violations"],
            "degraded_responses": degraded,
            # degraded answers are exact but slow; availability counts
            # completions on the full-fidelity path
            "availability": 1.0 - degraded / self.n_requests,
            "hedge_rate": (
                counters["hedges"] / counters["attempts"]
                if counters["attempts"]
                else 0.0
            ),
            "pim_time_ns": stats.pim_time_ns,
            "hedge_cancelled_ns": stats.extra.get(
                "hedge_cancelled_ns", 0.0
            ),
            "counters": counters,
            "health": manager.health.snapshot(self.horizon_ns),
        }

    def run(self) -> dict:
        """Execute every scenario; returns the timeline artifact dict."""
        reference = self._reference()
        scenarios_out = []
        for index, raw in enumerate(self.scenarios):
            scenario = self._resolve_events(raw)
            plan = scenario.plan(
                self.n_shards, self.horizon_ns, self.seed + index
            )
            arms = {
                arm: self._run_arm(plan, policy, reference)
                for arm, policy in self._policies().items()
            }
            scenarios_out.append(
                {
                    "name": scenario.name,
                    "description": scenario.description,
                    "plan_seed": self.seed + index,
                    "fault_timeline": plan.describe(),
                    "arms": arms,
                }
            )
        return {
            "campaign": {
                "seed": self.seed,
                "n_shards": self.n_shards,
                "replication": self.replication,
                "n_requests": self.n_requests,
                "k": self.k,
                "horizon_ns": self.horizon_ns,
                "hedge_budget": self.hedge_budget,
                "dataset_rows": int(self.data.shape[0]),
                "dims": int(self.data.shape[1]),
            },
            "scenarios": scenarios_out,
        }
