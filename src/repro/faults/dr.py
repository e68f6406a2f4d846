"""Disaster-recovery campaign: correlated outages + cold restarts, measured.

Where :class:`~repro.faults.campaign.ChaosCampaign` asks "do gray
defenses help under gray weather", this campaign asks the two questions
that only matter when *whole failure domains* die:

* **Does spread placement buy survival?** The same seeded
  :meth:`~repro.faults.plan.FaultPlan.domain_outage` plan (every shard
  of a power domain crashing at the same instant) is served by two
  fleets at equal hardware — the historical ring placement
  (``spread=False``) and domain-spread placement (``spread=True``).
  Both must stay bit-exact (degraded recompute is exact by
  construction); the spread arm must keep strictly more requests on
  the full-fidelity path.
* **Does a cold restart lose anything?** A third leg serves half the
  trace, checkpoints (:func:`repro.checkpoint.write_checkpoint`),
  simulates a full-process crash by discarding every live object,
  restores (:func:`repro.checkpoint.restore_manager`) and serves the
  rest. Its answers must be bit-identical to an uninterrupted run of
  the same fleet, and the recovery point must equal the checkpoint's
  snapshot time exactly.

Determinism: the query trace, the outage plan and the checkpoint
filename all derive from the campaign seed, so two runs emit
byte-identical artifacts (modulo float formatting).
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.campaign import Campaign
from repro.faults.plan import FaultPlan
from repro.hardware.config import FailureDomainTopology

# repro.serving imports repro.faults, so serving (and the checkpoint
# module, which imports serving) loads lazily inside methods.


class DisasterRecoveryCampaign(Campaign):
    """Kill whole domains, cold-restart the service, check the gates.

    Parameters
    ----------
    data:
        The dataset every arm serves (``(n, dims)`` float array).
    topology:
        Failure-domain tree; defaults to boards of 2, channels of
        2 boards, one channel per power domain — 8 shards = 2 power
        domains, the smallest shape where a power outage is survivable.
    n_shards / replication:
        Fleet shape shared by both placement arms (equal hardware —
        the comparison is *where replicas sit*, not more metal).
    n_requests / k:
        Seeded query trace length and top-k per request.
    horizon_ns:
        Plan horizon; the trace is paced across it so requests land on
        both sides of the outage.
    outage_domains / level:
        How many domains die simultaneously, and at which level.
    brownout_domains:
        Additionally brown out this many surviving power domains
        (staggered ``shard_hang`` recovery).
    checkpoint_dir:
        Where the checkpoint leg writes its container; a temporary
        directory by default.
    seed:
        Master seed for queries, the plan and the artifact.
    """

    def __init__(
        self,
        data: np.ndarray,
        *,
        topology: FailureDomainTopology | None = None,
        n_shards: int = 8,
        replication: int = 2,
        n_requests: int = 120,
        k: int = 10,
        horizon_ns: float = 1.5e7,
        outage_domains: int = 1,
        level: str = "power",
        brownout_domains: int = 0,
        checkpoint_dir: str | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(
            data, n_requests=n_requests, k=k, horizon_ns=horizon_ns,
            seed=seed,
        )
        if self.n_requests < 2:
            raise ConfigurationError("n_requests must be >= 2")
        self.n_shards = int(n_shards)
        self.replication = int(replication)
        self.topology = (
            topology
            if topology is not None
            else FailureDomainTopology(
                n_shards=self.n_shards,
                shards_per_board=2,
                boards_per_channel=2,
                channels_per_power_domain=1,
            )
        )
        if self.topology.n_shards != self.n_shards:
            raise ConfigurationError(
                f"topology describes {self.topology.n_shards} shards, "
                f"campaign runs {self.n_shards}"
            )
        self.outage_domains = int(outage_domains)
        self.level = level
        self.brownout_domains = int(brownout_domains)
        self.checkpoint_dir = checkpoint_dir
        self.plan = FaultPlan.domain_outage(
            self.topology,
            self.horizon_ns,
            seed=self.seed,
            outage_domains=self.outage_domains,
            level=self.level,
            brownout_domains=self.brownout_domains,
        )

    # ------------------------------------------------------------------
    def _make_manager(self, spread: bool, fault_plan):
        from repro.serving.sharding import ShardManager

        return ShardManager(
            self.data,
            self.n_shards,
            replication=self.replication,
            fault_plan=fault_plan,
            seed=self.seed,
            topology=self.topology,
            spread=spread,
        )

    def _placement_arm(self, spread: bool, reference) -> dict:
        manager = self._make_manager(spread, self.plan)
        served = self._serve(
            manager, reference, 0, self.n_requests, 0.0
        )
        lat = np.asarray(served["latencies"])
        report = manager.spread_report()
        return {
            "spread_placement": spread,
            "requests": self.n_requests,
            "exactness_violations": served["violations"],
            "degraded_responses": served["degraded"],
            "availability": 1.0 - served["degraded"] / self.n_requests,
            "latency_p50_ns": float(np.percentile(lat, 50.0)),
            "latency_p99_ns": float(np.percentile(lat, 99.0)),
            "at_risk_chunks_before_outage": None,  # filled by caller
            "at_risk_chunks_after": report["n_at_risk"],
            "placement_violations": len(report["violations"]),
            "min_spread": report["min_spread"],
            "health": manager.health.snapshot(self.horizon_ns),
            "answers": served["answers"],
        }

    def _checkpoint_leg(self, reference) -> dict:
        """Serve, checkpoint, crash, restore, serve — prove bit-identity."""
        from repro.checkpoint import (
            restore_manager,
            verify_checkpoint,
            write_checkpoint,
        )

        half = self.n_requests // 2
        # the uninterrupted twin: same fleet, same plan, full trace
        baseline = self._make_manager(True, self.plan)
        base = self._serve(
            baseline, reference, 0, self.n_requests, 0.0
        )
        # the crashed service: first half, checkpoint, discard, restore
        manager = self._make_manager(True, self.plan)
        first = self._serve(manager, reference, 0, half, 0.0)
        directory = self.checkpoint_dir
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-dr-")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(
            directory, f"dr-seed{self.seed}.ckpt.npz"
        )
        manifest = write_checkpoint(
            manager, path, t_ns=first["t_end"]
        )
        integrity = verify_checkpoint(path)
        del manager  # the crash: every live object is gone
        restored = restore_manager(path, fault_plan=self.plan)
        second = self._serve(
            restored, reference, half, self.n_requests, first["t_end"]
        )
        answers = first["answers"] + second["answers"]
        restore_mismatches = sum(
            1
            for mine, theirs in zip(answers, base["answers"])
            if mine != theirs
        )
        # the artifact names the file, not the machine-specific directory
        integrity["path"] = os.path.basename(path)
        return {
            "checkpoint_path": os.path.basename(path),
            "checkpoint_t_ns": float(manifest["t_ns"]),
            "recovery_point_ns": float(restored.last_checkpoint_ns),
            "requests_before_crash": half,
            "requests_after_restore": self.n_requests - half,
            "exactness_violations": (
                first["violations"] + second["violations"]
            ),
            "restore_mismatches": restore_mismatches,
            "degraded_responses": first["degraded"] + second["degraded"],
            "integrity": integrity,
            "health_restored": True,
        }

    def run(self) -> dict:
        """Execute the campaign; returns the timeline artifact dict."""
        reference = self._reference()
        naive = self._placement_arm(False, reference)
        spread = self._placement_arm(True, reference)
        # pre-outage risk comes from a pristine fleet (no faults)
        for arm, flag in ((naive, False), (spread, True)):
            pristine = self._make_manager(flag, None)
            arm["at_risk_chunks_before_outage"] = (
                pristine.spread_report()["n_at_risk"]
            )
        checkpoint = self._checkpoint_leg(reference)
        # answers are for gating, not for the artifact (bulky)
        naive_answers = naive.pop("answers")
        spread_answers = spread.pop("answers")
        answer_divergence = sum(
            1
            for a, b in zip(naive_answers, spread_answers)
            if a != b
        )
        return {
            "campaign": {
                "seed": self.seed,
                "n_shards": self.n_shards,
                "replication": self.replication,
                "topology": self.topology.describe(),
                "n_requests": self.n_requests,
                "k": self.k,
                "horizon_ns": self.horizon_ns,
                "outage_domains": self.outage_domains,
                "level": self.level,
                "brownout_domains": self.brownout_domains,
                "dataset_rows": int(self.data.shape[0]),
                "dims": int(self.data.shape[1]),
            },
            "fault_timeline": self.plan.describe(),
            "arms": {"naive": naive, "spread": spread},
            "placement_answer_divergence": answer_divergence,
            "checkpoint": checkpoint,
        }
