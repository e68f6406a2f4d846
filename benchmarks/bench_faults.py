"""Chaos bench: exact recovery of the serving layer under injected faults.

The robustness claim behind :mod:`repro.faults` + the recovery machinery
in :mod:`repro.serving`: with k-replica placement, a seeded fault plan
that kills one of four shards mid-run and corrupts a slice of its waves
must not change a single answer. Concretely this bench drives the same
deterministic request trace twice — once fault-free, once under a
:meth:`~repro.faults.FaultPlan.chaos` schedule — and checks:

* **exactness** — every completed response of the chaos run is
  bit-identical (indices and scores) to the fault-free run;
* **availability** — the chaos run completes at least
  ``MIN_AVAILABILITY`` of offered requests (replication absorbs the
  shard death);
* **detection** — corrupted waves are flagged by the residue checksum
  (never silently used), at a rate consistent with the injected
  corruption;
* **overhead** — programming + verifying the checksum row costs at most
  ``MAX_VERIFY_OVERHEAD`` of clean-path service time;
* **telemetry** — the emitted trace and metrics files pass the schema
  validator, and a fault-timeline JSON artifact records the plan, the
  recovery counters and the final per-shard health.

Dual mode: a pytest bench (``pytest benchmarks/bench_faults.py``) and a
standalone CLI (``python benchmarks/bench_faults.py --smoke``) used by
the CI chaos job.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.cli import add_telemetry_args, telemetry_scope
from repro.core.report import format_table
from repro.faults import FaultPlan
from repro.serving import (
    QueryService,
    ShardManager,
    SLOTracker,
    TenantSpec,
    WorkloadDriver,
)
from repro.telemetry import telemetry_session
from repro.telemetry.export import write_chrome_trace, write_metrics_jsonl
from repro.telemetry.validate import validate_metrics, validate_trace

RESULTS_DIR = Path(__file__).parent / "results"

N_ROWS = 2048
DIMS = 64
K = 10
N_SHARDS = 4
REPLICATION = 2
MAX_BATCH = 8
N_REQUESTS = 96
SMOKE_REQUESTS = 48
FAULT_SEED = 7
#: Acceptance floors/ceilings (also enforced by the CI chaos job).
MIN_AVAILABILITY = 0.99
MAX_VERIFY_OVERHEAD = 0.05
#: Corrupted-row flags per wave attempt under the chaos plan must at
#: least reach this — the plan corrupts ~15% of one shard's rows, so a
#: healthy detector sits far above 1%.
MIN_CORRUPT_RATE = 0.01

TENANTS = [
    TenantSpec("batch", workload="near", k=K, weight=1.0),
    TenantSpec("interactive", workload="uniform", k=K, weight=1.0),
]


def _dataset() -> np.ndarray:
    return np.random.default_rng(42).random((N_ROWS, DIMS))


def _probe_rate(data: np.ndarray) -> float:
    """Offered load at ~80% of clean single-node capacity."""
    manager = ShardManager(data, n_shards=N_SHARDS)
    probe = np.random.default_rng(7).random((MAX_BATCH, DIMS))
    _, timing = manager.knn_batch(probe, K)
    return 0.8 * MAX_BATCH * 1e9 / timing.service_ns


def _trace(data: np.ndarray, rate_qps: float, n_requests: int) -> list:
    """The deterministic request trace (regenerated fresh per run —
    the service mutates requests in place)."""
    driver = WorkloadDriver(data, TENANTS, seed=1234)
    return driver.open_loop(rate_qps, n_requests, arrival="poisson")


def _serve_trace(
    data: np.ndarray,
    requests: list,
    fault_plan: FaultPlan | None,
) -> tuple[dict, dict, ShardManager]:
    """One full serving run; returns responses by id, summary, manager."""
    manager = ShardManager(
        data,
        n_shards=N_SHARDS,
        replication=REPLICATION,
        fault_plan=fault_plan,
    )
    service = QueryService(
        manager,
        TENANTS,
        max_batch=MAX_BATCH,
        queue_capacity=64,
        policy="reject",
        tracker=SLOTracker(),
    )
    service.run(requests)
    by_id = {r.request_id: r for r in service.responses}
    return by_id, service.summary(), manager


def _verify_overhead(data: np.ndarray) -> dict:
    """Clean-path cost of the residue checksum (program + verify)."""
    probe = np.random.default_rng(11).random((MAX_BATCH, DIMS))
    plain = ShardManager(data, n_shards=N_SHARDS, verify=False)
    _, t_plain = plain.knn_batch(probe, K)
    checked = ShardManager(data, n_shards=N_SHARDS, verify=True)
    _, t_checked = checked.knn_batch(probe, K)
    overhead = t_checked.service_ns / t_plain.service_ns - 1.0
    return {
        "plain_service_ns": float(t_plain.service_ns),
        "verified_service_ns": float(t_checked.service_ns),
        "overhead": float(overhead),
        "max_allowed": MAX_VERIFY_OVERHEAD,
    }


def run_bench(smoke: bool = False) -> dict:
    """Clean run vs chaos run + overhead probe + telemetry validation."""
    n_requests = SMOKE_REQUESTS if smoke else N_REQUESTS
    data = _dataset()
    rate = _probe_rate(data)

    clean, clean_summary, _ = _serve_trace(
        data, _trace(data, rate, n_requests), None
    )

    requests = _trace(data, rate, n_requests)
    horizon_ns = 1.05 * max(r.arrival_ns for r in requests)
    plan = FaultPlan.chaos(N_SHARDS, horizon_ns, seed=FAULT_SEED)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = RESULTS_DIR / "faults_chaos.trace.json"
    metrics_path = RESULTS_DIR / "faults_chaos.metrics.jsonl"
    with telemetry_session() as tele:
        chaos, chaos_summary, manager = _serve_trace(data, requests, plan)
    write_chrome_trace(tele, str(trace_path))
    write_metrics_jsonl(tele, str(metrics_path))
    span_events = validate_trace(str(trace_path))
    metric_lines = validate_metrics(str(metrics_path))

    violations = []
    for rid, response in sorted(chaos.items()):
        if not response.ok:
            continue
        reference = clean.get(rid)
        if reference is None or not reference.ok:
            violations.append({"request": rid, "kind": "no_reference"})
            continue
        if not (
            np.array_equal(response.indices, reference.indices)
            and np.array_equal(response.scores, reference.scores)
        ):
            violations.append({"request": rid, "kind": "mismatch"})

    recovery = chaos_summary["recovery"]
    corrupt_rate = recovery["corrupt_detected"] / max(
        recovery["attempts"], 1
    )
    overhead = _verify_overhead(data)
    result = {
        "meta": {
            "n_rows": N_ROWS,
            "dims": DIMS,
            "k": K,
            "n_shards": N_SHARDS,
            "replication": REPLICATION,
            "n_requests": n_requests,
            "rate_qps": float(rate),
            "fault_seed": FAULT_SEED,
            "horizon_ns": float(horizon_ns),
            "smoke": smoke,
        },
        "fault_plan": plan.describe(),
        "clean": {
            "completed": clean_summary["completed"],
            "p99_ns": clean_summary["p99_ns"],
        },
        "chaos": {
            "completed": chaos_summary["completed"],
            "availability": chaos_summary["availability"],
            "retry_rate": chaos_summary["retry_rate"],
            "mttr_ns": chaos_summary["mttr_ns"],
            "p99_ns": chaos_summary["p99_ns"],
            "degraded_exact": chaos_summary["degraded_exact"],
            "recovery": recovery,
            "corrupt_rate": float(corrupt_rate),
            "dead_shards": manager.health.dead_shards,
            "health": manager.health.snapshot(
                float(manager._clock_ns)
            ),
        },
        "exactness_violations": violations,
        "verify_overhead": overhead,
        "telemetry": {
            "trace_file": trace_path.name,
            "metrics_file": metrics_path.name,
            "span_events": span_events,
            "metric_lines": metric_lines,
        },
        "thresholds": {
            "min_availability": MIN_AVAILABILITY,
            "max_verify_overhead": MAX_VERIFY_OVERHEAD,
            "min_corrupt_rate": MIN_CORRUPT_RATE,
        },
    }
    return result


def check(result: dict) -> list[str]:
    """The acceptance gate; returns failure messages (empty = pass)."""
    failures = []
    chaos = result["chaos"]
    if result["exactness_violations"]:
        failures.append(
            f"{len(result['exactness_violations'])} completed responses "
            "differ from the fault-free run"
        )
    if chaos["availability"] < MIN_AVAILABILITY:
        failures.append(
            f"availability {chaos['availability']:.2%} < "
            f"{MIN_AVAILABILITY:.0%}"
        )
    if not chaos["dead_shards"]:
        failures.append("the chaos plan killed no shard (bench mis-sized)")
    if chaos["corrupt_rate"] < MIN_CORRUPT_RATE:
        failures.append(
            f"corrupt detection rate {chaos['corrupt_rate']:.2%} < "
            f"{MIN_CORRUPT_RATE:.0%} — injected corruption went unseen"
        )
    overhead = result["verify_overhead"]["overhead"]
    if overhead > MAX_VERIFY_OVERHEAD:
        failures.append(
            f"verify overhead {overhead:.2%} > {MAX_VERIFY_OVERHEAD:.0%}"
        )
    return failures


def format_report(result: dict) -> str:
    chaos = result["chaos"]
    rec = chaos["recovery"]
    rows = [
        ["completed", result["clean"]["completed"], chaos["completed"]],
        [
            "p99 (us)",
            f"{result['clean']['p99_ns'] / 1e3:.1f}",
            f"{chaos['p99_ns'] / 1e3:.1f}",
        ],
        ["availability", "100%", f"{chaos['availability']:.2%}"],
        ["crashes", 0, rec["crashes"]],
        ["corrupt flags", 0, rec["corrupt_detected"]],
        ["failovers", 0, rec["failovers"]],
        ["retries", 0, rec["retries"]],
        ["degraded chunks", 0, rec["degraded_chunks"]],
        ["dead shards", "[]", str(chaos["dead_shards"])],
        [
            "exactness violations",
            0,
            len(result["exactness_violations"]),
        ],
    ]
    overhead = result["verify_overhead"]["overhead"]
    return format_table(
        ["metric", "clean", "chaos"],
        rows,
        title=(
            f"Chaos recovery: {N_SHARDS} shards x{REPLICATION} replicas, "
            f"seed {FAULT_SEED} — verify overhead {overhead:.2%} "
            f"(cap {MAX_VERIFY_OVERHEAD:.0%})"
        ),
    )


def save_timeline(result: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n")


# ----------------------------------------------------------------------
# pytest mode
# ----------------------------------------------------------------------
def test_chaos_recovery(benchmark, save_results):
    result = run_bench(smoke=True)
    save_results("fault_recovery", format_report(result))
    save_timeline(result, RESULTS_DIR / "fault_timeline.json")
    failures = check(result)
    assert not failures, "; ".join(failures)

    data = _dataset()
    plan = FaultPlan.chaos(N_SHARDS, 1e8, seed=FAULT_SEED)
    manager = ShardManager(
        data, n_shards=N_SHARDS, replication=REPLICATION, fault_plan=plan
    )
    queries = np.random.default_rng(3).random((MAX_BATCH, DIMS))
    benchmark.pedantic(
        lambda: manager.knn_batch(queries, K), rounds=3, iterations=1
    )


# ----------------------------------------------------------------------
# CLI mode (used by the CI chaos job)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="chaos bench: fault injection + exact recovery"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced trace (CI-sized); same assertions",
    )
    parser.add_argument(
        "--out", default=str(RESULTS_DIR / "fault_timeline.json"),
        metavar="FILE", help="fault-timeline JSON artifact path",
    )
    add_telemetry_args(parser)
    args = parser.parse_args(argv)
    with telemetry_scope(args):
        result = run_bench(smoke=args.smoke)
    print(format_report(result))
    save_timeline(result, Path(args.out))
    print(f"fault timeline : {args.out}")
    print(
        f"telemetry      : {result['telemetry']['span_events']} spans, "
        f"{result['telemetry']['metric_lines']} metric lines validated"
    )
    failures = check(result)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
