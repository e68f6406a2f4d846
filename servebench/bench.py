"""One benchmark run: rounds, the oracle check, metrics and the result line.

One *round* builds a fresh fleet (timed as set-up) and serves the
workload's fixed request trace through ``QueryService.run`` (timed as
the serve phase). A run serves as many rounds as fit in ``--seconds``,
at least one; every round of one seed must produce byte-identical
answers and simulated timings, which the run checks. Every answer of
the first round is then checked against a brute-force oracle on the raw
query, outside the timed region.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics (see
``layers.py``), the unattributed residual and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from servebench import oracle
from servebench.layers import LayerTracer
from servebench.workloads import (
    WORKLOADS,
    build_manager,
    build_service,
    fresh_requests,
    make_inputs,
)

#: Minimum fleet builds per run; ``setup_s`` is their median.
SETUP_REPS = 7
#: Percentiles tried, highest first, for the simulated latency tail.
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0)
#: Samples a reported tail percentile needs beyond it.
TAIL_SAMPLES = 10


@dataclass
class Round:
    """What one round measured and produced."""

    setup_s: float
    serve_s: float
    responses: list | None
    summary: dict
    answer_digest: str
    sim_digest: str
    quantizer_state: dict
    layers: dict | None = None


def serve_round(inputs, tracer: LayerTracer | None = None) -> Round:
    """Build a fleet, serve the trace once, and digest the outputs."""
    requests = fresh_requests(inputs)
    # A ShardManager holds reference cycles; collect the previous
    # round's fleet so that peak memory is that of one fleet.
    gc.collect()
    if tracer is not None:
        tracer.reset()
    t0 = perf_counter()
    manager = build_manager(inputs)
    setup_s = perf_counter() - t0
    layers = None
    if tracer is not None:
        layers = {"setup": _snapshot(tracer)}
        tracer.reset()
    service = build_service(manager)
    t0 = perf_counter()
    service.run(requests)
    serve_s = perf_counter() - t0
    if tracer is not None:
        layers["serve"] = _snapshot(tracer)
    responses = service.responses
    return Round(
        setup_s=setup_s,
        serve_s=serve_s,
        responses=responses,
        summary=service.summary(),
        answer_digest=oracle.answer_digest(responses),
        sim_digest=oracle.sim_digest(responses, manager.merged_stats()),
        quantizer_state=manager.quantizer.export_state(),
        layers=layers,
    )


def _snapshot(tracer: LayerTracer) -> dict:
    return {
        "self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
    }


def run_rounds(inputs, seconds: float, trace: bool):
    """Serve as many rounds as fit in ``seconds`` (at least one).

    Untraced runs serve untraced rounds only. Traced runs alternate an
    untraced round (the overhead reference) with a traced one. Extra
    fleet builds top the set-up samples up to :data:`SETUP_REPS`.
    """
    plain: list[Round] = []
    traced: list[Round] = []
    used = 0.0
    while not plain or used * (len(plain) + 1) / len(plain) <= seconds:
        t0 = perf_counter()
        plain.append(serve_round(inputs))
        if trace:
            with LayerTracer() as tracer:
                traced.append(serve_round(inputs, tracer))
            traced[-1].responses = None
        if len(plain) > 1:
            # later rounds are checked by digest; keeping their answers
            # would make peak memory grow with the round count
            plain[-1].responses = None
        used += perf_counter() - t0
    setup = [r.setup_s for r in plain]
    while len(setup) < SETUP_REPS:
        gc.collect()
        t0 = perf_counter()
        build_manager(inputs)
        setup.append(perf_counter() - t0)
    return plain, traced, setup


def tail_percentile(completed: int) -> float:
    """Highest percentile with at least ten completions beyond it."""
    for p in TAIL_PERCENTILES:
        if completed * (100.0 - p) / 100.0 >= TAIL_SAMPLES:
            return p
    return 50.0


def check_answers(inputs, round_: Round) -> dict:
    """Oracle verdicts for every response of one round."""
    orc = oracle.Oracle(inputs.data, round_.quantizer_state)
    by_id = {r.request_id: r for r in inputs.requests}
    tally = {
        "offered": len(inputs.requests),
        "answered": len(round_.responses),
        "completed": 0,
        "shed": 0,
        "wrong": 0,
        "wrong_indices": 0,
        "wrong_in_box": 0,
        "wide": 0,
    }
    for response in round_.responses:
        request = by_id[response.request_id]
        wide = request.kind == "knn" and oracle.outside_box(
            orc, request.query
        )
        tally["wide"] += wide
        if not response.ok:
            tally["shed"] += 1
            continue
        tally["completed"] += 1
        same, same_idx = orc.check(request, response)
        if not same:
            tally["wrong"] += 1
            tally["wrong_in_box"] += not wide
        tally["wrong_indices"] += not same_idx
    tally["failed"] = tally["shed"] + tally["wrong"]
    tally["error_rate"] = tally["failed"] / tally["offered"]
    return tally


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(plain, setup, tally, rss_mb) -> dict:
    """The gated end-to-end metrics of one run, as (value, unit)."""
    summary = plain[0].summary
    serve_s = statistics.median(r.serve_s for r in plain)
    return {
        "host_s_per_1k_queries": (serve_s / tally["offered"] * 1e3, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "sim_qps": (summary["throughput_qps"], "1/s"),
        "sim_p99_us": (summary["p99_ns"] / 1e3, "us"),
        "exact_answer_rate": (1.0 - tally["error_rate"], "ratio"),
    }


def per_layer(plain, traced) -> dict:
    """The per-layer metrics of a traced run (means over traced rounds)."""

    def mean(values):
        return float(np.mean(list(values)))

    def serve(key, field="self_s"):
        return mean(r.layers["serve"][field].get(key, 0.0) for r in traced)

    def setup(key):
        return mean(r.layers["setup"]["self_s"].get(key, 0.0) for r in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for sub in ("pim_array", "hbm_pim"):
        kernel = serve(f"{sub}.kernel")
        macs = serve(f"{sub}.macs", "counts")
        out[f"{sub}.kernel_s"] = (kernel, "s")
        out[f"{sub}.macs"] = (macs, "count")
        out[f"{sub}.ns_per_mac"] = (ratio(kernel * 1e9, macs), "ns/MAC")
        out[f"{sub}.queries_per_call"] = (
            ratio(serve(f"{sub}.queries", "counts"),
                  serve(f"{sub}.calls", "counts")),
            "count",
        )
        out[f"{sub}.program_s"] = (setup(f"{sub}.program"), "s")
    out["timing.model_s"] = (serve("timing.model"), "s")
    out["quantization.s"] = (serve("quantization"), "s")
    out["quantization.setup_s"] = (setup("quantization"), "s")
    knn_ref = serve("sharding.knn_refined", "counts")
    knn_pru = serve("sharding.knn_pruned", "counts")
    asg_ref = serve("sharding.assign_refined", "counts")
    asg_pru = serve("sharding.assign_pruned", "counts")
    out["sharding.knn_self_s"] = (serve("sharding.knn"), "s")
    out["sharding.refine_s"] = (serve("sharding.refine"), "s")
    out["sharding.refined_rows"] = (
        serve("sharding.refined_rows", "counts"), "count"
    )
    out["sharding.prune_ratio"] = (ratio(knn_pru, knn_ref + knn_pru), "ratio")
    out["sharding.assign_self_s"] = (serve("sharding.assign"), "s")
    out["sharding.assign_prune_ratio"] = (
        ratio(asg_pru, asg_ref + asg_pru), "ratio"
    )
    # the traced rounds served exactly these responses (digest-checked)
    responses = [r for r in plain[0].responses if r.ok]
    dispatches = {r.dispatch_ns for r in responses}
    waits = [(r.dispatch_ns - r.arrival_ns) / 1e3 for r in responses]
    out["service.loop_self_s"] = (serve("service.loop"), "s")
    out["service.batch_size_mean"] = (
        ratio(len(responses), len(dispatches)), "count"
    )
    out["service.queue_wait_us_p50"] = (
        float(np.median(waits)) if waits else 0.0, "us"
    )
    out["slo.observe_s"] = (serve("slo.observe"), "s")
    burn = serve("burnrate.observe")
    out["burnrate.observe_s"] = (burn, "s")
    out["burnrate.us_per_observe"] = (
        ratio(burn * 1e6, serve("burnrate.observe", "calls")), "us/call"
    )
    serve_s = mean(r.serve_s for r in traced)
    attributed = mean(sum(r.layers["serve"]["self_s"].values()) for r in traced)
    out["trace.serve_s"] = (serve_s, "s")
    out["trace.residual_s"] = (serve_s - attributed, "s")
    out["trace.overhead"] = (
        serve_s / statistics.median(r.serve_s for r in plain) - 1.0, "ratio"
    )
    return out


def _print_layer_table(traced, out) -> None:
    layers: dict[str, float] = {}
    for r in traced:
        for key, value in r.layers["serve"]["self_s"].items():
            layers[key] = layers.get(key, 0.0) + value / len(traced)
    total = sum(r.serve_s for r in traced) / len(traced)
    residual = total - sum(layers.values())
    print("serve-phase self time by layer (traced rounds, mean):", file=out)
    for key, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {key:<20} {value:10.4f} s  {value / total:6.1%}", file=out)
    print(f"  {'(unattributed)':<20} {residual:10.4f} s  "
          f"{residual / total:6.1%}", file=out)


def main(argv=None, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end serving benchmark (see servebench/README.md)"
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = make_inputs(workload, args.seed)
    plain, traced, setup = run_rounds(inputs, args.seconds, bool(args.trace))
    rss_mb = peak_rss_mb()
    rounds = plain + traced
    first = plain[0]
    identical = all(
        r.answer_digest == first.answer_digest
        and r.sim_digest == first.sim_digest
        for r in rounds
    )
    tally = check_answers(inputs, first)
    # Wrong answers to out-of-box queries are the known clipped-query
    # refinement defect (ROADMAP item 2); they count as failures but do
    # not mark the run incorrect. Any other wrong answer does.
    correct = (
        identical
        and tally["wrong_in_box"] == 0
        and tally["answered"] == tally["offered"]
    )
    summary = first.summary

    print(f"workload       : {workload.name} (seed {args.seed}; "
          f"{workload.dataset} n={workload.n}, d={inputs.data.shape[1]}; "
          f"{workload.rate_qps:g} qps offered, poisson)", file=out)
    print(f"rounds         : {len(plain)} untraced, {len(traced)} traced; "
          f"outputs identical across rounds: {identical}", file=out)
    print(f"answer_digest  : {first.answer_digest}", file=out)
    print(f"sim_digest     : {first.sim_digest}", file=out)
    print(f"error_rate     : {tally['error_rate']:.4f} (offered "
          f"{tally['offered']}, completed {tally['completed']}, shed "
          f"{tally['shed']}, wrong {tally['wrong']}; wrong indices "
          f"{tally['wrong_indices']}, wrong in-box {tally['wrong_in_box']}, "
          f"out-of-box queries {tally['wide']})", file=out)
    e2e = end_to_end(plain, setup, tally, rss_mb)
    for name, (value, unit) in e2e.items():
        print(f"{name:<22} {value:14.6f} {unit}", file=out)
    # At the benchmark's loads the median request is served alone, so
    # sim_p50_us is the model's lone-request service time: the same on
    # every seed. It is printed, and covered by sim_digest, not gated.
    print(f"{'sim_p50_us':<22} {summary['p50_ns'] / 1e3:14.6f} us", file=out)
    tail = tail_percentile(tally["completed"])
    if tail != 99.0:
        lat = [r.latency_ns for r in first.responses if r.ok]
        print(f"sim_p99_us lacks {TAIL_SAMPLES} samples beyond it; "
              f"sim_p{tail:g}_us {np.percentile(lat, tail) / 1e3:.6f} us",
              file=out)
    metrics = e2e
    if args.trace:
        metrics = per_layer(plain, traced)
        _print_layer_table(traced, out)
        for name, (value, unit) in metrics.items():
            print(f"{name:<30} {value:16.6f} {unit}", file=out)
    result = {
        "correct": bool(correct),
        "attempted": tally["offered"] * len(rounds),
        "failed": tally["failed"] * len(rounds),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), file=out)
    return 0
