"""Self-tests of the benchmark: oracle, digests, tracer hygiene, accounting.

Run from the repository root with ``python3 -m pytest servebench -q``.
They use shrunken copies of the real workloads so they finish quickly.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from servebench.layers import PROBES, LayerTracer
from servebench.oracle import Oracle
from servebench.bench import check_answers, serve_round, tail_percentile
from servebench.workloads import WORKLOADS, make_inputs


def _small(name: str, **changes):
    return dataclasses.replace(
        WORKLOADS[name], n=600, n_requests=48, **changes
    )


@pytest.fixture(scope="module")
def assign_inputs():
    return make_inputs(
        _small("year-assign", assign_every=6, wide_every=None), seed=3
    )


@pytest.fixture(scope="module")
def assign_round(assign_inputs):
    return serve_round(assign_inputs)


def test_every_workload_supports_p99():
    for workload in WORKLOADS.values():
        assert workload.n_requests >= 1000
        assert tail_percentile(workload.n_requests) == 99.0


def test_oracle_accepts_the_served_answers(assign_inputs, assign_round):
    tally = check_answers(assign_inputs, assign_round)
    assert tally["completed"] == tally["offered"] == 48
    assert tally["wrong"] == 0
    kinds = {r.kind for r in assign_inputs.requests}
    assert kinds == {"knn", "assign"}


@pytest.mark.parametrize("kind", ["knn", "assign"])
def test_oracle_flags_a_perturbed_answer(assign_inputs, assign_round, kind):
    oracle = Oracle(assign_inputs.data, assign_round.quantizer_state)
    by_id = {r.request_id: r for r in assign_inputs.requests}
    response = next(
        r for r in assign_round.responses if r.ok and r.kind == kind
    )
    request = by_id[response.request_id]
    assert oracle.check(request, response) == (True, True)
    swapped = response.indices.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    if kind == "assign":
        swapped[0] = (swapped[0] + 1) % request.query.shape[0]
    bad_idx = dataclasses.replace(response, indices=swapped)
    assert oracle.check(request, bad_idx) == (False, False)
    nudged = response.scores.copy()
    nudged[-1] += 1e-6
    bad_score = dataclasses.replace(response, scores=nudged)
    assert oracle.check(request, bad_score) == (False, True)


def test_out_of_box_queries_are_checked_on_the_raw_query():
    inputs = make_inputs(_small("year-assign", assign_every=6), seed=5)
    tally = check_answers(inputs, serve_round(inputs))
    assert tally["wide"] == 10  # 1 in 4 of the 40 kNN requests
    # every out-of-box answer is refined against the clipped query, so
    # its reported distances differ from the raw query's
    assert tally["wrong"] == tally["wide"]
    assert tally["wrong_in_box"] == 0


def test_digests_repeat_for_a_seed_and_differ_across_seeds(
    assign_inputs, assign_round
):
    again = serve_round(assign_inputs)
    assert again.answer_digest == assign_round.answer_digest
    assert again.sim_digest == assign_round.sim_digest
    other = serve_round(
        make_inputs(_small("year-assign", assign_every=6, wide_every=None), 4)
    )
    assert other.answer_digest != assign_round.answer_digest
    assert other.sim_digest != assign_round.sim_digest


def test_tracer_restores_every_patched_attribute(assign_inputs):
    before = [vars(p.owner)[p.attr] for p in PROBES]
    with LayerTracer() as tracer:
        during = [vars(p.owner)[p.attr] for p in PROBES]
        serve_round(assign_inputs, tracer)
    after = [vars(p.owner)[p.attr] for p in PROBES]
    assert all(a is not b for a, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_tracer_restores_after_an_error(assign_inputs):
    before = [vars(p.owner)[p.attr] for p in PROBES]
    with pytest.raises(RuntimeError):
        with LayerTracer():
            raise RuntimeError("boom")
    assert all(vars(p.owner)[p.attr] is b for p, b in zip(PROBES, before))


def test_self_times_and_residual_sum_to_the_serve_phase(
    assign_inputs, assign_round
):
    with LayerTracer() as tracer:
        traced = serve_round(assign_inputs, tracer)
    serve = traced.layers["serve"]["self_s"]
    assert all(v >= 0.0 for v in serve.values())
    residual = traced.serve_s - sum(serve.values())
    assert 0.0 <= residual < 0.01 * traced.serve_s
    assert sum(serve.values()) + residual == pytest.approx(traced.serve_s)
    for layer in ("pim_array.kernel", "hbm_pim.kernel", "timing.model",
                  "sharding.knn", "sharding.assign", "service.loop"):
        assert serve[layer] > 0.0
    # tracing observes, it does not change what is served
    assert traced.answer_digest == assign_round.answer_digest
    assert traced.sim_digest == assign_round.sim_digest
    counts = traced.layers["serve"]["counts"]
    assert counts["pim_array.macs"] > 0
    assert np.isclose(
        counts["pim_array.macs"] % assign_inputs.data.shape[1], 0.0
    )
