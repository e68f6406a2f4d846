"""Tiny runs of the two fault campaigns on the shared harness.

Each campaign must be deterministic (two ``run()`` calls give equal
artifacts) and keep its own gates: no answer differs from the clean
oracle, spread placement stays more available than ring placement
through a power-domain outage, and a checkpointed cold restart answers
exactly like an uninterrupted twin.
"""

import json

import numpy as np
import pytest

from repro.faults import ChaosCampaign, DisasterRecoveryCampaign
from repro.faults.campaign import standard_campaign


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(3).random((96, 8))


def test_chaos_campaign_is_deterministic_and_exact(data):
    straggler, *_, crash = standard_campaign()
    campaign = ChaosCampaign(
        data, scenarios=(straggler, crash), n_requests=10, seed=4
    )
    result = campaign.run()
    assert result == campaign.run()
    for scenario in result["scenarios"]:
        for name, arm in scenario["arms"].items():
            assert arm["exactness_violations"] == 0, (scenario["name"], name)
            assert arm["requests"] == 10


def test_dr_campaign_is_deterministic_and_keeps_its_gates(data, tmp_path):
    campaign = DisasterRecoveryCampaign(
        data, n_requests=12, checkpoint_dir=str(tmp_path), seed=6
    )
    result = campaign.run()
    assert result == campaign.run()
    naive, spread = result["arms"]["naive"], result["arms"]["spread"]
    assert naive["exactness_violations"] == 0
    assert spread["exactness_violations"] == 0
    assert spread["availability"] > naive["availability"]
    checkpoint = result["checkpoint"]
    assert checkpoint["exactness_violations"] == 0
    assert checkpoint["restore_mismatches"] == 0
    assert checkpoint["recovery_point_ns"] == checkpoint["checkpoint_t_ns"]


def test_dr_artifact_names_the_checkpoint_file_only(data, tmp_path):
    campaign = DisasterRecoveryCampaign(
        data, n_requests=4, checkpoint_dir=str(tmp_path), seed=6
    )
    result = campaign.run()
    path = tmp_path / "artifact.json"
    campaign.write_artifact(result, str(path))
    text = path.read_text()
    assert str(tmp_path) not in text
    checkpoint = json.loads(text)["checkpoint"]
    assert checkpoint["checkpoint_path"] == "dr-seed6.ckpt.npz"
    assert checkpoint["integrity"]["path"] == "dr-seed6.ckpt.npz"
    assert (tmp_path / "dr-seed6.ckpt.npz").is_file()
