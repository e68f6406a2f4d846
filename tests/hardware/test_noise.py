"""Unit tests for the analog noise model and its compensation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.config import HardwareConfig, PIMArrayConfig
from repro.hardware.controller import PIMController
from repro.hardware.noise import (
    NoiseModel,
    NoisyPIMArray,
    compensate_dot_lower,
    compensate_dot_upper,
)


@pytest.fixture
def noise() -> NoiseModel:
    return NoiseModel(cell_sigma=0.02, adc_step=64.0, seed=3)


class TestNoiseModel:
    def test_ideal_by_default(self):
        assert NoiseModel().is_ideal

    def test_error_bounds(self, noise):
        assert noise.relative_error_bound == pytest.approx(0.06)
        assert noise.additive_error_bound == pytest.approx(32.0)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            NoiseModel(cell_sigma=-0.1)

    def test_rejects_total_noise(self):
        with pytest.raises(ConfigurationError, match="100%"):
            NoiseModel(cell_sigma=0.5)


class TestNoisyArray:
    def test_values_stay_within_worst_case(self, noise, rng):
        array = NoisyPIMArray(HardwareConfig(pim=PIMArrayConfig()), noise)
        matrix = rng.integers(0, 10**6, size=(50, 64))
        array.program_matrix("d", matrix)
        query = rng.integers(0, 10**6, size=64)
        truth = (matrix @ query).astype(np.float64)
        noisy = array.query("d", query).values
        e = noise.relative_error_bound
        a = noise.additive_error_bound
        assert np.all(noisy <= truth * (1 + e) + a + 1e-6)
        assert np.all(noisy >= truth * (1 - e) - a - 1e-6)

    def test_noise_is_reproducible(self, noise, rng):
        matrix = rng.integers(0, 1000, size=(10, 8))
        query = rng.integers(0, 1000, size=8)
        results = []
        for _ in range(2):
            array = NoisyPIMArray(
                HardwareConfig(pim=PIMArrayConfig()), noise
            )
            array.program_matrix("d", matrix)
            results.append(array.query("d", query).values)
        assert np.array_equal(results[0], results[1])

    def test_ideal_model_is_exact(self, rng):
        array = NoisyPIMArray(
            HardwareConfig(pim=PIMArrayConfig()), NoiseModel()
        )
        matrix = rng.integers(0, 1000, size=(10, 8))
        array.program_matrix("d", matrix)
        query = rng.integers(0, 1000, size=8)
        assert np.array_equal(array.query("d", query).values, matrix @ query)

    def test_query_many_also_noisy(self, noise, rng):
        array = NoisyPIMArray(HardwareConfig(pim=PIMArrayConfig()), noise)
        matrix = rng.integers(0, 10**6, size=(20, 16))
        array.program_matrix("d", matrix)
        queries = rng.integers(0, 10**6, size=(3, 16))
        truth = queries @ matrix.T
        noisy = array.query_many("d", queries).values
        assert noisy.shape == truth.shape
        assert not np.array_equal(noisy, truth)


class TestNoisyController:
    def test_spare_pool_reaches_the_noisy_array(self, noise):
        controller = PIMController(noise=noise, spare_crossbars=4)
        assert isinstance(controller.pim, NoisyPIMArray)
        assert controller.pim.spare_crossbars == 4
        assert controller.pim.spares_remaining == 4

    def test_noise_with_cell_oracle_is_refused(self, noise):
        # the noise model perturbs the fast path only
        with pytest.raises(ConfigurationError, match="reference"):
            PIMController(noise=noise, reference=True)


class TestCompensation:
    def test_upper_covers_truth(self, noise, rng):
        array = NoisyPIMArray(HardwareConfig(pim=PIMArrayConfig()), noise)
        matrix = rng.integers(0, 10**6, size=(100, 32))
        array.program_matrix("d", matrix)
        query = rng.integers(0, 10**6, size=32)
        truth = (matrix @ query).astype(np.float64)
        noisy = array.query("d", query).values
        assert np.all(
            compensate_dot_upper(noisy, noise)
            >= truth * (1.0 - 1e-12) - 1e-6
        )
        assert np.all(
            compensate_dot_lower(noisy, noise)
            <= truth * (1.0 + 1e-12) + 1e-6
        )

    def test_lower_clipped_at_zero(self, noise):
        assert compensate_dot_lower(np.array([0.0]), noise)[0] == 0.0


class TestNoisyBoundsStayValid:
    def test_lb_pim_ed_under_noise(self, noise, clustered_data, query_vector):
        from repro.bounds.pim import PIMEuclideanBound
        from repro.similarity.measures import euclidean_batch

        controller = PIMController(noise=noise)
        bound = PIMEuclideanBound(controller)
        bound.prepare(clustered_data)
        lb = bound.evaluate(query_vector)
        ed = euclidean_batch(clustered_data, query_vector)
        assert np.all(lb <= ed + 1e-9)

    def test_noisy_knn_still_exact(self, noise, clustered_data, query_vector):
        from repro.mining.knn import StandardKNN, StandardPIMKNN

        ref = StandardKNN().fit(clustered_data).query(query_vector, 10)
        algo = StandardPIMKNN(controller=PIMController(noise=noise))
        res = algo.fit(clustered_data).query(query_vector, 10)
        assert np.allclose(np.sort(res.scores), np.sort(ref.scores))

    def test_noise_costs_tightness_not_correctness(
        self, clustered_data, query_vector
    ):
        from repro.bounds.pim import PIMEuclideanBound

        clean = PIMEuclideanBound(PIMController())
        clean.prepare(clustered_data)
        noisy = PIMEuclideanBound(
            PIMController(noise=NoiseModel(cell_sigma=0.05, seed=1))
        )
        noisy.prepare(clustered_data)
        assert noisy.evaluate(query_vector).mean() <= clean.evaluate(
            query_vector
        ).mean() + 1e-9
