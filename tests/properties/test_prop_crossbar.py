"""Property-based tests: crossbar arithmetic is bit-exact.

The analog pipeline (bit-slicing, DAC waves, shift-and-add) must equal
NumPy integer dot products for *every* geometry and operand width — the
foundation the whole simulator's correctness rests on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import bitslice
from repro.hardware.config import CrossbarConfig
from repro.hardware.crossbar import Crossbar


@st.composite
def crossbar_cases(draw):
    """A random small crossbar with compatible operands and query.

    The query may be narrower than the operands (``input_bits``), which
    shortens the DAC wave train.
    """
    rows = draw(st.integers(min_value=1, max_value=12))
    cell_bits = draw(st.integers(min_value=1, max_value=4))
    dac_bits = draw(st.integers(min_value=1, max_value=4))
    operand_bits = draw(st.integers(min_value=1, max_value=12))
    input_bits = draw(st.integers(min_value=1, max_value=operand_bits))
    slices = -(-operand_bits // cell_bits)
    cols = draw(st.integers(min_value=slices, max_value=4 * slices))
    n_vectors = draw(st.integers(min_value=1, max_value=cols // slices))
    dims = draw(st.integers(min_value=1, max_value=rows))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 2**operand_bits, size=(n_vectors, dims))
    query = rng.integers(0, 2**input_bits, size=dims)
    config = CrossbarConfig(
        rows=rows, cols=cols, cell_bits=cell_bits, dac_bits=dac_bits
    )
    return config, matrix, query, operand_bits, input_bits


class TestCrossbarExactness:
    @given(crossbar_cases())
    @settings(max_examples=60, deadline=None)
    def test_dot_product_matches_numpy(self, case):
        config, matrix, query, bits, input_bits = case
        xbar = Crossbar(config)
        xbar.program(matrix, operand_bits=bits)
        result = xbar.dot_product(query, input_bits=input_bits)
        assert np.array_equal(result.values, matrix @ query)
        # one read cycle per DAC input slice; every cycle converts each
        # used column (vectors x operand slices) once
        cycles = -(-input_bits // config.dac_bits)
        used_cols = matrix.shape[0] * -(-bits // config.cell_bits)
        assert result.cycles == cycles
        assert result.adc_conversions == cycles * used_cols

    @given(crossbar_cases())
    @settings(max_examples=40, deadline=None)
    def test_programming_is_lossless(self, case):
        config, matrix, _, bits, _ = case
        xbar = Crossbar(config)
        xbar.program(matrix, operand_bits=bits)
        assert np.array_equal(xbar.stored_matrix(), matrix)


class TestBitsliceProperties:
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_slice_reconstruct_round_trip(self, operand_bits, slice_bits, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2**operand_bits, size=17)
        slices = bitslice.slice_operands(values, operand_bits, slice_bits)
        assert np.array_equal(
            bitslice.reconstruct(slices, slice_bits), values
        )

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_sliced_dot_product_identity(self, bits, h, g, seed):
        rng = np.random.default_rng(seed)
        p = rng.integers(0, 2**bits, size=9)
        q = rng.integers(0, 2**bits, size=9)
        p_s = bitslice.slice_operands(p, bits, h)
        q_s = bitslice.slice_operands(q, bits, g)
        n_p, n_q = p_s.shape[-1], q_s.shape[-1]
        partials = np.array(
            [
                [
                    int(p_s[:, j].astype(np.int64) @ q_s[:, k])
                    for k in range(n_q)
                ]
                for j in range(n_p)
            ]
        )
        assert int(bitslice.shift_add_partials(partials, h, g)) == int(p @ q)
