import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ndnet.ndmath import sigmoid, softplus

from conftest import central_diff


class TestSoftplus:
    def test_zero_is_log_two(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_large_positive_asymptote(self):
        # softplus(x) = x + softplus(-x), and softplus(-50) ~ e^-50
        assert abs(softplus(50.0) - 50.0) < 1e-12
        assert softplus(50.0) >= 50.0

    def test_large_negative_small_argument_expansion(self):
        assert softplus(-50.0) == pytest.approx(math.exp(-50.0), rel=1e-10)

    def test_no_overflow_across_float64_range(self):
        x = np.array([-1e308, -750.0, 0.0, 750.0, 1e308])
        out = softplus(x)
        assert np.isfinite(out).all()
        assert (out >= 0).all()
        # strictly positive wherever e^x is representable at all
        assert (softplus(np.array([-745.0, -100.0, 100.0])) > 0).all()

    @given(st.floats(min_value=-700, max_value=30))
    def test_dominates_relu(self, x):
        # strict domination; above x ~ 34 the e^-x excess drops below one
        # ulp of x, so the strict property is only resolvable down here
        assert softplus(x) > max(0.0, x)

    @given(st.floats(min_value=30, max_value=700))
    def test_dominates_relu_saturated(self, x):
        assert softplus(x) >= x

    def test_derivative_matches_sigmoid(self, rng):
        xs = np.concatenate([rng.uniform(-30, 30, 50), [0.0, -5.0, 5.0]])
        for x in xs:
            fd = central_diff(lambda t: float(softplus(t)), x, h=1e-6)
            assert fd == pytest.approx(float(sigmoid(x)), rel=1e-6, abs=1e-9)

    def test_array_broadcast(self):
        out = softplus(np.array([[0.0, 1.0], [-1.0, 2.0]]))
        assert out.shape == (2, 2)


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation(self):
        assert abs(sigmoid(40.0) - (1.0 - math.exp(-40.0))) < 1e-15

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_complement_identity(self, x):
        assert float(sigmoid(x)) + float(sigmoid(-x)) == pytest.approx(
            1.0, abs=2.3e-16)

    def test_strictly_increasing(self, rng):
        # |x| <= 30 keeps adjacent values more than one ulp of 1.0 apart
        xs = np.sort(rng.uniform(-30, 30, 200))
        out = sigmoid(xs)
        assert (np.diff(out) > 0).all()

    @staticmethod
    def where_form(x):
        """The branch form sigmoid once had: the reference for its bits."""
        x = np.asarray(x, dtype=np.float64)
        t = np.exp(-np.abs(x))
        d = 1.0 + t
        return np.where(x >= 0, 1.0 / d, t / d)

    def test_bits_match_the_where_form(self, rng):
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300,
                 709.0, -709.0, 745.0, -745.0, 746.0, -746.0, 1e308, -1e308,
                 math.inf, -math.inf, math.nan]
        draws = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64)
        x = np.concatenate([edges, rng.uniform(-50, 50, 100_000),
                            rng.uniform(-800, 800, 100_000), draws])
        got, want = sigmoid(x), self.where_form(x)
        assert np.array_equal(np.isnan(got), np.isnan(x))
        keep = ~np.isnan(x)
        assert got[keep].tobytes() == want[keep].tobytes()

    @pytest.mark.parametrize("x", [0.0, -3, np.float64(2.5), np.array(-1.0)])
    def test_scalar_gives_a_scalar(self, x):
        got = sigmoid(x)
        assert got.shape == () and got.dtype == np.float64
        assert got.tobytes() == self.where_form(x).tobytes()

    def test_range_and_finiteness(self):
        out = sigmoid(np.array([-1e308, 0.0, 1e308]))
        assert np.isfinite(out).all()
        assert (out >= 0).all() and (out <= 1).all()
