import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ndnet.ndlayer import (
    NdParams,
    PairIndexer,
    _gate,
    _gate_backward,
    nd_backward,
    nd_backward_signed,
    nd_backward_softplus,
    nd_forward,
    nd_forward_signed,
    nd_forward_softplus,
    pair_count,
    _pair_indexer,
)
from ndnet.ndmath import sigmoid, softplus
from ndnet.network import build_model

LN2 = math.log(2.0)


def enumerate_pairs(n):
    """Independent oracle: explicit lexicographic enumeration."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def max_rel_err(analytic, numeric, floor=1e-5):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / scale))


def fd_gradients(forward, bands, params, eps, delta, h=1e-6):
    """Finite-difference oracle for d(delta . N)/d{alpha, beta, bands}."""

    def objective():
        out, _ = forward(bands, params, eps)
        return float(np.dot(delta, out))

    grads = []
    for array in (params.alpha, params.beta, bands):
        g = np.zeros_like(array)
        for k in range(array.size):
            orig = array.flat[k]
            array.flat[k] = orig + h
            f_plus = objective()
            array.flat[k] = orig - h
            f_minus = objective()
            array.flat[k] = orig
            g.flat[k] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads


class TestPairIndexing:
    @pytest.mark.parametrize("n", range(2, 16))
    def test_pair_count_formula(self, n):
        assert pair_count(n) == len(enumerate_pairs(n)) == n * (n - 1) // 2

    def test_indexer_orders_lexicographically(self):
        idx = PairIndexer(5)
        assert idx.pairs == enumerate_pairs(5)
        assert idx.n_pairs == 10

    def test_incidence_matrices_mark_each_pair_bands(self):
        idx = PairIndexer(5)
        for p, (i, j) in enumerate(enumerate_pairs(5)):
            assert idx.inc_i[p].tolist() == [float(k == i) for k in range(5)]
            assert idx.inc_j[p].tolist() == [float(k == j) for k in range(5)]

    def test_shared_indexer_is_read_only(self):
        idx = _pair_indexer(6)
        assert _pair_indexer(6) is idx
        for array in (idx.i_idx, idx.j_idx, idx.inc_i, idx.inc_j):
            with pytest.raises(ValueError):
                array[0] = 1
        assert idx.pairs == enumerate_pairs(6)


def scatter_oracle(variant, bands, params, delta, eps):
    """Input gradient summed pair by pair with np.add.at, from the formulas."""
    batch = np.atleast_2d(bands)
    raw = batch
    if variant == "softplus":
        batch = softplus(raw)
    idx = PairIndexer(batch.shape[1])
    sa, sb = softplus(params.alpha), softplus(params.beta)
    b_i, b_j = batch[:, idx.i_idx], batch[:, idx.j_idx]
    d = np.atleast_2d(delta)
    if variant == "signed":
        m_i, m_j = np.sqrt(b_i ** 2 + eps), np.sqrt(b_j ** 2 + eps)
        B = sa * m_i + sb * m_j + eps
        A = sa * b_i - sb * b_j
        t_i = d * sa * (B - A * b_i / m_i) / B ** 2
        t_j = -d * sb * (B + A * b_j / m_j) / B ** 2
    else:
        B = sa * b_i + sb * b_j + eps
        t_i = d * sa * (2 * sb * b_j + eps) / B ** 2
        t_j = -d * sb * (2 * sa * b_i + eps) / B ** 2
    acc = np.zeros((batch.shape[1], batch.shape[0]))
    np.add.at(acc, idx.i_idx, t_i.T)
    np.add.at(acc, idx.j_idx, t_j.T)
    out = acc.T
    if variant == "softplus":
        out = out * sigmoid(raw)
    return out[0] if np.ndim(bands) == 1 else out


class TestIncidenceScatter:
    VARIANTS = {
        "plain": (nd_forward, nd_backward),
        "signed": (nd_forward_signed, nd_backward_signed),
        "softplus": (nd_forward_softplus, nd_backward_softplus),
    }

    @pytest.mark.parametrize("variant", ["plain", "signed", "softplus"])
    @pytest.mark.parametrize("n_bands", [2, 10, 32])
    @pytest.mark.parametrize("batch", [None, 32, 2000])
    def test_input_gradient_matches_add_at_oracle(self, variant, n_bands,
                                                  batch, rng):
        shape = (n_bands,) if batch is None else (batch, n_bands)
        low = 0.01 if variant == "plain" else -1.0
        bands = rng.uniform(low, 1.0, size=shape)
        n_pairs = pair_count(n_bands)
        params = NdParams(rng.uniform(-2, 2, n_pairs), rng.uniform(-2, 2, n_pairs))
        delta = rng.uniform(-1, 1, size=shape[:-1] + (n_pairs,))
        forward, backward = self.VARIANTS[variant]
        _, cache = forward(bands, params, 1e-8)
        got = backward(cache, delta, params, 1e-8).d_input
        oracle = scatter_oracle(variant, bands, params, delta, 1e-8)
        assert got.shape == bands.shape
        assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()


class TestNdForward:
    def test_hand_evaluated_single_pair(self):
        # alpha = beta = 0 gives softplus weights ln2 on both sides;
        # direct evaluation: ln2*(0.5-0.1) / (ln2*(0.5+0.1) + 1e-12)
        expected = LN2 * 0.4 / (LN2 * 0.6 + 1e-12)
        out, _ = nd_forward([0.5, 0.1], NdParams.zeros(1), eps=1e-12)
        assert out[0] == pytest.approx(expected, abs=1e-15)
        assert out[0] == pytest.approx(0.6666667, abs=1e-7)

    @pytest.mark.parametrize("value", [-1.5, 0.0, 2.0])
    def test_equal_bands_equal_params_vanish(self, value, rng):
        for b in (0.01, 0.3, 1.0):
            params = NdParams(np.array([value]), np.array([value]))
            out, _ = nd_forward([b, b], params, eps=1e-12)
            assert abs(out[0]) < 1e-9

    @pytest.mark.parametrize("k", [0.5, 2.0, 7.0, 10.0])
    def test_scaling_invariance(self, k, rng):
        bands = rng.uniform(0.01, 1.0, size=8)
        params = NdParams(rng.uniform(-2, 2, size=28), rng.uniform(-2, 2, size=28))
        base, _ = nd_forward(bands, params, eps=1e-12)
        scaled, _ = nd_forward(k * bands, params, eps=1e-12)
        assert np.max(np.abs(scaled - base)) < 1e-6

    def test_classical_index_reduction(self, rng):
        # equal coefficients on a pair reduce to (b_i - b_j) / (b_i + b_j)
        bands = rng.uniform(0.01, 1.0, size=6)
        idx = PairIndexer(6)
        for shared in (-1.0, 0.0, 1.7):
            params = NdParams(np.full(15, shared), np.full(15, shared))
            out, _ = nd_forward(bands, params, eps=1e-12)
            b_i, b_j = bands[idx.i_idx], bands[idx.j_idx]
            classical = (b_i - b_j) / (b_i + b_j)
            assert np.max(np.abs(out - classical)) < 1e-9

    def test_bounded_on_hundred_thousand_samples(self, rng):
        bands = rng.uniform(0.0, 1.0, size=(100_000, 5))
        params = NdParams(rng.uniform(-3, 3, size=10), rng.uniform(-3, 3, size=10))
        out, _ = nd_forward(bands, params, eps=1e-8)
        assert out.shape == (100_000, 10)
        assert (out >= -1.0).all() and (out <= 1.0).all()

    def test_antisymmetry_under_role_swap(self, rng):
        for _ in range(50):
            b = rng.uniform(0.01, 1.0, size=2)
            a, bt = rng.uniform(-2, 2, size=2)
            fwd, _ = nd_forward(b, NdParams([a], [bt]), eps=1e-12)
            rev, _ = nd_forward(b[::-1].copy(), NdParams([bt], [a]), eps=1e-12)
            assert rev[0] == pytest.approx(-fwd[0], abs=1e-9)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError, match="signed"):
            nd_forward([-0.1, 0.5], NdParams.zeros(1))

    def test_nan_input_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            nd_forward([np.nan, 0.5], NdParams.zeros(1))

    @pytest.mark.parametrize("forward", [nd_forward, nd_forward_signed])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_input_rejected(self, forward, value):
        # unchecked, an infinite band comes out as NaN outputs
        with pytest.raises(ValueError, match="non-finite"):
            forward([value, 0.5], NdParams.zeros(1))

    def test_cache_matches_definitions(self, rng):
        bands = rng.uniform(0.01, 1.0, size=4)
        params = NdParams(rng.uniform(-2, 2, 6), rng.uniform(-2, 2, 6))
        eps = 1e-8
        _, cache = nd_forward(bands, params, eps)
        idx = cache.indexer
        assert np.array_equal(cache.sigma_alpha, softplus(params.alpha))
        assert np.array_equal(cache.b_i[0], bands[idx.i_idx])
        np.testing.assert_allclose(
            cache.denom[0],
            cache.sigma_alpha * cache.b_i[0] + cache.sigma_beta * cache.b_j[0] + eps,
            rtol=0, atol=0)

    def test_proof_identities(self, rng):
        # the backward simplification rests on B - A = 2*sb*b_j + eps
        # and B + A = 2*sa*b_i + eps
        for _ in range(100):
            bands = rng.uniform(0.01, 1.0, size=3)
            params = NdParams(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
            eps = 1e-8
            _, cache = nd_forward(bands, params, eps)
            A = cache.sigma_alpha * cache.b_i - cache.sigma_beta * cache.b_j
            B = cache.denom
            assert np.max(np.abs((B - A) - (2 * cache.sigma_beta * cache.b_j + eps))) < 1e-12
            assert np.max(np.abs((B + A) - (2 * cache.sigma_alpha * cache.b_i + eps))) < 1e-12


class TestNdBackward:
    def test_zero_upstream_zero_gradients(self, rng):
        bands = rng.uniform(0.01, 1, size=5)
        params = NdParams(rng.uniform(-2, 2, 10), rng.uniform(-2, 2, 10))
        _, cache = nd_forward(bands, params)
        g = nd_backward(cache, np.zeros(10), params)
        assert not g.d_alpha.any() and not g.d_beta.any() and not g.d_input.any()

    def test_single_pair_alpha_matches_finite_difference(self):
        eps = 1e-8
        params = NdParams(np.array([0.0]), np.array([0.0]))
        bands = np.array([0.5, 0.1])
        _, cache = nd_forward(bands, params, eps)
        g = nd_backward(cache, np.array([1.0]), params, eps)

        h = 1e-6
        def n_of_alpha(a):
            out, _ = nd_forward(bands, NdParams([a], [0.0]), eps)
            return out[0]
        fd = (n_of_alpha(h) - n_of_alpha(-h)) / (2 * h)
        assert g.d_alpha[0] == pytest.approx(fd, rel=1e-6)

    def test_random_trials_match_finite_differences(self, rng):
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(2, 6))
            idx = PairIndexer(n)
            bands = rng.uniform(0.01, 1.0, size=n)
            params = NdParams(rng.uniform(-2, 2, idx.n_pairs),
                              rng.uniform(-2, 2, idx.n_pairs))
            delta = rng.uniform(-1, 1, size=idx.n_pairs)
            _, cache = nd_forward(bands, params)
            g = nd_backward(cache, delta, params)
            fd_a, fd_b, fd_x = fd_gradients(nd_forward, bands, params, 1e-8, delta)
            worst = max(worst,
                        max_rel_err(g.d_alpha, fd_a),
                        max_rel_err(g.d_beta, fd_b),
                        max_rel_err(g.d_input, fd_x))
        assert worst < 1e-5

    def test_matches_direct_formula_evaluation(self, rng):
        # the backward must be the closed-form expressions verbatim
        for _ in range(50):
            bands = rng.uniform(0.01, 1.0, size=4)
            idx = PairIndexer(4)
            params = NdParams(rng.uniform(-2, 2, 6), rng.uniform(-2, 2, 6))
            delta = rng.uniform(-1, 1, size=6)
            eps = 1e-8
            _, cache = nd_forward(bands, params, eps)
            g = nd_backward(cache, delta, params, eps)

            sa, sb = softplus(params.alpha), softplus(params.beta)
            b_i, b_j = bands[idx.i_idx], bands[idx.j_idx]
            B = sa * b_i + sb * b_j + eps
            d_alpha = delta * sigmoid(params.alpha) * b_i * (2 * sb * b_j + eps) / B ** 2
            d_beta = -delta * sigmoid(params.beta) * b_j * (2 * sa * b_i + eps) / B ** 2
            d_input = np.zeros(4)
            for p, (i, j) in enumerate(idx.pairs):
                d_input[i] += delta[p] * sa[p] * (2 * sb[p] * b_j[p] + eps) / B[p] ** 2
                d_input[j] += -delta[p] * sb[p] * (2 * sa[p] * b_i[p] + eps) / B[p] ** 2
            assert max_rel_err(g.d_alpha, d_alpha, floor=1e-300) < 1e-14
            assert max_rel_err(g.d_beta, d_beta, floor=1e-300) < 1e-14
            assert max_rel_err(g.d_input, d_input, floor=1e-12) < 1e-13

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than float64 here")
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 40),
           n_bands=st.integers(2, 12), eps=st.sampled_from([1e-12, 1e-8, 1e-3]),
           signed=st.booleans())
    def test_coefficient_gradients_within_summation_bound(self, seed, rows,
                                                          n_bands, eps, signed):
        # The three batch sums add terms that are all products (S_x adds
        # two per element, R*b_i*m_j and R*m_i*b_j), so each coefficient
        # gradient stays within (rows + 16) ulps of the sum of the
        # magnitudes of its quotient-rule terms, each product counted
        # apart: about 12 roundings per term (B, B^2, the quotient, two
        # products), rows - 1 in the batch sum and 3 after it. Zero bands
        # and bands of +-1e-5 are where a cancelling form such as 1 - N or
        # b_i*B - A*m(b_i) would lose its relative accuracy.
        rng = np.random.default_rng(seed)
        low = -1.0 if signed else 0.0
        bands = rng.uniform(low, 1.0, size=(rows, n_bands))
        pick = rng.uniform(size=bands.shape)
        bands[pick < 0.2] = 0.0
        tiny = (pick >= 0.2) & (pick < 0.4)
        bands[tiny] = 1e-5 * np.sign(bands[tiny])
        n_pairs = pair_count(n_bands)
        params = NdParams(rng.uniform(-4, 4, n_pairs), rng.uniform(-4, 4, n_pairs))
        forward, backward = ((nd_forward_signed, nd_backward_signed) if signed
                             else (nd_forward, nd_backward))
        _, cache = forward(bands, params, eps)
        delta = rng.uniform(-1.0, 1.0, size=(rows, n_pairs))
        g = backward(cache, delta, params, eps)

        def wide(x):
            return np.asarray(x, dtype=np.longdouble)

        sa, sb = wide(softplus(params.alpha)), wide(softplus(params.beta))
        idx, eps_w = cache.indexer, wide(eps)
        b_i, b_j = wide(bands[:, idx.i_idx]), wide(bands[:, idx.j_idx])
        m_i, m_j = b_i, b_j
        if signed:
            m_i, m_j = np.sqrt(b_i ** 2 + eps_w), np.sqrt(b_j ** 2 + eps_w)
        R = wide(delta) / (sa * m_i + sb * m_j + eps_w) ** 2
        cross = b_i * m_j + m_i * b_j
        cross_abs = np.abs(b_i * m_j) + np.abs(m_i * b_j)
        r_a, r_b = R * wide(sigmoid(params.alpha)), R * wide(sigmoid(params.beta))
        terms = {  # (terms, their magnitudes)
            "alpha": (r_a * (sb * cross + eps_w * b_i),
                      np.abs(r_a) * (sb * cross_abs + eps_w * np.abs(b_i))),
            "beta": (-r_b * (sa * cross + eps_w * b_j),
                     np.abs(r_b) * (sa * cross_abs + eps_w * np.abs(b_j))),
        }
        bound = (rows + 16) * np.finfo(float).eps
        for got, (name, (t, size)) in zip((g.d_alpha, g.d_beta), terms.items()):
            err = np.abs(wide(got) - t.sum(axis=0))
            assert (err <= bound * size.sum(axis=0)).all(), name

    @pytest.mark.parametrize("variant", ["plain", "signed", "softplus"])
    @pytest.mark.parametrize("forward_bands, backward_bands", [(2, 10), (10, 2)])
    def test_backward_rejects_params_of_another_pair_count(
            self, variant, forward_bands, backward_bands, rng):
        # a 1-pair forward's cache once gave 45 d_alpha values for 45-pair
        # params, without an error
        forward, backward = TestIncidenceScatter.VARIANTS[variant]
        n_pairs = pair_count(forward_bands)
        _, cache = forward(rng.uniform(0.01, 1.0, forward_bands),
                           NdParams.zeros(n_pairs))
        other = NdParams.zeros(pair_count(backward_bands))
        with pytest.raises(ValueError, match=(
                f"params carry {other.n_pairs} pairs but the cached forward "
                f"has {n_pairs}")):
            backward(cache, np.ones(n_pairs), other)

    @pytest.mark.parametrize("variant", ["plain", "signed", "softplus"])
    @pytest.mark.parametrize("forward_eps, backward_eps", [(1e-8, 0.5), (0.5, 1e-8)])
    def test_backward_rejects_another_eps(self, variant, forward_eps,
                                          backward_eps, rng):
        # the backward once took its eps from the caller, so another eps than
        # the forward's silently gave other gradients
        forward, backward = TestIncidenceScatter.VARIANTS[variant]
        params = NdParams(rng.uniform(-2, 2, 6), rng.uniform(-2, 2, 6))
        _, cache = forward(rng.uniform(0.01, 1.0, 4), params, forward_eps)
        with pytest.raises(ValueError, match=re.escape(
                f"eps {backward_eps!r} differs from the cached forward's eps "
                f"{forward_eps!r}")):
            backward(cache, np.ones(6), params, backward_eps)

    def test_gradient_sign_structure(self, rng):
        # positive bands, positive upstream: alpha pushes up, beta down
        for _ in range(50):
            bands = rng.uniform(0.01, 1.0, size=4)
            params = NdParams(rng.uniform(-2, 2, 6), rng.uniform(-2, 2, 6))
            _, cache = nd_forward(bands, params)
            g = nd_backward(cache, np.full(6, 0.5), params)
            assert (g.d_alpha > 0).all()
            assert (g.d_beta < 0).all()

    def test_input_accumulates_all_containing_pairs(self, rng):
        # band k appears in exactly n-1 pairs; removing one pair's upstream
        # must remove exactly that pair's contribution
        n = 5
        idx = PairIndexer(n)
        bands = rng.uniform(0.01, 1.0, size=n)
        params = NdParams(rng.uniform(-2, 2, idx.n_pairs),
                          rng.uniform(-2, 2, idx.n_pairs))
        delta = rng.uniform(0.5, 1.0, size=idx.n_pairs)
        _, cache = nd_forward(bands, params)
        total = nd_backward(cache, delta, params).d_input
        acc = np.zeros(n)
        for p in range(idx.n_pairs):
            only = np.zeros(idx.n_pairs)
            only[p] = delta[p]
            acc += nd_backward(cache, only, params).d_input
        np.testing.assert_allclose(total, acc, rtol=1e-12)

    def test_batch_sums_parameter_gradients(self, rng):
        bands = rng.uniform(0.01, 1.0, size=(8, 4))
        params = NdParams(rng.uniform(-2, 2, 6), rng.uniform(-2, 2, 6))
        delta = rng.uniform(-1, 1, size=(8, 6))
        _, cache = nd_forward(bands, params)
        g = nd_backward(cache, delta, params)
        per_sample = np.zeros_like(g.d_alpha)
        for row in range(8):
            _, c = nd_forward(bands[row], params)
            per_sample += nd_backward(c, delta[row], params).d_alpha
        np.testing.assert_allclose(g.d_alpha, per_sample, rtol=1e-12)
        assert g.d_input.shape == bands.shape

    def test_upstream_shape_mismatch_raises(self, rng):
        bands = rng.uniform(0.01, 1, size=4)
        params = NdParams.zeros(6)
        _, cache = nd_forward(bands, params)
        with pytest.raises(ValueError, match="upstream"):
            nd_backward(cache, np.zeros(5), params)


class TestSignedVariant:
    def test_matches_unsigned_on_nonnegative_bands(self, rng):
        bands = rng.uniform(0.01, 1.0, size=6)
        params = NdParams(rng.uniform(-2, 2, 15), rng.uniform(-2, 2, 15))
        plain, _ = nd_forward(bands, params, eps=1e-12)
        signed, _ = nd_forward_signed(bands, params, eps=1e-12)
        assert np.max(np.abs(plain - signed)) < 1e-6

    def test_opposite_bands_keep_sign_and_bound(self, rng):
        for b in (0.3, 1.0, -0.7):
            params = NdParams(np.array([0.4]), np.array([0.4]))
            out, _ = nd_forward_signed([b, -b], params)
            if b != 0:
                assert np.sign(out[0]) == np.sign(b)
            assert abs(out[0]) <= 1.0

    def test_zero_bands_zero_output(self):
        out, _ = nd_forward_signed([0.0, 0.0], NdParams.zeros(1))
        assert out[0] == 0.0

    def test_bounded_for_any_sign(self, rng):
        bands = rng.uniform(-1, 1, size=(10_000, 4))
        params = NdParams(rng.uniform(-3, 3, 6), rng.uniform(-3, 3, 6))
        out, _ = nd_forward_signed(bands, params)
        assert (np.abs(out) <= 1.0).all()

    def test_zero_upstream_zero_gradients(self, rng):
        bands = rng.uniform(-1, 1, size=5)
        params = NdParams.zeros(10)
        _, cache = nd_forward_signed(bands, params)
        g = nd_backward_signed(cache, np.zeros(10), params)
        assert not g.d_alpha.any() and not g.d_input.any()

    def test_random_signed_trials_match_finite_differences(self, rng):
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(2, 6))
            idx = PairIndexer(n)
            bands = rng.uniform(-1.0, 1.0, size=n)
            # keep clear of the smooth-|b| curvature ridge around zero,
            # where the third derivative peaks at ~0.7/eps and central
            # differences are themselves invalid
            small = np.abs(bands) < 5e-3
            bands[small] = np.where(bands[small] >= 0, 5e-3, -5e-3)
            params = NdParams(rng.uniform(-2, 2, idx.n_pairs),
                              rng.uniform(-2, 2, idx.n_pairs))
            delta = rng.uniform(-1, 1, size=idx.n_pairs)
            _, cache = nd_forward_signed(bands, params)
            g = nd_backward_signed(cache, delta, params)
            # step 1e-5: saturated configurations have O(eps) true gradients,
            # and a smaller step pushes FD roundoff above the 1e-5 bound
            fd_a, fd_b, fd_x = fd_gradients(nd_forward_signed, bands, params,
                                            1e-8, delta, h=1e-5)
            worst = max(worst,
                        max_rel_err(g.d_alpha, fd_a),
                        max_rel_err(g.d_beta, fd_b),
                        max_rel_err(g.d_input, fd_x))
        assert worst < 1e-5

    def test_gradients_match_unsigned_for_nonnegative_bands(self, rng):
        for _ in range(50):
            bands = rng.uniform(0.05, 1.0, size=4)
            params = NdParams(rng.uniform(-2, 2, 6), rng.uniform(-2, 2, 6))
            delta = rng.uniform(-1, 1, size=6)
            _, c1 = nd_forward(bands, params, eps=1e-12)
            _, c2 = nd_forward_signed(bands, params, eps=1e-12)
            g1 = nd_backward(c1, delta, params, eps=1e-12)
            g2 = nd_backward_signed(c2, delta, params, eps=1e-12)
            assert max_rel_err(g1.d_alpha, g2.d_alpha) < 1e-5
            assert max_rel_err(g1.d_input, g2.d_input) < 1e-5


class TestSoftplusVariant:
    def test_zero_bands_symmetric(self):
        # softplus maps both zeros to ln 2, a symmetric numerator
        params = NdParams(np.array([0.7]), np.array([0.7]))
        out, _ = nd_forward_softplus([0.0, 0.0], params, eps=1e-12)
        assert abs(out[0]) < 1e-12

    def test_backward_rejects_a_cache_without_raw_inputs(self):
        params = NdParams.zeros(1)
        _, cache = nd_forward([0.5, 0.1], params)
        with pytest.raises(ValueError, match="nd_forward_softplus"):
            nd_backward_softplus(cache, np.ones(1), params)

    def test_hand_evaluated_opposite_inputs(self):
        # direct evaluation with transformed inputs softplus(+-3)
        sp3 = math.log1p(math.exp(3.0))
        spm3 = math.log1p(math.exp(-3.0))
        expected = (sp3 - spm3) / (sp3 + spm3)
        out, _ = nd_forward_softplus([3.0, -3.0], NdParams.zeros(1), eps=1e-12)
        assert out[0] == pytest.approx(expected, abs=1e-12)
        assert out[0] == pytest.approx(0.9686, abs=1e-3)

    def test_outputs_strictly_inside_unit_interval(self, rng):
        bands = rng.uniform(-5, 5, size=(1000, 4))
        params = NdParams(rng.uniform(-3, 3, 6), rng.uniform(-3, 3, 6))
        out, _ = nd_forward_softplus(bands, params)
        assert (np.abs(out) < 1.0).all()

    def test_random_trials_match_finite_differences(self, rng):
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(2, 6))
            idx = PairIndexer(n)
            bands = rng.uniform(-1.0, 1.0, size=n)
            params = NdParams(rng.uniform(-2, 2, idx.n_pairs),
                              rng.uniform(-2, 2, idx.n_pairs))
            delta = rng.uniform(-1, 1, size=idx.n_pairs)
            _, cache = nd_forward_softplus(bands, params)
            g = nd_backward_softplus(cache, delta, params)
            fd_a, fd_b, fd_x = fd_gradients(nd_forward_softplus, bands, params,
                                            1e-8, delta)
            worst = max(worst,
                        max_rel_err(g.d_alpha, fd_a),
                        max_rel_err(g.d_beta, fd_b),
                        max_rel_err(g.d_input, fd_x))
        assert worst < 1e-5


def attention_gate(bands, weights, bias, nd_outputs):
    """The gate core on a batch or on one row; returns (gated, cache)."""
    single = np.ndim(bands) == 1
    gated, cache = _gate(np.atleast_2d(bands), weights, bias,
                         np.atleast_2d(nd_outputs))
    return (gated[0] if single else gated), cache


class TestAttentionGate:
    """The gate cores that the attnd model runs."""

    def test_zero_weights_halve_outputs(self, rng):
        bands = rng.uniform(0.01, 1, size=4)
        nd_out, _ = nd_forward(bands, NdParams.zeros(6))
        gated, _ = attention_gate(bands, np.zeros((6, 4)), np.zeros(6), nd_out)
        np.testing.assert_allclose(gated, 0.5 * nd_out, rtol=0, atol=0)

    def test_saturated_gate_is_identity(self, rng):
        bands = rng.uniform(0.01, 1, size=4)
        nd_out, _ = nd_forward(bands, NdParams.zeros(6))
        gated, _ = attention_gate(bands, np.zeros((6, 4)), np.full(6, 40.0),
                                  nd_out)
        assert np.max(np.abs(gated - nd_out)) < 1e-15

    def test_gated_outputs_stay_bounded(self, rng):
        bands = rng.uniform(0.01, 1, size=(500, 4))
        params = NdParams(rng.uniform(-3, 3, 6), rng.uniform(-3, 3, 6))
        nd_out, _ = nd_forward(bands, params)
        W = rng.normal(size=(6, 4))
        c = rng.normal(size=6)
        gated, _ = attention_gate(bands, W, c, nd_out)
        assert (np.abs(gated) <= 1.0).all()

    def test_dimension_mismatch_raises(self):
        # the gate core checks nothing; the attnd model checks its vector:
        # gate weights of (5, 4) or a bias of 5 leave it 4 or 1 values short
        model = build_model("attnd", 2, 4, seed=0)
        for short in (4, 1):
            with pytest.raises(ValueError, match="got a vector of shape"):
                dataclasses.replace(model, vector=model.vector[short:])

    def test_gradients_match_finite_differences(self, rng):
        # objective: delta . (sigmoid(W b + c) * N(b)); checks W, c, bands,
        # alpha and beta through the full composition
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 5))
            idx = PairIndexer(n)
            bands = rng.uniform(0.01, 1.0, size=n)
            params = NdParams(rng.uniform(-2, 2, idx.n_pairs),
                              rng.uniform(-2, 2, idx.n_pairs))
            W = rng.uniform(-1, 1, size=(idx.n_pairs, n))
            c = rng.uniform(-1, 1, size=idx.n_pairs)
            delta = rng.uniform(-1, 1, size=idx.n_pairs)

            def objective():
                nd_out, _ = nd_forward(bands, params)
                gated, _ = attention_gate(bands, W, c, nd_out)
                return float(np.dot(delta, gated))

            nd_out, nd_cache = nd_forward(bands, params)
            gated, gate_cache = attention_gate(bands, W, c, nd_out)
            d_weights, d_bias = np.empty(W.shape), np.empty(c.shape)
            d_nd, d_bands = _gate_backward(gate_cache, delta[None, :],
                                           d_weights, d_bias)
            ndg = nd_backward(nd_cache, d_nd[0], params)
            analytic = {
                "W": d_weights, "c": d_bias,
                "alpha": ndg.d_alpha, "beta": ndg.d_beta,
                "bands": d_bands[0] + ndg.d_input,
            }
            arrays = {"W": W, "c": c, "alpha": params.alpha,
                      "beta": params.beta, "bands": bands}
            h = 1e-6
            for key, array in arrays.items():
                fd = np.zeros_like(array)
                for k in range(array.size):
                    orig = array.flat[k]
                    array.flat[k] = orig + h
                    f_plus = objective()
                    array.flat[k] = orig - h
                    f_minus = objective()
                    array.flat[k] = orig
                    fd.flat[k] = (f_plus - f_minus) / (2 * h)
                worst = max(worst, max_rel_err(analytic[key], fd))
        assert worst < 1e-5


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=8),
       st.floats(min_value=-5, max_value=5),
       st.floats(min_value=-5, max_value=5))
def test_boundedness_property(bands, a, b):
    n = len(bands)
    p = pair_count(n)
    params = NdParams(np.full(p, a), np.full(p, b))
    out, _ = nd_forward(np.array(bands), params)
    assert (out >= -1.0).all() and (out <= 1.0).all()


class TestStackedLayers:
    """The signed variants let a second pairwise layer consume the first's
    outputs (which live in [-1, 1] and go negative)."""

    def test_two_layer_stack_forward_and_gradcheck(self, rng):
        n = 4
        idx1 = PairIndexer(n)           # 4 bands -> 6 pair features
        idx2 = PairIndexer(idx1.n_pairs)  # 6 features -> 15 pair features
        bands = rng.uniform(0.01, 1.0, size=n)
        p1 = NdParams(rng.uniform(-1, 1, idx1.n_pairs),
                      rng.uniform(-1, 1, idx1.n_pairs))
        p2 = NdParams(rng.uniform(-1, 1, idx2.n_pairs),
                      rng.uniform(-1, 1, idx2.n_pairs))
        delta = rng.uniform(-1, 1, size=idx2.n_pairs)

        def forward_stack():
            mid, c1 = nd_forward(bands, p1)
            out, c2 = nd_forward_signed(mid, p2)
            return out, (c1, c2)

        out, (c1, c2) = forward_stack()
        assert (np.abs(out) <= 1.0).all()

        g2 = nd_backward_signed(c2, delta, p2)
        g1 = nd_backward(c1, g2.d_input, p1)

        def objective():
            out, _ = forward_stack()
            return float(delta @ out)

        h = 1e-5
        worst = 0.0
        for array, analytic in ((p2.alpha, g2.d_alpha), (p1.alpha, g1.d_alpha),
                                (p1.beta, g1.d_beta), (bands, g1.d_input)):
            for k in range(array.size):
                orig = array.flat[k]
                array.flat[k] = orig + h
                fp = objective()
                array.flat[k] = orig - h
                fm = objective()
                array.flat[k] = orig
                numeric = (fp - fm) / (2 * h)
                a = float(np.asarray(analytic).flat[k])
                worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-5))
        assert worst < 1e-5

    def test_softplus_variant_also_stacks(self, rng):
        bands = rng.uniform(-1.0, 1.0, size=4)
        p1 = NdParams(rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6))
        p2 = NdParams(rng.uniform(-1, 1, 15), rng.uniform(-1, 1, 15))
        mid, _ = nd_forward_softplus(bands, p1)
        out, _ = nd_forward_softplus(mid, p2)
        assert (np.abs(out) < 1.0).all()
