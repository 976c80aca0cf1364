import copy
import dataclasses
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ndnet import ndlayer, ndmath, network as net
from ndnet.data import Dataset
from ndnet.ndlayer import NdParams, nd_forward, pair_count
from ndnet.network import (
    DIVERGENCE_LOSS,
    DenseLayer,
    Model,
    TrainConfig,
    TrainHistory,
    TrainingDiverged,
    accuracy_from_logits,
    adam_step,
    bce_with_logits,
    build_model,
    checkpoint_to_json,
    count_params,
    init_adam,
    load_checkpoint,
    model_backward,
    model_from_checkpoint_dict,
    model_forward,
    predict_labels,
    save_checkpoint,
    train,
)

LN2 = math.log(2.0)


def make_dataset(X, y, names=None):
    X = np.asarray(X, dtype=float)
    names = names or [f"band_{k}" for k in range(X.shape[1])]
    return Dataset(names, X, np.asarray(y))


def dense_forward(layer, x):
    """The dense forward core on a one-row batch; returns (row, cache)."""
    out, cache = net._dense_forward(layer, np.asarray(x, dtype=float)[None, :])
    return out[0], cache


def dense_backward(layer, cache, upstream):
    """(d_weights, d_bias, d_input row) from the dense backward core."""
    d_w, d_b = np.empty(layer.weights.shape), np.empty(layer.bias.shape)
    d_x = net._dense_backward(layer, cache, np.asarray(upstream)[None, :],
                              d_w, d_b)
    return d_w, d_b, d_x[0]


class TestDenseLayer:
    """The dense cores that model_forward, model_backward and train run."""

    def test_identity_passthrough(self):
        layer = DenseLayer(np.eye(3), np.zeros(3), "identity")
        out, _ = dense_forward(layer, [1.0, -2.0, 3.0])
        assert np.array_equal(out, [1.0, -2.0, 3.0])

    def test_relu_clips_negative_preactivations(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), "relu")
        out, _ = dense_forward(layer, [-1.0, 2.0])
        assert np.array_equal(out, [0.0, 2.0])

    def test_zero_upstream_zero_gradients(self, rng):
        layer = DenseLayer(rng.normal(size=(3, 4)), rng.normal(size=3), "relu")
        _, cache = dense_forward(layer, rng.normal(size=4))
        d_w, d_b, d_x = dense_backward(layer, cache, np.zeros(3))
        assert not d_w.any() and not d_b.any() and not d_x.any()

    def test_identity_bias_gradient_equals_upstream(self, rng):
        layer = DenseLayer(rng.normal(size=(3, 4)), rng.normal(size=3),
                           "identity")
        _, cache = dense_forward(layer, rng.normal(size=4))
        delta = rng.normal(size=3)
        _, d_b, _ = dense_backward(layer, cache, delta)
        assert np.array_equal(d_b, delta)

    def test_relu_derivative_at_zero_is_zero(self):
        layer = DenseLayer(np.eye(1), np.zeros(1), "relu")
        _, cache = dense_forward(layer, [0.0])
        d_w, d_b, d_x = dense_backward(layer, cache, np.ones(1))
        assert d_x[0] == 0.0 and d_b[0] == 0.0

    def test_full_layer_finite_difference(self, rng):
        layer = DenseLayer(rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, 5),
                           "relu")
        x = rng.uniform(-1, 1, 4)
        delta = rng.uniform(-1, 1, 5)
        # keep clear of the relu kink so central differences are valid
        pre = layer.weights @ x + layer.bias
        assert np.abs(pre).min() > 1e-3

        _, cache = dense_forward(layer, x)
        d_w, d_b, d_x = dense_backward(layer, cache, delta)

        def objective():
            out, _ = dense_forward(layer, x)
            return float(delta @ out)

        h = 1e-6
        worst = 0.0
        for array, analytic in ((layer.weights, d_w), (layer.bias, d_b),
                                (x, d_x)):
            for k in range(array.size):
                orig = array.flat[k]
                array.flat[k] = orig + h
                fp = objective()
                array.flat[k] = orig - h
                fm = objective()
                array.flat[k] = orig
                numeric = (fp - fm) / (2 * h)
                a = float(np.asarray(analytic).flat[k])
                worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-6))
        assert worst < 1e-6

    def test_shape_validation(self, rng):
        # a fan-in-3 first layer on 4 bands: 6 values short of the layout
        mlp = build_model("mlp", 2, 4, seed=0)
        with pytest.raises(ValueError, match=r"has 37 parameters, got a vector "
                                             r"of shape \(31,\)"):
            dataclasses.replace(mlp, vector=mlp.vector[6:])


def max_rel_err(analytic, numeric, floor=1e-5):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / scale))


def attention_gate(bands, weights, bias, nd_outputs):
    """The gate core on a batch or on one row; returns (gated, cache)."""
    single = np.ndim(bands) == 1
    gated, cache = net._gate(DenseLayer(weights, bias, "identity"),
                             np.atleast_2d(bands), np.atleast_2d(nd_outputs))
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
            idx = ndlayer.PairIndexer(n)
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
            d_nd, d_bands = net._gate_backward(
                DenseLayer(W, c, "identity"), gate_cache, delta[None, :],
                d_weights, d_bias)
            ndg = ndlayer.nd_backward(nd_cache, d_nd[0], params)
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


class TestBceWithLogits:
    def test_zero_logit_label_one(self):
        loss, grad = bce_with_logits(0.0, 1)
        assert loss == pytest.approx(LN2, abs=1e-15)
        assert grad == pytest.approx(-0.5, abs=1e-15)

    def test_saturated_logit(self):
        loss, grad = bce_with_logits(40.0, 1)
        assert loss == pytest.approx(math.exp(-40.0), rel=1e-10)
        assert abs(grad) < 1e-15

    def test_gradient_matches_finite_difference(self):
        h = 1e-6
        loss_p, _ = bce_with_logits(0.7 + h, 0)
        loss_m, _ = bce_with_logits(0.7 - h, 0)
        _, grad = bce_with_logits(0.7, 0)
        assert grad == pytest.approx((loss_p - loss_m) / (2 * h), abs=1e-8)

    def test_nonnegative_and_elementwise(self, rng):
        logits = rng.normal(size=100) * 5
        labels = rng.integers(0, 2, size=100)
        loss, grad = bce_with_logits(logits, labels)
        assert (loss >= 0).all()
        assert loss.shape == grad.shape == (100,)

    def test_gradient_within_ulps_of_sigmoid(self):
        # the gradient takes sigmoid from the loss's softplus, as
        # -expm1(-softplus); it stays within 4 ulps of ndmath.sigmoid, plus
        # the rounding of the label subtraction, scalars included
        x = np.concatenate([np.linspace(-40.0, 40.0, 80001),
                            np.random.default_rng(0).uniform(-40.0, 40.0, 80000)])
        sig = ndmath.sigmoid(x)
        for label in (0, 1):
            _, grad = bce_with_logits(x, np.full_like(x, label))
            want = sig - label
            assert (np.abs(grad - want)
                    <= 4 * np.spacing(sig) + np.spacing(np.abs(want))).all()
            for k in range(0, len(x), 4001):
                _, one = bce_with_logits(float(x[k]), label)
                assert np.ndim(one) == 0 and one == grad[k]


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        param = np.array([1.0, -2.0, 0.5])
        grad = np.zeros(3)
        state = init_adam(param)
        config = TrainConfig(weight_decay=0.0)
        before = param.copy()
        adam_step(param, grad, state, config)
        assert np.array_equal(param, before)

    def test_first_step_magnitude_is_learning_rate(self):
        # bias correction makes m_hat = g and v_hat = g^2 at t = 1
        for g in (0.001, 1.0, 250.0):
            param = np.array([0.0])
            state = init_adam(param)
            config = TrainConfig(learning_rate=0.01, weight_decay=0.0)
            adam_step(param, np.array([g]), state, config)
            expected = 0.01 * g / (math.sqrt(g * g) + 1e-8)
            assert param[0] == pytest.approx(-expected, rel=1e-12)
            assert abs(param[0]) == pytest.approx(0.01, rel=1e-5)

    def test_two_steps_match_hand_rolled_oracle(self):
        # independent two-iteration rollout of the update equations
        lr, b1, b2, eps_opt = 0.01, 0.9, 0.999, 1e-8
        m = v = 0.0
        theta = 0.0
        for t in (1, 2):
            g = 1.0
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            theta -= lr * m_hat / (math.sqrt(v_hat) + eps_opt)

        param = np.array([0.0])
        state = init_adam(param)
        config = TrainConfig(learning_rate=lr, weight_decay=0.0)
        for _ in range(2):
            adam_step(param, np.array([1.0]), state, config)
        assert param[0] == pytest.approx(theta, abs=1e-15)
        assert param[0] == pytest.approx(-0.02, abs=1e-6)

    def test_coupled_decay_adds_l2_pull(self):
        param = np.array([10.0])
        state = init_adam(param)
        config = TrainConfig(learning_rate=0.01, weight_decay=0.1)
        adam_step(param, np.array([0.0]), state, config)
        # decay alone: effective grad 0.1*10 = 1, first step is -lr
        assert param[0] == pytest.approx(10.0 - 0.01, rel=1e-6)

    def test_shape_mismatch_raises(self):
        param = np.zeros(2)
        state = init_adam(param)
        with pytest.raises(ValueError):
            adam_step(param, np.zeros(3), state, TrainConfig())


class TestBuildModel:
    # parameter-count table: (arch, depth) -> expected learnable scalars
    EXPECTED = {
        ("nd", 2): 136, ("nd", 3): 2206, ("nd", 4): 4276,
        ("mlp", 2): 541, ("mlp", 3): 2611, ("mlp", 4): 4681,
        ("attnd", 2): 631, ("attnd", 3): 2701, ("attnd", 4): 4771,
    }

    @pytest.mark.parametrize("arch,depth", sorted(EXPECTED))
    def test_param_counts_ten_bands(self, arch, depth):
        model = build_model(arch, depth, 10, seed=0)
        assert count_params(model) == self.EXPECTED[(arch, depth)]

    def test_nd_depth4_layer_arithmetic(self):
        # 2*45 coefficients + two 45x45+45 hidden layers + 45+1 head
        expected = 90 + (45 * 45 + 45) + (45 * 45 + 45) + (45 + 1)
        assert count_params(build_model("nd", 4, 10)) == expected == 4276

    def test_smallest_instance(self):
        # 2 bands: one pair (2 coefficients) + 1x1 head weight + bias
        model = build_model("nd", 2, 2)
        assert count_params(model) == 4

    def test_count_matches_parameter_list(self, rng):
        model = build_model("attnd", 3, 6, seed=9)
        assert count_params(model) == sum(p.size for p in model.parameters())

    def test_band_names_must_match_n_bands(self):
        with pytest.raises(ValueError, match="2 band names for 4 bands"):
            build_model("nd", 2, 4, band_names=["a", "b"])

    def test_unsupported_depth_raises(self):
        with pytest.raises(ValueError, match="depth"):
            build_model("nd", 5, 10)

    def test_unknown_arch_raises(self):
        with pytest.raises(ValueError, match="architecture"):
            build_model("cnn", 2, 10)

    def test_seeded_init_is_reproducible(self):
        a = build_model("mlp", 3, 10, seed=77)
        b = build_model("mlp", 3, 10, seed=77)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    def test_dense_init_within_fan_in_bound(self):
        model = build_model("mlp", 4, 10, seed=3)
        first = model.layers[0]
        bound = 1.0 / math.sqrt(10)
        assert np.abs(first.weights).max() <= bound
        assert not first.bias.any()

    def test_nd_coefficients_start_at_zero(self):
        model = build_model("nd", 2, 10, seed=3)
        assert not model.nd_params.alpha.any()
        assert not model.nd_params.beta.any()

    # -1 once ended in numpy's "expected non-negative integer", 2.5 and "3"
    # in SeedSequence TypeErrors, and True built as seed 1
    @pytest.mark.parametrize("seed", [-1, 2.5, "3", True])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        with pytest.raises(ValueError) as info:
            build_model("nd", 2, 4, seed=seed)
        assert str(info.value) == f"seed must be a nonnegative integer, got {seed!r}"


class TestModelForwardBackward:
    def test_mlp_zero_weights_gives_log_two_loss(self, rng):
        model = build_model("mlp", 3, 10, seed=0)
        for p in model.parameters():
            p[...] = 0.0
        logit, _ = model_forward(model, rng.uniform(0.1, 1, 10))
        assert logit == 0.0
        loss, _ = bce_with_logits(logit, 1)
        assert loss == pytest.approx(LN2, abs=1e-15)

    def test_saturated_attention_equals_plain_nd(self, rng):
        nd = build_model("nd", 3, 10, seed=5)
        # attnd's layout: nd's alpha|beta, the gate's weights and bias, then
        # nd's dense layers
        vector = np.concatenate([nd.vector[:90], np.zeros(45 * 10),
                                 np.full(45, 40.0), nd.vector[90:]])
        attnd = Model(arch="attnd", depth=3, band_names=nd.band_names,
                      eps=nd.eps, vector=vector)
        x = rng.uniform(0.01, 1.0, 10)
        logit_nd, _ = model_forward(nd, x)
        logit_att, _ = model_forward(attnd, x)
        assert logit_att == pytest.approx(logit_nd, abs=1e-12)

    def test_batched_forward_matches_per_sample(self, rng):
        model = build_model("attnd", 3, 6, seed=2)
        X = rng.uniform(0.01, 1.0, size=(7, 6))
        batched, _ = model_forward(model, X)
        singles = [model_forward(model, row)[0] for row in X]
        np.testing.assert_allclose(batched, singles, rtol=1e-13)

    def test_signed_routing_accepts_negatives(self, rng):
        model = build_model("nd", 2, 4, seed=1)
        x = np.array([0.5, -0.2, 0.3, 0.1])
        with pytest.raises(ValueError):
            model_forward(model, x)
        logit, _ = model_forward(model, x, signed=True)
        assert np.isfinite(logit)

    def test_band_count_validated(self, rng):
        model = build_model("nd", 2, 4, seed=1)
        with pytest.raises(ValueError, match="bands"):
            model_forward(model, np.ones(5))

    @pytest.mark.parametrize("arch", ["nd", "attnd", "mlp"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("signed", [False, True])
    def test_non_finite_bands_rejected(self, arch, value, signed, rng):
        # unchecked, each of these values comes out as a NaN logit
        model = build_model(arch, 2, 4, seed=1)
        X = rng.uniform(0.1, 1.0, size=(3, 4))
        X[1, 2] = value
        with pytest.raises(ValueError, match="contains non-finite values"):
            model_forward(model, X, signed=signed)

    @pytest.mark.parametrize("arch", ["nd", "mlp", "attnd"])
    def test_backward_matches_finite_differences(self, arch, rng):
        from ndnet.evaluation import gradcheck
        report = gradcheck(arch, depth=3, trials=5, tolerance=1e-4, seed=8,
                           max_coords=None)
        assert report.passed, report.max_errors


def without(arrays, prefix):
    return {name: a for name, a in arrays.items() if not name.startswith(prefix)}


class TestModelShapes:
    """A Model rejects a vector that does not fit its layout. Arrays shaped
    for another layout join into a vector of the wrong length."""

    # attnd depth 3 on 4 bands: 6 pairs, dense layers (6, 6) and (1, 6);
    # each case is the architecture label and a change to the named arrays
    CASES = {
        "short bias": ("attnd", lambda a: {**a, "attn.bias": np.zeros(1)}),
        "weights": ("attnd", lambda a: {**a, "attn.weights": np.zeros((6, 3))}),
        "no gate": ("attnd", lambda a: without(a, "attn.")),
        "nd pairs": ("attnd", lambda a: {**a, "nd.alpha": np.zeros(10),
                                         "nd.beta": np.zeros(10)}),
        "no nd": ("attnd", lambda a: without(a, "nd.")),
        "gate on nd": ("nd", lambda a: a),
        "fan-in": ("attnd", lambda a: {**a, "dense0.weights": np.ones((6, 5))}),
        "two-output head": ("attnd", lambda a: {
            **a, "dense1.weights": np.ones((2, 6)), "dense1.bias": np.zeros(2)}),
        "missing layer": ("attnd", lambda a: without(a, "dense1.")),
        "extra layer": ("attnd", lambda a: {**a, "dense2.weights": np.ones((6, 6)),
                                            "dense2.bias": np.zeros(6)}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_misshapen_arrays_rejected(self, case):
        model = build_model("attnd", 3, 4, seed=0)
        arch, change = self.CASES[case]
        arrays = change(dict(zip(model.parameter_names(), model.parameters())))
        vector = np.concatenate([a.ravel() for a in arrays.values()])
        with pytest.raises(ValueError, match="got a vector of shape"):
            dataclasses.replace(model, arch=arch, vector=vector)

    @pytest.mark.parametrize("arch,extra", [("mlp", 12), ("nd", 0)],
                             ids=["mlp", "nd"])
    def test_nd_params_follow_the_first_layer(self, arch, extra):
        # an mlp vector with alpha|beta in front, or an mlp vector labelled nd
        mlp = build_model("mlp", 2, 4, seed=0)
        vector = np.concatenate([np.zeros(extra), mlp.vector])
        with pytest.raises(ValueError, match="got a vector of shape"):
            dataclasses.replace(mlp, arch=arch, vector=vector)

    def test_hidden_identity_layer_rejected(self):
        # the layout gives every layer its activation: ReLU hidden layers
        # and an identity head; a checkpoint naming others does not load
        nd = build_model("nd", 3, 4, seed=0)
        assert [layer.activation for layer in nd.layers] == ["relu", "identity"]
        doc = json.loads(checkpoint_to_json(nd))
        doc["activations"] = ["identity", "identity"]
        with pytest.raises(ValueError, match="activations"):
            model_from_checkpoint_dict(doc)

    def test_depth_outside_depths_rejected(self):
        # four dense layers after the nd layer are depth 5's shapes
        nd = build_model("nd", 4, 4, seed=0)
        assert len(nd.layers) == 3
        hidden = nd.layers[0]
        vector = np.concatenate([nd.vector[:12], hidden.weights.ravel(),
                                 hidden.bias, nd.vector[12:]])
        with pytest.raises(ValueError, match="unsupported depth 5"):
            dataclasses.replace(nd, depth=5, vector=vector)

    @pytest.mark.parametrize("depth", [3.0, True])
    def test_depth_must_be_an_int(self, depth):
        with pytest.raises(ValueError, match="depth"):
            build_model("nd", depth, 4)
        with pytest.raises(ValueError, match="depth"):
            dataclasses.replace(build_model("nd", 3, 4), depth=depth)

    def test_boolean_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            build_model("nd", 2, 4, eps=True)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("arch", ["nd", "attnd", "mlp"])
    def test_non_finite_values_rejected_naming_the_first_array(self, arch,
                                                               value):
        model = build_model(arch, 3, 4, seed=0)
        names = model.parameter_names()
        ends = np.cumsum([p.size for p in model.parameters()])
        for k, name in enumerate(names):
            vector = model.vector.copy()
            vector[ends[k] - 1] = value  # the array's last value
            vector[-1] = value  # and the head bias, last of all
            with pytest.raises(ValueError, match=f"^parameter {name} is not finite$"):
                Model(arch, 3, model.band_names, model.eps, vector)

    def test_mlp_nan_and_attention_inf_rejected(self):
        names = [f"b{k}" for k in range(4)]
        mlp = build_model("mlp", 2, 4, band_names=names)
        vector = mlp.vector.copy()
        vector[0] = np.nan
        with pytest.raises(ValueError, match="dense0.weights is not finite"):
            Model("mlp", 2, names, 1e-8, vector)
        attnd = build_model("attnd", 2, 4)
        attnd.attn_weights[2, 1] = np.inf
        with pytest.raises(ValueError, match="attn.weights is not finite"):
            attnd.copy()

    def test_models_compare_by_identity(self):
        model = build_model("nd", 2, 4)
        assert (model == model.copy()) is False
        assert model == model
        assert model != model.copy()

    @pytest.mark.parametrize("arch", ["nd", "attnd", "mlp"])
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_rebuilt_models_are_accepted(self, arch, depth):
        model = build_model(arch, depth, 5, seed=1)
        assert np.array_equal(dataclasses.replace(model).vector, model.vector)


def separable_two_band_dataset(n, seed):
    """Class decided by which band dominates; gain scrambles raw values."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    hi = rng.uniform(0.6, 0.9, size=n)
    lo = rng.uniform(0.1, 0.35, size=n)
    X = np.where(y[:, None] == 1, np.column_stack([hi, lo]),
                 np.column_stack([lo, hi]))
    X *= rng.uniform(0.5, 2.0, size=(n, 1))
    return make_dataset(X, y, names=["nir", "red"])


class TestTraining:
    def test_learns_separable_two_band_problem(self):
        ds = separable_two_band_dataset(300, seed=0)
        train_set = make_dataset(ds.X[:200], ds.y[:200], list(ds.band_names))
        val_set = make_dataset(ds.X[200:], ds.y[200:], list(ds.band_names))
        model = build_model("nd", 2, 2, seed=0,
                            band_names=list(ds.band_names))
        model, history = train(model, train_set, val_set, TrainConfig(seed=0))
        assert max(history.val_accuracy) >= 0.99
        assert history.stopped_epoch <= 150

    def test_patience_equal_to_max_epochs_never_early_stops(self):
        ds = separable_two_band_dataset(80, seed=3)
        split = make_dataset(ds.X[:60], ds.y[:60], list(ds.band_names))
        val = make_dataset(ds.X[60:], ds.y[60:], list(ds.band_names))
        model = build_model("nd", 2, 2, seed=0, band_names=list(ds.band_names))
        config = TrainConfig(max_epochs=8, patience=8, seed=0)
        _, history = train(model, split, val, config)
        assert history.stopped_epoch == 8

    @pytest.mark.parametrize("arch", ["nd", "mlp", "attnd"])
    def test_depth_four_smoke_losses_finite(self, arch):
        rng = np.random.default_rng(7)
        X = rng.uniform(0.01, 1.0, size=(64, 10))
        y = rng.integers(0, 2, size=64)
        tr = make_dataset(X[:48], y[:48])
        va = make_dataset(X[48:], y[48:])
        model = build_model(arch, 4, 10, seed=1,
                            band_names=list(tr.band_names))
        config = TrainConfig(max_epochs=5, patience=5, seed=1)
        _, history = train(model, tr, va, config)
        assert len(history.train_loss) == 5
        assert np.isfinite(history.train_loss).all()
        assert np.isfinite(history.val_loss).all()

    def test_deterministic_given_seed(self):
        ds = separable_two_band_dataset(120, seed=5)
        tr = make_dataset(ds.X[:80], ds.y[:80], list(ds.band_names))
        va = make_dataset(ds.X[80:], ds.y[80:], list(ds.band_names))
        runs = []
        for _ in range(2):
            model = build_model("attnd", 3, 2, seed=4,
                                band_names=list(ds.band_names))
            config = TrainConfig(max_epochs=12, patience=12, seed=4)
            model, history = train(model, tr, va, config)
            runs.append((history, [p.copy() for p in model.parameters()]))
        h1, p1 = runs[0]
        h2, p2 = runs[1]
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss
        assert h1.val_accuracy == h2.val_accuracy
        for a, b in zip(p1, p2):
            assert np.array_equal(a, b)

    def test_early_stopping_restores_best_parameters(self):
        ds = separable_two_band_dataset(150, seed=9)
        tr = make_dataset(ds.X[:100], ds.y[:100], list(ds.band_names))
        va = make_dataset(ds.X[100:], ds.y[100:], list(ds.band_names))
        model = build_model("mlp", 2, 2, seed=2, band_names=list(ds.band_names))
        config = TrainConfig(max_epochs=30, patience=10, seed=2)
        model, history = train(model, tr, va, config)
        logits, _ = model_forward(model, va.X)
        restored_acc = accuracy_from_logits(logits, va.y)
        assert restored_acc == max(history.val_accuracy)
        assert history.val_accuracy[history.best_epoch - 1] == restored_acc

    def test_empty_dataset_rejected(self):
        model = build_model("nd", 2, 2, seed=0)
        empty = make_dataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        some = separable_two_band_dataset(20, seed=1)
        with pytest.raises(ValueError, match="non-empty"):
            train(model, empty, some, TrainConfig())

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(patience=200, max_epochs=150)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=-0.1)

    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay", "eps"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["batch_size", "max_epochs", "patience",
                                       "seed"])
    @pytest.mark.parametrize("value", [True, 1.5, 2.5, "3"])
    def test_integer_fields_must_be_integers(self, field, value):
        # batch_size=True once trained at batch size 1; floats ended in
        # TypeErrors or were accepted
        with pytest.raises(ValueError, match=f"TrainConfig {field} must be an "
                                             "integer"):
            TrainConfig(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError) as info:
            TrainConfig(seed=-1)
        assert str(info.value) == "seed must be a nonnegative integer, got -1"

    @pytest.mark.parametrize("arch", net.ARCHITECTURES)
    def test_one_epoch_transforms_once_per_step_and_block(self, arch,
                                                          monkeypatch):
        # the pairwise forward core applies softplus to the alpha|beta
        # block of the vector once per call (3 steps of 32, 32 and 6 rows
        # and a validation pass of two scoring blocks); the backward takes
        # the sigmoids from that softplus, so no sigmoid reads the vector
        rng = np.random.default_rng(3)
        X = rng.uniform(0.01, 1.0, size=(70 + block_rows(10) + 10, 10))
        y = rng.integers(0, 2, size=len(X))
        model = build_model(arch, 2, 10, seed=0)
        calls = {"softplus": 0, "sigmoid": 0}

        def counting(name, real):
            def transform(x):
                calls[name] += np.shares_memory(x, model.vector)
                return real(x)
            return transform

        monkeypatch.setattr(ndlayer, "softplus",
                            counting("softplus", ndlayer.softplus))
        sigmoid = counting("sigmoid", ndmath.sigmoid)
        for module in (net, ndlayer, ndmath):
            monkeypatch.setattr(module, "sigmoid", sigmoid, raising=False)
        train(model, make_dataset(X[:70], y[:70]), make_dataset(X[70:], y[70:]),
              TrainConfig(max_epochs=1, patience=1))
        nd = arch != "mlp"
        assert calls == {"softplus": (3 + 2) * nd, "sigmoid": 0}


def per_array_reference_train(model, train_set, val_set, config):
    """The training loop with one pair of Adam moments per parameter array."""
    rng = np.random.default_rng(config.seed)
    params = model.parameters()
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    b1, b2, t = net.ADAM_BETA1, net.ADAM_BETA2, 0
    history = TrainHistory()
    best, best_acc, since = [p.copy() for p in params], -np.inf, 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(train_set.n_samples)
        loss_sum = 0.0
        for start in range(0, len(order), config.batch_size):
            chunk = order[start:start + config.batch_size]
            logits, cache = model_forward(model, train_set.X[chunk])
            losses, d_logits = bce_with_logits(logits, train_set.y[chunk])
            loss_sum += float(losses.sum())
            grads, _ = model_backward(model, cache, d_logits / len(chunk))
            t += 1
            for p, g, mk, vk in zip(params, grads, m, v):
                g = g + config.weight_decay * p
                mk *= b1
                mk += (1.0 - b1) * g
                vk *= b2
                vk += (1.0 - b2) * g * g
                update = (mk / (1.0 - b1 ** t)) / (
                    np.sqrt(vk / (1.0 - b2 ** t)) + net.ADAM_EPS)
                p -= config.learning_rate * update
        val_logits, _ = model_forward(model, val_set.X)
        val_losses, _ = bce_with_logits(val_logits, val_set.y)
        val_acc = accuracy_from_logits(val_logits, val_set.y)
        history.train_loss.append(loss_sum / train_set.n_samples)
        history.val_loss.append(float(val_losses.mean()))
        history.val_accuracy.append(val_acc)
        if val_acc > best_acc:
            best_acc, best, since = val_acc, [p.copy() for p in params], 0
            history.best_epoch = epoch
        else:
            since += 1
        history.stopped_epoch = epoch
        if since >= config.patience:
            break
    for p, b in zip(params, best):
        p[...] = b
    return history


def four_band_dataset(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.05, 1.0, size=(n, 4))
    y = (X[:, 0] / (X[:, 0] + X[:, 2]) + 0.2 * rng.standard_normal(n) > 0.5)
    return make_dataset(X, y.astype(np.int64))


def holders(model):
    """Every learnable array that the cores read from a model's fields."""
    arrays = []
    if model.nd_params is not None:
        arrays += [model.nd_params.alpha, model.nd_params.beta]
    if model.attn_weights is not None:
        arrays += [model.attn_weights, model.attn_bias]
    for layer in model.layers:
        arrays += [layer.weights, layer.bias]
    return arrays


def assert_holders_alias_the_vector(model):
    # the cores read the holders and Adam writes the vector, so a holder
    # detached from the vector would stop training without an error
    arrays = holders(model)
    assert len(arrays) == len(model.parameters())
    for array, param in zip(arrays, model.parameters()):
        assert np.shares_memory(array, model.vector)
        assert np.shares_memory(array, param) and array.shape == param.shape


class TestParameterVector:
    @pytest.mark.parametrize("arch", ["nd", "attnd", "mlp"])
    @pytest.mark.parametrize("depth", [2, 3])
    def test_parameters_are_views_in_checkpoint_order(self, arch, depth):
        model = build_model(arch, depth, 5, seed=1)
        params = model.parameters()
        assert model.vector.dtype == np.float64 and model.vector.flags.c_contiguous
        assert np.array_equal(np.concatenate([p.ravel() for p in params]),
                              model.vector)
        model.vector[:] = np.arange(model.vector.size)
        offset = 0
        for p in params:
            assert np.array_equal(p.ravel(), np.arange(offset, offset + p.size))
            offset += p.size
        assert offset == model.vector.size == count_params(model)

    @pytest.mark.parametrize("make", [
        Model.copy,
        lambda m: pickle.loads(pickle.dumps(m)),
        copy.deepcopy,
        lambda m: model_from_checkpoint_dict(json.loads(checkpoint_to_json(m))),
    ], ids=["copy", "pickle", "deepcopy", "checkpoint"])
    @pytest.mark.parametrize("arch", ["nd", "attnd", "mlp"])
    def test_copies_follow_their_own_vector(self, make, arch, rng):
        model = build_model(arch, 3, 4, seed=2)
        assert_holders_alias_the_vector(model)
        model.vector[:] = rng.uniform(-1, 1, model.vector.size)
        before = model.vector.copy()
        twin = make(model)
        assert_holders_alias_the_vector(twin)
        assert np.array_equal(twin.vector, before)
        assert not np.shares_memory(twin.vector, model.vector)
        assert twin.indexer is model.indexer
        twin.vector[:] = 7.0
        for p in twin.parameters() + holders(twin):
            assert (p == 7.0).all()
        assert np.array_equal(model.vector, before)
        model_forward(twin, rng.uniform(0.1, 1.0, 4))

    @pytest.mark.parametrize("make", [
        lambda m: m,
        Model.copy,
        lambda m: model_from_checkpoint_dict(json.loads(checkpoint_to_json(m))),
    ], ids=["built", "copy", "checkpoint"])
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_gate_layer_reads_the_attn_views(self, make, depth, rng):
        # bench/selftest.py rewrites attn_weights in place, so the gate's
        # dense layer must hold those very arrays, not copies
        model = make(build_model("attnd", depth, 5, seed=depth))
        gate = model.attn_layer
        assert gate.weights is model.attn_weights
        assert gate.bias is model.attn_bias
        assert gate.activation == "identity"
        for array in (gate.weights, gate.bias):
            assert np.shares_memory(array, model.vector)
        bands = rng.uniform(0.05, 1.0, size=(8, 5))
        logits = [model_forward(model, bands)[0]]
        for array in (model.attn_weights, model.attn_bias):
            array[:] = rng.uniform(-1, 1, array.shape)
            logits.append(model_forward(model, bands)[0])
            assert not np.array_equal(logits[-1], logits[-2])
        _, cache = net._model_forward(model, bands)
        np.testing.assert_array_equal(
            cache.gate[1],
            ndmath.sigmoid(bands @ model.attn_weights.T + model.attn_bias))

    def test_constructor_leaves_its_arguments_untouched(self):
        nd = build_model("nd", 3, 4, seed=3)
        other = Model(arch="nd", depth=3, band_names=nd.band_names,
                      eps=nd.eps, vector=nd.vector)
        other.vector[:] = 0.0
        assert nd.vector.any()
        for p in nd.parameters():
            assert np.shares_memory(p, nd.vector)

    @pytest.mark.parametrize("arch", ["nd", "attnd", "mlp"])
    @pytest.mark.parametrize("depth", [2, 3])
    def test_train_matches_per_array_adam(self, arch, depth):
        ds = four_band_dataset(100, seed=depth)
        tr = make_dataset(ds.X[:70], ds.y[:70])
        va = make_dataset(ds.X[70:], ds.y[70:])
        config = TrainConfig(batch_size=16, max_epochs=12, patience=4, seed=5)
        model = build_model(arch, depth, 4, seed=6)
        reference = model.copy()
        model, history = train(model, tr, va, config)
        expected = per_array_reference_train(reference, tr, va, config)
        assert history == expected
        assert np.array_equal(model.vector, reference.vector)
        for got, want in zip(model.parameters(), reference.parameters()):
            assert np.array_equal(got, want)


class TestTrainingCore:
    """The unchecked cores that train() runs give the public functions' bits."""

    @pytest.mark.parametrize("arch", ["nd", "attnd", "mlp"])
    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("n_bands", [2, 10, 32])
    def test_core_gradients_equal_public_bit_for_bit(self, arch, depth, n_bands):
        rng = np.random.default_rng(100 * depth + n_bands)
        model = build_model(arch, depth, n_bands, seed=n_bands)
        model.vector[:] += rng.normal(0.0, 0.3, model.vector.size)
        X = rng.uniform(0.01, 1.0, size=(77, n_bands))
        y = rng.integers(0, 2, size=77)
        grad = np.full(model.vector.size, np.nan)
        views = model.views(grad)
        # batch 1, a full batch of 32 and the last partial batch of 77 rows
        for rows in (slice(0, 1), slice(0, 32), slice(64, 77)):
            xb, yb = X[rows], y[rows]
            logits, cache = net._model_forward(model, xb)
            _, d_logits = bce_with_logits(logits, yb)
            d_logits = d_logits / len(yb)
            assert net._model_backward(
                model, cache, d_logits, views, need_input=False) is None

            public_logits, public_cache = model_forward(model, xb)
            grads, d_bands = model_backward(model, public_cache, d_logits)
            assert np.array_equal(logits, public_logits)
            assert np.array_equal(grad, np.concatenate([g.ravel() for g in grads]))
            assert d_bands.shape == xb.shape

    @pytest.mark.parametrize("arch", ["nd", "attnd", "mlp"])
    def test_single_row_public_path_matches_core(self, arch, rng):
        model = build_model(arch, 3, 6, seed=4)
        bands = rng.uniform(0.01, 1.0, 6)
        logit, cache = model_forward(model, bands)
        grads, d_bands = model_backward(model, cache, 0.25)
        core_logit, core_cache = net._model_forward(model, bands[None, :])
        grad = np.empty_like(model.vector)
        net._model_backward(model, core_cache, np.array([0.25]),
                            model.views(grad))
        assert logit == core_logit[0]
        assert np.array_equal(grad, np.concatenate([g.ravel() for g in grads]))
        assert d_bands.shape == (6,)

    @pytest.mark.parametrize("arch", ["nd", "attnd"])
    def test_backward_sigmoids_within_ulps_of_sigmoid(self, arch,
                                                      monkeypatch):
        # the pairwise backward takes sigmoid(alpha|beta) from the forward's
        # cached softplus as -expm1(-softplus): within 4 ulps of
        # ndmath.sigmoid over alpha and beta in [-40, 40]. One-hot rows and
        # the upstream delta = B^2 make R = 1 and the three sums S_x = 0 and
        # S_i = S_j = 1, so with a power-of-two eps the core's gradients are
        # exactly sigmoid(alpha)*eps and -sigmoid(beta)*eps.
        eps = 2.0 ** -20
        model = build_model(arch, 2, 10, seed=1, eps=eps)
        n = model.nd_params.n_pairs
        model.vector[:2 * n] = np.linspace(-40.0, 40.0, 2 * n)
        seen = []

        def spy(cache, delta, signed, d_alpha, d_beta, *args):
            result = ndlayer._backward(cache, np.square(cache.denom), signed,
                                       d_alpha, d_beta, *args)
            seen.append(np.concatenate([d_alpha, -d_beta]) / eps)
            return result

        monkeypatch.setattr(net, "_backward", spy)
        _, cache = net._model_forward(model, np.eye(10))
        net._model_backward(model, cache, np.ones(10),
                            model.views(np.empty_like(model.vector)),
                            need_input=False)
        want = ndmath.sigmoid(model.vector[:2 * n])
        assert len(seen) == 1
        assert (np.abs(seen[0] - want) <= 4 * np.spacing(want)).all()

    @pytest.mark.parametrize("arch", ["nd", "attnd"])
    @pytest.mark.parametrize("signed", [False, True])
    def test_public_layer_backward_matches_model_core(self, arch, signed,
                                                      monkeypatch):
        # one sigmoid rule: for the same alpha|beta block, batch and
        # upstream, the public layer and the model core give the same
        # coefficient gradients, bit for bit
        rng = np.random.default_rng(19)
        model = build_model(arch, 3, 10, seed=2)
        n = model.nd_params.n_pairs
        model.vector[:2 * n] = rng.uniform(-4.0, 4.0, 2 * n)
        X = rng.uniform(-1.0 if signed else 0.0, 1.0, (20, 10))
        upstream = []

        def spy(cache, delta, *args):
            upstream.append(delta)
            return ndlayer._backward(cache, delta, *args)

        monkeypatch.setattr(net, "_backward", spy)
        _, cache = net._model_forward(model, X, signed)
        grads = model.views(np.empty_like(model.vector))
        net._model_backward(model, cache, rng.normal(size=20), grads)
        forward, backward = ((ndlayer.nd_forward_signed, ndlayer.nd_backward_signed)
                             if signed else (nd_forward, ndlayer.nd_backward))
        _, layer_cache = forward(X, model.nd_params, model.eps)
        g = backward(layer_cache, upstream[0], model.nd_params, model.eps)
        assert np.array_equal(g.d_alpha, grads[0])
        assert np.array_equal(g.d_beta, grads[1])

    def test_public_backward_rejects_wrong_upstream_length(self, rng):
        model = build_model("nd", 2, 4, seed=0)
        _, cache = model_forward(model, rng.uniform(0.1, 1.0, (5, 4)))
        with pytest.raises(ValueError, match="5 cached rows"):
            model_backward(model, cache, np.ones(4))


def block_rows(n_bands):
    """Rows per scoring block of a model on ``n_bands`` bands."""
    return net._BLOCK_ELEMENTS // max(pair_count(n_bands), n_bands)


class TestBlockedScoring:
    """model_forward scores fixed row blocks and keeps no per-pair array."""

    @settings(max_examples=60, deadline=None)
    @given(arch=st.sampled_from(net.ARCHITECTURES),
           depth=st.sampled_from(net.DEPTHS), signed=st.booleans(),
           n_bands=st.sampled_from([2, 10, 32]),
           blocks=st.floats(min_value=0.0, max_value=3.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_logits_are_the_core_over_blocks(self, arch, depth, signed, n_bands,
                                             blocks, seed):
        rng = np.random.default_rng(seed)
        model = build_model(arch, depth, n_bands, seed=seed)
        model.vector[:] += rng.normal(0.0, 0.3, model.vector.size)
        block = block_rows(n_bands)
        rows = max(1, round(blocks * block))
        X = rng.uniform(-0.5 if signed else 0.01, 1.0, size=(rows, n_bands))
        logits, _ = model_forward(model, X, signed=signed)
        pieces = [net._model_forward(model, X[start:start + block], signed)[0]
                  for start in range(0, rows, block)]
        assert np.array_equal(logits, np.concatenate(pieces))
        whole, _ = net._model_forward(model, X, signed)
        if rows <= block:
            assert np.array_equal(logits, whole)
        else:
            assert np.abs(logits - whole).max() <= 1e-12 * np.abs(whole).max()

    @pytest.mark.parametrize("arch", net.ARCHITECTURES)
    def test_backward_after_blocked_forward_equals_core(self, arch, rng):
        model = build_model(arch, 3, 10, seed=3)
        model.vector[:] += rng.normal(0.0, 0.3, model.vector.size)
        X = rng.uniform(-0.5, 1.0, size=(2 * block_rows(10) + 7, 10))
        d_logit = rng.normal(size=len(X))
        _, cache = model_forward(model, X, signed=True)
        assert cache.batch is X  # the cache references the batch, no copy
        grads, d_bands = model_backward(model, cache, d_logit)

        _, core = net._model_forward(model, X, True)
        grad = np.empty_like(model.vector)
        core_bands = net._model_backward(model, core, d_logit, model.views(grad))
        assert np.array_equal(grad, np.concatenate([g.ravel() for g in grads]))
        assert np.array_equal(d_bands, core_bands)

    def test_cache_holds_only_the_batch(self, rng):
        model = build_model("attnd", 2, 4, seed=0)
        bands = rng.uniform(0.1, 1.0, 4)
        _, cache = model_forward(model, bands)
        assert [f.name for f in dataclasses.fields(cache)] == ["batch", "signed",
                                                               "single"]
        assert np.shares_memory(cache.batch, bands) and cache.single

    def test_scoring_memory_stays_within_blocks(self):
        # 25,000 rows x 45 pairs: every whole-batch per-pair array is 9 MB,
        # a block array 0.5 MB; the batch itself (2 MB) is not traced.
        model = build_model("attnd", 4, 10, seed=0)
        X = np.random.default_rng(0).uniform(-0.2, 1.0, size=(25000, 10))
        bound = 8_000_000
        tracemalloc.start()
        try:
            model_forward(model, X, signed=True)
            _, blocked_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            net._model_forward(model, X, True)
            _, whole_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert blocked_peak < bound
        assert whole_peak > 10 * bound


class TestTrainingEntryChecks:
    """train() checks both sets once, on entry, for every architecture."""

    config = TrainConfig(max_epochs=2, patience=2, seed=1)

    @staticmethod
    def sets(X, y):
        return (X[:30], y[:30]), (X[30:], y[30:])

    @pytest.mark.parametrize("arch", ["nd", "attnd", "mlp"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [7, 35], ids=["train", "val"])
    def test_non_finite_values_rejected(self, arch, value, row):
        ds = four_band_dataset(40, seed=1)
        X = ds.X.copy()
        X[row, 2] = value
        model = build_model(arch, 2, 4, seed=0)
        before = model.vector.copy()
        with pytest.raises(ValueError, match="contains non-finite values"):
            train(model, *self.sets(X, ds.y), self.config)
        assert np.array_equal(model.vector, before)

    @pytest.mark.parametrize("arch", ["nd", "attnd", "mlp"])
    @pytest.mark.parametrize("n_bands", [3, 5])
    def test_band_count_must_match_the_model(self, arch, n_bands):
        rng = np.random.default_rng(n_bands)
        X = rng.uniform(0.1, 1.0, size=(40, n_bands))
        y = rng.integers(0, 2, size=40)
        with pytest.raises(ValueError, match="model expects 4 bands"):
            train(build_model(arch, 2, 4, seed=0), *self.sets(X, y), self.config)

    @pytest.mark.parametrize("arch", ["nd", "attnd"])
    @pytest.mark.parametrize("row", [7, 35], ids=["train", "val"])
    def test_negatives_rejected_with_the_forward_message(self, arch, row):
        ds = four_band_dataset(40, seed=1)
        X = ds.X.copy()
        X[row, 0] = -0.01
        with pytest.raises(ValueError) as forward_error:
            nd_forward([-0.01, 0.5], NdParams.zeros(1))
        with pytest.raises(ValueError) as train_error:
            train(build_model(arch, 2, 4, seed=0), *self.sets(X, ds.y), self.config)
        assert str(train_error.value) == str(forward_error.value)

    def test_mlp_trains_on_negatives(self):
        ds = four_band_dataset(40, seed=1)
        X = ds.X - 0.5
        model, history = train(build_model("mlp", 2, 4, seed=0),
                               *self.sets(X, ds.y), self.config)
        assert np.isfinite(model.vector).all()
        assert len(history.train_loss) == 2


def constant_logit_mlp(logit):
    """An mlp whose every weight is zero and whose head bias is ``logit``."""
    model = build_model("mlp", 2, 4, seed=0)
    model.vector[:] = 0.0
    model.layers[-1].bias[:] = logit
    return model


class TestDivergence:
    # All labels 0 and every logit z: each row's loss is softplus(z), which
    # is z itself in float64 at these sizes, and a learning rate of 1e-12
    # moves z by about 1e-12 a step.
    config = TrainConfig(learning_rate=1e-12, weight_decay=0.0, max_epochs=3,
                         patience=3, seed=0)

    def run(self, logit):
        X = four_band_dataset(60, seed=2).X
        y = np.zeros(60, dtype=np.int64)
        return train(constant_logit_mlp(logit), (X[:45], y[:45]),
                     (X[45:], y[45:]), self.config)

    def test_mean_loss_below_threshold_trains(self):
        _, history = self.run(DIVERGENCE_LOSS - 1.0)
        assert len(history.train_loss) == 3
        assert max(history.train_loss) == pytest.approx(DIVERGENCE_LOSS - 1.0)
        assert max(history.train_loss) < DIVERGENCE_LOSS

    def test_mean_loss_above_threshold_raises(self):
        with pytest.raises(TrainingDiverged,
                           match="diverged at epoch 1: mean train loss") as info:
            self.run(DIVERGENCE_LOSS + 1.0)
        assert isinstance(info.value, ValueError)
        assert info.value.epoch == 1 and info.value.fold is None

    @pytest.mark.parametrize("learning_rate, batch_size, what", [
        (1e300, 16, "loss"),  # the second step's logits overflow
    ])
    def test_non_finite_epoch_raises(self, learning_rate, batch_size, what):
        ds = four_band_dataset(60, seed=2)
        config = TrainConfig(learning_rate=learning_rate, batch_size=batch_size,
                             max_epochs=3, patience=3)
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDiverged, match=f"diverged at epoch 1: non-finite {what}$"):
            train(build_model("mlp", 3, 4, seed=0), (ds.X[:45], ds.y[:45]),
                  (ds.X[45:], ds.y[45:]), config)

    def test_non_finite_parameters_raise(self):
        # One step per epoch, on a finite loss: the L2 term 1e308 * 2 of one
        # weight overflows its gradient, and Adam's update turns it NaN.
        ds = four_band_dataset(60, seed=2)
        model = build_model("mlp", 3, 4, seed=0)
        model.layers[0].weights[0, 0] = 2.0
        config = TrainConfig(weight_decay=1e308, batch_size=64, max_epochs=3,
                             patience=3)
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDiverged, match="diverged at epoch 1: non-finite parameters$"):
            train(model, (ds.X[:45], ds.y[:45]), (ds.X[45:], ds.y[45:]), config)

    def test_error_survives_pickling(self):
        error = pickle.loads(pickle.dumps(TrainingDiverged("boom", 3, 1)))
        assert (str(error), error.epoch, error.fold) == ("boom", 3, 1)


class TestPredictions:
    def test_tie_at_exact_zero_predicts_class_zero(self):
        assert predict_labels(np.array([0.0]))[0] == 0
        assert predict_labels(np.array([1e-300]))[0] == 1
        assert predict_labels(np.array([-1e-300]))[0] == 0

    def test_accuracy_from_logits(self):
        logits = np.array([2.0, -1.0, 0.5, -3.0])
        labels = np.array([1, 0, 0, 0])
        assert accuracy_from_logits(logits, labels) == 0.75


class TestCheckpoints:
    @pytest.mark.parametrize("arch", ["nd", "mlp", "attnd"])
    def test_round_trip_is_bit_exact(self, arch, tmp_path, rng):
        model = build_model(arch, 3, 10, seed=31)
        # perturb params to non-trivial values incl. awkward decimals
        for p in model.parameters():
            p += rng.uniform(-1, 1, size=p.shape) * math.pi
        path = tmp_path / f"{arch}.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.arch == model.arch
        assert loaded.depth == model.depth
        assert loaded.band_names == model.band_names
        assert loaded.eps == model.eps
        originals = model.parameters()
        restored = loaded.parameters()
        assert len(originals) == len(restored)
        for a, b in zip(originals, restored):
            assert np.array_equal(a, b)

    def test_document_is_self_describing_json(self, tmp_path):
        model = build_model("nd", 2, 4, seed=0)
        doc = json.loads(checkpoint_to_json(model))
        assert doc["format"] == "ndnet-checkpoint"
        assert doc["arch"] == "nd"
        assert doc["depth"] == 2
        assert doc["band_names"] == model.band_names
        assert set(doc["params"]) == set(model.parameter_names())

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameter_named_once(self, value):
        doc = json.loads(checkpoint_to_json(build_model("nd", 2, 4, seed=0)))
        doc["params"]["nd.alpha"][2] = value
        with pytest.raises(ValueError, match="^parameter nd.alpha is not finite$"):
            model_from_checkpoint_dict(doc)

    def test_meta_block_round_trips(self, tmp_path):
        model = build_model("nd", 2, 4, seed=0)
        path = tmp_path / "m.json"
        save_checkpoint(model, path, meta={"fold": 3, "split_seed": 1})
        assert json.loads(path.read_text())["meta"] == {"fold": 3, "split_seed": 1}

    @settings(max_examples=40, deadline=None)
    @given(arch=st.sampled_from(["nd", "mlp", "attnd"]),
           depth=st.sampled_from([2, 3, 4]), n_bands=st.integers(2, 12),
           seed=st.integers(0, 2 ** 32 - 1),
           specials=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=1, max_size=8))
    def test_round_trip_property(self, arch, depth, n_bands, seed, specials):
        model = build_model(arch, depth, n_bands, seed=seed)
        rng = np.random.default_rng(seed)
        for p in model.parameters():
            p[...] = rng.standard_normal(p.shape) * 10.0 ** rng.uniform(-300, 300, p.shape)
            p.flat[rng.integers(p.size, size=len(specials))] = specials
        loaded = model_from_checkpoint_dict(json.loads(checkpoint_to_json(model)))
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        X = rng.uniform(0.0, 1.0, size=(5, n_bands))
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(model_forward(loaded, X)[0],
                                          model_forward(model, X)[0])

    @settings(max_examples=60, deadline=None)
    @given(arch=st.sampled_from(["nd", "mlp", "attnd"]),
           depth=st.sampled_from([2, 3, 4, 5, 3.0, True]),
           extra=st.sampled_from([0, 0, 0, -1, 1]),
           n_bands=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_every_model_that_builds_round_trips(self, arch, depth, extra,
                                                 n_bands, seed):
        # near-layout models: any depth label, and a vector one value shorter
        # or longer than the label's layout holds
        n_pairs = n_bands * (n_bands - 1) // 2
        n_layers = int(depth) - (arch != "mlp")
        widths = ([n_bands if arch == "mlp" else n_pairs]
                  + [n_pairs] * (n_layers - 1) + [1])
        size = sum((widths[k] + 1) * widths[k + 1] for k in range(n_layers))
        size += {"nd": 2 * n_pairs, "attnd": n_pairs * (n_bands + 3),
                 "mlp": 0}[arch]
        vector = np.random.default_rng(seed).standard_normal(size + extra)
        fits = extra == 0 and type(depth) is int and depth in (2, 3, 4)
        try:
            model = Model(arch, depth, [f"b{k}" for k in range(n_bands)], 1e-8,
                          vector)
        except ValueError:
            assert not fits
            return
        assert fits
        loaded = model_from_checkpoint_dict(json.loads(checkpoint_to_json(model)))
        assert (loaded.arch, loaded.depth, loaded.n_bands, loaded.band_names,
                loaded.eps) == (arch, depth, n_bands, model.band_names, 1e-8)
        assert ([layer.activation for layer in loaded.layers]
                == [layer.activation for layer in model.layers])
        assert np.array_equal(loaded.vector, vector)

    @pytest.mark.parametrize("field,value", [
        ("eps", True), ("version", True), ("depth", 3.0),
        ("band_names", [1, None, [2], "b"])])
    def test_mistyped_fields_rejected(self, field, value):
        doc = json.loads(checkpoint_to_json(build_model("nd", 3, 4, seed=0)))
        doc[field] = value
        with pytest.raises(ValueError):
            model_from_checkpoint_dict(doc)

    @pytest.mark.parametrize("name,change", [
        ("nd.alpha", lambda v: v[:-1]),
        ("attn.weights", lambda v: np.transpose(v).tolist()),
        ("dense0.weights", lambda v: np.ravel(v).tolist()),
        ("dense1.bias", lambda v: [v])])
    def test_misshapen_array_is_named(self, name, change):
        doc = json.loads(checkpoint_to_json(build_model("attnd", 3, 4, seed=0)))
        doc["params"][name] = change(doc["params"][name])
        with pytest.raises(ValueError, match=rf"checkpoint parameter {name} "
                                             r"has shape \("):
            model_from_checkpoint_dict(doc)

    def test_missing_activations_rejected(self):
        doc = json.loads(checkpoint_to_json(build_model("nd", 3, 4, seed=0)))
        del doc["activations"]
        with pytest.raises(ValueError,
                           match=r"checkpoint lacks fields \['activations'\]"):
            model_from_checkpoint_dict(doc)

    def test_non_numeric_parameter_rejected(self):
        doc = json.loads(checkpoint_to_json(build_model("nd", 3, 4, seed=0)))
        doc["params"]["dense0.bias"] = ["a"] * 6
        with pytest.raises(ValueError, match="checkpoint parameter dense0.bias "
                                             "is not numeric"):
            model_from_checkpoint_dict(doc)

    def test_non_checkpoint_document_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)
