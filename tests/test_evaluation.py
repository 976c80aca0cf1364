import math
import warnings
from dataclasses import asdict, is_dataclass

import numpy as np
import pytest

from ndnet import evaluation, ndlayer, network
from ndnet.data import Dataset, SplitSpec, SynthSpec, synth_generate
from ndnet.evaluation import (
    accuracy,
    attach_noise_sweep,
    coeff_ratios,
    efficiency,
    fold_test_split,
    gradcheck,
    history_csv_rows,
    noise_sweep,
    report_to_text,
    run_crossval,
    top_asymmetric,
)
from ndnet.network import (
    Model,
    TrainConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
)

softplus_inverse = lambda y: math.log(math.expm1(y))  # softplus(log(e^y - 1)) = y


def constant_logit_model(logit, n_bands=3):
    """MLP whose head ignores the input and emits a fixed logit."""
    model = build_model("mlp", 2, n_bands,
                        band_names=[f"b{k}" for k in range(n_bands)])
    model.vector[:] = 0.0
    model.layers[1].bias[:] = logit
    return model


def uniform_dataset(n, n_bands, label, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.01, 1.0, size=(n, n_bands))
    y = np.full(n, label, dtype=int)
    return Dataset([f"b{k}" for k in range(n_bands)], X, y)


class TestAccuracy:
    def test_constant_positive_model_on_all_ones(self):
        model = constant_logit_model(40.0)
        assert accuracy(model, uniform_dataset(50, 3, label=1)) == 1.0

    def test_constant_positive_model_on_all_zeros(self):
        model = constant_logit_model(40.0)
        assert accuracy(model, uniform_dataset(50, 3, label=0)) == 0.0

    def test_hand_built_four_sample_case(self):
        # logits are relu(x1 - x2) through an identity head; enumerate by
        # hand: (.8,.2)->+ (.1,.6)->0 (.5,.2)->+ (.3,.4)->0  vs labels 1,0,0,0
        # mlp depth 2 on 2 bands: dense0 (1, 2) + (1,), dense1 (1, 1) + (1,)
        model = Model(arch="mlp", depth=2, band_names=["a", "b"], eps=1e-8,
                      vector=[1.0, -1.0, 0.0, 1.0, 0.0])
        X = np.array([[0.8, 0.2], [0.1, 0.6], [0.5, 0.2], [0.3, 0.4]])
        ds = Dataset(["a", "b"], X, np.array([1, 0, 0, 0]))
        # predictions 1,0,1,0 -> three of four match
        assert accuracy(model, ds) == 0.75

    def test_tie_logit_predicts_class_zero(self):
        model = constant_logit_model(0.0)
        assert accuracy(model, uniform_dataset(10, 3, label=0)) == 1.0
        assert accuracy(model, uniform_dataset(10, 3, label=1)) == 0.0

    def test_flipped_labels_complement(self, rng):
        model = build_model("nd", 2, 4, seed=3)
        for p in model.parameters():
            p += rng.uniform(-0.5, 0.5, p.shape)
        X = rng.uniform(0.01, 1.0, size=(40, 4))
        y = rng.integers(0, 2, size=40)
        names = model.band_names
        acc = accuracy(model, Dataset(names, X, y))
        flipped = accuracy(model, Dataset(names, X, 1 - y))
        assert acc == pytest.approx(1.0 - flipped, abs=1e-12)

    def test_band_mismatch_rejected(self):
        model = constant_logit_model(1.0, n_bands=3)
        with pytest.raises(ValueError, match="bands"):
            accuracy(model, uniform_dataset(5, 4, label=1))
        wrong_names = uniform_dataset(5, 3, label=1)
        wrong_names.band_names = ["x", "y", "z"]
        with pytest.raises(ValueError, match="band names"):
            accuracy(model, wrong_names)

    def test_pair_scores_like_its_dataset_and_labels_are_checked(self):
        model = constant_logit_model(40.0)
        ds = uniform_dataset(20, 3, label=1)
        assert accuracy(model, (ds.X, ds.y)) == accuracy(model, ds) == 1.0
        for labels in (2 * ds.y, ds.y[:-1], ds.y[:, None]):
            with pytest.raises(ValueError, match="^labels must be"):
                accuracy(model, (ds.X, labels))

    def test_empty_dataset_rejected(self):
        model = constant_logit_model(1.0)
        empty = Dataset(["b0", "b1", "b2"], np.zeros((0, 3)),
                        np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            accuracy(model, empty)

    def test_negative_inputs_routed_through_signed_forward(self, rng):
        model = build_model("nd", 2, 3, seed=1, band_names=["b0", "b1", "b2"])
        X = rng.uniform(0.01, 1.0, size=(20, 3))
        X[0, 0] = -0.05
        ds = Dataset(["b0", "b1", "b2"], X, rng.integers(0, 2, 20))
        assert 0.0 <= accuracy(model, ds) <= 1.0

    def test_negative_row_does_not_move_other_rows(self):
        # One pair, logit = N + 0.75. On (0, 1e-4) the plain forward gives
        # N ~ -1 (class 0, right); the signed one replaces m(0) = 0 by
        # sqrt(eps) and gives N ~ -0.41 (class 1, wrong). The negative row
        # is class 0 under the signed forward.
        # nd depth 2 on 2 bands: alpha, beta, head weight, head bias
        model = Model(arch="nd", depth=2, band_names=["a", "b"], eps=1e-8,
                      vector=[0.0, 0.0, 1.0, 0.75])
        near_zero = Dataset(["a", "b"], np.array([[0.0, 1e-4]]), np.array([0]))
        assert accuracy(model, near_zero) == 1.0
        mixed = Dataset(["a", "b"], np.array([[0.0, 1e-4], [-0.5, 0.5]]),
                        np.array([0, 0]))
        assert accuracy(model, mixed) == 1.0

    def test_negative_row_leaves_other_logits(self, rng, monkeypatch):
        model = build_model("attnd", 3, 5, seed=2)
        for p in model.parameters():
            p += rng.uniform(-0.5, 0.5, p.shape)
        X = rng.uniform(0.0, 0.02, size=(60, 5))
        X[rng.random(X.shape) < 0.2] = 0.0
        X[17, 3] = -0.01
        y = rng.integers(0, 2, size=60)
        rest = np.arange(60) != 17
        seen = []
        monkeypatch.setattr(network, "accuracy_from_logits",
                            lambda logits, labels: seen.append(logits) or 0.0)
        accuracy(model, Dataset(model.band_names, X, y))
        accuracy(model, Dataset(model.band_names, X[rest], y[rest]))
        np.testing.assert_allclose(seen[0][rest], seen[1], rtol=0, atol=1e-12)


class TestEfficiency:
    def test_reported_nd_depth2_value(self):
        assert efficiency(96.50, 136) == pytest.approx(70.96, abs=0.01)

    def test_reported_mlp_depth2_value(self):
        assert efficiency(97.20, 541) == pytest.approx(17.97, abs=0.01)

    def test_round_numbers(self):
        assert efficiency(100.0, 100) == 100.0

    def test_linear_in_accuracy_inverse_in_params(self, rng):
        for _ in range(20):
            acc = float(rng.uniform(1, 100))
            params = int(rng.integers(1, 10_000))
            base = efficiency(acc, params)
            assert efficiency(2 * acc, params) == pytest.approx(2 * base)
            assert efficiency(acc, 2 * params) == pytest.approx(base / 2)

    def test_nonpositive_params_rejected(self):
        with pytest.raises(ValueError):
            efficiency(50.0, 0)


class TestNoiseSweep:
    def test_eta_zero_entry_equals_clean_accuracy_exactly(self, rng):
        model = build_model("nd", 2, 4, seed=5)
        for p in model.parameters():
            p += rng.uniform(-0.5, 0.5, p.shape)
        ds = Dataset(model.band_names, rng.uniform(0.01, 1, (60, 4)),
                     rng.integers(0, 2, 60))
        accs = noise_sweep(model, ds, [0.0, 0.05], seed=3)
        assert accs[0] == accuracy(model, ds)

    def test_constant_model_immune_to_noise(self):
        model = constant_logit_model(40.0)
        ds = uniform_dataset(40, 3, label=1, seed=2)
        accs = noise_sweep(model, ds, [0.0, 0.1, 0.3, 0.5], seed=3)
        assert accs == [1.0, 1.0, 1.0, 1.0]

    def test_paired_realizations_across_models(self, rng):
        # two models swept with the same seed see identical noisy inputs:
        # a model and its label-flipped mirror must sum to 1 at every eta
        model = build_model("nd", 2, 4, seed=5)
        for p in model.parameters():
            p += rng.uniform(-0.5, 0.5, p.shape)
        mirror = model.copy()
        mirror.layers[-1].weights *= -1.0
        mirror.layers[-1].bias *= -1.0
        X = rng.uniform(0.01, 1, (30, 4))
        # exclude exact-tie logits so mirrored predictions are complements
        ds = Dataset(model.band_names, X, rng.integers(0, 2, 30))
        for eta_accs in zip(noise_sweep(model, ds, [0.0, 0.1], seed=7),
                            noise_sweep(mirror, ds, [0.0, 0.1], seed=7)):
            assert eta_accs[0] + eta_accs[1] == pytest.approx(1.0)

    def test_one_realization_per_eta_through_the_data_module(self, rng,
                                                             noise_draws):
        # drawn through the module attribute, eta 0 included, so a caller
        # that wraps data.inject_noise sees every realization scored
        model = build_model("nd", 2, 4, seed=5)
        ds = Dataset(model.band_names, rng.uniform(0.01, 1, (40, 4)),
                     rng.integers(0, 2, 40))
        noise_sweep(model, ds, [0.0, 0.05, 0.1], seed=3)
        assert [eta for _, eta in noise_draws] == [0.0, 0.05, 0.1]
        assert all(dataset is ds for dataset, _ in noise_draws)

    def test_models_swept_together_match_their_own_sweeps(self, rng,
                                                           noise_draws):
        models = [build_model(arch, 3, 4, seed=k)
                  for k, arch in enumerate(("nd", "attnd", "mlp"))]
        for model in models:
            model.vector += rng.uniform(-0.5, 0.5, model.vector.size)
        ds = Dataset(models[0].band_names, rng.uniform(0.01, 1, (80, 4)),
                     rng.integers(0, 2, 80))
        etas = [0.0, 0.1, 0.3, 0.5]  # 0.3 and 0.5 give negative rows
        alone = [noise_sweep(model, ds, etas, seed=11) for model in models]
        del noise_draws[:]
        assert evaluation._sweep(models, [ds] * len(models), etas,
                                 seed=11) == alone
        assert [eta for _, eta in noise_draws] == etas

    def test_each_test_set_swept_once_in_order_of_first_use(self, rng,
                                                             noise_draws):
        models = [build_model(arch, 3, 4, seed=k)
                  for k, arch in enumerate(("nd", "attnd", "mlp"))]
        for model in models:
            model.vector += rng.uniform(-0.5, 0.5, model.vector.size)
        a, b = (Dataset(models[0].band_names, rng.uniform(0.01, 1, (50, 4)),
                        rng.integers(0, 2, 50)) for _ in range(2))
        etas = [0.0, 0.1, 0.3]
        swept = evaluation._sweep(models, [a, b, a], etas, seed=5)
        assert [(ds, eta) for ds, eta in noise_draws] == (
            [(a, eta) for eta in etas] + [(b, eta) for eta in etas])
        assert swept == [noise_sweep(model, ds, etas, seed=5)
                         for model, ds in zip(models, [a, b, a])]

    @pytest.mark.parametrize("seed", [-1, 2.5, "3", True, None])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        model = constant_logit_model(1.0)
        with pytest.raises(ValueError) as info:
            noise_sweep(model, uniform_dataset(10, 3, label=1), [0.0], seed)
        assert str(info.value) == f"seed must be a nonnegative integer, got {seed!r}"

    def test_unsorted_etas_rejected(self):
        model = constant_logit_model(1.0)
        ds = uniform_dataset(10, 3, label=1)
        with pytest.raises(ValueError, match="sorted"):
            noise_sweep(model, ds, [0.1, 0.0], seed=0)
        with pytest.raises(ValueError, match="within"):
            noise_sweep(model, ds, [0.0, 0.6], seed=0)


class TestCoeffRatios:
    def test_fresh_model_all_ratios_one(self):
        model = build_model("nd", 2, 10, seed=0)
        ratios = coeff_ratios(model)
        assert np.array_equal(ratios.matrix, np.ones((10, 10)))

    def test_known_coefficients_give_ratio_two(self):
        model = build_model("nd", 2, 2, seed=0)
        model.nd_params.alpha[0] = softplus_inverse(2.0)
        model.nd_params.beta[0] = softplus_inverse(1.0)
        ratios = coeff_ratios(model)
        assert ratios.ratio(0, 1) == pytest.approx(2.0, abs=1e-12)
        assert ratios.ratio(1, 0) == pytest.approx(0.5, abs=1e-12)

    def test_reciprocal_structure_and_unit_diagonal(self, rng):
        model = build_model("attnd", 2, 5, seed=2)
        model.nd_params.alpha[:] = rng.uniform(-2, 2, 10)
        model.nd_params.beta[:] = rng.uniform(-2, 2, 10)
        ratios = coeff_ratios(model)
        assert (ratios.matrix > 0).all()
        assert np.array_equal(np.diag(ratios.matrix), np.ones(5))
        np.testing.assert_allclose(ratios.matrix * ratios.matrix.T,
                                   np.ones((5, 5)), rtol=1e-15)

    def test_architecture_without_layer_rejected(self):
        with pytest.raises(ValueError, match="coefficients"):
            coeff_ratios(build_model("mlp", 2, 10, seed=0))

    def test_ranking_by_max_of_ratio_and_inverse(self):
        # three pairs with ratios 1, 4, 0.2 -> asymmetries 1, 4, 5
        model = build_model("nd", 2, 3, seed=0)
        for pos, ratio in enumerate([1.0, 4.0, 0.2]):
            model.nd_params.alpha[pos] = softplus_inverse(ratio)
            model.nd_params.beta[pos] = softplus_inverse(1.0)
        top = top_asymmetric(coeff_ratios(model), k=3)
        assert [e["ratio"] for e in top] == pytest.approx([0.2, 4.0, 1.0])
        assert [e["asymmetry"] for e in top] == pytest.approx([5.0, 4.0, 1.0])
        assert (top[0]["band_i"], top[0]["band_j"]) == ("band_1", "band_2")

    def test_topk_clamps_to_pair_count(self):
        model = build_model("nd", 2, 3, seed=0)
        assert len(top_asymmetric(coeff_ratios(model), k=50)) == 3
        assert len(top_asymmetric(coeff_ratios(model), k=2)) == 2

    @pytest.mark.parametrize("k", [0, -3, 2.5, True, "3", None])
    def test_k_must_be_an_int_of_at_least_one(self, k):
        ratios = coeff_ratios(build_model("nd", 2, 3, seed=0))
        with pytest.raises(ValueError, match="^k must be an integer"):
            top_asymmetric(ratios, k)

    def test_ties_keep_pair_order(self):
        model = build_model("nd", 2, 4, seed=0)  # all ratios exactly 1
        top = top_asymmetric(coeff_ratios(model), k=6)
        assert [(e["i"], e["j"]) for e in top] == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_round_tripped_checkpoint_identical_ratios(self, tmp_path, rng):
        model = build_model("nd", 2, 6, seed=4)
        model.nd_params.alpha[:] = rng.uniform(-2, 2, 15)
        model.nd_params.beta[:] = rng.uniform(-2, 2, 15)
        before = coeff_ratios(model).matrix
        path = tmp_path / "ck.json"
        save_checkpoint(model, path)
        after = coeff_ratios(load_checkpoint(path)).matrix
        assert np.array_equal(before, after)


class TestGradcheck:
    def test_layer_families_within_tolerance(self):
        report = gradcheck("ndlayer", trials=200, tolerance=1e-5, seed=0)
        assert report.passed
        assert set(report.max_errors) == {"alpha", "beta", "input"}

    def test_signed_variant_with_negative_inputs(self):
        report = gradcheck("ndlayer-signed", trials=200, tolerance=1e-5,
                           seed=0)
        assert report.passed

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            gradcheck("transformer")

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            gradcheck("ndlayer", tolerance=0.0)

    # 2.5 and "3" once ended in TypeErrors, True in a report of "trials: True"
    @pytest.mark.parametrize("trials", [0, -3, 2.5, "3", True])
    def test_trials_below_one_rejected(self, trials):
        with pytest.raises(ValueError, match="trials"):
            gradcheck("nd", depth=2, trials=trials)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf])
    def test_tolerance_must_be_finite(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            gradcheck("ndlayer", trials=1, tolerance=tolerance)

    def test_whole_model_families(self):
        report = gradcheck("attnd", depth=2, trials=3, tolerance=1e-4, seed=1)
        assert report.passed
        assert set(report.max_errors) == {"alpha", "beta", "attention",
                                          "dense", "input"}

    def test_deterministic(self):
        a = gradcheck("ndlayer", trials=50, tolerance=1e-5, seed=7)
        b = gradcheck("ndlayer", trials=50, tolerance=1e-5, seed=7)
        assert a.max_errors == b.max_errors

    @pytest.mark.parametrize("max_coords", [0, -1, True, False, 2.5, "40"])
    def test_max_coords_must_be_an_int_of_at_least_one(self, max_coords):
        with pytest.raises(ValueError, match="max_coords"):
            gradcheck("nd", depth=2, trials=1, max_coords=max_coords)

    @pytest.mark.parametrize("target", ["nd", "ndlayer"])
    @pytest.mark.parametrize("seed", [-1, 2.5, "3", True])
    def test_seed_must_be_a_nonnegative_int(self, target, seed):
        with pytest.raises(ValueError) as info:
            gradcheck(target, depth=2, trials=1, seed=seed)
        assert str(info.value) == f"seed must be a nonnegative integer, got {seed!r}"

    # a negative eps once warned in the signed input margin before it raised
    @pytest.mark.parametrize("target", evaluation.GRADCHECK_TARGETS)
    @pytest.mark.parametrize("eps", [-1.0, 0.0, math.nan, math.inf, True])
    def test_eps_must_be_positive_and_finite(self, target, eps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="eps"):
                gradcheck(target, depth=2, trials=1, eps=eps)

    @pytest.mark.parametrize("max_coords", [1, np.int64(3)])
    def test_smallest_max_coords_checks_every_family(self, max_coords):
        report = gradcheck("attnd", depth=2, trials=1, tolerance=1e-4,
                           max_coords=max_coords)
        assert report.passed
        assert set(report.max_errors) == {"alpha", "beta", "attention",
                                          "dense", "input"}
        assert min(report.max_errors.values()) > 0.0


def central_diff(fn, array, flat_index, h=evaluation.FD_STEP):
    """One central difference of ``fn()`` in ``array.flat[flat_index]``,
    which is perturbed in place and restored."""
    orig = array.flat[flat_index]
    array.flat[flat_index] = orig + h
    f_plus = fn()
    array.flat[flat_index] = orig - h
    f_minus = fn()
    array.flat[flat_index] = orig
    return (f_plus - f_minus) / (2.0 * h)


def full_forward_gradcheck(arch, depth, trials, seed, max_coords, tolerance,
                           eps=1e-8):
    """The whole-model check with one public ``model_forward`` of the 1-d
    row per evaluation, drawing from the rng in the order gradcheck does;
    returns (max_errors, passed)."""
    rng = np.random.default_rng(seed)
    worst = {}
    for _ in range(trials):
        model, bands, _ = evaluation._kink_free_sample(arch, depth, rng, eps)
        _, cache = network.model_forward(model, bands)
        grads, d_bands = network.model_backward(model, cache, 1.0)

        def objective():
            return network.model_forward(model, bands)[0]

        names = model.parameter_names() + ["input"]
        for name, array, analytic in zip(names, model.parameters() + [bands],
                                         grads + [d_bands]):
            family = ("input" if name == "input"
                      else evaluation._FAMILIES.get(name, "dense"))
            worst.setdefault(family, 0.0)
            coords = np.arange(array.size)
            if max_coords is not None and array.size > max_coords:
                coords = rng.choice(array.size, size=max_coords, replace=False)
            for k in coords:
                numeric = central_diff(objective, array, int(k))
                err = evaluation._rel_err(float(analytic.flat[int(k)]), numeric)
                worst[family] = float(np.maximum(worst[family], err))  # NaN sticks
    return worst, all(err < tolerance for err in worst.values())


class TestGradcheckReplay:
    """Replaying only the layers downstream of each perturbed array gives
    the reports of a full forward per evaluation, bit for bit."""

    @pytest.mark.parametrize("max_coords", [None, 40])
    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("arch", ["nd", "mlp", "attnd"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_reports_equal_full_forward_reference(self, arch, depth, seed,
                                                  max_coords):
        report = gradcheck(arch, depth=depth, trials=2, tolerance=1e-5,
                           seed=seed, max_coords=max_coords)
        worst, passed = full_forward_gradcheck(arch, depth, 2, seed,
                                               max_coords, 1e-5)
        assert report.max_errors == worst
        assert report.passed == passed


LAYER_FORWARDS = {
    "ndlayer": (ndlayer.nd_forward, ndlayer.nd_backward),
    "ndlayer-signed": (ndlayer.nd_forward_signed, ndlayer.nd_backward_signed),
    "ndlayer-softplus": (ndlayer.nd_forward_softplus,
                         ndlayer.nd_backward_softplus),
}


def per_coordinate_layer_gradcheck(target, trials, seed, eps=1e-8):
    """The bare-layer check with one public forward of the 1-d bands per
    coordinate and sign, drawing from the rng in the order gradcheck does;
    returns max_errors."""
    forward, backward = LAYER_FORWARDS[target]
    rng = np.random.default_rng(seed)
    worst = {}
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        if target == "ndlayer":
            bands = rng.uniform(0.01, 1.0, size=n)
        else:
            bands = rng.uniform(-1.0, 1.0, size=n)
        if target == "ndlayer-signed":
            margin = max(5e-3, 2.0 * math.sqrt(eps))
            small = np.abs(bands) < margin
            bands[small] = np.where(bands[small] >= 0, margin, -margin)
        n_pairs = n * (n - 1) // 2
        params = ndlayer.NdParams(rng.uniform(-2.0, 2.0, size=n_pairs),
                                  rng.uniform(-2.0, 2.0, size=n_pairs))
        delta = rng.uniform(-1.0, 1.0, size=n_pairs)
        _, cache = forward(bands, params, eps)
        grads = backward(cache, delta, params, eps)

        def objective():
            return float(delta @ forward(bands, params, eps)[0])

        for family, array, analytic in (("alpha", params.alpha, grads.d_alpha),
                                        ("beta", params.beta, grads.d_beta),
                                        ("input", bands, grads.d_input)):
            numeric = [central_diff(objective, array, k) for k in range(array.size)]
            errors = evaluation._rel_err(analytic, np.array(numeric))
            worst[family] = float(np.max(errors, initial=worst.get(family, 0.0)))
    return worst


class TestLayerGradcheckReplay:
    """The bare-layer checks score their perturbed copies in stacks and give
    the reports of one public forward per coordinate and sign, bit for bit,
    failing seeds included."""

    @pytest.mark.parametrize("target", list(LAYER_FORWARDS))
    @pytest.mark.parametrize("seed", [0, 5, 50, 186, 454, 473])
    def test_reports_equal_per_coordinate_reference(self, target, seed):
        report = gradcheck(target, trials=100, tolerance=1e-5, seed=seed)
        worst = per_coordinate_layer_gradcheck(target, 100, seed)
        assert report.max_errors == worst
        assert report.passed == all(err < 1e-5 for err in worst.values())
        assert report.depth is None


class TestGradcheckNonFinite:
    """A NaN or infinite gradient, analytic or numeric, fails its family."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_analytic_gradient_fails(self, bad, monkeypatch):
        real = network.model_backward

        def broken(model, cache, d_logit):
            grads, d_bands = real(model, cache, d_logit)
            grads[model.parameter_names().index("nd.alpha")][3] = bad
            return grads, d_bands

        monkeypatch.setattr(network, "model_backward", broken)
        report = gradcheck("nd", depth=2, trials=1, seed=0)
        assert not report.passed
        assert math.isnan(report.max_errors["alpha"])
        assert math.isnan(report.worst())
        others = {k: v for k, v in report.max_errors.items() if k != "alpha"}
        assert max(others.values()) < 1e-5

    def test_nan_central_difference_fails(self, monkeypatch):
        real = evaluation._stacked_logits

        def broken(model, row, probe, name, stack):
            logits = real(model, row, probe, name, stack)
            return np.full_like(logits, np.nan) if name == "nd.beta" else logits

        monkeypatch.setattr(evaluation, "_stacked_logits", broken)
        report = gradcheck("attnd", depth=3, trials=2, seed=0)
        assert not report.passed
        assert math.isnan(report.max_errors["beta"])
        assert math.isnan(report.worst())
        assert report.max_errors["alpha"] < 1e-5

    def test_worst_reports_nan_wherever_it_sits(self):
        for errors in ({"a": math.nan, "b": 0.5}, {"a": 0.5, "b": math.nan}):
            report = evaluation.GradcheckReport("nd", 2, 1, 1e-5, 1e-8, errors,
                                                False)
            assert math.isnan(report.worst())


def _array_sizes(values):
    """Sizes of the arrays in ``values``, in tuples and dataclasses too."""
    for value in values:
        if isinstance(value, np.ndarray):
            yield value.size
        elif isinstance(value, tuple):
            yield from _array_sizes(value)
        elif is_dataclass(value):
            yield from _array_sizes(vars(value).values())


MODEL_TARGETS = [(arch, depth) for arch in ("nd", "mlp", "attnd")
                 for depth in (2, 3, 4)]
LAYER_TARGETS = [(target, 3) for target in LAYER_FORWARDS]  # depth unused


def every_target_report(seed):
    """One trial of every gradcheck target, every coordinate."""
    return [gradcheck(target, depth=depth, trials=1, seed=seed, max_coords=None)
            for target, depth in MODEL_TARGETS + LAYER_TARGETS]


class TestStackedGradcheck:
    """The whole-model checks score the perturbed copies of an array in
    stacked blocks; a wrong gradient still fails, and the block size moves
    no bit of a report."""

    @pytest.mark.parametrize("family", ["alpha", "beta", "attention", "dense",
                                        "input"])
    def test_scaled_gradient_of_one_family_fails(self, family, monkeypatch):
        real = network.model_backward

        def scaled(model, cache, d_logit):
            grads, d_bands = real(model, cache, d_logit)
            if family == "input":
                return grads, d_bands * (1 + 1e-3)
            for name, grad in zip(model.parameter_names(), grads):
                if evaluation._FAMILIES.get(name, "dense") == family:
                    grad *= 1 + 1e-3
            return grads, d_bands

        monkeypatch.setattr(network, "model_backward", scaled)
        report = gradcheck("attnd", depth=3, trials=2, tolerance=1e-5, seed=0)
        assert not report.passed
        assert report.max_errors[family] >= 5e-4
        others = {k: v for k, v in report.max_errors.items() if k != family}
        assert len(others) == 4
        assert max(others.values()) < 1e-5

    def test_blocks_of_one_pair_give_the_same_reports(self, monkeypatch):
        default = every_target_report(3)
        stack_lengths = set()
        layer_lengths = set()
        real = evaluation._stacked_logits
        real_forward = evaluation._forward

        def spy(model, row, probe, name, stack):
            stack_lengths.add(len(stack))
            return real(model, row, probe, name, stack)

        def forward_spy(batch, block, *args):
            layer_lengths.add(max(len(batch), len(block)))
            return real_forward(batch, block, *args)

        monkeypatch.setattr(evaluation, "_stacked_logits", spy)
        monkeypatch.setattr(evaluation, "_forward", forward_spy)
        monkeypatch.setattr(network, "_BLOCK_ELEMENTS", 1)
        for got, want in zip(every_target_report(3), default, strict=True):
            assert got.max_errors == want.max_errors
            assert got.passed == want.passed
        assert stack_lengths == {2}
        assert layer_lengths == {2}

    def test_no_stacked_array_exceeds_the_block(self, monkeypatch):
        sizes = []

        def spy(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                result = real(*args, **kwargs)
                sizes.extend(_array_sizes((args, tuple(kwargs.values()), result)))
                return result
            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((evaluation, "_stacked_logits"),
                             (evaluation, "_forward"), (evaluation, "softplus"),
                             (network, "_gate"), (network, "_forward"),
                             (network, "_dense_forward"), (network, "softplus")):
            spy(module, name)
        every_target_report(3)
        assert max(sizes) <= network._BLOCK_ELEMENTS
        assert max(sizes) > network._BLOCK_ELEMENTS // 2  # blocks fill up


def small_synth(seed=0, n=240):
    return synth_generate(SynthSpec(
        n_samples=n,
        band_names=[f"b{k}" for k in range(10)],
        class0_mean=[0.04, 0.08, 0.05, 0.12, 0.28, 0.38, 0.42, 0.45, 0.22, 0.12],
        class1_mean=[0.05, 0.09, 0.07, 0.16, 0.22, 0.27, 0.30, 0.32, 0.26, 0.16],
        noise_sigma=0.03, gain_low=0.5, gain_high=2.0, seed=seed))


QUICK = TrainConfig(max_epochs=6, patience=6, seed=12)


class TestRunCrossval:
    def test_report_structure_and_param_count(self):
        ds = small_synth()
        result = run_crossval("nd", 2, ds, QUICK, n_folds=10)
        r = result.report
        assert r.n_params == 136
        assert len(r.fold_accuracies) == 10
        assert r.mean_accuracy == pytest.approx(np.mean(r.fold_accuracies))
        assert r.std_accuracy == pytest.approx(
            np.std(r.fold_accuracies, ddof=1))
        assert r.efficiency == pytest.approx(
            100.0 * r.mean_accuracy / 136 * 100)
        assert len(result.models) == 10 and len(result.histories) == 10

    def test_deterministic_reports(self):
        ds = small_synth()
        a = run_crossval("nd", 2, ds, QUICK, n_folds=10).report
        b = run_crossval("nd", 2, ds, QUICK, n_folds=10).report
        assert asdict(a) == asdict(b)

    def test_fold_runner_matches_serial(self):
        from ndnet.evaluation import crossval_fold
        ds = small_synth()
        serial = run_crossval("nd", 2, ds, QUICK, n_folds=10).report
        shuffled = run_crossval(
            "nd", 2, ds, QUICK, n_folds=10,
            fold_runner=lambda args: [crossval_fold(*a)
                                      for a in reversed(args)]).report
        assert asdict(serial) == asdict(shuffled)

    def test_divergence_names_the_fold(self):
        from ndnet.evaluation import crossval_fold
        ds = small_synth()
        config = TrainConfig(learning_rate=1e4, max_epochs=3, patience=3, seed=0)
        split = SplitSpec(n_folds=2, seed=0)
        with np.errstate(all="ignore"), pytest.raises(
                network.TrainingDiverged,
                match=r"^fold 1: training diverged at epoch \d") as info:
            crossval_fold("mlp", 3, ds, config, split, 1)
        assert info.value.fold == 1 and info.value.epoch >= 1

    def test_attach_noise_sweep_degradation(self):
        ds = small_synth()
        result = run_crossval("nd", 2, ds, QUICK, n_folds=10)
        report = attach_noise_sweep(result, ds, [0.0, 0.05, 0.10], seed=3)
        assert report.noise_etas == [0.0, 0.05, 0.10]
        assert len(report.noise_fold_accuracies) == 10
        clean = report.noise_mean_accuracies[0]
        assert clean == pytest.approx(report.mean_accuracy)
        assert report.degradation == pytest.approx(
            clean - report.noise_mean_accuracies[2])

    def test_attach_noise_sweep_makes_one_sweep_call(self, monkeypatch):
        ds = small_synth()
        result = run_crossval("nd", 2, ds, QUICK, n_folds=10)
        calls = []
        real = evaluation._sweep

        def counting(models, test_sets, etas, seed):
            calls.append(len(models))
            return real(models, test_sets, etas, seed)

        monkeypatch.setattr(evaluation, "_sweep", counting)
        attach_noise_sweep(result, ds, [0.0, 0.10], seed=3)
        assert calls == [10]

    def test_eta_zero_column_matches_fold_accuracies_bitwise(self):
        ds = small_synth()
        result = run_crossval("nd", 2, ds, QUICK, n_folds=10)
        report = attach_noise_sweep(result, ds, [0.0, 0.10], seed=3)
        for fold_accs, clean in zip(report.noise_fold_accuracies,
                                    report.fold_accuracies):
            assert fold_accs[0] == clean

    def test_serialization_round_trip(self):
        ds = small_synth()
        result = run_crossval("nd", 2, ds, QUICK, n_folds=10)
        attach_noise_sweep(result, ds, [0.0, 0.10], seed=3)
        doc = asdict(result.report)
        assert doc["arch"] == "nd" and doc["n_params"] == 136
        text = report_to_text(result.report)
        assert "mean +/- std" in text and "degradation" in text
        hist_rows = history_csv_rows(result.histories, "nd", 2, "val_accuracy")
        assert all(len(row) == 5 for row in hist_rows)
        assert {row[2] for row in hist_rows} == set(range(10))


class TestFoldTestSplit:
    def test_matches_stratified_split(self):
        from ndnet.data import stratified_split
        ds = small_synth()
        split = SplitSpec(n_folds=10, seed=12)
        for fold in (0, 7):
            direct = stratified_split(ds, split, fold)[2]
            via_helper = fold_test_split(ds, split, fold)
            assert np.array_equal(direct.X, via_helper.X)

    def test_builds_only_the_test_subset(self, monkeypatch):
        from ndnet.data import stratified_split
        ds = small_synth()
        split = SplitSpec(n_folds=10, seed=12)
        expected = stratified_split(ds, split, 3)[2]
        built = []
        subset = Dataset.subset

        def counting(self, indices):
            built.append(len(indices))
            return subset(self, indices)

        monkeypatch.setattr(Dataset, "subset", counting)
        test_set = fold_test_split(ds, split, 3)
        assert built == [expected.n_samples]
        assert test_set.X.tobytes() == expected.X.tobytes()
        assert test_set.y.tobytes() == expected.y.tobytes()
