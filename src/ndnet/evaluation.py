"""Metrics, noise robustness sweeps, coefficient analysis and grad checks.

Everything reported here is deterministic given the seeds carried in the
inputs and re-uses one fixed noise realization per (seed, eta), so
architecture comparisons at a given noise level are paired.

Every gradient check takes its analytic side from the public forwards
and backwards (``model_forward``/``model_backward``, ``nd_forward*``/
``nd_backward*``) and its central differences from one engine,
``_stacked_diffs``: the fl(x + h) and fl(x - h) copies of an array's
checked coordinates are stacked on a new leading axis, in blocks of at
most ``network._BLOCK_ELEMENTS`` floats per stacked array, and each block
is scored by one call through the private cores (``ndlayer._forward``,
``network._gate``, ``network._dense_forward``), which broadcast over that
axis. A bare-layer block, of the raw alpha|beta coefficients or of the
input row, is one ``_forward`` call, which applies softplus to the block
itself. A whole-model block replays only the stages downstream of the
perturbed array: a dense layer's arrays replay that layer and the ones
after it from the input it was given, the attention gate's arrays replay
the gate on the cached pair outputs and then every dense layer, the
pairwise coefficients (as the alpha|beta block of the vector) replay
``_forward`` on the stacked block, then the gate and the dense layers,
and the input replays the whole forward.

This is exact, not an approximation. The stages before the perturbed
array see unperturbed parameters and the same row, so their outputs are
the bits that one unperturbed ``_model_forward`` on the row kept. Every
stack item is scored by the elementwise ops and the per-item one-row
matrix products (``x[:, None, :] @ W.T`` for a dense layer, ``N @ delta``
for the layer's functional) that one row gets; a multi-row product would
round differently. The pair gather of ``ndlayer._forward`` is C-ordered
for a stack too, since a strided gather makes those products round
differently. So every central difference and ``GradcheckReport`` is the
one that a public forward per evaluation gives, bit for bit, whatever the
block size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import data as data_mod
from . import network as net
from .ndlayer import (
    NdParams,
    _check_eps,
    _forward,
    _pair_indexer,
    nd_backward,
    nd_backward_signed,
    nd_backward_softplus,
    nd_forward,
    nd_forward_signed,
    nd_forward_softplus,
    pair_count,
)
from .ndmath import softplus

__all__ = [
    "EvalReport",
    "CrossvalResult",
    "CoeffRatioMatrix",
    "GradcheckReport",
    "accuracy",
    "efficiency",
    "noise_sweep",
    "coeff_ratios",
    "top_asymmetric",
    "gradcheck",
    "run_crossval",
    "attach_noise_sweep",
    "fold_test_split",
    "report_to_text",
    "history_csv_rows",
    "GRADCHECK_TARGETS",
]


# ---------------------------------------------------------------------------
# basic metrics


def accuracy(model: net.Model, dataset) -> float:
    """Fraction of samples whose thresholded logit matches the label.

    ``dataset``, a Dataset or an (X, y) pair, is validated once by
    ``network._check_set``, negatives allowed. sigmoid(logit) > 0.5
    predicts class 1; the exact tie predicts class 0. Rows containing a
    negative value (noise-perturbed inputs) are scored by the signed
    forward, the other rows by the plain one, so a row's logit does not
    depend on which rows share its set.
    """
    dataset = net._check_set(model, dataset, True, "dataset")
    X = dataset.X
    negative = (X < 0).any(axis=1)
    if negative.any():
        logits = np.empty(dataset.n_samples)
        logits[~negative] = net._model_logits(model, X[~negative])
        logits[negative] = net._model_logits(model, X[negative], signed=True)
    else:
        logits = net._model_logits(model, X)
    return net.accuracy_from_logits(logits, dataset.y)


def efficiency(accuracy_pct: float, n_params: int) -> float:
    """Accuracy percentage points per 100 parameters."""
    if n_params <= 0:
        raise ValueError("parameter count must be positive")
    return accuracy_pct / n_params * 100.0


# ---------------------------------------------------------------------------
# noise sweep


def _child_seed(*keys) -> int:
    """A seed derived from integer keys: one noise realization per (seed,
    eta's float64 bits), one model seed per (config seed, fold)."""
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])


def noise_sweep(model: net.Model, test_set, etas, seed: int):
    """Accuracy per noise level; returns a list parallel to ``etas``.

    Noise realizations are fixed per (seed, eta), so every model swept
    with the same arguments sees identical perturbed inputs. The eta = 0
    entry is the clean accuracy, bit for bit.
    """
    return _sweep([model], [test_set], etas, seed)[0]


def _sweep(models, test_sets, etas, seed: int):
    """``noise_sweep`` of each model on its own test set: one accuracy list
    per model, each parallel to ``etas``.

    Each distinct test-set object is swept once, in order of first use,
    for all of its models. Each realization is drawn once, through
    ``data.inject_noise``, and every model of its test set is scored on
    it before the next is drawn, so one noisy copy is alive at a time.
    """
    etas = [float(e) for e in etas]
    if any(not (0 <= e <= 0.5) for e in etas):
        raise ValueError("etas must lie within [0, 0.5]")
    if etas != sorted(etas):
        raise ValueError("etas must be sorted ascending")
    data_mod._check_seed(seed)
    out = [[] for _ in models]
    groups = {}  # id(test set) -> (test set, [(accuracies, model)])
    for accs, model, test_set in zip(out, models, test_sets, strict=True):
        groups.setdefault(id(test_set), (test_set, []))[1].append((accs, model))
    for test_set, members in groups.values():
        for eta in etas:
            noisy = data_mod.inject_noise(
                test_set, eta, _child_seed(seed, np.float64(eta).view(np.uint64)))
            for accs, model in members:
                accs.append(accuracy(model, noisy))
            del noisy  # not alive while the next realization is drawn
    return out


# ---------------------------------------------------------------------------
# coefficient interpretability


@dataclass
class CoeffRatioMatrix:
    """Pairwise learned-asymmetry ratios softplus(alpha)/softplus(beta).

    Entry (i, j) with i < j holds the pair's ratio; (j, i) holds the
    reciprocal and the diagonal is 1.
    """

    band_names: list
    matrix: np.ndarray

    @property
    def n_bands(self) -> int:
        return len(self.band_names)

    def ratio(self, i: int, j: int) -> float:
        return float(self.matrix[i, j])


def coeff_ratios(model: net.Model) -> CoeffRatioMatrix:
    """Ratio matrix of a model whose first layer is pairwise-normalized; a
    ratio or reciprocal that over- or underflows is a ValueError."""
    if model.nd_params is None:
        raise ValueError(
            f"architecture {model.arch!r} has no coupling coefficients"
        )
    with np.errstate(all="ignore"):  # checked below
        ratios = softplus(model.nd_params.alpha) / softplus(model.nd_params.beta)
        inverse = 1.0 / ratios
    if not (np.isfinite(ratios).all() and np.isfinite(inverse).all()):
        raise ValueError("a coupling coefficient ratio is 0 or not finite")
    indexer = model.indexer
    matrix = np.ones((model.n_bands, model.n_bands))
    matrix[indexer.i_idx, indexer.j_idx] = ratios
    matrix[indexer.j_idx, indexer.i_idx] = inverse
    return CoeffRatioMatrix(list(model.band_names), matrix)


def top_asymmetric(ratio_matrix: CoeffRatioMatrix, k: int):
    """The k band pairs deviating most from the symmetric 1:1 weighting.

    Asymmetry of a pair is max(ratio, 1/ratio); ties keep lexicographic
    pair order. ``k`` must be an int of at least 1; k larger than the pair
    count returns every pair.
    """
    if not (data_mod._is_int(k) and k >= 1):
        raise ValueError(f"k must be an integer of at least 1, got {k!r}")
    indexer = _pair_indexer(ratio_matrix.n_bands)
    entries = []
    for i, j in indexer.pairs:
        ratio = ratio_matrix.ratio(i, j)
        entries.append({
            "i": i,
            "j": j,
            "band_i": ratio_matrix.band_names[i],
            "band_j": ratio_matrix.band_names[j],
            "ratio": ratio,
            "asymmetry": max(ratio, 1.0 / ratio),
        })
    entries.sort(key=lambda e: -e["asymmetry"])  # stable: ties keep pair order
    return entries[:k]


# ---------------------------------------------------------------------------
# gradient checking

GRADCHECK_TARGETS = ("nd", "mlp", "attnd", "ndlayer", "ndlayer-signed",
                     "ndlayer-softplus")

FD_STEP = 1e-5
# Central differences are only trustworthy where the third derivative is
# moderate. The smooth-absolute-value denominator has a high-curvature
# ridge of width ~sqrt(eps) around zero (third derivative peaks near
# 0.7/eps there), and ReLU units have a kink at zero, so sampling keeps
# a margin away from both.
RELU_KINK_MARGIN = 1e-3


def _signed_input_margin(eps: float) -> float:
    return max(5e-3, 2.0 * np.sqrt(eps))
# Gradients this small sit at the roundoff floor of a step-1e-5 central
# difference (|f| ~ 1 gives ~5e-12 of noise), e.g. at saturated outputs
# where the true derivative is O(eps). Such coordinates are compared
# against this scale instead of their own magnitude.
GRAD_ABS_FLOOR = 1e-5


@dataclass
class GradcheckReport:
    target: str
    depth: int | None
    trials: int
    tolerance: float
    eps: float
    max_errors: dict  # family -> worst relative error observed, NaN if any
    passed: bool  # every family's worst error is below tolerance, none NaN

    def worst(self) -> float:
        """The largest family error, NaN when any family's error is NaN."""
        return float(np.max(list(self.max_errors.values()), initial=0.0))


def _rel_err(analytic, numeric):
    """Elementwise relative error, against GRAD_ABS_FLOOR for tiny gradients;
    NaN, without a warning, where either side is not finite."""
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)),
                       GRAD_ABS_FLOOR)
    with np.errstate(invalid="ignore"):
        return np.abs(analytic - numeric) / scale


def _record(worst, family, analytic, numeric):
    """Raise ``worst[family]`` (from 0) to the largest ``_rel_err`` of the
    paired ``analytic`` and ``numeric`` values. A non-finite gradient on
    either side gives a NaN error (inf/inf, or a NaN operand), which sticks:
    the family then fails every tolerance."""
    errors = _rel_err(analytic, numeric)
    worst[family] = float(np.max(errors, initial=worst.get(family, 0.0)))


# Error families of the whole-model targets; every other array is "dense".
_FAMILIES = {"nd.alpha": "alpha", "nd.beta": "beta", "attn.weights": "attention",
             "attn.bias": "attention", "input": "input"}

# Public forward and backward, and ``_forward``'s signed flag (softplus
# lifts the inputs first); the numeric side stacks through ``_forward``.
_LAYER_VARIANTS = {
    "ndlayer": (nd_forward, nd_backward, False),
    "ndlayer-signed": (nd_forward_signed, nd_backward_signed, True),
    "ndlayer-softplus": (nd_forward_softplus, nd_backward_softplus, False),
}


def _gradcheck_layer(target, trials, seed, eps):
    forward, backward, signed = _LAYER_VARIANTS[target]
    lift = softplus if target == "ndlayer-softplus" else np.asarray
    rng = np.random.default_rng(seed)
    worst = {}
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        if target == "ndlayer":
            bands = rng.uniform(0.01, 1.0, size=n)
        else:
            bands = rng.uniform(-1.0, 1.0, size=n)
            if signed:
                margin = _signed_input_margin(eps)
                small = np.abs(bands) < margin
                bands[small] = np.where(bands[small] >= 0, margin, -margin)
        n_pairs = pair_count(n)
        params = NdParams(rng.uniform(-2.0, 2.0, size=n_pairs),
                          rng.uniform(-2.0, 2.0, size=n_pairs))
        delta = rng.uniform(-1.0, 1.0, size=n_pairs)

        _, cache = forward(bands, params, eps)
        grads = backward(cache, delta, params, eps)
        idx = _pair_indexer(n)

        def objective(x, block):  # delta . N per item of an (S, 1, .) stack
            out, _ = _forward(lift(x), block, eps, idx, signed)
            return (out @ delta)[:, 0]

        row = bands[None]
        block = np.concatenate((params.alpha, params.beta))[None]
        numeric = _stacked_diffs(lambda stack: objective(row, stack), block,
                                 np.arange(2 * n_pairs), n)
        _record(worst, "alpha", grads.d_alpha, numeric[:n_pairs])
        _record(worst, "beta", grads.d_beta, numeric[n_pairs:])
        _record(worst, "input", grads.d_input, _stacked_diffs(
            lambda stack: objective(stack, block), row, np.arange(n), n))
    return worst


def _random_model(arch, depth, n_bands, rng, eps):
    """A built model with its pairwise and attention arrays redrawn."""
    model = net.build_model(arch, depth, n_bands, seed=int(rng.integers(2 ** 31)),
                            eps=eps)
    for name, array in zip(model.parameter_names(), model.parameters()):
        if not name.startswith("dense"):
            scale = 1.0 if name.startswith("nd.") else 0.5
            array[...] = rng.uniform(-scale, scale, array.shape)
    return model


def _kink_free_sample(arch, depth, rng, eps):
    """A random 10-band model, an input row whose ReLU pre-activations all
    lie at least RELU_KINK_MARGIN from zero, so that FD perturbations do
    not cross a kink mid-check, and the ``_model_forward`` cache of that
    row as a one-row batch."""
    for _attempt in range(200):
        model = _random_model(arch, depth, 10, rng, eps)
        bands = rng.uniform(0.01, 1.0, size=10)
        _, probe = net._model_forward(model, bands[None, :])
        if all(np.abs(dense.pre).min() >= RELU_KINK_MARGIN
               for layer, dense in zip(model.layers, probe.dense)
               if layer.activation == "relu"):
            return model, bands, probe
    raise RuntimeError("could not sample a kink-free configuration")


def _gradcheck_model(arch, depth, trials, seed, eps, max_coords):
    rng = np.random.default_rng(seed)
    worst = {}
    for _ in range(trials):
        model, bands, probe = _kink_free_sample(arch, depth, rng, eps)
        _, cache = net.model_forward(model, bands)
        grads, d_bands = net.model_backward(model, cache, 1.0)
        row = cache.batch
        for name, array, analytic in zip(model.parameter_names() + ["input"],
                                         model.parameters() + [row],
                                         grads + [d_bands]):
            coords = np.arange(array.size)
            if max_coords is not None and array.size > max_coords:
                coords = rng.choice(array.size, size=max_coords, replace=False)
            base, offset = array, 0
            if name.startswith("nd."):  # the alpha|beta block, as the core reads it
                base = model.vector[:2 * model.nd_params.n_pairs]
                offset = base.size // 2 if name == "nd.beta" else 0
            numeric = _stacked_diffs(
                lambda stack: _stacked_logits(model, row, probe, name, stack),
                base, coords + offset, model.n_bands)
            _record(worst, _FAMILIES.get(name, "dense"), analytic.flat[coords],
                    numeric)
    return worst


def _stacked_diffs(score, base, coords, n_bands):
    """Central differences of ``score`` in the flat ``coords`` of ``base``.

    ``score`` maps a stack of S copies of ``base``, shaped
    ``(S,) + base.shape``, to S values. With h = FD_STEP, the fl(x + h)
    copies of a block of coordinates and then their fl(x - h) copies are
    stacked and scored by one ``score`` call. A block holds at most
    ``net._block_rows(n_bands, base.size)`` copies, and at least one pair.
    """
    per_block = max(1, net._block_rows(n_bands, base.size) // 2)
    numeric = np.empty(len(coords))
    for start in range(0, len(coords), per_block):
        ks = coords[start:start + per_block]
        m = len(ks)
        stack = np.repeat(base[None], 2 * m, axis=0)
        orig = base.flat[ks]
        stack.reshape(2 * m, -1)[np.arange(2 * m), np.tile(ks, 2)] = np.concatenate(
            (orig + FD_STEP, orig - FD_STEP))
        values = score(stack)
        numeric[start:start + m] = (values[:m] - values[m:]) / (2.0 * FD_STEP)
    return numeric


def _stacked_logits(model, row, probe, name, stack):
    """The logit of the one-row batch ``row`` once per item of ``stack``,
    each item standing in for the array ``name`` of ``model.parameters()``
    (for nd.alpha and nd.beta, the alpha|beta block of the vector) or for
    ``row`` itself (``"input"``).

    Only the stages from the first one that reads the array are replayed,
    over the stack axis; the earlier stages' outputs come from ``probe``,
    the cache of one unperturbed ``_model_forward`` on ``row`` (the module
    docstring says why this is exact).
    """
    stage, _, part = name.partition(".")
    if stage == "input":
        return net._model_forward(model, stack)[0][:, 0]
    layers = model.layers
    if stage == "nd":
        x, _ = _forward(row, stack[:, None], model.eps, model.indexer, False)
        if model.attn_layer is not None:
            x, _ = net._gate(model.attn_layer, row, x)
    elif stage == "attn":
        W, c = ((stack, model.attn_bias) if part == "weights"
                else (model.attn_weights, stack[:, None]))
        rows = np.broadcast_to(row, (len(stack),) + row.shape)
        x, _ = net._gate(net.DenseLayer(W, c, "identity"), rows, probe.gate[2])
    else:
        k = int(stage[len("dense"):])
        layer = model.layers[k]
        W, b = ((stack, layer.bias) if part == "weights"
                else (layer.weights, stack[:, None]))
        inputs = probe.dense[k].inputs
        x = np.broadcast_to(inputs, (len(stack),) + inputs.shape)
        layers = [net.DenseLayer(W, b, layer.activation)] + model.layers[k + 1:]
    for layer in layers:
        x, _ = net._dense_forward(layer, x)
    return x[:, 0, 0]


def gradcheck(target: str, depth: int = 3, trials: int = 100,
              tolerance: float = 1e-5, seed: int = 0, eps: float = net.DEFAULT_EPS,
              max_coords: int | None = 40) -> GradcheckReport:
    """Compare analytic gradients with central finite differences.

    ``target`` is one of GRADCHECK_TARGETS: the three whole architectures
    (checked end to end on the logit) or the bare pairwise layer in its
    three variants (checked on a random linear functional of the
    outputs). ``max_coords`` caps the coordinates checked per array per
    trial for the whole-model targets (nd depth 4 has 6 dense arrays, so
    up to 6 x 40 dense coordinates per trial at the default); ``None``
    checks every coordinate. It must be None or an int of at least 1,
    ``seed`` an int of at least 0, and ``eps`` a positive finite real.
    """
    if target not in GRADCHECK_TARGETS:
        raise ValueError(f"unknown gradcheck target {target!r}")
    if not (tolerance > 0 and np.isfinite(tolerance)):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    if not (data_mod._is_int(trials) and trials >= 1):
        raise ValueError(f"trials must be an integer of at least 1, got {trials!r}")
    if max_coords is not None and not (data_mod._is_int(max_coords)
                                       and max_coords >= 1):
        raise ValueError(f"max_coords must be None or an int of at least 1, "
                         f"got {max_coords!r}")
    data_mod._check_seed(seed)
    eps = _check_eps(eps)
    if target in _LAYER_VARIANTS:
        worst = _gradcheck_layer(target, trials, seed, eps)
        report_depth = None
    else:
        worst = _gradcheck_model(target, depth, trials, seed, eps, max_coords)
        report_depth = depth
    passed = all(err < tolerance for err in worst.values())
    return GradcheckReport(target=target, depth=report_depth, trials=trials,
                           tolerance=tolerance, eps=eps, max_errors=worst,
                           passed=passed)


# ---------------------------------------------------------------------------
# cross-validation


@dataclass
class EvalReport:
    arch: str
    depth: int
    seed: int
    n_folds: int
    n_params: int
    fold_accuracies: list
    mean_accuracy: float
    std_accuracy: float
    efficiency: float
    noise_etas: list | None = None
    noise_fold_accuracies: list | None = None  # [fold][eta]
    noise_mean_accuracies: list | None = None
    degradation: float | None = None


@dataclass
class CrossvalResult:
    report: EvalReport
    models: list
    histories: list
    split: data_mod.SplitSpec


def crossval_fold(arch: str, depth: int, dataset, config: net.TrainConfig,
                  split: data_mod.SplitSpec, fold: int):
    """Train and test one fold; returns (fold, test_accuracy, model, history)."""
    train_set, val_set, test_set = data_mod.stratified_split(dataset, split, fold)
    seed = _child_seed(config.seed, fold)
    model = net.build_model(arch, depth, dataset.n_bands, seed=seed,
                            eps=config.eps, band_names=dataset.band_names)
    fold_config = replace(config, seed=seed)
    try:
        model, history = net.train(model, train_set, val_set, fold_config)
    except net.TrainingDiverged as exc:
        raise net.TrainingDiverged(f"fold {fold}: {exc}", exc.epoch, fold) from None
    return fold, accuracy(model, test_set), model, history


def run_crossval(arch: str, depth: int, dataset, config: net.TrainConfig,
                 n_folds: int = 10, fold_runner=None) -> CrossvalResult:
    """Stratified k-fold cross-validation of one architecture/depth.

    Each fold trains on its 70% with early stopping on its 20% and is
    scored on its held-out 10%. Per-fold model seeds derive from
    config.seed and the fold index, so reports are bit-reproducible.
    ``fold_runner`` may map ``crossval_fold`` arguments in parallel; fold
    results are assembled by index either way.
    """
    split = data_mod.SplitSpec(n_folds=n_folds, seed=config.seed)
    args = [(arch, depth, dataset, config, split, fold)
            for fold in range(n_folds)]
    if fold_runner is None:
        outcomes = [crossval_fold(*a) for a in args]
    else:
        outcomes = list(fold_runner(args))
    outcomes.sort(key=lambda item: item[0])

    accs = [acc for _, acc, _, _ in outcomes]
    models = [m for _, _, m, _ in outcomes]
    histories = [h for _, _, _, h in outcomes]
    n_params = net.count_params(models[0])
    mean_acc = float(np.mean(accs))
    report = EvalReport(
        arch=arch,
        depth=depth,
        seed=config.seed,
        n_folds=n_folds,
        n_params=n_params,
        fold_accuracies=[float(a) for a in accs],
        mean_accuracy=mean_acc,
        std_accuracy=float(np.std(accs, ddof=1)),
        efficiency=efficiency(100.0 * mean_acc, n_params),
    )
    return CrossvalResult(report, models, histories, split)


def fold_test_split(dataset, split: data_mod.SplitSpec, fold: int):
    """The held-out test part of one fold."""
    _, _, test_rows = data_mod._fold_rows(dataset.y, split, fold)
    return dataset.subset(test_rows)


def attach_noise_sweep(result: CrossvalResult, dataset, etas, seed: int
                       ) -> EvalReport:
    """Sweep every fold's model over noise levels and fill the report.

    Uses the same (seed, eta)-keyed realizations for every fold's test
    set, so sweeps of different architectures over the same data are
    paired. Degradation is the mean clean-accuracy drop from eta = 0 to
    eta = 0.10 when both levels are present.
    """
    etas = [float(e) for e in etas]
    per_fold = _sweep(result.models,
                      [fold_test_split(dataset, result.split, fold)
                       for fold in range(len(result.models))], etas, seed)
    mean_accs = [float(np.mean([fa[k] for fa in per_fold]))
                 for k in range(len(etas))]
    report = result.report
    report.noise_etas = etas
    report.noise_fold_accuracies = [[float(a) for a in fa] for fa in per_fold]
    report.noise_mean_accuracies = mean_accs
    if 0.0 in etas and 0.10 in etas:
        report.degradation = (mean_accs[etas.index(0.0)]
                              - mean_accs[etas.index(0.10)])
    return report


# ---------------------------------------------------------------------------
# report serialization


def report_to_text(report: EvalReport) -> str:
    lines = [
        f"architecture : {report.arch}",
        f"depth        : {report.depth}",
        f"folds        : {report.n_folds}",
        f"seed         : {report.seed}",
        f"parameters   : {report.n_params}",
        f"efficiency   : {report.efficiency:.2f} (accuracy % per 100 params)",
        "",
        "fold   test accuracy",
    ]
    for fold, acc in enumerate(report.fold_accuracies):
        lines.append(f"{fold:4d}   {acc:.4f}")
    lines.append("")
    lines.append(f"mean +/- std : {report.mean_accuracy:.4f} +/- "
                 f"{report.std_accuracy:.4f}")
    if report.noise_etas:
        lines.append("")
        lines.append("eta     mean accuracy")
        for eta, acc in zip(report.noise_etas, report.noise_mean_accuracies):
            lines.append(f"{eta:.2f}    {acc:.4f}")
        if report.degradation is not None:
            lines.append("")
            lines.append(f"degradation (0 -> 0.10): {report.degradation:.4f}")
    return "\n".join(lines) + "\n"


def history_csv_rows(histories, arch: str, depth: int, metric: str):
    """Rows (epoch, value, fold, arch, depth) for one history metric."""
    rows = []
    for fold, history in enumerate(histories):
        series = getattr(history, metric)
        for epoch, value in enumerate(series, start=1):
            rows.append((epoch, value, fold, arch, depth))
    return rows
