"""The three benchmark workloads: crossval, scoring and gradcheck.

Each workload makes its inputs from the seed alone, hands the program
only those inputs, and exposes these steps:

* ``prepare()``  writes the input files (not timed);
* ``setup()``    the work a user does before the measured phase (timed
                 as ``setup_s``); returns the optimizer steps it ran and
                 the seconds they took;
* ``run_round()`` one fixed amount of measured work; returns the outputs
                 and the number of operations that raised;
* ``work()``     the optimizer steps and the forward-only rows (rows x
                 model passes) a round's outputs stand for (not timed);
* ``fingerprint()`` what must repeat exactly in every later round;
* ``check()``    failure messages for one round's outputs.

The amount of work in a round never depends on timing or on results:
training runs with patience equal to the epoch cap, so every fold runs
the same number of epochs on every commit.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
import reference
from ndnet import cli
from ndnet import data as dm
from ndnet import evaluation as ev
from ndnet import ndlayer
from ndnet import network as net

ETAS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10)  # the paper's sweep; no negative values
SIGNED_ETAS = (0.3, 0.5)  # scored with the signed forward, called explicitly
EPS = 1e-8
FD_MARGIN = 0.01  # the smallest |value| the layer gradient checks use


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does; ``FULL`` is the benchmark's."""

    epochs: int = 10           # crossval epoch cap = patience
    folds: int = 10
    samples: int = 2000        # packaged 10-band spectra
    wide_bands: int = 32       # 32-band variant: 496 pairs
    wide_samples: int = 1000
    scene_rows: int = 100_000  # three rounds fit in a 30 s run
    # Set-up training: long enough that its step rate, the only one of
    # scoring and gradcheck, averages over a few seconds of a noisy machine.
    ckpt_epochs: int = 40      # scoring checkpoints
    fit_epochs: int = 60       # gradcheck set-up fit
    layer_trials: int = 100
    model_trials: int = 2
    depths: tuple = (2, 3, 4)


FULL = Sizes()


def subseed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# inputs


def spectra(n_samples: int, n_bands: int, seed: int):
    """Two-class spectra from the packaged class means, with a gain nuisance.

    Follows the recipe of the packaged synthetic spec (gain * (mean +
    sigma * z), clamped at 1e-4) with the benchmark's own generator. For
    more than 10 bands the packaged means are interpolated linearly.
    Returns (band_names, X, y), balanced and shuffled.
    """
    spec = dm.default_synth_spec()
    grid = np.linspace(0, spec.n_bands - 1, n_bands)
    means = np.array([np.interp(grid, np.arange(spec.n_bands), m)
                      for m in (spec.class0_mean, spec.class1_mean)])
    names = (list(spec.band_names) if n_bands == spec.n_bands
             else [f"band_{k:02d}" for k in range(n_bands)])
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.arange(n_samples) % 2)
    z = rng.standard_normal((n_samples, n_bands))
    gains = rng.uniform(spec.gain_low, spec.gain_high, size=n_samples)
    X = np.maximum(gains[:, None] * (means[y] + spec.noise_sigma * z), 1e-4)
    return names, X, y


def write_csv(path, names, X, y):
    """The dataset CSV format, written without the program's writer."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(list(names) + ["label"]) + "\n")
        for row, label in zip(X.tolist(), y.tolist()):
            fh.write(",".join(repr(v) for v in row) + f",{label}\n")


@contextlib.contextmanager
def capture(module, name, sink):
    """Append every result of ``module.name`` to ``sink`` while active."""
    original = getattr(module, name)

    def hook(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, name, hook)
    try:
        yield
    finally:
        setattr(module, name, original)


def _doc(model) -> dict:
    return json.loads(net.checkpoint_to_json(model))


def _steps(epochs: int, n_train: int, config) -> int:
    return epochs * math.ceil(n_train / config.batch_size)


def _failed_unit(ops: int, exc: Exception) -> int:
    print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    return ops


# ---------------------------------------------------------------------------
# crossval


class Crossval:
    """Stratified 10-fold CV plus noise sweeps of nd, attnd and mlp at depth 2.

    The ROADMAP's training items (flat parameters, stacked folds,
    telemetry) do most of their work here; the 32-band nd part is where
    the pairwise layer dominates the step.
    """

    setup_repeats = 5

    def __init__(self, seed, sizes, work_dir):
        self.seed, self.sizes, self.work_dir = seed, sizes, work_dir
        self.units = (("nd", "narrow"), ("attnd", "narrow"), ("mlp", "narrow"),
                      ("nd", "wide"))
        self.ops_per_round = len(self.units) * sizes.folds
        self.config = net.TrainConfig(max_epochs=sizes.epochs,
                                      patience=sizes.epochs, seed=seed, eps=EPS)

    def prepare(self):
        s = self.sizes
        self.paths = {}
        for key, n, bands, k in (("narrow", s.samples, 10, 1),
                                 ("wide", s.wide_samples, s.wide_bands, 2)):
            self.paths[key] = os.path.join(self.work_dir, f"{key}.csv")
            write_csv(self.paths[key], *spectra(n, bands, subseed(self.seed, k)))

    def setup(self):
        self.datasets = {k: dm.load_csv(p) for k, p in self.paths.items()}
        return 0, 0.0

    def run_round(self):
        outputs, failed = [], 0
        for arch, key in self.units:
            dataset = self.datasets[key]
            try:
                result = ev.run_crossval(arch, 2, dataset, self.config,
                                         n_folds=self.sizes.folds)
                ev.attach_noise_sweep(result, dataset, ETAS, self.seed)
            except Exception as exc:  # counted, reported, and the round goes on
                failed += _failed_unit(self.sizes.folds, exc)
                continue
            outputs.append((arch, key, dataset, result))
        return outputs, failed

    def work(self, outputs):
        steps = rows = 0
        for _, _, dataset, result in outputs:
            for fold, history in enumerate(result.histories):
                train, val, test = dm.stratified_split(dataset, result.split, fold)
                epochs = len(history.val_accuracy)
                steps += _steps(epochs, train.n_samples, self.config)
                rows += epochs * val.n_samples + test.n_samples * (1 + len(ETAS))
        return steps, rows

    @staticmethod
    def fingerprint(outputs):
        return [(a, k, r.report.fold_accuracies, r.report.noise_fold_accuracies)
                for a, k, _, r in outputs]

    def check(self, outputs):
        failures = []
        for arch, key, dataset, result in outputs:
            report = result.report
            for fold, (model, history) in enumerate(zip(result.models,
                                                        result.histories)):
                what = f"crossval {arch} {key} fold {fold}"
                _, val, test = dm.stratified_split(dataset, result.split, fold)
                doc = _doc(model)
                ref_test = reference.model_logits(doc, test.X)
                logits, _ = net.model_forward(model, test.X)
                clean = report.fold_accuracies[fold]
                failures += [
                    checks.ran_epochs(history, self.sizes.epochs, what),
                    checks.logits_close(logits, ref_test, what),
                    checks.accuracy_matches(clean, ref_test, test.y, what),
                    checks.restored_is_best(reference.model_logits(doc, val.X),
                                            val.y, history, what),
                    checks.eta0_is_clean(report.noise_fold_accuracies[fold][0],
                                         clean, what),
                    checks.loss_decreased(history, what),
                ]
        return [f for f in failures if f]


# ---------------------------------------------------------------------------
# scoring


class Scoring:
    """Trained checkpoints applied to a large scene through the user's path.

    Forward-only bulk arithmetic: the noise CLI in-process over three
    checkpoints, then the signed forward of nd and attnd on strongly
    perturbed scenes. The ROADMAP's routing fix and merged pairwise layer
    show here; per-step training savings should not.
    """

    setup_repeats = 4
    models = (("nd", 2), ("attnd", 4), ("mlp", 2))
    signed_models = (("nd", 2), ("attnd", 4))

    def __init__(self, seed, sizes, work_dir):
        self.seed, self.sizes, self.work_dir = seed, sizes, work_dir
        self.ops_per_round = len(self.models) + len(self.signed_models) * len(SIGNED_ETAS)
        self.noise_seed = subseed(seed, 3)
        self.config = net.TrainConfig(max_epochs=sizes.ckpt_epochs,
                                      patience=sizes.ckpt_epochs, seed=seed, eps=EPS)

    def prepare(self):
        s = self.sizes
        names, X, y = spectra(s.samples, 10, subseed(self.seed, 1))
        n_train = int(0.7 * s.samples)
        self.train_paths = []
        for part, rows in (("train", slice(0, n_train)), ("val", slice(n_train, None))):
            path = os.path.join(self.work_dir, f"{part}.csv")
            write_csv(path, names, X[rows], y[rows])
            self.train_paths.append(path)
        names, X, y = spectra(s.scene_rows, 10, subseed(self.seed, 2))
        self.scene = dm.Dataset(names, X, y)
        self.scene_path = os.path.join(self.work_dir, "scene.csv")
        self.ckpt_paths = [os.path.join(self.work_dir, f"{a}_d{d}.json")
                           for a, d in self.models]
        self.round = 0

    def setup(self):
        train, val = (dm.load_csv(p) for p in self.train_paths)
        steps, train_s = 0, 0.0
        for (arch, depth), path in zip(self.models, self.ckpt_paths):
            model = net.build_model(arch, depth, train.n_bands,
                                    seed=subseed(self.seed, 4, depth),
                                    eps=EPS, band_names=train.band_names)
            start = time.perf_counter()
            model, history = net.train(model, train, val, self.config)
            train_s += time.perf_counter() - start
            steps += _steps(len(history.val_accuracy), train.n_samples, self.config)
            net.save_checkpoint(model, path)
        dm.save_csv(self.scene, self.scene_path)
        return steps, train_s

    def run_round(self):
        self.round += 1
        out_dir = os.path.join(self.work_dir, f"round_{self.round}")
        outputs = {"loaded": [], "signed": {}}
        failed = 0
        argv = ["noise", *self.ckpt_paths, "--data", self.scene_path,
                "--etas", ",".join(repr(e) for e in ETAS),
                "--seed", str(self.noise_seed), "--out", out_dir]
        try:
            with capture(dm, "load_csv", outputs["loaded"]), \
                    contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
            if status != 0:
                raise RuntimeError(f"ndnet noise exited with {status}")
            (run,) = os.listdir(out_dir)
            with open(os.path.join(out_dir, run, "noise.json"), encoding="utf-8") as fh:
                outputs["noise"] = json.load(fh)
        except Exception as exc:
            failed += _failed_unit(len(self.models), exc)
        outputs["noisy"] = {eta: dm.inject_noise(self.scene, eta,
                                                 subseed(self.seed, 5, k))
                            for k, eta in enumerate(SIGNED_ETAS)}
        for arch_depth in self.signed_models:
            path = self.ckpt_paths[self.models.index(arch_depth)]
            try:
                model = net.load_checkpoint(path)
                for eta, noisy in outputs["noisy"].items():
                    logits, _ = net.model_forward(model, noisy.X, signed=True)
                    outputs["signed"][(path, eta)] = logits
            except Exception as exc:
                failed += _failed_unit(len(SIGNED_ETAS), exc)
        return outputs, failed

    def work(self, outputs):
        passes = len(self.models) * len(ETAS) + len(self.signed_models) * len(SIGNED_ETAS)
        return 0, passes * self.scene.n_samples

    @staticmethod
    def fingerprint(outputs):
        return outputs.get("noise", {}).get("curves")

    def check(self, outputs):
        failures = []
        if "noise" not in outputs or len(outputs["loaded"]) != 1:
            return ["scoring: the noise command gave no result to check"]
        (loaded,) = outputs["loaded"]
        failures.append(checks.identical(loaded.X, self.scene.X, "scene CSV round trip: X"))
        failures.append(checks.identical(loaded.y, self.scene.y, "scene CSV round trip: y"))

        # The noise command's realizations, captured from a second sweep
        # with the same seed (realizations are fixed per (seed, eta)).
        mlp_index = self.models.index(("mlp", 2))
        noisy = []
        with capture(dm, "inject_noise", noisy):
            mlp_sweep = ev.noise_sweep(net.load_checkpoint(self.ckpt_paths[mlp_index]),
                                       loaded, ETAS, self.noise_seed)
        if len(noisy) != len(ETAS):
            return failures + [f"scoring: captured {len(noisy)} noisy scenes, "
                               f"expected {len(ETAS)}"]
        for eta, scene in zip(ETAS, noisy):
            failures.append(checks.no_negatives(scene.X, f"scene at eta={eta}"))
        curves = outputs["noise"]["curves"]
        failures.append(checks.identical(mlp_sweep, curves[mlp_index]["accuracies"],
                                         "mlp sweep, repeated"))
        docs = {}
        for path in self.ckpt_paths:
            with open(path, encoding="utf-8") as fh:
                docs[path] = json.load(fh)
        for path, curve in zip(self.ckpt_paths, curves):
            for eta, scene, acc in zip(ETAS, noisy, curve["accuracies"]):
                ref = reference.model_logits(docs[path], scene.X)
                failures.append(checks.accuracy_matches(
                    acc, ref, scene.y, f"noise.json {curve['arch']} eta={eta}"))
        for (path, eta), logits in outputs["signed"].items():
            ref = reference.model_logits(docs[path], outputs["noisy"][eta].X, signed=True)
            failures.append(checks.logits_close(
                logits, ref, f"signed {docs[path]['arch']} eta={eta}"))
        return [f for f in failures if f]


# ---------------------------------------------------------------------------
# gradcheck


class Gradcheck:
    """evaluation.gradcheck on every target; whole models at depths 2-4.

    Thousands of one-row forward calls, so per-call overhead dominates
    and no optimizer runs. The only workload that runs the softplus
    variant of the layer.
    """

    setup_repeats = 5

    # evaluation.gradcheck reports these two as failed on some seeds with
    # correct gradients: its central differences with an absolute step of
    # 1e-5 lose accuracy on inputs near 0.01 (seed 454: 1.7e-4 on ndlayer,
    # seed 50: 1.7e-5 on ndlayer-signed). The benchmark checks nd_backward
    # and nd_backward_signed itself instead (``layer_backward_checks``).
    left_out = ("ndlayer", "ndlayer-signed")

    def __init__(self, seed, sizes, work_dir):
        self.seed, self.sizes, self.work_dir = seed, sizes, work_dir
        self.targets = []
        for target in ev.GRADCHECK_TARGETS:
            if target in net.ARCHITECTURES:
                self.targets += [(target, d) for d in sizes.depths]
            elif target not in self.left_out:
                self.targets.append((target, None))
        self.ops_per_round = len(self.targets)
        self.config = net.TrainConfig(max_epochs=sizes.fit_epochs,
                                      patience=sizes.fit_epochs, seed=seed, eps=EPS)

    def prepare(self):
        names, X, y = spectra(self.sizes.samples, 10, subseed(self.seed, 1))
        n_train = int(0.7 * len(y))
        self.paths = []
        for part, rows in (("train", slice(0, n_train)), ("val", slice(n_train, None))):
            path = os.path.join(self.work_dir, f"{part}.csv")
            write_csv(path, names, X[rows], y[rows])
            self.paths.append(path)
        # central differences need every coordinate checked, twice per trial
        self.fd_rows = sum(
            self.sizes.model_trials * 2
            * (net.count_params(net.build_model(t, d, 10)) + 10)
            for t, d in self.targets if d is not None)

    def setup(self):
        """Fit an nd model whose coefficients the layer checks start from."""
        train, val = (dm.load_csv(p) for p in self.paths)
        model = net.build_model("nd", 2, train.n_bands, seed=self.seed, eps=EPS,
                                band_names=train.band_names)
        start = time.perf_counter()
        model, history = net.train(model, train, val, self.config)
        train_s = time.perf_counter() - start
        self.fitted = model.nd_params.copy()
        self.rows = train.X[:4].copy()
        return _steps(len(history.val_accuracy), train.n_samples, self.config), train_s

    def run_round(self):
        reports, failed = [], 0
        for target, depth in self.targets:
            try:
                if depth is None:
                    report = ev.gradcheck(target, trials=self.sizes.layer_trials,
                                          tolerance=checks.LAYER_GRAD_TOL,
                                          seed=self.seed, eps=EPS)
                else:
                    report = ev.gradcheck(target, depth=depth,
                                          trials=self.sizes.model_trials,
                                          tolerance=checks.MODEL_GRAD_TOL,
                                          seed=self.seed, eps=EPS, max_coords=None)
            except Exception as exc:
                failed += _failed_unit(1, exc)
                continue
            reports.append(report)
        return reports, failed

    def work(self, outputs):
        return 0, self.fd_rows

    @staticmethod
    def fingerprint(outputs):
        return [(r.target, r.depth, r.max_errors) for r in outputs]

    def check(self, outputs):
        failures = [checks.gradcheck_passed(r, checks.MODEL_GRAD_TOL if r.depth
                                            else checks.LAYER_GRAD_TOL,
                                            f"gradcheck {r.target} depth={r.depth}")
                    for r in outputs]
        failures += layer_backward_checks(self.fitted, self.rows,
                                          subseed(self.seed, 6))
        return [f for f in failures if f]


def layer_backward_checks(params, rows, seed, forward_backward=None):
    """nd_backward and nd_backward_signed against the reference, at ``params``.

    The plain layer sees the spectra rows; the signed layer sees them
    perturbed at eta=0.5. Both keep every value at least FD_MARGIN away
    from zero, where central differences stop being accurate (and the
    smooth absolute value curves sharply). ``forward_backward`` maps
    "plain"/"signed" to (forward, backward); tests substitute wrong ones.
    """
    pairs = {"plain": (ndlayer.nd_forward, ndlayer.nd_backward),
             "signed": (ndlayer.nd_forward_signed, ndlayer.nd_backward_signed)}
    pairs.update(forward_backward or {})
    rng = np.random.default_rng(seed)
    rows = np.maximum(rows, FD_MARGIN)
    signed_rows = rows * (1.0 + 0.5 * rng.standard_normal(rows.shape))
    small = np.abs(signed_rows) < FD_MARGIN
    signed_rows[small] = np.where(signed_rows[small] >= 0, FD_MARGIN, -FD_MARGIN)
    failures = []
    for variant, X in (("plain", rows), ("signed", signed_rows)):
        forward, backward = pairs[variant]
        delta = rng.uniform(-1.0, 1.0, size=(X.shape[0], params.n_pairs))
        _, cache = forward(X, params, EPS)
        grads = backward(cache, delta, params, EPS)
        failures.append(checks.backward_matches_fd(
            {"alpha": grads.d_alpha, "beta": grads.d_beta, "input": grads.d_input},
            X, params.alpha, params.beta, delta, EPS, variant == "signed",
            f"nd_backward ({variant})"))
    return failures


WORKLOADS = {"crossval": Crossval, "scoring": Scoring, "gradcheck": Gradcheck}
