"""Self-test of the benchmark's checks.

Every check must pass on the program's real outputs and fail when fed a
deliberately wrong forward or wrong gradients. Run from the root of a
checkout (takes about ten seconds):

    python3 bench/selftest.py

Prints one line per expectation and exits 1 if any is not met.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ndnet import data as dm  # noqa: E402
from ndnet import evaluation as ev  # noqa: E402
from ndnet import ndlayer  # noqa: E402
from ndnet import network as net  # noqa: E402

TINY = workloads.Sizes(epochs=4, folds=3, samples=240, wide_bands=12,
                       wide_samples=150, scene_rows=3000, ckpt_epochs=3, fit_epochs=3,
                       layer_trials=5, model_trials=1, depths=(2,))

results = []


def expect(passes: bool, message, name: str):
    """Record whether a check gave the verdict it should."""
    ok = (message is None) == passes
    results.append(ok)
    verdict = "passes" if passes else "fails"
    print(f"[{'ok' if ok else 'WRONG'}] {name} {verdict}"
          + (f": {message}" if message and not passes else "")
          + (f" (unexpected: {message})" if message and passes else ""))


# -- wrong forwards ----------------------------------------------------------


def swapped(X, alpha, beta, eps, signed=False):
    return reference.nd_features(X, beta, alpha, eps, signed)


def dropped_eps(X, alpha, beta, eps, signed=False):
    return reference.nd_features(X, alpha, beta, 0.0, signed)


def without_relu(doc):
    doc = dict(doc, activations=["identity"] * len(doc["activations"]))
    return doc


# -- wrong gradients ---------------------------------------------------------


def swap_coefficient_grads(backward):
    def wrong(cache, upstream, params, eps):
        g = backward(cache, upstream, params, eps)
        return SimpleNamespace(d_alpha=g.d_beta, d_beta=g.d_alpha, d_input=g.d_input)
    return wrong


def without_softplus_chain(backward):
    """Gradients with respect to softplus(alpha), not alpha."""
    def wrong(cache, upstream, params, eps):
        g = backward(cache, upstream, params, eps)
        return SimpleNamespace(d_alpha=g.d_alpha / reference.sigmoid(params.alpha),
                               d_beta=g.d_beta / reference.sigmoid(params.beta),
                               d_input=g.d_input)
    return wrong


def random_model(arch, depth, rng, band_names):
    model = net.build_model(arch, depth, len(band_names), seed=int(rng.integers(1000)),
                            band_names=band_names)
    if model.nd_params is not None:
        model.nd_params.alpha[:] = rng.uniform(-2, 2, model.nd_params.n_pairs)
        model.nd_params.beta[:] = rng.uniform(-2, 2, model.nd_params.n_pairs)
    if model.attn_weights is not None:
        model.attn_weights[:] = rng.uniform(-1, 1, model.attn_weights.shape)
    return model


def test_workloads_pass():
    """The whole pipeline of every workload passes its checks, traced or not."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                work_dir = os.path.join(tmp, f"{name}-{trace}")
                os.mkdir(work_dir)
                result = run.measure(name, 3, 1, trace, work_dir, TINY)
                ok = result["correct"] and result["failed"] == 0
                expect(True, None if ok else str(result), f"workload {name} trace={trace}")


def test_forward_checks():
    rng = np.random.default_rng(7)
    names, X, y = workloads.spectra(400, 10, 11)
    for arch, depth in (("nd", 2), ("attnd", 3), ("mlp", 2)):
        model = random_model(arch, depth, rng, names)
        doc = workloads._doc(model)
        ref = reference.model_logits(doc, X)
        got, _ = net.model_forward(model, X)
        expect(True, checks.logits_close(got, ref, arch), f"logits_close {arch}")
        acc = net.accuracy_from_logits(got, y)
        expect(True, checks.accuracy_matches(acc, ref, y, arch), f"accuracy_matches {arch}")
        if arch == "mlp":
            wrong = reference.model_logits(without_relu(doc), X)
            expect(False, checks.logits_close(wrong, ref, arch), "logits_close mlp without relu")
            continue
        for label, nd in (("swapped alpha/beta", swapped), ("dropped eps", dropped_eps)):
            wrong = reference.model_logits(doc, X, nd=nd)
            expect(False, checks.logits_close(wrong, ref, arch), f"logits_close {arch} {label}")
        wrong = reference.model_logits(doc, X, nd=swapped)
        expect(False, checks.accuracy_matches(net.accuracy_from_logits(wrong, y), ref, y, arch),
               f"accuracy_matches {arch} swapped alpha/beta")

        noisy = dm.inject_noise(dm.Dataset(names, X, y), 0.5, 1).X
        ref = reference.model_logits(doc, noisy, signed=True)
        got, _ = net.model_forward(model, noisy, signed=True)
        expect(True, checks.logits_close(got, ref, arch), f"logits_close signed {arch}")
        wrong = reference.model_logits(doc, noisy, signed=True, nd=dropped_eps)
        expect(False, checks.logits_close(wrong, ref, arch),
               f"logits_close signed {arch} dropped eps")


def test_training_checks():
    names, X, y = workloads.spectra(300, 10, 12)
    train, val = dm.Dataset(names, X[:200], y[:200]), dm.Dataset(names, X[200:], y[200:])
    config = net.TrainConfig(max_epochs=6, patience=6, seed=1)
    start = net.build_model("nd", 2, 10, seed=1, band_names=names)
    untrained = workloads._doc(start)
    model, history = net.train(start.copy(), train, val, config)
    ref_val = reference.model_logits(workloads._doc(model), val.X)
    expect(True, checks.restored_is_best(ref_val, val.y, history, "nd"), "restored_is_best")
    expect(False, checks.restored_is_best(reference.model_logits(untrained, val.X),
                                          val.y, history, "nd"),
           "restored_is_best with the untrained parameters")
    expect(True, checks.loss_decreased(history, "nd"), "loss_decreased")
    rising = SimpleNamespace(train_loss=history.train_loss[::-1])
    expect(False, checks.loss_decreased(rising, "nd"), "loss_decreased on a rising loss")
    expect(True, checks.ran_epochs(history, 6, "nd"), "ran_epochs")
    stopped = SimpleNamespace(val_accuracy=history.val_accuracy[:4])
    expect(False, checks.ran_epochs(stopped, 6, "nd"), "ran_epochs after an early stop")

    clean = ev.accuracy(model, val)
    sweep = ev.noise_sweep(model, val, [0.0, 0.1], 3)
    expect(True, checks.eta0_is_clean(sweep[0], clean, "nd"), "eta0_is_clean")
    expect(False, checks.eta0_is_clean(clean + 1 / val.n_samples, clean, "nd"),
           "eta0_is_clean off by one row")


def test_data_checks():
    names, X, y = workloads.spectra(50, 10, 13)
    scene = dm.Dataset(names, X, y)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scene.csv")
        dm.save_csv(scene, path)
        loaded = dm.load_csv(path)
    expect(True, checks.identical(loaded.X, X, "X"), "identical CSV round trip")
    nudged = X.copy()
    nudged[3, 4] = np.nextafter(nudged[3, 4], 1.0)
    expect(False, checks.identical(nudged, X, "X"), "identical with one value one ulp off")
    expect(True, checks.no_negatives(dm.inject_noise(scene, 0.1, 1).X, "eta 0.1"),
           "no_negatives at eta=0.1")
    expect(False, checks.no_negatives(dm.inject_noise(scene, 0.5, 1).X, "eta 0.5"),
           "no_negatives at eta=0.5")


def test_gradient_checks():
    names, X, _ = workloads.spectra(20, 10, 14)
    rng = np.random.default_rng(5)
    params = ndlayer.NdParams(rng.uniform(-1, 1, 45), rng.uniform(-1, 1, 45))
    for message in workloads.layer_backward_checks(params, X[:4], 6):
        expect(True, message, "backward_matches_fd nd_backward / nd_backward_signed")
    plain = (ndlayer.nd_forward, ndlayer.nd_backward)
    signed = (ndlayer.nd_forward_signed, ndlayer.nd_backward_signed)
    wrongs = {
        "swapped coefficient gradients": {
            "plain": (plain[0], swap_coefficient_grads(plain[1])),
            "signed": (signed[0], swap_coefficient_grads(signed[1]))},
        "no softplus chain factor": {
            "plain": (plain[0], without_softplus_chain(plain[1])),
            "signed": (signed[0], without_softplus_chain(signed[1]))},
        "plain backward after the signed forward": {"signed": (signed[0], plain[1])},
    }
    for label, substitutes in wrongs.items():
        messages = workloads.layer_backward_checks(params, X[:4], 6, substitutes)
        for variant in substitutes:
            expect(False, messages[("plain", "signed").index(variant)],
                   f"backward_matches_fd {variant} with {label}")

    report = ev.gradcheck("nd", depth=2, trials=1, tolerance=checks.MODEL_GRAD_TOL,
                          seed=3, max_coords=None)
    expect(True, checks.gradcheck_passed(report, checks.MODEL_GRAD_TOL, "nd"),
           "gradcheck_passed")
    original = net.model_backward

    def wrong_model_backward(model, cache, d_logit):
        grads, d_bands = original(model, cache, d_logit)
        grads[0], grads[1] = grads[1], grads[0]  # nd.alpha <-> nd.beta
        return grads, d_bands

    net.model_backward = wrong_model_backward
    try:
        report = ev.gradcheck("nd", depth=2, trials=1, tolerance=checks.MODEL_GRAD_TOL,
                              seed=3, max_coords=None)
    finally:
        net.model_backward = original
    expect(False, checks.gradcheck_passed(report, checks.MODEL_GRAD_TOL, "nd"),
           "gradcheck_passed with swapped coefficient gradients")


def main() -> int:
    for test in (test_forward_checks, test_training_checks, test_data_checks,
                 test_gradient_checks, test_workloads_pass):
        test()
    failed = results.count(False)
    print(f"{len(results) - failed}/{len(results)} expectations met")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
