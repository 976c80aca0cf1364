"""Correctness checks of the benchmark.

Each check returns None when it holds and a one-line message when it
does not. They compare the program's outputs with the independent
reference in ``reference.py`` or with properties the method must have;
none compares with stored output.
"""

from __future__ import annotations

import math

import numpy as np

from reference import nd_features

# Logits may differ from the reference by rounding: a reordered sum or a
# merged quotient moves a logit by a few ulps (~1e-15 relative). Dropping
# the eps of the denominator moves it by ~1e-8, so 1e-9 separates the two.
LOGIT_RTOL = 1e-9
# Acceptance criterion 1: layer gradients within 1e-5 of central
# differences, whole-model gradients within 1e-4.
LAYER_GRAD_TOL = 1e-5
MODEL_GRAD_TOL = 1e-4
FD_STEP = 1e-4  # extrapolated from steps h and h/2
GRAD_ABS_FLOOR = 1e-5  # gradients below this compare against it, as in criterion 1


def logits_close(got, want, what):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return f"{what}: logits of shape {got.shape}, reference {want.shape}"
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    worst = float(err.max()) if err.size else 0.0
    if not worst <= LOGIT_RTOL:
        return f"{what}: logits differ from the reference by {worst:.3e} (> {LOGIT_RTOL:g})"
    return None


def accuracy_matches(reported, ref_logits, labels, what):
    """The reported accuracy equals the reference's.

    Only rows whose reference logit lies within the logit tolerance of
    the 0 threshold may be predicted either way.
    """
    ref_logits = np.asarray(ref_logits, dtype=np.float64)
    labels = np.asarray(labels)
    n = labels.size
    near = np.abs(ref_logits) <= LOGIT_RTOL * np.maximum(1.0, np.abs(ref_logits))
    right = (ref_logits > 0).astype(labels.dtype) == labels
    low = int((right & ~near).sum())
    high = low + int(near.sum())
    count = float(reported) * n
    if abs(count - round(count)) > 1e-6 * n or not low <= round(count) <= high:
        return (f"{what}: reported accuracy {reported!r} is {count:.3f}/{n} right, "
                f"reference {low}..{high}/{n}")
    return None


def restored_is_best(restored_ref_logits, val_labels, history, what):
    """The restored model scores the best validation accuracy in its history."""
    best = max(history.val_accuracy)
    return accuracy_matches(best, restored_ref_logits, val_labels,
                            f"{what}: restored model vs history maximum")


def eta0_is_clean(sweep_eta0, clean, what):
    if sweep_eta0 != clean:
        return f"{what}: eta=0 sweep accuracy {sweep_eta0!r} != clean accuracy {clean!r}"
    return None


def loss_decreased(history, what):
    first, last = history.train_loss[0], history.train_loss[-1]
    if not last < first:
        return f"{what}: final training loss {last!r} is not below the first {first!r}"
    return None


def ran_epochs(history, epochs, what):
    if len(history.val_accuracy) != epochs:
        return (f"{what}: ran {len(history.val_accuracy)} epochs, the fixed "
                f"work is {epochs}")
    return None


def no_negatives(X, what):
    n = int((np.asarray(X) < 0).sum())
    if n:
        return f"{what}: {n} negative values"
    return None


def identical(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or got.dtype != want.dtype:
        return f"{what}: {got.shape}/{got.dtype} vs {want.shape}/{want.dtype}"
    if not np.array_equal(got, want):
        n = int((got != want).sum())
        return f"{what}: {n} values differ"
    return None


def gradcheck_passed(report, tolerance, what):
    worst = max(report.max_errors.values()) if report.max_errors else math.inf
    if not (report.passed and worst < tolerance):
        return (f"{what}: gradcheck failed, worst relative error {worst:.3e} "
                f"(tolerance {tolerance:g}): {report.max_errors}")
    return None


def backward_matches_fd(grads, X, alpha, beta, delta, eps, signed, what):
    """Analytic layer gradients against central differences of the reference.

    ``grads`` maps "alpha", "beta" and "input" to the program's gradients
    of sum(delta * N(X)) with respect to alpha, beta and X. The differences
    are taken in extended precision with Richardson extrapolation over two
    steps, which keeps their own error near 1e-8 relative even for small
    gradients of inputs near 0.01, so a failure means a wrong gradient.
    """
    wide = np.longdouble
    X, alpha, beta = (np.array(a, dtype=wide) for a in (X, alpha, beta))
    delta = np.asarray(delta, dtype=wide)

    def terms():
        return delta * nd_features(X, alpha, beta, wide(eps), signed)

    def central(array, k, h):
        orig = array.flat[k]
        array.flat[k] = orig + h
        f_plus = terms()
        array.flat[k] = orig - h
        f_minus = terms()
        array.flat[k] = orig
        # difference term by term before summing: the terms the coordinate
        # does not touch cancel exactly instead of adding their rounding
        return (f_plus - f_minus).sum() / (2 * h)

    worst = {}
    for family, array in (("alpha", alpha), ("beta", beta), ("input", X)):
        analytic = np.asarray(grads[family], dtype=np.float64)
        if analytic.shape != array.shape:
            return f"{what}: d_{family} has shape {analytic.shape}, expected {array.shape}"
        err = 0.0
        for k in range(array.size):
            # inputs take a step relative to their size, coefficients an absolute one
            h = FD_STEP * (abs(array.flat[k]) if family == "input" else 1)
            numeric = float((4 * central(array, k, h / 2) - central(array, k, h)) / 3)
            a = float(analytic.flat[k])
            err = max(err, abs(a - numeric) / max(abs(a), abs(numeric), GRAD_ABS_FLOOR))
        worst[family] = err
    if not max(worst.values()) < LAYER_GRAD_TOL:
        return (f"{what}: gradients differ from central differences of the "
                f"reference: {worst} (tolerance {LAYER_GRAD_TOL:g})")
    return None
