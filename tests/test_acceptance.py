"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print. The long experiment (criteria 4-7) runs once per session and
is shared by the dependent criteria.
"""

import json
import math
import os
import time
from dataclasses import asdict

import numpy as np
import pytest

from ndnet.cli import main as cli_main
from ndnet.data import default_synth_spec, stratified_split, synth_generate
from ndnet.evaluation import (
    accuracy,
    attach_noise_sweep,
    coeff_ratios,
    efficiency,
    gradcheck,
    run_crossval,
)
from ndnet.ndlayer import (
    NdParams,
    PairIndexer,
    nd_backward,
    nd_backward_signed,
    nd_backward_softplus,
    nd_forward,
    nd_forward_signed,
    nd_forward_softplus,
    pair_count,
)
from ndnet.network import TrainConfig, build_model, count_params, \
    load_checkpoint, save_checkpoint

EXPERIMENT_SEED = 42
NOISE_ETAS = [0.0, 0.02, 0.04, 0.06, 0.08, 0.10]


def verdict(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity


FD_STEP = 1e-5
FLOOR = 1e-5  # gradients below the FD noise floor compare against this scale


def rel_err(analytic, numeric):
    scale = max(abs(analytic), abs(numeric), FLOOR)
    return abs(analytic - numeric) / scale


def fd_check_layer(forward, backward, bands, params, eps, delta, families):
    """Finite-difference oracle, local to the acceptance suite."""

    def objective():
        out, _ = forward(bands, params, eps)
        return float(np.dot(delta, out))

    _, cache = forward(bands, params, eps)
    grads = backward(cache, delta, params, eps)
    n = bands.size

    targets = [("alpha", params.alpha, grads.d_alpha),
               ("beta", params.beta, grads.d_beta)]
    for name, array, analytic in targets:
        for k in range(array.size):
            orig = array.flat[k]
            array.flat[k] = orig + FD_STEP
            fp = objective()
            array.flat[k] = orig - FD_STEP
            fm = objective()
            array.flat[k] = orig
            err = rel_err(float(analytic.flat[k]), (fp - fm) / (2 * FD_STEP))
            families[name] = max(families[name], err)
    for k in range(n):
        orig = bands[k]
        bands[k] = orig + FD_STEP
        fp = objective()
        bands[k] = orig - FD_STEP
        fm = objective()
        bands[k] = orig
        err = rel_err(float(grads.d_input[k]), (fp - fm) / (2 * FD_STEP))
        if n == 2:
            # single pair: coordinate 0 is the pure first-band partial,
            # coordinate 1 the pure second-band partial
            key = "input_i" if k == 0 else "input_j"
        else:
            key = "input_accumulated"
        families[key] = max(families[key], err)


def run_layer_fidelity(variant, trials_per_eps, rng):
    forward, backward, signed = {
        "plain": (nd_forward, nd_backward, False),
        "signed": (nd_forward_signed, nd_backward_signed, True),
        "softplus": (nd_forward_softplus, nd_backward_softplus, True),
    }[variant]
    families = {"alpha": 0.0, "beta": 0.0, "input_i": 0.0, "input_j": 0.0,
                "input_accumulated": 0.0}
    configs = 0
    for eps in (1e-8, 1e-4):
        margin = max(5e-3, 2.0 * math.sqrt(eps))
        for trial in range(trials_per_eps):
            n = 2 if trial % 2 == 0 else int(rng.integers(3, 7))
            if signed:
                bands = rng.uniform(-1.0, 1.0, size=n)
                if variant == "signed":
                    # FD itself is invalid on the smooth-|b| curvature
                    # ridge around zero; keep a step-safe margin
                    small = np.abs(bands) < margin
                    bands[small] = np.where(bands[small] >= 0, margin, -margin)
            else:
                bands = rng.uniform(0.01, 1.0, size=n)
            p = pair_count(n)
            params = NdParams(rng.uniform(-2.0, 2.0, p),
                              rng.uniform(-2.0, 2.0, p))
            delta = rng.uniform(-1.0, 1.0, p)
            fd_check_layer(forward, backward, bands, params, eps, delta,
                           families)
            configs += 1
    return families, configs


def test_criterion_1_gradient_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    details = []
    worst_layer = 0.0
    for variant in ("plain", "signed", "softplus"):
        families, configs = run_layer_fidelity(variant, trials_per_eps=500,
                                               rng=rng)
        worst = max(families.values())
        worst_layer = max(worst_layer, worst)
        details.append(f"{variant}({configs} cfgs) {worst:.2e}")
        assert worst < 1e-5, (variant, families)

    worst_model = 0.0
    for arch in ("nd", "mlp", "attnd"):
        for depth in (2, 3, 4):
            report = gradcheck(arch, depth=depth, trials=2, tolerance=1e-4,
                               seed=17, eps=1e-8, max_coords=None)
            worst_model = max(worst_model, report.worst())
            assert report.passed, (arch, depth, report.max_errors)
    runtime = time.perf_counter() - start
    verdict(
        "criterion 1 (gradient fidelity)",
        worst_layer < 1e-5 and worst_model < 1e-4 and runtime < 30.0,
        f"layer worst {worst_layer:.2e} < 1e-5 [{'; '.join(details)}], "
        f"whole-model worst {worst_model:.2e} < 1e-4, "
        f"runtime {runtime:.1f}s < 30s")


# ---------------------------------------------------------------------------
# criterion 2: parameter counts and efficiency


def test_criterion_2_parameter_counts():
    start = time.perf_counter()
    expected = {
        ("nd", 2): 136, ("nd", 3): 2206, ("nd", 4): 4276,
        ("mlp", 2): 541, ("mlp", 3): 2611, ("mlp", 4): 4681,
        ("attnd", 2): 631, ("attnd", 3): 2701, ("attnd", 4): 4771,
    }
    mismatches = {
        key: (count_params(build_model(key[0], key[1], 10, seed=0)), want)
        for key, want in expected.items()
        if count_params(build_model(key[0], key[1], 10, seed=0)) != want
    }
    eff_nd = efficiency(96.50, 136)
    eff_mlp = efficiency(97.20, 541)
    eff_ok = abs(eff_nd - 70.96) <= 0.01 and abs(eff_mlp - 17.97) <= 0.01
    runtime = time.perf_counter() - start
    verdict(
        "criterion 2 (parameter counts)",
        not mismatches and eff_ok and runtime < 1.0,
        f"all nine counts exact (mismatches: {mismatches or 'none'}), "
        f"efficiency {eff_nd:.2f}/{eff_mlp:.2f} vs 70.96/17.97, "
        f"runtime {runtime:.2f}s < 1s")


# ---------------------------------------------------------------------------
# criterion 3: invariance and bounds


def test_criterion_3_invariance_and_bounds():
    start = time.perf_counter()
    rng = np.random.default_rng(99)

    bands = rng.uniform(0.0, 1.0, size=(100_000, 6))
    params = NdParams(rng.uniform(-3, 3, 15), rng.uniform(-3, 3, 15))
    out, _ = nd_forward(bands, params, eps=1e-8)
    bounded = bool((out >= -1.0).all() and (out <= 1.0).all())

    worst_scale = 0.0
    for _ in range(200):
        x = rng.uniform(0.01, 1.0, size=8)
        p = NdParams(rng.uniform(-2, 2, 28), rng.uniform(-2, 2, 28))
        base, _ = nd_forward(x, p, eps=1e-12)
        for k in (0.5, 2.0, 10.0):
            scaled, _ = nd_forward(k * x, p, eps=1e-12)
            worst_scale = max(worst_scale, float(np.max(np.abs(scaled - base))))

    worst_classical = 0.0
    idx = PairIndexer(8)
    for shared in (-1.5, 0.0, 0.8, 2.0):
        x = rng.uniform(0.01, 1.0, size=8)
        p = NdParams(np.full(28, shared), np.full(28, shared))
        out, _ = nd_forward(x, p, eps=1e-12)
        classical = (x[idx.i_idx] - x[idx.j_idx]) / (x[idx.i_idx] + x[idx.j_idx])
        worst_classical = max(worst_classical,
                              float(np.max(np.abs(out - classical))))

    runtime = time.perf_counter() - start
    verdict(
        "criterion 3 (invariance and bounds)",
        bounded and worst_scale < 1e-6 and worst_classical < 1e-9
        and runtime < 10.0,
        f"10^5 outputs in [-1,1]: {bounded}, scaling drift {worst_scale:.2e} "
        f"< 1e-6, classical-index gap {worst_classical:.2e} < 1e-9, "
        f"runtime {runtime:.1f}s < 10s")


# ---------------------------------------------------------------------------
# criteria 4-7 share one experiment on the shipped synthetic dataset


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    dataset = synth_generate(default_synth_spec())
    config = TrainConfig(seed=EXPERIMENT_SEED)
    runs = {}
    timings = {}
    for arch in ("nd", "mlp"):
        t0 = time.perf_counter()
        result = run_crossval(arch, 2, dataset, config, n_folds=10)
        attach_noise_sweep(result, dataset, NOISE_ETAS, seed=EXPERIMENT_SEED)
        timings[arch] = time.perf_counter() - t0
        runs[arch] = result
    workdir = tmp_path_factory.mktemp("acceptance")
    return {"dataset": dataset, "config": config, "runs": runs,
            "timings": timings, "workdir": workdir}


def test_criterion_4_synthetic_accuracy(experiment):
    nd = experiment["runs"]["nd"].report
    mlp = experiment["runs"]["mlp"].report
    gap = abs(nd.mean_accuracy - mlp.mean_accuracy)
    runtime = experiment["timings"]["nd"] + experiment["timings"]["mlp"]
    verdict(
        "criterion 4 (synthetic accuracy)",
        nd.mean_accuracy >= 0.90 and gap <= 0.03 and runtime < 600.0,
        f"ND mean accuracy {nd.mean_accuracy:.4f} >= 0.90, |ND-MLP| gap "
        f"{gap:.4f} <= 0.03 (MLP {mlp.mean_accuracy:.4f}), runtime "
        f"{runtime:.0f}s < 600s")


def test_criterion_5_noise_robustness_direction(experiment):
    nd = experiment["runs"]["nd"].report
    mlp = experiment["runs"]["mlp"].report
    eta_idx = NOISE_ETAS.index(0.10)
    nd_deg = [fa[0] - fa[eta_idx] for fa in nd.noise_fold_accuracies]
    mlp_deg = [fa[0] - fa[eta_idx] for fa in mlp.noise_fold_accuracies]
    wins = sum(1 for a, b in zip(nd_deg, mlp_deg) if a <= b)
    mean_nd, mean_mlp = float(np.mean(nd_deg)), float(np.mean(mlp_deg))
    runtime = experiment["timings"]["nd"] + experiment["timings"]["mlp"]
    verdict(
        "criterion 5 (noise robustness direction)",
        wins >= 8 and mean_nd < mean_mlp and runtime < 600.0,
        f"ND deg <= MLP deg in {wins}/10 folds (need >= 8), mean ND "
        f"{mean_nd:.4f} < mean MLP {mean_mlp:.4f}, runtime {runtime:.0f}s "
        f"< 600s")


def test_criterion_6_training_protocol(experiment):
    dataset = experiment["dataset"]
    result = experiment["runs"]["nd"]

    restoration_ok = True
    for fold, (model, history) in enumerate(zip(result.models,
                                                result.histories)):
        _, val_set, _ = stratified_split(dataset, result.split, fold)
        if accuracy(model, val_set) != max(history.val_accuracy):
            restoration_ok = False
            break

    rerun = run_crossval("nd", 2, dataset, experiment["config"], n_folds=10)
    attach_noise_sweep(rerun, dataset, NOISE_ETAS, seed=EXPERIMENT_SEED)
    identical = asdict(rerun.report) == asdict(result.report)

    eta_zero_exact = all(
        fold_accs[0] == clean
        for fold_accs, clean in zip(result.report.noise_fold_accuracies,
                                    result.report.fold_accuracies))
    verdict(
        "criterion 6 (training protocol conformance)",
        restoration_ok and identical and eta_zero_exact,
        f"best-epoch restoration exact per fold: {restoration_ok}, "
        f"identical-seed rerun bit-identical: {identical}, "
        f"eta=0 sweep equals clean accuracy exactly: {eta_zero_exact}")


def read_matrix_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    values = np.array([[float(v) for v in row[1:]] for row in rows])
    return header, rows, values


def test_criterion_7_interpretability_pipeline(experiment):
    workdir = experiment["workdir"]
    dataset = experiment["dataset"]

    fresh = build_model("nd", 2, dataset.n_bands, seed=0,
                        band_names=dataset.band_names)
    fresh_ckpt = os.path.join(workdir, "fresh.json")
    save_checkpoint(fresh, fresh_ckpt)
    out_fresh = os.path.join(workdir, "coeffs_fresh")
    assert cli_main(["coeffs", fresh_ckpt, "--topk", "15",
                     "--out", out_fresh]) == 0
    run_dir = os.path.join(out_fresh, sorted(os.listdir(out_fresh))[0])
    _, _, fresh_matrix = read_matrix_csv(
        os.path.join(run_dir, "ratio_matrix.csv"))
    fresh_all_ones = bool((fresh_matrix == 1.0).all())

    trained = experiment["runs"]["nd"].models[0]
    trained_ckpt = os.path.join(workdir, "trained.json")
    save_checkpoint(trained, trained_ckpt)
    tops = []
    shapes = []
    positives = []
    for attempt in ("a", "b"):
        out_dir = os.path.join(workdir, f"coeffs_{attempt}")
        assert cli_main(["coeffs", trained_ckpt, "--topk", "15",
                         "--out", out_dir]) == 0
        run_dir = os.path.join(out_dir, sorted(os.listdir(out_dir))[0])
        header, rows, values = read_matrix_csv(
            os.path.join(run_dir, "ratio_matrix.csv"))
        shapes.append(values.shape)
        positives.append(bool((values > 0).all()))
        with open(os.path.join(run_dir, "top_pairs.csv"),
                  encoding="utf-8") as fh:
            tops.append([ln for ln in fh.read().splitlines()
                         if not ln.startswith("#")])
    n = dataset.n_bands
    matrix_ok = shapes == [(n, n), (n, n)] and all(positives)
    topk_deterministic = tops[0] == tops[1]

    round_trip = coeff_ratios(load_checkpoint(trained_ckpt)).matrix
    round_trip_exact = bool(
        np.array_equal(round_trip, coeff_ratios(trained).matrix))

    verdict(
        "criterion 7 (interpretability pipeline)",
        fresh_all_ones and matrix_ok and topk_deterministic
        and round_trip_exact,
        f"untrained ratios all 1.0: {fresh_all_ones}, trained matrix "
        f"{n}x{n} all positive: {matrix_ok}, top-k deterministic: "
        f"{topk_deterministic}, checkpoint round-trip bit-identical: "
        f"{round_trip_exact}")
