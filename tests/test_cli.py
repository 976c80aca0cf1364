import builtins
import dataclasses
import json
import os

import numpy as np
import pytest

from ndnet import cli
from ndnet import evaluation as ev
from ndnet import network as net
from ndnet.cli import main
from ndnet.data import (SplitSpec, SynthSpec, default_synth_spec, load_csv,
                        load_synth_spec, save_csv, synth_generate)
from ndnet.network import (build_model, checkpoint_to_json, load_checkpoint,
                           save_checkpoint)


def spec_file(tmp_path, n_samples=100, seed=3):
    spec = SynthSpec(
        n_samples=n_samples,
        band_names=[f"b{k}" for k in range(10)],
        class0_mean=[0.04, 0.08, 0.05, 0.12, 0.28, 0.38, 0.42, 0.45, 0.22, 0.12],
        class1_mean=[0.05, 0.09, 0.07, 0.16, 0.22, 0.27, 0.30, 0.32, 0.26, 0.16],
        noise_sigma=0.03, gain_low=0.5, gain_high=2.0, seed=seed)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    return path


def only_run_dir(out_dir):
    entries = sorted(os.listdir(out_dir))
    assert len(entries) == 1, entries
    return os.path.join(out_dir, entries[0])


def run_dirs(out_dir):
    return [os.path.join(out_dir, d) for d in sorted(os.listdir(out_dir))]


def read_csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    header, *rows = lines
    return header.split(","), [ln.split(",") for ln in rows]


CROSSVAL_FLAGS = ["--epochs", "4", "--patience", "4", "--folds", "10"]


class TestSynthCommand:
    def test_writes_header_plus_rows(self, tmp_path):
        out = tmp_path / "out"
        assert main(["synth", "--synth", str(spec_file(tmp_path)),
                     "--out", str(out)]) == 0
        csv_path = os.path.join(only_run_dir(out), "dataset.csv")
        with open(csv_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 101  # header + 100 samples
        ds = load_csv(csv_path)
        assert ds.n_samples == 100

    def test_same_seed_identical_bytes(self, tmp_path):
        spec = spec_file(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--synth", str(spec), "--out", str(out_a)])
        main(["synth", "--synth", str(spec), "--out", str(out_b)])
        data_a = open(os.path.join(only_run_dir(out_a), "dataset.csv"), "rb").read()
        data_b = open(os.path.join(only_run_dir(out_b), "dataset.csv"), "rb").read()
        assert data_a == data_b

    def test_seed_override_changes_data(self, tmp_path):
        spec = spec_file(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--synth", str(spec), "--out", str(out_a)])
        main(["synth", "--synth", str(spec), "--seed", "99", "--out", str(out_b)])
        data_a = open(os.path.join(only_run_dir(out_a), "dataset.csv"), "rb").read()
        data_b = open(os.path.join(only_run_dir(out_b), "dataset.csv"), "rb").read()
        assert data_a != data_b

    def test_manifest_reports_class_balance(self, tmp_path):
        out = tmp_path / "out"
        main(["synth", "--synth", str(spec_file(tmp_path, n_samples=101)),
              "--out", str(out)])
        manifest = json.load(open(os.path.join(only_run_dir(out),
                                               "manifest.json")))
        counts = manifest["class_counts"]
        assert counts["0"] + counts["1"] == 101
        assert abs(counts["0"] - counts["1"]) <= 1

    def test_spec_that_is_a_json_list_is_one_error_line(self, tmp_path,
                                                         capsys):
        spec = tmp_path / "list.json"
        spec.write_text("[1, 2, 3]")
        rc = main(["synth", "--synth", str(spec), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: DataFormatError: synthetic spec must be a JSON object"]
        assert not (tmp_path / "o").exists()

    def test_missing_spec_file_errors(self, tmp_path, capsys):
        rc = main(["synth", "--synth", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestGradcheckCommand:
    def test_passing_run_exits_zero(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["gradcheck", "--arch", "nd", "--depth", "3", "--trials",
                   "3", "--tol", "1e-4", "--out", str(out)])
        assert rc == 0
        doc = json.load(open(os.path.join(only_run_dir(out), "gradcheck.json")))
        assert doc["report"]["passed"] is True
        assert doc["meta"]["version"]

    def test_zero_tolerance_always_fails(self, tmp_path, capsys):
        rc = main(["gradcheck", "--arch", "nd", "--depth", "2", "--trials",
                   "1", "--tol", "0", "--out", str(tmp_path / "o")])
        assert rc != 0
        assert "error:" in capsys.readouterr().err

    def test_unattainable_tolerance_fails_with_report(self, tmp_path, capsys):
        rc = main(["gradcheck", "--arch", "mlp", "--depth", "2", "--trials",
                   "2", "--tol", "1e-14", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--trials", "0"], ["--trials", "-3"],
                                       ["--tol", "nan"], ["--tol", "inf"]])
    def test_request_that_checks_nothing_is_one_error_line(self, flags, tmp_path,
                                                           capsys):
        out = tmp_path / "o"
        rc = main(["gradcheck", "--arch", "nd", "--depth", "2", "--trials", "1",
                   *flags, "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ValueError: "), err
        assert not out.exists()

    def test_nan_gradient_exits_one_with_one_error_line(self, tmp_path, capsys,
                                                        monkeypatch):
        real = net.model_backward

        def broken(model, cache, d_logit):
            grads, d_bands = real(model, cache, d_logit)
            grads[0][:] = np.nan  # nd.alpha
            return grads, d_bands

        monkeypatch.setattr(net, "model_backward", broken)
        out = tmp_path / "o"
        rc = main(["gradcheck", "--arch", "nd", "--depth", "2", "--trials", "1",
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.splitlines() == [
            "error: tolerance: gradient check gave a non-finite gradient"]
        assert "alpha      nan" in captured.out

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        # strict JSON: the NaN family error is null, never a bare NaN
        with open(os.path.join(only_run_dir(out), "gradcheck.json")) as fh:
            report = json.loads(fh.read(), parse_constant=reject)["report"]
        assert report["max_errors"]["alpha"] is None
        assert report["passed"] is False
        assert all(isinstance(report["max_errors"][family], float)
                   for family in ("beta", "dense", "input"))

    def test_unknown_arch_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--arch", "unknown", "--out", str(tmp_path)])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def crossval_run(tmp_path_factory):
    """One small real crossval run shared by the dependent command tests."""
    tmp_path = tmp_path_factory.mktemp("crossval")
    spec = spec_file(tmp_path, n_samples=120, seed=5)
    out = tmp_path / "out"
    rc = main(["crossval", "--synth", str(spec), "--arch", "nd", "--depth",
               "2", "--seed", "9", *CROSSVAL_FLAGS, "--out", str(out)])
    assert rc == 0
    return tmp_path, spec, only_run_dir(out)


class TestCrossvalCommand:
    def test_report_contents(self, crossval_run):
        _, _, run_dir = crossval_run
        doc = json.load(open(os.path.join(run_dir, "report.json")))
        report = doc["report"]
        assert report["n_params"] == 136
        assert len(report["fold_accuracies"]) == 10
        assert doc["meta"]["seed"] == 9
        assert os.path.exists(os.path.join(run_dir, "report.txt"))

    def test_history_csvs_have_contract_columns(self, crossval_run):
        _, _, run_dir = crossval_run
        for metric in ("train_loss", "val_loss", "val_accuracy"):
            header, rows = read_csv_rows(
                os.path.join(run_dir, f"history_{metric}.csv"))
            assert header == ["epoch", "value", "fold", "arch", "depth"]
            assert {r[2] for r in rows} == {str(f) for f in range(10)}

    def test_checkpoints_written_per_fold(self, crossval_run):
        _, _, run_dir = crossval_run
        ckpts = sorted(os.listdir(os.path.join(run_dir, "checkpoints")))
        assert ckpts == [f"fold_{k}.json" for k in range(10)]

    def test_rerun_same_seed_identical_report(self, crossval_run):
        tmp_path, spec, run_dir = crossval_run
        out2 = tmp_path / "out2"
        rc = main(["crossval", "--synth", str(spec), "--arch", "nd",
                   "--depth", "2", "--seed", "9", *CROSSVAL_FLAGS,
                   "--out", str(out2)])
        assert rc == 0
        original = json.load(open(os.path.join(run_dir, "report.json")))
        rerun = json.load(open(os.path.join(only_run_dir(out2), "report.json")))
        assert rerun["report"] == original["report"]

    def test_data_csv_input(self, tmp_path):
        ds = synth_generate(SynthSpec(
            n_samples=80, band_names=["u", "v"],
            class0_mean=[0.2, 0.6], class1_mean=[0.6, 0.2],
            noise_sigma=0.05, gain_low=0.5, gain_high=2.0, seed=2))
        csv_path = tmp_path / "ds.csv"
        save_csv(ds, csv_path)
        rc = main(["crossval", "--data", str(csv_path), "--arch", "mlp",
                   "--depth", "2", *CROSSVAL_FLAGS,
                   "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_data_and_synth_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["crossval", "--data", "x.csv", "--synth", "y.json",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_diverging_run_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["crossval", "--synth", str(spec_file(tmp_path)),
                   "--arch", "mlp", "--depth", "3", "--lr", "1e4",
                   "--folds", "2", "--epochs", "3", "--patience", "3",
                   "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1, err
        assert err[0].startswith(
            "error: TrainingDiverged: fold 0: training diverged at epoch "), err
        assert not out.exists() or not os.listdir(out)

    def test_non_finite_learning_rate_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["crossval", "--synth", str(spec_file(tmp_path)),
                   "--lr", "nan", "--folds", "2", "--epochs", "3",
                   "--patience", "3", "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1, err
        assert err[0].startswith("error: ValueError: "), err
        assert "finite" in err[0]
        assert not out.exists()

    def test_all_arch_depth_combinations_emit_reports(self, tmp_path):
        spec = spec_file(tmp_path, n_samples=60, seed=1)
        out = tmp_path / "matrix"
        for arch in ("nd", "mlp", "attnd"):
            for depth in ("2", "3", "4"):
                rc = main(["crossval", "--synth", str(spec), "--arch", arch,
                           "--depth", depth, "--epochs", "2", "--patience",
                           "2", "--folds", "10", "--out", str(out)])
                assert rc == 0
        reports = [os.path.join(d, "report.json") for d in run_dirs(out)]
        assert len(reports) == 9
        assert all(os.path.exists(r) for r in reports)


class TestNoiseCommand:
    def test_sweep_rows_and_eta_zero_identity(self, crossval_run, tmp_path):
        _, spec, run_dir = crossval_run
        ckpts = sorted(
            os.path.join(run_dir, "checkpoints", f)
            for f in os.listdir(os.path.join(run_dir, "checkpoints")))
        out = tmp_path / "noise"
        rc = main(["noise", *ckpts, "--synth", str(spec),
                   "--etas", "0,0.02,0.04,0.06,0.08,0.10", "--seed", "4",
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv_rows(os.path.join(only_run_dir(out),
                                                  "sweep.csv"))
        assert header == ["eta", "value", "fold", "arch", "depth"]
        assert len(rows) == 6 * 10  # six etas per checkpoint

        report = json.load(open(os.path.join(run_dir, "report.json")))
        clean = report["report"]["fold_accuracies"]
        for row in rows:
            if row[0] == "0.0":
                assert float(row[1]) == clean[int(row[2])]

    def test_reads_each_checkpoint_once(self, crossval_run, tmp_path,
                                        monkeypatch):
        _, spec, run_dir = crossval_run
        ckpts = [os.path.join(run_dir, "checkpoints", f"fold_{k}.json")
                 for k in (0, 1)]
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        rc = main(["noise", *ckpts, "--synth", str(spec), "--etas", "0",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert [opened.count(path) for path in ckpts] == [1, 1]

    ETAS = [0.0, 0.05, 0.1, 0.3]  # 0.3 gives rows with negative values

    def sweep(self, ckpts, spec, out):
        """Run ``ndnet noise`` and return its curves."""
        rc = main(["noise", *ckpts, "--synth", str(spec), "--etas",
                   ",".join(map(repr, self.ETAS)), "--seed", "6",
                   "--out", str(out)])
        assert rc == 0
        with open(os.path.join(only_run_dir(out), "noise.json")) as fh:
            return json.load(fh)["curves"]

    def test_one_realization_per_eta_without_fold_meta(self, crossval_run,
                                                       tmp_path, noise_draws):
        _, spec, run_dir = crossval_run
        ckpts = []
        for arch, depth in (("nd", 2), ("attnd", 3), ("mlp", 3)):
            model = build_model(arch, depth, 10, seed=depth,
                                band_names=[f"b{k}" for k in range(10)])
            model.vector += np.random.default_rng(depth).uniform(
                -0.5, 0.5, model.vector.size)
            ckpts.append(str(tmp_path / f"{arch}.json"))
            save_checkpoint(model, ckpts[-1])
        curves = self.sweep(ckpts, spec, tmp_path / "o")
        assert [eta for _, eta in noise_draws] == self.ETAS
        dataset = synth_generate(load_synth_spec(spec))
        for path, curve in zip(ckpts, curves):
            assert curve["checkpoint"] == path and curve["fold"] == -1
            assert curve["accuracies"] == ev.noise_sweep(
                load_checkpoint(path), dataset, self.ETAS, 6)

    def test_one_realization_per_eta_and_fold(self, crossval_run, tmp_path,
                                              noise_draws):
        _, spec, run_dir = crossval_run
        folds = (1, 0, 1, 0)
        ckpts = [os.path.join(run_dir, "checkpoints", f"fold_{k}.json")
                 for k in folds]
        curves = self.sweep(ckpts, spec, tmp_path / "o")
        # fold 1's test set, then fold 0's
        assert [eta for _, eta in noise_draws] == 2 * self.ETAS
        dataset = synth_generate(load_synth_spec(spec))
        for fold, path, curve in zip(folds, ckpts, curves):
            assert curve["checkpoint"] == path and curve["fold"] == fold
            test_set = ev.fold_test_split(dataset, SplitSpec(n_folds=10, seed=9),
                                          fold)
            assert curve["accuracies"] == ev.noise_sweep(
                load_checkpoint(path), test_set, self.ETAS, 6)

    def test_bad_later_checkpoint_fails_before_any_sweep(self, crossval_run,
                                                        tmp_path, capsys):
        _, spec, run_dir = crossval_run
        good = os.path.join(run_dir, "checkpoints", "fold_0.json")
        rc = main(["noise", good, str(tmp_path / "missing.json"), "--synth",
                   str(spec), "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err.splitlines() == [
            f"error: ValueError: missing checkpoint {tmp_path / 'missing.json'}"]

    def test_malformed_checkpoint_json_is_one_error_line(self, crossval_run,
                                                         tmp_path, capsys):
        _, spec, _ = crossval_run
        ckpt = tmp_path / "broken.json"
        ckpt.write_text('{"format": "ndnet-checkpoint",')
        rc = main(["noise", str(ckpt), "--synth", str(spec),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: JSONDecodeError: "), err

    @pytest.mark.parametrize("checkpoint, flags", [
        ("missing.json", []),  # fails while loading the checkpoints
        ("ckpt.json", ["--etas", "0.6"])])  # fails in the sweep
    def test_failed_run_leaves_no_run_directory(self, checkpoint, flags,
                                                tmp_path, capsys):
        save_checkpoint(build_model("nd", 2, 10, seed=0,
                                    band_names=[f"b{k}" for k in range(10)]),
                        tmp_path / "ckpt.json")
        out = tmp_path / "o"
        rc = main(["noise", str(tmp_path / checkpoint), "--synth",
                   str(spec_file(tmp_path)), *flags, "--out", str(out)])
        assert rc == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    def test_missing_checkpoint_errors(self, tmp_path, capsys):
        rc = main(["noise", str(tmp_path / "missing.json"), "--synth",
                   str(spec_file(tmp_path)), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "missing checkpoint" in capsys.readouterr().err

    def test_bad_etas_rejected(self, crossval_run, tmp_path, capsys):
        _, spec, run_dir = crossval_run
        ckpt = os.path.join(run_dir, "checkpoints", "fold_0.json")
        rc = main(["noise", ckpt, "--synth", str(spec), "--etas", "0,zebra",
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_empty_etas_list_is_one_error_line(self, crossval_run, tmp_path,
                                               capsys):
        _, spec, run_dir = crossval_run
        ckpt = os.path.join(run_dir, "checkpoints", "fold_0.json")
        rc = main(["noise", ckpt, "--synth", str(spec), "--etas", ",",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: ValueError: --etas list is empty"]


class TestSeedRule:
    """A negative seed is one error line naming the seed, for every command
    that takes one, and no run directory is made."""

    @pytest.mark.parametrize("command", ["gradcheck", "synth", "crossval",
                                         "noise"])
    def test_negative_seed_is_one_error_line(self, command, tmp_path, capsys):
        spec = str(spec_file(tmp_path))
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(build_model("nd", 2, 10, seed=0,
                                    band_names=[f"b{k}" for k in range(10)]),
                        ckpt)
        flags = {"gradcheck": ["--trials", "1"],
                 "synth": ["--synth", spec],
                 "crossval": ["--synth", spec, "--epochs", "1", "--patience",
                              "1", "--folds", "2"],
                 "noise": [str(ckpt), "--synth", spec, "--etas", "0"]}[command]
        out = tmp_path / "o"
        rc = main([command, *flags, "--seed", "-1", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.splitlines() == [
            "error: ValueError: seed must be a nonnegative integer, got -1"]
        assert not out.exists()


class TestCoeffsCommand:
    def test_missing_checkpoint_is_one_error_line(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        rc = main(["coeffs", str(missing), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: ValueError: missing checkpoint {missing}"]
        assert not (tmp_path / "o").exists()

    def test_untrained_checkpoint_all_ratios_one(self, tmp_path):
        model = build_model("nd", 2, 10, seed=0)
        ckpt = tmp_path / "fresh.json"
        save_checkpoint(model, ckpt)
        out = tmp_path / "out"
        assert main(["coeffs", str(ckpt), "--topk", "5",
                     "--out", str(out)]) == 0
        run_dir = only_run_dir(out)
        header, rows = read_csv_rows(os.path.join(run_dir, "ratio_matrix.csv"))
        assert header == ["band"] + model.band_names
        assert len(rows) == 10
        for row in rows:
            assert all(float(v) == 1.0 for v in row[1:])
        _, top = read_csv_rows(os.path.join(run_dir, "top_pairs.csv"))
        assert len(top) == 5

    def test_topk_clamped_to_pair_count(self, tmp_path):
        model = build_model("nd", 2, 3, seed=0)
        ckpt = tmp_path / "three.json"
        save_checkpoint(model, ckpt)
        out = tmp_path / "out"
        assert main(["coeffs", str(ckpt), "--topk", "99",
                     "--out", str(out)]) == 0
        _, top = read_csv_rows(os.path.join(only_run_dir(out),
                                            "top_pairs.csv"))
        assert len(top) == 3

    @pytest.mark.parametrize("topk", ["0", "-3"])
    def test_topk_below_one_is_one_error_line(self, topk, tmp_path, capsys):
        ckpt = tmp_path / "fresh.json"
        save_checkpoint(build_model("nd", 2, 4, seed=0), ckpt)
        out = tmp_path / "out"
        rc = main(["coeffs", str(ckpt), "--topk", topk, "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert err == [f"error: ValueError: k must be an integer of at least "
                       f"1, got {int(topk)}"]
        assert not out.exists()

    def test_checkpoint_without_nd_layer_errors(self, tmp_path, capsys):
        model = build_model("mlp", 2, 10, seed=0)
        ckpt = tmp_path / "mlp.json"
        save_checkpoint(model, ckpt)
        rc = main(["coeffs", str(ckpt), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "coefficients" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha, beta", [(-800.0, 0.0), (0.0, -800.0),
                                             (1e300, -700.0), (-700.0, 1e300)])
    def test_ratio_out_of_range_is_one_error_line(self, alpha, beta, tmp_path,
                                                  capsys):
        # softplus(-800) is 0 in float64, and 1e300 / softplus(-700)
        # overflows: the ratios once divided by zero or overflowed, and
        # the ranking raised ZeroDivisionError or listed an inf
        model = build_model("nd", 2, 3, seed=0)
        model.nd_params.alpha[1], model.nd_params.beta[1] = alpha, beta
        ckpt = tmp_path / "underflow.json"
        save_checkpoint(model, ckpt)
        out = tmp_path / "out"
        rc = main(["coeffs", str(ckpt), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ValueError: "), err
        assert not out.exists()

    def test_trained_checkpoint_deterministic_ranking(self, crossval_run,
                                                      tmp_path):
        _, _, run_dir = crossval_run
        ckpt = os.path.join(run_dir, "checkpoints", "fold_0.json")
        tops = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["coeffs", ckpt, "--topk", "10",
                         "--out", str(out)]) == 0
            _, top = read_csv_rows(os.path.join(only_run_dir(out),
                                                "top_pairs.csv"))
            tops.append(top)
        assert tops[0] == tops[1]


def _drop_beta(doc):
    del doc["params"]["nd.beta"]


def _extra_param(doc):
    doc["params"]["nd.gamma"] = [0.0]


def _reshape_alpha(doc):
    doc["params"]["nd.alpha"] = doc["params"]["nd.alpha"][:-1]


def _nan_alpha(doc):
    doc["params"]["nd.alpha"][0] = float("nan")


def _version_99(doc):
    doc["version"] = 99


def _bogus_activations(doc):
    doc["activations"] = ["bogus"]


def _wrong_format(doc):
    doc["format"] = "something-else"


def _float_depth(doc):
    doc["depth"] = float(doc["depth"])


class TestCheckpointValidation:
    @pytest.mark.parametrize("corrupt", [
        _drop_beta, _extra_param, _reshape_alpha, _nan_alpha, _version_99,
        _bogus_activations, _wrong_format, _float_depth])
    def test_malformed_checkpoint_is_one_error_line(self, corrupt, tmp_path,
                                                    capsys):
        doc = json.loads(checkpoint_to_json(build_model("nd", 2, 10, seed=0)))
        corrupt(doc)
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(json.dumps(doc))
        rc = main(["coeffs", str(ckpt), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ValueError: "), err


# Each document field in turn is set to each of these JSON values.
ODD_VALUES = ["x", 3.0, 2.5, True, None, [], {}, [1], -1, 0, float("nan"),
              float("inf"), [["a"]], ["a"], 1e30]
CHECKPOINT_FIELDS = ["format", "version", "arch", "depth", "band_names", "eps",
                     "params", "activations"]


def assert_success_or_one_error_line(rc, capsys):
    err = capsys.readouterr().err.splitlines()
    if rc == 0:
        assert err == []
    else:
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: "), err


class TestOneFieldMutations:
    """A document with one odd field ends in exit 0, or in exit 1 with one
    ``error:`` line: never a traceback."""

    @pytest.mark.parametrize("value", ODD_VALUES, ids=json.dumps)
    @pytest.mark.parametrize("field", [f.name for f in
                                       dataclasses.fields(SynthSpec)])
    def test_synth_spec(self, field, value, tmp_path, capsys):
        doc = default_synth_spec().to_dict()
        doc[field] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        rc = main(["synth", "--synth", str(spec), "--out", str(tmp_path / "o")])
        assert_success_or_one_error_line(rc, capsys)

    @pytest.mark.parametrize("value", ODD_VALUES, ids=json.dumps)
    @pytest.mark.parametrize("field", CHECKPOINT_FIELDS)
    def test_checkpoint(self, field, value, tmp_path, capsys):
        doc = json.loads(checkpoint_to_json(build_model("nd", 3, 4, seed=0)))
        doc[field] = value
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(doc))
        rc = main(["coeffs", str(ckpt), "--out", str(tmp_path / "o")])
        assert_success_or_one_error_line(rc, capsys)

    @pytest.mark.parametrize("value", ODD_VALUES, ids=json.dumps)
    @pytest.mark.parametrize("field", ["meta", "meta.fold", "meta.split_seed",
                                       "meta.n_folds"])
    def test_checkpoint_meta(self, field, value, tmp_path, capsys):
        meta = {"fold": 0, "split_seed": 1, "n_folds": 2}
        if field == "meta":
            meta = value
        else:
            meta[field.split(".")[1]] = value
        model = build_model("nd", 2, 10, seed=0,
                            band_names=[f"b{k}" for k in range(10)])
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(model, ckpt, meta=meta)
        rc = main(["noise", str(ckpt), "--synth", str(spec_file(tmp_path)),
                   "--etas", "0", "--out", str(tmp_path / "o")])
        assert_success_or_one_error_line(rc, capsys)
        if field != "meta" and type(value) is not int:
            assert rc == 1  # a bool or a float such as 3.0 is not a fold number


class TestParallelFolds:
    def test_nd_threads_reproduces_serial_report(self, tmp_path):
        spec = spec_file(tmp_path, n_samples=80, seed=6)
        flags = ["crossval", "--synth", str(spec), "--arch", "nd", "--depth",
                 "2", "--seed", "3", "--epochs", "2", "--patience", "2",
                 "--folds", "10"]
        out_serial, out_parallel = tmp_path / "s", tmp_path / "p"
        assert main(flags + ["--out", str(out_serial)]) == 0
        os.environ["ND_THREADS"] = "4"
        try:
            assert main(flags + ["--out", str(out_parallel)]) == 0
        finally:
            del os.environ["ND_THREADS"]
        serial = json.load(open(os.path.join(only_run_dir(out_serial),
                                             "report.json")))
        parallel = json.load(open(os.path.join(only_run_dir(out_parallel),
                                               "report.json")))
        assert serial["report"] == parallel["report"]

    @pytest.mark.parametrize("value", ["0", "-2", "two", "1.5", ""])
    def test_bad_nd_threads_is_usage_error(self, value, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setenv("ND_THREADS", value)
        rc = main(["crossval", "--synth", str(spec_file(tmp_path)),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error: usage: ND_THREADS"), err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("threads, folds, cpus, workers", [
        ("64", 3, 4, 3), ("3", 10, 2, 2), ("2", 10, 8, 2), ("8", 10, None, None),
        ("1", 10, 8, None), ("5", 1, 8, None)])
    def test_worker_count_is_clamped(self, threads, folds, cpus, workers,
                                     monkeypatch):
        created = []

        class RecordingPool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("ND_THREADS", threads)
        runner = cli._fold_runner(folds)
        if workers is None:
            assert runner is None
        else:
            assert runner([]) == []
            assert created == [workers]
