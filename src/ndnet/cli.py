"""Command-line entry point.

Subcommands: ``gradcheck``, ``synth``, ``crossval``, ``noise``, ``coeffs``.
Every run writes into a fresh run directory under --out (timestamp plus
seed in the name, so concurrent runs never clobber each other), while the
files themselves embed only deterministic metadata (flags, seed, code
version): identical flags reproduce identical file contents.

Exit status: 0 on success, 1 when the command's contract fails (bad data,
failed tolerance, missing checkpoint), 2 for usage errors. Failures print
one line ``error: <category>: <message>`` on stderr. ND_THREADS caps the
number of worker processes that train the stacks of cross-validation
folds (default 1; an integer of at least 1, further capped by the fold
and CPU counts).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from . import data as data_mod
from . import evaluation as ev
from . import network as net


class UsageError(Exception):
    """A malformed setting outside the argument list (exit status 2)."""


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, data_mod.DataFormatError) as exc:
        category = type(exc).__name__
        print(f"error: {category}: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndnet",
        description="Trainable normalized-difference features: gradient "
                    "checks, synthetic data, cross-validation, noise sweeps "
                    "and coefficient exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck",
                       help="compare analytic and finite-difference gradients")
    p.add_argument("--arch", choices=net.ARCHITECTURES, default="nd")
    p.add_argument("--depth", type=int, choices=net.DEPTHS, default=3)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=net.DEFAULT_EPS)
    p.add_argument("--out", default="runs")
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--synth", required=True, metavar="SPEC",
                   help="synthetic spec JSON path")
    p.add_argument("--seed", type=int, default=None,
                   help="override the spec's seed")
    p.add_argument("--out", default="runs")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("crossval",
                       help="10-fold stratified cross-validation run")
    _add_data_flags(p)
    p.add_argument("--arch", choices=net.ARCHITECTURES, default="nd")
    p.add_argument("--depth", type=int, choices=net.DEPTHS, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=net.DEFAULT_EPS)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--wd", type=float, default=1e-4)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--patience", type=int, default=25)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--out", default="runs")
    p.set_defaults(handler=cmd_crossval)

    p = sub.add_parser("noise",
                       help="noise-robustness sweep over saved checkpoints")
    p.add_argument("checkpoints", nargs="+", metavar="CKPT",
                   help="checkpoint JSON files from a crossval run")
    _add_data_flags(p)
    p.add_argument("--etas", default="0,0.02,0.04,0.06,0.08,0.10",
                   help="comma-separated noise levels in [0, 0.5]")
    p.add_argument("--seed", type=int, default=0,
                   help="noise realization seed")
    p.add_argument("--out", default="runs")
    p.set_defaults(handler=cmd_noise)

    p = sub.add_parser("coeffs",
                       help="coefficient ratio matrix and top asymmetric pairs")
    p.add_argument("checkpoint", metavar="CKPT")
    p.add_argument("--topk", type=int, default=15)
    p.add_argument("--out", default="runs")
    p.set_defaults(handler=cmd_coeffs)
    return parser


def _add_data_flags(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", metavar="PATH", help="dataset CSV path")
    group.add_argument("--synth", metavar="SPEC",
                       help="synthetic spec JSON path")


def _load_dataset(args) -> data_mod.Dataset:
    if args.data is not None:
        return data_mod.load_csv(args.data)
    return data_mod.synth_generate(data_mod.load_synth_spec(args.synth))


def _meta(args) -> dict:
    flags = {k: v for k, v in sorted(vars(args).items())
             if k not in ("handler", "command") and v is not None}
    return {
        "command": args.command,
        "flags": flags,
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }


def _run_dir(args) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    seed = getattr(args, "seed", None)
    base = f"{args.command}-{stamp}-seed{seed if seed is not None else 'na'}"
    path = os.path.join(args.out, base)
    suffix = 0
    while True:
        candidate = path if suffix == 0 else f"{path}-{suffix}"
        try:
            os.makedirs(candidate)
            return candidate
        except FileExistsError:
            suffix += 1


def _write_json(path, meta: dict, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, **payload}, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _write_header(fh, meta: dict):
    """The ``# key: value`` lines that open every text run file."""
    for key in ("command", "seed", "version"):
        fh.write(f"# {key}: {meta[key]}\n")
    fh.write(f"# flags: {json.dumps(meta['flags'])}\n")


def _write_csv(path, meta: dict, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_header(fh, meta)
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gradcheck(args) -> int:
    report = ev.gradcheck(args.arch, depth=args.depth, trials=args.trials,
                          tolerance=args.tol, seed=args.seed, eps=args.eps)
    run_dir = _run_dir(args)
    out_path = os.path.join(run_dir, "gradcheck.json")
    doc = asdict(report)  # a non-finite family error is written as null
    doc["max_errors"] = {family: err if np.isfinite(err) else None
                         for family, err in report.max_errors.items()}
    _write_json(out_path, _meta(args), {"report": doc})
    print(f"gradcheck {args.arch} depth={args.depth}: "
          f"worst relative error {report.worst():.3e} "
          f"(tolerance {report.tolerance:g})")
    for family, err in sorted(report.max_errors.items()):
        print(f"  {family:10s} {err:.3e}")
    print(f"report: {out_path}")
    if not report.passed:
        what = ("gave a non-finite gradient" if np.isnan(report.worst())
                else "exceeded tolerance")
        print(f"error: tolerance: gradient check {what}", file=sys.stderr)
        return 1
    return 0


def cmd_synth(args) -> int:
    spec = data_mod.load_synth_spec(args.synth)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)  # validated like the file's seed
    dataset = data_mod.synth_generate(spec)
    run_dir = _run_dir(args)
    csv_path = os.path.join(run_dir, "dataset.csv")
    data_mod.save_csv(dataset, csv_path)
    meta = dict(_meta(args))
    meta["seed"] = spec.seed
    _write_json(os.path.join(run_dir, "manifest.json"), meta,
                {"spec": spec.to_dict(),
                 "rows": dataset.n_samples,
                 "class_counts": {
                     "0": int((dataset.y == 0).sum()),
                     "1": int((dataset.y == 1).sum()),
                 }})
    print(f"wrote {dataset.n_samples} rows "
          f"({int((dataset.y == 0).sum())} class 0, "
          f"{int((dataset.y == 1).sum())} class 1) to {csv_path}")
    return 0


def _workers(n_folds: int) -> int:
    """The ND_THREADS worker count, capped at the fold and CPU counts."""
    text = os.environ.get("ND_THREADS", "1")
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise UsageError(f"ND_THREADS must be an integer >= 1, got {text!r}")
    return max(1, min(threads, n_folds, os.cpu_count() or 1))


def cmd_crossval(args) -> int:
    workers = _workers(args.folds)
    dataset = _load_dataset(args)
    config = net.TrainConfig(learning_rate=args.lr, weight_decay=args.wd,
                             batch_size=args.batch, max_epochs=args.epochs,
                             patience=args.patience, seed=args.seed,
                             eps=args.eps)
    result = ev.run_crossval(args.arch, args.depth, dataset, config,
                             n_folds=args.folds, workers=workers)
    report = result.report

    run_dir = _run_dir(args)
    meta = _meta(args)
    _write_json(os.path.join(run_dir, "report.json"), meta,
                {"report": asdict(report)})
    with open(os.path.join(run_dir, "report.txt"), "w", encoding="utf-8") as fh:
        _write_header(fh, meta)
        fh.write("\n" + ev.report_to_text(report))
    for metric in ("train_loss", "val_loss", "val_accuracy"):
        rows = ev.history_csv_rows(result.histories, args.arch, args.depth,
                                   metric)
        _write_csv(os.path.join(run_dir, f"history_{metric}.csv"), meta,
                   ("epoch", "value", "fold", "arch", "depth"), rows)
    ckpt_dir = os.path.join(run_dir, "checkpoints")
    os.makedirs(ckpt_dir)
    for fold, model in enumerate(result.models):
        ckpt_meta = dict(meta)
        ckpt_meta.update({"fold": fold, "split_seed": result.split.seed,
                          "n_folds": result.split.n_folds})
        net.save_checkpoint(model, os.path.join(ckpt_dir, f"fold_{fold}.json"),
                            meta=ckpt_meta)

    print(f"crossval {args.arch} depth={args.depth}: "
          f"mean accuracy {report.mean_accuracy:.4f} "
          f"+/- {report.std_accuracy:.4f}, params {report.n_params}, "
          f"efficiency {report.efficiency:.2f}")
    print(f"report: {os.path.join(run_dir, 'report.json')}")
    return 0


def _parse_etas(text: str):
    try:
        etas = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"could not parse --etas list {text!r}") from None
    if not etas:
        raise ValueError("--etas list is empty")
    return etas


def cmd_noise(args) -> int:
    """Sweep checkpoints over noise levels with one realization per test
    set and level. Every checkpoint is loaded and checked first, in
    argument order; then each distinct test set (the whole dataset, or a
    fold's test part keyed by fold, split seed and fold count) is swept
    once for all of its checkpoints. Output keeps the argument order, and
    the run directory is made only after the sweeps."""
    etas = _parse_etas(args.etas)
    dataset = _load_dataset(args)

    checkpoints = []  # (path, fold, model, test set), in argument order
    test_sets = {}  # fold key or None -> test set, one object per key
    for path in args.checkpoints:
        if not os.path.exists(path):
            raise ValueError(f"missing checkpoint {path}")
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        model = net.model_from_checkpoint_dict(doc)
        ckpt_meta = doc.get("meta", {})
        if not isinstance(ckpt_meta, dict):
            raise ValueError(f"{path}: checkpoint meta must be an object")
        if {"fold", "split_seed", "n_folds"} <= ckpt_meta.keys():
            key = tuple(ckpt_meta[name]
                        for name in ("fold", "split_seed", "n_folds"))
            if not all(map(data_mod._is_int, key)):
                raise ValueError(f"{path}: checkpoint meta fold, split_seed and "
                                 "n_folds must be integers")
            fold, seed, n_folds = key
            if key not in test_sets:
                # SplitSpec wants n_folds >= 2, the split 0 <= fold < n_folds.
                split = data_mod.SplitSpec(n_folds=n_folds, seed=seed)
                test_sets[key] = ev.fold_test_split(dataset, split, fold)
        else:
            key, fold = None, -1  # evaluated on the full dataset
            test_sets[key] = dataset
        net._check_set(model, test_sets[key], True, "dataset")
        checkpoints.append((path, fold, model, test_sets[key]))

    swept = ev._sweep([ckpt[2] for ckpt in checkpoints],
                      [ckpt[3] for ckpt in checkpoints], etas, args.seed)
    rows, curves = [], []
    for (path, fold, model, _), accs in zip(checkpoints, swept):
        curves.append({"checkpoint": path, "fold": fold, "arch": model.arch,
                       "depth": model.depth, "etas": etas,
                       "accuracies": accs})
        for eta, acc in zip(etas, accs):
            rows.append((eta, acc, fold, model.arch, model.depth))
        print(f"{path}: " + "  ".join(
            f"eta={eta:g}:{acc:.4f}" for eta, acc in zip(etas, accs)))

    run_dir = _run_dir(args)
    meta = _meta(args)
    _write_csv(os.path.join(run_dir, "sweep.csv"), meta,
               ("eta", "value", "fold", "arch", "depth"), rows)
    _write_json(os.path.join(run_dir, "noise.json"), meta, {"curves": curves})
    print(f"sweep: {os.path.join(run_dir, 'sweep.csv')}")
    return 0


def cmd_coeffs(args) -> int:
    if not os.path.exists(args.checkpoint):
        raise ValueError(f"missing checkpoint {args.checkpoint}")
    model = net.load_checkpoint(args.checkpoint)
    ratios = ev.coeff_ratios(model)  # raises for archs without the layer
    top = ev.top_asymmetric(ratios, args.topk)

    run_dir = _run_dir(args)
    meta = _meta(args)
    matrix_rows = []
    for i, name in enumerate(ratios.band_names):
        matrix_rows.append([name] + [repr(float(v)) for v in ratios.matrix[i]])
    _write_csv(os.path.join(run_dir, "ratio_matrix.csv"), meta,
               ["band"] + list(ratios.band_names), matrix_rows)
    _write_csv(os.path.join(run_dir, "top_pairs.csv"), meta,
               ("rank", "band_i", "band_j", "ratio", "asymmetry"),
               [(rank + 1, e["band_i"], e["band_j"], repr(e["ratio"]),
                 repr(e["asymmetry"])) for rank, e in enumerate(top)])

    print(f"{'rank':>4}  {'pair':12s}  {'ratio':>10s}  {'asymmetry':>10s}")
    for rank, e in enumerate(top, start=1):
        pair = f"{e['band_i']}/{e['band_j']}"
        print(f"{rank:>4}  {pair:12s}  {e['ratio']:>10.4f}  "
              f"{e['asymmetry']:>10.4f}")
    print(f"matrix: {os.path.join(run_dir, 'ratio_matrix.csv')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
