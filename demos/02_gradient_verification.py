#!/usr/bin/env python3
"""Checking the hand-derived gradients against finite differences.

The layer's backward pass is written from closed-form partial
derivatives rather than autodiff, so the package ships a gradient-check
harness. This script runs it on the bare layer (all three input
variants) and on complete models of every architecture and depth.
"""

import time

from ndnet import gradcheck

print("bare layer, 300 random configurations per variant")
for target in ("ndlayer", "ndlayer-signed", "ndlayer-softplus"):
    report = gradcheck(target, trials=300, tolerance=1e-5, seed=0)
    flag = "ok" if report.passed else "FAILED"
    errs = ", ".join(f"{k}={v:.1e}" for k, v in sorted(report.max_errors.items()))
    print(f"  {target:18s} [{flag}] worst per family: {errs}")

print("\nwhole models, end to end on the logit")
for arch in ("nd", "mlp", "attnd"):
    for depth in (2, 3, 4):
        start = time.perf_counter()
        report = gradcheck(arch, depth=depth, trials=3, tolerance=1e-4,
                           seed=1)
        seconds = time.perf_counter() - start
        flag = "ok" if report.passed else "FAILED"
        print(f"  {arch:5s} depth {depth} [{flag}] "
              f"worst {report.worst():.2e} over {report.trials} trials "
              f"({seconds:.2f}s)")

print("\nthe same harness backs the `ndnet gradcheck` command:")
print("  ndnet gradcheck --arch nd --depth 3 --trials 100 --tol 1e-4")
