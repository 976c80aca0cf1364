"""Spans at the public-function boundaries of the ndnet modules.

The tracer wraps every public function of ``ndnet.ndmath``, ``ndlayer``,
``network``, ``data``, ``evaluation`` and ``cli`` from outside: it rebinds
the module attributes (and module-level table entries) that refer to
them, so no file under ``src/`` changes. Each call records one span
(id, role, function, start, end, parent id). Spans stay in memory and are
written out by ``write``; ``summary`` turns them into per-role self time
and counts.

A role names what a function does, not what it is called, so that
merging or renaming functions keeps the metric names.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import math
import time
from collections import defaultdict

MODULES = ("ndmath", "ndlayer", "network", "data", "evaluation", "cli")

# roles whose self time the benchmark reports
REPORTED_ROLES = (
    "ndlayer.forward", "ndlayer.backward", "ndlayer.gate",
    "network.dense", "network.loss", "network.adam", "network.train",
    "network.model", "network.checkpoint", "cli", "data.csv", "data.noise",
    "data.split", "evaluation.crossval", "evaluation.accuracy",
    "evaluation.gradcheck", "ndmath",
)
COUNTERS = (
    "ndlayer.backward.calls", "ndlayer.forward.calls", "ndlayer.forward.rows",
    "network.adam.calls", "network.train.epochs", "network.train.steps",
    "network.train.epochs_after_best", "ndmath.calls",
)
_CV_FUNCTIONS = ("run_crossval", "crossval_fold", "attach_noise_sweep",
                 "noise_sweep", "fold_test_split")


def role_of(module: str, name: str) -> str:
    if module in ("ndmath", "cli"):
        return module
    if module == "ndlayer":
        if "attention" in name:
            return "ndlayer.gate"
        if "backward" in name:
            return "ndlayer.backward"
        if "forward" in name:
            return "ndlayer.forward"
        return "ndlayer.other"
    if module == "network":
        if name.startswith("dense"):
            return "network.dense"
        if "bce" in name or "loss" in name:
            return "network.loss"
        if "adam" in name:
            return "network.adam"
        if name == "train":
            return "network.train"
        if "checkpoint" in name:
            return "network.checkpoint"
        return "network.model"
    if module == "data":
        return {"load_csv": "data.csv", "save_csv": "data.csv",
                "inject_noise": "data.noise",
                "stratified_split": "data.split"}.get(name, "data.other")
    if module == "evaluation":
        if name in ("accuracy", "gradcheck"):
            return f"evaluation.{name}"
        return "evaluation.crossval" if name in _CV_FUNCTIONS else "evaluation.other"
    raise ValueError(f"unknown module {module!r}")


def _swap(value, wrappers):
    """``value`` with wrappers in place of wrapped functions, or None."""
    if inspect.isfunction(value):
        return wrappers.get(value)
    if isinstance(value, tuple) and any(inspect.isfunction(v) and v in wrappers
                                        for v in value):
        return tuple(wrappers.get(v, v) if inspect.isfunction(v) else v for v in value)
    return None


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) == 1 else int(shape[0])


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Install with ``with Tracer() as tracer:``; read ``summary()`` after."""

    def __init__(self):
        self.spans = []  # (id, role, function, start, end, parent)
        self.roles = []  # role per span id, filled when the span opens
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        wrappers = {}
        modules = [importlib.import_module("ndnet")]
        for short in MODULES:
            module = importlib.import_module(f"ndnet.{short}")
            modules.append(module)
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[fn] = self._wrap(fn, role_of(short, name),
                                              f"{short}.{name}")
        # Callers reach a function through a module attribute or through a
        # module-level table (a dict whose values may be tuples of functions).
        for module in modules:
            namespace = vars(module)
            tables = [(namespace, functools.partial(setattr, module))]
            tables += [(value, value.__setitem__) for key, value in namespace.items()
                       if isinstance(value, dict) and not key.startswith("__")]
            for table, assign in tables:
                for key, value in list(table.items()):
                    wrapped = _swap(value, wrappers)
                    if wrapped is not None:
                        self._patches.append((assign, key, value))
                        assign(key, wrapped)
        return self

    def __exit__(self, *exc):
        for assign, key, value in reversed(self._patches):
            assign(key, value)
        self._patches.clear()
        return False

    def _wrap(self, fn, role, qualname):
        spans, roles, stack = self.spans, self.roles, self._stack
        hook = self._hook(role, qualname)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(roles)
            roles.append(role)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, role, qualname, start, end, parent)
            if hook is not None:
                hook(args, kwargs, result, parent < 0 or roles[parent] != role)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, role, qualname):
        counts = self.counts
        if role == "ndlayer.forward":
            def hook(args, kwargs, result, outermost):
                if outermost:
                    counts["ndlayer.forward.calls"] += 1
                    counts["ndlayer.forward.rows"] += _rows(_arg(args, kwargs, 0, "bands"))
            return hook
        if role == "ndlayer.backward":
            def hook(args, kwargs, result, outermost):
                counts["ndlayer.backward.calls"] += outermost
            return hook
        if role == "ndmath":
            def hook(args, kwargs, result, outermost):
                counts["ndmath.calls"] += outermost
            return hook
        if qualname == "network.adam_step":
            def hook(args, kwargs, result, outermost):
                counts["network.adam.calls"] += 1
            return hook
        if qualname == "network.train":
            def hook(args, kwargs, result, outermost):
                _, history = result
                epochs = len(history.val_accuracy)
                n_train = _rows(getattr(_arg(args, kwargs, 1, "train_set"), "X",
                                        _arg(args, kwargs, 1, "train_set")))
                batch = _arg(args, kwargs, 3, "config").batch_size
                counts["network.train.epochs"] += epochs
                counts["network.train.steps"] += epochs * math.ceil(n_train / batch)
                counts["network.train.epochs_after_best"] += (
                    history.stopped_epoch - history.best_epoch)
            return hook
        return None

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Self seconds per role plus the counters."""
        child = defaultdict(int)
        for sid, _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns = defaultdict(int)
        for sid, role, _, start, end, _ in self.spans:
            self_ns[role] += (end - start) - child[sid]
        out = {f"{role}.self_s": self_ns[role] / 1e9 for role in REPORTED_ROLES}
        out.update({name: self.counts[name] for name in COUNTERS})
        return out

    def write(self, path):
        """Gzipped CSV, one line per span; times are perf_counter_ns."""
        with gzip.open(path, "wt", encoding="utf-8", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "name", "function", "start_ns", "end_ns", "parent"))
            writer.writerows(self.spans)
