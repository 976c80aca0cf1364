"""Dense layers, loss, optimizer, model builders and the training loop.

Three architectures share the same trunk-and-head layout:

* ``nd``    -- pairwise normalized-difference first layer, then dense
* ``attnd`` -- same, with input-dependent sigmoid gates on the pair outputs
* ``mlp``   -- plain dense first layer, width-matched to the pair count

Depth counts every layer including input and output: depth 2 is
input -> first transform -> 1-logit head, each extra depth inserts one
ReLU dense hidden layer of the pair-count width.

Which arrays a model has is decided in one place, the cached private
table ``_layout(arch, depth, n_bands)``: each array's name and shape in
checkpoint order, the dense activations, and the allowed architectures
and depths (an int in DEPTHS). A ``Model`` is that layout's key (arch,
depth, band names), its eps and one float64 vector of every learnable
scalar: ``Model(arch, depth, band_names, eps, vector)`` copies the
vector, checks its length against the layout and builds the arrays
``nd_params``, ``attn_weights``, ``attn_bias`` and ``layers`` once, as
views of it. ``build_model`` walks the layout to draw the initial
values, and ``parameter_names``, ``views`` and checkpoint loading read it.

All training state is explicit. The arrays that ``Model.parameters()``
lists (in the layout's order) are views of ``Model.vector``, so one
training step is one Adam update on that vector, with one pair of moment
vectors, and the best-epoch snapshot and its restore are one copy each.
There is one training loop, ``_lockstep``. ``train()`` runs it on one
model's own vector; cross-validation runs it on a stack of models of one
layout whose training sets have one size. A stack's vectors are the rows
of one (F, P) matrix, which a ``_Stack`` views with a leading model axis,
so each step is one forward and one backward through the same cores and
one Adam update of the matrix. Each model keeps its own shuffle
generator, validation set, best-epoch snapshot and early stopping, and
gets the bits that training it alone gives. The loop is deterministic
given the seeds.

Each formula lives in one private core that checks nothing
(``_model_forward``/``_model_backward``, ``_dense_forward``/
``_dense_backward`` and ``_gate``/``_gate_backward`` here, ``_forward``/
``_backward`` in ndlayer). The attention gate's affine map is the dense
layer ``Model.attn_layer``, run by the dense cores. A ``Model`` checks its
layout and vector when it is built, ``_check_input`` decides which bands
it accepts and ``_check_set`` which labelled sets (``train``, ``accuracy``).
``_model_forward`` hands the raw alpha|beta block of the vector to
``ndlayer._forward``, which owns the softplus/sigmoid transforms.
``train()`` validates its sets once and then runs the cores directly: per
step it writes every gradient into one preallocated vector and skips the
input gradient nobody reads.

Scoring keeps no per-pair array: ``model_forward``, ``train()``'s
validation pass and ``evaluation.accuracy`` run ``_model_forward`` over
fixed row blocks (``_model_logits``, about ``_BLOCK_ELEMENTS`` floats per
block array) and drop each block's intermediates, so memory is O(block x
pairs) however many rows are scored. The cache ``model_forward`` returns
holds only the validated batch, not a copy; ``model_backward`` replays the
forward on it with the model's current parameters, so neither the bands
nor the parameters may change between the two calls.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .data import Dataset, _check_seed, _is_int
from .ndlayer import (
    DEFAULT_EPS,
    NdParams,
    PairIndexer,
    _as_batch,
    _backward,
    _check_bands,
    _check_eps,
    _forward,
    _pair_indexer,
    pair_count,
)
from .ndmath import sigmoid, softplus

ARCHITECTURES = ("nd", "mlp", "attnd")
DEPTHS = (2, 3, 4)

__all__ = [
    "ARCHITECTURES",
    "DEPTHS",
    "DenseLayer",
    "Model",
    "TrainConfig",
    "AdamState",
    "TrainHistory",
    "TrainingDiverged",
    "DIVERGENCE_LOSS",
    "ADAM_BETA1",
    "ADAM_BETA2",
    "ADAM_EPS",
    "bce_with_logits",
    "init_adam",
    "adam_step",
    "build_model",
    "count_params",
    "model_forward",
    "model_backward",
    "predict_labels",
    "accuracy_from_logits",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_to_json",
    "model_from_checkpoint_dict",
]


# ---------------------------------------------------------------------------
# dense layer


@dataclass
class DenseLayer:
    """One dense layer of a ``Model``: views of its vector and the activation
    the layout gives it."""

    weights: np.ndarray  # (n_out, n_in)
    bias: np.ndarray  # (n_out,)
    activation: str  # "relu" | "identity"


@dataclass
class DenseCache:
    inputs: np.ndarray  # (batch, n_in)
    pre: np.ndarray  # (batch, n_out), pre-activation


def _dense_forward(layer: DenseLayer, x):
    """Affine map plus activation of a 2-d batch; nothing is checked.

    Stacks broadcast over a leading axis: gradient checks pass (S, 1, n_in)
    stacks of one-row batches, with a (S, n_out, n_in) stack of weights or
    a (S, 1, n_out) stack of biases, and a ``_Stack`` of F models passes
    (F, batch, n_in) batches with (F, n_out, n_in) weights and (F, 1, n_out)
    biases. The product is then one per-item product, as for one item.
    """
    pre = x @ layer.weights.swapaxes(-1, -2)
    pre += layer.bias
    out = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
    return out, DenseCache(x, pre)


def _dense_backward(layer: DenseLayer, cache: DenseCache, delta, d_weights,
                    d_bias, need_input: bool = True):
    """Writes the weight and bias gradients into ``d_weights``/``d_bias``.

    ``delta`` is (batch, n_out), or (F, batch, n_out) for a ``_Stack`` with
    (F, n_out, n_in) and (F, n_out) gradients. Returns the input gradient,
    or None when ``need_input`` is false. The ReLU derivative at 0 is 0.
    Nothing is checked.
    """
    if layer.activation == "relu":
        delta = delta * (cache.pre > 0)
    np.matmul(delta.swapaxes(-1, -2), cache.inputs, out=d_weights)
    np.add.reduce(delta, axis=-2, out=d_bias)
    return delta @ layer.weights if need_input else None


def _gate(layer: DenseLayer, batch, outputs):
    """Pair outputs scaled by gates sigmoid(W @ b + c); nothing is checked.

    ``layer`` is the gate's identity dense layer, W (n_pairs, n_bands) and
    c (n_pairs,). Gates lie in (0, 1), so gated outputs keep the [-1, 1]
    bound of their inputs. Gradient checks pass stacks, as for
    ``_dense_forward``. The cache is (the DenseCache, the gates, outputs).
    """
    pre, affine = _dense_forward(layer, batch)
    gate = sigmoid(pre)
    return gate * outputs, (affine, gate, outputs)


def _gate_backward(layer: DenseLayer, cache, delta, d_weights, d_bias,
                   need_bands: bool = True):
    """Gradients of ``_gate`` for a ``delta`` shaped like ``_dense_backward``'s;
    nothing is checked.

    Writes the weight and bias gradients into ``d_weights`` and ``d_bias``
    and returns (d_outputs, d_bands), d_bands None unless ``need_bands``.
    """
    affine, gate, outputs = cache
    d_pre = delta * outputs * gate * (1.0 - gate)
    return delta * gate, _dense_backward(layer, affine, d_pre, d_weights,
                                         d_bias, need_bands)


# ---------------------------------------------------------------------------
# loss


def bce_with_logits(logit, label):
    """Binary cross-entropy on a raw logit, in the overflow-safe form.

    loss = softplus(logit) - label*logit, dloss/dlogit = sigmoid(logit) - label,
    with sigmoid taken from the softplus as -expm1(-softplus(logit)).
    Elementwise over arrays and scalars; labels are 0/1.
    """
    logit = np.asarray(logit, dtype=np.float64)
    label = np.asarray(label, dtype=np.float64)
    sp = softplus(logit)
    return sp - label * logit, -(np.expm1(-sp) + label)


def predict_labels(logits):
    """Hard 0/1 predictions; the tie sigmoid(logit) == 0.5 maps to class 0."""
    return (np.asarray(logits) > 0).astype(np.int64)


def accuracy_from_logits(logits, labels) -> float:
    return float(np.mean(predict_labels(logits) == np.asarray(labels)))


# ---------------------------------------------------------------------------
# optimizer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    weight_decay: float = 1e-4  # L2, folded into the gradient
    batch_size: int = 32
    max_epochs: int = 150
    patience: int = 25
    seed: int = 0
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience", "seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"TrainConfig {name} must be an integer, "
                                 f"got {getattr(self, name)!r}")
        _check_seed(self.seed)
        positive = (self.learning_rate, self.batch_size, self.max_epochs,
                    self.patience, self.eps)
        if not (np.isfinite(positive).all() and min(positive) > 0):
            raise ValueError("TrainConfig fields must be positive and finite")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("weight_decay must be nonnegative and finite")
        if self.patience > self.max_epochs:
            raise ValueError("patience must not exceed max_epochs")


@dataclass
class AdamState:
    m: np.ndarray  # first moment, shaped like the parameter array
    v: np.ndarray  # second moment
    t: int = 0


def init_adam(param) -> AdamState:
    """Zero moments for one parameter array (``train`` passes the model's
    vector)."""
    return AdamState(m=np.zeros_like(param), v=np.zeros_like(param))


def adam_step(param, grad, state: AdamState, config: TrainConfig):
    """One Adam update of one array, in place on ``param`` and ``state``.

    ``grad`` is read, not written. The weight decay is a coupled L2 term:
    it enters the gradient (grad + wd*param) before the moment updates.
    """
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ValueError(f"param shape {param.shape}, grad shape {grad.shape} "
                         f"and moment shape {state.m.shape} disagree")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    m, v = state.m, state.v
    if config.weight_decay:
        grad = grad + config.weight_decay * param
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
    param -= config.learning_rate * update
    return param, state


# ---------------------------------------------------------------------------
# model


@dataclass(eq=False)
class Model:
    """One architecture's layout and the vector of its learnable scalars.

    The constructor copies ``vector`` and rejects it unless every value is
    finite; ``nd_params``, ``attn_weights``, ``attn_bias`` and ``layers``
    (the dense hidden stack, ending with the 1-logit head) are views of the
    copy, laid out by ``_layout``; ``attn_layer`` is the gate's identity
    ``DenseLayer`` on the attn views. Models compare by identity.
    """

    arch: str
    depth: int
    band_names: list
    eps: float
    vector: np.ndarray  # every learnable scalar, in parameters() order
    nd_params: NdParams | None = field(init=False, repr=False)
    attn_weights: np.ndarray | None = field(init=False, repr=False)
    attn_bias: np.ndarray | None = field(init=False, repr=False)
    attn_layer: DenseLayer | None = field(init=False, repr=False)
    layers: list = field(init=False, repr=False)
    indexer: PairIndexer = field(init=False, repr=False)

    def __post_init__(self):
        self.eps = _check_eps(self.eps)
        shapes, activations = _layout(self.arch, self.depth, self.n_bands)
        size = sum(math.prod(shape) for _, shape in shapes)
        self.vector = np.array(self.vector, dtype=np.float64)
        if self.vector.shape != (size,):
            raise ValueError(
                f"{self.arch} depth {self.depth} on {self.n_bands} bands has "
                f"{size} parameters, got a vector of shape {self.vector.shape}")
        self.indexer = _pair_indexer(self.n_bands)
        self._parameters = self.views(self.vector)
        if not np.isfinite(self.vector).all():
            name = next(name for (name, _), array in zip(shapes, self._parameters)
                        if not np.isfinite(array).all())
            raise ValueError(f"parameter {name} is not finite")
        named = dict(zip((name for name, _ in shapes), self._parameters))
        self.nd_params = None
        if "nd.alpha" in named:
            self.nd_params = NdParams(named["nd.alpha"], named["nd.beta"])
        self.attn_weights = named.get("attn.weights")
        self.attn_bias = named.get("attn.bias")
        self.attn_layer, self.layers = _dense_layers(named, activations)

    @property
    def n_bands(self) -> int:
        return len(self.band_names)

    def __reduce__(self):
        # Pickle and deepcopy rebuild through __init__, so the copy's arrays
        # are views of its own vector (a copied view would be detached).
        return Model, tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def parameters(self) -> list:
        """Learnable arrays in ``_layout`` (checkpoint) order, each a view of
        ``vector``, which holds them in this order."""
        return list(self._parameters)

    def parameter_names(self) -> list:
        shapes, _ = _layout(self.arch, self.depth, self.n_bands)
        return [name for name, _ in shapes]

    def views(self, vector) -> list:
        """Views of a vector laid out like ``vector``, in parameters() order;
        the rows of an (F, P) matrix give (F,) + shape views."""
        views, offset, lead = [], 0, vector.shape[:-1]
        for _, shape in _layout(self.arch, self.depth, self.n_bands)[0]:
            size = math.prod(shape)
            views.append(vector[..., offset:offset + size].reshape(lead + shape))
            offset += size
        return views

    def copy(self) -> "Model":
        return copy.deepcopy(self)


def _dense_layers(named: dict, activations):
    """The gate's identity ``DenseLayer`` (None without a gate) and the dense
    stack, on the arrays of ``named``, keyed by ``_layout``'s names."""
    weights = named.get("attn.weights")
    gate = (None if weights is None
            else DenseLayer(weights, named["attn.bias"], "identity"))
    return gate, [DenseLayer(named[f"dense{k}.weights"], named[f"dense{k}.bias"],
                             activation) for k, activation in enumerate(activations)]


@dataclass(eq=False)
class _Stack:
    """F models of one layout whose vectors are the rows of one (F, P)
    matrix, as ``_model_forward`` and ``_model_backward`` read them.

    Every array is a view of the matrix with a leading model axis; the
    1-d ones (the biases and the alpha|beta block) carry a unit row axis
    after it, so that they broadcast over (F, batch, width) activations.
    """

    arch: str
    eps: float
    indexer: PairIndexer
    vector: np.ndarray  # (F, 1, P)
    attn_layer: DenseLayer | None
    layers: list


def _stack(model: Model, matrix) -> _Stack:
    """A ``_Stack`` of ``model``'s layout over the rows of ``matrix``."""
    shapes, activations = _layout(model.arch, model.depth, model.n_bands)
    views = [view[:, None] if view.ndim == 2 else view
             for view in model.views(matrix)]
    return _Stack(model.arch, model.eps, model.indexer, matrix[:, None],
                  *_dense_layers(dict(zip((name for name, _ in shapes), views)),
                                 activations))


@functools.lru_cache(maxsize=64, typed=True)
def _layout(arch: str, depth: int, n_bands: int):
    """The one table of which arrays an (arch, depth, n_bands) model has.

    Returns ``(shapes, activations)``: a (name, shape) pair per array in
    ``parameters()`` (checkpoint) order, and the dense activations, ReLU
    on hidden layers and identity on the 1-logit head. The depth must be
    an int in DEPTHS, not a bool or a float (the cache is typed, so 3.0
    does not find the entry of 3).
    """
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}; expected {ARCHITECTURES}")
    if type(depth) is not int or depth not in DEPTHS:
        raise ValueError(f"unsupported depth {depth!r}; expected one of {DEPTHS}")
    n_pairs = pair_count(n_bands)
    shapes = []
    if arch != "mlp":
        shapes += [("nd.alpha", (n_pairs,)), ("nd.beta", (n_pairs,))]
    if arch == "attnd":
        shapes += [("attn.weights", (n_pairs, n_bands)), ("attn.bias", (n_pairs,))]
    widths = [n_pairs] * (depth - 1) + [1]
    if arch == "mlp":
        widths.insert(0, n_bands)
    for k in range(len(widths) - 1):
        shapes += [(f"dense{k}.weights", (widths[k + 1], widths[k])),
                   (f"dense{k}.bias", (widths[k + 1],))]
    activations = ("relu",) * (len(widths) - 2) + ("identity",)
    return tuple(shapes), activations


def default_band_names(n_bands: int) -> list:
    """Sentinel-2-style labels for 10 bands, generic otherwise."""
    if n_bands == 10:
        return ["B2", "B3", "B4", "B5", "B6", "B7", "B8", "B8A", "B11", "B12"]
    return [f"band_{k}" for k in range(n_bands)]


def build_model(arch: str, depth: int, n_bands: int, seed: int = 0,
                eps: float = DEFAULT_EPS, band_names=None) -> Model:
    """Construct one of the three architectures at the given depth.

    Widths follow the pair count (45 for 10 bands). Dense weights draw
    uniform from [-1/sqrt(fan_in), +1/sqrt(fan_in)] in forward layer
    order; biases start at zero. Coupling coefficients start at zero
    (the classical symmetric index); attention gates start near the
    uniform 0.5 gate (weights uniform in [-0.1, 0.1], bias zero). The
    attention weights are drawn before the dense weights. ``seed`` must be
    an int of at least 0 (``data._check_seed``), checked first.
    """
    _check_seed(seed)
    shapes, _ = _layout(arch, depth, n_bands)
    if band_names is None:
        band_names = default_band_names(n_bands)
    elif len(band_names) != n_bands:
        raise ValueError(f"{len(band_names)} band names for {n_bands} bands")
    rng = np.random.default_rng(seed)
    arrays = []
    for name, shape in shapes:
        if name == "attn.weights":
            arrays.append(rng.uniform(-0.1, 0.1, size=shape))
        elif name.endswith(".weights"):
            bound = 1.0 / np.sqrt(shape[1])
            arrays.append(rng.uniform(-bound, bound, size=shape))
        else:
            arrays.append(np.zeros(shape))
    return Model(arch, depth, list(band_names), eps,
                 np.concatenate([array.ravel() for array in arrays]))


def count_params(model: Model) -> int:
    """Exact number of learnable scalars."""
    return int(model.vector.size)


@dataclass
class ModelCache:
    """What ``_model_backward`` reads: every intermediate of one forward."""

    first: object  # NdCache for nd archs, else None
    gate: object  # (DenseCache, gates, pair outputs) for attnd, else None
    dense: list  # DenseCache per dense layer
    signed: bool


@dataclass
class ReplayCache:
    """What ``model_backward`` needs to replay a ``model_forward``: the
    validated batch (the caller's array when it already was a 2-d float64
    one, not a copy) and how it was scored."""

    batch: np.ndarray  # (rows, n_bands)
    signed: bool
    single: bool


# Float64 elements per scoring block array (512 KB); ``_model_logits``
# sizes its row blocks by it, and gradient checks the one stack that each
# checked array's blocks reuse (``evaluation._stacked_diffs``).
_BLOCK_ELEMENTS = 1 << 16
# Float64 elements per stacked (models, batch, width) training-step array:
# 128 KiB, glibc's default mmap threshold, above which every step's
# temporaries are mapped and page-faulted afresh.
_STEP_ELEMENTS = 1 << 14


def _widest(n_bands: int) -> int:
    """The widest per-row activation on ``n_bands`` bands: the pair count
    (the mlp hidden width too) or the band count."""
    return max(pair_count(n_bands), n_bands)


def _block_rows(n_bands: int, width: int = 0) -> int:
    """Rows per block, at least 1, so that no block array exceeds
    ``_BLOCK_ELEMENTS`` floats when a row holds ``width`` floats or
    ``_widest(n_bands)``."""
    return max(1, _BLOCK_ELEMENTS // max(_widest(n_bands), width))


def _stack_size(n_bands: int, rows: int) -> int:
    """Models per training stack, at least 1, so that no (models, rows,
    ``_widest(n_bands)``) step array exceeds ``_STEP_ELEMENTS`` floats."""
    return max(1, _STEP_ELEMENTS // (rows * _widest(n_bands)))


def _model_forward(model: Model, batch, signed: bool = False):
    """Logits of a 2-d batch and the cache for ``_model_backward``.

    The pairwise core reads the adjacent alpha|beta block of
    ``model.vector``, alpha's half first. Gradient checks pass an
    (S, 1, n_bands) stack of one-row batches and get (S, 1) logits; a
    ``_Stack`` of F models takes an (F, batch, n_bands) batch and gives
    (F, batch) logits. Nothing is checked: ``model_forward`` and
    ``train`` validate the inputs first.
    """
    first = gate = None
    x = batch
    if model.arch != "mlp":
        x, first = _forward(batch, model.vector[..., :2 * model.indexer.n_pairs],
                            model.eps, model.indexer, signed)
        if model.attn_layer is not None:
            x, gate = _gate(model.attn_layer, batch, x)
    dense = []
    for layer in model.layers:
        x, cache = _dense_forward(layer, x)
        dense.append(cache)
    return x[..., 0], ModelCache(first, gate, dense, signed)


def _model_logits(model: Model, batch, signed: bool = False):
    """Logits of a 2-d batch, scored by ``_model_forward`` in consecutive
    blocks of ``_block_rows(model.n_bands)`` rows; no cache is kept.

    Rows are scored independently; only the matrix products may round
    differently for another row count. Nothing is checked.
    """
    rows = _block_rows(model.n_bands)
    logits = np.empty(len(batch))
    for start in range(0, len(batch), rows):
        logits[start:start + rows] = _model_forward(
            model, batch[start:start + rows], signed)[0]
    return logits


def _model_backward(model: Model, cache: ModelCache, d_logit, grads,
                    need_input: bool = True):
    """Write every parameter gradient into ``grads``; return d_bands.

    ``d_logit`` has one entry per cached row, (F, batch) for a ``_Stack``,
    and ``grads`` holds the views ``Model.views`` gives of a vector, or of
    an (F, P) matrix for a stack, in ``parameters()`` order. With
    ``need_input`` false the first layer's input gradient is skipped and
    None is returned. Nothing is checked.
    """
    delta = d_logit[..., None]
    lead = len(grads) - 2 * len(model.layers)
    for k in range(len(model.layers) - 1, -1, -1):
        delta = _dense_backward(model.layers[k], cache.dense[k], delta,
                                grads[lead + 2 * k], grads[lead + 2 * k + 1],
                                need_input or k > 0 or lead > 0)
    if model.arch == "mlp":
        return delta
    gate_bands = None
    if model.attn_layer is not None:
        delta, gate_bands = _gate_backward(model.attn_layer, cache.gate, delta,
                                           grads[2], grads[3], need_input)
    d_bands = _backward(cache.first, delta, cache.signed, grads[0], grads[1],
                        need_input)
    if gate_bands is not None:
        d_bands = d_bands + gate_bands
    return d_bands


def _check_input(model: Model, X, signed: bool, name: str):
    """The bands a model accepts: a 2-d array of its band count and finite
    values, nonnegative unless ``signed`` or the first layer is dense."""
    if X.ndim != 2 or X.shape[1] != model.n_bands:
        raise ValueError(f"model expects {model.n_bands} bands, got {name} "
                         f"of shape {X.shape}")
    _check_bands(X, signed or model.nd_params is None, name)


def _check_set(model: Model, dataset, signed: bool, name: str) -> Dataset:
    """The one rule for the labelled sets a model trains and scores on: a
    ``data.Dataset`` of the model's band names or an (X, y) pair, X passing
    ``_check_input``, rebuilt as a Dataset on those names (which checks the
    labels, of a Dataset too) and non-empty."""
    if isinstance(dataset, Dataset):
        X, y, names = dataset.X, dataset.y, dataset.band_names
    else:
        (X, y), names = dataset, model.band_names
    X = np.asarray(X, dtype=np.float64)
    _check_input(model, X, signed, name)
    if list(names) != list(model.band_names):
        raise ValueError(f"band names disagree: model {model.band_names}, "
                         f"{name} {list(names)}")
    dataset = Dataset(list(model.band_names), X, y)
    if dataset.n_samples == 0:
        raise ValueError(f"{name} must be non-empty")
    return dataset


def model_forward(model: Model, bands, signed: bool = False):
    """End-to-end logit. Returns (logit, cache).

    ``signed=True`` routes an nd/attnd first layer through the
    smooth-absolute-value forward so inputs may be negative (used when
    evaluating noise-perturbed data); the plain forward rejects negatives.
    The rows are scored in fixed blocks (``_model_logits``), and the cache
    keeps only the validated batch, so no per-pair array outlives the call.
    """
    batch, single = _as_batch(bands, "bands")
    _check_input(model, batch, signed, "input")
    logit = _model_logits(model, batch, signed)
    return (float(logit[0]) if single else logit), ReplayCache(batch, signed,
                                                               single)


def model_backward(model: Model, cache: ReplayCache, d_logit):
    """Gradients for every learnable array plus the input bands.

    Replays the forward on the cached batch with the model's current
    parameters, so neither the bands passed to ``model_forward`` nor the
    parameters may change between the two calls. Returns (grads, d_bands)
    with ``grads`` ordered like ``model.parameters()``; they are views of
    one fresh vector laid out like ``model.vector``.
    """
    delta = np.asarray(d_logit, dtype=np.float64)
    if cache.single:
        delta = np.atleast_1d(delta)
    rows = len(cache.batch)
    if delta.shape != (rows,):
        raise ValueError(
            f"d_logit shape {delta.shape} does not match the {rows} cached rows"
        )
    _, forward = _model_forward(model, cache.batch, cache.signed)
    grads = model.views(np.empty_like(model.vector))
    d_bands = _model_backward(model, forward, delta, grads)
    return grads, (d_bands[0] if cache.single else d_bands)


# ---------------------------------------------------------------------------
# training

# Mean train BCE above which an epoch counts as diverged. Training starts
# near ln 2 = 0.69, and a wrong row costs about |logit|, so a mean of 1000
# puts the typical wrong logit far past the point where the sigmoid
# saturates (|logit| ~ 37 in float64). On the packaged synthetic spec at
# learning rates 0.01-1e4, every arch/depth run whose mean train loss
# passed 1000 in an epoch ended with a best validation accuracy of 0.68 or
# less; runs at the default rate stay below 0.6.
DIVERGENCE_LOSS = 1e3


class TrainingDiverged(ValueError):
    """Training blew up: non-finite parameters or loss, or a mean train
    loss above ``DIVERGENCE_LOSS``. ``epoch`` is 1-based; ``fold`` is set
    by cross-validation."""

    def __init__(self, message, epoch, fold=None):
        super().__init__(message)
        self.epoch, self.fold = epoch, fold

    def __reduce__(self):
        return type(self), (self.args[0], self.epoch, self.fold)


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_accuracy: list = field(default_factory=list)
    best_epoch: int = 0  # 1-based; 0 means no epoch ran
    stopped_epoch: int = 0


def _divergence(mean_loss: float, vector) -> str | None:
    """Why an epoch with this mean train loss and these parameters counts
    as diverged, or None."""
    if not np.isfinite(mean_loss):
        return "non-finite loss"
    if not np.isfinite(vector).all():
        return "non-finite parameters"
    if mean_loss > DIVERGENCE_LOSS:
        return f"mean train loss {mean_loss:.3g} exceeds {DIVERGENCE_LOSS:g}"
    return None


def train(model: Model, train_set, val_set, config: TrainConfig):
    """Mini-batch Adam with early stopping on validation accuracy.

    Shuffles the training set each epoch from a generator seeded with
    config.seed, trains on every batch including a final partial one,
    and tracks the best validation accuracy (strict improvement; ties
    keep the earlier epoch). Stops after ``patience`` epochs without
    improvement or at ``max_epochs``, then restores the best-epoch
    parameters. Returns (model, TrainHistory).

    Each set, a ``data.Dataset`` or an (X, y) pair, passes ``_check_set``
    once, on entry (nonnegative for nd/attnd); the steps then run the
    unchecked cores. This is ``_lockstep`` with one model, which steps
    the model's own arrays: each step writes the gradients into one
    preallocated vector and makes one Adam update.
    Raises ``TrainingDiverged`` after an epoch whose parameters or loss
    are not finite or whose mean train loss exceeds ``DIVERGENCE_LOSS``.
    """
    train_set = _check_set(model, train_set, False, "training set")
    val_set = _check_set(model, val_set, False, "validation set")
    (outcome,) = _lockstep([model], train_set.X[None], train_set.y[None],
                           [val_set], config, [config.seed])
    if isinstance(outcome, TrainingDiverged):
        raise outcome
    return model, outcome


def _lockstep(models, X, y, val_sets, config: TrainConfig, seeds):
    """Train F models of one layout side by side, each exactly as ``train``
    would train it alone on its checked sets.

    Model k trains on the rows ``X[k]``, (n, n_bands), labelled ``y[k]``
    and validates on the checked Dataset ``val_sets[k]``. It shuffles
    with its own generator, seeded ``seeds[k]``, and has its own
    best-epoch snapshot, early stopping and divergence check; ``config``
    gives everything else. Each step gathers its batch rows from ``X``.
    One model steps its own arrays. Several step as one ``_Stack`` on an
    (F, P) matrix of their vectors, with one Adam state (the step count
    is shared), and each validation pass copies a model's row into its
    vector. A model leaves the stack when it stops or diverges. Returns a
    list parallel to ``models``: the TrainHistory of a model that stopped
    (its vector then holds the best epoch's parameters) or the
    TrainingDiverged of one that diverged.
    """
    n_rows = X.shape[1]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    outcomes = [None] * len(models)
    histories = [TrainHistory() for _ in models]
    best = [model.vector.copy() for model in models]
    best_acc = [-np.inf] * len(models)
    since = [0] * len(models)
    active = list(range(len(models)))
    if len(models) == 1:
        stack, vector = models[0], models[0].vector
    else:
        vector = np.stack([model.vector for model in models])
        stack = _stack(models[0], vector)
    grad = np.empty_like(vector)
    grads = models[0].views(grad)
    state = init_adam(vector)

    for epoch in range(1, config.max_epochs + 1):
        # each model's shuffled rows, as indices into the flattened X
        order = np.array([rngs[k].permutation(n_rows) for k in active])
        order += n_rows * np.arange(len(active))[:, None]
        order = order.reshape(vector.shape[:-1] + (n_rows,))
        X_rows, y_rows = X.reshape(-1, X.shape[-1]), y.reshape(-1)
        loss_sum = 0.0
        for start in range(0, n_rows, config.batch_size):
            chunk = order[..., start:start + config.batch_size]
            xb, yb = X_rows[chunk], y_rows[chunk]
            logits, cache = _model_forward(stack, xb)
            losses, d_logits = bce_with_logits(logits, yb)
            loss_sum += np.add.reduce(losses, axis=-1)
            d_logits /= yb.shape[-1]
            _model_backward(stack, cache, d_logits, grads, need_input=False)
            adam_step(vector, grad, state, config)

        rows = vector.reshape(len(active), -1)
        loss_sums = np.reshape(loss_sum, -1)
        leaving = []
        for i, k in enumerate(active):
            train_loss = float(loss_sums[i] / n_rows)
            problem = _divergence(train_loss, rows[i])
            if problem is not None:
                outcomes[k] = TrainingDiverged(
                    f"training diverged at epoch {epoch}: {problem}", epoch)
                leaving.append(i)
                continue
            model, history = models[k], histories[k]
            if len(models) > 1:
                model.vector[...] = rows[i]
            val_logits = _model_logits(model, val_sets[k].X)
            val_losses, _ = bce_with_logits(val_logits, val_sets[k].y)
            val_acc = accuracy_from_logits(val_logits, val_sets[k].y)

            history.train_loss.append(train_loss)
            history.val_loss.append(float(val_losses.mean()))
            history.val_accuracy.append(val_acc)

            if val_acc > best_acc[k]:
                best_acc[k] = val_acc
                best[k] = model.vector.copy()
                history.best_epoch = epoch
                since[k] = 0
            else:
                since[k] += 1
            history.stopped_epoch = epoch
            if since[k] >= config.patience or epoch == config.max_epochs:
                model.vector[...] = best[k]
                outcomes[k] = history
                leaving.append(i)
        if leaving:
            keep = [i for i in range(len(active)) if i not in leaving]
            active = [active[i] for i in keep]
            if not active:
                break
            vector, X, y = vector[keep], X[keep], y[keep]
            state.m, state.v = state.m[keep], state.v[keep]
            stack = _stack(models[0], vector)
            grad = np.empty_like(vector)
            grads = models[0].views(grad)
    return outcomes


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_FORMAT = "ndnet-checkpoint"
CHECKPOINT_VERSION = 1


def checkpoint_to_json(model: Model, meta: dict | None = None) -> str:
    """Serialize a model to a self-describing JSON document.

    Floats are written in Python's shortest round-trip decimal form, so a
    load reproduces every f64 bit-exactly.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "arch": model.arch,
        "depth": model.depth,
        "band_names": list(model.band_names),
        "eps": model.eps,
        "params": {
            name: np.asarray(value, dtype=np.float64).tolist()
            for name, value in zip(model.parameter_names(), model.parameters())
        },
        "activations": [layer.activation for layer in model.layers],
    }
    if meta is not None:
        doc["meta"] = meta
    return json.dumps(doc, indent=2)


def save_checkpoint(model: Model, path, meta: dict | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(checkpoint_to_json(model, meta))
        fh.write("\n")


def model_from_checkpoint_dict(doc: dict) -> Model:
    """Rebuild a model from a checkpoint document.

    Raises ValueError for a document of another format or version, missing
    fields, a depth that is not an int in DEPTHS, parameter names or shapes
    that do not match the declared architecture's layout, non-finite
    values, activations the architecture does not have, or a bool eps.
    """
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError("not an ndnet checkpoint document")
    version = doc.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}; "
                         f"expected {CHECKPOINT_VERSION}")
    fields = ("arch", "depth", "band_names", "eps", "params", "activations")
    missing = [key for key in fields if key not in doc]
    if missing:
        raise ValueError(f"checkpoint lacks fields {missing}")
    band_names, params = doc["band_names"], doc["params"]
    arch, depth = doc["arch"], doc["depth"]
    if not (isinstance(arch, str) and isinstance(depth, int)
            and isinstance(band_names, list) and isinstance(params, dict)
            and all(isinstance(name, str) for name in band_names)
            and isinstance(doc["eps"], (int, float))):
        raise ValueError("checkpoint arch, depth, band_names, params or eps "
                         "malformed")
    shapes, activations = _layout(arch, depth, len(band_names))
    names = [name for name, _ in shapes]
    if set(params) != set(names):
        raise ValueError(
            f"checkpoint parameters do not match {arch} depth {depth}: "
            f"missing {sorted(set(names) - set(params))}, "
            f"unexpected {sorted(set(params) - set(names))}")
    values = []
    for name, shape in shapes:
        try:
            value = np.asarray(params[name], dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError(f"checkpoint parameter {name} is not numeric") from None
        if value.shape != shape:
            raise ValueError(f"checkpoint parameter {name} has shape "
                             f"{value.shape}, expected {shape}")
        values.append(value.ravel())
    if doc["activations"] != list(activations):
        raise ValueError(f"checkpoint activations {doc['activations']!r} do not "
                         f"match {arch} depth {depth}: {list(activations)}")
    return Model(arch, depth, band_names, doc["eps"], np.concatenate(values))


def load_checkpoint(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return model_from_checkpoint_dict(doc)
