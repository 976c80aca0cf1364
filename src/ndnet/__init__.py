"""Trainable normalized-difference spectral features, end to end.

A small numpy-only stack: a differentiable pairwise normalized-difference
layer with learnable positive coupling coefficients and hand-derived
gradients, dense baselines matched in width, a deterministic training
loop with Adam and early stopping, stratified cross-validation over
synthetic or CSV spectra, multiplicative-noise robustness sweeps and
coefficient interpretability exports.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    SplitSpec,
    SynthSpec,
    default_synth_spec,
    inject_noise,
    load_csv,
    load_synth_spec,
    save_csv,
    stratified_split,
    synth_generate,
)
from .evaluation import (
    CoeffRatioMatrix,
    CrossvalResult,
    EvalReport,
    GradcheckReport,
    accuracy,
    attach_noise_sweep,
    coeff_ratios,
    efficiency,
    gradcheck,
    noise_sweep,
    run_crossval,
    top_asymmetric,
)
from .ndlayer import (
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
from .ndmath import sigmoid, softplus
from .network import (
    AdamState,
    DenseLayer,
    Model,
    TrainConfig,
    TrainHistory,
    adam_step,
    bce_with_logits,
    build_model,
    count_params,
    init_adam,
    load_checkpoint,
    model_backward,
    model_forward,
    save_checkpoint,
    train,
)
