"""Domain-generalization experiment engine.

Learns classifiers over ordered synthetic domains while aligning per-class
posterior predictions across domains (a pairwise asymmetric KL penalty),
alongside feature-alignment baselines, with a hold-one-domain-out harness
and invariance diagnostics. Built on a small self-contained reverse-mode
autodiff core over float64 matrices, or stacks of them that train several
seeds in one pass.
"""

from .autodiff import Graph, Tensor, grad_check, log_softmax, matmul, relu
from .data import (
    DomainDataset,
    DomainSuite,
    SuiteSpec,
    stratified_batches,
)
from .diagnostics import (
    DiagnosticsBundle,
    collect_bundle,
    domain_alignment_matrix,
    paired_vs_unpaired_kl,
    posterior_kl_matrix,
    prediction_agreement,
)
from .errors import ConfigError, ContractError, ShapeError
from .harness import (
    ExperimentConfig,
    OptimizerConfig,
    RunReport,
    evaluate,
    run_experiment,
    train,
)
from .losses import (
    BatchLabels,
    LossBreakdown,
    class_conditional_align,
    combined_loss,
    cross_entropy,
    hir_kl,
    mmd_rbf,
)
from .models import MlpSpec, ModelParams, forward, init_params, load_checkpoint, save_checkpoint
from .optim import AdamState, adam_step, init_adam

__version__ = "0.1.0"
