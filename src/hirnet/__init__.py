"""Domain-generalization experiment engine.

Learns classifiers over ordered synthetic domains while aligning per-class
posterior predictions across domains (a pairwise asymmetric KL penalty),
against feature-alignment baselines. Import each name from the module that
defines it:

- ``harness``: hold-one-domain-out experiments, their configs, training, evaluation and reports
- ``data``: suite manifests, synthetic domains and batch plans
- ``losses``: cross-entropy, HIR's KL, the MMD and CCSA penalties, the step objective
- ``models``: the MLP, its forward pass and checkpoints
- ``diagnostics``: invariance probes and their output files
- ``autodiff``: the reverse-mode tape over float64 matrices, or stacks of one per seed
- ``optim``: Adam
- ``errors``: exception types, config-value checks and the JSON codec
- ``cli``: the ``hirnet run``, ``sweep`` and ``diag`` commands
"""

__version__ = "0.1.0"
