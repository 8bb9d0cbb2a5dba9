"""Prototype condensation for the 1-NN rule with certified size bounds.

The package turns a classical compression heuristic into something a kernel
machine can reason about: condensing a training set to a consistent prototype
subset is, at a suitable Gaussian bandwidth, the same computation as running
a multiclass perceptron in a channeled feature space. That identification
makes perceptron mistake bounds apply to the condensed set, and both the
bandwidth certificate and the margin bound are computable objects here.
"""

from .cnn import (
    OnlineResult,
    default_checkpoints,
    run_cnn,
    run_cnn_online,
)
from .dataset import (
    ConflictingDuplicateError,
    Dataset,
    DatasetError,
    LabeledPoint,
    blob_stream,
    fuzz_dataset,
    generate_blobs,
    load_csv,
    random_dataset,
    sq_dists_to,
    write_csv,
)
from .kernel_machine import (
    DualWeightVector,
    KernelConfig,
    PassBudgetError,
    argmax_class,
    run_mp,
    shifted_class_scores,
)
from .margin_bound import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    RADIUS,
    BoundReport,
    GramBudgetError,
    GridSearchReport,
    MarginCertificate,
    NoCertifiedSigmaError,
    NotSeparableError,
    UncertifiedSigmaError,
    VacuousBoundError,
    bound_infimum,
    cnn_bound,
    default_sigma_grid,
    margin,
)
from .neighborly import (
    DEFAULT_SAMPLED_TRIALS,
    ExhaustiveCapError,
    GammaDegenerateError,
    SigmaCertificate,
    Violation,
    min_squared_gap,
    replay_violation,
    sufficient_sigma,
    verify_neighborly,
)
from .nn_rule import (
    EmptyPrototypeSetError,
    PrototypeSet,
    UpdateEvent,
    UpdateTrace,
    classify,
    is_consistent,
    nearest,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_ITERS",
    "DEFAULT_SAMPLED_TRIALS",
    "DEFAULT_TOL",
    "RADIUS",
    "BoundReport",
    "ConflictingDuplicateError",
    "Dataset",
    "DatasetError",
    "DualWeightVector",
    "EmptyPrototypeSetError",
    "ExhaustiveCapError",
    "GammaDegenerateError",
    "GramBudgetError",
    "GridSearchReport",
    "KernelConfig",
    "LabeledPoint",
    "MarginCertificate",
    "NoCertifiedSigmaError",
    "NotSeparableError",
    "OnlineResult",
    "PassBudgetError",
    "PrototypeSet",
    "SigmaCertificate",
    "UncertifiedSigmaError",
    "UpdateEvent",
    "UpdateTrace",
    "VacuousBoundError",
    "Violation",
    "argmax_class",
    "blob_stream",
    "bound_infimum",
    "classify",
    "cnn_bound",
    "default_checkpoints",
    "default_sigma_grid",
    "fuzz_dataset",
    "generate_blobs",
    "is_consistent",
    "load_csv",
    "margin",
    "min_squared_gap",
    "nearest",
    "random_dataset",
    "replay_violation",
    "run_cnn",
    "run_cnn_online",
    "run_mp",
    "shifted_class_scores",
    "sq_dists_to",
    "sufficient_sigma",
    "verify_neighborly",
    "write_csv",
]
