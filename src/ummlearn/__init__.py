"""Uncertainty-driven max-margin losses for class-imbalanced learning.

The library provides: dropout-ensemble uncertainty estimation, margin-
enforcing softmax losses with class-level and sample-level uncertainty
adaptation, the hybrid clustering/center-separation objective, a small
dense network with a progressive trainer, imbalance-aware metrics, and
synthetic long-tail benchmarks, all with analytic gradients verified by a
finite-difference oracle.
"""

from .cluster_loss import (
    ClusterState,
    clustering_loss,
    diversity_regularizer,
    hybrid_loss,
    inter_class_margin_loss,
    update_centers,
)
from .data import (
    BlobSpec,
    BoundaryBiasReport,
    Dataset,
    boundary_bias_demo,
    gaussian_blobs,
    imbalance_subsample,
    load_csv,
    longtail_blob_specs,
    save_csv,
    two_class_blob_specs,
)
from .gradcheck import GradReport, central_difference, check, relative_errors
from .margin_loss import (
    ClassifierState,
    LossResult,
    angular_margin_loss,
    class_margin_from_uncertainty,
    large_margin_softmax_loss,
    softmax_loss,
    uncertainty_weighted_margin_loss,
)
from .metrics import (
    ConfusionCounts,
    PrecisionRecallF1,
    bca,
    g_mean,
    iba,
    precision_recall_f1,
)
from .network import (
    EpochRecord,
    MlpModel,
    RunConfig,
    backward,
    ensemble_class_uncertainty,
    evaluate,
    forward,
    load_model,
    save_model,
    sgd_step,
    train,
)
from .numerics import M_MAX, DenseMatrix, DenseVector
from .seeding import stream_rng, stream_seed
from .uncertainty import (
    class_uncertainty,
    error_moments,
    misclassification_ccdf,
    rival_class,
    sample_dropout_masks,
    sample_feature_moments,
)

__version__ = "0.1.0"
