"""Transductive zero-shot learning via attribute-conditioned Gaussians
and cycle-consistent adversarial feature adaptation."""

from zslada.base_model import (
    BaseZslModel,
    PretrainConfig,
    class_params_matrix,
    draw_gaussian,
    load_base_model,
    loglik_matrix,
    predict,
    pretrain,
    pseudo_labels,
    sample_class,
    save_base_model,
)
from zslada.ada import (
    AdaConfig,
    AdaState,
    AlignedBatch,
    adapt,
    load_ada_state,
    map_prototypes,
    save_ada_state,
    train_std_da,
)
from zslada.data import (
    ClassAttributeTable,
    DatasetBundle,
    FeatureDataset,
    SplitSpec,
    export_embeddings,
    load_dataset,
    save_dataset,
)
from zslada.errors import (
    ConfigError,
    DataError,
    DimensionMismatch,
    NonFiniteGradient,
    NumericalDivergence,
    StaleCache,
    UnknownClass,
    ZsladaError,
)
from zslada.metrics import (
    AblationTable,
    EvalReport,
    ablation_run,
    inductive_accuracy,
    m1_accuracy,
    m2_accuracy,
    per_class_top1,
    write_report_csv,
)
from zslada.profiles import build_base_model, ada_profile, pretrain_config
from zslada.synthetic import (
    SyntheticTruth,
    SyntheticWorld,
    SyntheticWorldSpec,
    make_synthetic_world,
    save_synthetic_world,
)

__version__ = "0.1.0"
