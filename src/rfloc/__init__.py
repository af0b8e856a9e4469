"""Source-free domain adaptation toolkit for RF indoor localization.

Trains a small convolutional localizer on received-power fingerprints and
adapts it to a shifted deployment with mean-teacher self-distillation
(optionally with confidence-gated pseudo-label correction), or with the
DANN / SHOT-style baselines, without touching source data where the method
forbids it.
"""

import os

# Bit-reproducible training relies on single-threaded BLAS reductions.
# Must run before numpy is imported anywhere in the process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .errors import (  # noqa: E402
    ArtifactError,
    ConfigError,
    CsvParseError,
    DataError,
    NumericalError,
    RflocError,
    SchemaError,
    UsageError,
)
from .data import (  # noqa: E402
    Dataset,
    FoldAssignment,
    NormStats,
    fit_normalizer,
    load_csv,
    make_folds,
    write_csv,
)
from .synthetic import SynthConfig, generate_synthetic  # noqa: E402
from .localizer import (  # noqa: E402
    LocalizerModel,
    SourceStats,
    TrainConfig,
    compute_source_stats,
    finetune_oracle,
    predict,
    train_source,
)
from .artifact import load_model, save_model  # noqa: E402
from .meanteacher import (  # noqa: E402
    MeanTeacherConfig,
    PseudoLabelSet,
    Thresholds,
    adapt,
    compute_thresholds,
    correct_labels,
    ema_update,
)
from .dann import DannConfig, disc_loss, reg_loss, run_dann  # noqa: E402
from .shot import (  # noqa: E402
    ShotConfig,
    augment_strong,
    augment_weak,
    consistency_loss,
    coral_loss,
    pred_stat_loss,
    run_shot,
    teacher_loss,
)
from .evalmetrics import (  # noqa: E402
    HeatmapGrid,
    MetricsReport,
    aggregate_runs,
    compute_heatmap,
    compute_metrics,
    cross_validate,
)
