"""Two-stage career-trend forecasting for player season data.

Stage 1 compresses each career into an embedding and clusters the
embeddings into career types; stage 2 feeds the career sequence and its
cluster into an LSTM forecaster that predicts the three seasons after
age 28. Baselines, metrics, a synthetic-data generator and a CLI round
out the pipeline.
"""

from .autoencoder import Autoencoder, ae_train, flatten_batch
from .baselines import (
    LinearModel,
    last_value_predict,
    linear_fit,
    linear_predict,
    mlp_baseline_train,
    penalized_objective,
)
from .clustering import (
    ClusterModel,
    assign,
    kmeans_fit,
    one_hot,
    purity,
    select_k,
    silhouette_score,
)
from .errors import (
    ArtifactError,
    CareerCastError,
    ConfigError,
    EmptyInputError,
    ImputationError,
    IngestError,
    NumericError,
    ParameterError,
    RankDeficiencyError,
    SchemaError,
    ShapeError,
    SplitError,
    UndefinedMetricError,
)
from .evaluation import EvalReport, evaluate, export_curves, export_scatter, mae, r2
from .forecaster import Forecaster, forecaster_train
from .ingest import (
    CareerSequence,
    Dataset,
    NormStats,
    SeasonRecord,
    ingest_csv,
    split_and_normalize,
)
from .rng import substream
from .schema import FeatureSchema, default_schema, load_schema
from .synth import ArchetypeSpec, default_specs, generate

__version__ = "0.1.0"

__all__ = [
    "ArchetypeSpec",
    "ArtifactError",
    "Autoencoder",
    "CareerCastError",
    "CareerSequence",
    "ClusterModel",
    "ConfigError",
    "Dataset",
    "EmptyInputError",
    "EvalReport",
    "FeatureSchema",
    "Forecaster",
    "ImputationError",
    "IngestError",
    "LinearModel",
    "NormStats",
    "NumericError",
    "ParameterError",
    "RankDeficiencyError",
    "SchemaError",
    "SeasonRecord",
    "ShapeError",
    "SplitError",
    "UndefinedMetricError",
    "ae_train",
    "assign",
    "default_schema",
    "default_specs",
    "evaluate",
    "export_curves",
    "export_scatter",
    "flatten_batch",
    "forecaster_train",
    "generate",
    "ingest_csv",
    "kmeans_fit",
    "last_value_predict",
    "linear_fit",
    "linear_predict",
    "mae",
    "mlp_baseline_train",
    "one_hot",
    "penalized_objective",
    "purity",
    "r2",
    "select_k",
    "silhouette_score",
    "split_and_normalize",
    "substream",
    "__version__",
]
