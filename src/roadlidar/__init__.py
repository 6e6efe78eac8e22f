"""Self-supervised auto-annotation for stationary roadside LiDAR point clouds.

The package models the static background of a fixed sensor statistically,
filters it away, clusters the remaining foreground, fits and classifies
bounding boxes to produce pseudo-labels, merges label sets from several
teacher configurations into a training superset, and scores any detector's
predictions against reference labels.  A built-in ray-cast simulator provides
exact ground truth for end-to-end verification.
"""

from .core import (
    ConfigError,
    CropBounds,
    DataError,
    Frame,
    FrameSequence,
    LabelClass,
    LabelSource,
    ObjectLabel,
    SensorMeta,
    TeacherConfig,
    load_frame_sequence,
    read_labels,
    write_labels,
)
from .preprocess import UnificationTransform, crop_frame, pad_frame, unify_datasets, unify_units
from .background import (
    BackgroundModel,
    DistanceHistogram,
    build_histogram,
    extract_query_frames,
    filter_frame,
    select_background,
)
from .clustering import dbscan
from .annotate import annotate_frame
from .evaluate import EvalReport, average_precision

__version__ = "0.1.0"

__all__ = [
    "BackgroundModel",
    "ConfigError",
    "CropBounds",
    "DataError",
    "DistanceHistogram",
    "EvalReport",
    "Frame",
    "FrameSequence",
    "LabelClass",
    "LabelSource",
    "ObjectLabel",
    "SensorMeta",
    "TeacherConfig",
    "UnificationTransform",
    "annotate_frame",
    "average_precision",
    "build_histogram",
    "crop_frame",
    "dbscan",
    "extract_query_frames",
    "filter_frame",
    "load_frame_sequence",
    "pad_frame",
    "read_labels",
    "select_background",
    "unify_datasets",
    "unify_units",
    "write_labels",
]
