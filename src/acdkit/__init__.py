"""Anomalous change detection for co-registered multiband image pairs.

Linear and kernel detectors under Gaussian or elliptically-contoured
scoring, a synthetic change simulator, ROC/AUC evaluation, and
grid-search tuning. See the cli module for the command-line front end.
"""

from .detectors import (
    DETECTOR_BETAS,
    DetectorConfig,
    FittedDetector,
    fit,
    score_pixels,
    xi_pixels,
)
from .kernels import KernelSpec
from .metrics import (
    DegenerateLabelsError,
    RocCurve,
    apply_threshold,
    roc_curve,
    threshold_at_quantile,
    threshold_at_tpr,
)
from .raster import (
    BandStats,
    ImageCube,
    flatten,
    sample_pixels,
    unflatten,
)
from .simulate import SimulationResult, pervasive_noise, scramble_anomalies
from .tune import TuneGrid, TuneResult, default_grid, grid_search

__version__ = "0.1.0"
