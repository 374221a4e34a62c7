"""Gaussian kernel ridge regression with Jacobian-control bandwidth selection.

The selector with the closed form is ``select_jacobian``; ``select_silverman``,
``select_cv`` and ``select_seeded_cv`` are the baselines. ``krr.fit`` /
``krr.predict`` provide the regression itself, ``evaluate`` the experiment
harness, and ``verify`` numerical checks of the bound claims.
"""

from .bandwidth import (
    BandwidthResult,
    select_bandwidth,
    select_cv,
    select_jacobian,
    select_seeded_cv,
    select_silverman,
)
from .data import CsvFormatError, Dataset, generate_synthetic, load_csv, write_csv
from .krr import KrrModel, fit, load_model, predict, save_model
from .linalg import FactorizationError

__version__ = "0.1.0"

__all__ = [
    "BandwidthResult",
    "CsvFormatError",
    "Dataset",
    "FactorizationError",
    "KrrModel",
    "fit",
    "generate_synthetic",
    "load_csv",
    "load_model",
    "predict",
    "save_model",
    "select_bandwidth",
    "select_cv",
    "select_jacobian",
    "select_seeded_cv",
    "select_silverman",
    "write_csv",
]
