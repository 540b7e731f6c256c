"""sepkit: linear separators for bichromatic planar point sets with outliers.

Exact, approximate and semi-online-dynamic solvers for MaxStrip, MinMax,
MinMis and k-mis MinMax, in 1D and 2D, with brute-force oracles for
verification.
"""

from .core import (
    Color,
    LabeledPoint,
    LineR2,
    MisReport,
    Orientation,
    PointR2,
    Separator,
    classify_mis,
    dualize_line,
    dualize_point,
    euclid_dist_sq,
    vertical_distance,
)
from .rat import Rat

__all__ = [
    "Color",
    "LabeledPoint",
    "LineR2",
    "MisReport",
    "Orientation",
    "PointR2",
    "Separator",
    "classify_mis",
    "dualize_line",
    "dualize_point",
    "euclid_dist_sq",
    "vertical_distance",
    "Rat",
]

__version__ = "0.1.0"
