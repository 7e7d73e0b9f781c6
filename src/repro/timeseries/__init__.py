"""Time-series substrate: dynamic time warping and its lower bound.

AG-TR measures the dissimilarity of two accounts' trajectories with DTW
(Section IV-C, Eqs. 7–8).  :mod:`repro.timeseries.dtw` implements the
dynamic program from scratch; :mod:`repro.timeseries.bounds` holds the
LB_Kim lower bound AG-TR prunes with.
"""

from repro.timeseries.bounds import lb_kim
from repro.timeseries.dtw import dtw_distance, warping_path

__all__ = [
    "dtw_distance",
    "lb_kim",
    "warping_path",
]
