"""Time-series substrate: dynamic time warping and its lower bounds.

AG-TR measures the dissimilarity of two accounts' trajectories with DTW
(Section IV-C, Eqs. 7–8).  :mod:`repro.timeseries.dtw` implements the full
dynamic program from scratch, plus a Sakoe-Chiba banded variant for large
series; :mod:`repro.timeseries.bounds` holds the LB_Kim / LB_Keogh lower
bounds AG-TR prunes with.
"""

from repro.timeseries.bounds import envelope, lb_keogh, lb_kim
from repro.timeseries.dtw import dtw_distance, warping_path

__all__ = [
    "dtw_distance",
    "envelope",
    "lb_keogh",
    "lb_kim",
    "warping_path",
]
