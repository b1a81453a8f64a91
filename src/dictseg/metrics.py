"""Quality criteria for segmentation and atom selection.

Detection rates follow the usual conventions: a false discovery rate
of 0 when nothing is detected, and change-point matching is exact by
default (a detection one step off the truth counts as one false
positive plus one false negative) with an optional tolerance window.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .simulate import SeriesTruth
from .stepmodel import Segmentation


def _match_count(detected, true, tolerance: int) -> int:
    """Greedy nearest matching of detected to true positions."""
    pairs = sorted(
        (abs(d - t), i, j)
        for i, d in enumerate(detected)
        for j, t in enumerate(true)
        if abs(d - t) <= tolerance
    )
    used_d, used_t = set(), set()
    matches = 0
    for _, i, j in pairs:
        if i in used_d or j in used_t:
            continue
        used_d.add(i)
        used_t.add(j)
        matches += 1
    return matches


def segmentation_metrics(estimate: Segmentation, truth: Segmentation, n: int,
                         tolerance: int = 0) -> tuple[float, float, float]:
    """(RMSE of the mean path, FDR and FNR of the change-points)."""
    if tolerance < 0:
        raise ValidationError(f"tolerance must be >= 0, got {tolerance}")
    mu_true = truth.mean_path(n)
    mu_hat = estimate.mean_path(n)
    rmse_mu = float(np.sqrt(np.mean((mu_true - mu_hat) ** 2)))

    detected = estimate.change_points
    true = truth.change_points
    tp = _match_count(detected, true, tolerance)
    fdr = (len(detected) - tp) / max(1, len(detected))
    fnr = (len(true) - tp) / max(1, len(true))
    return rmse_mu, float(fdr), float(fnr)


def functional_metrics(f_hat: np.ndarray, selected_atoms,
                       truth: SeriesTruth) -> tuple[float, float, float]:
    """(RMSE of the disturbance, FDR and FNR of the selected atoms).

    The pinned constant atom (index 1) is excluded from both sides of
    the selection comparison.
    """
    f_hat = np.asarray(f_hat, dtype=float)
    if f_hat.shape != truth.f_true.shape:
        raise ValidationError("estimated disturbance length does not match the truth")
    rmse_f = float(np.sqrt(np.mean((truth.f_true - f_hat) ** 2)))

    selected = {int(a) for a in selected_atoms} - {1}
    true = set(truth.true_atom_indices) - {1}
    tp = len(selected & true)
    fdr = (len(selected) - tp) / max(1, len(selected))
    fnr = (len(true) - tp) / max(1, len(true))
    return rmse_f, float(fdr), float(fnr)
