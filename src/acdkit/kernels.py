"""Kernel functions, Gram assembly, and bandwidth heuristics.

Three kernels are supported:

    linear   k(a, b) = a.b
    rbf      k(a, b) = exp(-||a - b||^2 / (2 sigma^2))
    sam      k(a, b) = exp(-acos(a.b / (||a|| ||b||))^2 / (2 sigma^2))

The sam kernel is scale-invariant in the spectra. Its cosine argument is
clamped to [-1, 1] before acos so floating-point overshoot cannot produce
NaN. Zero-norm vectors use a fixed convention: cosine 1 if both operands
are zero, else 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import sample_pixels

__all__ = [
    "KernelSpec",
    "gram",
    "cross_gram",
    "sigma_heuristic",
]

KERNEL_KINDS = ("linear", "rbf", "sam")

# The pairwise-distance heuristic goes exact up to this many rows, subsampled above.
_HEURISTIC_MAX_EXACT = 2000


@dataclass(frozen=True)
class KernelSpec:
    """Kernel kind plus lengthscale; sigma is ignored for the linear kernel."""

    kind: str
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind != "linear":
            if self.sigma is None or not 0 < self.sigma < np.inf:
                raise ValueError(f"{self.kind} kernel requires a finite sigma > 0")


def _sam_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Clamped cosine matrix between the rows of a and b, zero-norm convention."""
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    dots = a @ b.T
    denom = np.outer(na, nb)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = dots / denom
    zero_a = na == 0.0
    zero_b = nb == 0.0
    if zero_a.any() or zero_b.any():
        either = zero_a[:, None] | zero_b[None, :]
        both = zero_a[:, None] & zero_b[None, :]
        cos = np.where(either, 0.0, cos)
        cos = np.where(both, 1.0, cos)
    return np.clip(cos, -1.0, 1.0)


def _eval_matrix(a: np.ndarray, b: np.ndarray, spec: KernelSpec) -> np.ndarray:
    if spec.kind == "linear":
        return a @ b.T
    if spec.kind == "rbf":
        sq = (
            np.einsum("ij,ij->i", a, a)[:, None]
            + np.einsum("ij,ij->i", b, b)[None, :]
            - 2.0 * (a @ b.T)
        )
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-sq / (2.0 * spec.sigma**2))
    angles = np.arccos(_sam_cosines(a, b))
    return np.exp(-(angles**2) / (2.0 * spec.sigma**2))


def gram(rows: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """n x n kernel matrix over finite 2-d float64 rows, exactly symmetric.

    For rbf and sam the diagonal is pinned to exactly 1.
    """
    k = _eval_matrix(rows, rows, spec)
    k = (k + k.T) / 2.0
    if spec.kind != "linear":
        np.fill_diagonal(k, 1.0)
    return k


def cross_gram(train: np.ndarray, probes: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """(m, n) kernel values between probe and training rows, both finite 2-d float64."""
    if probes.shape[1] != train.shape[1]:
        raise ValueError("dimension mismatch between probes and training rows")
    return _eval_matrix(probes, train, spec)


def sigma_heuristic(rows: np.ndarray, *, seed: int = 0) -> float:
    """Mean pairwise Euclidean distance over all pairs i < j of finite 2-d float64 rows.

    Exact up to 2000 rows; above that the estimate uses 2000 seeded random
    rows so the O(n^2) cost stays bounded.
    """
    if rows.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    if rows.shape[0] > _HEURISTIC_MAX_EXACT:
        idx = sample_pixels(rows.shape[0], _HEURISTIC_MAX_EXACT, seed)
        rows = rows[np.sort(idx)]
    # Squared differences are summed column by column, in column order, so
    # each distance rounds exactly as a per-pair loop over the columns does.
    i, j = np.triu_indices(rows.shape[0], k=1)
    sq = np.zeros(i.size)
    for col in rows.T:
        diff = col[i] - col[j]
        sq += diff * diff
    dists = np.sqrt(sq)
    if not np.any(dists > 0):
        raise ValueError("zero dispersion: all rows identical")
    return float(dists.mean())
