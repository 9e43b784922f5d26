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
    "joint_kernel",
    "sigma_heuristic",
]

KERNEL_KINDS = ("linear", "rbf", "sam")

# The pairwise-distance heuristic goes exact up to this many rows, subsampled above.
_HEURISTIC_MAX_EXACT = 2000
# Rows per block of the heuristic's pairwise pass: each block holds two (64, n) float64 arrays.
_HEURISTIC_BLOCK = 64

# Python floats: an int of any size compares with them exactly, and a product
# of Python floats neither warns nor raises when it overflows.
_F64_TINY, _F64_MAX = float(np.finfo(np.float64).tiny), float(np.finfo(np.float64).max)


def _valid_sigma(sigma) -> bool:
    """Whether sigma is > 0 with a finite, normal float64 square (False for NaN)."""
    return 0 < sigma <= _F64_MAX and _F64_TINY <= float(sigma) * float(sigma) <= _F64_MAX


@dataclass(frozen=True)
class KernelSpec:
    """Kernel kind plus lengthscale: rbf and sam need a sigma, the linear kernel takes none.

    sigma must be > 0 with a finite, normal float64 square (about 1.5e-154 to 1.3e154).
    """

    kind: str
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "linear":
            if self.sigma is not None:
                raise ValueError("the linear kernel takes no sigma")
        elif self.sigma is None or not _valid_sigma(self.sigma):
            raise ValueError(f"{self.kind} kernel requires a finite sigma > 0 "
                             "whose square is a normal float64")

    @property
    def joint_splits(self) -> bool:
        """Whether the kernel on z = [x, y] follows from its x and y values (joint_kernel)."""
        return self.kind != "sam"


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


def _eval_into(a: np.ndarray, b: np.ndarray, spec: KernelSpec, out: np.ndarray,
               work: np.ndarray | None) -> np.ndarray:
    """Kernel values between the rows of a and b, written into out; rbf uses work for its GEMM.

    rbf keeps one operation order, so every caller gets the same bits: the
    outer sum of squared norms (addition commutes exactly), minus 2 a.b,
    clamped at 0, divided by -2 sigma^2, then exp. Scaling by 2 is exact,
    so it goes on the smaller operand b. A Gram matrix's a @ a.T runs as a
    symmetric rank-k update, whose bits differ from a GEMM's, so there the
    product itself is doubled.
    """
    if spec.kind == "linear":
        return np.matmul(a, b.T, out=out)
    if spec.kind == "rbf":
        # a broadcast copy and then an add run faster than one two-way broadcast add
        out[...] = np.einsum("ij,ij->i", b, b)
        out += np.einsum("ij,ij->i", a, a)[:, None]
        if work is None:
            work = np.empty_like(out)
        if a is b:
            twice_ab = np.multiply(np.matmul(a, a.T, out=work), 2.0, out=work)
        else:
            twice_ab = np.matmul(a, (2.0 * b).T, out=work)
        np.subtract(out, twice_ab, out=out)
        np.maximum(out, 0.0, out=out)
        with np.errstate(over="ignore"):  # -inf at a tiny sigma, and exp(-inf) = 0 is exact
            np.divide(out, -2.0 * spec.sigma**2, out=out)
        return np.exp(out, out=out)
    angles = np.arccos(_sam_cosines(a, b))
    with np.errstate(over="ignore"):
        return np.exp(-(angles**2) / (2.0 * spec.sigma**2), out=out)


def gram(rows: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """n x n kernel matrix over finite 2-d float64 rows, exactly symmetric as evaluated.

    rows @ rows.T runs as a symmetric rank-k update, and the rest is
    elementwise. For rbf and sam the diagonal is pinned to exactly 1.
    """
    n = rows.shape[0]
    k = _eval_into(rows, rows, spec, np.empty((n, n)), None)
    if spec.kind != "linear":
        np.fill_diagonal(k, 1.0)
    return k


def cross_gram(
    train: np.ndarray,
    probes: np.ndarray,
    spec: KernelSpec,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """(m, n) kernel values between probe and training rows, finite 2-d float64 of one width.

    The values are written into out when given, a C-contiguous (m, n)
    float64 array, and out is returned. An rbf evaluation also needs a
    second such array for its GEMM: work when given, else a fresh one.
    """
    if out is None:
        out = np.empty((probes.shape[0], train.shape[0]))
    return _eval_into(probes, train, spec, out, work)


def joint_kernel(k_x: np.ndarray, k_y: np.ndarray, spec: KernelSpec,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Kernel values on stacked rows z = [x, y] from the values on x and on y.

    rbf: exp(-(|dx|^2 + |dy|^2) / (2 sigma^2)) = k_x * k_y, for one sigma;
    linear: z.z' = x.x' + y.y', so k_x + k_y. The sam angle does not split
    over x and y, so a sam kernel on z is evaluated on z itself.
    """
    if not spec.joint_splits:
        raise ValueError("the sam kernel on z is not a function of its x and y values")
    combine = np.multiply if spec.kind == "rbf" else np.add
    return combine(k_x, k_y, out=out)


def sigma_heuristic(rows: np.ndarray) -> float:
    """Mean pairwise Euclidean distance over all pairs i < j of finite 2-d float64 rows,
    at least two of them.

    Exact up to 2000 rows; above that the estimate uses 2000 seeded random
    rows so the O(n^2) cost stays bounded. Rows that are all one point raise.
    """
    if rows.shape[0] > _HEURISTIC_MAX_EXACT:
        idx = sample_pixels(rows.shape[0], _HEURISTIC_MAX_EXACT, seed=0)
        rows = rows[np.sort(idx)]
    n = rows.shape[0]
    columns = rows.T.copy()
    # Each distance is summed column by column from zero, in column order, as a
    # per-pair loop over the columns does. A block of rows is taken against
    # every row after its first, and each row's pairs i < j go into one array
    # in triu order, so one mean over it gives that of the per-pair distances.
    dists = np.empty(n * (n - 1) // 2)
    filled = 0
    for first in range(0, n - 1, _HEURISTIC_BLOCK):
        height = min(_HEURISTIC_BLOCK, n - 1 - first)
        sq = np.zeros((height, n - 1 - first))
        diff = np.empty_like(sq)
        for col in columns:
            np.subtract(col[first:first + height, None], col[None, first + 1:], out=diff)
            np.multiply(diff, diff, out=diff)
            sq += diff
        for r in range(height):  # row first + r and the rows after it
            count = n - 1 - first - r
            dists[filled:filled + count] = sq[r, r:]
            filled += count
    np.sqrt(dists, out=dists)
    if not dists.max(initial=0.0) > 0:
        raise ValueError("zero dispersion: all rows identical")
    return float(dists.mean())
