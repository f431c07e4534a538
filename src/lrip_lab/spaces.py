"""Signal space, measurement space, and the pseudometrics used throughout.

Signals live in R^d and measurements in C^m with the complex Euclidean
2-norm.  Two pseudometrics on signal space are provided:

* ``euclidean``: the usual 2-norm distance.
* ``gaussian-kernel``: the reproducing-kernel (RKHS) distance induced by the
  Gaussian kernel k(x, x') = exp(-||x - x'||^2 / (2 sigma^2)),

      d(x, x') = sqrt( 2 (1 - exp(-||x - x'||^2 / (2 sigma^2))) ).

  This is the feature-space norm ||phi(x) - phi(x')||, so it satisfies the
  triangle inequality exactly and takes values in [0, sqrt(2)).  Note the
  square root: the squared kernel distance 2(1 - exp(...)) is *not* a
  pseudometric (it fails sub-additivity at moderate separations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

EUCLIDEAN = "euclidean"
GAUSSIAN_KERNEL = "gaussian-kernel"


def _check_vector(x, name: str = "x") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InputError(f"{name} must be a 1-d real vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError(f"{name} has non-finite entries")
    return x


@dataclass(frozen=True)
class Pseudometric:
    """Distance functional on signal space.

    kind     one of {"euclidean", "gaussian-kernel"}
    sigma    kernel bandwidth, required (and > 0) for the kernel variant
    """

    kind: str
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, GAUSSIAN_KERNEL):
            raise InputError(f"unknown pseudometric kind {self.kind!r}")
        if self.kind == GAUSSIAN_KERNEL:
            if self.sigma is None or not (self.sigma > 0):
                raise InputError("gaussian-kernel metric requires sigma > 0")

    def dist(self, x, x2) -> float:
        """Distance between two signal vectors."""
        x = _check_vector(x, "x")
        x2 = _check_vector(x2, "x2")
        if x.shape != x2.shape:
            raise InputError(f"dimension mismatch: {x.shape} vs {x2.shape}")
        return float(self.from_gap(np.linalg.norm(x - x2)))

    def dist_batch(self, X, x2) -> np.ndarray:
        """Distances from each row of X to the single vector x2."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        x2 = _check_vector(x2, "x2")
        if X.shape[1] != x2.shape[0]:
            raise InputError(f"dimension mismatch: {X.shape[1]} vs {x2.shape[0]}")
        return self.from_gap(np.linalg.norm(X - x2[None, :], axis=1))

    def dist_pairs(self, X, X2) -> np.ndarray:
        """Row-wise distances between two equal-shape batches."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        X2 = np.atleast_2d(np.asarray(X2, dtype=float))
        if X.shape != X2.shape:
            raise InputError(f"shape mismatch: {X.shape} vs {X2.shape}")
        return self.from_gap(np.linalg.norm(X - X2, axis=1))

    def from_gap(self, gap):
        """Metric value as a function of the Euclidean gap ||x - x'||.

        Both implemented metrics are radial, i.e. depend on the pair only
        through the Euclidean gap; the kernel variant is strictly increasing
        in it.
        """
        gap = np.asarray(gap, dtype=float)
        if self.kind == EUCLIDEAN:
            return gap
        u = gap * gap / (2.0 * self.sigma**2)
        return np.sqrt(2.0 * (-np.expm1(-u)))

    def gap_for(self, value: float) -> float:
        """Euclidean gap at which the metric reaches ``value`` (inverse of from_gap)."""
        if self.kind == EUCLIDEAN:
            return float(value)
        v = float(value)
        if not 0.0 <= v < np.sqrt(2.0):
            raise InputError(f"gaussian-kernel metric takes values in [0, sqrt(2)), got {v}")
        return float(self.sigma * np.sqrt(-2.0 * np.log1p(-v * v / 2.0)))


def meas_norm(v) -> float:
    """Norm on measurement space: the complex Euclidean 2-norm."""
    v = np.asarray(v)
    if not np.all(np.isfinite(v.view(float) if np.iscomplexobj(v) else v)):
        raise InputError("measurement vector has non-finite entries")
    return float(np.linalg.norm(v))


def kernel_norm_equivalence(M: float, sigma: float) -> tuple[float, float]:
    """Norm-equivalence constants (l, L) for the Gaussian-kernel distance on the ball B_M.

    Closed forms:

        l = 2 (1 - exp(-M^2 / (2 sigma^2))) / M,        L = M / sigma^2.

    These are the constants conventionally quoted for the comparison
    l ||x - x'|| <= d(x, x') <= L ||x - x'|| on pairs from B_M.  They should
    be treated as scaling constants for covering-bound arithmetic rather than
    as a certified two-sided bound: no constants of this closed form make the
    sandwich hold for every pair in B_M x B_M (the small-gap slope of the
    kernel distance is 1/sigma, which exceeds L whenever M < sigma, and the
    gap-2M slope falls below l when M is comparable to sigma).
    """
    if not M > 0:
        raise InputError(f"M must be positive, got {M}")
    if not sigma > 0:
        raise InputError(f"sigma must be positive, got {sigma}")
    ell = 2.0 * (-np.expm1(-M * M / (2.0 * sigma**2))) / M
    L = M / sigma**2
    return float(ell), float(L)


def norm_equivalence_factors(metric: Pseudometric, M: float) -> tuple[float, float]:
    """(l, L) factors for either metric; the Euclidean metric is an exact isometry."""
    if metric.kind == EUCLIDEAN:
        return 1.0, 1.0
    return kernel_norm_equivalence(M, metric.sigma)


# --- JSON form of measurement vectors (complex entries as [re, im] pairs) ---

def complex_vector_to_json(v) -> list[list[float]]:
    v = np.asarray(v, dtype=complex)
    return [[float(c.real), float(c.imag)] for c in v]

