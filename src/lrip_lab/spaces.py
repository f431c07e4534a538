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

    def dist(self, D):
        """Distance d(x, x') of the secant D = x - x'.

        D of shape (d,) gives a float; secant rows on the last axis give an
        array of one distance per row.  It is from_gap of each row's
        Euclidean norm, and a row whose norm is not finite is refused.  A
        lone secant goes through the same row-wise norm, as a batch of one, so
        its distance is bitwise its value as a row.
        """
        D = np.asarray(D, dtype=float)
        if D.ndim < 1:
            raise InputError(f"a secant must have at least one axis, got shape {D.shape}")
        gap = np.linalg.norm(np.atleast_2d(D), axis=-1)
        if not np.all(np.isfinite(gap)):
            raise InputError("secant has a non-finite norm")
        value = self.from_gap(gap)
        return float(value[0]) if D.ndim == 1 else value

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
