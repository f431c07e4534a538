"""Measurement operators: random linear maps and reweighted random Fourier features.

The Fourier map sends x in R^d to (1/sqrt(m)) [ e^{i w_j . x} / f(w_j) ]_j
in C^m, with frequencies drawn i.i.d. from the reweighted Gaussian law

    Lambda(w) = f(w)^2 N(0, sigma^{-2} I)(w),
    f(w)^2 = (1/3) * (1 + ||w||^2 / gamma_2 + ||w||^4 / gamma_4),

where gamma_l is the l-th moment of ||w|| under N(0, sigma^{-2} I).  The
reweighting makes per-feature squared differences bounded while preserving
the kernel identity  E |phi_w(x) - phi_w(x')|^2 = 2 (1 - exp(-||x-x'||^2 /
(2 sigma^2))), i.e. the squared Gaussian-kernel distance.

Gaps between measurements depend only on the secant delta = x - x'.  For the
Fourier map |e^{ia} - e^{ib}|^2 = 4 sin^2((a - b) / 2) gives

    ||Psi x - Psi x'||^2 = (4/m) sum_j sin^2(w_j . delta / 2) / f(w_j)^2,

which is exact and, unlike the difference of two nearly equal exponentials,
loses no precision on near pairs; for the linear map the gap is ||A delta||.
Both operators evaluate it on secant rows with ``gap_batch``, and the map
itself with ``apply_batch``; these are their only evaluators, and a row's
value does not depend on the rows evaluated with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .spaces import kernel_norm_equivalence

WEIGHT_TOL = 1e-12


def _times_rows(X, W) -> np.ndarray:
    """W x for x of shape (d,), or for each row of X of shape (n, d), as rows of shape (n, k).

    A plain X @ W.T sends a lone row to numpy's matrix-vector kernel, which
    rounds differently from the matrix product, so a lone row is evaluated
    as two.  A row's value then does not depend on the rows batched with it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != W.shape[1]:
        raise InputError(f"rows have shape {X.shape}, expected ({W.shape[1]},) or (n, {W.shape[1]})")
    if len(X) == 1:
        return (np.vstack([X, X]) @ W.T)[:1]
    return X @ W.T


@dataclass(frozen=True)
class GammaMoments:
    """Even moments of ||w|| under N(0, sigma^{-2} I_d): gamma_0, gamma_2, gamma_4."""

    gamma0: float
    gamma2: float
    gamma4: float

    def __post_init__(self):
        if not (self.gamma0 > 0 and self.gamma2 > 0 and self.gamma4 > 0):
            raise InputError("moments must be positive")

    @classmethod
    def for_gaussian(cls, d: int, sigma: float) -> "GammaMoments":
        """Closed forms: gamma_0 = 1, gamma_2 = d/sigma^2, gamma_4 = d(d+2)/sigma^4."""
        if d < 1 or not sigma > 0:
            raise InputError(f"need d >= 1 and sigma > 0, got d={d}, sigma={sigma}")
        return cls(1.0, d / sigma**2, d * (d + 2) / sigma**4)


def weight_f(omega, sigma: float, d: int, moments: GammaMoments | None = None):
    """Frequency weight f(w) = sqrt((1/3)(1 + ||w||^2/gamma_2 + ||w||^4/gamma_4)).

    Radial in w and bounded below by sqrt(1/3).  Accepts a single frequency
    vector or a batch of rows.
    """
    if moments is None:
        moments = GammaMoments.for_gaussian(d, sigma)
    om = np.asarray(omega, dtype=float)
    single = om.ndim == 1
    om = np.atleast_2d(om)
    if om.shape[1] != d:
        raise InputError(f"frequency dimension {om.shape[1]} does not match d={d}")
    n2 = np.sum(om * om, axis=1)
    f = np.sqrt((1.0 + n2 / moments.gamma2 + n2 * n2 / moments.gamma4) / 3.0)
    return float(f[0]) if single else f


def sample_lambda(sigma: float, d: int, count: int, rng_seed, component: int | None = None) -> np.ndarray:
    """Draw ``count`` frequencies from Lambda = f(w)^2 N(0, sigma^{-2} I).

    Lambda is an equal-weight mixture of three radially tilted Gaussians; the
    component with tilt ||w||^{2l} is sampled exactly as a uniform direction
    times the norm of a standard Gaussian in dimension d + 2l, scaled by
    1/sigma.  ``component`` restricts sampling to one mixture component
    (diagnostic use).
    """
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    if not sigma > 0 or d < 1:
        raise InputError(f"need sigma > 0 and d >= 1, got sigma={sigma}, d={d}")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    comp = (
        np.full(count, int(component))
        if component is not None
        else rng.integers(0, 3, size=count)
    )
    if component is not None and component not in (0, 1, 2):
        raise InputError(f"component must be in {{0, 1, 2}}, got {component}")
    dirs = rng.normal(size=(count, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.empty(count)
    for ell in (0, 1, 2):
        sel = comp == ell
        n = int(sel.sum())
        if n:
            z = rng.normal(size=(n, d + 2 * ell))
            radii[sel] = np.linalg.norm(z, axis=1) / sigma
    return dirs * radii[:, None]


@dataclass(frozen=True, eq=False)
class LinearGaussianOperator:
    """Random linear map given by an m x d matrix with i.i.d. N(0, 1/m) entries.

    The 1/m entry variance normalizes E ||A x||^2 = ||x||^2.  ``from_matrix``
    wraps an explicit matrix (used for identity test fixtures).  Operators
    compare and hash by identity.
    """

    matrix: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=float)
        if A.ndim != 2:
            raise InputError(f"matrix must be 2-d, got shape {A.shape}")
        if not np.all(np.isfinite(A)):
            raise InputError("matrix has non-finite entries")
        A = A.copy()
        A.setflags(write=False)
        object.__setattr__(self, "matrix", A)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def from_seed(cls, m: int, d: int, seed: int) -> "LinearGaussianOperator":
        rng = np.random.default_rng(seed)
        return cls(rng.normal(size=(m, d)) / np.sqrt(m), seed=seed)

    @classmethod
    def from_matrix(cls, A) -> "LinearGaussianOperator":
        return cls(np.asarray(A, dtype=float))

    def apply_batch(self, X) -> np.ndarray:
        """The measurements A x of x, shape (d,), or of each row of X, shape (n, d), as (n, m) complex rows."""
        return _times_rows(X, self.matrix).astype(complex)

    def gap_batch(self, D) -> np.ndarray:
        """Measurement gaps ||A delta|| of the secant rows delta = x - x' of D."""
        return np.linalg.norm(_times_rows(D, self.matrix), axis=1)


@dataclass(frozen=True, eq=False)
class RandomFourierOperator:
    """Reweighted random Fourier feature map x -> (1/sqrt m) e^{i w_j . x} / f(w_j).

    Operators compare and hash by identity.
    """

    omegas: np.ndarray
    sigma: float
    seed: int | None = None
    weights: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        if om.ndim != 2 or om.shape[0] < 1:
            raise InputError(f"omegas must be m x d with m >= 1, got shape {om.shape}")
        if not self.sigma > 0:
            raise InputError(f"sigma must be positive, got {self.sigma}")
        om = om.copy()
        om.setflags(write=False)
        object.__setattr__(self, "omegas", om)
        w = weight_f(om, self.sigma, om.shape[1])
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return self.omegas.shape[0]

    @property
    def dim(self) -> int:
        return self.omegas.shape[1]

    @classmethod
    def from_seed(cls, m: int, d: int, sigma: float, seed: int) -> "RandomFourierOperator":
        omegas = sample_lambda(sigma, d, m, np.random.default_rng(seed))
        return cls(omegas, sigma, seed=seed)

    def apply_batch(self, X) -> np.ndarray:
        """The measurements of x, shape (d,), or of each row of X, shape (n, d), as (n, m) rows."""
        return np.exp(1j * _times_rows(X, self.omegas)) / (self.weights * np.sqrt(self.m))[None, :]

    def gap_batch(self, D) -> np.ndarray:
        """Measurement gaps ||Psi x - Psi x'|| of the secant rows delta = x - x' of D (sin^2 form)."""
        half = np.sin(0.5 * _times_rows(D, self.omegas)) / self.weights
        return (2.0 / np.sqrt(self.m)) * np.linalg.norm(half, axis=1)


def jacobian(op: RandomFourierOperator, x) -> np.ndarray:
    """Derivative of the Fourier map at x: row j is (i w_j / f_j) e^{i w_j . x} / sqrt m."""
    if not isinstance(op, RandomFourierOperator):
        raise InputError("jacobian is defined for the random Fourier operator")
    x = np.asarray(x, dtype=float)
    if x.shape != (op.dim,):
        raise InputError(f"x has shape {x.shape}, expected ({op.dim},)")
    return 1j * op.apply_batch(x)[0][:, None] * op.omegas


@dataclass(frozen=True)
class NonlinearLripHypotheses:
    """Per-draw constants entering the non-uniform covering argument.

    C1   Lipschitz factor of the map in the kernel metric,
         sqrt(sum_j ||w_j||^2 / (m f_j^2)) / l
    C2   Taylor remainder factor (equal to C1 for this map)
    C3   Lipschitz factor of the linearization on secants,
         sqrt(sum_j ||w_j||^4 / (m f_j^2)) / l^2
    M_S  model diameter surrogate M * L
    eps0 linearization validity radius (+inf: the expansion is global here)

    All constants are empirical row sums over the realized frequencies, so
    they vary draw to draw.
    """

    C1: float
    C2: float
    C3: float
    M_S: float
    eps0: float

    def __post_init__(self):
        for name in ("C1", "C2", "C3", "M_S"):
            if not getattr(self, name) > 0 or not np.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be positive and finite")


def hypothesis_constants(op: RandomFourierOperator, model) -> NonlinearLripHypotheses:
    """Evaluate the covering-argument constants for a realized Fourier operator."""
    if op.dim != model.dim:
        raise InputError(f"operator dimension {op.dim} does not match model dimension {model.dim}")
    ell, L = kernel_norm_equivalence(model.norm_bound, op.sigma)
    n2 = np.sum(op.omegas**2, axis=1)
    w2 = op.weights**2
    c1 = float(np.sqrt(np.sum(n2 / w2) / op.m) / ell)
    c3 = float(np.sqrt(np.sum(n2 * n2 / w2) / op.m) / ell**2)
    return NonlinearLripHypotheses(
        C1=c1, C2=c1, C3=c3, M_S=model.norm_bound * L, eps0=np.inf
    )
