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
value does not depend on the rows evaluated with it.  ``gap_batch`` runs over
row blocks of max(1, _BLOCK_ENTRIES // m) rows, so its memory does not grow
with the number of rows times m.  ``OperatorLaw(kind, m, d, sigma).sample(seed)``
draws and builds an operator, and each ``from_seed`` is that call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .spaces import kernel_norm_equivalence

_BLOCK_ENTRIES = 1 << 16  # measurements per row block of _in_row_blocks; about 1 MB complex


def _times_rows(X, W) -> np.ndarray:
    """W x for x of shape (d,), or for each row of X of shape (n, d), as rows of shape (n, k).

    W is one (k, d) matrix, or a stack (p, k, d) of them, which gives (p, n, k).
    A plain X @ W.T sends a lone row to numpy's matrix-vector kernel, which
    rounds differently from the matrix product, so a lone row is evaluated
    as two.  A row's value then does not depend on the rows batched with it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != W.shape[-1]:
        raise InputError(f"rows have shape {X.shape}, expected ({W.shape[-1]},) or (n, {W.shape[-1]})")
    Wt = np.swapaxes(W, -1, -2)
    if len(X) == 1:
        return (np.vstack([X, X]) @ Wt)[..., :1, :]
    return X @ Wt


def _in_row_blocks(fn, m: int, *rows) -> np.ndarray:
    """fn over aligned row blocks of the arrays rows, the results concatenated.

    A block has max(1, _BLOCK_ENTRIES // m) rows, so fn's (rows, m)
    intermediates stay near _BLOCK_ENTRIES entries for any m.  fn must compute
    each row's value from that row alone; the result is then bitwise fn over
    all rows at once.  Inputs of at most one block, empty ones included, go to
    fn whole.
    """
    n, step = len(rows[0]), max(1, _BLOCK_ENTRIES // m)
    if n <= step:
        return fn(*rows)
    return np.concatenate([fn(*(a[i:i + step] for a in rows)) for i in range(0, n, step)])


def weight_f(omega, sigma: float, d: int):
    """Frequency weight f(w) = sqrt((1/3)(1 + ||w||^2/gamma_2 + ||w||^4/gamma_4)).

    gamma_2 = d/sigma^2 and gamma_4 = d(d+2)/sigma^4 are the even moments of
    ||w|| under N(0, sigma^{-2} I_d).  Radial in w and bounded below by
    sqrt(1/3).  Accepts a single frequency vector or a batch of rows.
    """
    if d < 1 or not sigma > 0:
        raise InputError(f"need d >= 1 and sigma > 0, got d={d}, sigma={sigma}")
    gamma2, gamma4 = d / sigma**2, d * (d + 2) / sigma**4
    om = np.asarray(omega, dtype=float)
    single = om.ndim == 1
    om = np.atleast_2d(om)
    if om.shape[1] != d:
        raise InputError(f"frequency dimension {om.shape[1]} does not match d={d}")
    n2 = np.sum(om * om, axis=1)
    f = np.sqrt((1.0 + n2 / gamma2 + n2 * n2 / gamma4) / 3.0)
    return float(f[0]) if single else f


def _draw_lambda(d: int, count: int, rng):
    """The draws of count frequencies from Lambda = f(w)^2 N(0, sigma^{-2} I): (components, directions, radials).

    Lambda is an equal-weight mixture of three radially tilted Gaussians; the
    component with tilt ||w||^{2l} is sampled exactly as a uniform direction
    times the norm of a standard Gaussian in dimension d + 2l, scaled by
    1/sigma in _map_lambda.  Component l's radials are (n_l, d + 2l), none
    when it has no frequency.
    """
    comp = rng.integers(0, 3, size=count)
    dirs = rng.normal(size=(count, d))
    return comp, dirs, [rng.normal(size=(int(np.count_nonzero(comp == ell)), d + 2 * ell)) for ell in (0, 1, 2)]


def _map_lambda(comp, dirs, radial, sigma: float) -> np.ndarray:
    """The frequencies of draws (comp, dirs, radial): each direction row normalized, times its radius.

    comp and dirs may stack draws, (n, count) and (n, count, d); radial[l]
    then holds the component-l rows of every draw, draw after draw.  Each
    frequency is computed from its own row, so a draw's frequencies do not
    depend on the draws mapped with it.
    """
    radii = np.empty(comp.shape)
    for ell, z in enumerate(radial):
        radii[comp == ell] = np.linalg.norm(z, axis=1) / sigma
    return dirs / np.linalg.norm(dirs, axis=-1, keepdims=True) * radii[..., None]


@dataclass(frozen=True, eq=False)
class LinearGaussianOperator:
    """Random linear map given by an m x d matrix with i.i.d. N(0, 1/m) entries.

    The 1/m entry variance normalizes E ||A x||^2 = ||x||^2.  The constructor
    also takes any explicit matrix, such as the identity.  Operators compare
    and hash by identity.
    """

    matrix: np.ndarray

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
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def from_seed(cls, m: int, d: int, seed: int) -> "LinearGaussianOperator":
        return OperatorLaw("linear-gaussian", m, d).sample(seed)

    def apply_batch(self, X) -> np.ndarray:
        """The measurements A x of x, shape (d,), or of each row of X, shape (n, d), as (n, m) complex rows."""
        return _times_rows(X, self.matrix).astype(complex)

    def gap_batch(self, D) -> np.ndarray:
        """Measurement gaps ||A delta|| of the secant rows delta = x - x' of D."""
        return _in_row_blocks(lambda B: np.linalg.norm(_times_rows(B, self.matrix), axis=1), self.m, np.atleast_2d(D))


@dataclass(frozen=True, eq=False)
class RandomFourierOperator:
    """Reweighted random Fourier feature map x -> (1/sqrt m) e^{i w_j . x} / f(w_j).

    Operators compare and hash by identity.
    """

    omegas: np.ndarray
    sigma: float
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
        return OperatorLaw("random-fourier", m, d, sigma).sample(seed)

    def apply_batch(self, X) -> np.ndarray:
        """The measurements of x, shape (d,), or of each row of X, shape (n, d), as (n, m) rows."""
        Z = 1j * _times_rows(X, self.omegas)
        np.exp(Z, out=Z)
        Z /= self.weights * np.sqrt(self.m)
        return Z

    def gap_batch(self, D) -> np.ndarray:
        """Measurement gaps ||Psi x - Psi x'|| of the secant rows delta = x - x' of D (sin^2 form)."""
        return _in_row_blocks(lambda B: _sin_gaps(_times_rows(B, self.omegas), self.weights), self.m, np.atleast_2d(D))


def _sin_gaps(phases, weights) -> np.ndarray:
    """The Fourier map's gaps (2/sqrt m) ||sin(w_j . delta / 2) / f_j|| from the phases w_j . delta on the last axis."""
    return (2.0 / np.sqrt(weights.shape[-1])) * np.linalg.norm(np.sin(0.5 * phases) / weights, axis=-1)


OPERATOR_KINDS = ("linear-gaussian", "random-fourier")


@dataclass(frozen=True)
class OperatorLaw:
    """The law of a random operator on R^d with m measurements.

    Kind "linear-gaussian" draws the matrix of a LinearGaussianOperator,
    with i.i.d. N(0, 1/m) entries; kind "random-fourier" the frequencies of
    a RandomFourierOperator, drawn from Lambda at bandwidth sigma.
    ``sample(seed)`` draws and builds one operator; each from_seed is that
    call.  ``draw`` makes one operator's RNG calls, ``map`` turns a list of
    draws into their stacked matrices or frequencies at once, and ``gaps``
    gives each drawn operator's gap on one secant, bitwise its gap_batch.
    """

    kind: str
    m: int
    d: int
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise InputError(f"kind must be one of {', '.join(OPERATOR_KINDS)}, got {self.kind!r}")
        if self.m < 1 or self.d < 1 or not self.sigma > 0:
            raise InputError(f"need m >= 1, d >= 1 and sigma > 0, got m={self.m}, d={self.d}, sigma={self.sigma}")

    def draw(self, rng):
        """One operator's draws from the generator rng, in from_seed's order."""
        if self.kind == "linear-gaussian":
            return rng.normal(size=(self.m, self.d))
        return _draw_lambda(self.d, self.m, rng)

    def map(self, draws) -> np.ndarray:
        """The (n, m, d) matrices or frequencies of a list of n draws, each from its own draw alone."""
        if self.kind == "linear-gaussian":
            return np.stack(draws) / np.sqrt(self.m)
        comp, dirs, radial = zip(*draws)
        return _map_lambda(np.stack(comp), np.stack(dirs), [np.concatenate(z) for z in zip(*radial)], self.sigma)

    def sample(self, seed) -> LinearGaussianOperator | RandomFourierOperator:
        """The LinearGaussianOperator or RandomFourierOperator drawn from np.random.default_rng(seed)."""
        W = self.map([self.draw(np.random.default_rng(seed))])[0]
        return LinearGaussianOperator(W) if self.kind == "linear-gaussian" else RandomFourierOperator(W, self.sigma)

    def gaps(self, draws, delta) -> np.ndarray:
        """Each drawn operator's measurement gap ||Psi x - Psi x'|| on the one secant delta = x - x' of shape (d,).

        Each operator's W delta comes from one _times_rows call on the stack
        of matrices, so every gap is bitwise that operator's gap_batch(delta)[0].
        """
        delta = np.asarray(delta, dtype=float)
        if delta.shape != (self.d,):
            raise InputError(f"secant has shape {delta.shape}, expected ({self.d},)")
        W = self.map(draws)
        products = _times_rows(delta, W)[:, 0]
        if self.kind == "linear-gaussian":
            return np.linalg.norm(products, axis=-1)
        weights = weight_f(W.reshape(-1, self.d), self.sigma, self.d).reshape(W.shape[:2])
        return _sin_gaps(products, weights)


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
