"""Empirical and theoretical certification of LRIP / BP / IOP constants.

Empirical estimators sample model pairs and report worst-case ratios; they
understate the true suprema and are labeled accordingly (sample counts plus
near/far stratification travel with every report).  The failure-probability
calculators are closed-form arithmetic in the concentration exponent and
covering bounds; Prop. 2 takes the model and metric and builds both covers at
the radii its level t fixes.  All are labeled as theoretical bounds.

Conventions.  The lower restricted isometry property (LRIP) at constant
alpha and slack eta reads

    d(x, x') <= alpha ||Psi x - Psi x'|| + eta        for model pairs,

the boundedness property (BP) at constant beta reads

    ||Psi x - Psi x_S|| <= beta d_G(x, x_S)           for ambient x, model x_S,

and the instance-optimality property (IOP) at constants (A, B, lambda) reads

    d(x*, xhat) <= A d'(x*, model) + B ||e|| + lambda

with the augmented metric d'(u, v) = d(u, v) + B ||Psi u - Psi v||.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import models, seeding
from .decoder import DecoderOptions, _row_norms, decode
from .errors import InputError
from .models import (
    CoveringBound,
    UnionOfSubspaces,
    _draw_model_points,
    _map_model_points,
    covering_bound_model,
    covering_bound_secant,
    project_to_model,
    sample_model_points,
    sample_near_points,
)
from .operators import LinearGaussianOperator, NonlinearLripHypotheses, OperatorLaw, _in_row_blocks
from .spaces import Pseudometric

MODE_UNIFORM = "Uniform"
MODE_ANCHORED = "NonUniformAnchor"


def wilson_upper(successes: int, n: int, z: float = 1.959963984540054) -> float:
    """Upper Wilson-interval limit for a binomial proportion."""
    if n <= 0:
        raise InputError("need n > 0")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = phat + z * z / (2 * n)
    rad = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return min(1.0, (center + rad) / denom)


# ---------------------------------------------------------------------------
# LRIP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LripEstimate:
    """Empirical LRIP constant over sampled pairs.

    alpha_hat is the largest (d(x,x') - eta)_+ / ||Psi x - Psi x'||; +inf
    signals a collapsed pair (zero measurement gap at metric gap above eta),
    which is a violation state, not an error.  t_hat = 1 - 1/alpha_hat maps
    the constant back to the isometry-defect parameterization
    alpha = (1 - t)^{-1}.
    """

    alpha_hat: float
    eta: float
    pairs_tested: int
    worst_pair: tuple[np.ndarray, np.ndarray] | None
    mode: str
    strata: dict = field(default_factory=dict)
    seed: int | None = None
    violation_count: int = 0
    violating_pair: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def t_hat(self) -> float:
        if self.alpha_hat == np.inf:
            return 1.0
        if self.alpha_hat == 0:
            return -np.inf
        return 1.0 - 1.0 / self.alpha_hat

    def report_dict(self) -> dict:
        return {
            "mode": self.mode,
            "constants": {"alpha_hat": self.alpha_hat, "eta": self.eta, "t_hat": self.t_hat},
            "pairs_tested": self.pairs_tested,
            "strata": dict(self.strata),
            "violations": self.violation_count,
            "worst_cases": _pair_json(self.worst_pair),
            "seed": self.seed,
            "label": "empirical",
        }


def _max_ratio(blocks):
    """The largest secant ratio numer / denom over blocks of pairs, a copy of its pair, and the flagged pairs.

    The one ratio core of the LRIP, BP and witness estimators.  A block is
    (pos, numer, denom, flagged, X, X2): the pairs (X[k], X2[k]) at the
    ascending positions pos, flagged a boolean mask or None.  A pair with
    numer = 0 has ratio 0, also at denom 0; a positive numer over a zero
    denom has ratio +inf.  The blocks are reduced one at a time, each to its
    largest ratio and the position of its first winning row, ties going to
    the least position, so however the pairs are split and ordered the
    result is that of one block of all pairs.  Returns (value, pair, pairs,
    flagged count, first flagged pair); a pair is None where there is none,
    and with no pairs the value is 0.0.
    """
    value, at, pair = 0.0, None, None
    count, flagged_count, flagged_at, flagged_pair = 0, 0, None, None
    for pos, numer, denom, flagged, X, X2 in blocks:
        count += len(pos)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(numer > 0, numer / denom, 0.0)
        top = float(ratios.max(initial=0.0))
        if top > value:
            value, at = top, None
        if top == value and (k := _earlier(pos, ratios == top, at)) is not None:
            at, pair = pos[k], (X[k].copy(), X2[k].copy())
        if flagged is not None:
            flagged_count += int(np.count_nonzero(flagged))
            if (k := _earlier(pos, flagged, flagged_at)) is not None:
                flagged_at, flagged_pair = pos[k], (X[k].copy(), X2[k].copy())
        del pos, numer, denom, flagged, X, X2, ratios  # free this block before the next one is computed
    return value, pair, count, flagged_count, flagged_pair


def _earlier(pos, mask, at):
    """The first row k with mask[k], if its position pos[k] precedes at (None: any position does); else None."""
    k = np.flatnonzero(mask)
    return k[0] if len(k) and (at is None or pos[k[0]] < at) else None


def _row_blocks(n: int):
    """Index arrays of the consecutive row blocks of range(n), _NEAR_CHUNK rows each (the last may be shorter).

    The near sampler works through its anchors in chunks of the same size
    from one generator, so calling it on each block consumes the generator as
    one call on all rows does.
    """
    step = models._NEAR_CHUNK
    return (np.arange(a, min(a + step, n)) for a in range(0, n, step))


def _points(model: UnionOfSubspaces, draws, rows) -> np.ndarray:
    """The model points of the rows (an index array) of the draws (idx, Z, U) of _draw_model_points.

    Each point is mapped from its own row (_map_model_points), so it is
    bitwise its row of one map of all draws; the draws stay unchanged.
    """
    idx, Z, U = draws
    return _map_model_points(model, idx[rows], Z[rows], U[rows])


def _pair_json(pair):
    return None if pair is None else [[float(v) for v in pair[0]], [float(v) for v in pair[1]]]


def _extremal_linear_pairs(op: LinearGaussianOperator, model: UnionOfSubspaces):
    """Worst-ratio directions of a linear operator over every subspace-pair span.

    On the span W of S_i + S_j the ratio ||w|| / ||A w|| is maximized by the
    right singular vector of A W at the smallest singular value, so adding
    one pair per (i, j) makes the sampled maximum equal to the true supremum
    for the Euclidean metric.  Returns the pairs as two (n, d) arrays of
    first and second endpoints.
    """
    firsts, seconds = [], []
    for i, j in itertools.combinations_with_replacement(range(model.num_subspaces), 2):
        # an orthonormal basis of S_i + S_j, whatever their overlap (an unpivoted QR's diagonal misses a
        # column independent of the others once a dependent one precedes it)
        U, S, _ = np.linalg.svd(np.hstack([model.bases[i], model.bases[j]]), full_matrices=False)
        W = U[:, S > 1e-12 * S[0]]
        _, _, Vt = np.linalg.svd(op.matrix @ W, full_matrices=False)
        w = W @ Vt[-1]
        # split w = x - x' with x in S_i, x' in S_j, scaled into the ball
        coef, *_ = np.linalg.lstsq(np.hstack([model.bases[i], -model.bases[j]]), w, rcond=None)
        a, b = coef[: model.subspace_dim], coef[model.subspace_dim :]
        scale = max(np.linalg.norm(a), np.linalg.norm(b))
        if scale > 1e-14:
            firsts.append(model.bases[i] @ (a * (model.norm_bound / scale)))
            seconds.append(model.bases[j] @ (b * (model.norm_bound / scale)))
    return np.reshape(firsts, (-1, model.dim)), np.reshape(seconds, (-1, model.dim))


def estimate_lrip(
    op,
    model: UnionOfSubspaces,
    metric: Pseudometric,
    pairs: int,
    rng_seed: int,
    anchor: np.ndarray | None = None,
    eta: float = 0.0,
    near_eps: float = 0.1,
) -> LripEstimate:
    """Empirical LRIP constant over sampled model pairs.

    Uniform mode samples both endpoints; anchored mode fixes the first
    endpoint (non-uniform guarantee for that signal).  Both modes stratify
    the budget into near pairs (metric gap <= near_eps, sampled around the
    anchor, or around per-pair random anchors in uniform mode) and far pairs,
    so small-gap behavior is always probed; half the pairs are near pairs.
    Near rows that ``sample_near_points`` cannot fill fall back to
    independent model points; strata["near_fallback"] counts them.

    In uniform mode, for linear operators under the Euclidean metric on a
    model of at most 64 subspaces, the sample is enriched with the
    per-subspace-pair extremal directions of the operator, which makes
    alpha_hat the exact supremum; strata["extremal"] > 0 says it is exact.

    Pairs whose measurement gap vanishes while the metric gap exceeds eta are
    LRIP violations and set alpha_hat = +inf.

    Memory.  Random endpoints are kept as their _draw_model_points draws,
    (s + 2) numbers each, and _max_ratio reduces the strata one _row_blocks
    block at a time: far rows, near rows (the found ones), near fallbacks,
    which are drawn after all near rows, and extremal rows.  No (pairs, d)
    array is formed, and each row keeps its position in stratum order, so
    the estimate is bitwise that of one block of all pairs.
    """
    if pairs < 1:
        raise InputError(f"pairs must be >= 1, got {pairs}")
    if eta < 0:
        raise InputError("eta must be nonnegative")
    rng_pairs = seeding.generator(rng_seed, 0)
    anchored = anchor is not None
    if anchored:
        anchor = np.asarray(anchor, dtype=float)
        if not model.contains(anchor, tol=1e-8):
            raise InputError("anchor does not lie in the model")
    n_near = int(round(pairs * 0.5))
    n_far = pairs - n_near  # >= 1, as pairs >= 1
    far_firsts = None if anchored else _draw_model_points(model, n_far, rng_pairs)
    far_seconds = _draw_model_points(model, n_far, rng_pairs)
    near_firsts = None if anchored else _draw_model_points(model, n_near, rng_pairs)
    extremal = (np.empty((0, model.dim)),) * 2
    if (
        not anchored
        and isinstance(op, LinearGaussianOperator)
        and metric.kind == "euclidean"
        and model.num_subspaces <= 64
    ):
        extremal = _extremal_linear_pairs(op, model)
    strata = {"near": n_near, "far": n_far, "extremal": len(extremal[0]), "near_fallback": 0}

    def firsts(draws, rows):
        return np.broadcast_to(anchor, (len(rows), model.dim)) if anchored else _points(model, draws, rows)

    def measured(pos, X, X2):
        D = X - X2
        numer = np.maximum(metric.dist(D) - eta, 0.0)
        gaps = op.gap_batch(D)
        return pos, numer, gaps, (gaps == 0) & (numer > 0), X, X2

    def blocks():
        for rows in _row_blocks(n_far):
            yield measured(rows, firsts(far_firsts, rows), _points(model, far_seconds, rows))
        found = np.zeros(n_near, dtype=bool)
        for rows in _row_blocks(n_near):
            X = firsts(near_firsts, rows)
            X2, hit = sample_near_points(model, metric, X, near_eps, rng_pairs)
            found[rows] = hit
            yield measured(n_far + rows[hit], X[hit], X2[hit])
        lost = np.flatnonzero(~found)
        strata["near_fallback"] = len(lost)
        fallback = _draw_model_points(model, len(lost), rng_pairs)
        for j in _row_blocks(len(lost)):
            yield measured(n_far + lost[j], firsts(near_firsts, lost[j]), _points(model, fallback, j))
        yield measured(pairs + np.arange(len(extremal[0])), *extremal)

    alpha_hat, worst_pair, tested, violations, violating_pair = _max_ratio(blocks())
    return LripEstimate(
        alpha_hat=alpha_hat,
        eta=eta,
        pairs_tested=tested,
        worst_pair=worst_pair,
        mode=MODE_ANCHORED if anchored else MODE_UNIFORM,
        strata=strata,
        seed=rng_seed,
        violation_count=violations,
        violating_pair=violating_pair,
    )


# ---------------------------------------------------------------------------
# BP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BpEstimate:
    """Empirical boundedness constant max ||Psi x - Psi x_S|| / d_G(x, x_S)."""

    beta_hat: float
    pairs_tested: int
    worst_pair: tuple[np.ndarray, np.ndarray] | None
    seed: int | None = None

    def report_dict(self) -> dict:
        return {
            "mode": "BP",
            "constants": {"beta_hat": self.beta_hat},
            "pairs_tested": self.pairs_tested,
            "worst_cases": _pair_json(self.worst_pair),
            "seed": self.seed,
            "label": "empirical",
        }


def estimate_bp(
    op,
    model: UnionOfSubspaces,
    metric_G: Pseudometric,
    pairs: int,
    rng_seed: int,
    perturbation_scale: float = 1.0,
) -> BpEstimate:
    """Empirical BP constant over pairs (ambient point, model point).

    Ambient points are model points displaced by isotropic Gaussian noise of
    root-mean-square norm ``perturbation_scale``; the model endpoint is an
    independent model point.  Zero-distance pairs are skipped.

    Memory.  Both model points are kept as their _draw_model_points draws,
    (s + 2) numbers each, and _max_ratio reduces the pairs one _row_blocks
    block at a time.  The perturbation is the last draw, so each block
    draws its own rows of it.  No (pairs, d) array is formed, and the
    estimate is bitwise that of one block of all pairs.
    """
    if pairs < 1:
        raise InputError(f"pairs must be >= 1, got {pairs}")
    rng = seeding.generator(rng_seed, 1)
    model_points = _draw_model_points(model, pairs, rng)
    ambient_points = _draw_model_points(model, pairs, rng)
    scale = perturbation_scale / math.sqrt(model.dim)

    def block(rows):
        xs = _points(model, model_points, rows)
        x = _points(model, ambient_points, rows)
        x = x + rng.normal(size=x.shape) * scale
        dG = metric_G.dist(x - xs)
        keep = dG > 0
        x, xs = x[keep], xs[keep]
        # endpoint form, not gap_batch: on certify runs this is the benchmark's only
        # apply_batch caller, which bench/test_trace_counts.py requires
        gaps = _in_row_blocks(lambda a, b: np.linalg.norm(op.apply_batch(a) - op.apply_batch(b), axis=1), op.m, x, xs)
        return rows[keep], gaps, dG[keep], None, x, xs

    beta_hat, worst_pair, tested, _, _ = _max_ratio(map(block, _row_blocks(pairs)))
    return BpEstimate(beta_hat, tested, worst_pair, seed=rng_seed)


# ---------------------------------------------------------------------------
# IOP
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IopWitness:
    """Instance-optimality trial transcript at constants (A, B, lambda), one array entry per trial.

    x_true has shape (n, d); decode_dist, model_dist (the infimum of d'),
    lambda_eff (+inf where the decode did not converge) and satisfied have
    shape (n,).  Every trial's noise has norm noise_norm.  trials, the range
    of trial indices, is what bench/spans.py counts.
    """

    A: float
    B: float
    lam: float
    noise_norm: float
    x_true: np.ndarray
    decode_dist: np.ndarray
    model_dist: np.ndarray
    lambda_eff: np.ndarray
    satisfied: np.ndarray
    mode: str
    seed: int | None = None

    @property
    def trials(self) -> range:
        return range(len(self.satisfied))

    @property
    def satisfied_count(self) -> int:
        return int(np.count_nonzero(self.satisfied))

    @property
    def all_satisfied(self) -> bool:
        return bool(self.satisfied.all())

    def report_dict(self) -> dict:
        return {
            "mode": self.mode,
            "constants": {"A": self.A, "B": self.B, "lambda": self.lam},
            "pairs_tested": len(self.satisfied),
            "satisfied": self.satisfied_count,
            "worst_cases": [
                {
                    "decode_dist": float(self.decode_dist[k]),
                    "model_dist": float(self.model_dist[k]),
                    "noise_norm": self.noise_norm,
                    "lambda_eff": float(self.lambda_eff[k]),
                    "reason": "" if np.isfinite(self.lambda_eff[k]) else "decoder did not converge",
                }
                for k in np.flatnonzero(~self.satisfied)[:8]
            ],
            "seed": self.seed,
            "label": "empirical",
        }


_IOP_CHUNK = 256  # trials drawn, decoded and checked together; bounds the working arrays; each shipped run is one


def _draw_trials(op, model: UnionOfSubspaces, rngs, n: int, noise_scale: float, model_error_scale: float,
                 candidates: int = 0) -> tuple:
    """The instances y = Psi(x*) + e of n IOP trials, one from each generator of rngs: (x*, y, points).

    x* is a model point plus an isotropic Gaussian perturbation of RMS norm
    ``model_error_scale``; e is Gaussian noise of norm ``noise_scale``, real
    on the linear map and complex otherwise.  Trial k draws from the k-th
    generator only, in _draw_model_points' order for its model point, then
    the perturbation and the raw noise (none at noise_scale 0) in one
    standard_normal call, then its candidates.  The draws go straight into
    arrays allocated for the n trials; then one _map_model_points call maps
    all model points and candidates, one array expression adds the
    perturbations, each noise row is scaled by its _row_norms, and one
    apply_batch measures x*.  So a trial does not depend on the trials drawn
    with it.  Shapes: x* (n, d), y (n, m), points (n, 1 + candidates, d),
    each trial's model point first.

    rngs must yield exactly n generators.  seeding.generators yields one
    reused Generator, so its items must be used in turn: list(rngs) would
    hold n aliases of the last stream's state, which is why n is given and
    not counted.
    """
    d, s, c, m = model.dim, model.subspace_dim, candidates, op.m
    real = isinstance(op, LinearGaussianOperator)
    idx = np.empty((n, 1 + c), dtype=np.int64)
    Z, U = np.empty((n, 1 + c, s)), np.empty((n, 1 + c))  # each trial's model point, then its candidates
    noise_cols = 0 if not noise_scale else m if real else 2 * m
    normal = np.empty((n, d + noise_cols))  # each trial's perturbation, then its raw noise
    num_subspaces = model.num_subspaces
    # normal(0, 1) is 0 + 1 z, so standard_normal draws the same values; see _draw_model_points for the scalars
    for k, rng in zip(range(n), rngs, strict=True):
        idx[k, 0] = rng.integers(num_subspaces)
        rng.standard_normal(out=Z[k, 0])
        U[k, 0] = rng.random()
        rng.standard_normal(out=normal[k])
        if c:
            idx[k, 1:] = rng.integers(num_subspaces, size=c)
            rng.standard_normal(out=Z[k, 1:])
            rng.random(out=U[k, 1:])
    points = _map_model_points(model, idx.reshape(-1), Z.reshape(-1, s), U.reshape(-1, 1)).reshape(n, 1 + c, d)
    xstar = points[:, 0] + normal[:, :d] * (model_error_scale / math.sqrt(d))
    if noise_scale:
        raw = normal[:, d:]
        E = raw + 0j if real else raw[:, :m] + 1j * raw[:, m:]
        E *= (noise_scale / _row_norms(E))[:, None]
    else:
        E = np.zeros((n, m), dtype=complex)
    return xstar, op.apply_batch(xstar) + E, points


def check_iop_inequality(
    op,
    model: UnionOfSubspaces,
    metric: Pseudometric,
    decoder_opts: DecoderOptions | None,
    A: float,
    B: float,
    lam: float,
    trials: int,
    noise_scale: float,
    model_error_scale: float,
    rng_seed: int,
    uniform_candidates: int = 64,
) -> IopWitness:
    """Monte-Carlo check of the instance-optimality inequality.

    Each trial draws a signal x* = model point + isotropic perturbation of
    RMS norm ``model_error_scale``, noise of exact norm ``noise_scale``,
    decodes y = Psi(x*) + e, and checks

        d(x*, xhat) <= A inf d'(x*, c) + B ||e|| + lambda_eff

    with d'(u, v) = d(u, v) + B ||Psi u - Psi v||.  The infimum runs over the
    metric projection of x* plus ``uniform_candidates`` sampled model points
    (set to 0 for the non-uniform check, which evaluates d' at the
    projection only).  lambda_eff augments lambda by the decoder's residual
    certificate; a decoder that failed to converge marks the trial
    unsatisfied, with lambda_eff +inf, rather than raising.

    Trials run _IOP_CHUNK at a time, in three phases:

    * draw: the chunk's streams (rng_seed, 2, k) are derived in one
      seeding.generators call, and _draw_trials draws trial k from its own
      into arrays allocated for the chunk;
    * decode: ``decode`` decodes the chunk's measurements, the linear map
      in one decode_linear call, the Fourier map in one lockstep search
      and polish for the whole chunk;
    * check: decode distances, projections and d' over all rows of the
      chunk; the secants x* - c are formed once, for one dist and one
      gap_batch.

    Each chunk's arrays are concatenated once into the witness.  A trial's
    entries depend only on its stream, not on the trial count or on the
    chunking.
    """
    if not all(math.isfinite(v) and v >= 0 for v in (A, B, lam)):
        raise InputError(f"A, B, lambda must be finite and nonnegative, got A={A}, B={B}, lambda={lam}")
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if noise_scale < 0 or model_error_scale < 0:
        raise InputError("noise_scale and model_error_scale must be nonnegative")
    if uniform_candidates < 0:
        raise InputError(f"uniform_candidates must be >= 0, got {uniform_candidates}")
    decoder_opts = decoder_opts or DecoderOptions()
    d, c = model.dim, uniform_candidates
    chunks = []  # per chunk: x*, decode_dist, model_dist, lambda_eff, satisfied
    for first in range(0, trials, _IOP_CHUNK):
        ks = np.arange(first, min(first + _IOP_CHUNK, trials))
        xstar, y, cands = _draw_trials(op, model, seeding.generators(rng_seed, 2, ks), len(ks), noise_scale,
                                       model_error_scale, c)

        dec = decode(op, model, y, decoder_opts)

        decode_dist = metric.dist(xstar - dec.xhat)
        cands[:, 0] = project_to_model(model, xstar, metric)
        D = (xstar[:, None, :] - cands).reshape(-1, d)
        dprime = np.min((metric.dist(D) + B * op.gap_batch(D)).reshape(-1, 1 + c), axis=1)
        lam_eff = np.where(dec.converged, lam + dec.gap, np.inf)
        satisfied = dec.converged & (decode_dist <= A * dprime + B * noise_scale + lam_eff)
        chunks.append((xstar, decode_dist, dprime, lam_eff, satisfied))
    return IopWitness(A, B, lam, noise_scale, *map(np.concatenate, zip(*chunks)),
                      mode="uniform" if uniform_candidates else "non-uniform", seed=rng_seed)


def lrip_from_iop_witness(
    op,
    model: UnionOfSubspaces,
    metric: Pseudometric,
    decoder_opts: DecoderOptions | None,
    B: float,
    lam: float,
    pairs: int,
    rng_seed: int,
) -> LripEstimate:
    """LRIP induced by an instance-optimal decoder, verified constructively.

    For sampled model pairs (x, x') the decoder is run on y = Psi(x'), which
    realizes the reduction from instance optimality to the LRIP with
    constant alpha = B and slack eta = 2 lambda; every pair is then checked
    against d(x, x') <= B ||Psi x - Psi x'|| + 2 lambda_eff, with lambda_eff
    augmented by the decoder's residual certificate.  All pairs go through
    one decode call: one decode_linear call on the linear map, one lockstep
    search and polish for all pairs on the Fourier map.  A pair whose decode
    did not converge has no finite lambda_eff and is not checked:
    strata["unconverged"] counts those pairs, pairs_tested the others, and
    with none checked alpha_hat is 0.0 and worst_pair is None.
    """
    if pairs < 1:
        raise InputError(f"pairs must be >= 1, got {pairs}")
    decoder_opts = decoder_opts or DecoderOptions()
    rng = seeding.generator(rng_seed, 3)
    X = sample_model_points(model, pairs, rng)
    X2 = sample_model_points(model, pairs, rng)
    dec = decode(op, model, op.apply_batch(X2), decoder_opts)

    X, X2, eta_eff = X[dec.converged], X2[dec.converged], 2.0 * (lam + dec.gap[dec.converged])
    D = X - X2
    d = metric.dist(D)
    psn = op.gap_batch(D)
    violating = d > B * psn + eta_eff + 1e-12
    alpha_hat, worst_pair, tested, violations, violating_pair = _max_ratio(
        [(np.arange(len(X)), np.maximum(d - eta_eff, 0.0), psn, violating, X, X2)])
    return LripEstimate(
        alpha_hat=alpha_hat,
        eta=2.0 * lam,
        pairs_tested=tested,
        worst_pair=worst_pair,
        mode="FromIopWitness",
        strata={"far": pairs, "unconverged": pairs - tested},
        seed=rng_seed,
        violation_count=violations,
        violating_pair=violating_pair,
    )


# ---------------------------------------------------------------------------
# Concentration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationEstimate:
    """Empirical one-sided deviation probabilities of the normalized measurement gap.

    p_hat[i] estimates P(||Psi x - Psi x'|| / d(x, x') - 1 <= -t_grid[i])
    over operator draws; c_hat = -log p_hat with a +inf sentinel at zero
    observed failures, where the Wilson upper interval limit supplies a
    finite lower confidence bound c_lower.  All t share one set of draws, and
    the failures at t cannot grow with t, so c_hat and c_lower are
    nondecreasing in t as they stand.
    """

    t_grid: tuple[float, ...]
    p_hat: tuple[float, ...]
    c_hat: tuple[float, ...]
    wilson_p_upper: tuple[float, ...]
    c_lower: tuple[float, ...]
    draws: int
    m: int
    seed: int | None = None

    def report_dict(self) -> dict:
        return {
            "mode": "concentration",
            "constants": {"m": self.m, "draws": self.draws},
            "t_grid": list(self.t_grid),
            "p_hat": list(self.p_hat),
            "c_hat": list(self.c_hat),
            "wilson_p_upper": list(self.wilson_p_upper),
            "c_lower": list(self.c_lower),
            "seed": self.seed,
            "label": "empirical",
        }


_CONCENTRATION_CHUNK = 16  # operator draws mapped together; bounds the working arrays to about 1 MB at m = 55, d = 20


def estimate_concentration(
    law: OperatorLaw,
    pair,
    metric: Pseudometric,
    draws: int,
    t_grid,
    rng_seed: int = 0,
) -> ConcentrationEstimate:
    """Estimate the concentration exponent on a fixed pair over operator draws.

    Draw k is the operator law.sample(seeding.child_seed(rng_seed, k)), so
    the estimate is reproducible and worker-count independent.  The draws'
    child seeds, and then their generators, are derived in one seeding call
    each; each draw makes only its RNG calls, and one law.gaps call per
    _CONCENTRATION_CHUNK draws maps their operators and evaluates their gaps
    on the pair's secant.
    """
    if draws < 100:
        raise InputError(f"need draws >= 100, got {draws}")
    x, x2 = (np.asarray(p, dtype=float) for p in pair)
    if x.ndim != 1 or x.shape != x2.shape:
        raise InputError(f"pair must be two points of one shape (d,), got {x.shape} and {x2.shape}")
    D = x - x2
    d = metric.dist(D)
    if not d > 0:
        raise InputError("pair must have positive metric distance")
    t_grid = tuple(float(t) for t in t_grid)
    rngs = seeding.generators(seeding.child_seeds(rng_seed, np.arange(draws)))
    gaps = [law.gaps([law.draw(rng) for rng in itertools.islice(rngs, _CONCENTRATION_CHUNK)], D)
            for _ in range(0, draws, _CONCENTRATION_CHUNK)]
    ratios = np.concatenate(gaps) / d
    p_hat, c_hat, wilson, c_lo = [], [], [], []
    for t in t_grid:
        fails = int(np.sum(ratios - 1.0 <= -t))
        p = fails / draws
        p_hat.append(p)
        c_hat.append(-math.log(p) if p > 0 else np.inf)
        wu = wilson_upper(fails, draws)
        wilson.append(wu)
        c_lo.append(-math.log(wu))
    return ConcentrationEstimate(
        t_grid=t_grid,
        p_hat=tuple(p_hat),
        c_hat=tuple(c_hat),
        wilson_p_upper=tuple(wilson),
        c_lower=tuple(c_lo),
        draws=draws,
        m=law.m,
        seed=rng_seed,
    )


def fit_concentration_slope(estimates) -> dict:
    """Proportionality fit of the exponent against m t^2 / (1 + t).

    Through-origin least squares on all finite c_hat points, plus per-m
    sub-slopes; a stable per-m slope family is the empirical signature of
    c(t) growing linearly in m at the model shape t^2/(1+t).
    """
    xs, cs, per_m = [], [], {}
    for est in estimates:
        fx, fc = [], []
        for t, c in zip(est.t_grid, est.c_hat):
            if np.isfinite(c) and c > 0:
                fx.append(est.m * t * t / (1.0 + t))
                fc.append(c)
        xs.extend(fx)
        cs.extend(fc)
        if fx:
            fx, fc = np.asarray(fx), np.asarray(fc)
            per_m[est.m] = float(np.dot(fx, fc) / np.dot(fx, fx))
    if not xs:
        return {"slope": None, "per_m": {}}
    xs, cs = np.asarray(xs), np.asarray(cs)
    return {"slope": float(np.dot(xs, cs) / np.dot(xs, xs)), "per_m": per_m}


# ---------------------------------------------------------------------------
# Failure-probability calculators (theoretical bounds)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Prop1Result:
    rho: float
    delta_presumed: float | None

    def report_dict(self) -> dict:
        return {"mode": "prop1", "constants": {"rho": self.rho, "delta": self.delta_presumed},
                "label": "theoretical bound"}


def prop1_failure_bound(
    covering: CoveringBound,
    c_of_half_t: float,
    t: float | None = None,
    C: float | None = None,
) -> Prop1Result:
    """Union-bound failure probability for the linear covering argument.

    rho = min(1, N(secants, d, delta) * exp(-c(t/2))); when t and the
    secant Lipschitz constant C are supplied, the presumed covering radius
    delta = t / (2 C) is reported alongside.
    """
    if c_of_half_t < 0:
        raise InputError("concentration exponent must be nonnegative")
    rho = float(min(1.0, math.exp(min(covering.log_count - c_of_half_t, 0.0))))
    delta = t / (2.0 * C) if (t is not None and C is not None) else None
    return Prop1Result(rho=rho, delta_presumed=delta)


@dataclass(frozen=True)
class Prop2Result:
    rho: float
    eps: float
    delta: float
    delta_prime: float
    model_cover: CoveringBound
    secant_cover: CoveringBound

    def report_dict(self) -> dict:
        return {
            "mode": "prop2",
            "constants": {
                "rho": self.rho,
                "eps": self.eps,
                "delta": self.delta,
                "delta_prime": self.delta_prime,
                "log_model_cover": self.model_cover.log_count,
                "log_secant_cover": self.secant_cover.log_count,
            },
            "label": "theoretical bound",
        }


def prop2_failure_bound(
    model: UnionOfSubspaces,
    metric: Pseudometric,
    c_of_half_t: float,
    constants: NonlinearLripHypotheses,
    t: float,
    c0: float = 3.0,
) -> Prop2Result:
    """Failure probability of the nonlinear covering argument at level t.

    Chooses the radii at their caps,

        eps = min(eps0, t / (8 C2)),  delta' = t / (4 C3),
        delta = (t eps^2 / (4 C1)) / (eps + M_S),

    covers the model at radius delta (covering_bound_model) and the
    normalized secant set at radius delta' (covering_bound_secant), both
    with ball-covering constant c0, and returns
    rho = min(1, (count_model + count_secant) * exp(-c(t/2))).
    """
    if not 0.0 < t < 1.0:
        raise InputError(f"need 0 < t < 1, got {t}")
    if c_of_half_t < 0:
        raise InputError("concentration exponent must be nonnegative")
    eps = min(constants.eps0, t / (8.0 * constants.C2))
    delta_prime = t / (4.0 * constants.C3)
    delta = (t * eps * eps / (4.0 * constants.C1)) / (eps + constants.M_S)
    mc = covering_bound_model(model, metric, delta, c0)
    sc = covering_bound_secant(model, metric, delta_prime, c0)
    log_total = float(np.logaddexp(mc.log_count, sc.log_count))
    rho = float(min(1.0, math.exp(min(log_total - c_of_half_t, 0.0))))
    return Prop2Result(rho=rho, eps=eps, delta=delta, delta_prime=delta_prime,
                       model_cover=mc, secant_cover=sc)


@dataclass(frozen=True)
class RecommendedM:
    """Measurement-count recommendation m = ceil(c0 t^-2 (s log(Md/(sigma t)) + log N + log 1/rho))."""

    m: int
    raw: float
    log_term_clipped: bool

    def report_dict(self) -> dict:
        return {"mode": "recommend-m",
                "constants": {"m": self.m, "raw": self.raw, "log_term_clipped": self.log_term_clipped},
                "label": "theoretical bound"}


def recommend_m(
    t: float,
    s: int,
    N: int,
    M: float,
    d: int,
    sigma: float,
    rho_target: float,
    c0: float = 1.0,
) -> RecommendedM:
    """Measurement count sufficient for the non-uniform LRIP at level t, failure rho_target."""
    if not 0.0 < t < 1.0:
        raise InputError(f"need 0 < t < 1, got {t}")
    if not 0.0 < rho_target < 1.0:
        raise InputError(f"need rho_target in (0, 1), got {rho_target}")
    if not (1 <= s <= d and N >= 1 and M > 0 and sigma > 0 and c0 > 0):
        raise InputError(f"need 1 <= s <= d, N >= 1 and M, sigma, c0 > 0, got {s=}, {d=}, {N=}, {M=}, {sigma=}, {c0=}")
    arg = M * d / (sigma * t)
    clipped = arg <= 1.0
    log_term = max(0.0, math.log(arg))
    raw = c0 * t**-2 * (s * log_term + math.log(N) + math.log(1.0 / rho_target))
    return RecommendedM(m=max(1, math.ceil(raw)), raw=raw, log_term_clipped=clipped)
