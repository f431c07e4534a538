"""Brute-force references that decoder tests compare against."""

import numpy as np

from lrip_lab.errors import InputError
from lrip_lab.models import UnionOfSubspaces


def grid_minimum(op, model: UnionOfSubspaces, y, resolution: float = 1e-3):
    """Brute-force residual minimum over coefficient grids (s <= 2 only).

    Returns (x_best, residual_best).  The grid covers [-M, M]^s per subspace
    at the given resolution, keeping only points inside the ball.  A minimum
    over finitely many points is an upper bound on the true minimum, not a
    certificate: it serves as a reference for decoder quality in tests.
    """
    s = model.subspace_dim
    if s > 2:
        raise InputError("grid oracle supports subspace dimension <= 2")
    y = np.asarray(y, dtype=complex)
    M = model.norm_bound
    ticks = np.arange(-M, M + resolution / 2, resolution)
    if s == 1:
        Z = ticks[:, None]
    else:
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        Z = np.column_stack([a.ravel(), b.ravel()])
        Z = Z[np.linalg.norm(Z, axis=1) <= M]
    best_x, best_res = None, np.inf
    for B in model.bases:
        X = Z @ B.T
        res = np.linalg.norm(op.apply_batch(X) - y[None, :], axis=1)
        k = int(np.argmin(res))
        if res[k] < best_res:
            best_x, best_res = X[k], float(res[k])
    return best_x, best_res
