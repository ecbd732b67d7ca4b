"""Lovasz theta by a dense primal-dual interior-point method, no external SDP solver.

The number computed is theta(G) = max <J, X> over X PSD with trace 1 and
X_ij = 0 on edges.  Its dual is min t such that
Z(t, y) = t*I + sum_e y_e (E_ij + E_ji) - J  is PSD.  Both problems start
strictly feasible, at X = I/n and Z = (n+1)I - J, and every iteration
takes the HKM direction with Mehrotra's predictor-corrector, stepping 0.95
of the way to the PSD boundary so that both iterates stay feasible.

The bracket is read off the last pair of iterates that passed a Cholesky
test.  The upper end is the t of a positive definite Z(t, y), so t >= theta
by weak duality.  The lower end is <J, X> / tr X for the positive definite
primal iterate X with its edge entries set to zero, a feasible point of the
primal after scaling, so it is <= theta.  Both hold up to float rounding,
at every iteration, whether or not the solve converged.

The returned witness is the float matrix T = B - I, where
B = D^{-1/2} X D^{-1/2} and D = diag X.  B is PSD by congruence, has unit
diagonal and zero entries on edges, and with s = sqrt(diag X),
s^T B s / |s|^2 = <J, X> / tr X, so lambda_max(I + T) >= lower_bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .graphs import Graph

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 500


@dataclass
class SdpSolution:
    """Outcome of a theta solve.

    lower_bound <= theta <= upper_bound up to float rounding (see the module
    docstring for what each end is); value is their midpoint and
    duality_gap = upper - lower.  converged means duality_gap <= tol; when
    it is False the bracket still holds but is wider.  iterations counts
    primal-dual iterations.  witness is T of the module docstring.
    """

    value: float
    witness: np.ndarray
    duality_gap: float
    converged: bool
    iterations: int
    lower_bound: float
    upper_bound: float


def _step(li: np.ndarray, d: np.ndarray) -> float:
    """0.95 of the step from L L^T along d to the PSD boundary, at most 1; li = L^-1."""
    import numpy as np
    lam = np.linalg.eigvalsh(li @ d @ li.T)[0]
    return 1.0 if lam >= -0.95 else -0.95 / lam


def lovasz_theta(
    g: Graph, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> SdpSolution:
    """Bracket theta(g) to within tol, with a PSD spectral witness.

    Never raises on slow convergence or numerical breakdown: it stops at the
    last bracket that passed its Cholesky tests, with converged=False when
    that bracket is wider than tol.  Raises ValueError unless tol is
    positive and finite.
    """
    import numpy as np
    if not 0 < tol < float("inf"):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    n = g.n
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    edges = g.sorted_edges()
    m = len(edges)
    ei = np.array([e[0] for e in edges], dtype=int)
    ej = np.array([e[1] for e in edges], dtype=int)
    J = np.ones((n, n))
    b = np.zeros(m + 1)
    b[0] = 1.0

    def op(v: np.ndarray) -> np.ndarray:
        """sum_k v_k A_k, with A_0 = I and A_e = E_ij + E_ji."""
        d = v[0] * np.eye(n)
        d[ei, ej] += v[1:]
        d[ej, ei] += v[1:]
        return d

    def adj(r: np.ndarray) -> np.ndarray:
        """(<A_k, r>)_k."""
        return np.concatenate(([np.trace(r)], r[ei, ej] + r[ej, ei]))

    off_diagonal = ~np.eye(n, dtype=bool)
    x = np.eye(n) / n
    y = (n + 1.0) * b  # (t, y_e)
    gap_target = max(tol, 1e-12)
    iterations = 0
    while True:
        x[ei, ej] = x[ej, ei] = 0.0
        z = op(y) - J
        try:
            lx, lz = np.linalg.cholesky(x), np.linalg.cholesky(z)
        except np.linalg.LinAlgError:
            break
        # <J, X> / tr X as 1 + off-diagonal sum / tr X: exact on a diagonal X.
        upper, lower, best = y[0], 1.0 + x[off_diagonal].sum() / np.trace(x), x
        if upper - lower <= gap_target or iterations >= max_iter:
            break
        lix, liz = np.linalg.inv(lx), np.linalg.inv(lz)
        w = liz.T @ liz
        # Schur matrix M_kl = tr(A_k X A_l W), W = Z^{-1}; for edges ij, kl
        # it is X_jk W_il + X_il W_jk + X_jl W_ik + X_ik W_jl.
        schur = np.empty((m + 1, m + 1))
        schur[0, 0] = np.sum(x * w)
        xw = x @ w
        schur[0, 1:] = schur[1:, 0] = xw[ei, ej] + xw[ej, ei]
        xi, xj, wi, wj = x[ei], x[ej], w[ei], w[ej]
        cross = xj[:, ei] * wi[:, ej]
        schur[1:, 1:] = cross + cross.T + xj[:, ej] * wi[:, ei] + xi[:, ei] * wj[:, ej]
        residual = b - adj(x)

        # HKM direction towards R: dX = sym(R - X dZ W) with dZ = op(dy), and
        # <A_k, dX> = b_k - <A_k, X>, so M dy = adj(R) - residual.  The
        # predictor aims at R = -X, the corrector at sigma mu W - X - dXa dZa W
        # (Mehrotra's centring sigma and second-order term).
        def direction(r: np.ndarray):
            dy = np.linalg.solve(schur, adj(r) - residual)
            dz = op(dy)
            dx = r - x @ dz @ w
            return 0.5 * (dx + dx.T), dy, dz

        try:
            dxa, _, dza = direction(-x)
            mu = np.sum(x * z) / n
            ax, az = _step(lix, dxa), _step(liz, dza)
            sigma = (np.sum((x + ax * dxa) * (z + az * dza)) / (n * mu)) ** 3
            dx, dy, dz = direction(sigma * mu * w - x - dxa @ dza @ w)
            x, y = x + _step(lix, dx) * dx, y + _step(liz, dz) * dy
        except np.linalg.LinAlgError:
            break
        iterations += 1

    d = 1.0 / np.sqrt(np.diag(best))
    witness = best * np.outer(d, d)
    np.fill_diagonal(witness, 0.0)
    return SdpSolution(
        value=0.5 * (upper + lower),
        witness=witness,
        duality_gap=upper - lower,
        converged=upper - lower <= tol,
        iterations=iterations,
        lower_bound=lower,
        upper_bound=upper,
    )
