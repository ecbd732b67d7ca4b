"""Lovasz theta via a dense dual barrier method, no external SDP solver.

The number computed is theta(G) = max <J, X> over X PSD with trace 1 and
X_ij = 0 on edges.  Its dual is min t such that
Z(t, y) = t*I + sum_e y_e (E_ij + E_ji) - J  is PSD, and any dual-feasible
t upper-bounds theta.  We follow the central path of the logdet barrier
F_eta(t, y) = eta*t - logdet Z with damped Newton steps; on the path the
duality gap is exactly n/eta, so pushing eta to ~n/tol brackets theta to
the requested tolerance.

The returned witness is a matrix T with zero diagonal and zero entries on
edges such that I + T is PSD and ||I + T|| is within tolerance of theta,
i.e. a feasible point of the spectral-norm formulation.  It is built from
the primal central point X ~ Z^{-1} by the scaling B_ij = X_ij /
sqrt(X_ii X_jj): with s = sqrt(diag X), s^T B s = <J, X> and |s| = 1, so
lambda_max(B) reaches theta at optimality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 500


@dataclass
class SdpSolution:
    """Outcome of a theta solve.

    value is the theta estimate; lower_bound/upper_bound bracket the true
    value (up to floating point), duality_gap = upper - lower.  When
    converged is False the brackets are still valid but wider than tol.
    """

    value: float
    witness: np.ndarray
    duality_gap: float
    converged: bool
    iterations: int
    lower_bound: float
    upper_bound: float


def _is_pd(z: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(z)
        return True
    except np.linalg.LinAlgError:
        return False


def _logdet(z: np.ndarray) -> float:
    sign, ld = np.linalg.slogdet(z)
    return ld if sign > 0 else -np.inf


def lovasz_theta(
    g: Graph, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> SdpSolution:
    """Compute theta(g) to within tol, with a feasible spectral witness.

    Never raises on slow convergence: if the Newton iteration budget runs
    out, the result has converged=False and carries the best bound pair
    found so far.  Raises ValueError unless tol is positive and finite.
    """
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

    t = float(n + 1)
    y = np.zeros(m)

    def zmat(tv: float, yv: np.ndarray) -> np.ndarray:
        z = tv * np.eye(n) - J
        if m:
            z[ei, ej] += yv
            z[ej, ei] += yv
        return z

    gap_target = max(tol, 1e-12) / 2.0
    eta_final = 2.0 * n / gap_target
    eta = 1.0
    iterations = 0
    ran_out = False

    while True:
        # Newton-center F_eta at the current point.
        for _ in range(100):
            if iterations >= max_iter:
                ran_out = True
                break
            z = zmat(t, y)
            w = np.linalg.inv(z)
            grad = np.empty(1 + m)
            grad[0] = eta - np.trace(w)
            if m:
                grad[1:] = -2.0 * w[ei, ej]
            h = np.empty((1 + m, 1 + m))
            w2 = w @ w
            h[0, 0] = np.trace(w2)
            if m:
                h[0, 1:] = h[1:, 0] = 2.0 * w2[ei, ej]
                wii = w[np.ix_(ei, ei)]
                wjj = w[np.ix_(ej, ej)]
                wij = w[np.ix_(ei, ej)]
                wji = w[np.ix_(ej, ei)]
                h[1:, 1:] = 2.0 * (wii * wjj + wij * wji)
            try:
                step = np.linalg.solve(h, -grad)
            except np.linalg.LinAlgError:
                ridge = 1e-12 * max(1.0, np.trace(h) / (1 + m))
                step = np.linalg.solve(h + ridge * np.eye(1 + m), -grad)
            lam2 = float(-grad @ step)
            if lam2 <= 1e-18:
                break
            alpha = 1.0 if lam2 <= 0.0625 else 1.0 / (1.0 + np.sqrt(lam2))
            f0 = eta * t - _logdet(z)
            accepted = False
            for _ in range(60):
                t_new = t + alpha * step[0]
                y_new = y + alpha * step[1:]
                z_new = zmat(t_new, y_new)
                if _is_pd(z_new):
                    f_new = eta * t_new - _logdet(z_new)
                    if f_new < f0 + 1e-12:
                        t, y = t_new, y_new
                        accepted = True
                        break
                alpha *= 0.5
            iterations += 1
            if not accepted:
                break
            if lam2 <= 1e-14:
                break
        if ran_out or eta >= eta_final:
            break
        eta = min(eta * 10.0, eta_final)

    # Bounds: t is dual feasible, so theta <= t; on the central path the
    # primal value sits n/eta below it.
    upper = t
    lower = t - n / eta
    value = 0.5 * (upper + lower)
    gap = upper - lower

    # Witness in the spectral-norm form, from the primal central point.
    w = np.linalg.inv(zmat(t, y))
    x = w / np.trace(w)
    d = np.sqrt(np.clip(np.diag(x), 0.0, None))
    b = np.eye(n)
    scale = np.max(d) if n else 1.0
    for r in range(n):
        for c in range(n):
            if r == c or g.has_edge(r, c):
                continue
            if d[r] > 1e-12 * scale and d[c] > 1e-12 * scale:
                b[r, c] = x[r, c] / (d[r] * d[c])
    witness = b - np.eye(n)

    return SdpSolution(
        value=value,
        witness=witness,
        duality_gap=gap,
        converged=not ran_out and gap <= tol,
        iterations=iterations,
        lower_bound=lower,
        upper_bound=upper,
    )
