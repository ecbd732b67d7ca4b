"""Float searches for rank certificates and independent systems, with exact output.

certificates.haemers_upper_search and independence.alpha_lower_search import
this module on their first call, so commands that never search do not load
numpy.  Every candidate is rounded to Q(i) and leaves only once it passes the
exact check of its kind.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .certificates import HaemersCertificate, VerificationError, verify_certificate
from .exactlinalg import ExactMatrix, GaussianInt, rationalize_array
from .independence import IndependentSystem, verify_independent
from .ncgraph import NcGraph

#: Denominator caps tried, in order, when rounding a float factor or vector to Q(i).
FACTOR_DENOMINATORS: tuple[int, ...] = (16, 256, 10_000, 1_000_000)
VECTOR_DENOMINATORS = (16, 256, 10_000)

#: ALS sweeps per restart, and restarts of one block count run as one stacked
#: batch; peak memory grows with ALS_CHUNK, never with the restart budget.
ALS_ITERATIONS = 80
ALS_CHUNK = 8


def _span_projector(s: NcGraph) -> np.ndarray:
    """Float orthogonal projector onto the span, from an exact Gram inverse."""
    # column t holds the row-major coordinates of basis row t
    coords = {
        coord * s.dim + t: x
        for t, row in enumerate(s.integer_rows.values())
        for coord, x in row.items()
    }
    v_exact = ExactMatrix.from_numerators(s.n * s.n, s.dim, coords, s.scale)
    gram = v_exact.conj_transpose() @ v_exact
    gram_inv = gram.solve(ExactMatrix.identity(s.dim))
    if gram_inv is None:  # pragma: no cover - basis rows are independent
        raise RuntimeError("span basis produced a singular Gram matrix")
    v = v_exact.to_complex()
    return v @ gram_inv.to_complex() @ v.conj().T


def _residual(c: np.ndarray, d: np.ndarray, q: np.ndarray, m: int) -> np.ndarray:
    """Squared constraint violation of each stacked pair of k x mn factors.

    The sum over blocks B_ij of |q vec(B_ij)|^2 (distance from the span)
    plus |sum_i B_ii - I|^2, with B = C^dag D; c and d are (r, k, mn).
    """
    r, _, mn = c.shape
    n = mn // m
    b = (c.conj().transpose(0, 2, 1) @ d).reshape(r, m, n, m, n)
    rows = b.transpose(0, 1, 3, 2, 4).reshape(r, m * m, n * n)
    member = np.abs(rows @ q.T) ** 2
    trace = np.abs(np.einsum("riaib->rab", b) - np.eye(n)) ** 2
    return member.sum(axis=(1, 2)) + trace.sum(axis=(1, 2))


def _min_norm_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm solutions of the stacked Hermitian PSD systems a x = rhs.

    np.linalg.solve seldom raises on a numerically singular matrix, so it
    also solves for a known probe vector: an item whose probe comes back
    wrong (or a batch that raises LinAlgError) is solved again through an
    eigh pseudo-inverse that drops eigenvalues below eps * size * lambda_max,
    the minimum-norm solution that lstsq gives.
    """
    size = a.shape[-1]
    probe = np.exp(1j * np.arange(size))
    rhs2 = np.stack([rhs, a @ probe], axis=-1)
    try:
        sol = np.linalg.solve(a, rhs2)
        err = np.linalg.norm(sol[..., 1] - probe, axis=-1)
        bad = ~(err <= 1e-6 * np.sqrt(size))
    except np.linalg.LinAlgError:
        sol = np.zeros_like(rhs2)
        bad = np.ones(a.shape[0], dtype=bool)
    x = sol[..., 0]
    if bad.any():
        w, v = np.linalg.eigh(a[bad])
        cut = np.finfo(float).eps * size * w[:, -1:]
        w_inv = np.divide(1, w, out=np.zeros_like(w), where=w > cut)
        coef = (v.conj().transpose(0, 2, 1) @ rhs[bad][..., None])[..., 0]
        x[bad] = (v @ (w_inv * coef)[..., None])[..., 0]
    return x


def _als_half_step(factor: np.ndarray, q4: np.ndarray, left_update: bool) -> np.ndarray:
    """One least-squares half step for each of the stacked (r, k, mn) factors.

    With B_ij = Z_i D_j and Z_i = C_i^dag, the right step holds C (the
    factor passed) and solves for D; the left step holds D and solves for
    C.  Transposing B_ij^T = D_j^T Z_i^T turns the left step into a right
    step with fixed blocks D_j^T, unknowns Z_i^T = conj(C_i) and the
    projector q4 with both matrix indices swapped, so one routine serves
    both.  For fixed n x k blocks Z_f and unknown k x n blocks X_u it
    minimises sum_{f,u} |q vec(Z_f X_u)|^2 + |sum_f Z_f X_f - I|^2, whose
    normal matrix is kron(I_m, G) + (Z_f^dag Z_g)_{f,g} (x) I_n with
    G = sum_f (Z_f (x) I)^dag q (Z_f (x) I), and whose right-hand side is
    vec(Z_f^dag).
    """
    r, k, mn = factor.shape
    n = q4.shape[0]
    m = mn // n
    if left_update:
        q4 = q4.transpose(1, 0, 3, 2)
    z = factor.reshape(r, k, m, n).transpose(0, 2, 3, 1)  # (r, m, n, k)
    if not left_update:
        z = z.conj()
    # w[(p, a), (q, c)] = sum_f conj(Z_f[p, a]) Z_f[q, c]
    zf = z.reshape(r, m, n * k)
    w = zf.conj().transpose(0, 2, 1) @ zf
    w = w.reshape(r, n, k, n, k).transpose(0, 2, 4, 1, 3).reshape(r, k * k, n * n)
    # g[(a, b), (c, d)] = sum_{p, q} w[(p, a), (q, c)] q4[p, b, q, d]
    g = w @ q4.transpose(0, 2, 1, 3).reshape(n * n, n * n)
    g = g.reshape(r, k, k, n, n).transpose(0, 1, 3, 2, 4).reshape(r, k * n, k * n)
    zs = z.transpose(0, 2, 1, 3).reshape(r, n, m * k)
    t = (zs.conj().transpose(0, 2, 1) @ zs).reshape(r, m, k, 1, m, k, 1)
    normal = (t * np.eye(n).reshape(1, 1, 1, n, 1, 1, n)).reshape(r, m * k * n, -1)
    blocks = np.arange(m)
    normal.reshape(r, m, k * n, m, k * n)[:, blocks, :, blocks, :] += g
    rhs = z.conj().transpose(0, 1, 3, 2).reshape(r, m * k * n)
    x = _min_norm_solve(normal, rhs).reshape(r, m, k, n).transpose(0, 2, 1, 3)
    x = x.reshape(r, k, mn)
    return x.conj() if left_update else x


def _polish_factor(
    s: NcGraph, c_exact: ExactMatrix, k: int, m: int
) -> Optional[HaemersCertificate]:
    """Given an exact C, solve the (linear) feasibility for D over Q(i).

    The rows are assembled in Z[i], each scaled by the denominator e of C^dag
    (and the annihilator's by the span's scale), which keeps the solution.
    """
    n = s.n
    mn = m * n
    ch, e = c_exact.conj_transpose().numerators()
    # ch_rows[r] lists (t, e * C^dag[r, t]) over the nonzeros of row r
    ch_rows: list[list[tuple[int, GaussianInt]]] = [[] for _ in range(mn)]
    for idx, x in ch.items():
        r, t = divmod(idx, k)
        ch_rows[r].append((t, x))
    ann = s.annihilator_rows()
    # unknowns: D in row-major order, D[t, c] at index t * mn + c
    nv = k * mn
    entries: dict[int, GaussianInt] = {}
    rhs: dict[int, GaussianInt] = {}

    def add(row: int, col: int, xr: int, xi: int) -> None:
        key = row * nv + col
        ar, ai = entries.get(key, (0, 0))
        entries[key] = (ar + xr, ai + xi)

    row = 0
    for i in range(m):
        for j in range(m):
            for a_row in ann:
                for coord, (vr, vi) in a_row.items():
                    p, qq = divmod(coord, n)
                    for t, (cr, ci) in ch_rows[i * n + p]:
                        add(row, t * mn + j * n + qq, vr * cr - vi * ci, vr * ci + vi * cr)
                row += 1
    for p in range(n):
        for qq in range(n):
            for i in range(m):
                for t, (cr, ci) in ch_rows[i * n + p]:
                    add(row, t * mn + i * n + qq, cr, ci)
            if p == qq:
                rhs[row] = (e, 0)
            row += 1
    a_mat = ExactMatrix.from_numerators(row, nv, entries)
    sol = a_mat.solve(ExactMatrix.from_numerators(row, 1, rhs))
    if sol is None:
        return None
    cert = HaemersCertificate(
        n=n, m=m, k=k, C=c_exact, D=ExactMatrix.from_numerators(k, mn, *sol.numerators())
    )
    try:
        verify_certificate(s, cert)
    except VerificationError:  # pragma: no cover - solve enforces feasibility
        return None
    return cert


def find_certificate(
    s: NcGraph, k: int, schedule: Sequence[int], budget: int, seed: int
) -> Optional[HaemersCertificate]:
    """The body of certificates.haemers_upper_search, which documents it."""
    n = s.n
    q = np.eye(n * n) - _span_projector(s)
    q4 = q.reshape(n, n, n, n)
    for m in schedule:
        mn = m * n
        for first in range(0, budget, ALS_CHUNK):
            rngs = [
                np.random.default_rng(seed + 7919 * restart + 104_729 * m)
                for restart in range(first, min(first + ALS_CHUNK, budget))
            ]
            # each restart's generator draws its C, then its D
            c, d = (
                np.array(
                    [g.standard_normal((k, mn)) + 1j * g.standard_normal((k, mn)) for g in rngs]
                )
                for _ in "cd"
            )
            best = np.full(len(rngs), np.inf)
            live = np.arange(len(rngs))
            for _ in range(ALS_ITERATIONS):
                d[live] = _als_half_step(c[live], q4, left_update=False)
                c[live] = _als_half_step(d[live], q4, left_update=True)
                res = _residual(c[live], d[live], q, m)
                stop = (res < 1e-26) | (res > best[live] * (1 - 1e-9))
                best[live] = np.fmin(best[live], res)
                live = live[~stop]
                if live.size == 0:
                    break
            for i in np.flatnonzero(_residual(c, d, q, m) <= 1e-10):
                for denom_cap in FACTOR_DENOMINATORS:
                    cert = _polish_factor(s, rationalize_array(c[i], denom_cap), k, m)
                    if cert is not None:
                        return cert
    return None


def _rationalize_vector(v: np.ndarray, cap: int) -> Optional[ExactMatrix]:
    """Scale so the largest entry is exactly 1, then round entrywise."""
    idx = int(np.argmax(np.abs(v)))
    pivot = v[idx]
    if abs(pivot) < 1e-12:
        return None
    return rationalize_array((v / pivot)[:, None], cap)


def find_independent_system(
    s: NcGraph, l_target: int, budget: int, seed: int
) -> Optional[IndependentSystem]:
    """The float branch of independence.alpha_lower_search, which documents it."""
    n = s.n
    basis_c = [a.to_complex() for a in s.basis]
    ops = basis_c + [a.conj().T for a in basis_c]
    rng = np.random.default_rng(seed)

    def residual(vecs: list[np.ndarray]) -> float:
        total = 0.0
        for a in basis_c:
            for i, vi in enumerate(vecs):
                for j, vj in enumerate(vecs):
                    if i != j:
                        total += abs(np.vdot(vi, a @ vj)) ** 2
        return total

    for _ in range(budget):
        vecs = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(l_target)]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        best = float("inf")
        for _sweep in range(200):
            for i in range(l_target):
                m = np.zeros((n, n), dtype=complex)
                for j, vj in enumerate(vecs):
                    if j == i:
                        continue
                    for a in ops:
                        w = a @ vj
                        m += np.outer(w, w.conj())
                _vals, eig = np.linalg.eigh(m)
                vecs[i] = eig[:, 0]
            r = residual(vecs)
            if r < 1e-22:
                break
            if r > best * (1 - 1e-3):
                break
            best = min(best, r)
        if residual(vecs) > 1e-18:
            continue
        for cap in VECTOR_DENOMINATORS:
            cols = [_rationalize_vector(v, cap) for v in vecs]
            if any(c is None for c in cols):
                continue
            candidate = IndependentSystem(n, tuple(cols))
            try:
                if verify_independent(s, candidate):
                    return candidate
            except ValueError:
                continue
    return None
