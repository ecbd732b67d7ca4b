"""Floating-point re-checks of certificates, done apart from the program.

Used where an exact re-check in the benchmark's own code would cost more
than the program's run (the 625 x 625 product of the C5 x C5 certificate).
Entries are small rationals, so a float residual below ``TOL`` is a clean
yes and anything above it a clean no.
"""

from __future__ import annotations

import numpy as np

import exact

TOL = 1e-8


def to_array(mat) -> np.ndarray:
    return np.array(
        [[complex(float(a), float(b)) for a, b in row] for row in mat], dtype=complex
    )


def strings_to_array(rows) -> np.ndarray:
    return to_array(exact.parse_matrix(rows))


def span_frame(basis) -> np.ndarray:
    """Orthonormal frame (n^2 x dim) of the span of n x n basis arrays."""
    vecs = np.stack([b.reshape(-1) for b in basis], axis=1)
    frame, _ = np.linalg.qr(vecs)
    return frame


def check(frame: np.ndarray, n: int, m: int, c: np.ndarray, d: np.ndarray) -> dict:
    """Block membership, block trace and SVD rank of B = C^dag D."""
    b = c.conj().T @ d
    blocks = b.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n).T
    resid = blocks - frame @ (frame.conj().T @ blocks)
    member = float(np.abs(resid).max(initial=0.0)) <= TOL
    total = sum(b[i * n : (i + 1) * n, i * n : (i + 1) * n] for i in range(m))
    trace = float(np.abs(total - np.eye(n)).max()) <= TOL
    return {"member": member, "trace": trace, "rank": int(np.linalg.matrix_rank(b))}


def implied_kind(result: dict):
    """The failure kind the program's verifier must report first, or None."""
    if not result["member"]:
        return "block-membership"
    if not result["trace"]:
        return "trace"
    return None
