"""Dense linear algebra over GF(2) on top of numpy uint8 arrays.

All matrices are 2-d numpy arrays of dtype uint8 with entries in {0, 1};
arithmetic is mod 2.  Columns are vectors throughout: the column span of a
matrix is the subspace it represents.
"""

from __future__ import annotations

import numpy as np


def as_mat(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.uint8)


def rref(A: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form of A mod 2; returns (R, pivot_columns)."""
    R = (A.copy() % 2).astype(np.uint8)
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hit = np.flatnonzero(R[r:, c])
        if hit.size == 0:
            continue
        p = r + hit[0]
        if p != r:
            R[[r, p]] = R[[p, r]]
        others = np.flatnonzero(R[:, c])
        others = others[others != r]
        if others.size:
            R[others] ^= R[r]
        pivots.append(c)
        r += 1
    return R, pivots


def rank(A: np.ndarray) -> int:
    if A.size == 0:
        return 0
    return len(rref(A)[1])


def kernel(A: np.ndarray) -> np.ndarray:
    """Basis of ker(A) as columns of the returned matrix."""
    rows, cols = A.shape
    R, pivots = rref(A)
    free = [c for c in range(cols) if c not in pivots]
    K = as_mat(cols, len(free))
    for idx, f in enumerate(free):
        K[f, idx] = 1
        # back-substitute pivot rows
        for r, p in enumerate(pivots):
            if R[r, f]:
                K[p, idx] = 1
    return K


def solve_affine(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution x of A x = b mod 2, or None if the system is inconsistent.

    Free variables are set to zero.
    """
    rows, cols = A.shape
    aug = np.concatenate([A % 2, (b % 2).reshape(rows, 1)], axis=1).astype(np.uint8)
    R, pivots = rref(aug)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for r, p in enumerate(pivots):
        x[p] = R[r, cols]
    return x


def in_span(M: np.ndarray, v: np.ndarray) -> bool:
    """Is the column vector v in the column span of M?"""
    return solve_affine(M, v) is not None


def intersection_dim(V: np.ndarray, W: np.ndarray) -> int:
    """dim(col-span V ∩ col-span W) via the rank formula."""
    rv, rw = rank(V), rank(W)
    return rv + rw - rank(np.concatenate([V, W], axis=1))
