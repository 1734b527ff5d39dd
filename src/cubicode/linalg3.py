"""Small dense linear algebra over F_3 (numpy int8 matrices; x^-1 = x for x != 0).

All three functions rest on one pivot search.  It never rewrites the
matrix a: it accumulates a k x k transform E with E a = rref(a) and takes
each next pivot as the first nonzero column of E a below the pivot rows,
computed _BLOCK columns at a time.  A pivot updates only E (swap, scale,
eliminate with one outer product).  So the search takes at most
k + width / _BLOCK steps of small array products, and no step loops in
Python over the columns.  The reduced row echelon form is unique, so the
results equal those of row-by-row elimination bit for bit.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 64  # columns of E a computed per pivot search step


def _pivots(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Transform E (int64, invertible mod 3) with E a = rref(a), and the pivot columns.

    a holds int64 entries; each block is reduced mod 3 before its product.
    """
    rows, cols = a.shape
    E = np.eye(rows, dtype=np.int64)
    pivots: list[int] = []
    r = c = 0
    while r < rows and c < cols:
        block = (E @ (a[:, c : c + _BLOCK] % 3)) % 3
        hits = block[r:].any(axis=0)
        j = int(hits.argmax())
        if not hits[j]:
            c += _BLOCK
            continue
        col = block[:, j]
        sel = r + int((col[r:] != 0).argmax())
        if sel != r:
            E[[r, sel]] = E[[sel, r]]
            col[[r, sel]] = col[[sel, r]]
        E[r] = (E[r] * col[r]) % 3
        col[r] = 0
        E = (E - np.outer(col, E[r])) % 3
        pivots.append(c + j)
        r += 1
        c += j + 1
    return E, pivots


def row_reduce(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod 3 and the pivot column list."""
    a = np.asarray(mat, dtype=np.int64) % 3
    E, pivots = _pivots(a)
    return ((E @ a) % 3).astype(np.int8), pivots


def rank(mat: np.ndarray) -> int:
    return len(_pivots(np.asarray(mat, dtype=np.int64))[1])


def solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """One solution of mat @ x = rhs over F_3, or None if inconsistent.

    With E mat = rref(mat) of rank r, the system reads rref(mat) x = E rhs:
    it is consistent iff (E rhs)[r:] == 0, and then x is E rhs on the pivot
    columns and 0 elsewhere.
    """
    a = np.asarray(mat, dtype=np.int64)
    E, pivots = _pivots(a)
    y = (E @ (np.asarray(rhs, dtype=np.int64) % 3)) % 3
    if y[len(pivots) :].any():
        return None
    x = np.zeros(a.shape[1], dtype=np.int8)
    x[pivots] = y[: len(pivots)]
    return x
