"""Small dense linear algebra over F_3 on bit-sliced rows.

A row of trits is held as two Python ints, its planes (x1, x2): bit j of
x1 is set where entry j is 1, bit j of x2 where it is 2.  F_3 addition
is six bitwise operations on whole rows (`add`), negation swaps the
planes, and a nonzero trit is its own inverse, so scaling a row to a
leading 1 is at most one swap.

All functions rest on one engine, `eliminate`: Gauss-Jordan elimination
whose next pivot is the lowest column, among those a mask allows, that
is nonzero in some remaining row.  With every column allowed this gives
the reduced row echelon form, which is unique, so the results equal
those of row-by-row elimination bit for bit.
"""

from __future__ import annotations

import numpy as np

Planes = tuple[int, int]


def bits(flags: np.ndarray) -> int:
    """The int whose bit j is set iff flags[j] is true."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def pack(mat: np.ndarray) -> list[Planes]:
    """The rows of an integer matrix, reduced mod 3, as planes."""
    return [(bits(row == 1), bits(row == 2)) for row in np.remainder(np.atleast_2d(mat), 3)]


def unpack(rows: list[Planes], width: int) -> np.ndarray:
    """The int8 (len(rows), width) matrix of trits held by the planes."""
    nbytes = (width + 7) // 8
    raw = b"".join(plane.to_bytes(nbytes, "little") for row in rows for plane in row)
    flags = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), 2, nbytes),
        axis=2,
        count=width,
        bitorder="little",
    ).astype(np.int8)
    return flags[:, 0] + 2 * flags[:, 1]


def add(a: Planes, b: Planes) -> Planes:
    """Entrywise a + b mod 3."""
    a1, a2 = a
    b1, b2 = b
    t = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ t, (a1 | b1) ^ t


def dot(a: Planes, b: Planes) -> int:
    """sum_j a_j b_j mod 3: 1 * 1 = 2 * 2 = 1 and 1 * 2 = 2."""
    a1, a2 = a
    b1, b2 = b
    same = (a1 & b1).bit_count() + (a2 & b2).bit_count()
    cross = (a1 & b2).bit_count() + (a2 & b1).bit_count()
    return (same + 2 * cross) % 3


def eliminate(
    rows: list[Planes], allowed: int = -1
) -> tuple[list[Planes], list[int], list[Planes]]:
    """Gauss-Jordan elimination with pivots restricted to the allowed columns.

    Returns the pivot rows in pivot order (each 1 at its pivot column and
    0 at every other pivot column), the pivot columns, and the rows left
    over, which are 0 on every allowed column.  Row operations keep the
    row space, so the left-over rows span exactly the words of the row
    space that vanish on the allowed columns.
    """
    rest = list(rows)
    done: list[Planes] = []
    pivots: list[int] = []
    while rest:
        live = 0
        for x1, x2 in rest:
            live |= x1 | x2
        live &= allowed
        if not live:
            break
        bit = live & -live
        i = next(i for i, (x1, x2) in enumerate(rest) if (x1 | x2) & bit)
        p1, p2 = rest.pop(i)
        if p2 & bit:
            p1, p2 = p2, p1
        pivot, minus = (p1, p2), (p2, p1)

        def clear(row: Planes) -> Planes:
            # a 1 at the pivot column takes -pivot, a 2 takes +pivot
            return add(row, minus) if row[0] & bit else add(row, pivot) if row[1] & bit else row

        done = [clear(row) for row in done]
        rest = [clear(row) for row in rest]
        done.append(pivot)
        pivots.append(bit.bit_length() - 1)
    return done, pivots, rest


def row_reduce(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod 3 (int8) and the pivot column list."""
    a = np.atleast_2d(mat)
    done, pivots, rest = eliminate(pack(a))
    return unpack(done + [(0, 0)] * len(rest), a.shape[1]), pivots


def rank(mat: np.ndarray) -> int:
    return len(eliminate(pack(mat))[1])


def solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """One solution of mat @ x = rhs over F_3, or None if inconsistent.

    Reduces [mat | rhs]: the system is inconsistent iff the rhs column
    takes a pivot, and otherwise x is the rhs column of the pivot rows on
    the pivot columns and 0 elsewhere.
    """
    a = np.atleast_2d(mat)
    cols = a.shape[1]
    done, pivots, _ = eliminate(pack(np.column_stack([a, rhs])))
    if pivots and pivots[-1] == cols:
        return None
    x = np.zeros(cols, dtype=np.int8)
    for (x1, x2), c in zip(done, pivots):
        x[c] = (x1 >> cols & 1) + 2 * (x2 >> cols & 1)
    return x
