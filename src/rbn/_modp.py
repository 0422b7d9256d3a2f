"""Dense rank computation over a prime field F_p.

The interpolation oracle reduces to the rank of small dense integer matrices
mod p, given as lists of equal-length rows of Python ints and eliminated row
by row: each row is reduced against the pivot rows kept so far, leading
column first, and becomes a new pivot row if anything is left.  Python ints
do not overflow, so any prime p works.
"""

from __future__ import annotations


def modp_rank(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over F_p."""
    if p < 2:
        raise ValueError(f"modulus {p} is below 2")
    pivots: dict[int, list[int]] = {}  # leading column -> the row from there on, leading entry 1
    for row in rows:
        row = [x % p for x in row]
        for col in range(len(row)):
            f = row[col]
            if not f:
                continue
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(f, -1, p)
                pivots[col] = [x * inv % p for x in row[col:]]
                break
            row[col:] = [(x - f * y) % p for x, y in zip(row[col:], pivot)]
    return len(pivots)


def modp_nullity(rows: list[list[int]], p: int) -> int:
    """Dimension of the right kernel over F_p of a matrix with at least one row."""
    return len(rows[0]) - modp_rank(rows, p)
