"""Dense rank computation over a prime field F_p.

The interpolation oracle reduces to the rank of small dense integer matrices
mod p, computed by numpy Gaussian elimination on plain row slices: each
pivot clears the block ``a[row+1:, col:]`` in place, where rows with a zero
in the pivot column subtract zero.  Entries must be reduced mod p and p must
stay below 2^31 so products fit in int64.
"""

from __future__ import annotations

import numpy as np

MAX_PRIME = 1 << 31


def modp_rank(mat: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p."""
    if not 1 < p < MAX_PRIME:
        raise ValueError(f"modulus {p} out of the supported range (2, 2^31)")
    if mat.size == 0:
        return 0
    a = np.mod(np.asarray(mat, dtype=np.int64), p)  # a fresh array, eliminated in place
    m, n = a.shape
    row = 0
    for col in range(n):
        if row == m:
            break
        pivots = np.nonzero(a[row:, col])[0]
        if pivots.size == 0:
            continue
        piv = row + int(pivots[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        inv = pow(int(a[row, col]), -1, p)
        a[row, col:] = (a[row, col:] * inv) % p
        below = a[row + 1 :, col:]  # a view: eliminated in place
        below -= np.outer(below[:, 0], a[row, col:])
        below %= p
        row += 1
    return row


def modp_nullity(mat: np.ndarray, p: int) -> int:
    """Dimension of the right kernel of mat over F_p."""
    mat = np.asarray(mat, dtype=np.int64)
    if mat.size == 0:
        return mat.shape[1] if mat.ndim == 2 else 0
    return mat.shape[1] - modp_rank(mat, p)
