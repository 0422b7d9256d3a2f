"""Dense rank computation over a prime field F_p.

The interpolation oracle reduces to the rank of small dense integer matrices
mod p.  The one elimination core, ``modp_stream_rank``, takes the vectors of
a matrix (its rows or its columns: rank is the same) as any iterable of
equal-length sequences of Python ints, together with their length n, and
stops pulling vectors once the rank equals n, since no further vector can
raise it; so a caller that builds its vectors lazily builds none past that
point.  Each vector is packed into one Python int, entry j in the W-bit
slot j (Kronecker substitution), so reducing it by a pivot is one big-int
multiply-add.  Python ints do not overflow, so any prime p works.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def modp_stream_rank(vectors: Iterable[Sequence[int]], n: int, p: int) -> int:
    """Rank over F_p of vectors of length n, pulled one at a time until it is n.

    W is the bit length of (n + 1) p^2.  Pivots are kept normalized: leading
    entry 1, every entry below p.  A vector's slots start below p; reducing
    its leading slot f to 0 mod p adds (p - f) times a pivot, at most
    (p - 1)^2 to each slot, once per column at most, so every slot stays
    below (n + 1) p^2 < 2^W and never carries into the next.  Slots are read
    mod p and shifted off once read.
    """
    if p < 2:
        raise ValueError(f"modulus {p} is below 2")
    if n == 0:
        return 0
    w = ((n + 1) * p * p).bit_length()
    mask = (1 << w) - 1
    pivots: dict[int, int] = {}  # leading column -> the packed vector from there on
    for vec in vectors:
        x = 0
        for v in reversed(vec):
            x = x << w | v % p
        col = 0
        while x:
            f = (x & mask) % p
            if f:
                pivot = pivots.get(col)
                if pivot is None:
                    inv, pivot = pow(f, -1, p), 0
                    for j in reversed(range(n - col)):
                        pivot = pivot << w | (x >> j * w & mask) * inv % p
                    pivots[col] = pivot
                    if len(pivots) == n:
                        return n
                    break
                x += (p - f) * pivot
            x >>= w
            col += 1
    return len(pivots)

