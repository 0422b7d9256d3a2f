"""Independent references that only the tests read.

Each recomputes a value the library derives another way, so a test can set
the two side by side: line-bundle cohomology on F_e through the ruling and
on k <= 8 general points through Weyl reflections of the class as given, the
Euler characteristic through the lattice pairing with K, the Serre dual of
a character, the exponents of a two-term resolution from the
pairing recurrences of its collection, and the character of a resolution
from its printed terms.
"""

from __future__ import annotations

from fractions import Fraction

from rbn.chern import CharacterError, ChernCharacter, chi_integer, euler_pairing, line_bundle_character
from rbn.cohomology import CohomologyVector, certified_cohomology
from rbn.lattice import (
    DivisorClass,
    LatticeError,
    blowup_p2,
    canonical,
    chi_line_bundle,
    cremona_root,
    divisor_expr,
    intersect,
    reflect,
    zero_divisor,
)
from rbn.resolutions import ExceptionalCollection, ResolutionError, ResolutionReport


def hirzebruch_pushforward_oracle(D: DivisorClass) -> CohomologyVector:
    """Independent exact computation through the ruling.

    For a >= 0 the pushforward to the base splits as the sum of line bundles
    of degrees b - je for j = 0..a, so h0 and h1 are sums of the usual
    genus-zero dimensions; a = -1 has no cohomology and a <= -2 dualizes.
    """
    if not D.surface.is_hirzebruch:
        raise LatticeError("hirzebruch_pushforward_oracle expects a Hirzebruch model")
    e = D.surface.e
    a, b = D.coords

    def _nonneg_case(a: int, b: int) -> tuple[int, int, int]:
        h0 = sum(max(0, b - j * e + 1) for j in range(a + 1))
        h1 = sum(max(0, j * e - b - 1) for j in range(a + 1))
        return (h0, h1, 0)

    if a >= 0:
        return CohomologyVector(*_nonneg_case(a, b))
    if a == -1:
        return CohomologyVector(0, 0, 0)
    h0, h1, h2 = _nonneg_case(-2 - a, -(e + 2) - b)
    return CohomologyVector(h2, h1, h0)


def cremona_vector_reference(D: DivisorClass) -> CohomologyVector:
    """(h0, h1, h2) of O(D) on the plane blown up at k <= 8 general points,
    reduced on the coordinates as given, never sorted.

    h0: the class is padded with points of multiplicity 0 to k >= 3 (a
    general point it does not pass through changes no section).  While
    some E_i is met negatively it is a fixed component and is subtracted;
    while the three heaviest points (by index) have multiplicities summing
    to more than d, the class is reflected in the root L - E_a - E_b - E_c
    at them, a quadratic transformation, which lowers d.  A class in
    standard form is nef, so its h0 is chi (``chi_line_bundle``), and d < 0
    has none.  h2 is h0(K - D) by Serre duality, and h1 closes chi.
    """
    S = D.surface
    if not (S.is_blowup_p2_like and S.config.kind == "general" and S.k <= 8):
        raise LatticeError(f"cremona_vector_reference expects k <= 8 general points, not {S}")
    padded = blowup_p2(max(S.k, 3))

    def h0(coords):
        coords = coords + (0,) * (padded.rank - len(coords))
        while coords[0] >= 0:
            coords = (coords[0],) + tuple(min(c, 0) for c in coords[1:])
            heaviest = sorted(range(1, padded.rank), key=lambda i: (coords[i], i))[:3]
            root = cremona_root(padded, *heaviest).coords
            if intersect(DivisorClass(padded, coords), DivisorClass(padded, root)) >= 0:
                return max(0, chi_line_bundle(DivisorClass(padded, coords)))
            coords = reflect(padded, coords, root)
        return 0

    top, bottom = h0(D.coords), h0((canonical(S) - D).coords)
    return CohomologyVector(top, top + bottom - chi_line_bundle(D), bottom)


def chi_reference(v: ChernCharacter) -> Fraction:
    """chi(v) = r - c1.K/2 + ch2, with c1.K from ``intersect`` on the lattice."""
    return v.r - Fraction(intersect(v.c1, canonical(v.surface)), 2) + v.ch2


def serre_dual_character(v: ChernCharacter) -> ChernCharacter:
    """Character of E^dual tensor K; an involution with the same chi."""
    K = canonical(v.surface)
    twice = v.twice_ch2 - 2 * intersect(v.c1, K) + v.r * intersect(K, K)
    return ChernCharacter(v.r, -v.c1 + v.r * K, twice_ch2=twice)


def hom_dimension(A: DivisorClass, B: DivisorClass) -> int:
    """dim Hom(O(A), O(B)) = h0(B - A), from the certified cohomology.

    Differences between members of the built-in collections are always
    certified; anything else raises rather than consulting the
    probabilistic oracle.
    """
    D = B - A
    vec = certified_cohomology(D).vector
    if vec is None:
        raise ResolutionError(f"hom dimension of {D} is not rule-decidable")
    return vec.h0


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise CharacterError(f"{what} is not integral: {x}")
    return int(x)


def solve_exponents(v: ChernCharacter, coll: ExceptionalCollection) -> ResolutionReport:
    """Exponents from the pairing recurrences of a split collection.

    Left factors satisfy a_s = -chi(v, A_s) - sum_{i<s} a_i hom(A_i, A_s),
    right factors a_t = chi(A_t, v) - sum_{i>t} a_i hom(A_t, A_i), computed
    top-down.  Negative values are reported as infeasible, never clamped.
    """
    if chi_integer(v) != 0:
        raise CharacterError("resolutions are computed for characters with chi = 0")
    bundles = coll.resolving
    j = coll.split_index
    m = len(bundles)
    exps: list[int | None] = [None] * m
    for s in range(j):
        val = -euler_pairing(v, line_bundle_character(bundles[s]))
        for i in range(s):
            val -= exps[i] * hom_dimension(bundles[i], bundles[s])
        exps[s] = _as_int(val, f"exponent of {divisor_expr(bundles[s])}")
    for t in range(m - 1, j - 1, -1):
        val = euler_pairing(line_bundle_character(bundles[t]), v)
        for i in range(t + 1, m):
            val -= exps[i] * hom_dimension(bundles[t], bundles[i])
        exps[t] = _as_int(val, f"exponent of {divisor_expr(bundles[t])}")
    return ResolutionReport(coll, tuple(exps), v)


def cokernel_character(report: ResolutionReport) -> ChernCharacter:
    """Alternating sum of the exponent-weighted bundle characters, read off
    the report's left and right terms, not its integer bookkeeping."""
    terms = [(A, -a) for A, a in report.left()] + list(report.right())
    c1 = sum((count * A for A, count in terms), zero_divisor(report.collection.surface))
    twice = sum(count * intersect(A, A) for A, count in terms)
    return ChernCharacter(sum(count for _, count in terms), c1, twice_ch2=twice)
