"""Strong exceptional collections and two-term resolutions with exact exponents.

A sheaf admitting a resolution

    0 -> (+) A_i^{a_i}  (i <= j)  ->  (+) A_i^{a_i}  (j < i <= m)  -> E -> 0

by the first m members of a strong exceptional collection (A_1..A_m, O) has
no cohomology, and the exponents are pinned down by Euler pairings against
the collection.  The closed forms below specialize this to the built-in
collections on Hirzebruch surfaces, blowups of the plane and blowups of
Hirzebruch surfaces; `solve_exponents` recomputes the same integers from the
pairing recurrences, giving an independent derivation.

Every report a closed form returns has passed one verification,
``verify_report``: the exponents are nonnegative and the alternating sum of
the exponent-weighted bundle characters equals the target, compared on the
integers (r, c1, 2 ch2).  It raises ``VerificationError``, not an
``assert``, so it survives ``python -O``, and the verdicts of ``decide``
and the ``rbn resolve`` command both get it from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .chern import (
    CharacterError,
    ChernCharacter,
    chi_integer,
    euler_pairing,
    hirzebruch_core,
    line_bundle_character,
)
from .cohomology import certified_cohomology, h2_is_zero
from .lattice import (
    DivisorClass,
    SurfaceModel,
    basis_divisor,
    divisor_expr,
    form,
    zero_divisor,
)


class ResolutionError(ValueError):
    """Raised when resolution hypotheses fail; the message names the culprit."""


class InfeasibleResolutionError(ResolutionError):
    """A required exponent came out negative, so no such resolution exists."""


class VerificationError(Exception):
    """An emitted witness failed re-verification; not a ValueError, so never Unknown."""


@dataclass(frozen=True)
class ExceptionalCollection:
    """An ordered list of line bundles ending in O, with a left/right split.

    ``bundles[:split_index]`` sit in the kernel of a two-term resolution and
    the rest of ``bundles[:-1]`` in the middle; the trailing structure sheaf
    never appears in resolutions.
    """

    surface: SurfaceModel
    bundles: tuple[DivisorClass, ...]
    split_index: int = 1

    def __post_init__(self):
        if not self.bundles or not self.bundles[-1].is_zero:
            raise ResolutionError("collections must end with the structure sheaf O")
        if not 0 <= self.split_index <= len(self.bundles) - 1:
            raise ResolutionError("split index out of range")

    @property
    def resolving(self) -> tuple[DivisorClass, ...]:
        return self.bundles[:-1]

    def with_split(self, j: int) -> "ExceptionalCollection":
        if j == self.split_index:  # keeps the cached stock collection and its characters
            return self
        return ExceptionalCollection(self.surface, self.bundles, j)

    # read by every bookkeeping check; on the cached stock collections this
    # is worth about 7% of hirz_verdicts queries/s (6 of 6 alternated runs)
    @cached_property
    def _characters(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(c1 coordinates, 2 ch2 = A^2) of each resolving bundle O(A)."""
        s = self.surface
        return tuple((A.coords, form(s, A.coords, A.coords)) for A in self.resolving)


# bounded above the models in use at once: blowup_queries touches 21 (15
# blowups of the plane, 6 of Hirzebruch surfaces), hirz_verdicts 4
@lru_cache(maxsize=32)
def builtin_collection(surface: SurfaceModel) -> ExceptionalCollection:
    """The stock strong exceptional collection of the surface family.

    F_e:      O(-E-(e+1)F), O(-E-eF), O(-F), O
    Bl_k P2:  O(-2L), O(-L), O(-E_1), ..., O(-E_k), O
    Bl_k F_e: O(-E-(e+1)F), O(-E-eF), O(-F), O(-E_1), ..., O(-E_k), O
    """
    if surface.is_hirzebruch:
        E, F = basis_divisor(surface, "E"), basis_divisor(surface, "F")
        bundles = (-E - (surface.e + 1) * F, -E - surface.e * F, -F, zero_divisor(surface))
        return ExceptionalCollection(surface, bundles, 1)
    if surface.is_blowup_p2_like:
        L = basis_divisor(surface, "L")
        exc = tuple(-basis_divisor(surface, f"E{i}") for i in range(1, surface.k + 1))
        return ExceptionalCollection(surface, (-2 * L, -L) + exc + (zero_divisor(surface),), 1)
    if surface.is_blowup_hirzebruch:
        E, F = basis_divisor(surface, "E"), basis_divisor(surface, "F")
        exc = tuple(-basis_divisor(surface, f"E{i}") for i in range(1, surface.k + 1))
        bundles = (-E - (surface.e + 1) * F, -E - surface.e * F, -F) + exc
        return ExceptionalCollection(surface, bundles + (zero_divisor(surface),), 1)
    raise ResolutionError(f"no built-in collection on {surface}")


# ---------------------------------------------------------------------------
# Verification and Hom dimensions through the certified cohomology
# ---------------------------------------------------------------------------


def verify_strong_exceptional(coll: ExceptionalCollection):
    """Check Ext^*(A_t, A_s) = 0 for s < t and Ext^{>0}(A_s, A_t) = 0.

    Only certified cohomology counts.  Returns (True, None) or
    (False, (s, t, reason)) for the first failing ordered pair, with 0-based
    indices into the collection.
    """
    bundles = coll.bundles
    for s in range(len(bundles)):
        for t in range(s + 1, len(bundles)):
            vec, _ = certified_cohomology(bundles[s] - bundles[t])
            if vec is None or vec.as_tuple() != (0, 0, 0):
                return False, (s, t, f"Ext^*({divisor_expr(bundles[t])}, {divisor_expr(bundles[s])}) != 0: {vec or 'not certified'}")
            vec, _ = certified_cohomology(bundles[t] - bundles[s])
            if vec is None or not vec.higher_vanishes:
                return False, (s, t, f"Ext^{{>0}}({divisor_expr(bundles[s])}, {divisor_expr(bundles[t])}) != 0: {vec or 'not certified'}")
    return True, None


def hom_dimension(A: DivisorClass, B: DivisorClass) -> int:
    """dim Hom(O(A), O(B)) = h0(B - A), from the certified cohomology.

    Differences between members of the built-in collections are always
    certified; anything else raises rather than consulting the
    probabilistic oracle.
    """
    D = B - A
    vec, _ = certified_cohomology(D)
    if vec is None:
        raise ResolutionError(f"hom dimension of {D} is not rule-decidable")
    return vec.h0


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolutionReport:
    """Exponents of a two-term resolution, or a direct-sum degenerate case.

    ``exponents[i]`` counts ``collection.resolving[i]``; entries left of the
    split sit in the kernel.  ``direct_sum`` replaces the resolution by
    O(D)^r when set (the sheaf itself splits).  ``feasible`` is False when
    some exponent is negative, meaning no such resolution exists.
    """

    collection: ExceptionalCollection
    exponents: tuple[int, ...]
    target: ChernCharacter
    form: str = "generic"
    direct_sum: tuple[DivisorClass, int] | None = None

    @property
    def feasible(self) -> bool:
        return all(a >= 0 for a in self.exponents)

    def left(self) -> tuple[tuple[DivisorClass, int], ...]:
        j = self.collection.split_index
        return tuple(zip(self.collection.resolving[:j], self.exponents[:j]))

    def right(self) -> tuple[tuple[DivisorClass, int], ...]:
        j = self.collection.split_index
        return tuple(zip(self.collection.resolving[j:], self.exponents[j:]))

    def _cokernel(self) -> tuple[int, tuple[int, ...], int]:
        """(r, c1 coordinates, 2 ch2) of the alternating sum, on integers."""
        s = self.collection.surface
        if self.direct_sum is not None:
            D, mult = self.direct_sum
            return mult, tuple(mult * a for a in D.coords), mult * form(s, D.coords, D.coords)
        r, c1, twice = 0, (0,) * s.rank, 0
        j = self.collection.split_index
        terms = zip(self.collection._characters, self.exponents)
        for i, ((coords, square), count) in enumerate(terms):
            if i < j:  # kernel side
                count = -count
            r += count
            c1 = tuple(a + count * b for a, b in zip(c1, coords))
            twice += count * square
        return r, c1, twice

    def cokernel_character(self) -> ChernCharacter:
        """Alternating sum of the exponent-weighted bundle characters."""
        r, c1, twice = self._cokernel()
        return ChernCharacter.from_twice_ch2(r, DivisorClass(self.collection.surface, c1), twice)

    def bookkeeping_ok(self) -> bool:
        """The cokernel character equals the target, compared on integers."""
        v = self.target
        if v.surface != self.collection.surface:
            return False
        return self._cokernel() == (v.r, v.c1.coords, v.twice_ch2)

    def to_json_dict(self) -> dict:
        out: dict = {"collection": [divisor_expr(b) for b in self.collection.bundles]}
        if self.direct_sum is not None:
            D, mult = self.direct_sum
            out["direct_sum"] = {divisor_expr(D): mult}
        else:
            out["left"] = {divisor_expr(b): a for b, a in self.left() if a}
            out["right"] = {divisor_expr(b): a for b, a in self.right() if a}
        out["form"] = self.form
        v = self.target
        out["cokernel"] = {"r": v.r, "c1": divisor_expr(v.c1), "chi": chi_integer(v)}
        return out


# ---------------------------------------------------------------------------
# The exponent solver and the closed forms
# ---------------------------------------------------------------------------


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


def verify_report(report: ResolutionReport) -> ResolutionReport:
    """The one check of an emitted report: nonnegative exponents and integer
    bookkeeping.  Raises ``VerificationError``, so ``python -O`` keeps it."""
    if not (report.feasible and report.bookkeeping_ok()):
        raise VerificationError(f"emitted resolution failed verification for {report.target}")
    return report


def hirzebruch_resolution(v: ChernCharacter) -> ResolutionReport:
    """Closed-form resolution on F_e for a normalized character with chi = 0.

    Exponents: a = l - ke + k + r on O(-E-(e+1)F), b = -chi(E(-E)) on
    O(-E-eF), c = k + r on O(-F), read off ``hirzebruch_core``.  The rank-r
    twist of O(-1,-1) on F_0 (k = l = -r) is returned as a direct sum
    instead.  Negative b means the section-obstruction regime; negative a
    only happens for e <= 1 pockets where no semistable sheaf exists, and
    both raise.
    """
    s = v.surface
    if not s.is_hirzebruch:
        raise ResolutionError("hirzebruch_resolution expects a Hirzebruch model")
    if v.r < 2:
        raise ResolutionError("rank must be at least 2")
    if chi_integer(v) != 0:
        raise ResolutionError("resolutions are computed for characters with chi = 0")
    r = v.r
    k, ell = v.c1.coords
    dualized, _, _, _, _, (a, b, c) = hirzebruch_core(s.e, r, k, ell, v.twice_ch2)
    if dualized:
        raise ResolutionError("character must be normalized (k/r >= -1) first")
    if s.e == 0 and k == -r and ell == -r:
        minus_e_f = DivisorClass(s, (-1, -1))
        report = ResolutionReport(
            builtin_collection(s), (0, 0, 0), v, form="direct-sum", direct_sum=(minus_e_f, r)
        )
        return verify_report(report)
    if b < 0:
        raise ResolutionError(f"chi(E(-E)) = {-b} > 0: sections obstruct the resolution")
    if a < 0 or c < 0:
        raise InfeasibleResolutionError(
            f"exponents (a, b, c) = ({a}, {b}, {c}) include a negative entry; "
            "no semistable sheaf has this character"
        )
    return verify_report(ResolutionReport(builtin_collection(s), (a, b, c), v))


def blowup_resolution(v: ChernCharacter) -> ResolutionReport:
    """Closed-form resolution on a blowup of the plane.

    Requires chi = 0, rank >= 2, slope delta L - sum alpha_i E_i with
    delta >= 0, alpha_i >= 0 and delta - sum alpha_i >= -1.  Exponents are
    a = r (delta - sum alpha_i + 1), c_i = r alpha_i and
    b = | r + a - sum c_i |; O(-L) moves to the kernel side exactly when
    delta - 2 sum alpha_i + 2 is negative.

    With c1 = l L - sum m_i E_i, so delta = l/r and alpha_i = m_i/r, the
    hypotheses are l >= 0, m_i >= 0 and l - sum m_i >= -r, and the
    exponents are a = l - sum m_i + r and c_i = m_i.  Messages print the
    slope values.
    """
    s = v.surface
    if not s.is_blowup_p2_like:
        raise ResolutionError("blowup_resolution expects a blowup of the plane")
    if v.r < 2:
        raise ResolutionError("rank must be at least 2")
    if chi_integer(v) != 0:
        raise ResolutionError("resolutions are computed for characters with chi = 0")
    r = v.r
    ell = v.c1.coords[0]
    ms = [-c for c in v.c1.coords[1:]]
    if ell < 0:
        raise ResolutionError(f"hypothesis delta >= 0 fails: delta = {Fraction(ell, r)}")
    for i, m in enumerate(ms, start=1):
        if m < 0:
            raise ResolutionError(f"hypothesis alpha_{i} >= 0 fails: alpha_{i} = {Fraction(m, r)}")
    total = sum(ms)
    if ell - total < -r:
        raise ResolutionError(f"hypothesis delta - sum alpha_i >= -1 fails: {Fraction(ell - total, r)}")
    a = ell - total + r
    b_signed = r + a - total  # equals r (delta - 2 sum alpha_i + 2)
    kind = "eqfirst" if b_signed >= 0 else "eqsecond"
    coll = builtin_collection(s).with_split(1 if b_signed >= 0 else 2)
    return verify_report(ResolutionReport(coll, (a, abs(b_signed), *ms), v, form=kind))


def blowup_hirzebruch_resolution(v: ChernCharacter) -> ResolutionReport:
    """Closed-form resolution on a blowup of a Hirzebruch surface.

    For slope alpha E + beta F - sum alpha_i E_i the hypotheses are
    alpha_i >= 0, alpha - sum alpha_i >= -1 and
    beta - sum alpha_i + 1 >= max((e-1) alpha, e alpha); the exponents are
    a = r (beta - (e-1) alpha - sum alpha_i + 1) on O(-E-(e+1)F),
    b = r (beta - e alpha - sum alpha_i + 1) on O(-E-eF),
    c = r (alpha - sum alpha_i + 1) on O(-F) and d_i = r alpha_i on O(-E_i).

    With c1 = A E + B F - sum d_i E_i, so alpha = A/r, beta = B/r and
    alpha_i = d_i/r, the hypotheses are d_i >= 0, A - sum d_i >= -r and
    B - sum d_i + r >= max((e-1) A, e A), and the exponents are
    a = B - (e-1) A - sum d_i + r, b = B - e A - sum d_i + r,
    c = A - sum d_i + r and d_i.  Messages print the slope values.
    """
    s = v.surface
    if not s.is_blowup_hirzebruch:
        raise ResolutionError("blowup_hirzebruch_resolution expects a blowup of a Hirzebruch surface")
    if v.r < 2:
        raise ResolutionError("rank must be at least 2")
    if chi_integer(v) != 0:
        raise ResolutionError("resolutions are computed for characters with chi = 0")
    e, r = s.e, v.r
    A, B = v.c1.coords[:2]
    ds = [-c for c in v.c1.coords[2:]]
    for i, d in enumerate(ds, start=1):
        if d < 0:
            raise ResolutionError(f"hypothesis alpha_{i} >= 0 fails: alpha_{i} = {Fraction(d, r)}")
    total = sum(ds)
    if A - total < -r:
        raise ResolutionError(
            f"hypothesis alpha - sum alpha_i >= -1 fails: {Fraction(A - total, r)}"
        )
    bound = max((e - 1) * A, e * A)
    if B - total + r < bound:
        raise ResolutionError(
            f"hypothesis beta - sum alpha_i + 1 >= max((e-1)alpha, e alpha) fails: "
            f"{Fraction(B - total + r, r)} < {Fraction(bound, r)}"
        )
    a = B - (e - 1) * A - total + r
    b = B - e * A - total + r
    c = A - total + r
    return verify_report(ResolutionReport(builtin_collection(s), (a, b, c, *ds), v))


def prioritary_hypotheses_check(coll: ExceptionalCollection, F: DivisorClass) -> bool:
    """Cohomological criterion for cokernels of the split collection to be
    F-prioritary: Ext^1(A_i, A_s(-F)) = 0 for i left and s right, and
    Ext^2(A_i, A_s(-F)) = 0 for i, s right (the structure sheaf counts as a
    right member)."""
    j = coll.split_index
    left = coll.bundles[:j]
    right = coll.bundles[j:]
    for A in left:
        for B in right:
            vec, _ = certified_cohomology(B - A - F)
            if vec is None or vec.h1:
                return False
    for A in right:
        for B in right:
            if not h2_is_zero(B - A - F):
                return False
    return True
