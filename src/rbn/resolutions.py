"""Strong exceptional collections and two-term resolutions with exact exponents.

A sheaf admitting a resolution

    0 -> (+) A_i^{a_i}  (i <= j)  ->  (+) A_i^{a_i}  (j < i <= m)  -> E -> 0

by the first m members of a strong exceptional collection (A_1..A_m, O) has
no cohomology, and the exponents are pinned down by Euler pairings against
the collection.  ``two_term_resolution``, the one way to the closed forms,
specializes this to the built-in collection of the surface (Hirzebruch
surfaces, blowups of the plane and of Hirzebruch surfaces).  The tests
recompute the same integers from the pairing recurrences, an independent
derivation.

Every report a closed form returns has passed one verification,
``verify_report``: the exponents are nonnegative and the alternating sum of
the exponent-weighted bundle characters equals the target, compared on the
integers (r, c1, 2 ch2).  Each collection caches that sum as a signed
integer table, one column per integer with the kernel side negated, so the
check is one dot product of the exponents with each column.  A direct
sum is the report at split 0, where the kernel is empty (O(-E-F)^r on
F_0), so it is checked by the same table.  It raises
``VerificationError``, not an ``assert``, so it survives ``python -O``, and
the verdicts of ``decide`` and the ``rbn resolve`` command both get it from
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from .chern import ChernCharacter, chi_integer, hirzebruch_core
from .cohomology import certified_cohomology, h2_is_zero
from .lattice import (
    DivisorClass,
    SurfaceModel,
    basis_divisor,
    divisor_expr,
    form,
    wrap_coords,
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
    never appears in resolutions.  Every bundle lies on one surface, the
    collection's.
    """

    bundles: tuple[DivisorClass, ...]
    split_index: int = 1

    def __post_init__(self):
        if not self.bundles or not self.bundles[-1].is_zero:
            raise ResolutionError("collections must end with the structure sheaf O")
        s = self.surface
        for A in self.bundles:
            if A.surface is not s:
                raise ResolutionError(f"bundles live on different surfaces: {A.surface} vs {s}")
        if not 0 <= self.split_index <= len(self.bundles) - 1:
            raise ResolutionError("split index out of range")

    @property
    def surface(self) -> SurfaceModel:
        return self.bundles[-1].surface

    @property
    def resolving(self) -> tuple[DivisorClass, ...]:
        return self.bundles[:-1]

    def with_split(self, j: int) -> "ExceptionalCollection":
        if j == self.split_index:  # keeps the cached stock collection and its table
            return self
        return ExceptionalCollection(self.bundles, j)

    # read by every bookkeeping check, so the stock collections (cached per
    # surface) build it once
    @cached_property
    def _table(self) -> tuple[tuple[int, ...], ...]:
        """Signed columns of the resolving bundles O(A): the side sign (-1
        left of the split), each c1 coordinate and 2 ch2 = A^2, each times
        the sign.  Dotted with the exponents they give (r, c1, 2 ch2) of
        the cokernel."""
        s, j = self.surface, self.split_index
        rows = []
        for i, A in enumerate(self.resolving):
            sign = -1 if i < j else 1
            rows.append((sign, *(sign * a for a in A.coords), sign * form(s, A.coords, A.coords)))
        return tuple(zip(*rows))


# bounded above the models in use at once: blowup_queries touches 21 (15
# blowups of the plane, 6 of Hirzebruch surfaces), hirz_verdicts 4
@lru_cache(maxsize=32)
def builtin_collection(surface: SurfaceModel) -> ExceptionalCollection:
    """The stock strong exceptional collection of the surface family.

    F_e:      O(-E-(e+1)F), O(-E-eF), O(-F), O
    Bl_k P2:  O(-2L), O(-L), O(-E_1), ..., O(-E_k), O
    Bl_k F_e: O(-E-(e+1)F), O(-E-eF), O(-F), O(-E_1), ..., O(-E_k), O
    """
    exc = tuple(-basis_divisor(surface, f"E{i}") for i in range(1, surface.k + 1))
    if surface.is_blowup_p2_like:
        L = basis_divisor(surface, "L")
        head = (-2 * L, -L)
    else:  # F_e is its own blowup at k = 0 points
        E, F = basis_divisor(surface, "E"), basis_divisor(surface, "F")
        head = (-E - (surface.e + 1) * F, -E - surface.e * F, -F)
    return ExceptionalCollection(head + exc + (zero_divisor(surface),), 1)


# ---------------------------------------------------------------------------
# Verification through the certified cohomology
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
            vec = certified_cohomology(bundles[s] - bundles[t]).vector
            if vec is None or vec.as_tuple() != (0, 0, 0):
                return False, (s, t, f"Ext^*({divisor_expr(bundles[t])}, {divisor_expr(bundles[s])}) != 0: {vec or 'not certified'}")
            vec = certified_cohomology(bundles[t] - bundles[s]).vector
            if vec is None or not vec.higher_vanishes:
                return False, (s, t, f"Ext^{{>0}}({divisor_expr(bundles[s])}, {divisor_expr(bundles[t])}) != 0: {vec or 'not certified'}")
    return True, None


@dataclass(frozen=True)
class ResolutionReport:
    """Exponents of a two-term resolution.

    ``exponents[i]`` counts ``collection.resolving[i]``; entries left of the
    split sit in the kernel.  At split 0 the kernel is empty and the sheaf
    is the direct sum of the right-hand terms (O(-E-F)^r on F_0).
    ``feasible`` is False when some exponent is negative, meaning no such
    resolution exists.
    """

    collection: ExceptionalCollection
    exponents: tuple[int, ...]
    target: ChernCharacter

    @property
    def form(self) -> str:
        """The closed form's label, read off the split and the surface family."""
        j = self.collection.split_index
        if j == 0:
            return "direct-sum"
        if self.collection.surface.is_blowup_p2_like:
            if j == 1:
                return "eqfirst"
            if j == 2:
                return "eqsecond"
        return "generic"

    @property
    def feasible(self) -> bool:
        return min(self.exponents, default=0) >= 0

    def left(self) -> tuple[tuple[DivisorClass, int], ...]:
        j = self.collection.split_index
        return tuple(zip(self.collection.resolving[:j], self.exponents[:j]))

    def right(self) -> tuple[tuple[DivisorClass, int], ...]:
        j = self.collection.split_index
        return tuple(zip(self.collection.resolving[j:], self.exponents[j:]))

    def _cokernel(self) -> list[int]:
        """[r, c1 coordinates..., 2 ch2] of the alternating sum, on integers."""
        exponents = self.exponents
        return [sum(map(mul, exponents, column)) for column in self.collection._table]

    def bookkeeping_ok(self) -> bool:
        """One exponent per resolving bundle, and the cokernel character
        equals the target, compared on integers."""
        v, bundles = self.target, self.collection.bundles
        if v.surface is not bundles[-1].surface or len(self.exponents) != len(bundles) - 1:
            return False
        return self._cokernel() == [v.r, *v.c1.coords, v.twice_ch2]

    def to_json_dict(self) -> dict:
        out: dict = {"collection": [divisor_expr(b) for b in self.collection.bundles]}
        if self.collection.split_index == 0:
            out["direct_sum"] = {divisor_expr(b): a for b, a in self.right() if a}
        else:
            out["left"] = {divisor_expr(b): a for b, a in self.left() if a}
            out["right"] = {divisor_expr(b): a for b, a in self.right() if a}
        out["form"] = self.form
        v = self.target
        out["cokernel"] = {"r": v.r, "c1": divisor_expr(v.c1), "chi": chi_integer(v)}
        return out


# ---------------------------------------------------------------------------
# The closed forms
# ---------------------------------------------------------------------------


def verify_report(report: ResolutionReport) -> ResolutionReport:
    """The one check of an emitted report: nonnegative exponents, one per
    resolving bundle, and integer bookkeeping.  Raises
    ``VerificationError``, so ``python -O`` keeps it."""
    if not (report.feasible and report.bookkeeping_ok()):
        raise VerificationError(f"emitted resolution failed verification for {report.target}")
    return report


def two_term_resolution(v: ChernCharacter) -> ResolutionReport:
    """The closed-form resolution of v, picked by its surface, once rank >= 2
    and chi = 0 are checked; on F_e its target is v or its Serre dual,
    whichever is normalized.  ``ResolutionError`` names a failed hypothesis."""
    if v.r < 2:
        raise ResolutionError("rank must be at least 2")
    if chi_integer(v) != 0:
        raise ResolutionError("resolutions are computed for characters with chi = 0")
    s = v.surface
    if s.is_hirzebruch:
        return _hirzebruch_resolution(v)
    if s.is_blowup_p2_like:
        return _blowup_resolution(v)
    return _blowup_hirzebruch_resolution(v)


def _hirzebruch_resolution(v: ChernCharacter) -> ResolutionReport:
    """Closed form on F_e, for v or its Serre dual, whichever is normalized.

    Exponents: a = l - ke + k + r on O(-E-(e+1)F), b = -chi(E(-E)) on
    O(-E-eF), c = k + r on O(-F), read off ``hirzebruch_core`` together
    with the normalization.  The rank-r twist of O(-1,-1) on F_0
    (k = l = -r) is the direct sum O(-E-F)^r: the report at split 0 with
    exponents (r, 0, 0), whose kernel is empty.  Negative b means the
    section-obstruction regime; negative a only happens for e <= 1 pockets
    where no semistable sheaf exists, and both raise.
    """
    s, r = v.surface, v.r
    dualized, k, ell, t, _, (a, b, c) = hirzebruch_core(s.e, r, *v.c1.coords, v.twice_ch2)
    if dualized:  # the core's ints, wrapped unchecked (see ``lattice``)
        v = ChernCharacter(r, wrap_coords(s, (k, ell)), twice_ch2=t)
    if s.e == 0 and k == -r and ell == -r:  # everything on the right: O(-E-F)^r
        return verify_report(ResolutionReport(builtin_collection(s).with_split(0), (r, 0, 0), v))
    if b < 0:
        raise ResolutionError(f"chi(E(-E)) = {-b} > 0: sections obstruct the resolution")
    if a < 0 or c < 0:
        raise InfeasibleResolutionError(
            f"exponents (a, b, c) = ({a}, {b}, {c}) include a negative entry; "
            "no semistable sheaf has this character"
        )
    return verify_report(ResolutionReport(builtin_collection(s), (a, b, c), v))


def _blowup_resolution(v: ChernCharacter) -> ResolutionReport:
    """Closed form on a blowup of the plane.

    Requires slope delta L - sum alpha_i E_i with delta >= 0, alpha_i >= 0
    and delta - sum alpha_i >= -1.  Exponents are
    a = r (delta - sum alpha_i + 1), c_i = r alpha_i and
    b = | r + a - sum c_i |; O(-L) moves to the kernel side exactly when
    delta - 2 sum alpha_i + 2 is negative.

    With c1 = l L - sum m_i E_i, so delta = l/r and alpha_i = m_i/r, the
    hypotheses are l >= 0, m_i >= 0 and l - sum m_i >= -r, and the
    exponents are a = l - sum m_i + r and c_i = m_i.  Messages print the
    slope values.
    """
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
    coll = builtin_collection(v.surface).with_split(1 if b_signed >= 0 else 2)
    return verify_report(ResolutionReport(coll, (a, abs(b_signed), *ms), v))


def _blowup_hirzebruch_resolution(v: ChernCharacter) -> ResolutionReport:
    """Closed form on a blowup of a Hirzebruch surface.

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
            vec = certified_cohomology(B - A - F).vector
            if vec is None or vec.h1:
                return False
    for A in right:
        for B in right:
            if not h2_is_zero(B - A - F):
                return False
    return True
