"""Line-bundle cohomology: exact dimensions, vanishing rules and oracles.

Four routes, by strength of the statement:

* Hirzebruch surfaces get exact ``(h0, h1, h2)`` in closed form from the
  base locus; the tests check it against the direct image on the base,
  which splits into line bundles of degrees ``b - je``.
* Blowups of the plane at k <= 8 general points (the ``dp<d>``
  spellings included) get exact ``(h0, h1, h2)`` by Cremona reduction: fixed
  exceptional components are removed and quadratic transformations lower
  the degree until the class is in standard form, where h0 = chi.
* Blowups of the plane and of Hirzebruch surfaces get *sound but
  incomplete* vanishing verdicts from closure rules: starting from a stock
  of classes with no cohomology, adding an exceptional class, a line or a
  fiber under an intersection guard preserves vanishing of higher
  cohomology.  The classes the rules reach have a closed form, and a
  greedy walk back from a class records its derivation; it walks back run
  by run, each run of equal moves read off the closed form at once.  On
  k <= 8 general points ``vanishing_by_rules`` answers from the Cremona
  vector instead.
* Blowups of the plane additionally get a brute-force numerical oracle:
  ``h0`` is the nullity of the fat-point interpolation matrix over a large
  prime field, ``h2`` comes from Serre duality and ``h1`` from the Euler
  characteristic.  Samples are taken in a projective frame: up to three
  of the heaviest points sit at the coordinate points, where they only
  remove monomial columns, and the other points give the rows.  When every
  sampled point of positive multiplicity lies on the line of a collinear
  configuration, the nullity is counted in closed form instead, layer by
  layer of monomials (Hermite interpolation), so that value does not
  depend on the seed, the trials or the prime.  Otherwise each sample is
  Cremona-reduced before it is eliminated: on collinear points the line
  is removed while D meets it negatively, and then quadratic
  transformations at triples of sampled points whose multiplicities sum
  above the degree lower the class.  Each step is an isomorphism of the
  surface blown up at that very sample, and each clamp or line removal
  drops a fixed component, so the reduced class has the same h0 there
  over every F_p: the value is the framed nullity of the sample, from a
  smaller matrix or none.  The matrix is never listed: its columns, one per
  kept monomial in order of total degree, are lists of Python ints built
  one at a time from per-point Hasse tables, and ``_modp``'s elimination
  core pulls them only until the rank equals the row count.  Each
  trial's nullity bounds the generic h0 from above, and the minimum over
  the trials is reported; the trials stop early once one meets a value no
  trial can go below: the nullity floor (columns less rows), or on k <= 8
  general or collinear points a proven lower bound on h0 at every
  configuration (the Cremona h0, or the collinear negative-curve loop).
  So stopping never changes the minimum, and a trial below the bound
  raises, since it would disprove it.

Every route answers with one ``CohomologyAnswer``: the vector where a
route gives it, whether h1 = h2 = 0 (``Vanishing``), the route that
decided and its derivation.  Routes are asked in the order above, and only
this module picks one, through two functions.  ``certified_cohomology``
asks Hirzebruch exact, Cremona exact, then the rules through
``vanishing_by_rules``, and never calls the oracle.
``line_bundle_cohomology`` adds the oracle on blowups of the plane where
no vector is certified.  ``higher_cohomology_vanishes`` is the view the
good-sum checks read: it skips the oracle once the rules show higher
cohomology (chi < 0, or K - D effective).  Each call runs the rule engine
at most once.
"""

from __future__ import annotations

import enum
import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from ._modp import modp_stream_rank
from .lattice import (
    DivisorClass,
    LatticeError,
    SurfaceModel,
    canonical,
    chi_line_bundle,
    form,
)

DEFAULT_ORACLE_PRIME = 1000003


class OracleError(ValueError):
    """Raised for unusable oracle moduli or unsupported oracle surfaces."""


@dataclass(frozen=True)
class CohomologyVector:
    h0: int
    h1: int
    h2: int

    @property
    def chi(self) -> int:
        return self.h0 - self.h1 + self.h2

    @property
    def higher_vanishes(self) -> bool:
        return self.h1 == 0 and self.h2 == 0

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)

    def __str__(self) -> str:
        return f"h0={self.h0} h1={self.h1} h2={self.h2}"


class Vanishing(enum.Enum):
    ZERO = "Zero"
    NONZERO = "Nonzero"
    UNKNOWN = "Unknown"

    def __str__(self) -> str:
        return self.value


_ROUTES = ("exact", "rules", "oracle", "undecided")


@dataclass(frozen=True)
class CohomologyAnswer:
    """What is known of the cohomology of O(D), and what decided it.

    ``vector`` is (h0, h1, h2), or None where no route gives it.  ``route``
    is ``"exact"`` (closed form or Cremona reduction), ``"rules"`` (a
    closure derivation, or a cheap certificate of higher cohomology),
    ``"oracle"`` (the interpolation oracle's upper bounds) or
    ``"undecided"``.  ``derivation`` is the rule trail, the Cremona note or
    the reason for a NONZERO, and is empty otherwise.
    """

    vector: CohomologyVector | None
    route: str
    derivation: tuple[str, ...] = ()

    def __post_init__(self):
        if self.route not in _ROUTES:
            raise ValueError(f"unknown cohomology route {self.route!r}")

    @property
    def higher_cohomology(self) -> Vanishing:
        """Whether h1 = h2 = 0: read off the vector where there is one (an
        oracle NONZERO is probable, not proven), NONZERO for a rules
        certificate without one, and UNKNOWN exactly when undecided."""
        if self.vector is not None:
            return Vanishing.ZERO if self.vector.higher_vanishes else Vanishing.NONZERO
        return Vanishing.UNKNOWN if self.route == "undecided" else Vanishing.NONZERO


_UNDECIDED = CohomologyAnswer(None, "undecided")


# ---------------------------------------------------------------------------
# Hirzebruch surfaces: exact cohomology
# ---------------------------------------------------------------------------


def _chi_hirzebruch(e: int, a: int, b: int) -> int:
    return (a + 1) * (b + 1) - e * a * (a + 1) // 2


def _hirz_h0(e: int, a: int, b: int) -> int:
    # a >= 0; the negative section is a base component while b < ae, so
    # h0(aE+bF) = h0(a'E+bF) with a' = min(a, floor(b/e)), where h0 = chi
    if b < 0:
        return 0
    if e > 0:
        a = min(a, b // e)
    return _chi_hirzebruch(e, a, b)


def _hirz_vector(e: int, a: int, b: int) -> tuple[int, int, int]:
    if a <= -2:
        h0, h1, h2 = _hirz_vector(e, -2 - a, -(e + 2) - b)  # Serre duality
        return (h2, h1, h0)
    if a == -1:
        return (0, 0, 0)
    h0 = _hirz_h0(e, a, b)
    h1 = h0 - _chi_hirzebruch(e, a, b)
    if h1 < 0:
        raise RuntimeError(f"h0 of {a}E+{b}F on F_{e} is below chi")
    return (h0, h1, 0)


def hirzebruch_cohomology(D: DivisorClass) -> CohomologyVector:
    """Exact cohomology of O(aE+bF) on F_e.

    Cases: a = -1 kills everything; for a >= 0 there is no h2, and since
    h0(aE+bF) = h0((a-1)E+bF) while b < ae (the negative section is a base
    component), h0 is chi of the class with a lowered to min(a, floor(b/e)),
    or 0 when b < 0; a <= -2 dualizes to a >= 0.
    """
    if not D.surface.is_hirzebruch:
        raise LatticeError("hirzebruch_cohomology expects a Hirzebruch model")
    a, b = D.coords
    return CohomologyVector(*_hirz_vector(D.surface.e, a, b))


# ---------------------------------------------------------------------------
# Blowups of the plane at k <= 8 general points: exact cohomology
# ---------------------------------------------------------------------------


def _chi_plane(d: int, mults) -> int:
    return (d + 1) * (d + 2) // 2 - sum(m * (m + 1) // 2 for m in mults)


def _has_cremona_vector(s: SurfaceModel) -> bool:
    """Blowups of the plane at k <= 8 general points, ``dp<d>`` spellings included."""
    return s.is_blowup_p2_like and s.config.kind == "general" and s.k <= 8


def _cremona_h0(coords) -> int:
    """h0(O(dL + sum c_i E_i)) at k <= 8 general points (Nagata; Harbourne).

    An exceptional curve met negatively (c_i > 0) is a fixed component, so
    its multiplicity -c_i is raised to 0.  With multiplicities sorted and
    padded to three points, the quadratic transformation at the three
    largest carries the class to one with the same h0 on a blowup at other
    general points; while d < m1+m2+m3 it lowers d by the excess, so the
    loop ends within d + 1 steps.  A class in standard form
    (d >= m1+m2+m3, all m_i >= 0) is nef, and a nef class on a del Pezzo
    surface has no higher cohomology (D - K is ample), so h0 = chi there;
    d < 0 leaves no sections.
    """
    d = coords[0]
    mults = [max(0, -c) for c in coords[1:]] + [0, 0, 0]
    while d >= 0:
        mults.sort(reverse=True)
        excess = mults[0] + mults[1] + mults[2] - d
        if excess <= 0:
            return max(0, _chi_plane(d, mults))
        d -= excess
        mults[:3] = [max(0, m - excess) for m in mults[:3]]
    return 0


_CREMONA_NOTE = "exact cohomology by Cremona reduction"


def _orbit_key(coords) -> tuple[int, ...]:
    """The class up to renumbering of the points: the degree, then the
    exceptional coefficients sorted."""
    return (coords[0], *sorted(coords[1:]))


# a pure function of the tuple (k = len - 1) that good-sum checks repeat.
# Callers ask with ``_orbit_key``, so one entry serves every renumbering of
# the points, under which the answer is invariant: ``_cremona_h0`` sorts
# first, K - D permutes with D, and chi is a symmetric sum.  A
# delpezzo_goodsums pass (seed 1, pass 0) hits 2,568 times and misses 421,
# blowup_queries 46 and 302; criterion 5 misses 1,141 times, so every class
# it asks for stays cached
@lru_cache(maxsize=1 << 11)
def _cremona_answer(coords) -> CohomologyAnswer:
    """Exact (h0, h1, h2): h2 is h0(K - D) by Serre duality, h1 closes chi.
    K - D has degree -3 - d, so at d >= -2 it has no sections and is not built."""
    d = coords[0]
    h0 = _cremona_h0(coords)
    h2 = _cremona_h0((-3 - d,) + tuple(1 - c for c in coords[1:])) if d < -2 else 0
    vec = CohomologyVector(h0, h0 + h2 - _chi_plane(d, [-c for c in coords[1:]]), h2)
    return CohomologyAnswer(vec, "exact", (_CREMONA_NOTE,))


# ---------------------------------------------------------------------------
# Vanishing rules on blowups
# ---------------------------------------------------------------------------
#
# States are raw coordinate tuples.  If D has no higher cohomology and C is
# an irreducible rational curve with C.D >= -C^2 - 1, then D + C has no
# higher cohomology (restrict to C and use that the cokernel is a line
# bundle of degree >= -1 on a rational curve).  On a blowup of the plane at
# arbitrary distinct points this gives the moves +E_j, +L and +(L - E_i):
# a general member of the pencil of lines through one point misses the other
# points regardless of their position.  The engine serves only surfaces
# with no exact algorithm: blowups of the plane at collinear points or at
# k >= 9 points, and blowups of Hirzebruch surfaces.
#
# One engine, ``_derive``, serves every family.  A family supplies its
# stock test, its derivability test and its run step.  Every move's guard
# reads only the head coordinates and one exceptional coefficient, so
# derivability (a derivation from the zero class or a stock class exists)
# has a closed form, proved below for each family.  A strip un-applies one
# legal move; a state's strips, in strip order, are +E_j on each c_j in
# {0, 1} (j ascending), then the family's head strips in the order given
# below.  The greedy walk takes at each state the first strip whose
# predecessor is derivable, until it reaches the zero class or a stock
# class.  Every strip lowers the state in a well-founded order (the head
# never rises and a strip lowers an exceptional coefficient only down to
# -1), so the walk ends.
#
# The engine tests derivability on the target, then walks back run by run:
# the run step reads the greedy's move off the closed form, together with
# the length of the run of that same move the greedy takes from there, cut
# at the first stock or zero class, and the engine tests derivability again
# at the run's end.  The runs below are proved for a derivable state that is
# neither the zero class nor a stock class, with k >= 1 (every blowup model
# has a point); each run ends at a derivable state, so the walk never
# leaves the closed form.  The run step meets a state outside it only when
# ``derivable`` admitted one wrongly; it then offers the first legal strip
# (for +E_j at c_j = 1, both of its legal moves).  A legal strip from a
# class with no derivation leads to another such class, never back into
# the closed form.  So every move of a trail is legal whatever
# ``derivable`` says, and a class with no derivation makes the walk raise:
# where no legal strip is left, or where ``derivable`` rejects a run's end.
#
# Blowup of the plane: state (l, c_1..c_k), m_i = -c_i for c_i < 0.  The
# stock classes are
#   -2L + sum_I E_i,  -L + sum_I E_i,  -E_j + sum_{I, i != j} E_i.
# A state is derivable iff max c <= 1 and either l >= -1 and
# sum m <= l + 1, or l = -2 and every c_i >= 0.  Necessity: the zero class
# and the stock classes satisfy it, and every move keeps it: +L raises l,
# +(L - E_i) raises l and sum m by at most 1, +E_j never raises sum m, and
# no move lifts a coefficient above 1.  Sufficiency: strip +E_j on each
# c_j = 1, then +(L - E_i) on each c_i < 0 (its guard l + c_i >= -1 holds
# because m_i <= sum m <= l + 1), then +L down to a stock class.
#
# Head strips: +L (legal at l >= -1), then +(L - E_i) for i ascending
# (legal at l >= -1 and l + c_i >= -1).  Runs: a derivable state other than
# the zero and stock classes has l >= 0 (at l = -1, sum m <= 0 leaves every
# c_i in {0, 1}, a stock class, as at l = -2) and slack s = l + 1 - sum m
# >= 0.  The predecessor of +E_j is derivable iff c_j = 1 (sum m is kept) or
# c_j = 0 and s > 0 (sum m rises by 1); that of +L iff s > 0; that of
# +(L - E_i) iff c_i < 0 (l and sum m fall by 1) or c_i = 0 and s > 0.  So
# the greedy's move and run are:
#   * +E_j at the first j with c_j = 1, or c_j = 0 when s > 0.  A move keeps
#     s, or lowers it as c_j goes to -1, so no earlier index becomes a
#     candidate and j stays first while it is one: two moves when c_j = 1
#     and s > 0, else one.  The state between the two has s > 0, so at
#     l = 0 it has sum m = 0 and is no stock class; it is the zero class
#     (and the run one move) when l = 0 and c_j was the only c_i = 1.
#   * else +L when s > 0.  No c_i is 1, nor 0 (it would be a candidate), so
#     every c_i < 0 and sum m >= 1.  Each move lowers s by 1 and keeps the
#     c_i: s moves, down to l = sum m - 1 >= 0, passing only states with
#     l >= 1, none of them a stock or zero class.
#   * else +(L - E_i) at the first i with c_i < 0: now s = 0, so
#     sum m = l + 1 >= 1, and no c is 1.  Its guard holds as m_i <= sum m =
#     l + 1.  A move keeps s = 0 and l + c_i, so the guard holds along the
#     run, and i stays first while c_i < 0: m_i moves.  If another c is
#     negative, l >= sum m - m_i >= 1 before the last move, so no stock
#     class is passed.  Otherwise m_i = l + 1, and after l moves the state
#     is (0, ..., -1, ...) with every other c zero, a stock class: the run
#     is min(m_i, l) moves.


def _is_stock_blp2(coords) -> bool:
    ell, tail = coords[0], coords[1:]
    if ell in (-1, -2):
        return all(c in (0, 1) for c in tail)
    if ell == 0:
        return sum(1 for c in tail if c == -1) == 1 and all(c in (-1, 0, 1) for c in tail)
    return False


def _derivable_blp2(coords, _) -> bool:
    """The closed form above; with every c_i <= 1, sum m = count(1) - sum c."""
    ell, tail = coords[0], coords[1:]
    if max(tail) > 1:
        return False
    if ell >= -1:
        return tail.count(1) - sum(tail) <= ell + 1
    return ell == -2 and min(tail) >= 0


def _exceptional_run(head, tail, ones, spare):
    """The +E_j run at the first c_j = 1, or c_j = 0 when ``spare`` (a zero
    may still go to -1), as in the runs above; None if there is none."""
    k = len(tail)
    j = tail.index(1) if ones else k
    if spare and 0 in tail:
        j = min(j, tail.index(0))
    if j == k:
        return None
    n = 2 if tail[j] == 1 and spare and (any(head) or ones > 1) else 1
    return f"+E{j + 1}", head + tail[:j] + (tail[j] - n,) + tail[j + 1 :], n


def _run_blp2(coords, _):
    """The greedy's last run into ``coords``: (move, predecessor before the
    run, length), read off the slack as above."""
    ell, tail = coords[0], coords[1:]
    ones = tail.count(1)
    slack = ell + 1 + sum(tail) - ones
    if ell < 0 or slack < 0 or max(tail) > 1:
        # outside the closed form: the first legal strip (+(L - E_i) is
        # legal only where +L is)
        return _exceptional_run((ell,), tail, ones, True) or (("+L", (ell - 1,) + tail, 1) if ell >= -1 else None)
    run = _exceptional_run((ell,), tail, ones, slack > 0)
    if run:
        return run
    if slack:
        return "+L", (ell - slack,) + tail, slack
    i = next(i for i, c in enumerate(tail) if c)
    n = min(-tail[i], ell)
    return f"+L-E{i + 1}", (ell - n,) + tail[:i] + (tail[i] + n,) + tail[i + 1 :], n


# Blowup of a Hirzebruch surface: same idea with coordinates (a, b, c_1..c_k)
# for aE + bF + sum c_i E_i.  The stock classes with no cohomology are
# -E + mF + sum_I E_i (any m), -F + sum_I E_i and -E_j + sum_{I, i!=j} E_i;
# the closure move adds a rational curve C under the guard C.D >= -C^2 - 1,
# applied here for C in {F, E, E_j}.  No move adds multiplicity, so a state
# is derivable iff every c_i lies in {-1, 0, 1} with at most one -1, either
# a = -1 and no c_i = -1 or a >= 0 and b >= ae - 1, and b >= 0 when some
# c_i = -1.  Necessity: the zero class and the stock classes satisfy it;
# +E_j raises a coefficient <= 0, +F raises b under the guard a >= -1, and
# +E reaches (a, b) only under its guard b >= ae - 1.  Sufficiency: strip
# +E_j on each c_j = 1, then +E down to a = 0 (the guard holds and the
# bound on b only weakens), then +F down to b = -1, or to b = 0 when some
# c_i = -1: a stock class.
#
# Head strips: +F (legal at a >= -1 and b >= 0), then +E (legal at a >= 0
# and b >= ae - 1).  Runs: let n <= 1 count the c_i = -1.  A derivable
# state other than the zero and stock classes has a >= 0 (a = -1 forbids
# c_i = -1, a stock class), b >= ae - 1, and b >= 0 if n = 1.  The
# predecessor of +E_j is derivable iff c_j = 1, or c_j = 0, n = 0 and
# b >= 0; that of +F iff b >= ae and (b >= 1 or n = 0); that of +E iff
# a >= 1 or n = 0.  So the greedy's move and run are:
#   * +E_j at the first j with c_j = 1, or c_j = 0 when n = 0 and b >= 0:
#     two moves when c_j = 1, n = 0 and b >= 0, else one, as on the plane
#     (n only rises).  The state between the two has n = 0, so it is no
#     stock class with b >= 0; it is the zero class (and the run one move)
#     when a = b = 0 and c_j was the only c_i = 1.
#   * else +F when b >= max(ae, 1).  No c_i is 1, and with n = 0 every c_i
#     would be 0 and a candidate (b >= 0), so n = 1; then +F needs b >= 1.
#     Each move keeps a and the c_i: b - max(ae, 1) + 1 moves, down to
#     b = max(ae, 1) - 1, passing only states with b >= 1 and some c_i = -1,
#     none of them a stock or zero class.
#   * else +E, one move.  If b >= ae, +F fails only at b = 0 with n = 1,
#     so a = 0 (as e >= 1): a stock class.  So b = ae - 1.  With n = 0
#     every c_i is 0 and no candidate, so b < 0 and a = 0: the stock class
#     (0, -1, 0, ...).  So n = 1, b = ae - 1 >= 0 and a >= 1; the
#     predecessor (a - 1, ae - 1) is derivable and has b >= (a - 1)e, so it
#     takes +F, or is the stock class (0, 0, ..., -1, ...) when a = e = 1.
#     Blowup models have e >= 2; on F_0 the greedy may take +E again, and
#     the step still returns its first move.


def _is_stock_blf(coords) -> bool:
    a, b, tail = coords[0], coords[1], coords[2:]
    if a == -1:
        return all(c in (0, 1) for c in tail)
    if a == 0 and b == -1:
        return all(c in (0, 1) for c in tail)
    if a == 0 and b == 0:
        return sum(1 for c in tail if c == -1) == 1 and all(c in (-1, 0, 1) for c in tail)
    return False


def _derivable_blf(coords, e: int) -> bool:
    """The closed form above."""
    a, b, tail = coords[0], coords[1], coords[2:]
    negative = tail.count(-1)
    if max(tail) > 1 or min(tail) < -1 or negative > 1:
        return False
    if a == -1:
        return not negative
    return a >= 0 and b >= a * e - 1 and (b >= 0 or not negative)


def _run_blf(coords, e: int):
    """The greedy's last run into ``coords``, as ``_run_blp2``."""
    a, b, tail = coords[0], coords[1], coords[2:]
    ones, negative = tail.count(1), tail.count(-1)
    if a < 0 or b < a * e - 1 or negative > 1 or (negative and b < 0) or max(tail) > 1 or min(tail) < -1:
        # outside the closed form: the first legal strip
        head = None
        if a >= -1 and b >= 0:
            head = ("+F", (a, b - 1) + tail, 1)
        elif a >= 0 and b >= a * e - 1:
            head = ("+E", (a - 1, b) + tail, 1)
        return _exceptional_run((a, b), tail, ones, True) or head
    run = _exceptional_run((a, b), tail, ones, not negative and b >= 0)
    if run:
        return run
    top = max(a * e, 1)
    if b >= top:
        return "+F", (a, top - 1) + tail, b - top + 1
    return "+E", (a - 1, b) + tail, 1


def _derive(coords, stock, run, derivable, param) -> tuple[str, ...] | None:
    """Derivation trail (start class, then moves) of ``coords``, else None.

    ``stock(c)``, ``run(c, param)`` and ``derivable(c, param)`` are the
    family's rules; ``param`` is e on blowups of F_e and None on blowups of
    the plane.  ``run`` gives the greedy's last run into a state as (move,
    predecessor before the run, length), or None.  ``derivable`` is tested
    on the target and at every run's end; a state with no run, or a run
    ending outside ``derivable``, would prove the closed form wrong, and
    raises.  Every run is a string of legal moves (see above), so a
    returned trail is a derivation.
    """
    if not derivable(coords, param):
        return None
    runs = []
    while any(coords) and not stock(coords):
        step = run(coords, param)
        if step is None or not derivable(step[1], param):
            raise RuntimeError(f"derivable state {_coords_repr(coords)} has no derivable predecessor")
        move, coords, n = step
        runs.append((move, n))
    trail = [f"start {_coords_repr(coords)}"]
    for move, n in reversed(runs):
        trail += [move] * n
    return tuple(trail)


def _coords_repr(coords) -> str:
    return "(" + ",".join(str(c) for c in coords) + ")"


def _obviously_effective(D: DivisorClass) -> bool:
    """Cheap sufficient test for h0 > 0 (a manifest sum of effective classes)
    on a blowup of the plane or of F_e."""
    if D.surface.is_blowup_p2_like:
        ell, tail = D.coords[0], D.coords[1:]
        need = sum(-c for c in tail if c < 0)  # one line per point multiplicity
        return ell >= need
    a, b, tail = D.coords[0], D.coords[1], D.coords[2:]
    need = sum(-c for c in tail if c < 0)  # one fiber per point multiplicity
    return a >= 0 and b >= need


def h2_is_zero(D: DivisorClass) -> bool:
    """Sound h2 = 0 test via a moving curve meeting K - D negatively."""
    s = D.surface
    if s.is_hirzebruch:
        return hirzebruch_cohomology(D).h2 == 0
    if s.is_blowup_p2_like:
        # lines move, and (K-D).L = -3 - D.L is negative once D.L >= -2
        return D.coords[0] >= -2
    # fibers move: (K-D).F = -2 - a(D) is negative once a(D) >= -1
    return D.coords[0] >= -1


def vanishing_by_rules(D: DivisorClass) -> CohomologyAnswer:
    """Sufficient vanishing rules on blowups; never claims a false ZERO.

    On k <= 8 general points (``dp<d>`` spellings included) the answer is the
    exact Cremona one.  Elsewhere ``higher_cohomology`` is ZERO exactly when
    a closure derivation exists, decided by the family's closed form, with
    the vector (chi, 0, 0) and the derivation found by the greedy walk of
    ``_derive`` (a stock class is its own derivation).  NONZERO answers come
    only from cheap sound certificates (negative Euler characteristic, or
    an obviously effective Serre dual), with no vector.  Nothing is cached:
    a call costs one closed-form test and, for a derivable class, one run
    step and one closed-form test per run of equal moves in its trail.
    """
    s = D.surface
    if _has_cremona_vector(s):
        return _cremona_answer(_orbit_key(D.coords))
    if s.is_blowup_p2_like:
        stock, run, derivable, param = _is_stock_blp2, _run_blp2, _derivable_blp2, None
    elif s.is_blowup_hirzebruch:
        stock, run, derivable, param = _is_stock_blf, _run_blf, _derivable_blf, s.e
    else:
        raise LatticeError(f"vanishing rules are not available on {s}")
    trail = ("stock class",) if stock(D.coords) else _derive(D.coords, stock, run, derivable, param)
    chi = chi_line_bundle(D)
    if trail is not None:
        return CohomologyAnswer(CohomologyVector(chi, 0, 0), "rules", trail)
    if chi < 0:
        return CohomologyAnswer(None, "rules", ("chi < 0 forces h1 > 0",))
    if _obviously_effective(canonical(s) - D):
        return CohomologyAnswer(None, "rules", ("K - D effective forces h2 > 0",))
    return _UNDECIDED


# ---------------------------------------------------------------------------
# Interpolation oracle on blowups of the plane
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)  # a process uses a few moduli: the default and any given as prime=
def _is_prime(n: int) -> bool:
    # trial division: at most 46341 divisors below the 2^31 cap, once per modulus
    return n > 1 and all(n % q for q in range(2, isqrt(n) + 1))


def _resolve_prime(prime: int | None, degree: int) -> int:
    if prime is None:
        prime = DEFAULT_ORACLE_PRIME
    if prime >= 1 << 31:
        raise OracleError(f"oracle modulus {prime} is not below 2^31")
    if not _is_prime(prime):
        raise OracleError(f"oracle modulus {prime} is not prime")
    if prime <= max(degree, 1000):
        raise OracleError(f"oracle modulus {prime} too small for degree {degree}")
    return prime


def _frame(surface: SurfaceModel, mults) -> tuple[int, ...]:
    """Indices of the points placed at [0:0:1], [1:0:0] and [0:1:0], in that order.

    PGL3 moves any three non-collinear points to the coordinate points, so a
    sample with points there is still a configuration of the surface's type.
    Points are taken heaviest first, ties by index: the three heaviest of
    general points; on collinear points the two heaviest listed ones (their
    line is then y = 0) and the heaviest unlisted one, if any.
    """
    config = surface.config
    order = sorted(range(surface.k), key=mults.__getitem__, reverse=True)  # stable: ties by index
    if config.kind == "general":
        return tuple(order[:3])
    on_line = [i for i in order if i + 1 in config.collinear]
    off_line = [i for i in order if i + 1 not in config.collinear]
    return tuple(on_line[:2] + off_line[:1])


def _frame_columns(d: int, frame_mults) -> Iterator[tuple[int, int]]:
    """The monomials x^a y^b z^(d-a-b) left free by the frame, as pairs (a, b)
    ordered by total degree a + b, then by a, listed as they are pulled.

    At a coordinate point a multiplicity condition kills single monomials:
    x^a y^b z^c vanishes to order a + b at [0:0:1], b + c = d - a at
    [1:0:0] and a + c = d - b at [0:1:0], so a point of multiplicity m
    there kills the monomials of order < m and imposes nothing else.  The
    kept pairs are those with a + b >= m0, a <= d - mx and b <= d - my.
    Low total degree first puts the columns where the affine points'
    Taylor conditions are most independent first, so the rank kernel
    reaches full rank after fewer of them.
    """
    m0, mx, my = tuple(frame_mults) + (0,) * (3 - len(frame_mults))
    return ((a, s - a) for s in range(m0, d + 1) for a in range(max(0, s - d + my), min(s, d - mx) + 1))


def _frame_count(d: int, frame_mults) -> int:
    """The number of pairs ``_frame_columns(d, frame_mults)`` lists, in closed form.

    Write T(n) = n(n + 1)/2 for n > 0, else 0: for n >= 0, T(n + 1) counts
    the triples (a, b, c) >= 0 with a + b + c = n.  The monomials of degree
    d are the T(d + 1) triples summing to d.  With each multiplicity clipped
    at d + 1 (a point of multiplicity d + 1 already kills every monomial),
    the point at [0:0:1] kills the triples with a + b < m0, that is
    c >= d + 1 - m0 >= 0; likewise a >= d + 1 - mx and b >= d + 1 - my.
    Shifting each bound to 0 leaves a + b + c = d - sum of the bounds, so a
    set of bounds cuts out T(1 + d - sum) triples: T(m) for one point,
    T(m + m' - d - 1) for two and T(m0 + mx + my - 2d - 2) for all three.
    Inclusion-exclusion over the three killed sets counts the kept ones.
    At d < 0 every term is T(n) with n <= d + 1 <= 0, so the count is 0.
    """
    def tri(n: int) -> int:
        return n * (n + 1) // 2 if n > 0 else 0

    m0, mx, my = (min(m, d + 1) for m in tuple(frame_mults) + (0,) * (3 - len(frame_mults)))
    return (
        tri(d + 1) - tri(m0) - tri(mx) - tri(my)
        + tri(m0 + mx - d - 1) + tri(m0 + my - d - 1) + tri(mx + my - d - 1)
        - tri(m0 + mx + my - 2 * d - 2)
    )


# a pure function of its key, and most of its cost is seeding the generator
# from a string.  A pass (seed 1, pass 0) asks 142 times for 54 keys on
# delpezzo_goodsums and 130 times for 92 on blowup_queries; criterion 5
# asks 7,692 times for 84
@lru_cache(maxsize=256)
def _sample_points(surface: SurfaceModel, frame, p: int, seed: int, trial: int) -> tuple[tuple[int, int], ...]:
    """Deterministic distinct affine points over F_p, one per point outside ``frame``.

    The points come in index order and avoid the frame's (0, 0): general
    points are uniform, listed collinear points lie on the frame's line
    y = 0 and unlisted points off it.
    """
    config = surface.config
    rng = random.Random(f"{seed}:{trial}:{surface.k}:{p}")
    y_low = 1 if config.kind == "collinear" else 0
    pts: list[tuple[int, int]] = []
    used = {(0, 0)}
    for i in range(surface.k):
        if i in frame:
            continue
        while True:
            if i + 1 in config.collinear:
                pt = (rng.randrange(1, p), 0)
            else:
                pt = (rng.randrange(p), rng.randrange(y_low, p))
            if pt not in used:
                break
        pts.append(pt)
        used.add(pt)
    return tuple(pts)


def _hasse_step(row: tuple[int, ...], z0: int, p: int) -> tuple[int, ...]:
    """Row a of the Hasse table C(a,u) z0^(a-u) mod p (u < len(row)) from row
    a - 1, by Pascal's rule: C(a,u) z0^(a-u) = z0 C(a-1,u) z0^(a-1-u) + C(a-1,u-1) z0^(a-u)."""
    return tuple([(z0 * s + t) % p for s, t in zip(row, (0,) + row)])


def _fat_point_columns(mults, points, p: int, cols) -> Iterator[list[int]]:
    """The columns of the fat-point matrix, one per pair of ``cols``, each
    built only when it is pulled.

    Rows impose vanishing of all Taylor coefficients of order < mult.
    Columns run over the monomials x^a y^b z^(d-a-b) of ``cols``, pairs
    (a, b) of total degree a + b <= d, evaluated on the affine chart z = 1;
    the row for derivative order (u, v) at (x0, y0) has entry
    C(a,u) C(b,v) x0^(a-u) y0^(b-v), reduced mod p.  It is X[a][u] Y[b][v]
    mod p for the Hasse tables X[a][u] = C(a,u) x0^(a-u) and
    Y[b][v] = C(b,v) y0^(b-v) mod p (zero for a < u or b < v, so orders
    above d give zero rows).  Each point's tables start at X[0] = Y[0] =
    (1, 0, ..., 0) and grow a row at a time (``_hasse_step``), only as far
    as the columns pulled so far reach.
    """
    tables = [(m, x0, y0, [(1,) + (0,) * (m - 1)], [(1,) + (0,) * (m - 1)]) for (x0, y0), m in zip(points, mults) if m]
    top = 0
    for a, b in cols:
        while top < max(a, b):
            for _, x0, y0, x, y in tables:
                x.append(_hasse_step(x[-1], x0, p))
                y.append(_hasse_step(y[-1], y0, p))
            top += 1
        yield [xu * yv % p for m, _, _, x, y in tables for u, xu in enumerate(x[a]) for yv in y[b][: m - u]]


def _line_h0(d: int, frame_mults, line_mults) -> int:
    """Nullity of the framed matrix when every sampled point lies on y = 0.

    The row of order (u, v) at (x0, 0) has entry C(a,u) x0^(a-u) [b = v],
    so the rows split by the y-degree b of the kept monomials x^a y^b, which
    run over b <= d - my and lo_b <= a <= hi_b (see ``_frame_columns``).  On
    layer b a point of multiplicity m imposes the Hasse derivatives of order
    < m - b in x; at distinct nonzero x0, where x^lo_b is a unit, these are
    independent Hermite conditions on a polynomial of degree <= hi_b - lo_b
    (Chinese remainders), over every F_p.  So each layer's nullity is its
    width less its conditions, or 0.  No point imposes a condition on the
    layers from max(m0, line multiplicities) on, so only the layers below
    are looped over; the rest are summed in closed form.
    """
    m0, mx, my = tuple(frame_mults) + (0,) * (3 - len(frame_mults))
    top = d - my  # the last layer
    low = min(max((m0, *line_mults)), top + 1)
    below = sum(
        max(0, min(d - b, d - mx) - max(0, m0 - b) + 1 - sum(max(0, m - b) for m in line_mults))
        for b in range(low)
    )
    # layer b >= low has width min(d - b, d - mx) + 1: d - mx + 1 (or 0) up to
    # b = mx, then d - b + 1 >= my + 1, an arithmetic series from b = start to top
    flat = max(0, min(top, mx) - low + 1) * max(0, d - mx + 1)
    start = max(low, mx + 1)
    return below + flat + max(0, top - start + 1) * (2 * d + 2 - start - top) // 2


def _collinear_h0_bound(s: SurfaceModel, coords) -> int:
    """A lower bound for h0(O(D)) on the plane blown up at k <= 8 points,
    the collinear ones on a line, in every such configuration over every field.

    The class l' = L - sum_{i collinear} E_i is effective (the line's strict
    transform plus the E_j of any other point on it), and so is every
    (-1)-class C of ``neg_one_classes``: chi(C) = 1, and h2(C) = h0(K - C)
    = 0 because K - C meets the moving line class L negatively.  So
    h0(D) >= h0(D - C) for each of them.  While D meets l' or a (-1)-class
    C with C.l' >= 0 negatively (the E_i are among them; a class with
    C.l' < 0 contains l'), the loop subtracts that class; each step lowers
    d or a positive c_i, so the loop ends.  It returns 0 once d < 0, and
    otherwise max(0, chi), which is at most h0 since h2 = 0 at d >= -2.
    By Harbourne (1997, "Anticanonical rational surfaces") the value is the
    generic h0 itself; only the bound is used.
    """
    curves = s.collinear_curves
    while coords[0] >= 0:
        C = next((C for C in curves if form(s, coords, C) < 0), None)
        if C is None:
            return max(0, _chi_plane(coords[0], [-c for c in coords[1:]]))
        coords = tuple(a - b for a, b in zip(coords, C))
    return 0


def _h0_lower_bound(D: DivisorClass) -> int:
    """A lower bound for h0(O(D)) at every configuration of the surface's type.

    On k <= 8 general points it is the generic h0 of ``_cremona_answer``, which
    every configuration reaches or exceeds (semicontinuity); on k <= 8
    collinear points it is ``_collinear_h0_bound``; elsewhere it is 0.
    """
    s = D.surface
    if _has_cremona_vector(s):
        return _cremona_answer(_orbit_key(D.coords)).vector.h0
    if s.config.kind == "collinear" and s.k <= 8:
        return _collinear_h0_bound(s, D.coords)
    return 0


def _dot(u, v, p: int) -> int:
    return (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]) % p


def _join(u, v, p: int) -> tuple[int, int, int]:
    """The line through two points of P^2(F_p), as a cross product."""
    return (
        (u[1] * v[2] - u[2] * v[1]) % p,
        (u[2] * v[0] - u[0] * v[2]) % p,
        (u[0] * v[1] - u[1] * v[0]) % p,
    )


def _heaviest_triple(pts, d: int, p: int, accept):
    """The heaviest triple of ``pts`` (sorted heaviest first) whose
    multiplicities sum above d and that ``accept(pts, t, p)`` takes, as
    ``accept`` returns it: positions and lines (bc, ca, ab), or None.
    """
    n = len(pts)
    if n < 3 or pts[0][0] + pts[1][0] + pts[2][0] <= d:
        return None
    found = accept(pts, (0, 1, 2), p)  # the heaviest triple, first in the order below
    if found is not None:
        return found
    triples = sorted(
        (t for t in itertools.combinations(range(n), 3) if pts[t[0]][0] + pts[t[1]][0] + pts[t[2]][0] > d),
        key=lambda t: -(pts[t[0]][0] + pts[t[1]][0] + pts[t[2]][0]),
    )  # stable: ties keep the heaviest-first order
    for t in triples[1:]:
        found = accept(pts, t, p)
        if found is not None:
            return found
    return None


def _triple_lines(pts, t, p: int):
    """The lines (bc, ca, ab) of the triple ``t`` of ``pts``, or None if its points are collinear."""
    a, b, c = (pts[j][2] for j in t)
    lines = (_join(b, c, p), _join(c, a, p), _join(a, b, p))
    return lines if _dot(lines[0], a, p) else None


def _centre_lines(pts, t, p: int):
    """``(t, lines)`` if a quadratic transformation centred at the triple
    ``t`` is an isomorphism of the blowup: its points are not collinear and
    no other point lies on the three lines through them.  Else None."""
    lines = _triple_lines(pts, t, p)
    if lines is not None and not any(
        _dot(line, pts[j][2], p) == 0 for j in range(len(pts)) if j not in t for line in lines
    ):
        return t, lines
    return None


def _frame_lines(pts, t, p: int):
    """``(t', lines)`` if the triple ``t`` frames the sample, with t' = (a, b, c)
    an order of t whose line ab holds no other point.  Else None.

    The map P -> (bc.P : ca.P : ab.P) sends a, b, c to [1:0:0], [0:1:0] and
    [0:0:1].  It sends only the points on ab to z = 0, so every other point
    lands in the affine chart, those on bc or ca at x = 0 or y = 0.
    """
    lines = _triple_lines(pts, t, p)
    if lines is not None:
        for s in range(3):  # t' = t[s:] + t[:s], whose line ab is lines[s - 1]
            if not any(_dot(lines[s - 1], pts[j][2], p) == 0 for j in range(len(pts)) if j not in t):
                return t[s:] + t[:s], lines[s:] + lines[:s]
    return None


_FRAME_POINTS = ((0, 0, 1), (1, 0, 0), (0, 1, 0))  # where ``_frame`` puts its points, in order


def _reduce_sample(d: int, mults, frame, points, p: int, listed):
    """Cremona-reduce one sample; the reduced class framed as
    ``(d, frame_mults, rest, points)``, or None for the unreduced one.

    The sampled points of positive multiplicity are kept in projective
    coordinates over F_p (points of multiplicity 0 impose nothing).  On a
    collinear model (``listed`` holds the 0-based indices on the line), the
    line l' = L - sum_listed E_i is removed first while D.l' < 0: the
    listed points lie on y = 0 and the others off it, so l' is the class
    of that line's strict transform, an irreducible curve, hence a fixed
    component.  Then, while some triple qualifies (``_centre_lines``),
    the heaviest one is moved to the coordinate points and
    (x:y:z) -> (yz:xz:xy) is applied.  That is an isomorphism of the
    surface blown up at this very sample onto the blowup at the image
    points, carrying D to d' = 2d - m_a - m_b - m_c with m'_a = d - m_b - m_c
    at the image of the line bc; a negative m'_a makes that exceptional
    curve a fixed component, so it is clamped to 0.  Each step keeps the
    value, so it is the framed nullity of the unreduced class at the same
    sample, over every F_p.  Every step lowers d.  The result is framed at
    its heaviest triple that frames it (``_frame_lines``): a projective map
    of the sample, so the framed nullity is the same at every frame.  A
    sample that takes no step, or whose reduced class has three or more
    points and no frame (all of them on one line, say), returns None.
    """
    where = dict(zip(frame, _FRAME_POINTS))
    where.update(zip((i for i in range(len(mults)) if i not in where), ((x, y, 1) for x, y in points)))
    pts = [(m, i, where[i]) for i, m in enumerate(mults) if m]
    start = d
    while d >= 0 and d < sum(m for m, i, _ in pts if i in listed):
        d -= 1
        pts = [(m - (i in listed), i, P) for m, i, P in pts if m > (i in listed)]
    while d >= 0:
        pts.sort(key=lambda t: (-t[0], t[1]))
        found = _heaviest_triple(pts, d, p, _centre_lines)
        if found is None:
            break
        t, lines = found
        ma, mb, mc = (pts[j][0] for j in t)
        moved = [(max(0, d - mb - mc), pts[t[0]][1], (1, 0, 0)),
                 (max(0, d - mc - ma), pts[t[1]][1], (0, 1, 0)),
                 (max(0, d - ma - mb), pts[t[2]][1], (0, 0, 1))]
        for j, (m, i, P) in enumerate(pts):
            if j not in t:
                x, y, z = (_dot(line, P, p) for line in lines)
                moved.append((m, i, (y * z % p, x * z % p, x * y % p)))
        d = 2 * d - ma - mb - mc
        pts = [q for q in moved if q[0]]
    if d == start:
        return None
    if d < 0:
        return d, [], [], []
    if len(pts) < 3:
        return d, [m for m, _, _ in pts], [], []  # any two points frame
    found = _heaviest_triple(pts, -1, p, _frame_lines)
    if found is None:
        return None
    t, (bc, ca, ab) = found
    rest, affine = [], []
    for j, (m, _, P) in enumerate(pts):
        if j not in t:
            z = pow(_dot(ab, P, p), -1, p)  # nonzero: P is off the line ab
            rest.append(m)
            affine.append((_dot(bc, P, p) * z % p, _dot(ca, P, p) * z % p))
    # a, b, c go to [1:0:0], [0:1:0], [0:0:1]; the frame lists [0:0:1] first
    return d, [pts[t[2]][0], pts[t[0]][0], pts[t[1]][0]], rest, affine


def _framed_nullity(d: int, frame_mults, rest, points, p: int) -> int:
    """Nullity of the framed matrix: the frame's points at the coordinate
    points, ``rest`` at the affine ``points``.  The kept count less the rank
    of its columns, streamed so that none past full row rank is built (none
    at all with no rows, and none are kept at d < 0)."""
    columns = _fat_point_columns(rest, points, p, _frame_columns(d, frame_mults))
    return _frame_count(d, frame_mults) - modp_stream_rank(columns, sum(m * (m + 1) // 2 for m in rest), p)


def interpolation_h0(
    D: DivisorClass, *, seed: int = 0, trials: int = 3, prime: int | None = None
) -> int:
    """Brute-force h0 on a blowup of the plane via fat-point interpolation.

    Sections of O(dL - sum a_i E_i) are degree-d plane curves with a point of
    multiplicity a_i at each p_i; over a large prime field the count of
    independent ones is the nullity of the Taylor-condition matrix.  Each
    trial places the frame of ``_frame`` at the coordinate points, which
    drops the monomials they kill, and samples the other points as rows;
    with no other point of positive multiplicity the count of kept
    monomials is the answer, so general k <= 3 needs no matrix.  Before it
    eliminates, each sample is Cremona-reduced (``_reduce_sample``): the
    collinear line is removed while D meets it negatively, then quadratic
    transformations centred at sampled triples whose multiplicities sum
    above d lower the degree.  Each step is an isomorphism of the surface
    blown up at that sample, so the value is exactly the sample's framed
    nullity, over every F_p; a sample that takes no step, or that cannot
    be framed afterwards, builds the framed matrix as it is.  Every
    sample is a configuration of the surface's type, so by semicontinuity
    each value bounds the generic h0 from above; the minimum over trials
    is reported.  The trials stop once one reaches the nullity floor
    max(0, columns - rows) or ``_h0_lower_bound``, a lower bound on h0 at
    every configuration of the surface's type (the generic h0 on k <= 8
    general points, the negative-curve loop on k <= 8 collinear points, 0
    elsewhere).  No trial can go below either, so stopping keeps the
    minimum; a trial below the bound raises ``RuntimeError``, also under
    ``python -O``.  On collinear points, when every sampled point of positive
    multiplicity lies on the line (the frame holds any other), the nullity
    is counted by ``_line_h0`` without a sample or a matrix; that value is
    the same for every seed, number of trials and prime.  Only the sample
    points are cached: each trial's points are a pure function of (surface,
    frame, prime, seed, trial), seeded by (seed, trial, k, prime), so a
    repeated call reads the same points and recomputes the same value.
    """
    if not D.surface.is_blowup_p2_like:
        raise OracleError("the interpolation oracle works on blowups of the plane")
    if trials < 1:
        raise OracleError("need at least one trial")
    d = D.coords[0]
    prime = _resolve_prime(prime, max(d, 0))
    if d < 0:
        return 0
    # negative-multiplicity exceptional summands are fixed components
    mults = [max(0, -c) for c in D.coords[1:]]
    frame = _frame(D.surface, mults)
    frame_mults = [mults[i] for i in frame]
    rest = [m for i, m in enumerate(mults) if i not in frame]
    config = D.surface.config
    if config.kind == "collinear" and all(
        i + 1 in config.collinear for i, m in enumerate(mults) if m and i not in frame
    ):
        return _line_h0(d, frame_mults, rest)  # any off-line point with m > 0 is at [0:1:0]
    kept = _frame_count(d, frame_mults)
    if kept == 0 or not any(rest):
        return kept
    listed = {i - 1 for i in config.collinear}
    floor = max(0, kept - sum(m * (m + 1) // 2 for m in rest))  # columns less rows
    best, bound = kept, None
    for trial in range(trials):
        points = _sample_points(D.surface, frame, prime, seed, trial)
        sample = (d, frame_mults, rest, points)
        nullity = _framed_nullity(*(_reduce_sample(d, mults, frame, points, prime, listed) or sample), prime)
        best = min(best, nullity)
        if best == floor:
            break  # no trial can go below the nullity floor
        if bound is None:
            bound = _h0_lower_bound(D)
        if nullity < bound:
            raise RuntimeError(f"sample nullity {nullity} of {D} on {D.surface} is below the proven bound {bound}")
        if best == bound:
            break  # nor below the proven lower bound on h0
    return best


def blowup_cohomology_oracle(
    D: DivisorClass, *, seed: int = 0, trials: int = 3, prime: int | None = None
) -> CohomologyVector:
    """Full cohomology vector from interpolation and Riemann-Roch.

    h2 is h0 of the Serre-dual class K - D, and h1 closes the Euler
    characteristic.  D and K - D have degrees d and -3 - d, so at most one
    of them is sampled at all.  At d >= -2 the dual degree is negative, so
    h2 = 0 and K - D is neither built nor interpolated: the call on D has
    already checked the surface and the trials, and the prime against
    max(d, 0), at least the dual degree.  At d <= -3 the call on D returns 0
    unsampled and the dual is interpolated.  Each call stops its
    trials early only where no further trial could lower its minimum, and
    each Cremona-reduces its samples, which keeps every sample's value (see
    ``interpolation_h0``), so the vector is the one all trials of the
    unreduced framed matrices would give.
    """
    h0 = interpolation_h0(D, seed=seed, trials=trials, prime=prime)
    h2 = 0
    if D.coords[0] < -2:
        h2 = interpolation_h0(canonical(D.surface) - D, seed=seed, trials=trials, prime=prime)
    h1 = h0 + h2 - chi_line_bundle(D)
    if h1 < 0:
        raise OracleError(f"inconsistent oracle sample for {D} (h1 = {h1} < 0); retry with another seed")
    return CohomologyVector(h0, h1, h2)


def certified_cohomology(D: DivisorClass) -> CohomologyAnswer:
    """The answer for O(D) without the oracle.

    ``"exact"`` with the vector on Hirzebruch surfaces, else the answer of
    ``vanishing_by_rules`` (itself exact by Cremona reduction on blowups of
    the plane at k <= 8 general points).
    """
    if D.surface.is_hirzebruch:
        return CohomologyAnswer(hirzebruch_cohomology(D), "exact")
    return vanishing_by_rules(D)


def _with_oracle(D: DivisorClass, answer: CohomologyAnswer, seed: int, trials: int) -> CohomologyAnswer:
    """``answer``, or on a blowup of the plane where it has no vector the
    oracle's, keeping the rules' derivation."""
    if answer.vector is not None or not D.surface.is_blowup_p2_like:
        return answer
    return CohomologyAnswer(blowup_cohomology_oracle(D, seed=seed, trials=trials), "oracle", answer.derivation)


def line_bundle_cohomology(D: DivisorClass, *, seed: int = 0, trials: int = 3) -> CohomologyAnswer:
    """The answer for O(D) by the strongest route: ``certified_cohomology``,
    else on blowups of the plane the oracle's upper bounds (``"oracle"``)."""
    return _with_oracle(D, certified_cohomology(D), seed, trials)


def higher_cohomology_vanishes(D: DivisorClass, *, seed: int = 0, trials: int = 3) -> CohomologyAnswer:
    """``line_bundle_cohomology`` that skips the oracle once the rules show higher cohomology."""
    answer = certified_cohomology(D)
    return _with_oracle(D, answer, seed, trials) if answer.route == "undecided" else answer
