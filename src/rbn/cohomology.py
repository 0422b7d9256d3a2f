"""Line-bundle cohomology: exact dimensions, vanishing rules and oracles.

Four routes, by strength of the statement:

* Hirzebruch surfaces get exact ``(h0, h1, h2)`` in closed form from the
  base locus, cross-checkable against an independent pushforward oracle
  (the direct image of ``O(aE+bF)`` on the base splits into line bundles
  of degrees ``b - je``).
* Blowups of the plane at k <= 8 general points (del Pezzo models
  included) get exact ``(h0, h1, h2)`` by Cremona reduction: fixed
  exceptional components are removed and quadratic transformations lower
  the degree until the class is in standard form, where h0 = chi.
* Blowups of the plane and of Hirzebruch surfaces get *sound but
  incomplete* vanishing verdicts from closure rules: starting from a stock
  of classes with no cohomology, adding an exceptional class, a line or a
  fiber under an intersection guard preserves vanishing of higher
  cohomology.  The classes the rules reach have a closed form, and a
  greedy walk back from a class records its derivation.  On k <= 8 general
  points ``vanishing_by_rules`` answers from the Cremona vector instead.
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
  smaller matrix or none.  A matrix is a list of rows of Python ints with a
  column per kept monomial, eliminated row by row mod p (``_modp``).  Each
  trial's nullity bounds the generic h0 from above, and the minimum over
  the trials is reported; the trials stop early once one meets a value no
  trial can go below: the nullity floor (columns less rows), or on k <= 8
  general or collinear points a proven lower bound on h0 at every
  configuration (the Cremona h0, or the collinear negative-curve loop).
  So stopping never changes the minimum, and a trial below the bound
  raises, since it would disprove it.

Verdicts ask in that order, Hirzebruch exact, Cremona exact, rules, then
oracle, and only this module picks the route, through three entry points.
``certified_cohomology`` returns the vector wherever the first three
certify it and never calls the oracle.  ``line_bundle_cohomology`` adds
the oracle on blowups of the plane and says which route answered.
``higher_cohomology_vanishes`` asks it only after the rules' Nonzero, so a
class the rules show to have higher cohomology (chi < 0, or K - D
effective) never reaches the oracle.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
import random
from dataclasses import dataclass
from functools import lru_cache

from ._modp import modp_nullity
from .lattice import (
    DivisorClass,
    LatticeError,
    SurfaceModel,
    canonical,
    chi_line_bundle,
    form,
    neg_one_classes,
)

DEFAULT_ORACLE_PRIME = 1000003
ORACLE_PRIME_ENV = "RBN_ORACLE_PRIME"


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


@dataclass(frozen=True)
class VanishingVerdict:
    """Three-valued vanishing verdict with the applied rule trail.

    ``ZERO`` answers are always sound; ``UNKNOWN`` means no derivation was
    found, never that cohomology is known to be nonzero.
    """

    higher_cohomology: Vanishing
    all_cohomology: Vanishing
    derivation: tuple[str, ...] = ()


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
    assert h1 >= 0, (e, a, b)
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


# ---------------------------------------------------------------------------
# Blowups of the plane at k <= 8 general points: exact cohomology
# ---------------------------------------------------------------------------


def _chi_plane(d: int, mults) -> int:
    return (d + 1) * (d + 2) // 2 - sum(m * (m + 1) // 2 for m in mults)


def _has_cremona_vector(s: SurfaceModel) -> bool:
    """Blowups of the plane at k <= 8 general points, del Pezzo models included."""
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


# a pure function of the tuple (k = len - 1) that good-sum checks repeat: a
# delpezzo_goodsums pass (seed 1, pass 0) hits 2,129 times and misses 860,
# blowup_queries 14 and 363; criterion 5 misses 16,129 times (15,275 at 4096)
@lru_cache(maxsize=1 << 11)
def _cremona_vector(coords) -> CohomologyVector:
    """Exact (h0, h1, h2): h2 is h0(K - D) by Serre duality, h1 closes chi."""
    h0 = _cremona_h0(coords)
    h2 = _cremona_h0((-3 - coords[0],) + tuple(1 - c for c in coords[1:]))
    return CohomologyVector(h0, h0 + h2 - _chi_plane(coords[0], [-c for c in coords[1:]]), h2)


_CREMONA_NOTE = "exact cohomology by Cremona reduction"


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
# with no exact algorithm: blowups of the plane at collinear or explicit
# points or at k >= 9 points, and blowups of Hirzebruch surfaces.
#
# One engine, ``_derive``, serves every family.  A family supplies its
# stock test, its strip generator (candidate last moves, in generator
# order) and its derivability test.  Every move's guard reads only the head
# coordinates and one exceptional coefficient, so derivability (a
# derivation from the zero class or a stock class exists) has a closed
# form, proved below for each family.  The engine tests it on the target,
# then walks back from it, taking at each state the first strip whose
# predecessor is derivable, until it reaches the zero class or a stock
# class.  Every strip lowers the state in a well-founded order (the head
# never rises and a strip lowers an exceptional coefficient only down to
# -1), so the walk ends.
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


def _is_stock_blp2(coords) -> bool:
    ell, tail = coords[0], coords[1:]
    if ell in (-1, -2):
        return all(c in (0, 1) for c in tail)
    if ell == 0:
        return sum(1 for c in tail if c == -1) == 1 and all(c in (-1, 0, 1) for c in tail)
    return False


def _strips_blp2(coords, _):
    """Candidate last moves of a derivation ending at ``coords``."""
    k = len(coords) - 1
    ell, tail = coords[0], coords[1:]
    for j, c in enumerate(tail):
        if c in (0, 1):
            yield coords[: 1 + j] + (c - 1,) + coords[2 + j :], f"+E{j + 1}"
    if ell >= -1:
        yield (ell - 1,) + tail, "+L"
        for i in range(k):
            # un-apply +(L - E_i); the guard is (T - C).C = T.C >= -1
            if ell + tail[i] >= -1:
                yield (ell - 1,) + tail[:i] + (tail[i] + 1,) + tail[i + 1 :], f"+L-E{i + 1}"


def _derivable_blp2(coords, _) -> bool:
    """The closed form above; with every c_i <= 1, sum m = count(1) - sum c."""
    ell, tail = coords[0], coords[1:]
    if max(tail) > 1:
        return False
    if ell >= -1:
        return tail.count(1) - sum(tail) <= ell + 1
    return ell == -2 and min(tail) >= 0


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


def _is_stock_blf(coords) -> bool:
    a, b, tail = coords[0], coords[1], coords[2:]
    if a == -1:
        return all(c in (0, 1) for c in tail)
    if a == 0 and b == -1:
        return all(c in (0, 1) for c in tail)
    if a == 0 and b == 0:
        return sum(1 for c in tail if c == -1) == 1 and all(c in (-1, 0, 1) for c in tail)
    return False


def _strips_blf(coords, e: int):
    a, b, tail = coords[0], coords[1], coords[2:]
    for j, c in enumerate(tail):
        if c in (0, 1):
            yield coords[: 2 + j] + (c - 1,) + coords[3 + j :], f"+E{j + 1}"
    if a >= -1 and b - 1 >= -1:
        # guard for +F on the stripped class: F.(D-F) = a >= -1
        yield (a, b - 1) + tail, "+F"
    if a - 1 >= -1 and b - (a - 1) * e >= e - 1:
        # guard for +E: E.(D-E) = b - (a-1)e >= e-1
        yield (a - 1, b) + tail, "+E"


def _derivable_blf(coords, e: int) -> bool:
    """The closed form above."""
    a, b, tail = coords[0], coords[1], coords[2:]
    negative = tail.count(-1)
    if max(tail) > 1 or min(tail) < -1 or negative > 1:
        return False
    if a == -1:
        return not negative
    return a >= 0 and b >= a * e - 1 and (b >= 0 or not negative)


def _derive(coords, stock, strips, derivable, param) -> tuple[str, ...] | None:
    """Derivation trail (start class, then moves) of ``coords``, else None.

    ``stock(c)``, ``strips(c, param)`` and ``derivable(c, param)`` are the
    family's rules; ``param`` is e on blowups of F_e and None on blowups of
    the plane.  Each step un-applies a legal move, so a returned trail is a
    derivation whatever ``derivable`` says; a derivable state with no
    derivable predecessor would prove the closed form wrong, and raises.
    """
    if not derivable(coords, param):
        return None
    moves = []
    while any(coords) and not stock(coords):
        for pred, move in strips(coords, param):
            if derivable(pred, param):
                break
        else:
            raise RuntimeError(f"derivable state {_coords_repr(coords)} has no derivable predecessor")
        moves.append(move)
        coords = pred
    return (f"start {_coords_repr(coords)}",) + tuple(reversed(moves))


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


def vanishing_by_rules(D: DivisorClass) -> VanishingVerdict:
    """Sufficient vanishing rules on blowups; never asserts a false Zero.

    On k <= 8 general points (del Pezzo models included) the verdict is
    exact, read off the Cremona vector: ``higher_cohomology`` is ZERO iff
    h1 = h2 = 0 and ``all_cohomology`` ZERO iff the vector is zero, else
    NONZERO.  Elsewhere ``all_cohomology`` is ZERO only for the stock
    classes themselves; ``higher_cohomology`` is ZERO exactly when a closure
    derivation exists, decided by the family's closed form, and the
    derivation found by the greedy walk of ``_derive`` is returned.  NONZERO
    answers are emitted only for cheap sound certificates (negative Euler
    characteristic, or an obviously effective class/Serre dual).  Nothing is
    cached: a call costs one closed-form test and, for a derivable class,
    one walk along its trail.
    """
    s = D.surface
    if _has_cremona_vector(s):
        vec = _cremona_vector(D.coords)
        higher = Vanishing.ZERO if vec.higher_vanishes else Vanishing.NONZERO
        all_c = Vanishing.ZERO if vec.as_tuple() == (0, 0, 0) else Vanishing.NONZERO
        return VanishingVerdict(higher, all_c, (_CREMONA_NOTE,))
    if s.is_blowup_p2_like:
        stock, strips, derivable, param = _is_stock_blp2, _strips_blp2, _derivable_blp2, None
    elif s.is_blowup_hirzebruch:
        stock, strips, derivable, param = _is_stock_blf, _strips_blf, _derivable_blf, s.e
    else:
        raise LatticeError(f"vanishing rules are not available on {s}")

    if stock(D.coords):
        return VanishingVerdict(Vanishing.ZERO, Vanishing.ZERO, ("stock class",))

    trail = _derive(D.coords, stock, strips, derivable, param)
    chi = chi_line_bundle(D)
    if trail is not None:
        all_c = Vanishing.UNKNOWN
        if _obviously_effective(D) or chi > 0:
            all_c = Vanishing.NONZERO  # h0 = chi > 0 once higher vanishes
        return VanishingVerdict(Vanishing.ZERO, all_c, trail)

    higher = Vanishing.UNKNOWN
    notes: tuple[str, ...] = ()
    if chi < 0:
        higher, notes = Vanishing.NONZERO, ("chi < 0 forces h1 > 0",)
    elif _obviously_effective(canonical(s) - D):
        higher, notes = Vanishing.NONZERO, ("K - D effective forces h2 > 0",)
    all_c = Vanishing.NONZERO if (higher is Vanishing.NONZERO or _obviously_effective(D)) else Vanishing.UNKNOWN
    return VanishingVerdict(higher, all_c, notes)


# ---------------------------------------------------------------------------
# Interpolation oracle on blowups of the plane
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)  # a process uses a few moduli: the default, an override, explicit ones
def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):  # exact below 3.3e24
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _resolve_prime(prime: int | None, degree: int) -> int:
    if prime is None:
        raw = os.environ.get(ORACLE_PRIME_ENV, str(DEFAULT_ORACLE_PRIME))
        try:
            prime = int(raw)
        except ValueError:
            raise OracleError(f"{ORACLE_PRIME_ENV}={raw!r} is not an integer") from None
    if not _is_prime(prime):
        raise OracleError(f"oracle modulus {prime} is not prime")
    if prime <= max(degree, 1000):
        raise OracleError(f"oracle modulus {prime} too small for degree {degree}")
    if prime >= 1 << 31:  # any cap below 3.3e24 keeps _is_prime exact; this one keeps --prime as it was
        raise OracleError(f"oracle modulus {prime} is not below 2^31")
    return prime


def _frame(surface: SurfaceModel, mults) -> tuple[int, ...]:
    """Indices of the points placed at [0:0:1], [1:0:0] and [0:1:0], in that order.

    PGL3 moves any three non-collinear points to the coordinate points, so a
    sample with points there is still a configuration of the surface's type.
    Points are taken heaviest first, ties by index: the three heaviest of
    general points; on collinear points the two heaviest listed ones (their
    line is then y = 0) and the heaviest unlisted one, if any.  Explicit
    points keep their coordinates: the frame is empty.
    """
    config = surface.config
    order = sorted(range(surface.k), key=lambda i: (-mults[i], i))
    if config.kind == "general":
        return tuple(order[:3])
    if config.kind == "collinear":
        on_line = [i for i in order if i + 1 in config.collinear]
        off_line = [i for i in order if i + 1 not in config.collinear]
        return tuple(on_line[:2] + off_line[:1])
    return ()


def _frame_columns(d: int, frame_mults) -> list[tuple[int, int]]:
    """The monomials x^a y^b z^(d-a-b) left free by the frame, as pairs (a, b)
    ordered by a, then b.

    At a coordinate point a multiplicity condition kills single monomials:
    x^a y^b z^c vanishes to order a + b at [0:0:1], b + c = d - a at
    [1:0:0] and a + c = d - b at [0:1:0], so a point of multiplicity m
    there kills the monomials of order < m and imposes nothing else.
    """
    m0, mx, my = tuple(frame_mults) + (0,) * (3 - len(frame_mults))
    return [(a, b) for a in range(d - mx + 1) for b in range(max(0, m0 - a), min(d - a, d - my) + 1)]


def _sample_points(surface: SurfaceModel, frame, p: int, seed: int, trial: int) -> list[tuple[int, int]]:
    """Deterministic distinct affine points over F_p, one per point outside ``frame``.

    The points come in index order and avoid the frame's (0, 0): general
    points are uniform, listed collinear points lie on the frame's line
    y = 0 and unlisted points off it.  Explicit points are reduced mod p.
    """
    config = surface.config
    if config.kind == "explicit":
        pts = [(x % p, y % p) for x, y in config.points]
        if len(set(pts)) != len(pts):
            raise OracleError("explicit points collide after reduction mod p")
        return pts
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
    return pts


def _fat_point_matrix(d: int, mults, points, p: int, cols) -> list[list[int]]:
    """Rows impose vanishing of all Taylor coefficients of order < mult.

    Columns run over the monomials x^a y^b z^(d-a-b) of ``cols``, pairs
    (a, b) of total degree a + b <= d, evaluated on the affine chart z = 1;
    the row for derivative order (u, v) at (x0, y0) has entry
    C(a,u) C(b,v) x0^(a-u) y0^(b-v), reduced mod p.  With
    X[u][a] = C(a,u) x0^(a-u) and Y[v][b] = C(b,v) y0^(b-v) mod p (zero for
    a < u or b < v, so orders above d give zero rows), the entry is
    X[u][a] Y[v][b] mod p.
    """
    rows = []
    for (x0, y0), m in zip(points, mults):
        x, y = (
            [[math.comb(a, u) * pow(z0, a - u, p) % p if a >= u else 0 for a in range(d + 1)] for u in range(m)]
            for z0 in (x0, y0)
        )
        rows += ([xu[a] * yv[b] % p for a, b in cols] for u, xu in enumerate(x) for yv in y[: m - u])
    return rows


def _line_h0(d: int, frame_mults, line_mults) -> int:
    """Nullity of the framed matrix when every sampled point lies on y = 0.

    The row of order (u, v) at (x0, 0) has entry C(a,u) x0^(a-u) [b = v],
    so the rows split by the y-degree b of the kept monomials x^a y^b, which
    run over b <= d - my and lo_b <= a <= hi_b (see ``_frame_columns``).  On
    layer b a point of multiplicity m imposes the Hasse derivatives of order
    < m - b in x; at distinct nonzero x0, where x^lo_b is a unit, these are
    independent Hermite conditions on a polynomial of degree <= hi_b - lo_b
    (Chinese remainders), over every F_p.  So each layer's nullity is its
    width less its conditions, or 0.
    """
    m0, mx, my = tuple(frame_mults) + (0,) * (3 - len(frame_mults))
    return sum(
        max(0, min(d - b, d - mx) - max(0, m0 - b) + 1 - sum(max(0, m - b) for m in line_mults))
        for b in range(d - my + 1)
    )


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
    line = (1,) + tuple(-(i in s.config.collinear) for i in range(1, s.k + 1))
    curves = [line] + [C for C in neg_one_classes(s.k) if form(s, C, line) >= 0]
    while coords[0] >= 0:
        C = next((C for C in curves if form(s, coords, C) < 0), None)
        if C is None:
            return max(0, _chi_plane(coords[0], [-c for c in coords[1:]]))
        coords = tuple(a - b for a, b in zip(coords, C))
    return 0


def _h0_lower_bound(D: DivisorClass) -> int:
    """A lower bound for h0(O(D)) at every configuration of the surface's type.

    On k <= 8 general points it is the generic h0 of ``_cremona_h0``, which
    every configuration reaches or exceeds (semicontinuity); on k <= 8
    collinear points it is ``_collinear_h0_bound``; elsewhere it is 0.
    """
    s = D.surface
    if _has_cremona_vector(s):
        return _cremona_h0(D.coords)
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


def _cremona_centres(pts, d: int, p: int):
    """The heaviest triple of ``pts`` (sorted heaviest first) whose
    multiplicities sum above d and at which a quadratic transformation
    centred there is an isomorphism of the blowup: its points are not
    collinear and no other point lies on the three lines through them.
    Returns the triple's positions and its lines (bc, ca, ab), or None.
    """
    n = len(pts)
    if n < 3 or pts[0][0] + pts[1][0] + pts[2][0] <= d:
        return None
    triples = sorted(
        (t for t in itertools.combinations(range(n), 3) if pts[t[0]][0] + pts[t[1]][0] + pts[t[2]][0] > d),
        key=lambda t: -(pts[t[0]][0] + pts[t[1]][0] + pts[t[2]][0]),
    )  # stable: ties keep the heaviest-first order
    for t in triples:
        a, b, c = (pts[j][2] for j in t)
        lines = (_join(b, c, p), _join(c, a, p), _join(a, b, p))
        if _dot(lines[0], a, p) and not any(
            _dot(line, pts[j][2], p) == 0 for j in range(n) if j not in t for line in lines
        ):
            return t, lines
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
    component.  Then, while some triple qualifies (``_cremona_centres``),
    the heaviest one is moved to the coordinate points and
    (x:y:z) -> (yz:xz:xy) is applied.  That is an isomorphism of the
    surface blown up at this very sample onto the blowup at the image
    points, carrying D to d' = 2d - m_a - m_b - m_c with m'_a = d - m_b - m_c
    at the image of the line bc; a negative m'_a makes that exceptional
    curve a fixed component, so it is clamped to 0.  Each step keeps the
    value, so it is the framed nullity of the unreduced class at the same
    sample, over every F_p.  Every step lowers d.  The result is framed at its heaviest
    qualifying triple.  A sample that takes no step, or whose reduced
    class has three or more points and no qualifying triple, returns None.
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
        found = _cremona_centres(pts, d, p)
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
    found = _cremona_centres(pts, -1, p)
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
    points, ``rest`` at the affine ``points``."""
    if d < 0:
        return 0
    cols = _frame_columns(d, frame_mults)
    if not any(rest):
        return len(cols)
    return modp_nullity(_fat_point_matrix(d, rest, points, p, cols), p)


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
    the same for every seed, number of trials and prime.  Nothing is
    cached: each trial's points are seeded by (seed, trial, k, prime), so
    a repeated call recomputes the same value.
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
    kept = len(_frame_columns(d, frame_mults))
    if kept == 0 or not any(rest):
        return kept
    if config.kind == "explicit":
        trials = 1  # the same points on every trial
    listed = {i - 1 for i in config.collinear} if config.kind == "collinear" else set()
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
    """Full cohomology vector from two interpolations and Riemann-Roch.

    h2 is h0 of the Serre-dual class K - D, and h1 closes the Euler
    characteristic.  The two interpolations may place their frames at
    different points, which loses nothing: D and K - D have degrees d and
    -3 - d, so at most one of them is sampled at all.  Each stops its
    trials early only where no further trial could lower its minimum, and
    each Cremona-reduces its samples, which keeps every sample's value (see
    ``interpolation_h0``), so the vector is the one all trials of the
    unreduced framed matrices would give.
    """
    h0 = interpolation_h0(D, seed=seed, trials=trials, prime=prime)
    h2 = interpolation_h0(canonical(D.surface) - D, seed=seed, trials=trials, prime=prime)
    h1 = h0 + h2 - chi_line_bundle(D)
    if h1 < 0:
        raise OracleError(f"inconsistent oracle sample for {D} (h1 = {h1} < 0); retry with another seed")
    return CohomologyVector(h0, h1, h2)


def certified_cohomology(D: DivisorClass) -> tuple[CohomologyVector | None, str]:
    """Cohomology of O(D) where it is certified without the oracle.

    Returns ``(vector, "exact")`` on Hirzebruch surfaces and on blowups of
    the plane at k <= 8 general points (Cremona reduction, before any rule
    search), ``((chi, 0, 0), "rules")`` on other blowups once the vanishing
    rules derive h1 = h2 = 0, and ``(None, "undecided")`` otherwise.
    """
    s = D.surface
    if s.is_hirzebruch:
        return hirzebruch_cohomology(D), "exact"
    if _has_cremona_vector(s):
        return _cremona_vector(D.coords), "exact"
    if vanishing_by_rules(D).higher_cohomology is Vanishing.ZERO:
        return CohomologyVector(chi_line_bundle(D), 0, 0), "rules"
    return None, "undecided"


def line_bundle_cohomology(D: DivisorClass, *, seed: int = 0, trials: int = 3) -> tuple[CohomologyVector | None, str]:
    """Cohomology of O(D) by the strongest route available.

    The certified vector of ``certified_cohomology`` (``"exact"`` or
    ``"rules"``), else on blowups of the plane the oracle's upper bounds
    (``"oracle"``), else ``(None, "undecided")``.
    """
    vec, how = certified_cohomology(D)
    if vec is None and D.surface.is_blowup_p2_like:
        return blowup_cohomology_oracle(D, seed=seed, trials=trials), "oracle"
    return vec, how


def higher_cohomology_vanishes(D: DivisorClass, *, seed: int = 0, trials: int = 3) -> tuple[bool, str]:
    """``line_bundle_cohomology`` with the rules' Nonzero before the oracle;
    returns (verdict, provenance note)."""
    vec, how = certified_cohomology(D)
    if vec is None:
        if vanishing_by_rules(D).higher_cohomology is Vanishing.NONZERO:
            return False, "rules"
        vec, how = line_bundle_cohomology(D, seed=seed, trials=trials)
    return vec is not None and vec.higher_vanishes, how
