"""Picard lattices of rational surfaces: divisor arithmetic and cone/Weyl tools.

Every fixed ordered basis is a head followed by the exceptional classes
``E1, ..., Ek`` (``Ei.Ej = -delta_ij``, orthogonal to the head), and rank,
basis, canonical class and intersection form are each read off the head:

* ``(L)`` with ``L^2 = 1``: blowups of the plane at ``k`` distinct points,
  and del Pezzo surfaces of degree ``4 <= d <= 7`` (``9 - d`` general
  points, with the (-1)-curve and nef-cone machinery enabled);
* ``(E, F)`` with ``E^2 = -e``, ``E.F = 1``, ``F^2 = 0``: the Hirzebruch
  surface ``F_e`` (``k = 0``) and its blowup (``e >= 2``) at ``k`` points
  off the negative section.

The arithmetic runs on coordinate tuples (``form``, ``is_nef_coords``,
``neg_one_classes``, ``reflect``, ``curve_word``);
``DivisorClass`` wraps it.  Of the Weyl group of a blowup of the plane the
library uses reflections in single roots and ``curve_word``, the word that
carries a (-1)-curve of a del Pezzo model to the last exceptional class.
Construction validates (length and integer coordinates) at the public
entry points: ``DivisorClass(...)``, ``divisor``, ``parse_divisor``,
``basis_divisor`` and scalar multiples.  Sums, differences and negatives
of classes on one surface, and reflections of a class in a root, are ints
of the right length by construction and are wrapped unchecked.

On a del Pezzo model the nef cone is cut out by the (-1)-curves, and these
come in three families (Harbourne 1986), so with the multiplicities
``m_i = -c_i`` sorted decreasingly, ``dL - sum m_i E_i`` is nef iff

* ``m_k >= 0`` (the exceptional curves ``E_i``),
* ``d >= m_1 + m_2`` (the lines ``L - E_i - E_j``),
* ``2d >= m_1 + ... + m_5`` when ``k = 5`` (the conic ``2L - E_1 - ... - E_5``).

All arithmetic is on Python integers.  There is one divisor type: a slope
c1/r is never formed, because every slope inequality callers need is an
integer inequality on (r, c1) once multiplied through by r > 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add, mul, neg, sub
from typing import NamedTuple


class LatticeError(ValueError):
    """Raised for unsupported surfaces or malformed lattice data."""


class ParseError(ValueError):
    """Raised when a divisor expression or surface spec does not parse."""

    def __init__(self, message: str, fragment: str = ""):
        self.fragment = fragment
        super().__init__(message if not fragment else f"{message} (at {fragment!r})")


@dataclass(frozen=True)
class PointConfig:
    """Position data for the blown-up points.

    ``general`` points are sampled uniformly at random, ``collinear`` forces
    the listed (1-based) indices onto a common line, ``explicit`` uses the
    given affine coordinates over the oracle's finite field.
    """

    kind: str = "general"
    collinear: tuple[int, ...] = ()
    points: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in ("general", "collinear", "explicit"):
            raise LatticeError(f"unknown point configuration kind {self.kind!r}")


GENERAL = PointConfig()


class _Head(NamedTuple):
    """The basis before E1..Ek; ``gram`` holds the nonzero (i, j, value)."""

    symbols: tuple[str, ...]
    gram: tuple[tuple[int, int, int], ...]
    canonical: tuple[int, ...]


def collinear_config(indices) -> PointConfig:
    idx = tuple(sorted(int(i) for i in indices))
    if len(idx) < 2 or len(set(idx)) != len(idx):
        raise LatticeError("collinear configuration needs at least two distinct indices")
    if idx[0] < 1:
        raise LatticeError("collinear indices count the points from 1")
    return PointConfig("collinear", collinear=idx)


def explicit_config(points) -> PointConfig:
    pts = tuple((int(x), int(y)) for x, y in points)
    if len(set(pts)) != len(pts):
        raise LatticeError("explicit points must be pairwise distinct")
    return PointConfig("explicit", points=pts)


@dataclass(frozen=True)
class SurfaceModel:
    """A rational surface together with its fixed Picard basis."""

    kind: str  # "hirzebruch" | "blowup_p2" | "blowup_hirzebruch" | "del_pezzo"
    e: int = 0
    k: int = 0
    config: PointConfig = GENERAL

    def __post_init__(self):
        if self.kind == "hirzebruch":
            if self.e < 0:
                raise LatticeError("Hirzebruch parameter e must be nonnegative")
        elif self.kind == "blowup_p2":
            if self.k < 1:
                raise LatticeError("blowup of the plane needs at least one point")
            if self.config.kind == "collinear" and (
                not self.config.collinear
                or min(self.config.collinear) < 1
                or max(self.config.collinear) > self.k
            ):
                raise LatticeError("collinear indices out of range")
            if self.config.kind == "explicit" and len(self.config.points) != self.k:
                raise LatticeError("explicit configuration must list one point per blowup")
        elif self.kind == "blowup_hirzebruch":
            if self.e < 2:
                raise LatticeError("blowup of a Hirzebruch surface assumes e >= 2")
            if self.k < 1:
                raise LatticeError("blowup of a Hirzebruch surface needs at least one point")
        elif self.kind == "del_pezzo":
            if not 4 <= 9 - self.k <= 7:
                raise LatticeError("del Pezzo surfaces are supported in degrees 4..7")
        else:
            raise LatticeError(f"unknown surface kind {self.kind!r}")

    # -- classification helpers -------------------------------------------------

    @property
    def is_hirzebruch(self) -> bool:
        return self.kind == "hirzebruch"

    @property
    def is_del_pezzo(self) -> bool:
        return self.kind == "del_pezzo"

    @property
    def is_blowup_p2_like(self) -> bool:
        """True for blowups of the plane, including del Pezzo models."""
        return self.kind in ("blowup_p2", "del_pezzo")

    @property
    def is_blowup_hirzebruch(self) -> bool:
        return self.kind == "blowup_hirzebruch"

    @property
    def degree(self) -> int:
        if not self.is_del_pezzo:
            raise LatticeError("degree is defined for del Pezzo models only")
        return 9 - self.k

    # cached per model: ``form`` reads the head on every call, and
    # DivisorClass reads ``rank`` on every construction
    @cached_property
    def _head(self) -> _Head:
        if self.is_blowup_p2_like:
            return _Head(("L",), ((0, 0, 1),), (-3,))
        gram = ((0, 0, -self.e), (0, 1, 1), (1, 0, 1))
        return _Head(("E", "F"), tuple(t for t in gram if t[2]), (-2, -(self.e + 2)))

    # K per model rather than in a module-level cache keyed by the model,
    # so reading it costs no hash of the dataclass
    @cached_property
    def _canonical(self) -> "DivisorClass":
        return DivisorClass(self, self._head.canonical + (1,) * self.k)

    # hashed once per model: every DivisorClass used as a key hashes its
    # surface, and the generated hash would rehash the fields and the config
    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.kind, self.e, self.k, self.config))

    def __getstate__(self):
        # str hashes are salted per process, so the cached hash is not pickled
        return {key: val for key, val in self.__dict__.items() if key != "_hash"}

    @cached_property
    def rank(self) -> int:
        return len(self._head.symbols) + self.k

    @cached_property
    def basis(self) -> tuple[str, ...]:
        return self._head.symbols + tuple(f"E{i}" for i in range(1, self.k + 1))

    def basis_index(self, symbol: str) -> int:
        try:
            return self.basis.index(symbol)
        except ValueError:
            raise ParseError(
                f"symbol {symbol!r} is not in the basis {'/'.join(self.basis)} of {self.spec()}",
                symbol,
            ) from None

    def spec(self) -> str:
        """The surface in the CLI spec-string format."""
        if self.is_hirzebruch:
            return f"F{self.e}"
        if self.is_del_pezzo:
            return f"dp{self.degree}"
        if self.kind == "blowup_p2":
            base = f"blp2:k={self.k}"
            if self.config.kind == "collinear":
                base += ":collinear=" + ",".join(str(i) for i in self.config.collinear)
            return base
        return f"blF{self.e}:k={self.k}"

    def __str__(self) -> str:
        return self.spec()


def hirzebruch(e: int) -> SurfaceModel:
    return SurfaceModel("hirzebruch", e=e)


def blowup_p2(k: int, config: PointConfig = GENERAL) -> SurfaceModel:
    return SurfaceModel("blowup_p2", k=k, config=config)


def blowup_hirzebruch(e: int, k: int) -> SurfaceModel:
    return SurfaceModel("blowup_hirzebruch", e=e, k=k)


@lru_cache(maxsize=4)  # one model per degree 4..7, so its cached head is reused
def del_pezzo(degree: int) -> SurfaceModel:
    if not 4 <= degree <= 7:
        raise LatticeError("del Pezzo surfaces are supported in degrees 4..7")
    return SurfaceModel("del_pezzo", k=9 - degree)


# ---------------------------------------------------------------------------
# Divisor classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivisorClass:
    """An integral divisor class, as a coordinate vector in the fixed basis."""

    surface: SurfaceModel
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.surface.rank:
            raise LatticeError(
                f"expected {self.surface.rank} coordinates on {self.surface}, got {len(self.coords)}"
            )
        if not all(isinstance(c, int) for c in self.coords):
            raise LatticeError("divisor coordinates must be integers")

    # sums, differences and negatives of integral classes on one surface are
    # ints of the right length, so they skip the check (see the module docstring)
    def __add__(self, other):
        _require_same_surface(self, other)
        return _integral(self.surface, tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other):
        _require_same_surface(self, other)
        return _integral(self.surface, tuple(map(sub, self.coords, other.coords)))

    def __neg__(self):
        return _integral(self.surface, tuple(map(neg, self.coords)))

    def __mul__(self, scalar):
        return DivisorClass(self.surface, tuple(scalar * a for a in self.coords))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def __str__(self) -> str:
        return divisor_expr(self)


def _integral(surface: SurfaceModel, coords: tuple) -> DivisorClass:
    """Wrap coordinates known to be ``surface.rank`` ints, without the check."""
    D = object.__new__(DivisorClass)
    object.__setattr__(D, "surface", surface)  # as the frozen dataclass's __init__ does,
    object.__setattr__(D, "coords", coords)  # which keeps the compact instance layout
    return D


def _require_same_surface(d1, d2):
    if d1.surface is not d2.surface and d1.surface != d2.surface:
        raise LatticeError(f"divisors live on different surfaces: {d1.surface} vs {d2.surface}")


def divisor(surface: SurfaceModel, *coords) -> DivisorClass:
    return DivisorClass(surface, tuple(int(c) for c in coords))


def basis_divisor(surface: SurfaceModel, symbol: str) -> DivisorClass:
    coords = [0] * surface.rank
    coords[surface.basis_index(symbol)] = 1
    return DivisorClass(surface, tuple(coords))


def zero_divisor(surface: SurfaceModel) -> DivisorClass:
    return DivisorClass(surface, (0,) * surface.rank)


# ---------------------------------------------------------------------------
# Intersection theory
# ---------------------------------------------------------------------------


def form(surface: SurfaceModel, u, v) -> int:
    """The intersection form on integer coordinate tuples."""
    head = surface._head
    n = len(head.symbols)
    val = -sum(map(mul, u[n:], v[n:]))
    for i, j, g in head.gram:
        val += u[i] * v[j] if g == 1 else g * u[i] * v[j]
    return val


def intersect(d1: DivisorClass, d2: DivisorClass) -> int:
    """Value of the intersection form."""
    _require_same_surface(d1, d2)
    return form(d1.surface, d1.coords, d2.coords)


def canonical(surface: SurfaceModel) -> DivisorClass:
    """The canonical class in the fixed basis."""
    return surface._canonical


def chi_line_bundle(D: DivisorClass) -> int:
    """Euler characteristic of O(D) by Riemann-Roch: 1 + (D^2 - D.K)/2."""
    twice = 2 + intersect(D, D) - intersect(D, canonical(D.surface))
    if twice % 2:
        raise LatticeError(f"non-integral Euler characteristic for {D}")
    return twice // 2


# The (-1)-classes dL - sum m_i E_i (C^2 = -1, -K.C = 1) of the plane blown up
# at k <= 8 general points, by type: the degree d, then the multiplicity m and
# count n of the points of each of at most two groups.  E_i is the type with
# d = 0 and one point of multiplicity -1.
_NEG_ONE_TYPES = (
    (0, (-1, 1), (0, 0)),  # exceptional curves
    (1, (1, 2), (0, 0)),  # lines through two points
    (2, (1, 5), (0, 0)),  # conics through five
    (3, (2, 1), (1, 6)),  # cubics double at one point, through six more
    (4, (2, 3), (1, 5)),
    (5, (2, 6), (1, 2)),
    (6, (3, 1), (2, 7)),
)


@lru_cache(maxsize=8)  # one table per k = 1..8
def neg_one_classes(k: int) -> tuple[tuple[int, ...], ...]:
    """Coordinates of the (-1)-classes on the plane blown up at k <= 8 points.

    Types in the order of ``_NEG_ONE_TYPES``, and within a type the points
    of each group as ``itertools.combinations`` yields them: exceptional
    curves first, then lines through two points, then conics through five,
    and so on.  At general points these are the (-1)-curves; at k = 2..8
    there are 3/6/10/16/27/56/240 of them.
    """
    if not 1 <= k <= 8:
        raise LatticeError(f"(-1)-classes are tabulated for 1 <= k <= 8, not k = {k}")
    classes = []
    for degree, (m1, n1), (m2, n2) in _NEG_ONE_TYPES:
        for first in itertools.combinations(range(k), n1):
            for second in itertools.combinations([i for i in range(k) if i not in first], n2):
                tail = tuple(-m1 if i in first else -m2 if i in second else 0 for i in range(k))
                classes.append((degree,) + tail)
    return tuple(classes)


def neg_one_curves(surface: SurfaceModel) -> tuple[DivisorClass, ...]:
    """The (-1)-curves of a del Pezzo model, in the order of ``neg_one_classes``.

    Exceptional curves first, then lines through two of the points, then the
    conic through five points when it exists.  Each class C satisfies
    C^2 = -1 and -K.C = 1; in degrees 7/6/5/4 there are 3/6/10/16 of them.
    """
    if not surface.is_del_pezzo:
        raise LatticeError("(-1)-curve enumeration is implemented for del Pezzo models")
    return tuple(DivisorClass(surface, c) for c in neg_one_classes(surface.k))


def is_nef_coords(surface: SurfaceModel, coords) -> bool:
    """Nef test on coordinates.

    On F_e the effective cone is spanned by E and F, so nef means D.E and
    D.F >= 0 (equivalently, D lies in the cone spanned by F and E + eF).
    On a del Pezzo model a class is nef iff it meets every (-1)-curve
    nonnegatively; with the multiplicities m_i = -c_i sorted decreasingly,
    the exceptional curves give m_k >= 0, the lines through two points give
    d >= m_1 + m_2, and on five points the conic gives 2d >= m_1 + ... + m_5
    (the three families of ``neg_one_classes``).  Other models are refused
    rather than guessed at.
    """
    if surface.is_hirzebruch:
        return all(form(surface, coords, C) >= 0 for C in ((1, 0), (0, 1)))
    if not surface.is_del_pezzo:
        raise LatticeError(f"nef testing is not supported on {surface}")
    d = coords[0]
    m = sorted((-c for c in coords[1:]), reverse=True)
    return m[-1] >= 0 and d >= m[0] + m[1] and (surface.k != 5 or 2 * d >= sum(m))


def is_nef(D: DivisorClass) -> bool:
    """Nef test (see ``is_nef_coords``)."""
    return is_nef_coords(D.surface, D.coords)


# ---------------------------------------------------------------------------
# Weyl group action on blowups of the plane
# ---------------------------------------------------------------------------


def _check_root(root: DivisorClass) -> None:
    if not root.surface.is_blowup_p2_like:
        raise LatticeError("Weyl reflections act on blowups of the plane")
    K = canonical(root.surface)
    if intersect(root, root) != -2 or intersect(root, K) != 0:
        raise LatticeError(
            f"{root} is not a reflection root (expected Ei-Ej or L-Ei-Ej-Em, with square -2)"
        )


def reflect(surface: SurfaceModel, coords, root) -> tuple:
    """Reflection s(D) = D + (D.root) root on coordinate tuples."""
    t = form(surface, coords, root)
    return tuple(a + t * b for a, b in zip(coords, root)) if t else tuple(coords)


def weyl_reflect(D: DivisorClass, root: DivisorClass) -> DivisorClass:
    """Reflection s(D) = D + (D.root) root in a (-2)-root orthogonal to K."""
    _require_same_surface(D, root)
    _check_root(root)
    return _integral(D.surface, reflect(D.surface, D.coords, root.coords))


def transposition_root(surface: SurfaceModel, i: int, j: int) -> DivisorClass:
    return basis_divisor(surface, f"E{i}") - basis_divisor(surface, f"E{j}")


def cremona_root(surface: SurfaceModel, i: int, j: int, m: int) -> DivisorClass:
    L = basis_divisor(surface, "L")
    return (
        L
        - basis_divisor(surface, f"E{i}")
        - basis_divisor(surface, f"E{j}")
        - basis_divisor(surface, f"E{m}")
    )


# one entry per (-1)-curve of a del Pezzo model: at most 3 + 6 + 10 + 16
@lru_cache(maxsize=35)
def curve_word(surface: SurfaceModel, curve: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """A reflection word w with w(C) = E_k, as root coordinate tuples, for a
    (-1)-curve C = ``curve`` of ``neg_one_classes(surface.k)`` on a del Pezzo
    model with k >= 3.

    Greedy Cremona reduction on the curve's degree: a conic class drops to a
    line class, a line class to an exceptional one, and a transposition
    finishes.  The caller passes a class of that table.
    """
    k = surface.k
    word: list[tuple[int, ...]] = []
    cur = curve
    while True:
        deg = cur[0]
        hit = [i for i in range(1, k + 1) if cur[i] < 0]
        if deg == 0:
            # cur = E_i for some i, and a transposition finishes
            i = cur.index(1)
            if i == k:
                break
            root = transposition_root(surface, i, k)
        elif deg == 1:
            # L - E_i - E_j reflects to E_m in the root L - E_i - E_j - E_m
            i, j = hit
            m = k if k not in hit else min(x for x in range(1, k + 1) if x not in hit)
            root = cremona_root(surface, i, j, m)
        else:
            # the conic hits five points; a root on three of them (keeping
            # E_k inside so the leftover line misses it) drops the degree
            triple = ([k] if k in hit else [])[:1] + [i for i in hit if i != k]
            root = cremona_root(surface, *sorted(triple[:3]))
        word.append(root.coords)
        cur = reflect(surface, cur, root.coords)
    assert cur == basis_divisor(surface, f"E{k}").coords, f"normalization of {curve} failed"
    return tuple(word)


# ---------------------------------------------------------------------------
# Expression grammar
# ---------------------------------------------------------------------------


def parse_divisor(text: str, surface: SurfaceModel) -> DivisorClass:
    """Parse an expression like ``3L-2E1-E2`` or ``2E+3F`` in the surface basis.

    Terms are joined by +/-, each an optional positive coefficient followed
    by a basis symbol; a bare ``0`` term is allowed; whitespace is ignored.
    """
    s = "".join(text.split())
    if not s:
        raise ParseError("empty divisor expression")
    coords = [0] * surface.rank
    pos = 0
    while pos < len(s):
        sign = 1
        if s[pos] in "+-":
            sign = -1 if s[pos] == "-" else 1
            pos += 1
        start = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        digits = s[start:pos]
        if pos < len(s) and s[pos] in "LEF":
            symbol = s[pos]
            pos += 1
            if symbol == "E":
                sub = pos
                while pos < len(s) and s[pos].isdigit():
                    pos += 1
                symbol += s[sub:pos]
        elif digits == "0":
            continue  # bare zero term
        else:
            raise ParseError(
                "expected <coefficient?><symbol> with symbol one of "
                + "/".join(surface.basis),
                s[start : start + 8] or s[max(0, start - 1) :][:8],
            )
        coeff = int(digits) if digits else 1
        coords[surface.basis_index(symbol)] += sign * coeff
    return DivisorClass(surface, tuple(coords))


def divisor_expr(D: DivisorClass) -> str:
    """Render a divisor class back into the expression grammar."""
    parts = []
    for coeff, sym in zip(D.coords, D.surface.basis):
        if coeff == 0:
            continue
        mag = abs(coeff)
        mag_str = "" if mag == 1 else str(mag)
        parts.append(("-" if coeff < 0 else "+", f"{mag_str}{sym}"))
    if not parts:
        return "0"
    head_sign, head = parts[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, term in parts[1:]:
        out += sign + term
    return out


def parse_surface(text: str) -> SurfaceModel:
    """Parse a surface spec: ``F<e>``, ``blp2:k=<k>[:collinear=i,j,...]``,
    ``blF<e>:k=<k>`` or ``dp<degree>``."""
    try:
        return _parse_surface(text)
    except LatticeError as exc:
        raise ParseError(str(exc), text.strip()) from None


def _parse_surface(text: str) -> SurfaceModel:
    s = text.strip()
    if s.startswith("dp"):
        tail = s[2:]
        if not tail.isdigit():
            raise ParseError("expected dp<degree> with degree 4..7", s)
        return del_pezzo(int(tail))
    if s.startswith("blF"):
        head, sep, tail = s.partition(":")
        e_part = head[3:]
        if not e_part.isdigit() or not sep or not tail.startswith("k="):
            raise ParseError("expected blF<e>:k=<k>", s)
        if not tail[2:].isdigit():
            raise ParseError("expected blF<e>:k=<k>", tail)
        return blowup_hirzebruch(int(e_part), int(tail[2:]))
    if s.startswith("blp2"):
        fields = s.split(":")
        if len(fields) < 2 or not fields[1].startswith("k=") or not fields[1][2:].isdigit():
            raise ParseError("expected blp2:k=<k>[:collinear=i,j,...]", s)
        k = int(fields[1][2:])
        config = GENERAL
        for field in fields[2:]:
            if field.startswith("collinear="):
                if config is not GENERAL:
                    raise ParseError("option 'collinear' given twice", field)
                try:
                    config = collinear_config(int(i) for i in field[10:].split(","))
                except (ValueError, LatticeError) as exc:
                    raise ParseError(f"bad collinear index list: {exc}", field) from None
            else:
                raise ParseError("unknown surface option", field)
        return blowup_p2(k, config)
    if s.startswith("F"):
        tail = s[1:]
        if not tail.isdigit():
            raise ParseError("expected F<e> with e >= 0", s)
        return hirzebruch(int(tail))
    raise ParseError("expected F<e>, blp2:k=<k>[:collinear=...], blF<e>:k=<k> or dp<degree>", s)
