"""Chern characters of positive rank: pairings, duals, discriminants, Bogomolov.

A character is the triple (r, c1, ch2) with r >= 1, c1 an integral divisor
class and ch2 a rational with denominator dividing 2.  The Euler
characteristic is chi = r - c1.K/2 + ch2; every construction here is exact,
and helpers that must produce integers raise instead of rounding.

A character stores ch2 only as the integer t = 2 ch2:
``ChernCharacter(r, c1, twice_ch2=t)``, so every t is a valid ch2 and the
half-integer check sits in ``parse_character``, where a rational ch2 comes
in from outside.  Euler characteristics and pairings are computed on
integers scaled by 2, the discriminant on integers scaled by 2r^2, and
twists and duals move t directly; a ``Fraction`` is built only where a
public value is one (the ``ch2`` property, ``riemann_roch_chi``,
``euler_pairing``, ``discriminant``) or a message prints one;
``twice_euler_pairing`` is the integer behind ``euler_pairing``.  On F_e,
2 chi is read on c1's coordinates without a lattice call.  The total
slope nu = c1/r is never formed either: a slope inequality such as
nu.E >= -1 is tested as c1.E >= -r, multiplied through by r > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .lattice import (
    DivisorClass,
    LatticeError,
    ParseError,
    SurfaceModel,
    canonical,
    form,
    intersect,
    parse_divisor,
    divisor_expr,
)


class CharacterError(ValueError):
    """Raised for malformed characters or violated preconditions."""


@dataclass(frozen=True)
class ChernCharacter:
    r: int
    c1: DivisorClass
    twice_ch2: int = field(kw_only=True)

    def __post_init__(self):
        if type(self.r) is not int:
            raise CharacterError(f"the rank must be an int, got {self.r!r}")
        if self.r < 1:
            raise CharacterError("characters must have positive rank (torsion is out of scope)")
        if type(self.twice_ch2) is not int:
            raise CharacterError(f"twice_ch2 must be an int, got {self.twice_ch2!r}")

    @property
    def ch2(self) -> Fraction:
        return Fraction(self.twice_ch2, 2)

    @property
    def surface(self) -> SurfaceModel:
        return self.c1.surface

    def discriminant(self) -> Fraction:
        """nu^2/2 - ch2/r for the slope nu = c1/r, as (c1^2 - r t) / (2r^2)."""
        return Fraction(intersect(self.c1, self.c1) - self.r * self.twice_ch2, 2 * self.r * self.r)

    def __str__(self) -> str:
        return f"r={self.r};c1={divisor_expr(self.c1)};ch2={self.ch2}"


def line_bundle_character(D: DivisorClass) -> ChernCharacter:
    return ChernCharacter(1, D, twice_ch2=form(D.surface, D.coords, D.coords))


def character_from_chi(r: int, c1: DivisorClass, chi: int) -> ChernCharacter:
    """Invert Riemann-Roch for ch2: 2 ch2 = 2 chi - 2r + c1.K."""
    K = canonical(c1.surface)
    return ChernCharacter(r, c1, twice_ch2=2 * chi - 2 * r + intersect(c1, K))


def _twice_chi(v: ChernCharacter) -> int:
    """2 chi(v) = 2r - c1.K + 2 ch2, with K the canonical class of c1's own surface.

    On F_e, c1 = kE + lF has c1.K = (e-2)k - 2l, summed on the coordinates
    with no ``form`` against K; every verdict's chi = 0 gate pays this."""
    s, c = v.c1.surface, v.c1.coords
    if s.is_hirzebruch:
        return 2 * v.r - (s.e - 2) * c[0] + 2 * c[1] + v.twice_ch2
    return 2 * v.r - form(s, c, canonical(s).coords) + v.twice_ch2


def riemann_roch_chi(v: ChernCharacter) -> Fraction:
    """chi(v) = r chi(O) - c1.K/2 + ch2 on a rational surface."""
    return Fraction(_twice_chi(v), 2)


def chi_integer(v: ChernCharacter) -> int:
    twice = _twice_chi(v)
    if twice % 2:
        raise CharacterError(
            f"character {v} has non-integral Euler characteristic {Fraction(twice, 2)}"
        )
    return twice // 2


def twice_euler_pairing(v: ChernCharacter, w: ChernCharacter) -> int:
    """2 chi(v, w), where chi(v, w) = sum (-1)^i ext^i for sheaves of the given
    characters.

    Expanding ch(v)^dual ch(w) td(X) gives
    r_v r_w - (r_v c_w - r_w c_v).K/2 + r_v ch2_w + r_w ch2_v - c_v.c_w,
    summed here on integers as twice that, with ``form`` on the coordinates
    once both characters are known to share a surface.
    """
    s = v.surface
    if w.surface is not s:
        raise LatticeError("pairing characters on different surfaces")
    rv, rw, cv, cw, K = v.r, w.r, v.c1.coords, w.c1.coords, canonical(s).coords
    mixed = rv * form(s, cw, K) - rw * form(s, cv, K)
    return 2 * rv * rw - mixed + rv * w.twice_ch2 + rw * v.twice_ch2 - 2 * form(s, cv, cw)


def euler_pairing(v: ChernCharacter, w: ChernCharacter) -> Fraction:
    """chi(v, w), the public ``Fraction`` of ``twice_euler_pairing``."""
    return Fraction(twice_euler_pairing(v, w), 2)


def hirzebruch_core(e: int, r: int, k: int, ell: int, t: int):
    """The Hirzebruch classification on raw integers.

    For c1 = kE + lF on F_e and t = 2 ch2 (``ell`` is l), returns
    ``(dualized, k, l, t, disc, (a, b, c))`` for the normalized character:

    * normalization: k/r >= -1, and on the boundary k/r = -1 also
      l/r >= -1 - e/2; exactly one of v, v^D satisfies this outside the
      self-dual boundary point, where both agree.  Multiplied through by r
      (and by 2r on the boundary) the test is k > -r, or k = -r and
      2l >= -(2 + e) r; otherwise v^D has c1 = rK - c1 and
      t = t - 2 c1.K + r K^2, with K = -2E - (e+2)F, c1.K = (e-2)k - 2l
      and K^2 = 8;
    * disc = c1^2 - r t = 2 r^2 Delta, so the moduli space is empty
      exactly when disc < 0 (Bogomolov);
    * b = c1.E + r = r (nu.E + 1), so nu.E < -1 exactly when b < 0, and
      then chi(v(-E)) = -b;
    * the resolution exponents a = l - ke + k + r, b and c = k + r.
    """
    dualized = not (k > -r or (k == -r and 2 * ell >= -(2 + e) * r))
    if dualized:
        k, ell, t = -k - 2 * r, -ell - (e + 2) * r, t - 2 * ((e - 2) * k - 2 * ell) + 8 * r
        if not (k > -r or (k == -r and 2 * ell >= -(2 + e) * r)):
            raise RuntimeError("the dual is not normalized")
    b = ell - e * k + r
    return dualized, k, ell, t, k * (2 * ell - e * k) - r * t, (b + k, b, k + r)


# ---------------------------------------------------------------------------
# Character literals
# ---------------------------------------------------------------------------


def parse_character(text: str, surface: SurfaceModel) -> ChernCharacter:
    """Parse ``r=<int>;c1=<divisor-expr>;chi=<int>`` or ``...;ch2=<rational>``."""
    fields: dict[str, str] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise ParseError("expected key=value fields separated by ';'", part)
        key = key.strip()
        if key not in ("r", "c1", "chi", "ch2"):
            raise ParseError(f"unknown key {key!r}: the keys are r, c1, chi and ch2", part)
        if key in fields:
            raise ParseError(f"key {key!r} given twice", part)
        fields[key] = value.strip()
    missing = {"r", "c1"} - fields.keys()
    if missing:
        raise ParseError(f"character literal is missing {sorted(missing)}", text)
    try:
        r = int(fields["r"])
    except ValueError:
        raise ParseError("r must be an integer", fields["r"]) from None
    c1 = parse_divisor(fields["c1"], surface)
    if "chi" in fields and "ch2" in fields:
        raise ParseError("give exactly one of chi= and ch2=", text)
    if "chi" in fields:
        try:
            chi = int(fields["chi"])
        except ValueError:
            raise ParseError("chi must be an integer", fields["chi"]) from None
        return character_from_chi(r, c1, chi)
    if "ch2" in fields:
        try:
            ch2 = Fraction(fields["ch2"])
        except (ValueError, ZeroDivisionError):
            raise ParseError("ch2 must be a rational like -3 or 5/2", fields["ch2"]) from None
        twice = 2 * ch2
        if twice.denominator != 1:
            raise CharacterError(f"ch2 must be a half-integer, got {ch2}")
        return ChernCharacter(r, c1, twice_ch2=twice.numerator)
    raise ParseError("character literal needs chi= or ch2=", text)
