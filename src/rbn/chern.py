"""Chern characters of positive rank: pairings, duals, discriminants, Bogomolov.

A character is the triple (r, c1, ch2) with r >= 1, c1 an integral divisor
class and ch2 a rational with denominator dividing 2.  The Euler
characteristic is chi = r - c1.K/2 + ch2; every construction here is exact,
and helpers that must produce integers raise instead of rounding.

The total slope nu = c1/r is never formed: a slope inequality such as
nu.E >= -1 is tested as c1.E >= -r, multiplied through by r > 0.  The
fractions left are ch2 and what is computed from it (chi, Euler pairings,
the discriminant).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import (
    DivisorClass,
    LatticeError,
    ParseError,
    SurfaceModel,
    canonical,
    chi_line_bundle,
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
    ch2: Fraction

    def __post_init__(self):
        if self.r < 1:
            raise CharacterError("characters must have positive rank (torsion is out of scope)")
        object.__setattr__(self, "ch2", Fraction(self.ch2))
        if (2 * self.ch2).denominator != 1:
            raise CharacterError(f"ch2 must be a half-integer, got {self.ch2}")

    @property
    def surface(self) -> SurfaceModel:
        return self.c1.surface

    def discriminant(self) -> Fraction:
        """nu^2/2 - ch2/r for the slope nu = c1/r, as (c1^2 - 2r ch2) / (2r^2)."""
        twice_ch2 = (2 * self.ch2).numerator
        return Fraction(intersect(self.c1, self.c1) - self.r * twice_ch2, 2 * self.r * self.r)

    def __str__(self) -> str:
        return f"r={self.r};c1={divisor_expr(self.c1)};ch2={self.ch2}"


def line_bundle_character(D: DivisorClass) -> ChernCharacter:
    return ChernCharacter(1, D, Fraction(intersect(D, D), 2))


def character_from_chi(r: int, c1: DivisorClass, chi: int) -> ChernCharacter:
    """Invert Riemann-Roch for ch2: ch2 = chi - r + c1.K/2."""
    K = canonical(c1.surface)
    return ChernCharacter(r, c1, Fraction(chi) - r + Fraction(intersect(c1, K), 2))


def riemann_roch_chi(v: ChernCharacter) -> Fraction:
    """chi(v) = r chi(O) - c1.K/2 + ch2 on a rational surface."""
    K = canonical(v.surface)
    return v.r - Fraction(intersect(v.c1, K), 2) + v.ch2


def chi_integer(v: ChernCharacter) -> int:
    chi = riemann_roch_chi(v)
    if chi.denominator != 1:
        raise CharacterError(f"character {v} has non-integral Euler characteristic {chi}")
    return int(chi)


def twist_character(v: ChernCharacter, M: DivisorClass) -> ChernCharacter:
    """Character of v tensored with the line bundle O(M)."""
    if v.surface != M.surface:
        raise LatticeError("twist by a divisor on a different surface")
    ch2 = v.ch2 + intersect(v.c1, M) + v.r * Fraction(intersect(M, M), 2)
    return ChernCharacter(v.r, v.c1 + v.r * M, ch2)


def twisted_chi(v: ChernCharacter, M: DivisorClass) -> int:
    """chi(v tensor O(M)) for chi(v) = 0, via chi = c1(v).M + r (chi(M) - 1)."""
    if riemann_roch_chi(v) != 0:
        raise CharacterError("twisted_chi expects chi(v) = 0; use euler_pairing otherwise")
    return intersect(v.c1, M) + v.r * (chi_line_bundle(M) - 1)


def euler_pairing(v: ChernCharacter, w: ChernCharacter) -> Fraction:
    """chi(v, w) = sum (-1)^i ext^i for sheaves of the given characters.

    Expanding ch(v)^dual ch(w) td(X) gives
    r_v r_w - (r_v c_w - r_w c_v).K/2 + r_v ch2_w + r_w ch2_v - c_v.c_w.
    """
    if v.surface != w.surface:
        raise LatticeError("pairing characters on different surfaces")
    K = canonical(v.surface)
    mixed = v.r * intersect(w.c1, K) - w.r * intersect(v.c1, K)
    return (
        v.r * w.r
        - Fraction(mixed, 2)
        + v.r * w.ch2
        + w.r * v.ch2
        - intersect(v.c1, w.c1)
    )


def serre_dual_character(v: ChernCharacter) -> ChernCharacter:
    """Character of E^dual tensor K; an involution with the same chi."""
    K = canonical(v.surface)
    c1 = -v.c1 + v.r * K
    ch2 = v.ch2 - intersect(v.c1, K) + v.r * Fraction(intersect(K, K), 2)
    return ChernCharacter(v.r, c1, ch2)


def hirzebruch_normalize(v: ChernCharacter) -> tuple[ChernCharacter, bool]:
    """Replace v by its Serre dual if needed so k/r >= -1 holds.

    On the boundary k/r = -1 the representative with l/r >= -1 - e/2 is
    taken.  Exactly one of v, v^D satisfies this outside the self-dual
    boundary point, where both agree.  Multiplied through by r (and by 2r
    on the boundary), the test is k > -r, or k = -r and 2l >= -(2 + e) r.
    """
    if not v.surface.is_hirzebruch:
        raise CharacterError("normalization is a Hirzebruch-surface operation")
    if v.r < 2:
        raise CharacterError("normalization expects rank at least 2")
    e = v.surface.e

    def ok(w: ChernCharacter) -> bool:
        k, ell = w.c1.coords
        return k > -w.r or (k == -w.r and 2 * ell >= -(2 + e) * w.r)

    if ok(v):
        return v, False
    dual = serre_dual_character(v)
    assert ok(dual), f"neither {v} nor its dual is normalized"
    return dual, True


def bogomolov_nonempty(v: ChernCharacter) -> bool:
    """Necessary moduli-nonemptiness test for chi(v) = 0 on a Hirzebruch surface.

    With chi = 0 the discriminant equals P(nu) = 1 + (nu^2 - nu.K)/2; a
    semistable sheaf forces it to be nonnegative, so a negative value
    certifies an empty moduli space.
    """
    if not v.surface.is_hirzebruch:
        raise CharacterError("the Bogomolov test is implemented on Hirzebruch surfaces")
    if riemann_roch_chi(v) != 0:
        raise CharacterError("the Bogomolov test expects chi(v) = 0")
    return v.discriminant() >= 0


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
        fields[key.strip()] = value.strip()
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
        return ChernCharacter(r, c1, ch2)
    raise ParseError("character literal needs chi= or ch2=", text)
