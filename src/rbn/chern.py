"""Chern characters of positive rank: pairings, duals, discriminants, Bogomolov.

A character is the triple (r, c1, ch2) with r >= 1, c1 an integral divisor
class and ch2 a rational with denominator dividing 2.  The Euler
characteristic is chi = r - c1.K/2 + ch2; every construction here is exact,
and helpers that must produce integers raise instead of rounding.

ch2 is carried as the integer t = 2 ch2 (``twice_ch2``), validated once
when the character is made.  Euler characteristics and pairings are
computed on integers scaled by 2, the discriminant on integers scaled by
2r^2, and twists and duals move t directly; a ``Fraction`` is built only
where a public function returns one (``riemann_roch_chi``,
``euler_pairing``, ``discriminant``) or a message prints one.  The total
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
    twice_ch2: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.r < 1:
            raise CharacterError("characters must have positive rank (torsion is out of scope)")
        ch2 = self.ch2 if type(self.ch2) is Fraction else Fraction(self.ch2)
        if ch2.denominator == 1:
            twice = 2 * ch2.numerator
        elif ch2.denominator == 2:
            twice = ch2.numerator
        else:
            raise CharacterError(f"ch2 must be a half-integer, got {ch2}")
        object.__setattr__(self, "ch2", ch2)
        object.__setattr__(self, "twice_ch2", twice)

    @classmethod
    def from_twice_ch2(cls, r: int, c1: DivisorClass, twice_ch2: int) -> "ChernCharacter":
        """The character (r, c1, twice_ch2 / 2)."""
        return cls(r, c1, Fraction(twice_ch2, 2))

    @property
    def surface(self) -> SurfaceModel:
        return self.c1.surface

    def discriminant(self) -> Fraction:
        """nu^2/2 - ch2/r for the slope nu = c1/r, as (c1^2 - r t) / (2r^2)."""
        return Fraction(intersect(self.c1, self.c1) - self.r * self.twice_ch2, 2 * self.r * self.r)

    def __str__(self) -> str:
        return f"r={self.r};c1={divisor_expr(self.c1)};ch2={self.ch2}"


def line_bundle_character(D: DivisorClass) -> ChernCharacter:
    return ChernCharacter.from_twice_ch2(1, D, intersect(D, D))


def character_from_chi(r: int, c1: DivisorClass, chi: int) -> ChernCharacter:
    """Invert Riemann-Roch for ch2: 2 ch2 = 2 chi - 2r + c1.K."""
    K = canonical(c1.surface)
    return ChernCharacter.from_twice_ch2(r, c1, 2 * chi - 2 * r + intersect(c1, K))


def _twice_chi(v: ChernCharacter) -> int:
    """2 chi(v) = 2r - c1.K + 2 ch2."""
    return 2 * v.r - intersect(v.c1, canonical(v.surface)) + v.twice_ch2


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


def twist_character(v: ChernCharacter, M: DivisorClass) -> ChernCharacter:
    """Character of v tensored with the line bundle O(M)."""
    if v.surface != M.surface:
        raise LatticeError("twist by a divisor on a different surface")
    twice = v.twice_ch2 + 2 * intersect(v.c1, M) + v.r * intersect(M, M)
    return ChernCharacter.from_twice_ch2(v.r, v.c1 + v.r * M, twice)


def twisted_chi(v: ChernCharacter, M: DivisorClass) -> int:
    """chi(v tensor O(M)) for chi(v) = 0, via chi = c1(v).M + r (chi(M) - 1)."""
    if _twice_chi(v) != 0:
        raise CharacterError("twisted_chi expects chi(v) = 0; use euler_pairing otherwise")
    return intersect(v.c1, M) + v.r * (chi_line_bundle(M) - 1)


def euler_pairing(v: ChernCharacter, w: ChernCharacter) -> Fraction:
    """chi(v, w) = sum (-1)^i ext^i for sheaves of the given characters.

    Expanding ch(v)^dual ch(w) td(X) gives
    r_v r_w - (r_v c_w - r_w c_v).K/2 + r_v ch2_w + r_w ch2_v - c_v.c_w,
    summed here on integers as twice that.
    """
    if v.surface != w.surface:
        raise LatticeError("pairing characters on different surfaces")
    K = canonical(v.surface)
    mixed = v.r * intersect(w.c1, K) - w.r * intersect(v.c1, K)
    twice = (
        2 * v.r * w.r
        - mixed
        + v.r * w.twice_ch2
        + w.r * v.twice_ch2
        - 2 * intersect(v.c1, w.c1)
    )
    return Fraction(twice, 2)


def serre_dual_character(v: ChernCharacter) -> ChernCharacter:
    """Character of E^dual tensor K; an involution with the same chi."""
    K = canonical(v.surface)
    twice = v.twice_ch2 - 2 * intersect(v.c1, K) + v.r * intersect(K, K)
    return ChernCharacter.from_twice_ch2(v.r, -v.c1 + v.r * K, twice)


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
        assert k > -r or (k == -r and 2 * ell >= -(2 + e) * r), "the dual is not normalized"
    b = ell - e * k + r
    return dualized, k, ell, t, k * (2 * ell - e * k) - r * t, (b + k, b, k + r)


def hirzebruch_normalize(v: ChernCharacter) -> tuple[ChernCharacter, bool]:
    """Replace v by its Serre dual if needed so k/r >= -1 holds.

    On the boundary k/r = -1 the representative with l/r >= -1 - e/2 is
    taken (see ``hirzebruch_core`` for the integer test).
    """
    if not v.surface.is_hirzebruch:
        raise CharacterError("normalization is a Hirzebruch-surface operation")
    if v.r < 2:
        raise CharacterError("normalization expects rank at least 2")
    s = v.surface
    dualized, k, ell, t, _, _ = hirzebruch_core(s.e, v.r, *v.c1.coords, v.twice_ch2)
    if not dualized:
        return v, False
    return ChernCharacter.from_twice_ch2(v.r, DivisorClass(s, (k, ell)), t), True


def bogomolov_nonempty(v: ChernCharacter) -> bool:
    """Necessary moduli-nonemptiness test for chi(v) = 0 on a Hirzebruch surface.

    With chi = 0 the discriminant equals P(nu) = 1 + (nu^2 - nu.K)/2; a
    semistable sheaf forces it to be nonnegative, so a negative value
    certifies an empty moduli space.  The sign is that of c1^2 - r t.
    """
    if not v.surface.is_hirzebruch:
        raise CharacterError("the Bogomolov test is implemented on Hirzebruch surfaces")
    if _twice_chi(v) != 0:
        raise CharacterError("the Bogomolov test expects chi(v) = 0")
    return intersect(v.c1, v.c1) >= v.r * v.twice_ch2


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
        return ChernCharacter(r, c1, ch2)
    raise ParseError("character literal needs chi= or ch2=", text)
