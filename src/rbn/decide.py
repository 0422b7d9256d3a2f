"""Weak Brill-Noether verdicts with checked witnesses or obstruction data.

A moduli space of sheaves with chi = 0 satisfies weak Brill-Noether when
some (hence the general) member has no cohomology.  Verdicts here are about
the general member of the irreducible stack of F-prioritary sheaves; for
the semistable interpretation they are conditional on a polarization H with
H.(K+F) < 0, which is recorded in the notes rather than modeled.  Unknown
is a first-class outcome: no verdict extrapolates past the implemented
sufficient conditions, and every Holds witness is re-verified before it is
returned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .chern import (
    CharacterError,
    ChernCharacter,
    chi_integer,
    euler_pairing,
    hirzebruch_core,
    line_bundle_character,
)
from .cohomology import line_bundle_cohomology
from .goodsums import (
    GoodSum,
    WBNWitness,
    delpezzo_decompose,
    hirzebruch_fiber_sum,
    is_good_sum,
    rounding_sum,
)
from .lattice import (
    DivisorClass,
    LatticeError,
    SurfaceModel,
    basis_divisor,
    canonical,
    chi_line_bundle,
    divisor_expr,
    intersect,
    is_nef,
)
from .resolutions import (
    InfeasibleResolutionError,
    ResolutionError,
    ResolutionReport,
    VerificationError,
    blowup_hirzebruch_resolution,
    blowup_resolution,
    hirzebruch_resolution,
)

_STACK_NOTE = (
    "verdict concerns the general member of the irreducible stack of "
    "F-prioritary sheaves; for semistable moduli assume a polarization H "
    "with H.(K+F) < 0"
)


class WBNStatus(enum.Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    EMPTY_MODULI = "EmptyModuli"
    UNKNOWN = "Unknown"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Obstruction:
    """An effective curve pairing positively against the character.

    A nonzero map O(C) -> E composed with O -> O(C) yields sections, so
    h0(E) >= chi(O(C), v) for every semistable E; rank-one failures may
    instead pin a positive h2.
    """

    curve: DivisorClass | None = None
    chi_pairing: int | None = None
    h0_lower_bound: int | None = None
    h2_lower_bound: int | None = None

    def to_json_dict(self) -> dict:
        out: dict = {}
        if self.curve is not None:
            out["curve"] = divisor_expr(self.curve)
        if self.chi_pairing is not None:
            out["chi_pairing"] = self.chi_pairing
        if self.h0_lower_bound is not None:
            out["h0_lower_bound"] = self.h0_lower_bound
        if self.h2_lower_bound is not None:
            out["h2_lower_bound"] = self.h2_lower_bound
        return out


@dataclass(frozen=True)
class WBNVerdict:
    status: WBNStatus
    witness: ResolutionReport | WBNWitness | None = None
    obstruction: Obstruction | None = None
    bogomolov_delta: Fraction | None = None
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        out: dict = {"status": str(self.status)}
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        if self.obstruction is not None:
            out["obstruction"] = self.obstruction.to_json_dict()
        if self.bogomolov_delta is not None:
            out["bogomolov_delta"] = str(self.bogomolov_delta)
        out["notes"] = list(self.notes)
        return out


def _checked_witness(gs: GoodSum, v: ChernCharacter, *, seed: int = 0, trials: int = 3) -> WBNWitness:
    """The good sum with chi(sum) point modifications towards v, checked once."""
    witness = WBNWitness(gs, gs.chi(), v)
    check = is_good_sum(gs, seed=seed, trials=trials)
    if not (check.ok and witness.bookkeeping_ok()):
        raise VerificationError(f"emitted witness failed verification: {check.failures}")
    return witness


# ---------------------------------------------------------------------------
# Rank one
# ---------------------------------------------------------------------------


def rank_one_wbn(c1: DivisorClass, *, seed: int = 0, trials: int = 3) -> WBNVerdict:
    """Rank-one criterion: Holds iff h1 = h2 = 0 for the unique line bundle.

    The sheaves are I_Z(c1) with chi = chi(O(c1)) - |Z|, so chi(O(c1)) < 0
    empties the moduli space; chi(O(c1)) is the rank-one discriminant.  The
    witness twists by the ideal sheaf of n = chi general points.  When the
    criterion fails with h0 <= n, Serre duality leaves h2 nonzero for every
    twist; when h0 > n the sections survive all twists.
    """
    notes: list[str] = [_STACK_NOTE]
    n = chi_line_bundle(c1)
    if n < 0:
        expr = divisor_expr(c1)
        notes.append(f"chi(O({expr})) = {n} < 0, so every I_Z({expr}) has chi < 0")
        return WBNVerdict(WBNStatus.EMPTY_MODULI, bogomolov_delta=Fraction(n), notes=tuple(notes))
    vec, how = line_bundle_cohomology(c1, seed=seed, trials=trials)
    if vec is None:
        return WBNVerdict(
            WBNStatus.UNKNOWN, notes=tuple(notes + ["no exact computation or oracle available"])
        )
    if how == "oracle":
        notes.append(f"oracle cohomology (seed={seed}, trials={trials})")
    else:
        notes.append("exact cohomology" if how == "exact" else "vanishing by rules")
    if vec.higher_vanishes:
        gs = GoodSum(c1.surface, _rank_one_reference(c1.surface), (c1,))
        target = ChernCharacter.from_twice_ch2(1, c1, intersect(c1, c1) - 2 * n)
        witness = WBNWitness(gs, n, target)
        # the cohomology above is the check on the line bundle; is_good_sum
        # cannot certify the reference N = F on blowups of F_e
        if not witness.bookkeeping_ok():
            raise VerificationError("emitted rank-one witness failed verification")
        notes.append(f"line bundle O({divisor_expr(c1)}) twisted down at {n} general points")
        return WBNVerdict(WBNStatus.HOLDS, witness=witness, notes=tuple(notes))
    if vec.h0 > n:
        obst = Obstruction(h0_lower_bound=vec.h0 - n)
        notes.append("sections exceed the point budget; h0 survives every twist")
    else:
        obst = Obstruction(h2_lower_bound=vec.h2 if vec.h2 else 1)
        notes.append("h2 is twist-invariant and nonzero")
    return WBNVerdict(WBNStatus.FAILS, obstruction=obst, notes=tuple(notes))


def _rank_one_reference(surface: SurfaceModel) -> DivisorClass:
    if surface.is_hirzebruch or surface.is_blowup_hirzebruch:
        return basis_divisor(surface, "F")
    if surface.is_del_pezzo:
        return -canonical(surface)
    return basis_divisor(surface, "L")


# ---------------------------------------------------------------------------
# Hirzebruch surfaces: the complete classification
# ---------------------------------------------------------------------------


def hirzebruch_wbn(v: ChernCharacter) -> WBNVerdict:
    """Complete verdict for rank >= 2, chi = 0 characters on F_e.

    After normalizing by Serre duality: a negative discriminant empties the
    moduli space; nu.E < -1 forces sections (h0 >= chi(E(-E)) > 0); and
    nu.E >= -1 holds with a two-term resolution witness, a direct sum of
    twists of O(-1,-1) on F_0, or a cohomology-free fiber sum in the few
    low-e characters whose resolution exponent would be negative (no
    semistable sheaf exists there, but the prioritary stack still carries a
    cohomology-free member).  The three tests are the integer signs of
    ``hirzebruch_core``; a Holds witness is verified once where it is built.
    """
    s = v.surface
    if not s.is_hirzebruch:
        raise CharacterError("hirzebruch_wbn expects a Hirzebruch model")
    r = v.r
    if r < 2:
        raise CharacterError("use rank_one_wbn for rank-one intents")
    if chi_integer(v) != 0:
        raise CharacterError("weak Brill-Noether verdicts require chi(v) = 0")
    dualized, k, ell, t, disc, (_, b, _) = hirzebruch_core(s.e, r, *v.c1.coords, v.twice_ch2)
    notes = [_STACK_NOTE]
    if dualized:
        notes.append("input replaced by its Serre dual (birational moduli)")
    delta = Fraction(disc, 2 * r * r)
    if disc < 0:
        notes.append(f"discriminant {delta} < 0 violates the Bogomolov inequality")
        return WBNVerdict(WBNStatus.EMPTY_MODULI, bogomolov_delta=delta, notes=tuple(notes))
    w = ChernCharacter.from_twice_ch2(r, DivisorClass(s, (k, ell)), t) if dualized else v
    if b < 0:  # nu.E < -1
        E = DivisorClass(s, (1, 0))
        assert euler_pairing(line_bundle_character(E), w) == -b
        notes.append("nu.E < -1: twisting down by the negative section keeps chi positive")
        return WBNVerdict(
            WBNStatus.FAILS,
            obstruction=Obstruction(curve=E, chi_pairing=-b, h0_lower_bound=-b),
            bogomolov_delta=delta,
            notes=tuple(notes),
        )
    try:
        report = hirzebruch_resolution(w)
        return WBNVerdict(WBNStatus.HOLDS, witness=report, bogomolov_delta=delta, notes=tuple(notes))
    except InfeasibleResolutionError as exc:
        witness = _checked_witness(hirzebruch_fiber_sum(w), w)
        notes.append(f"resolution infeasible ({exc}); cohomology-free fiber sum instead")
        return WBNVerdict(WBNStatus.HOLDS, witness=witness, bogomolov_delta=delta, notes=tuple(notes))


# ---------------------------------------------------------------------------
# Blowups of the plane
# ---------------------------------------------------------------------------


def blowup_p2_wbn(v: ChernCharacter, *, seed: int = 0, trials: int = 3) -> WBNVerdict:
    """Sufficient conditions on a blowup of the plane, else Unknown.

    In order: the two-term resolution hypotheses; the rounding hypotheses
    (floor/ceiling bundle without higher cohomology); and for collinear
    configurations the line-through-the-points obstruction, which forces
    sections when delta - sum of the collinear multiplicities drops below
    -1.
    """
    if not v.surface.is_blowup_p2_like:
        raise CharacterError("blowup_p2_wbn expects a blowup of the plane")
    if v.r < 2:
        raise CharacterError("use rank_one_wbn for rank-one intents")
    if chi_integer(v) != 0:
        raise CharacterError("weak Brill-Noether verdicts require chi(v) = 0")
    notes = [_STACK_NOTE]
    try:
        report = blowup_resolution(v)
        notes.append("two-term resolution by the stock collection")
        return WBNVerdict(WBNStatus.HOLDS, witness=report, notes=tuple(notes))
    except ResolutionError as exc:
        notes.append(f"resolution route: {exc}")
    try:
        gs = rounding_sum(v, seed=seed, trials=trials)
        witness = _checked_witness(gs, v, seed=seed, trials=trials)
        notes.append("rounded good sum plus general point modifications")
        return WBNVerdict(WBNStatus.HOLDS, witness=witness, notes=tuple(notes))
    except ValueError as exc:
        notes.append(f"rounding route: {exc}")
    config = v.surface.config
    if config.kind == "collinear":
        s = v.surface
        C = basis_divisor(s, "L")
        for i in config.collinear:
            C = C - basis_divisor(s, f"E{i}")
        # chi(O(-C)) = 0, so chi(O(C), v) = -c1.C - r: positive exactly when
        # r (delta - sum of collinear alphas) = c1.C < -r
        obstruction = obstruction_certificate(v, C)
        if obstruction is not None:
            notes.append(
                "collinear points: the line through them pairs positively, "
                "forcing sections on every semistable sheaf (needs mu(v).H > -2L.H)"
            )
            return WBNVerdict(WBNStatus.FAILS, obstruction=obstruction, notes=tuple(notes))
    return WBNVerdict(WBNStatus.UNKNOWN, notes=tuple(notes))


def blowup_hirzebruch_wbn(v: ChernCharacter) -> WBNVerdict:
    """Resolution-based sufficient condition on blowups of Hirzebruch surfaces."""
    if not v.surface.is_blowup_hirzebruch:
        raise CharacterError("blowup_hirzebruch_wbn expects a blowup of a Hirzebruch surface")
    if v.r < 2:
        raise CharacterError("use rank_one_wbn for rank-one intents")
    if chi_integer(v) != 0:
        raise CharacterError("weak Brill-Noether verdicts require chi(v) = 0")
    notes = [_STACK_NOTE]
    try:
        report = blowup_hirzebruch_resolution(v)
        notes.append("two-term resolution by the stock collection")
        return WBNVerdict(WBNStatus.HOLDS, witness=report, notes=tuple(notes))
    except ResolutionError as exc:
        notes.append(f"resolution route: {exc}")
        return WBNVerdict(WBNStatus.UNKNOWN, notes=tuple(notes))


def delpezzo_wbn(v: ChernCharacter) -> WBNVerdict:
    """Nef first Chern class on a degree 4..7 del Pezzo surface: Holds.

    The witness is an anticanonically good sum with chi(sum) general point
    modifications.  Non-nef classes return Unknown; the sufficient condition
    is one-directional.
    """
    if not v.surface.is_del_pezzo:
        raise CharacterError("delpezzo_wbn expects a del Pezzo model of degree 4..7")
    if v.r < 1:
        raise CharacterError("rank must be positive")
    if chi_integer(v) != 0:
        raise CharacterError("weak Brill-Noether verdicts require chi(v) = 0")
    notes = [_STACK_NOTE]
    if not is_nef(v.c1):
        notes.append(f"{divisor_expr(v.c1)} is not nef; the nef-decomposition route is silent")
        return WBNVerdict(WBNStatus.UNKNOWN, notes=tuple(notes))
    witness = _checked_witness(delpezzo_decompose(v.c1, v.r), v)
    notes.append("anticanonically good sum plus general point modifications")
    return WBNVerdict(WBNStatus.HOLDS, witness=witness, notes=tuple(notes))


def wbn(v: ChernCharacter, *, seed: int = 0, trials: int = 3) -> WBNVerdict:
    """Dispatch on the surface family (rank one goes to the line-bundle test)."""
    if v.r == 1:
        if chi_integer(v) != 0:
            raise CharacterError("weak Brill-Noether verdicts require chi(v) = 0")
        return rank_one_wbn(v.c1, seed=seed, trials=trials)
    s = v.surface
    if s.is_hirzebruch:
        return hirzebruch_wbn(v)
    if s.is_del_pezzo:
        return delpezzo_wbn(v)
    if s.is_blowup_p2_like:
        return blowup_p2_wbn(v, seed=seed, trials=trials)
    return blowup_hirzebruch_wbn(v)


def obstruction_certificate(
    v: ChernCharacter, C: DivisorClass, H: DivisorClass | None = None
) -> Obstruction | None:
    """Section-forcing certificate from an effective curve class C.

    When chi(O(C), v) > 0 and the slope condition nu(v).H > (K+C).H holds
    for the chosen polarization, every semistable sheaf of character v has
    h0 >= chi(O(C), v).  Effectivity of C is the caller's responsibility.
    """
    if v.surface != C.surface:
        raise LatticeError("curve class lives on a different surface")
    pairing = euler_pairing(line_bundle_character(C), v)
    if pairing <= 0:
        return None
    if pairing.denominator != 1:
        raise CharacterError(f"non-integral pairing {pairing}; malformed character")
    if H is not None:
        K = canonical(v.surface)
        if intersect(v.c1, H) <= v.r * intersect(K + C, H):  # nu.H <= (K+C).H
            return None
    return Obstruction(curve=C, chi_pairing=int(pairing), h0_lower_bound=int(pairing))
