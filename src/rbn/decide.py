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
from dataclasses import dataclass, fields
from fractions import Fraction

from .chern import (
    CharacterError,
    ChernCharacter,
    chi_integer,
    hirzebruch_core,
    line_bundle_character,
    twice_euler_pairing,
)
from .cohomology import Vanishing, line_bundle_cohomology
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
    anticanonical,
    basis_divisor,
    canonical,
    chi_line_bundle,
    divisor_expr,
    intersect,
    is_nef,
    wrap_coords,
)
from .resolutions import (
    InfeasibleResolutionError,
    ResolutionError,
    ResolutionReport,
    VerificationError,
    two_term_resolution,
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


@dataclass(frozen=True, slots=True)
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


# every verdict below is built by ``_verdict``, which stores the five fields
# straight into their slots: the frozen dataclass's ``__init__`` stores each
# through ``object.__setattr__`` by name, at twice the cost.  All five are
# stored, so a built verdict equals the one the keyword constructor gives.
_store_status, _store_witness, _store_obstruction, _store_delta, _store_notes = (
    WBNVerdict.__dict__[f.name].__set__ for f in fields(WBNVerdict)
)


def _verdict(status, witness, obstruction, delta, notes) -> WBNVerdict:
    verdict = object.__new__(WBNVerdict)
    _store_status(verdict, status)
    _store_witness(verdict, witness)
    _store_obstruction(verdict, obstruction)
    _store_delta(verdict, delta)
    _store_notes(verdict, notes)
    return verdict


def _empty_moduli(delta: Fraction, notes: list[str]) -> WBNVerdict:
    """EmptyModuli at rank >= 2, for a discriminant delta < 0 (Bogomolov)."""
    notes.append(f"discriminant {delta} < 0 violates the Bogomolov inequality")
    return _verdict(WBNStatus.EMPTY_MODULI, None, None, delta, tuple(notes))


def _checked_witness(gs: GoodSum, v: ChernCharacter, *, seed: int = 0, trials: int = 3) -> WBNWitness:
    """The good sum with chi(sum) point modifications towards v, checked once."""
    witness = WBNWitness(gs, v)
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
        return _verdict(WBNStatus.EMPTY_MODULI, None, None, Fraction(n), tuple(notes))
    answer = line_bundle_cohomology(c1, seed=seed, trials=trials)
    vec = answer.vector
    if vec is None:
        if answer.higher_cohomology is not Vanishing.NONZERO:
            return _verdict(WBNStatus.UNKNOWN, None, None, None, (*notes, "no exact computation or oracle available"))
        # chi >= 0, so a rules Nonzero without a vector means h0(K - c1) >= 1;
        # O_Z has no H^1 or H^2, so h2(I_Z(c1)) = h2(O(c1)) >= 1 for every Z
        notes += [f"rules: {'; '.join(answer.derivation)}", "h2 is twist-invariant and nonzero"]
        return _verdict(WBNStatus.FAILS, None, Obstruction(h2_lower_bound=1), None, tuple(notes))
    if answer.route == "oracle":
        notes.append(f"oracle cohomology (seed={seed}, trials={trials})")
    else:
        notes.append("exact cohomology" if answer.route == "exact" else "vanishing by rules")
    if vec.higher_vanishes:
        gs = GoodSum(_rank_one_reference(c1.surface), (c1,))
        target = ChernCharacter(1, c1, twice_ch2=intersect(c1, c1) - 2 * n)
        witness = WBNWitness(gs, target)
        # the cohomology above is the check on the line bundle; is_good_sum
        # cannot certify the reference N = F on blowups of F_e
        if not witness.bookkeeping_ok():
            raise VerificationError("emitted rank-one witness failed verification")
        notes.append(f"line bundle O({divisor_expr(c1)}) twisted down at {n} general points")
        return _verdict(WBNStatus.HOLDS, witness, None, None, tuple(notes))
    if vec.h0 > n:
        obst = Obstruction(h0_lower_bound=vec.h0 - n)
        notes.append("sections exceed the point budget; h0 survives every twist")
    else:
        # n = h0 - h1 + h2 with h0 <= n gives h2 >= h1, and the vector is
        # not clean, so h2 > 0
        obst = Obstruction(h2_lower_bound=vec.h2)
        notes.append("h2 is twist-invariant and nonzero")
    return _verdict(WBNStatus.FAILS, None, obst, None, tuple(notes))


def _rank_one_reference(surface: SurfaceModel) -> DivisorClass:
    if surface.is_hirzebruch or surface.is_blowup_hirzebruch:
        return basis_divisor(surface, "F")
    if surface.kind == "del_pezzo":  # the dp<d> spelling measures against -K
        return anticanonical(surface)
    return basis_divisor(surface, "L")


# ---------------------------------------------------------------------------
# Hirzebruch surfaces: the complete classification
# ---------------------------------------------------------------------------


def _hirzebruch_wbn(v: ChernCharacter) -> WBNVerdict:
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
    s, r = v.surface, v.r
    dualized, k, ell, t, disc, (_, b, _) = hirzebruch_core(s.e, r, *v.c1.coords, v.twice_ch2)
    notes = [_STACK_NOTE]
    if dualized:
        notes.append("input replaced by its Serre dual (birational moduli)")
    delta = Fraction(disc, 2 * r * r)
    if disc < 0:
        return _empty_moduli(delta, notes)
    # the Serre dual and E come from the core's ints, wrapped unchecked (see ``lattice``)
    w = ChernCharacter(r, wrap_coords(s, (k, ell)), twice_ch2=t) if dualized else v
    if b < 0:  # nu.E < -1
        E = wrap_coords(s, (1, 0))
        if twice_euler_pairing(line_bundle_character(E), w) != -2 * b:
            raise VerificationError("chi(O(E), v) does not match the exponent b")
        notes.append("nu.E < -1: twisting down by the negative section keeps chi positive")
        return _verdict(WBNStatus.FAILS, None, Obstruction(E, -b, -b), delta, tuple(notes))
    try:
        report = two_term_resolution(w)
        return _verdict(WBNStatus.HOLDS, report, None, delta, tuple(notes))
    except InfeasibleResolutionError as exc:
        witness = _checked_witness(hirzebruch_fiber_sum(w), w)
        notes.append(f"resolution infeasible ({exc}); cohomology-free fiber sum instead")
        return _verdict(WBNStatus.HOLDS, witness, None, delta, tuple(notes))


# ---------------------------------------------------------------------------
# Blowups: sufficient conditions
# ---------------------------------------------------------------------------


def _blowup_wbn(v: ChernCharacter, *, seed: int = 0, trials: int = 3) -> WBNVerdict:
    """Sufficient conditions on a blowup of the plane or of F_e, else Unknown.

    ``wbn`` sends only Delta >= 0 here, so no route below speaks of an
    empty moduli space.  In order: the two-term resolution hypotheses, on
    every blowup; then on blowups of the plane only, the rounding
    hypotheses (floor/ceiling bundle without higher cohomology); for
    collinear configurations the line-through-the-points obstruction,
    which forces sections when delta - sum of the collinear multiplicities
    drops below -1 and the slope condition holds near H = L
    (c1.L + 2r > 0); and on a del Pezzo surface with nef c1 the nef
    decomposition.  There the other routes give Holds or nothing, so the
    order picks only the witness: ``dp<d>`` tries the decomposition first,
    ``blp2`` last.
    """
    s = v.surface
    notes = [_STACK_NOTE]
    nef_first = s.kind == "del_pezzo"
    if nef_first and is_nef(v.c1):
        return _nef_decomposition_verdict(v, notes)
    try:
        report = two_term_resolution(v)
        notes.append("two-term resolution by the stock collection")
        return _verdict(WBNStatus.HOLDS, report, None, None, tuple(notes))
    except ResolutionError as exc:
        notes.append(f"resolution route: {exc}")
    if not s.is_blowup_p2_like:
        return _verdict(WBNStatus.UNKNOWN, None, None, None, tuple(notes))
    try:
        gs = rounding_sum(v, seed=seed, trials=trials)
        witness = _checked_witness(gs, v, seed=seed, trials=trials)
        notes.append("rounded good sum plus general point modifications")
        return _verdict(WBNStatus.HOLDS, witness, None, None, tuple(notes))
    except ValueError as exc:
        notes.append(f"rounding route: {exc}")
    if s.config.kind == "collinear":
        C = DivisorClass(s, s.collinear_curves[0])  # L - sum of the collinear E_i
        # chi(O(-C)) = 0, so chi(O(C), v) = -c1.C - r: positive exactly when
        # r (delta - sum of collinear alphas) = c1.C < -r.  The slope
        # condition is checked at H = L: K + C = -2L + sum of the E_i off the
        # line, so c1.L > r (K + C).L reads l + 2r > 0.  Being strict, it holds
        # for the ample H = L + eps A at small eps, which keeps H.(K + F) < 0
        twice_pairing = twice_euler_pairing(line_bundle_character(C), v)
        obstruction = _section_certificate(v, C, basis_divisor(s, "L"), twice_pairing)
        if obstruction is not None:
            notes.append(
                "collinear points: the line through them pairs positively, "
                "forcing sections on every semistable sheaf for H = L + eps A "
                "(A ample, eps small), since mu(v).L > (K+C).L = -2"
            )
            return _verdict(WBNStatus.FAILS, None, obstruction, None, tuple(notes))
        if twice_pairing > 0:  # the certificate failed on the slope condition alone
            notes.append(
                f"collinear points: the line through them pairs positively "
                f"(chi(O(C), v) = {twice_pairing // 2}), but mu(v).L <= (K+C).L = -2, so the "
                "slope condition fails at H = L and no sections are forced"
            )
    if s.is_del_pezzo and not nef_first and is_nef(v.c1):
        return _nef_decomposition_verdict(v, notes)
    return _verdict(WBNStatus.UNKNOWN, None, None, None, tuple(notes))


def _nef_decomposition_verdict(v: ChernCharacter, notes: list[str]) -> WBNVerdict:
    """Holds for a nef c1 on a del Pezzo surface: a (-K)-good sum plus chi(sum) points."""
    witness = _checked_witness(delpezzo_decompose(v.c1, v.r), v)
    notes.append("anticanonically good sum plus general point modifications")
    return _verdict(WBNStatus.HOLDS, witness, None, None, tuple(notes))


def wbn(v: ChernCharacter, *, seed: int = 0, trials: int = 3) -> WBNVerdict:
    """The verdict entry point, one preamble for every surface: check
    chi(v) = 0 and send rank one to the line-bundle test; at higher rank
    F_e goes to the classification, which tests its own integer
    discriminant, and on every other surface a negative discriminant gives
    EmptyModuli (Bogomolov) before the sufficient conditions are tried."""
    if chi_integer(v) != 0:
        raise CharacterError("weak Brill-Noether verdicts require chi(v) = 0")
    if v.r == 1:
        return rank_one_wbn(v.c1, seed=seed, trials=trials)
    if v.surface.is_hirzebruch:
        return _hirzebruch_wbn(v)
    delta = v.discriminant()
    if delta < 0:
        return _empty_moduli(delta, [_STACK_NOTE])
    return _blowup_wbn(v, seed=seed, trials=trials)


def obstruction_certificate(v: ChernCharacter, C: DivisorClass, H: DivisorClass) -> Obstruction | None:
    """Section-forcing certificate from an effective curve class C.

    When chi(O(C), v) > 0 and the slope condition nu(v).H > (K+C).H holds
    for the polarization H, every semistable sheaf of character v has
    h0 >= chi(O(C), v).  Effectivity of C is the caller's responsibility.
    """
    if v.surface is not C.surface:
        raise LatticeError("curve class lives on a different surface")
    return _section_certificate(v, C, H, twice_euler_pairing(line_bundle_character(C), v))


def _section_certificate(
    v: ChernCharacter, C: DivisorClass, H: DivisorClass, twice_pairing: int
) -> Obstruction | None:
    """``obstruction_certificate`` for C on v's surface, given 2 chi(O(C), v)."""
    if twice_pairing <= 0:
        return None
    if twice_pairing % 2:
        raise CharacterError(f"non-integral pairing {Fraction(twice_pairing, 2)}; malformed character")
    K = canonical(v.surface)
    if intersect(v.c1, H) <= v.r * intersect(K + C, H):  # nu.H <= (K+C).H
        return None
    pairing = twice_pairing // 2
    return Obstruction(curve=C, chi_pairing=pairing, h0_lower_bound=pairing)
