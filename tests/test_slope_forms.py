"""The integer forms of the slope hypotheses against their Fraction originals.

Each hypothesis on the total slope nu = c1/r is tested in the library as an
integer inequality on (r, c1), multiplied through by r > 0.  The reference
functions below are the slope forms they replace, written with ``Fraction``
slopes: the hypothesis blocks and exponents of the two blowup resolutions,
the normalization test on F_e, the nu.E < -1 branch of ``wbn`` on F_e,
the collinear line's gap of ``wbn`` on blowups of the plane and the
polarization test of ``obstruction_certificate``.  On a box and on large
random coordinates the library must give the same outcome, the same
exponents and the same message.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbn import chern as ch
from rbn import decide as dec
from rbn import lattice as lat
from rbn import resolutions as res
from rbn.decide import WBNStatus

from references import _as_int, serre_dual_character


def ref_nu(v):
    return tuple(Fraction(c, v.r) for c in v.c1.coords)


def ref_dot(surface, u, w):
    """The intersection form on Fraction coordinates, expanded in the basis."""
    unit = [tuple(int(i == j) for j in range(surface.rank)) for i in range(surface.rank)]
    return sum(
        ui * wj * lat.form(surface, unit[i], unit[j])
        for i, ui in enumerate(u)
        for j, wj in enumerate(w)
        if ui and wj
    )


# ---------------------------------------------------------------------------
# Reference slope forms
# ---------------------------------------------------------------------------


def ref_blowup_resolution(v):
    """Outcome of the blowup-of-the-plane hypotheses with Fraction slopes."""
    r = v.r
    nu = ref_nu(v)
    delta, alphas = nu[0], [-c for c in nu[1:]]
    if delta < 0:
        return ("error", f"hypothesis delta >= 0 fails: delta = {delta}")
    for i, alpha in enumerate(alphas, start=1):
        if alpha < 0:
            return ("error", f"hypothesis alpha_{i} >= 0 fails: alpha_{i} = {alpha}")
    if delta - sum(alphas) < -1:
        return ("error", f"hypothesis delta - sum alpha_i >= -1 fails: {delta - sum(alphas)}")
    a = _as_int(r * (delta - sum(alphas) + 1), "exponent a")
    cs = [_as_int(r * alpha, f"exponent c_{i}") for i, alpha in enumerate(alphas, start=1)]
    b_signed = r + a - sum(cs)
    form = "eqfirst" if b_signed >= 0 else "eqsecond"
    return ("ok", form, 1 if b_signed >= 0 else 2, (a, abs(b_signed), *cs))


def ref_blowup_hirzebruch_resolution(v):
    """Outcome of the blowup-of-F_e hypotheses with Fraction slopes."""
    e, r = v.surface.e, v.r
    nu = ref_nu(v)
    alpha, beta = nu[0], nu[1]
    alphas = [-c for c in nu[2:]]
    for i, ai in enumerate(alphas, start=1):
        if ai < 0:
            return ("error", f"hypothesis alpha_{i} >= 0 fails: alpha_{i} = {ai}")
    if alpha - sum(alphas) < -1:
        return ("error", f"hypothesis alpha - sum alpha_i >= -1 fails: {alpha - sum(alphas)}")
    bound = max((e - 1) * alpha, e * alpha)
    if beta - sum(alphas) + 1 < bound:
        return (
            "error",
            f"hypothesis beta - sum alpha_i + 1 >= max((e-1)alpha, e alpha) fails: "
            f"{beta - sum(alphas) + 1} < {bound}",
        )
    a = _as_int(r * (beta - (e - 1) * alpha - sum(alphas) + 1), "exponent a")
    b = _as_int(r * (beta - e * alpha - sum(alphas) + 1), "exponent b")
    c = _as_int(r * (alpha - sum(alphas) + 1), "exponent c")
    ds = [_as_int(r * ai, f"exponent d_{i}") for i, ai in enumerate(alphas, start=1)]
    return ("ok", "generic", 1, (a, b, c, *ds))


def library_resolution(v):
    try:
        report = res.two_term_resolution(v)
    except res.ResolutionError as exc:
        return ("error", str(exc))
    return ("ok", report.form, report.collection.split_index, report.exponents)


def ref_normalized(w):
    """The normalization test of ``hirzebruch_core``: k/r >= -1, ties by l/r."""
    e = w.surface.e
    k, ell = w.c1.coords
    kr = Fraction(k, w.r)
    if kr > -1:
        return True
    if kr < -1:
        return False
    return Fraction(ell, w.r) >= -1 - Fraction(e, 2)


def ref_discriminant(w):
    nu = ref_nu(w)
    return Fraction(ref_dot(w.surface, nu, nu), 2) - Fraction(w.ch2, w.r)


def ref_hirzebruch_status(v):
    """Status of ``wbn`` on F_e from the Fraction forms of its tests."""
    w = v if ref_normalized(v) else serre_dual_character(v)
    assert ref_normalized(w)
    if ref_discriminant(w) < 0:
        return w, WBNStatus.EMPTY_MODULI
    E = lat.basis_divisor(w.surface, "E").coords
    if ref_dot(w.surface, ref_nu(w), E) < -1:
        return w, WBNStatus.FAILS
    return w, WBNStatus.HOLDS


def ref_collinear_gap(v, C):
    """The collinear branch: the slope gap delta - sum of collinear alphas."""
    gap = Fraction(lat.intersect(v.c1, C), v.r)
    return gap < -1, v.r * (-gap - 1)


def ref_obstruction_certificate(v, C, H):
    pairing = ch.euler_pairing(ch.line_bundle_character(C), v)
    if pairing <= 0:
        return None
    K = lat.canonical(v.surface)
    if ref_dot(v.surface, ref_nu(v), H.coords) <= lat.intersect(K + C, H):
        return None
    return dec.Obstruction(curve=C, chi_pairing=int(pairing), h0_lower_bound=int(pairing))


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def check_hirzebruch(v):
    w_ref, status = ref_hirzebruch_status(v)
    dualized, k, ell, t, _, _ = ch.hirzebruch_core(v.surface.e, v.r, *v.c1.coords, v.twice_ch2)
    assert (dualized, (k, ell), t) == (w_ref is not v, w_ref.c1.coords, w_ref.twice_ch2), v
    verdict = dec.wbn(v)
    assert verdict.status is status, v
    assert verdict.bogomolov_delta == ref_discriminant(w_ref), v


def check_blowup_p2(v):
    got = library_resolution(v)
    assert got == ref_blowup_resolution(v), v


def check_blowup_hirzebruch(v):
    got = library_resolution(v)
    assert got == ref_blowup_hirzebruch_resolution(v), v


def check_obstruction(v, C, H):
    assert dec.obstruction_certificate(v, C, H) == ref_obstruction_certificate(v, C, H), (v, C, H)


def collinear_line(surface):
    C = lat.basis_divisor(surface, "L")
    for i in surface.config.collinear:
        C = C - lat.basis_divisor(surface, f"E{i}")
    return C


def chi_zero(surface, r, coords):
    return ch.character_from_chi(r, lat.DivisorClass(surface, tuple(coords)), 0)


class TestHirzebruchBox:
    @pytest.mark.parametrize("e", [0, 1, 2, 3])
    def test_normalization_and_status(self, e):
        S = lat.hirzebruch(e)
        for r in (2, 3, 4):
            for k, ell in itertools.product(range(-3 * r, 3 * r + 1), repeat=2):
                check_hirzebruch(chi_zero(S, r, (k, ell)))

    def test_normalization_off_chi_zero(self):
        # hirzebruch_core takes any chi; the boundary k = -r is the tie
        for e in (0, 1, 2, 3):
            S = lat.hirzebruch(e)
            for r, chi in itertools.product((2, 3, 4), (-2, 1, 3)):
                for k, ell in itertools.product(range(-2 * r, r + 1), range(-3 * r, 3 * r + 1)):
                    v = ch.character_from_chi(r, lat.DivisorClass(S, (k, ell)), chi)
                    dualized, k_n, ell_n, t, _, _ = ch.hirzebruch_core(e, r, k, ell, v.twice_ch2)
                    assert dualized is not ref_normalized(v), v
                    assert ref_normalized(ch.ChernCharacter(r, lat.DivisorClass(S, (k_n, ell_n)), twice_ch2=t))


def blowup_p2_box(surface):
    for r in (2, 3, 4):
        for ell in range(-3, 3 * r):
            for ms in itertools.product(range(-1, r + 2), repeat=surface.k):
                yield chi_zero(surface, r, (ell,) + tuple(-m for m in ms))


class TestBlowupP2Box:
    @pytest.mark.parametrize(
        "spec", ["blp2:k=1", "blp2:k=2", "blp2:k=3", "blp2:k=2:collinear=1,2", "blp2:k=3:collinear=1,2,3"]
    )
    def test_resolution_hypotheses(self, spec):
        S = lat.parse_surface(spec)
        for v in blowup_p2_box(S):
            check_blowup_p2(v)

    @pytest.mark.parametrize("spec", ["blp2:k=2:collinear=1,2", "blp2:k=3:collinear=1,2,3"])
    def test_collinear_gap(self, spec):
        # the branch runs once both the resolution and the rounding route
        # fail; there it answers Fails exactly when the slope gap is below -1.
        # Bogomolov answers first, so the branch sees Delta >= 0 only
        S = lat.parse_surface(spec)
        C = collinear_line(S)
        reached = fails = 0
        for v in blowup_p2_box(S):
            verdict = dec.wbn(v)
            if ref_discriminant(v) < 0:
                assert verdict.status is WBNStatus.EMPTY_MODULI, v
                continue
            if verdict.status is WBNStatus.HOLDS:
                continue
            reached += 1
            below, pairing = ref_collinear_gap(v, C)
            assert (verdict.status is WBNStatus.FAILS) == below, v
            if below:
                fails += 1
                assert verdict.obstruction.curve == C
                assert verdict.obstruction.chi_pairing == pairing, v
        assert fails and reached > fails

    def test_obstruction_polarization(self):
        S = lat.blowup_p2(2)
        curves = [lat.parse_divisor(t, S) for t in ("L", "L-E1", "L-E1-E2", "E1", "2L-E1")]
        polarizations = [lat.parse_divisor(t, S) for t in ("L", "3L-E1-E2", "2L-E1", "5L-2E1-3E2")]
        for r, chi in itertools.product((2, 3), (0, 2)):
            for coords in itertools.product(range(-4, 5), range(-2, 3), range(-2, 3)):
                v = ch.character_from_chi(r, lat.DivisorClass(S, coords), chi)
                for C, H in itertools.product(curves, polarizations):
                    check_obstruction(v, C, H)


class TestBlowupHirzebruchBox:
    @pytest.mark.parametrize("e, k", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_resolution_hypotheses(self, e, k):
        S = lat.blowup_hirzebruch(e, k)
        for r in (2, 3):
            for A, B in itertools.product(range(-r - 2, 2 * r), range(-2 * r - 2, (e + 1) * r + 3)):
                for ds in itertools.product(range(-1, r + 1), repeat=k):
                    check_blowup_hirzebruch(chi_zero(S, r, (A, B) + tuple(-d for d in ds)))


BIG = st.integers(-(10**6), 10**6)


class TestLargeCoordinates:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_slope_forms_agree(self, data):
        r = data.draw(st.integers(2, 10**3), label="r")
        kind = data.draw(st.sampled_from(["F", "blp2", "collinear", "blF"]), label="kind")
        if kind == "F":
            S = lat.hirzebruch(data.draw(st.integers(0, 3), label="e"))
            check_hirzebruch(chi_zero(S, r, (data.draw(BIG), data.draw(BIG))))
            return
        if kind == "blF":
            S = lat.blowup_hirzebruch(data.draw(st.integers(2, 3), label="e"), data.draw(st.integers(1, 3)))
            check_blowup_hirzebruch(chi_zero(S, r, [data.draw(BIG) for _ in range(S.rank)]))
            return
        k = data.draw(st.integers(2, 4), label="k")
        S = lat.blowup_p2(k, lat.collinear_config(range(1, k + 1)) if kind == "collinear" else lat.GENERAL)
        # steer half the draws to nonnegative slopes, where the exponents are computed
        sign = data.draw(st.sampled_from([1, -1]), label="sign")
        coords = [data.draw(BIG)] + [sign * abs(data.draw(BIG)) for _ in range(k)]
        v = chi_zero(S, r, coords)
        check_blowup_p2(v)
        if kind == "collinear":
            H = lat.DivisorClass(S, (data.draw(st.integers(1, 50)),) + (-1,) * k)
            check_obstruction(v, collinear_line(S), H)
