"""The integer Hirzebruch core against a Fraction reference at large coordinates.

``wbn`` on F_e and ``two_term_resolution`` read normalization, the
sign of the discriminant, nu.E and the exponents (a, b, c) off one
raw-integer core on (e, r, k, l, 2 ch2).  The reference below recomputes
each of these in slope form with ``Fraction`` and no library arithmetic:
the Serre dual, the discriminant nu^2/2 - ch2/r, the twisted Euler
characteristic chi(v(-E)), the pairing chi(O(E), v) and the cokernel of a
resolution.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbn import chern as ch
from rbn import decide as dec
from rbn import goodsums as gd
from rbn import lattice as lat
from rbn import resolutions as res
from rbn.decide import WBNStatus


def ref_form(e, u, w):
    """The intersection form of F_e on (E, F) coordinates: E^2 = -e, E.F = 1."""
    return -e * u[0] * w[0] + u[0] * w[1] + u[1] * w[0]


def ref_pairing(e, rv, cv, ch2v, rw, cw, ch2w):
    """chi(v, w) = r_v r_w - (r_v c_w - r_w c_v).K/2 + r_v ch2_w + r_w ch2_v - c_v.c_w."""
    K = (-2, -(e + 2))
    mixed = rv * ref_form(e, cw, K) - rw * ref_form(e, cv, K)
    return rv * rw - Fraction(mixed, 2) + rv * ch2w + rw * ch2v - ref_form(e, cv, cw)


def ref_verdict(e, r, k, ell, ch2):
    """Everything ``wbn`` reports on F_e, in slope form.

    Returns a dict with the normalized (c1, ch2), whether the input was
    dualized, the status, the discriminant, and the Fails bound and pairing
    or the resolution exponents.
    """
    K = (-2, -(e + 2))
    c = (k, ell)
    kr = Fraction(k, r)
    dualized = not (kr > -1 or (kr == -1 and Fraction(ell, r) >= -1 - Fraction(e, 2)))
    if dualized:  # E^dual tensor K: c1 -> rK - c1, ch2 -> ch2 - c1.K + r K^2/2
        ch2 = ch2 - ref_form(e, c, K) + r * Fraction(ref_form(e, K, K), 2)
        c = (r * K[0] - c[0], r * K[1] - c[1])
    alpha, beta = Fraction(c[0], r), Fraction(c[1], r)
    out = {"c1": c, "ch2": ch2, "dualized": dualized}
    out["delta"] = Fraction(ref_form(e, (alpha, beta), (alpha, beta)), 2) - ch2 / r
    # chi(v(-E)) with c1(-E) = c1 - rE and ch2(-E) = ch2 - c1.E + r E^2/2
    twisted_ch2 = ch2 - ref_form(e, c, (1, 0)) + r * Fraction(-e, 2)
    out["chi_minus_E"] = r - Fraction(ref_form(e, (c[0] - r, c[1]), K), 2) + twisted_ch2
    out["pairing_E"] = ref_pairing(e, 1, (1, 0), Fraction(-e, 2), r, c, ch2)
    nu_e = beta - e * alpha
    out["exponents"] = (r * (nu_e + alpha + 1), r * (nu_e + 1), r * (alpha + 1))
    if out["delta"] < 0:
        out["status"] = WBNStatus.EMPTY_MODULI
    elif nu_e < -1:
        out["status"] = WBNStatus.FAILS
    else:
        out["status"] = WBNStatus.HOLDS
    return out


def ref_cokernel(e, report):
    """(r, c1, ch2) of the report's alternating sum, in Fractions."""
    r, c, ch2 = 0, (0, 0), Fraction(0)
    for sign, terms in ((1, report.right()), (-1, report.left())):
        for D, n in terms:
            r += sign * n
            c = tuple(a + sign * n * b for a, b in zip(c, D.coords))
            ch2 += sign * n * Fraction(ref_form(e, D.coords, D.coords), 2)
    return r, c, ch2


def check_character(e, r, k, ell):
    S = lat.hirzebruch(e)
    v = ch.character_from_chi(r, lat.DivisorClass(S, (k, ell)), 0)
    ch2 = -r + Fraction(ref_form(e, (k, ell), (-2, -(e + 2))), 2)  # chi = 0
    assert v.ch2 == ch2 and v.twice_ch2 == 2 * ch2
    ref = ref_verdict(e, r, k, ell, ch2)
    normalized = (r, ref["c1"], ref["ch2"])

    dualized, k_n, ell_n, t_n, _, _ = ch.hirzebruch_core(e, r, k, ell, v.twice_ch2)
    assert (dualized, (r, (k_n, ell_n), Fraction(t_n, 2))) == (ref["dualized"], normalized)

    verdict = dec.wbn(v)
    assert verdict.status is ref["status"]
    assert verdict.bogomolov_delta == ref["delta"]
    if verdict.status is WBNStatus.FAILS:
        obst = verdict.obstruction
        assert obst.curve.coords == (1, 0)
        assert obst.h0_lower_bound == ref["chi_minus_E"] == ref["pairing_E"] >= 1
        assert obst.chi_pairing == ref["pairing_E"]
    elif verdict.status is WBNStatus.HOLDS:
        witness = verdict.witness
        assert (witness.target.r, witness.target.c1.coords, witness.target.ch2) == normalized
        if isinstance(witness, res.ResolutionReport):
            assert witness.feasible and witness.bookkeeping_ok()
            assert ref_cokernel(e, witness) == normalized
            if witness.form != "direct-sum":
                assert witness.exponents == ref["exponents"]
            else:
                assert (e, ref["c1"], witness.exponents) == (0, (-r, -r), (r, 0, 0))
        else:
            assert isinstance(witness, gd.WBNWitness) and witness.bookkeeping_ok()
            assert min(ref["exponents"]) < 0  # the fiber sum only replaces infeasible exponents

    # the resolution, whatever the verdict; the entry point normalizes v itself
    try:
        report = res.two_term_resolution(v)
    except res.InfeasibleResolutionError:
        assert ref["exponents"][1] >= 0 and min(ref["exponents"]) < 0
    except res.ResolutionError as exc:
        assert ref["exponents"][1] < 0
        assert str(exc) == f"chi(E(-E)) = {ref['chi_minus_E']} > 0: sections obstruct the resolution"
    else:
        assert (report.target.r, report.target.c1.coords, report.target.ch2) == normalized
        assert report.bookkeeping_ok() and ref_cokernel(e, report) == normalized
        if report.form != "direct-sum":
            assert report.exponents == ref["exponents"]


BIG = 10**6


@st.composite
def hirzebruch_queries(draw):
    """(e, r, k, l) with e <= 10, r <= 1000 and |k|, |l| <= 10^6.

    Uniform coordinates mostly land in EmptyModuli and never on the
    normalization boundary, so most draws are steered: k to within 2 of
    -r (the boundary k/r = -1), and l to within a few r of the lines
    l = ek - r (nu.E = -1, the Fails boundary) and 2l = ek - 2r (zero
    discriminant), or to within 2 of the tie 2l = -(2 + e) r.
    """
    e = draw(st.integers(0, 10), label="e")
    r = draw(st.integers(2, 1000), label="r")
    if draw(st.booleans(), label="k on the boundary"):
        k = -r + draw(st.integers(-2, 2), label="k offset")
    else:
        k = draw(st.integers(-BIG // (e + 1), BIG // (e + 1)), label="k")
    anchor = draw(st.sampled_from(["uniform", "nu.E", "discriminant", "tie"]), label="anchor")
    if anchor == "uniform":
        return e, r, k, draw(st.integers(-BIG, BIG), label="l")
    if anchor == "tie":
        base, spread = -((2 + e) * r) // 2, 2
    else:
        base, spread = (e * k - r if anchor == "nu.E" else (e * k) // 2 - r), 3 * r
    offset = draw(st.integers(-spread, spread), label="l offset")
    return e, r, k, max(-BIG, min(BIG, base + offset))


class TestLargeCoordinates:
    @settings(max_examples=500, deadline=None)
    @given(query=hirzebruch_queries())
    def test_core_matches_fraction_reference(self, query):
        check_character(*query)

    # one character per branch the steered draws are meant to reach
    @pytest.mark.parametrize(
        "query, status, witness",
        [
            ((3, 7, 5, 8), WBNStatus.HOLDS, "ResolutionReport"),
            ((0, 5, -5, -5), WBNStatus.HOLDS, "ResolutionReport"),  # direct sum
            ((1, 4, -4, -4), WBNStatus.HOLDS, "ResolutionReport"),  # k = l = -r, not on F_0
            ((1, 3, -2, -4), WBNStatus.HOLDS, "WBNWitness"),  # fiber sum
            ((10, 999, 123456, 1232560), WBNStatus.FAILS, "NoneType"),
            ((3, 7, 5, -40), WBNStatus.EMPTY_MODULI, "NoneType"),
            ((3, 7, -19, -43), WBNStatus.HOLDS, "ResolutionReport"),  # the dual of (5, 8)
        ],
    )
    def test_each_branch(self, query, status, witness):
        check_character(*query)
        e, r, k, ell = query
        verdict = dec.wbn(
            ch.character_from_chi(r, lat.DivisorClass(lat.hirzebruch(e), (k, ell)), 0)
        )
        assert (verdict.status, type(verdict.witness).__name__) == (status, witness)
