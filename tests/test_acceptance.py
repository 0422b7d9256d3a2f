"""Acceptance suite: every criterion is exact (tolerance zero).

Each test prints one PASS line with the size of the sweep it verified; any
assertion failure marks the criterion as failed.
"""

import itertools
import random
from fractions import Fraction

from rbn import chern as ch
from rbn import cohomology as coh
from rbn import decide as dec
from rbn import goodsums as gd
from rbn import lattice as lat
from rbn import resolutions as res
from rbn.cohomology import Vanishing
from rbn.decide import WBNStatus


def test_criterion_1_hirzebruch_cohomology_exactness():
    checked = 0
    for e in range(4):
        S = lat.hirzebruch(e)
        K = lat.canonical(S)
        for a in range(-8, 9):
            for b in range(-8, 9):
                D = lat.divisor(S, a, b)
                vec = coh.hirzebruch_cohomology(D)
                assert vec == coh.hirzebruch_pushforward_oracle(D), (e, a, b)
                dual = coh.hirzebruch_cohomology(K - D)
                assert (vec.h0, vec.h1, vec.h2) == (dual.h2, dual.h1, dual.h0), (e, a, b)
                assert vec.chi == lat.chi_line_bundle(D), (e, a, b)
                checked += 1
        # the named rows of the classification
        for b in range(-8, 9):
            assert coh.hirzebruch_cohomology(lat.divisor(S, -1, b)).as_tuple() == (0, 0, 0)
            if b >= 0:
                assert coh.hirzebruch_cohomology(lat.divisor(S, 0, b)).as_tuple() == (
                    b + 1,
                    0,
                    0,
                )
    assert checked == 4 * 17 * 17
    print(f"\nPASS criterion 1: {checked} bundles, exact agreement + Serre duality + chi")


def _zero_claims_sound(surface, max_degree, max_mult, claims):
    """Every Zero claim on the box is oracle-clean; counts exact and rule claims."""
    for d in range(max_degree):
        for mults in itertools.product(range(max_mult), repeat=surface.k):
            D = lat.DivisorClass(surface, (d,) + tuple(-m for m in mults))
            verdict = coh.vanishing_by_rules(D)
            if verdict.higher_cohomology is Vanishing.ZERO:
                claims["exact" if verdict.derivation == (coh._CREMONA_NOTE,) else "rules"] += 1
                vec = coh.blowup_cohomology_oracle(D, seed=0, trials=3, prime=1000003)
                assert vec.h1 == 0 and vec.h2 == 0, (D, vec)


def test_criterion_2_oracle_soundness_on_blowups():
    claims = {"exact": 0, "rules": 0}
    # general points: the Cremona vector, checked against the oracle
    _zero_claims_sound(lat.blowup_p2(5), 11, 5, claims)
    for k in (2, 3):  # smaller blowups, checked on their own surface models
        _zero_claims_sound(lat.blowup_p2(k), 7, 5, claims)
    exact = claims["exact"]
    assert claims["rules"] == 0
    # collinear points: only the rule engine answers, so its claims stay checked
    _zero_claims_sound(lat.parse_surface("blp2:k=5:collinear=1,2,3"), 11, 4, claims)
    assert claims["exact"] == exact and claims["rules"] > 0
    collinear = lat.blowup_p2(4, lat.collinear_config([1, 2, 3, 4]))
    line = lat.parse_divisor("L-E1-E2-E3-E4", collinear)
    assert coh.interpolation_h0(line, seed=0, trials=3, prime=1000003) == 1
    general = lat.blowup_p2(4)
    line_g = lat.parse_divisor("L-E1-E2-E3-E4", general)
    assert coh.interpolation_h0(line_g, seed=0, trials=3, prime=1000003) == 0
    five = lat.blowup_p2(5)
    conic2 = lat.parse_divisor("4L-2E1-2E2-2E3-2E4-2E5", five)
    assert coh.interpolation_h0(conic2, seed=0, trials=3, prime=1000003) == 1
    print(
        f"PASS criterion 2: {claims['exact']} exact and {claims['rules']} rule-derived "
        "Zero claims, zero oracle contradictions"
    )


def _hirz_form(e, u, w):
    """The intersection form of F_e on (E, F) coordinates: E^2 = -e, E.F = 1."""
    return -e * u[0] * w[0] + u[0] * w[1] + u[1] * w[0]


def _hirz_expectation(e, r, k, ell):
    """Status, discriminant, Fails bound and normalized (c1, ch2) of the chi = 0
    character with c1 = kE + lF, from Fractions in slope form alone."""
    K = (-2, -(e + 2))
    c = (k, ell)
    ch2 = -r + Fraction(_hirz_form(e, c, K), 2)  # chi = r - c1.K/2 + ch2 = 0
    # Serre-dual normalization: k/r >= -1, and l/r >= -1 - e/2 on the boundary
    kr = Fraction(k, r)
    if not (kr > -1 or (kr == -1 and Fraction(ell, r) >= -1 - Fraction(e, 2))):
        ch2 = ch2 - _hirz_form(e, c, K) + r * Fraction(_hirz_form(e, K, K), 2)
        c = tuple(r * a - b for a, b in zip(K, c))
    delta = Fraction(_hirz_form(e, c, c), r * r) / 2 - ch2 / r
    nu_e = Fraction(_hirz_form(e, c, (1, 0)), r)
    # chi(v(-E)) = r - c1(-E).K/2 + ch2(-E), with c1(-E) = c1 - rE
    # and ch2(-E) = ch2 - c1.E + r E^2/2
    twisted_c = (c[0] - r, c[1])
    twisted_ch2 = ch2 - _hirz_form(e, c, (1, 0)) + r * Fraction(-e, 2)
    h0_bound = r - Fraction(_hirz_form(e, twisted_c, K), 2) + twisted_ch2
    if delta < 0:
        status = WBNStatus.EMPTY_MODULI
    else:
        status = WBNStatus.HOLDS if nu_e >= -1 else WBNStatus.FAILS
    return status, delta, h0_bound, (r, c, ch2)


def _resolution_cokernel(e, report):
    """(r, c1, ch2) of the alternating sum of the report, in Fractions."""
    if report.direct_sum is not None:
        D, mult = report.direct_sum
        square = Fraction(_hirz_form(e, D.coords, D.coords), 2)
        return mult, tuple(mult * a for a in D.coords), mult * square
    r, c, ch2 = 0, (0, 0), Fraction(0)
    for sign, terms in ((1, report.right()), (-1, report.left())):
        for D, n in terms:
            r += sign * n
            c = tuple(a + sign * n * b for a, b in zip(c, D.coords))
            ch2 += sign * n * Fraction(_hirz_form(e, D.coords, D.coords), 2)
    return r, c, ch2


def test_criterion_3_hirzebruch_classification_boundary():
    # the expectations come from the test's own Fraction arithmetic, not
    # from the library's normalization, discriminant or pairings
    holds = fails = empty = 0
    f0_witnessed = False
    for e in range(4):
        S = lat.hirzebruch(e)
        for r in (2, 3, 4):
            bound = 8 * r
            for k in range(-bound, bound + 1):
                for ell in range(-bound, bound + 1):
                    v = ch.character_from_chi(r, lat.DivisorClass(S, (k, ell)), 0)
                    verdict = dec.hirzebruch_wbn(v)
                    status, delta, h0_bound, normalized = _hirz_expectation(e, r, k, ell)
                    assert verdict.status is status, v
                    assert verdict.bogomolov_delta == delta, v
                    if verdict.status is WBNStatus.HOLDS:
                        holds += 1
                        witness = verdict.witness
                        target = witness.target
                        assert (target.r, target.c1.coords, target.ch2) == normalized, v
                        if isinstance(witness, res.ResolutionReport):
                            assert witness.feasible and witness.bookkeeping_ok(), v
                            assert _resolution_cokernel(e, witness) == normalized, v
                            if witness.direct_sum is not None and e == 0 and (k, ell) == (
                                -2,
                                -2,
                            ) and r == 2:
                                f0_witnessed = witness.direct_sum == (
                                    lat.parse_divisor("-E-F", S),
                                    2,
                                )
                        else:
                            assert witness.bookkeeping_ok(), v
                    elif verdict.status is WBNStatus.FAILS:
                        fails += 1
                        obst = verdict.obstruction
                        assert obst.h0_lower_bound == h0_bound == obst.chi_pairing, v
                        assert h0_bound >= 1, v
                    else:
                        assert verdict.status is WBNStatus.EMPTY_MODULI, v
                        empty += 1
    assert f0_witnessed, "the F_0 twist of O(-1,-1) did not produce its direct-sum witness"
    total = holds + fails + empty
    print(
        f"PASS criterion 3: {total} characters "
        f"(Holds {holds}, Fails {fails}, EmptyModuli {empty}); boundary exact"
    )


def test_criterion_4_exponent_double_derivation():
    rng = random.Random(2024)
    worked = ch.character_from_chi(
        2, lat.parse_divisor("2L-E1-E2", lat.blowup_p2(2)), 0
    )
    report = res.blowup_resolution(worked)
    assert report.exponents == (2, 2, 1, 1)
    assert res.solve_exponents(worked, report.collection).exponents == (2, 2, 1, 1)

    blowup_checked = 0
    while blowup_checked < 200:
        k = rng.randrange(1, 6)
        surface = lat.blowup_p2(k)
        r = rng.randrange(2, 7)
        ell = rng.randrange(0, 8 * r + 1)
        mults = [rng.randrange(0, 2 * r + 1) for _ in range(k)]
        if ell - sum(mults) < -r:
            continue
        v = ch.character_from_chi(
            r, lat.DivisorClass(surface, (ell,) + tuple(-m for m in mults)), 0
        )
        closed = res.blowup_resolution(v)
        solved = res.solve_exponents(v, closed.collection)
        assert closed.exponents == solved.exponents, v
        blowup_checked += 1

    blf_checked = 0
    while blf_checked < 100:
        e = rng.randrange(2, 5)
        k = rng.randrange(1, 4)
        surface = lat.blowup_hirzebruch(e, k)
        r = rng.randrange(2, 7)
        a = rng.randrange(-r, 2 * r + 1)
        mults = [rng.randrange(0, r + 1) for _ in range(k)]
        if a - sum(mults) < -r:
            continue
        b = max((e - 1) * a, e * a) + sum(mults) - r + rng.randrange(0, 3 * r)
        v = ch.character_from_chi(
            r, lat.DivisorClass(surface, (a, b) + tuple(-m for m in mults)), 0
        )
        try:
            closed = res.blowup_hirzebruch_resolution(v)
        except res.ResolutionError:
            continue
        solved = res.solve_exponents(v, closed.collection)
        assert closed.exponents == solved.exponents, v
        blf_checked += 1
    print(
        f"PASS criterion 4: exponents agree on {blowup_checked} blowup and "
        f"{blf_checked} Hirzebruch-blowup characters"
    )


def _nef_classes(surface, max_degree):
    k = surface.k
    for d in range(max_degree + 1):
        for mults in itertools.product(range(d + 1), repeat=k):
            D = lat.DivisorClass(surface, (d,) + tuple(-m for m in mults))
            if lat.is_nef(D):
                yield D


def test_criterion_5_del_pezzo_decomposition_exhaustive():
    decompositions = 0
    summands_checked: dict = {}
    reference_sum = {"L-E1", "L-E2", "E1+E2"}
    reference_seen = False
    for degree in (7, 6, 5, 4):
        surface = lat.del_pezzo(degree)
        k = surface.k
        for D in _nef_classes(surface, 8):
            d_L = D.coords[0]
            moves, _ = gd._upshift_moves(D.coords, k)
            assert len(moves) <= k * d_L * d_L, (D, len(moves))
            for r in range(1, 6):
                gs = gd.delpezzo_decompose(D, r)
                decompositions += 1
                assert gs.c1() == D, (D, r)
                degrees = gs.degrees()
                assert max(degrees) - min(degrees) <= 1, (D, r)
                check = gd.is_good_sum(gs)
                assert check.ok, (D, r, check.failures)
                for s in gs.summands:
                    key = (degree, s.coords)
                    if key not in summands_checked:
                        vec = coh.blowup_cohomology_oracle(s, seed=0, trials=3)
                        assert vec.h1 == 0 and vec.h2 == 0, (D, r, s, vec)
                        summands_checked[key] = True
                if degree == 7 and str(D) == "2L" and r == 3:
                    reference_seen = set(map(str, gs.summands)) == reference_sum
    assert reference_seen, "the rank-3 decomposition of 2L on dp7 changed"
    print(
        f"PASS criterion 5: {decompositions} decompositions verified, "
        f"{len(summands_checked)} distinct summands oracle-clean"
    )


def test_criterion_6_witness_bookkeeping():
    rng = random.Random(4)
    checked = 0
    while checked < 100:
        degree = rng.choice((4, 5, 6, 7))
        surface = lat.del_pezzo(degree)
        coords = (rng.randrange(0, 8),) + tuple(
            -rng.randrange(0, 5) for _ in range(surface.k)
        )
        c1 = lat.DivisorClass(surface, coords)
        if not lat.is_nef(c1):
            continue
        r = rng.randrange(1, 6)
        v = ch.character_from_chi(r, c1, 0)
        gs = gd.delpezzo_decompose(c1, r)
        witness = gd.WBNWitness(gs, gs.chi(), v)
        n = witness.modifications
        assert n == witness.good_sum.chi() and n >= 0, v
        assert witness.good_sum.character().ch2 - n == v.ch2, v
        F = lat.parse_divisor("L-E1", surface)
        assert gd.prioritary_sum_check(witness.good_sum, F), v
        checked += 1
    print(f"PASS criterion 6: {checked} witnesses with exact modification bookkeeping")


def test_criterion_7_structural_suites():
    rng = random.Random(5)
    # Euler pairing normalizations
    for surface in (lat.hirzebruch(2), lat.blowup_p2(3), lat.del_pezzo(5)):
        O = ch.line_bundle_character(lat.zero_divisor(surface))
        for _ in range(50):
            coords = tuple(rng.randrange(-6, 7) for _ in range(surface.rank))
            w = ch.character_from_chi(rng.randrange(1, 5), lat.DivisorClass(surface, coords), rng.randrange(-5, 6))
            assert ch.euler_pairing(O, w) == ch.riemann_roch_chi(w)
            A = lat.DivisorClass(surface, tuple(rng.randrange(-5, 6) for _ in range(surface.rank)))
            B = lat.DivisorClass(surface, tuple(rng.randrange(-5, 6) for _ in range(surface.rank)))
            assert ch.euler_pairing(
                ch.line_bundle_character(A), ch.line_bundle_character(B)
            ) == lat.chi_line_bundle(B - A)
            v = ch.character_from_chi(rng.randrange(1, 5), A, rng.randrange(-5, 6))
            dual = ch.serre_dual_character(v)
            assert ch.serre_dual_character(dual) == v
            assert ch.riemann_roch_chi(dual) == ch.riemann_roch_chi(v)
    # Weyl reflections: involution, form/K preservation, nef preservation
    for degree in (4, 5, 6, 7):
        S = lat.del_pezzo(degree)
        K = lat.canonical(S)
        roots = [lat.transposition_root(S, 1, 2)]
        if S.k >= 3:
            roots.append(lat.cremona_root(S, 1, 2, 3))
        for root in roots:
            assert lat.weyl_reflect(K, root) == K
            for _ in range(25):
                a = lat.DivisorClass(S, tuple(rng.randrange(-5, 6) for _ in range(S.rank)))
                b = lat.DivisorClass(S, tuple(rng.randrange(-5, 6) for _ in range(S.rank)))
                ra, rb = lat.weyl_reflect(a, root), lat.weyl_reflect(b, root)
                assert lat.weyl_reflect(ra, root) == a
                assert lat.intersect(ra, rb) == lat.intersect(a, b)
                assert lat.is_nef(ra) == lat.is_nef(a)
    # (-1)-curve counts and numerics
    for degree, count in ((7, 3), (6, 6), (5, 10), (4, 16)):
        S = lat.del_pezzo(degree)
        curves = lat.neg_one_curves(S)
        assert len(curves) == count
        for C in curves:
            assert lat.intersect(C, C) == -1
            assert lat.intersect(-lat.canonical(S), C) == 1
    # strong exceptionality of the three stock collections
    for surface in (lat.hirzebruch(2), lat.blowup_p2(3), lat.blowup_hirzebruch(2, 2)):
        ok, witness = res.verify_strong_exceptional(res.builtin_collection(surface))
        assert ok, (surface, witness)
    print("PASS criterion 7: pairings, duals, Weyl action, curve counts, collections exact")
