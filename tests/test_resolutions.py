import random

import pytest

from rbn import chern as ch
from rbn import lattice as lat
from rbn import resolutions as res


F0 = lat.hirzebruch(0)
F1 = lat.hirzebruch(1)
F2 = lat.hirzebruch(2)
BL2 = lat.blowup_p2(2)
BL3 = lat.blowup_p2(3)
BLF = lat.blowup_hirzebruch(2, 1)


def D(surface, expr):
    return lat.parse_divisor(expr, surface)


class TestBuiltinCollections:
    def test_sizes(self):
        assert len(res.builtin_collection(F2).bundles) == 4
        assert len(res.builtin_collection(BL3).bundles) == 6
        assert len(res.builtin_collection(BLF).bundles) == 5

    def test_all_supported_surfaces_verify(self):
        surfaces = [lat.hirzebruch(e) for e in range(5)]
        surfaces += [lat.blowup_p2(k) for k in range(1, 6)]
        surfaces += [lat.blowup_hirzebruch(e, k) for e in (2, 3, 4) for k in (1, 3, 5)]
        surfaces += [lat.del_pezzo(d) for d in (4, 5, 6, 7)]
        for surface in surfaces:
            ok, witness = res.verify_strong_exceptional(res.builtin_collection(surface))
            assert ok, (surface, witness)

    def test_reversed_collection_fails_with_witness(self):
        coll = res.builtin_collection(F2)
        reversed_coll = res.ExceptionalCollection(
            F2, tuple(reversed(coll.bundles[:-1])) + (lat.zero_divisor(F2),), 1
        )
        ok, witness = res.verify_strong_exceptional(reversed_coll)
        assert not ok and witness is not None
        coll2 = res.builtin_collection(BL2)
        reversed2 = res.ExceptionalCollection(
            BL2, tuple(reversed(coll2.bundles[:-1])) + (lat.zero_divisor(BL2),), 1
        )
        ok, witness = res.verify_strong_exceptional(reversed2)
        assert not ok and witness is not None


class TestSolveExponents:
    def test_blowup_example(self):
        v = ch.character_from_chi(2, D(BL2, "2L-E1-E2"), 0)
        report = res.solve_exponents(v, res.builtin_collection(BL2))
        assert report.exponents == (2, 2, 1, 1)
        assert report.bookkeeping_ok()

    def test_hirzebruch_example(self):
        v = ch.character_from_chi(2, lat.zero_divisor(F1), 0)
        report = res.solve_exponents(v, res.builtin_collection(F1))
        assert report.exponents == (2, 2, 2)

    def test_self_resolving_bundle(self):
        v = ch.character_from_chi(1, D(F2, "-F"), 0)
        report = res.solve_exponents(v, res.builtin_collection(F2))
        assert report.exponents == (0, 0, 1)

    def test_requires_chi_zero(self):
        v = ch.character_from_chi(2, lat.zero_divisor(F1), 1)
        with pytest.raises(ch.CharacterError):
            res.solve_exponents(v, res.builtin_collection(F1))


class TestHirzebruchResolution:
    def test_trivial_slope(self):
        v = ch.character_from_chi(2, lat.zero_divisor(F1), 0)
        report = res.hirzebruch_resolution(v)
        assert report.exponents == (2, 2, 2)
        assert report.cokernel_character() == v

    def test_quadric_special_case(self):
        v = ch.character_from_chi(2, D(F0, "-2E-2F"), 0)
        report = res.hirzebruch_resolution(v)
        assert report.direct_sum == (D(F0, "-E-F"), 2)
        assert report.bookkeeping_ok()

    def test_generic_f2_character(self):
        v = ch.character_from_chi(2, D(F2, "2E+5F"), 0)
        report = res.hirzebruch_resolution(v)
        assert report.exponents == (5, 3, 4)
        assert report.feasible and report.bookkeeping_ok()

    def test_boundary_b_zero_is_valid(self):
        # nu.E = -1 exactly: b = 0 and the report remains consistent
        v = ch.character_from_chi(2, D(F1, "2E"), 0)
        report = res.hirzebruch_resolution(v)
        assert report.exponents[1] == 0
        assert report.feasible and report.bookkeeping_ok()

    def test_section_obstruction_raises(self):
        v = ch.character_from_chi(2, D(F1, "2E-F"), 0)  # nu.E < -1
        with pytest.raises(res.ResolutionError):
            res.hirzebruch_resolution(v)

    def test_infeasible_pocket_raises(self):
        v = ch.character_from_chi(3, D(F1, "-2E-4F"), 0)
        with pytest.raises(res.InfeasibleResolutionError):
            res.hirzebruch_resolution(v)

    def test_unnormalized_rejected(self):
        v = ch.character_from_chi(2, D(F2, "-3E"), 0)
        with pytest.raises(res.ResolutionError):
            res.hirzebruch_resolution(v)


class TestBlowupResolution:
    def test_first_form(self):
        v = ch.character_from_chi(2, D(BL2, "2L-E1-E2"), 0)
        report = res.blowup_resolution(v)
        assert report.form == "eqfirst" and report.exponents == (2, 2, 1, 1)
        assert report.collection.split_index == 1
        # the unchanged split reuses the cached stock collection
        assert report.collection is res.builtin_collection(BL2)

    def test_second_form(self):
        v = ch.character_from_chi(2, D(BL2, "2L-2E1-2E2"), 0)
        report = res.blowup_resolution(v)
        assert report.form == "eqsecond" and report.collection.split_index == 2
        assert report.exponents == (0, 2, 2, 2)
        assert report.bookkeeping_ok()

    def test_boundary_emits_first_form(self):
        # delta - 2 sum alpha + 2 = 0 makes b vanish; eqfirst by convention
        v = ch.character_from_chi(2, D(BL2, "4L-2E1-2E2"), 0)
        report = res.blowup_resolution(v)
        assert report.exponents[1] == 0 and report.form == "eqfirst"
        assert report.bookkeeping_ok()

    def test_hypothesis_failures_named(self):
        with pytest.raises(res.ResolutionError, match="alpha_1"):
            res.blowup_resolution(ch.character_from_chi(2, D(BL2, "2L+E1"), 0))
        with pytest.raises(res.ResolutionError, match="delta"):
            res.blowup_resolution(ch.character_from_chi(2, D(BL2, "-2L"), 0))
        with pytest.raises(res.ResolutionError, match="sum alpha_i"):
            res.blowup_resolution(ch.character_from_chi(2, D(BL2, "2L-4E1-3E2"), 0))

    def test_matches_solver_on_random_admissible(self):
        rng = random.Random(31)
        surfaces = {k: lat.blowup_p2(k) for k in range(1, 6)}
        done = 0
        while done < 60:
            k = rng.randrange(1, 6)
            surface = surfaces[k]
            r = rng.randrange(2, 7)
            ell = rng.randrange(0, 8 * r + 1)
            mults = [rng.randrange(0, 2 * r + 1) for _ in range(k)]
            if ell - sum(mults) < -r:  # delta - sum alpha >= -1
                continue
            v = ch.character_from_chi(r, lat.DivisorClass(surface, (ell,) + tuple(-m for m in mults)), 0)
            report = res.blowup_resolution(v)
            solved = res.solve_exponents(v, report.collection)
            assert solved.exponents == report.exponents, v
            done += 1


class TestBlowupHirzebruchResolution:
    def test_worked_example(self):
        v = ch.character_from_chi(2, D(BLF, "2F"), 0)
        report = res.blowup_hirzebruch_resolution(v)
        assert report.exponents == (4, 4, 2, 0)
        assert report.bookkeeping_ok()

    def test_zero_multiplicity_gives_zero_exponent(self):
        S = lat.blowup_hirzebruch(2, 2)
        v = ch.character_from_chi(2, D(S, "2E+5F-2E1"), 0)
        report = res.blowup_hirzebruch_resolution(v)
        # d_i = r alpha_i vanishes exactly when alpha_i does
        assert report.exponents[3] == 2 and report.exponents[4] == 0

    def test_matches_solver_on_random_admissible(self):
        rng = random.Random(37)
        done = 0
        while done < 40:
            e = rng.randrange(2, 5)
            k = rng.randrange(1, 4)
            surface = lat.blowup_hirzebruch(e, k)
            r = rng.randrange(2, 7)
            a = rng.randrange(-r, 2 * r + 1)
            mults = [rng.randrange(0, r + 1) for _ in range(k)]
            if a - sum(mults) < -r:
                continue
            bound = max((e - 1) * a, e * a)
            b = bound + sum(mults) - r + rng.randrange(0, 3 * r)
            coords = (a, b) + tuple(-m for m in mults)
            v = ch.character_from_chi(r, lat.DivisorClass(surface, coords), 0)
            try:
                report = res.blowup_hirzebruch_resolution(v)
            except res.ResolutionError:
                continue
            solved = res.solve_exponents(v, report.collection)
            assert solved.exponents == report.exponents, v
            done += 1

    def test_hypothesis_failure(self):
        v = ch.character_from_chi(2, D(BLF, "2F+2E1"), 0)
        with pytest.raises(res.ResolutionError, match="alpha_1"):
            res.blowup_hirzebruch_resolution(v)


class TestPrioritaryHypotheses:
    def test_fiber_prioritary_on_hirzebruch(self):
        for e in range(4):
            S = lat.hirzebruch(e)
            assert res.prioritary_hypotheses_check(
                res.builtin_collection(S), lat.basis_divisor(S, "F")
            )

    def test_blowup_collection(self):
        for k in (1, 2, 4):
            S = lat.blowup_p2(k)
            coll = res.builtin_collection(S)
            F = D(S, "L-E1")
            assert res.prioritary_hypotheses_check(coll, F)
            assert res.prioritary_hypotheses_check(coll.with_split(2), F)

    def test_blowup_hirzebruch_collection(self):
        assert res.prioritary_hypotheses_check(
            res.builtin_collection(BLF), lat.basis_divisor(BLF, "F")
        )

    def test_wrong_split_fails(self):
        S = F2
        assert not res.prioritary_hypotheses_check(
            res.builtin_collection(S).with_split(2), lat.basis_divisor(S, "F")
        )


class TestReportInvariants:
    def test_exactness_bookkeeping_random(self):
        rng = random.Random(41)
        for _ in range(40):
            ell = rng.randrange(0, 13)
            mults = [rng.randrange(0, 5) for _ in range(3)]
            if ell - sum(mults) < -2:
                continue
            v = ch.character_from_chi(2, lat.DivisorClass(BL3, (ell,) + tuple(-m for m in mults)), 0)
            report = res.blowup_resolution(v)
            cok = report.cokernel_character()
            assert (cok.r, cok.c1, cok.ch2) == (v.r, v.c1, v.ch2)
            assert ch.riemann_roch_chi(cok) == 0

    def test_json_shape(self):
        v = ch.character_from_chi(2, D(BL2, "2L-E1-E2"), 0)
        payload = res.blowup_resolution(v).to_json_dict()
        assert payload["left"] == {"-2L": 2}
        assert payload["right"] == {"-L": 2, "-E1": 1, "-E2": 1}
        assert payload["cokernel"] == {"r": 2, "c1": "2L-E1-E2", "chi": 0}
