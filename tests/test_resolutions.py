import functools
import random

import pytest

from rbn import chern as ch
from rbn import lattice as lat
from rbn import resolutions as res

from references import cokernel_character, serre_dual_character, solve_exponents


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
            tuple(reversed(coll.bundles[:-1])) + (lat.zero_divisor(F2),), 1
        )
        ok, witness = res.verify_strong_exceptional(reversed_coll)
        assert not ok and witness is not None
        coll2 = res.builtin_collection(BL2)
        reversed2 = res.ExceptionalCollection(
            tuple(reversed(coll2.bundles[:-1])) + (lat.zero_divisor(BL2),), 1
        )
        ok, witness = res.verify_strong_exceptional(reversed2)
        assert not ok and witness is not None

    def test_bundles_on_two_surfaces_refused(self):
        # F0 and F1 classes have coordinates of one length, so without the
        # check the table would read F1's bundles with F0's intersection form
        bundles = res.builtin_collection(F1).bundles[:-1] + (lat.zero_divisor(F0),)
        with pytest.raises(res.ResolutionError, match="different surfaces"):
            res.ExceptionalCollection(bundles, 1)
        assert res.builtin_collection(F1).surface is F1


class TestSolveExponents:
    def test_blowup_example(self):
        v = ch.character_from_chi(2, D(BL2, "2L-E1-E2"), 0)
        report = solve_exponents(v, res.builtin_collection(BL2))
        assert report.exponents == (2, 2, 1, 1)
        assert report.bookkeeping_ok()

    def test_hirzebruch_example(self):
        v = ch.character_from_chi(2, lat.zero_divisor(F1), 0)
        report = solve_exponents(v, res.builtin_collection(F1))
        assert report.exponents == (2, 2, 2)

    def test_self_resolving_bundle(self):
        v = ch.character_from_chi(1, D(F2, "-F"), 0)
        report = solve_exponents(v, res.builtin_collection(F2))
        assert report.exponents == (0, 0, 1)

    def test_requires_chi_zero(self):
        v = ch.character_from_chi(2, lat.zero_divisor(F1), 1)
        with pytest.raises(ch.CharacterError):
            solve_exponents(v, res.builtin_collection(F1))


class TestHirzebruchResolution:
    def test_trivial_slope(self):
        v = ch.character_from_chi(2, lat.zero_divisor(F1), 0)
        report = res.two_term_resolution(v)
        assert report.exponents == (2, 2, 2)
        assert cokernel_character(report) == v

    def test_quadric_special_case(self):
        v = ch.character_from_chi(2, D(F0, "-2E-2F"), 0)
        report = res.two_term_resolution(v)
        assert report.form == "direct-sum" and report.exponents == (2, 0, 0)
        assert report.bookkeeping_ok()
        # every direct sum reads the one split-0 collection of the model
        other = res.two_term_resolution(ch.character_from_chi(3, D(F0, "-3E-3F"), 0))
        assert other.collection is report.collection is res.builtin_collection(F0).with_split(0)

    def test_generic_f2_character(self):
        v = ch.character_from_chi(2, D(F2, "2E+5F"), 0)
        report = res.two_term_resolution(v)
        assert report.exponents == (5, 3, 4)
        assert report.feasible and report.bookkeeping_ok()

    def test_boundary_b_zero_is_valid(self):
        # nu.E = -1 exactly: b = 0 and the report remains consistent
        v = ch.character_from_chi(2, D(F1, "2E"), 0)
        report = res.two_term_resolution(v)
        assert report.exponents[1] == 0
        assert report.feasible and report.bookkeeping_ok()

    def test_section_obstruction_raises(self):
        v = ch.character_from_chi(2, D(F1, "2E-F"), 0)  # nu.E < -1
        with pytest.raises(res.ResolutionError):
            res.two_term_resolution(v)

    def test_infeasible_pocket_raises(self):
        v = ch.character_from_chi(3, D(F1, "-2E-4F"), 0)
        with pytest.raises(res.InfeasibleResolutionError):
            res.two_term_resolution(v)

    def test_unnormalized_input_resolves_its_serre_dual(self):
        # -5E-9F violates k/r >= -1 on F_2, so the report resolves the dual -E-3F
        v = ch.character_from_chi(3, D(F2, "-5E-9F"), 0)
        report = res.two_term_resolution(v)
        dual = serre_dual_character(v)
        assert ch.hirzebruch_core(2, v.r, *v.c1.coords, v.twice_ch2)[:4] == (True, *dual.c1.coords, dual.twice_ch2)
        assert report.target == dual
        assert report.target.c1 == D(F2, "-E-3F") and report.exponents == (1, 2, 2)


class TestEntryPoint:
    SURFACES = [F0, F2, BL2, lat.del_pezzo(6), BLF]

    @pytest.mark.parametrize("surface", SURFACES, ids=str)
    def test_rank_below_two_refused_on_every_surface(self, surface):
        v = ch.character_from_chi(1, lat.zero_divisor(surface), 0)
        with pytest.raises(res.ResolutionError, match="^rank must be at least 2$"):
            res.two_term_resolution(v)

    @pytest.mark.parametrize("surface", SURFACES, ids=str)
    def test_chi_zero_required_on_every_surface(self, surface):
        v = ch.character_from_chi(2, lat.zero_divisor(surface), 1)
        with pytest.raises(res.ResolutionError, match="chi = 0$"):
            res.two_term_resolution(v)


class TestBlowupResolution:
    def test_first_form(self):
        v = ch.character_from_chi(2, D(BL2, "2L-E1-E2"), 0)
        report = res.two_term_resolution(v)
        assert report.form == "eqfirst" and report.exponents == (2, 2, 1, 1)
        assert report.collection.split_index == 1
        # the unchanged split reuses the cached stock collection
        assert report.collection is res.builtin_collection(BL2)

    def test_second_form(self):
        v = ch.character_from_chi(2, D(BL2, "2L-2E1-2E2"), 0)
        report = res.two_term_resolution(v)
        assert report.form == "eqsecond" and report.collection.split_index == 2
        assert report.exponents == (0, 2, 2, 2)
        assert report.bookkeeping_ok()

    def test_second_form_shares_one_collection(self, monkeypatch):
        # every eqsecond report of a model reads one split-2 collection, so
        # its table is built once; the table still refuses wrong exponents
        S = lat.blowup_p2(4)
        reports = [res.two_term_resolution(ch.character_from_chi(2, D(S, c1), 0)) for c1 in ("2L-2E1-2E2", "4L-2E1-2E2-2E3")]
        assert [r.form for r in reports] == ["eqsecond"] * 2
        assert reports[0].collection is reports[1].collection is res.builtin_collection(S).with_split(2)
        wrong = (reports[0].exponents[0] + 1,) + reports[0].exponents[1:]
        with pytest.raises(res.VerificationError):
            res.verify_report(res.ResolutionReport(reports[0].collection, wrong, reports[0].target))
        # a collection built afresh builds one table for all its split-2 reports
        built, table = [], res.ExceptionalCollection._table

        def counting(coll):
            built.append(coll.split_index)
            return table.func(coll)

        counted = functools.cached_property(counting)
        counted.__set_name__(res.ExceptionalCollection, "_table")
        monkeypatch.setattr(res.ExceptionalCollection, "_table", counted)
        fresh = res.ExceptionalCollection(res.builtin_collection(S).bundles)
        rebuilt = [res.verify_report(res.ResolutionReport(fresh.with_split(2), r.exponents, r.target)) for r in reports]
        assert rebuilt[0].collection is rebuilt[1].collection is fresh.with_split(2).with_split(1).with_split(2)
        assert fresh.with_split(1) is fresh and built == [2]

    def test_boundary_emits_first_form(self):
        # delta - 2 sum alpha + 2 = 0 makes b vanish; eqfirst by convention
        v = ch.character_from_chi(2, D(BL2, "4L-2E1-2E2"), 0)
        report = res.two_term_resolution(v)
        assert report.exponents[1] == 0 and report.form == "eqfirst"
        assert report.bookkeeping_ok()

    def test_hypothesis_failures_named(self):
        with pytest.raises(res.ResolutionError, match="alpha_1"):
            res.two_term_resolution(ch.character_from_chi(2, D(BL2, "2L+E1"), 0))
        with pytest.raises(res.ResolutionError, match="delta"):
            res.two_term_resolution(ch.character_from_chi(2, D(BL2, "-2L"), 0))
        with pytest.raises(res.ResolutionError, match="sum alpha_i"):
            res.two_term_resolution(ch.character_from_chi(2, D(BL2, "2L-4E1-3E2"), 0))

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
            report = res.two_term_resolution(v)
            solved = solve_exponents(v, report.collection)
            assert solved.exponents == report.exponents, v
            done += 1


class TestBlowupHirzebruchResolution:
    def test_worked_example(self):
        v = ch.character_from_chi(2, D(BLF, "2F"), 0)
        report = res.two_term_resolution(v)
        assert report.exponents == (4, 4, 2, 0)
        assert report.bookkeeping_ok()

    def test_zero_multiplicity_gives_zero_exponent(self):
        S = lat.blowup_hirzebruch(2, 2)
        v = ch.character_from_chi(2, D(S, "2E+5F-2E1"), 0)
        report = res.two_term_resolution(v)
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
                report = res.two_term_resolution(v)
            except res.ResolutionError:
                continue
            solved = solve_exponents(v, report.collection)
            assert solved.exponents == report.exponents, v
            done += 1

    def test_hypothesis_failure(self):
        v = ch.character_from_chi(2, D(BLF, "2F+2E1"), 0)
        with pytest.raises(res.ResolutionError, match="alpha_1"):
            res.two_term_resolution(v)


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
            report = res.two_term_resolution(v)
            cok = cokernel_character(report)
            assert (cok.r, cok.c1, cok.ch2) == (v.r, v.c1, v.ch2)
            assert ch.riemann_roch_chi(cok) == 0

    def test_json_shape(self):
        v = ch.character_from_chi(2, D(BL2, "2L-E1-E2"), 0)
        payload = res.two_term_resolution(v).to_json_dict()
        assert payload["left"] == {"-2L": 2}
        assert payload["right"] == {"-L": 2, "-E1": 1, "-E2": 1}
        assert payload["cokernel"] == {"r": 2, "c1": "2L-E1-E2", "chi": 0}


class TestVerifyReport:
    def test_split_zero_is_a_direct_sum(self):
        # every bundle sits on the right, so the sheaf is O(-L) + O(-E1),
        # checked by the same table and printed under "direct_sum"
        coll = res.builtin_collection(BL2).with_split(0)
        v = ch.ChernCharacter(2, D(BL2, "-L-E1"), twice_ch2=0)
        report = res.verify_report(res.ResolutionReport(coll, (0, 1, 1, 0), v))
        assert report.form == "direct-sum" and cokernel_character(report) == v
        assert report.to_json_dict() == {
            "collection": ["-2L", "-L", "-E1", "-E2", "0"],
            "direct_sum": {"-L": 1, "-E1": 1},
            "form": "direct-sum",
            "cokernel": {"r": 2, "c1": "-L-E1", "chi": 0},
        }

    @pytest.mark.parametrize(
        "surface, c1, emitted, wrong",
        [
            (F1, "E+F", (3, 2, 3), (3, 2, 3, 5)),  # one exponent too many
            (F1, "-2E", (2, 4, 0), (2, 4)),  # the zero dropped
            (F0, "-2E-2F", (2, 0, 0), (3, 0, 0)),  # the direct sum with r + 1 copies
        ],
        ids=["too-long", "too-short", "F0-direct-sum"],
    )
    def test_wrong_exponents_raise(self, surface, c1, emitted, wrong):
        # a map or zip over the exponents would drop the extra entry or the
        # missing zero and pass the wrong lengths
        report = res.two_term_resolution(ch.character_from_chi(2, D(surface, c1), 0))
        assert report.exponents == emitted
        with pytest.raises(res.VerificationError):
            res.verify_report(res.ResolutionReport(report.collection, wrong, report.target))


class TestBookkeepingTable:
    SURFACES = (
        [lat.hirzebruch(e) for e in range(4)]
        + [lat.blowup_p2(k) for k in (1, 3, 5)]
        + [lat.blowup_p2(4, lat.collinear_config((1, 2, 3)))]
        + [lat.blowup_hirzebruch(e, k) for e, k in ((2, 1), (3, 2))]
    )

    @pytest.mark.parametrize("split", [1, 2])
    @pytest.mark.parametrize("surface", SURFACES, ids=str)
    def test_table_matches_reference_character(self, surface, split):
        # exponents in -6..6, negative entries included; draws whose
        # alternating sum has rank < 1 are not characters and are redrawn
        rng = random.Random(29)
        coll = res.builtin_collection(surface).with_split(split)
        placeholder = ch.ChernCharacter(1, lat.zero_divisor(surface), twice_ch2=0)
        checked = 0
        while checked < 25:
            exps = tuple(rng.randint(-6, 6) for _ in coll.resolving)
            report = res.ResolutionReport(coll, exps, placeholder)
            try:
                ref = cokernel_character(report)
            except ch.CharacterError:
                continue
            assert report._cokernel() == [ref.r, *ref.c1.coords, ref.twice_ch2], exps
            assert res.ResolutionReport(coll, exps, ref).bookkeeping_ok()
            checked += 1
