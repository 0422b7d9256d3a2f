import os
import pathlib
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from rbn import chern as ch
from rbn import cohomology as coh
from rbn import decide as dec
from rbn import goodsums as gd
from rbn import lattice as lat
from rbn.decide import WBNStatus


F0 = lat.hirzebruch(0)
F1 = lat.hirzebruch(1)
F2 = lat.hirzebruch(2)
BL2 = lat.blowup_p2(2)
DP5 = lat.del_pezzo(5)
DP6 = lat.del_pezzo(6)
DP7 = lat.del_pezzo(7)


def D(surface, expr):
    return lat.parse_divisor(expr, surface)


class TestRankOne:
    def test_fiber_class_holds(self):
        verdict = dec.rank_one_wbn(D(F2, "F"))
        assert verdict.status is WBNStatus.HOLDS
        assert verdict.witness.modifications == 2

    def test_canonical_fails_through_h2(self):
        verdict = dec.rank_one_wbn(lat.canonical(F2))
        assert verdict.status is WBNStatus.FAILS
        assert verdict.obstruction.h2_lower_bound == 1

    @pytest.mark.parametrize("expr, h2", [("-3L", 1), ("-5L", 6)])
    def test_very_negative_line_class_fails(self, expr, h2):
        # the bound is the h2 of the line bundle itself, h0(K + 5L) = 6 at -5L
        c1 = D(BL2, expr)
        verdict = dec.rank_one_wbn(c1)
        assert verdict.status is WBNStatus.FAILS
        assert verdict.obstruction.h2_lower_bound == h2 == coh.line_bundle_cohomology(c1).vector.h2

    def test_agreement_with_oracle_small_box(self):
        rng = random.Random(3)
        for surface in (BL2, lat.blowup_p2(5)):
            for _ in range(40):
                coords = tuple(rng.randrange(-5, 6) for _ in range(surface.rank))
                c1 = lat.DivisorClass(surface, coords)
                verdict = dec.rank_one_wbn(c1)
                vec = coh.blowup_cohomology_oracle(c1)
                assert (verdict.status is WBNStatus.HOLDS) == vec.higher_vanishes

    def test_blowup_hirzebruch_rules_only(self):
        S = lat.blowup_hirzebruch(2, 1)
        assert dec.rank_one_wbn(D(S, "F")).status is WBNStatus.HOLDS
        # no full computation available when the rules stay silent (chi = 0)
        assert dec.rank_one_wbn(D(S, "E")).status is WBNStatus.UNKNOWN
        # chi(O(3E)) = -8: no sheaf to ask about
        assert dec.rank_one_wbn(D(S, "3E")).status is WBNStatus.EMPTY_MODULI

    @pytest.mark.parametrize("expr", ["-2E-5F", "-2E-4F", "-3E-6F", "-2E-6F+E1"])
    def test_blowup_hirzebruch_effective_dual_fails(self, expr):
        # chi >= 0 and K - c1 obviously effective: the rules give Nonzero
        # without a vector, and h2(I_Z(c1)) = h2(O(c1)) >= 1 for every Z
        c1 = D(lat.blowup_hirzebruch(2, 1), expr)
        assert lat.chi_line_bundle(c1) >= 0
        answer = coh.line_bundle_cohomology(c1)
        assert answer.vector is None and answer.higher_cohomology is coh.Vanishing.NONZERO
        verdict = dec.rank_one_wbn(c1)
        assert verdict.status is WBNStatus.FAILS
        assert verdict.obstruction == dec.Obstruction(h2_lower_bound=1)

    @pytest.mark.parametrize(
        "surface, expr, chi",
        [(F1, "-3E", -5), (BL2, "3E1", -2), (DP5, "2L-4E1", -4), (lat.blowup_hirzebruch(2, 1), "3E", -8)],
    )
    def test_negative_chi_is_empty_before_any_cohomology(self, monkeypatch, surface, expr, chi):
        def no_cohomology(*args, **kwargs):
            raise AssertionError("cohomology computed for an empty moduli space")

        monkeypatch.setattr(dec, "line_bundle_cohomology", no_cohomology)
        verdict = dec.rank_one_wbn(D(surface, expr))
        assert verdict.status is WBNStatus.EMPTY_MODULI
        assert verdict.bogomolov_delta == chi and verdict.witness is None and verdict.obstruction is None


class TestHirzebruch:
    def test_quadric_direct_sum_witness(self):
        v = ch.character_from_chi(2, D(F0, "-2E-2F"), 0)
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.HOLDS
        assert verdict.witness.direct_sum == (D(F0, "-E-F"), 2)

    def test_fails_with_positive_bound(self):
        v = ch.character_from_chi(2, D(F1, "2E-F"), 0)
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.FAILS
        assert verdict.obstruction.h0_lower_bound == 1
        assert verdict.obstruction.curve == D(F1, "E")

    def test_empty_moduli(self):
        v = ch.character_from_chi(2, D(F0, "-E-3F"), 0)
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.EMPTY_MODULI
        assert verdict.bogomolov_delta == Fraction(-1, 4)

    def test_pocket_character_gets_fiber_sum(self):
        v = ch.character_from_chi(3, D(F1, "-2E-4F"), 0)
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.HOLDS
        assert isinstance(verdict.witness, gd.WBNWitness)
        assert verdict.witness.modifications == 0

    def test_serre_dual_inputs_agree(self):
        rng = random.Random(8)
        surfaces = [lat.hirzebruch(e) for e in range(4)]
        for _ in range(200):
            S = rng.choice(surfaces)
            r = rng.randrange(2, 5)
            coords = (rng.randrange(-3 * r, 3 * r + 1), rng.randrange(-3 * r, 3 * r + 1))
            v = ch.character_from_chi(r, lat.DivisorClass(S, coords), 0)
            a = dec.wbn(v)
            b = dec.wbn(ch.serre_dual_character(v))
            assert a.status == b.status, v


class TestBlowupP2:
    def test_resolution_route(self):
        v = ch.character_from_chi(2, D(BL2, "2L-E1-E2"), 0)
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.HOLDS
        assert verdict.witness.exponents == (2, 2, 1, 1)

    def test_rounding_route(self):
        # delta - sum alpha = -3 blocks the resolution, but the floor/ceiling
        # bundle 3L-2E1-E2-..-E5 has no higher cohomology and rounding succeeds
        S = lat.blowup_p2(5)
        v = ch.character_from_chi(2, D(S, "6L-4E1-2E2-2E3-2E4-2E5"), 0)
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.HOLDS
        assert isinstance(verdict.witness, gd.WBNWitness)
        assert verdict.witness.good_sum.summands == (D(S, "3L-2E1-E2-E3-E4-E5"),) * 2

    def test_collinear_obstruction(self):
        S = lat.blowup_p2(4, lat.collinear_config([1, 2, 3, 4]))
        v = ch.character_from_chi(2, D(S, "2L-2E1-2E2-2E3-2E4"), 0)
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.FAILS
        assert verdict.obstruction.curve == D(S, "L-E1-E2-E3-E4")
        assert verdict.obstruction.h0_lower_bound == 4

    def test_collinear_obstruction_boundary(self):
        # chi(O(C), v) = -c1.C - r for the line C = L-E1-E2-E3-E4, so it
        # obstructs at c1.C = -r - 1 and not at c1.C = -r
        S = lat.blowup_p2(4, lat.collinear_config([1, 2, 3, 4]))
        C = D(S, "L-E1-E2-E3-E4")
        v = ch.character_from_chi(2, D(S, "-2L+E1+E2+E3-4E4"), 0)
        assert lat.intersect(v.c1, C) == -3
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.FAILS
        assert verdict.obstruction == dec.Obstruction(curve=C, chi_pairing=1, h0_lower_bound=1)
        v = ch.character_from_chi(2, D(S, "-2L+E1+E2+E3-3E4"), 0)
        assert lat.intersect(v.c1, C) == -2
        assert dec.wbn(v).status is WBNStatus.UNKNOWN

    def test_unknown_default(self):
        # slope gap -3/2 < -1 blocks the resolution, the floor/ceiling bundle
        # L-2E1-E2 has chi < 0, and the configuration is general: Unknown
        S = lat.blowup_p2(2)
        v = ch.character_from_chi(2, D(S, "2L-3E1-2E2"), 0)
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.UNKNOWN


class TestBlowupHirzebruch:
    def test_holds_with_resolution(self):
        S = lat.blowup_hirzebruch(2, 1)
        v = ch.character_from_chi(2, D(S, "2F"), 0)
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.HOLDS
        assert verdict.witness.exponents == (4, 4, 2, 0)

    def test_negative_multiplicity_unknown(self):
        S = lat.blowup_hirzebruch(2, 1)
        v = ch.character_from_chi(2, D(S, "2F+2E1"), 0)
        assert dec.wbn(v).status is WBNStatus.UNKNOWN

    def test_boundary_exponent_zero(self):
        S = lat.blowup_hirzebruch(2, 1)
        # beta - sum alpha + 1 = e alpha exactly, so the O(-E-eF) exponent is 0
        v = ch.character_from_chi(2, D(S, "2E+2F"), 0)
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.HOLDS
        assert verdict.witness.exponents == (2, 0, 4, 0)


class TestDelPezzo:
    def test_twice_the_line(self):
        v = ch.character_from_chi(3, D(DP7, "2L"), 0)
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.HOLDS
        assert verdict.witness.modifications == 5

    def test_anticanonical_class(self):
        v = ch.character_from_chi(2, D(DP5, "3L-E1-E2-E3-E4"), 0)
        assert dec.wbn(v).status is WBNStatus.HOLDS

    def test_non_nef_is_unknown(self):
        v = ch.character_from_chi(2, D(DP6, "E1"), 0)
        assert dec.wbn(v).status is WBNStatus.UNKNOWN

    def test_rank_one_through_dispatch(self):
        v = ch.character_from_chi(1, D(DP7, "L"), 0)
        assert dec.wbn(v).status is WBNStatus.HOLDS


    def test_high_rank_witness(self):
        # rank 1000 on the two-point surface: one summand per rank step,
        # with no recursion
        v = ch.character_from_chi(1000, D(DP7, "5000L-1666E1-1666E2"), 0)
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.HOLDS
        gs = verdict.witness.good_sum
        assert gs.rank == 1000 and gs.c1() == v.c1 and gd.is_good_sum(gs).ok

class TestOneSurfaceTwoSpellings:
    """dp<d> and blp2:k=<9-d> name one surface, so wbn gives one status."""

    @staticmethod
    def _status_pair(k, r, coords):
        statuses = []
        for S in (lat.del_pezzo(9 - k), lat.blowup_p2(k)):
            v = ch.character_from_chi(r, lat.DivisorClass(S, coords), 0)
            statuses.append(dec.wbn(v).status)
        return statuses

    def test_random_characters(self):
        # c1 drawn as in the benchmark's blowup wbn strata: rank 1..4, chi = 0
        rng = random.Random(22)
        for _ in range(300):
            k, r = rng.randint(2, 5), rng.randint(1, 4)
            coords = (rng.randint(0, 3 * r),) + tuple(-rng.randint(0, r + 1) for _ in range(k))
            dp, blp2 = self._status_pair(k, r, coords)
            assert dp is blp2, (k, r, coords)

    def test_random_nef_characters(self):
        rng = random.Random(23)
        seen = 0
        while seen < 150:
            k, r = rng.randint(2, 5), rng.randint(2, 4)
            coords = (rng.randint(0, 5 * r),) + tuple(-rng.randint(0, 2 * r) for _ in range(k))
            if not lat.is_nef_coords(lat.del_pezzo(9 - k), coords):
                continue
            seen += 1
            assert self._status_pair(k, r, coords) == [WBNStatus.HOLDS] * 2, (k, r, coords)

    @pytest.mark.parametrize("k, r, expr", [(3, 2, "E1"), (2, 2, "2L-3E1-2E2")])
    def test_unknowns_stay_unknown_on_both(self, k, r, expr):
        coords = lat.parse_divisor(expr, lat.blowup_p2(k)).coords
        assert self._status_pair(k, r, coords) == [WBNStatus.UNKNOWN] * 2

    def test_nef_decomposition_reached_on_blp2(self):
        # resolution and rounding are silent; the nef decomposition decides
        S = lat.blowup_p2(5)
        verdict = dec.wbn(ch.character_from_chi(2, D(S, "5L-2E1-E2-E3-3E4-E5"), 0))
        assert verdict.status is WBNStatus.HOLDS
        assert [n.split(":")[0] for n in verdict.notes[1:]] == [
            "resolution route", "rounding route", "anticanonically good sum plus general point modifications"
        ]
        gs = verdict.witness.good_sum
        assert gs.surface is S and gs.N == -lat.canonical(S)


class TestObstructionCertificate:
    def test_negative_section_pairing_is_one(self):
        v = ch.character_from_chi(2, D(F1, "2E-F"), 0)
        ob = dec.obstruction_certificate(v, D(F1, "E"))
        assert ob is not None
        assert ob.chi_pairing == 1  # chi(v(-E)) = c1.(-E) + r (chi(O(-E)) - 1) = 1

    def test_collinear_curve_class(self):
        S = lat.blowup_p2(4, lat.collinear_config([1, 2, 3, 4]))
        v = ch.character_from_chi(2, D(S, "2L-2E1-2E2-2E3-2E4"), 0)
        ob = dec.obstruction_certificate(v, D(S, "L-E1-E2-E3-E4"))
        assert ob is not None and ob.h0_lower_bound == 4

    def test_nonpositive_pairing_gives_none(self):
        v = ch.character_from_chi(2, lat.zero_divisor(F1), 0)
        assert dec.obstruction_certificate(v, D(F1, "F")) is None

    def test_slope_condition_filters(self):
        v = ch.character_from_chi(2, D(F1, "2E-F"), 0)
        H = D(F1, "E+2F")  # ample
        # nu.H = (E - F/2).(E+2F) = -1 + 2 - 1/2 = 1/2 > (K+E).H = (-E-3F).(E+2F) = 1 - 2 - 3 = -4
        assert dec.obstruction_certificate(v, D(F1, "E"), H) is not None
        # an absurdly positive curve fails the slope condition
        big = D(F1, "9E+99F")
        assert dec.obstruction_certificate(v, big, H) is None


class TestVerdictHygiene:
    def test_every_holds_witness_verifies(self):
        rng = random.Random(77)
        for _ in range(25):
            S = lat.del_pezzo(rng.choice((4, 5, 6, 7)))
            while True:
                coords = (rng.randrange(0, 6),) + tuple(
                    -rng.randrange(0, 3) for _ in range(S.k)
                )
                c1 = lat.DivisorClass(S, coords)
                if lat.is_nef(c1):
                    break
            v = ch.character_from_chi(rng.randrange(1, 5), c1, 0)
            verdict = dec.wbn(v)
            assert verdict.status is WBNStatus.HOLDS
            if isinstance(verdict.witness, gd.WBNWitness):
                assert verdict.witness.bookkeeping_ok()
                assert gd.is_good_sum(verdict.witness.good_sum).ok

    # wbn checks chi = 0 once, before it sends rank one to the line-bundle
    # test and higher ranks to the family
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("spec, c1", [("F1", "F"), ("blp2:k=2", "L"), ("blF2:k=1", "F"), ("dp7", "2L")])
    def test_chi_zero_enforced(self, spec, c1, r):
        v = ch.character_from_chi(r, D(lat.parse_surface(spec), c1), 3)
        with pytest.raises(ch.CharacterError, match="require chi"):
            dec.wbn(v)

    def test_json_round_trip(self):
        import json

        v = ch.character_from_chi(2, D(F1, "2E-F"), 0)
        payload = dec.wbn(v).to_json_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["status"] == "Fails"
        assert payload["obstruction"]["h0_lower_bound"] == 1


def _failing_check(gs, **kwargs):
    return gd.GoodSumCheck(False, ("forced failure",))


class TestVerificationGates:
    def test_not_a_value_error(self):
        assert not issubclass(dec.VerificationError, ValueError)

    @pytest.mark.parametrize(
        "spec, c1, r",
        [
            ("dp7", "2L", 3),  # nef decomposition
            ("F1", "-2E-4F", 3),  # Hirzebruch fiber sum
            ("blp2:k=5", "6L-4E1-2E2-2E3-2E4-2E5", 2),  # rounding, not swallowed as Unknown
        ],
    )
    def test_failed_witness_raises(self, monkeypatch, spec, c1, r):
        monkeypatch.setattr(dec, "is_good_sum", _failing_check)
        v = ch.character_from_chi(r, D(lat.parse_surface(spec), c1), 0)
        with pytest.raises(dec.VerificationError):
            dec.wbn(v)

    def test_failed_resolution_raises(self, monkeypatch):
        # the report is verified where it is built; VerificationError is no
        # ResolutionError, so the rounding route cannot swallow it
        v = ch.character_from_chi(2, D(BL2, "2L-E1-E2"), 0)
        monkeypatch.setattr(dec.ResolutionReport, "bookkeeping_ok", lambda self: False)
        with pytest.raises(dec.VerificationError):
            dec.wbn(v)

    # a resolution witness on each family that has one: F_e (resolution, and
    # the direct sum on F_0, also reached through the Serre dual), blF_e
    RESOLUTION_HOLDS = [
        ("F1", "E+F", 2),
        ("F3", "2E+5F", 3),
        ("F2", "-5E-9F", 3),  # dualized first
        ("F0", "-2E-2F", 2),  # direct sum of O(-1,-1)
        ("blF2:k=1", "E+3F-E1", 2),
        ("blp2:k=2", "2L-E1-E2", 2),
    ]

    @pytest.mark.parametrize("spec, c1, r", RESOLUTION_HOLDS)
    def test_failed_resolution_raises_on_every_family(self, monkeypatch, spec, c1, r):
        v = ch.character_from_chi(r, D(lat.parse_surface(spec), c1), 0)
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.HOLDS
        assert isinstance(verdict.witness, dec.ResolutionReport)
        monkeypatch.setattr(dec.ResolutionReport, "bookkeeping_ok", lambda self: False)
        with pytest.raises(dec.VerificationError):
            dec.wbn(v)

    @pytest.mark.parametrize("spec, c1, r", RESOLUTION_HOLDS)
    def test_each_holds_is_checked_once(self, monkeypatch, spec, c1, r):
        v = ch.character_from_chi(r, D(lat.parse_surface(spec), c1), 0)
        calls = []
        original = dec.ResolutionReport.bookkeeping_ok
        monkeypatch.setattr(
            dec.ResolutionReport, "bookkeeping_ok", lambda self: calls.append(self) or original(self)
        )
        monkeypatch.setattr(
            dec.ResolutionReport,
            "cokernel_character",
            lambda self: pytest.fail("a verdict built a cokernel character"),
        )
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.HOLDS
        assert calls == [verdict.witness]

    def test_each_del_pezzo_holds_is_checked_once(self, monkeypatch):
        v = ch.character_from_chi(3, D(DP7, "2L"), 0)
        calls = []
        original = gd.WBNWitness.bookkeeping_ok
        monkeypatch.setattr(gd.WBNWitness, "bookkeeping_ok", lambda self: calls.append(self) or original(self))
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.HOLDS
        assert calls == [verdict.witness]

    @pytest.mark.parametrize("spec, c1", [("F2", "F"), ("dp5", "L"), ("blF2:k=1", "F-E1")])
    def test_failed_rank_one_witness_raises(self, monkeypatch, spec, c1):
        S = lat.parse_surface(spec)
        assert dec.rank_one_wbn(D(S, c1)).status is WBNStatus.HOLDS
        monkeypatch.setattr(gd.WBNWitness, "bookkeeping_ok", lambda self: False)
        with pytest.raises(dec.VerificationError):
            dec.rank_one_wbn(D(S, c1))

    def test_gate_survives_optimized_mode(self):
        script = textwrap.dedent(
            """
            import sys
            from rbn import chern, decide, goodsums, lattice
            decide.is_good_sum = lambda gs, **kw: goodsums.GoodSumCheck(False, ("forced",))
            v = chern.character_from_chi(3, lattice.parse_divisor("2L", lattice.del_pezzo(7)), 0)
            try:
                decide.wbn(v)
            except decide.VerificationError:
                print("optimize", sys.flags.optimize, "raised")
            goodsums.WBNWitness.bookkeeping_ok = lambda self: False
            F2 = lattice.hirzebruch(2)
            try:
                decide.rank_one_wbn(lattice.parse_divisor("F", F2))
            except decide.VerificationError:
                print("rank one raised")
            decide.ResolutionReport.bookkeeping_ok = lambda self: False
            for spec, c1 in (("F1", "E+F"), ("F0", "-2E-2F"), ("blF2:k=1", "E+3F-E1")):
                S = lattice.parse_surface(spec)
                try:
                    decide.wbn(chern.character_from_chi(2, lattice.parse_divisor(c1, S), 0))
                except decide.VerificationError:
                    print(spec, "raised")
            """
        )
        src = str(pathlib.Path(dec.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        expected = "optimize 1 raised\nrank one raised\nF1 raised\nF0 raised\nblF2:k=1 raised\n"
        assert (out.returncode, out.stdout) == (0, expected), out.stderr
