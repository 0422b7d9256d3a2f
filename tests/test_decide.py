import dataclasses
import json
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
from rbn import resolutions as res
from rbn.decide import WBNStatus

from references import serre_dual_character


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
        assert verdict.witness.form == "direct-sum" and verdict.witness.exponents == (2, 0, 0)

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
            b = dec.wbn(serre_dual_character(v))
            assert a.status == b.status, v

    def test_golden_verdicts(self):
        """Byte equality with ``data/hirzebruch_golden.json``, one case per line.

        The 600 cases are 597 drawn with ``random.Random(2026)``: e uniform
        in 0..3, the rank r uniform in 2..4, k and l each uniform in
        -3r..3r, keeping distinct (e, r, k, l) with c1 = kE + lF and
        chi = 0; then the three F_0 direct sums k = l = -r at r = 2..4.  The
        verdicts were recorded before the resolution bookkeeping moved to a
        cached integer table, and cover Holds (the generic form, the direct
        sum and the fiber sum), Fails and EmptyModuli; Unknown is never
        given on F_e at rank >= 2.
        """
        path = pathlib.Path(__file__).parent / "data" / "hirzebruch_golden.json"
        text = path.read_text()
        rows, kinds = [], set()
        for case in json.loads(text):
            S = lat.parse_surface(case["surface"])
            verdict = dec.wbn(ch.character_from_chi(case["rank"], D(S, case["c1"]), 0)).to_json_dict()
            rows.append(json.dumps({**case, "verdict": verdict}))
            witness = verdict.get("witness", {})
            kinds.add((verdict["status"], witness.get("form", "fiber" if witness else None)))
        assert "[\n" + ",\n".join(rows) + "\n]\n" == text
        assert kinds == {
            ("Holds", "generic"), ("Holds", "direct-sum"), ("Holds", "fiber"),
            ("Fails", None), ("EmptyModuli", None),
        }

    def test_verdicts_build_no_validated_class(self, monkeypatch):
        # the Serre dual, the section E and the direct sum are wrapped from
        # the core's ints; the fiber sum builds its summands through the
        # public constructors and is exempt
        rng = random.Random(29)
        cases = [ch.character_from_chi(2, D(F0, "-2E-2F"), 0)]
        for _ in range(300):
            S, r = lat.hirzebruch(rng.randrange(4)), rng.randrange(2, 5)
            coords = (rng.randint(-3 * r, 3 * r), rng.randint(-3 * r, 3 * r))
            cases.append(ch.character_from_chi(r, lat.DivisorClass(S, coords), 0))
        for v in cases:  # fills the per-surface caches: K and the stock collections
            dec.wbn(v)
        built = []
        original = lat.DivisorClass.__post_init__
        monkeypatch.setattr(lat.DivisorClass, "__post_init__", lambda self: built.append(self) or original(self))
        routes = set()
        for v in cases:
            built.clear()
            verdict = dec.wbn(v)
            if isinstance(verdict.witness, gd.WBNWitness):
                continue
            assert built == [], v
            dual = "input replaced by its Serre dual (birational moduli)" in verdict.notes
            form = verdict.witness.form if verdict.witness else None
            routes.add((verdict.status, form, dual))
        assert {
            (WBNStatus.HOLDS, "generic", False),
            (WBNStatus.HOLDS, "generic", True),
            (WBNStatus.HOLDS, "direct-sum", False),
            (WBNStatus.FAILS, None, False),
            (WBNStatus.FAILS, None, True),
            (WBNStatus.EMPTY_MODULI, None, False),
            (WBNStatus.EMPTY_MODULI, None, True),
        } <= routes

    def test_verdicts_skip_the_removed_work(self, monkeypatch):
        # a warmed F_e verdict pairs on coordinates (no ``intersect``),
        # compares surfaces by identity (no ``==``) and stores its fields
        # without the dataclass ``__init__``; its chi = 0 gate reads c1.K on
        # the coordinates (no ``canonical``), and the Fails check pairs on
        # ints (no ``euler_pairing``), so K is asked for only by that pairing
        # with O(E).  The fiber sum builds its summands through the public
        # constructors and is exempt.
        rng = random.Random(30)
        surfaces = [F0, F1, F2, lat.hirzebruch(3)]
        cases = [ch.character_from_chi(2, D(F0, "-2E-2F"), 0)]
        for _ in range(300):
            S, r = surfaces[rng.randrange(4)], rng.randrange(2, 5)
            coords = (rng.randint(-3 * r, 3 * r), rng.randint(-3 * r, 3 * r))
            cases.append(ch.character_from_chi(r, lat.DivisorClass(S, coords), 0))
        for v in cases:
            dec.wbn(v)
        calls = []

        def counting(name, original):
            return lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs)

        for module in (lat, ch, dec, gd, coh, res):
            for name in ("intersect", "canonical", "euler_pairing"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        monkeypatch.setattr(lat.SurfaceModel, "__eq__", counting("surface ==", lat.SurfaceModel.__eq__))
        monkeypatch.setattr(dec.WBNVerdict, "__init__", counting("__init__", dec.WBNVerdict.__init__))
        ch.twice_euler_pairing(ch.line_bundle_character(lat.wrap_coords(F0, (1, 0))), cases[0])
        fails_pairing, statuses = calls[:], set()
        for v in cases:
            calls.clear()
            verdict = dec.wbn(v)
            if isinstance(verdict.witness, gd.WBNWitness):
                continue
            assert calls == (fails_pairing if verdict.status is WBNStatus.FAILS else []), v
            statuses.add(verdict.status)
        assert statuses == {WBNStatus.HOLDS, WBNStatus.FAILS, WBNStatus.EMPTY_MODULI}

    def test_fails_gate_checks_the_exponent(self, monkeypatch):
        # chi(O(E), w) is computed from the lattice, so a core whose b is
        # off by one is caught on the Fails route, plain and dualized
        real = ch.hirzebruch_core

        def off_by_one(*args):
            dualized, k, ell, t, disc, (a, b, c) = real(*args)
            return dualized, k, ell, t, disc, (a, b - 1, c)

        cases = [ch.character_from_chi(2, D(F1, "2E-F"), 0), ch.character_from_chi(2, D(F1, "-8E-7F"), 0)]
        assert [dec.wbn(v).status for v in cases] == [WBNStatus.FAILS] * 2
        assert "Serre dual" in dec.wbn(cases[1]).notes[1]
        monkeypatch.setattr(dec, "hirzebruch_core", off_by_one)
        for v in cases:
            with pytest.raises(dec.VerificationError, match="exponent b"):
                dec.wbn(v)


def _verdict_kinds():
    """One verdict of each F_e kind and one on a blowup, by name."""
    S = lat.parse_surface("blp2:k=2")
    return {
        "empty": dec.wbn(ch.character_from_chi(2, D(F0, "-E-3F"), 0)),
        "fails": dec.wbn(ch.character_from_chi(2, D(F1, "2E-F"), 0)),
        "resolution": dec.wbn(ch.character_from_chi(2, D(F1, "E+F"), 0)),
        "direct-sum": dec.wbn(ch.character_from_chi(2, D(F0, "-2E-2F"), 0)),
        "fiber-sum": dec.wbn(ch.character_from_chi(3, D(F1, "-2E-4F"), 0)),
        "blowup": dec.wbn(ch.character_from_chi(2, D(S, "2L-E1-E2"), 0)),
    }


class TestVerdictObjects:
    KINDS = ["empty", "fails", "resolution", "direct-sum", "fiber-sum", "blowup"]

    def test_one_of_each_kind(self):
        kinds = _verdict_kinds()
        assert [str(kinds[k].status) for k in self.KINDS] == ["EmptyModuli", "Fails"] + ["Holds"] * 4
        assert kinds["direct-sum"].witness.form == "direct-sum"
        assert isinstance(kinds["fiber-sum"].witness, gd.WBNWitness)

    @pytest.mark.parametrize("kind", KINDS)
    def test_fields_are_frozen(self, kind):
        verdict = _verdict_kinds()[kind]
        for f in dataclasses.fields(verdict):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(verdict, f.name, None)
        assert not hasattr(verdict, "__dict__")

    @pytest.mark.parametrize("kind", KINDS)
    def test_replace_and_keyword_constructor_agree(self, kind):
        verdict = _verdict_kinds()[kind]
        values = {f.name: getattr(verdict, f.name) for f in dataclasses.fields(verdict)}
        built = dec.WBNVerdict(**values)
        assert built == verdict and hash(built) == hash(verdict)
        assert dataclasses.replace(verdict) == verdict
        wrong = dataclasses.replace(verdict, status=WBNStatus.UNKNOWN)
        assert wrong != verdict and wrong == dec.WBNVerdict(**{**values, "status": WBNStatus.UNKNOWN})

    @pytest.mark.parametrize("kind", KINDS)
    def test_field_types(self, kind):
        verdict = _verdict_kinds()[kind]
        assert isinstance(verdict.notes, tuple) and all(isinstance(n, str) for n in verdict.notes)
        if kind == "blowup":
            assert verdict.bogomolov_delta is None
        else:
            assert type(verdict.bogomolov_delta) is Fraction


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
        # Delta = 3/8 >= 0, so the moduli space is not empty by Bogomolov
        S = lat.blowup_p2(4, lat.collinear_config([1, 2, 3, 4]))
        v = ch.character_from_chi(2, D(S, "3L-2E1-2E2-2E3-2E4"), 0)
        assert v.discriminant() == Fraction(3, 8)
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.FAILS
        assert verdict.obstruction.curve == D(S, "L-E1-E2-E3-E4")
        assert verdict.obstruction.h0_lower_bound == 3

    def test_collinear_obstruction_boundary(self):
        # chi(O(C), v) = -c1.C - r for the line C = L-E1-E2-E3-E4, so it
        # obstructs at c1.C = -r - 1 and not at c1.C = -r; both characters
        # have Delta >= 0
        S = lat.blowup_p2(4, lat.collinear_config([1, 2, 3, 4]))
        C = D(S, "L-E1-E2-E3-E4")
        v = ch.character_from_chi(2, D(S, "2L+E1-2E2-2E3-2E4"), 0)
        assert lat.intersect(v.c1, C) == -3 and v.discriminant() >= 0
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.FAILS
        assert verdict.obstruction == dec.Obstruction(curve=C, chi_pairing=1, h0_lower_bound=1)
        v = ch.character_from_chi(2, D(S, "2L+E1-2E2-2E3-E4"), 0)
        assert lat.intersect(v.c1, C) == -2 and v.discriminant() >= 0
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.UNKNOWN
        assert not any(n.startswith("collinear points") for n in verdict.notes)

    def test_collinear_obstruction_needs_the_slope_condition(self, monkeypatch):
        # chi(O(C), v) = 11 > 0, but c1.L + 2r = -4 <= 0: a semistable sheaf
        # of slope -4L near H = L has no map from O(C), so no Fails
        S = lat.blowup_p2(3, lat.collinear_config([1, 2, 3]))
        C = D(S, "L-E1-E2-E3")
        v = ch.character_from_chi(2, D(S, "-8L-E1-2E2-2E3"), 0)
        assert ch.euler_pairing(ch.line_bundle_character(C), v) == 11
        assert dec.obstruction_certificate(v, C, D(S, "L")) is None
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.UNKNOWN and verdict.obstruction is None
        # the note names the positive pairing and the failed condition
        assert verdict.notes[-1] == (
            "collinear points: the line through them pairs positively "
            "(chi(O(C), v) = 11), but mu(v).L <= (K+C).L = -2, so the slope "
            "condition fails at H = L and no sections are forced"
        )
        # the line is paired with v once, for the certificate and the note
        calls = []
        monkeypatch.setattr(dec, "line_bundle_character", lambda C: calls.append(C) or ch.line_bundle_character(C))
        assert dec.wbn(v) == verdict and calls == [C]
        # at l + 2r = 1 the condition holds and the Fails stands, naming H
        # (Delta = 0, so Bogomolov leaves the moduli space nonempty)
        v = ch.character_from_chi(3, D(S, "-5L+E1"), 0)
        assert v.discriminant() == 0
        verdict = dec.wbn(v)
        assert verdict.status is WBNStatus.FAILS
        assert "H = L + eps A" in verdict.notes[-1]

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


class TestPointPermutations:
    """Renumbering the blown-up points is an isomorphism of surfaces, so wbn
    never answers Holds on one numbering and Fails on another."""

    @staticmethod
    def _draw(rng):
        family = rng.randrange(3)
        if family == 2:
            S = lat.blowup_hirzebruch(rng.choice((2, 3)), rng.randint(1, 3))
        else:
            k = rng.randint(2, 7) if family == 0 else rng.randint(3, 7)
            line = rng.sample(range(1, k + 1), rng.randint(2, k))
            S = lat.blowup_p2(k, lat.collinear_config(line) if family else lat.GENERAL)
        r = rng.randint(2, 4)
        if S.is_blowup_hirzebruch:
            head = (rng.randint(-r, 2 * r), rng.randint(0, 3 * r))
        else:
            head = (rng.randint(0, 3 * r),)
        return S, r, head + tuple(-rng.randint(0, r + 1) for _ in range(S.k))

    @staticmethod
    def _permuted(S, coords, sigma):
        """The class with point i renamed sigma[i - 1] + 1; on collinear points
        the collinear set moves with it, to another model."""
        h = S.rank - S.k
        out = list(coords)
        for i, j in enumerate(sigma):
            out[h + j] = coords[h + i]
        if S.config.collinear:
            S = lat.blowup_p2(S.k, lat.collinear_config(sigma[i - 1] + 1 for i in S.config.collinear))
        return S, tuple(out)

    def test_random_characters(self):
        rng = random.Random(32)
        pairs, moved = [], 0
        for _ in range(400):
            S, r, coords = self._draw(rng)
            sigma = list(range(S.k))
            rng.shuffle(sigma)
            T, permuted = self._permuted(S, coords, sigma)
            moved += T is not S
            pair = [
                dec.wbn(ch.character_from_chi(r, lat.DivisorClass(X, c), 0)).status
                for X, c in ((S, coords), (T, permuted))
            ]
            assert set(pair) != {WBNStatus.HOLDS, WBNStatus.FAILS}, (S.spec(), r, coords, sigma)
            pairs.append(pair)
        assert moved and {WBNStatus.HOLDS, WBNStatus.FAILS} <= {a for a, b in pairs if a is b}


class TestObstructionCertificate:
    def test_negative_section_pairing_is_one(self):
        v = ch.character_from_chi(2, D(F1, "2E-F"), 0)
        ob = dec.obstruction_certificate(v, D(F1, "E"), D(F1, "E+2F"))
        assert ob is not None
        assert ob.chi_pairing == 1  # chi(v(-E)) = c1.(-E) + r (chi(O(-E)) - 1) = 1

    def test_collinear_curve_class(self):
        S = lat.blowup_p2(4, lat.collinear_config([1, 2, 3, 4]))
        v = ch.character_from_chi(2, D(S, "2L-2E1-2E2-2E3-2E4"), 0)
        ob = dec.obstruction_certificate(v, D(S, "L-E1-E2-E3-E4"), D(S, "L"))
        assert ob is not None and ob.h0_lower_bound == 4

    def test_nonpositive_pairing_gives_none(self):
        v = ch.character_from_chi(2, lat.zero_divisor(F1), 0)
        assert dec.obstruction_certificate(v, D(F1, "F"), D(F1, "E+2F")) is None

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
            from rbn import chern, decide, goodsums, lattice, resolutions
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
            F0 = lattice.hirzebruch(0)
            v = chern.character_from_chi(2, lattice.parse_divisor("-2E-2F", F0), 0)
            coll = resolutions.builtin_collection(F0).with_split(0)
            try:  # the direct sum O(-E-F)^2 with r + 1 copies
                resolutions.verify_report(resolutions.ResolutionReport(coll, (3, 0, 0), v))
            except decide.VerificationError:
                print("F0 direct sum (3, 0, 0) raised")
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
        expected = (
            "optimize 1 raised\nrank one raised\nF0 direct sum (3, 0, 0) raised\n"
            "F1 raised\nF0 raised\nblF2:k=1 raised\n"
        )
        assert (out.returncode, out.stdout) == (0, expected), out.stderr

    def test_fails_and_chi_gates_survive_optimized_mode(self):
        # the Fails check against an exponent b off by one, and the chi = 0
        # check of ``wbn``, both raise with asserts stripped
        script = textwrap.dedent(
            """
            import sys
            from rbn import chern, decide, lattice
            F1 = lattice.hirzebruch(1)
            core = decide.hirzebruch_core
            def off_by_one(*args):
                dualized, k, ell, t, disc, (a, b, c) = core(*args)
                return dualized, k, ell, t, disc, (a, b - 1, c)
            decide.hirzebruch_core = off_by_one
            for c1 in ("2E-F", "-8E-7F"):
                try:
                    decide.wbn(chern.character_from_chi(2, lattice.parse_divisor(c1, F1), 0))
                except decide.VerificationError:
                    print("optimize", sys.flags.optimize, c1, "raised")
            try:
                decide.wbn(chern.character_from_chi(2, lattice.parse_divisor("F", F1), 3))
            except chern.CharacterError:
                print("chi raised")
            """
        )
        src = str(pathlib.Path(dec.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        expected = "optimize 1 2E-F raised\noptimize 1 -8E-7F raised\nchi raised\n"
        assert (out.returncode, out.stdout) == (0, expected), out.stderr


def _raised(call, v):
    """The type and message ``call(v)`` raises."""
    with pytest.raises(Exception) as info:
        call(v)
    return type(info.value), str(info.value)


class TestChiGate:
    # ``wbn`` and ``two_term_resolution`` read chi = 0 on the input's own
    # coordinates, so a core that lies cannot pass it; each error keeps the
    # type and message of the lattice gate
    CASES = [("F0", "E+F", 2), ("F1", "2E-F", 2), ("F2", "-5E-9F", 3), ("F3", "E-F", 4),
             ("blp2:k=2", "L-E1", 2), ("blF2:k=1", "E+3F-E1", 2), ("dp6", "2L", 3)]

    @staticmethod
    def characters(spec, c1, r):
        S = lat.parse_surface(spec)
        v = ch.character_from_chi(r, D(S, c1), 0)
        odd = ch.ChernCharacter(r, v.c1, twice_ch2=v.twice_ch2 + 1)
        return odd, [ch.character_from_chi(r, v.c1, chi) for chi in (-2, 1, 3)]

    @staticmethod
    def expected(odd, nonzero):
        odd_error = (ch.CharacterError, f"character {odd} has non-integral Euler characteristic {ch.riemann_roch_chi(odd)}")
        rows = [(dec.wbn, odd, odd_error), (res.two_term_resolution, odd, odd_error)]
        for v in nonzero:
            rows.append((dec.wbn, v, (ch.CharacterError, "weak Brill-Noether verdicts require chi(v) = 0")))
            rows.append((res.two_term_resolution, v, (res.ResolutionError, "resolutions are computed for characters with chi = 0")))
        return rows

    @pytest.mark.parametrize("spec, c1, r", CASES)
    def test_errors_are_the_lattice_gates(self, spec, c1, r):
        for call, v, error in self.expected(*self.characters(spec, c1, r)):
            assert _raised(call, v) == error, (call.__name__, v)

    @pytest.mark.parametrize("spec, c1, r", CASES[:4])
    def test_lying_core_cannot_pass_the_gate(self, monkeypatch, spec, c1, r):
        # the core is asked only after the gate, so a core that vouches for
        # chi = 0 changes no error; it is never called on a refused input
        S = lat.parse_surface(spec)
        good = ch.character_from_chi(r, D(S, c1), 0)
        answer = ch.hirzebruch_core(S.e, r, *good.c1.coords, good.twice_ch2)
        calls = []
        for module in (dec, res):
            monkeypatch.setattr(module, "hirzebruch_core", lambda *args: calls.append(args) or answer)
        for call, v, error in self.expected(*self.characters(spec, c1, r)):
            assert _raised(call, v) == error, (call.__name__, v)
        assert calls == []

    def test_errors_survive_optimized_mode(self):
        script = textwrap.dedent(
            """
            import sys
            from rbn import chern, decide, lattice, resolutions
            real = chern.hirzebruch_core
            lie = lambda e, r, k, ell, t: real(e, r, k, ell, t - 2)
            decide.hirzebruch_core = resolutions.hirzebruch_core = lie
            for line in sys.stdin.read().splitlines():
                spec, c1, r, t = line.split(";")
                S = lattice.parse_surface(spec)
                v = chern.ChernCharacter(int(r), lattice.parse_divisor(c1, S), twice_ch2=int(t))
                for call in (decide.wbn, resolutions.two_term_resolution):
                    try:
                        call(v)
                        print("no error")
                    except Exception as exc:
                        print(type(exc).__name__, str(exc), sep=": ")
            """
        )
        lines, expected = [], []
        for spec, c1, r in self.CASES:
            odd, nonzero = self.characters(spec, c1, r)
            for v in [odd, *nonzero]:
                lines.append(f"{spec};{c1};{r};{v.twice_ch2}")
            for _, _, (kind, message) in self.expected(odd, nonzero):
                expected.append(f"{kind.__name__}: {message}")
        src = str(pathlib.Path(dec.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], input="\n".join(lines), capture_output=True, text=True, env=env
        )
        assert (out.returncode, out.stdout) == (0, "\n".join(expected) + "\n"), out.stderr


class TestBogomolovOnEverySurface:
    # at rank >= 2 a negative discriminant is EmptyModuli on every surface,
    # before any route; behind the gate no blowup route would have said Holds
    SPECS = ["F0", "F1", "F2", "F3", "blp2:k=2", "blp2:k=4", "blp2:k=3:collinear=1,2,3",
             "blp2:k=5:collinear=1,2,3,4", "blF2:k=1", "blF3:k=2", "dp5", "dp6", "dp7"]

    def test_no_verdict_below_the_bound(self):
        rng = random.Random(31)
        surfaces = [lat.parse_surface(spec) for spec in self.SPECS]
        seen = set()
        for _ in range(600):
            S, r = rng.choice(surfaces), rng.randrange(2, 5)
            head = len(S.basis) - S.k
            coords = tuple(rng.randint(-2 * r, 3 * r) for _ in range(head)) + tuple(
                rng.randint(-r, r // 2) for _ in range(S.k)
            )
            v = ch.character_from_chi(r, lat.DivisorClass(S, coords), 0)
            verdict, delta = dec.wbn(v), v.discriminant()
            below = delta < 0
            seen.add((S.is_hirzebruch, verdict.status, below))
            if below:
                assert verdict.status is WBNStatus.EMPTY_MODULI, v
                assert verdict.bogomolov_delta == delta, v
                assert verdict.notes[-1] == f"discriminant {delta} < 0 violates the Bogomolov inequality"
                if not S.is_hirzebruch:
                    assert verdict.notes == (dec._STACK_NOTE, verdict.notes[-1])
                    assert dec._blowup_wbn(v).status is not WBNStatus.HOLDS, v
            else:
                assert verdict.status is not WBNStatus.EMPTY_MODULI, v
        for hirzebruch in (True, False):
            assert {(hirzebruch, s, False) for s in (WBNStatus.HOLDS, WBNStatus.FAILS)} <= seen
            assert (hirzebruch, WBNStatus.EMPTY_MODULI, True) in seen
