import random
from fractions import Fraction

import pytest

from rbn import chern as ch
from rbn import lattice as lat


F0 = lat.hirzebruch(0)
F1 = lat.hirzebruch(1)
F2 = lat.hirzebruch(2)
BL2 = lat.blowup_p2(2)


def D(surface, expr):
    return lat.parse_divisor(expr, surface)


def rand_character(rng, surface, chi=None):
    c1 = lat.DivisorClass(surface, tuple(rng.randrange(-8, 9) for _ in range(surface.rank)))
    r = rng.randrange(1, 6)
    if chi is None:
        chi = rng.randrange(-6, 7)
    return ch.character_from_chi(r, c1, chi)


class TestRiemannRoch:
    def test_line_bundle_specialization(self):
        rng = random.Random(2)
        for surface in (F1, BL2, lat.del_pezzo(5)):
            for _ in range(30):
                Dv = lat.DivisorClass(
                    surface, tuple(rng.randrange(-7, 8) for _ in range(surface.rank))
                )
                v = ch.line_bundle_character(Dv)
                assert ch.riemann_roch_chi(v) == lat.chi_line_bundle(Dv)

    def test_rank_two_on_quadric(self):
        v = ch.ChernCharacter(2, lat.zero_divisor(F0), Fraction(-1))
        assert ch.riemann_roch_chi(v) == 1
        assert v.discriminant() == Fraction(1, 2)

    def test_rank_zero_rejected(self):
        with pytest.raises(ch.CharacterError):
            ch.ChernCharacter(0, lat.zero_divisor(F0), Fraction(0))

    def test_half_integrality_enforced(self):
        with pytest.raises(ch.CharacterError):
            ch.ChernCharacter(2, lat.zero_divisor(F0), Fraction(1, 3))


class TestEulerPairing:
    def test_structure_sheaf_normalization(self):
        rng = random.Random(13)
        O = ch.line_bundle_character(lat.zero_divisor(BL2))
        for _ in range(30):
            w = rand_character(rng, BL2)
            assert ch.euler_pairing(O, w) == ch.riemann_roch_chi(w)

    def test_line_bundle_difference(self):
        rng = random.Random(14)
        for surface in (F1, BL2):
            for _ in range(30):
                A = lat.DivisorClass(surface, tuple(rng.randrange(-6, 7) for _ in range(surface.rank)))
                B = lat.DivisorClass(surface, tuple(rng.randrange(-6, 7) for _ in range(surface.rank)))
                got = ch.euler_pairing(ch.line_bundle_character(A), ch.line_bundle_character(B))
                assert got == lat.chi_line_bundle(B - A)

    def test_collinear_pairing_identity(self):
        # chi(O(L-E1-E2), v) = r (-delta + sum alpha_i - 1) whenever chi(v) = 0
        rng = random.Random(15)
        C = ch.line_bundle_character(D(BL2, "L-E1-E2"))
        for _ in range(40):
            v = rand_character(rng, BL2, chi=0)
            delta = Fraction(lat.intersect(v.c1, D(BL2, "L")), v.r)
            alphas = [
                Fraction(lat.intersect(v.c1, lat.basis_divisor(BL2, f"E{i}")), v.r)
                for i in (1, 2)
            ]
            assert ch.euler_pairing(C, v) == v.r * (-delta + sum(alphas) - 1)


class TestSerreDual:
    def test_worked_slope(self):
        v = ch.character_from_chi(2, D(F0, "-2E-3F"), 0)
        dual = ch.serre_dual_character(v)
        # slope (-1, -1/2) at rank 2
        assert (dual.r, dual.c1) == (2, D(F0, "-2E-F"))

    def test_involution_and_chi(self):
        rng = random.Random(19)
        for surface in (F0, F2, BL2, lat.del_pezzo(6)):
            for _ in range(500):
                v = rand_character(rng, surface)
                dual = ch.serre_dual_character(v)
                assert ch.serre_dual_character(dual) == v
                assert ch.riemann_roch_chi(dual) == ch.riemann_roch_chi(v)

    def test_dual_slope_identity(self):
        rng = random.Random(20)
        K = lat.canonical(F2)
        for _ in range(20):
            v = rand_character(rng, F2)
            dual = ch.serre_dual_character(v)
            # the dual slope is K - nu: c1(dual) = rK - c1 at the same rank
            assert (dual.r, dual.c1) == (v.r, v.r * K - v.c1)


class TestNormalizeAndBogomolov:
    def test_tie_rule_forces_dual(self):
        v = ch.character_from_chi(2, D(F0, "-2E-3F"), 0)
        w, dualized = ch.hirzebruch_normalize(v)
        assert dualized and (w.r, w.c1) == (2, D(F0, "-2E-F"))

    def test_interior_unchanged(self):
        v = ch.character_from_chi(2, lat.zero_divisor(F1), 0)
        assert ch.hirzebruch_normalize(v) == (v, False)

    def test_tie_rule_on_f2(self):
        # nu = -E-3F has l/r = -3 < -1 - e/2 = -2, so the dual is taken
        v = ch.character_from_chi(2, D(F2, "-2E-6F"), 0)
        assert ch.hirzebruch_normalize(v)[1]
        # nu = -E-2F sits exactly on the tie boundary and is kept
        v = ch.character_from_chi(2, D(F2, "-2E-4F"), 0)
        assert ch.hirzebruch_normalize(v)[1] is False

    def test_discriminant_is_dualization_invariant(self):
        rng = random.Random(23)
        for _ in range(40):
            v = rand_character(rng, F2, chi=0)
            assert v.discriminant() == ch.serre_dual_character(v).discriminant()


class TestConstructors:
    def test_from_chi_round_trip(self):
        rng = random.Random(29)
        for surface in (F1, BL2):
            for _ in range(30):
                v = rand_character(rng, surface)
                chi = ch.chi_integer(v)
                again = ch.character_from_chi(v.r, v.c1, chi)
                assert again == v

    def test_worked_ch2_values(self):
        assert ch.character_from_chi(2, lat.zero_divisor(F1), 0).ch2 == -2
        assert ch.character_from_chi(3, D(BL2, "2L"), 0).ch2 == -6
        Dv = D(BL2, "3L-E1")
        v = ch.character_from_chi(1, Dv, lat.chi_line_bundle(Dv))
        assert v.ch2 == Fraction(lat.intersect(Dv, Dv), 2)

    def test_parse_character_forms(self):
        v1 = ch.parse_character("r=3;c1=2L;ch2=-6", BL2)
        v2 = ch.parse_character("r=3; c1=2L; chi=0", BL2)
        assert v1 == v2
        v3 = ch.parse_character("r=2;c1=E+F;ch2=3/2", F1)
        assert v3.ch2 == Fraction(3, 2)
        with pytest.raises(lat.ParseError):
            ch.parse_character("r=2;c1=2L", BL2)
        with pytest.raises(lat.ParseError):
            ch.parse_character("r=2;c1=2L;chi=0;ch2=1", BL2)
        with pytest.raises(lat.ParseError):
            ch.parse_character("r=x;c1=2L;chi=0", BL2)
