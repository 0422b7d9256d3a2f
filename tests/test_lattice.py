import json
import os
import pathlib
import pickle
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbn import lattice as lat

# golden Weyl orbits (size and smallest elements) and, for test_goodsums,
# del Pezzo decompositions; a change to them changes user-visible output
GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "lattice_golden.json").read_text())


F0 = lat.hirzebruch(0)
F1 = lat.hirzebruch(1)
F2 = lat.hirzebruch(2)
F3 = lat.hirzebruch(3)
BL2 = lat.blowup_p2(2)
DP5 = lat.del_pezzo(5)
DP7 = lat.del_pezzo(7)


def D(surface, expr):
    return lat.parse_divisor(expr, surface)


def apply_word(D, word):
    """Reflect D in each root of the word in turn, first root first."""
    for root in word:
        D = lat.weyl_reflect(D, root)
    return D


def curve_word(C):
    """``lat.curve_word`` for the (-1)-curve C, as a word of root classes."""
    return tuple(lat.DivisorClass(C.surface, root) for root in lat.curve_word(C.surface, C.coords))


def weyl_generators(S):
    """Coordinates of the simple roots of the Weyl group of the plane blown
    up at k points: E_i - E_(i+1), and L - E1 - E2 - E3 once k >= 3."""
    roots = [lat.transposition_root(S, i, i + 1) for i in range(1, S.k)]
    if S.k >= 3:
        roots.append(lat.cremona_root(S, 1, 2, 3))
    for root in roots:
        lat._check_root(root)
    return tuple(root.coords for root in roots)


def weyl_orbit(D):
    """Reference: the orbit of D under the Weyl group of a blowup of the
    plane at k <= 8 points (finite there), by search over the generators."""
    S = D.surface
    gens = weyl_generators(S)
    seen = {D.coords}
    frontier = [D.coords]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in gens:
                img = lat.reflect(S, cur, g)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return frozenset(lat.DivisorClass(S, c) for c in seen)


class TestIntersect:
    def test_hirzebruch_section_against_nef_generator(self):
        assert lat.intersect(D(F2, "E"), D(F2, "E+2F")) == 0

    def test_blowup_bilinear_expansion(self):
        assert lat.intersect(D(BL2, "2L-E1"), D(BL2, "L-E1-E2")) == 1

    def test_quadric_rulings_square_to_zero(self):
        assert lat.intersect(D(F0, "E"), D(F0, "E")) == 0

    def test_symmetry_and_bilinearity_random(self):
        rng = random.Random(11)
        for surface in (F2, BL2, lat.blowup_hirzebruch(3, 2), DP5):
            for _ in range(40):
                a, b, c = (
                    lat.DivisorClass(
                        surface,
                        tuple(rng.randrange(-9, 10) for _ in range(surface.rank)),
                    )
                    for _ in range(3)
                )
                m, n = rng.randrange(-3, 4), rng.randrange(-3, 4)
                assert lat.intersect(a, b) == lat.intersect(b, a)
                assert lat.intersect(m * a + n * b, c) == m * lat.intersect(
                    a, c
                ) + n * lat.intersect(b, c)

    def test_mismatched_surfaces_rejected(self):
        with pytest.raises(lat.LatticeError):
            lat.intersect(D(F2, "E"), D(F1, "E"))


class TestCanonicalAndChi:
    def test_canonical_classes(self):
        assert lat.canonical(F1) == D(F1, "-2E-3F")
        assert lat.canonical(BL2) == D(BL2, "-3L+E1+E2")
        K7 = lat.canonical(DP7)
        assert lat.intersect(K7, K7) == 7

    def test_chi_examples(self):
        assert lat.chi_line_bundle(D(F2, "2E+F")) == 0
        assert lat.chi_line_bundle(D(BL2, "2L-E1-E2")) == 4
        for surface in (F0, F3, BL2, DP5, lat.blowup_hirzebruch(2, 2)):
            assert lat.chi_line_bundle(lat.zero_divisor(surface)) == 1

    def test_chi_matches_family_closed_forms(self):
        rng = random.Random(5)
        for e in range(4):
            S = lat.hirzebruch(e)
            for a in range(-10, 11):
                for b in range(-10, 11):
                    assert lat.chi_line_bundle(lat.divisor(S, a, b)) == (a + 1) * (
                        b + 1
                    ) - e * a * (a + 1) // 2
        for _ in range(60):
            coords = tuple(rng.randrange(-10, 11) for _ in range(4))
            S = lat.blowup_p2(3)
            delta, mults = coords[0], [-c for c in coords[1:]]
            expected = (delta + 2) * (delta + 1) // 2 - sum(m * (m + 1) // 2 for m in mults)
            assert lat.chi_line_bundle(lat.DivisorClass(S, coords)) == expected


class TestNegOneCurves:
    def test_degree_seven(self):
        curves = lat.neg_one_curves(DP7)
        assert len(curves) == 3
        assert set(map(str, curves)) == {"E1", "E2", "L-E1-E2"}

    @pytest.mark.parametrize("degree,count", [(7, 3), (6, 6), (5, 10), (4, 16)])
    def test_counts_and_numerics(self, degree, count):
        S = lat.del_pezzo(degree)
        curves = lat.neg_one_curves(S)
        assert len(curves) == count
        K = lat.canonical(S)
        for C in curves:
            assert lat.intersect(C, C) == -1
            assert lat.intersect(-K, C) == 1

    def test_refused_off_del_pezzo(self):
        with pytest.raises(lat.LatticeError):
            lat.neg_one_curves(BL2)

    def test_del_pezzo_order(self):
        # exceptional curves, then lines, then the conic: the orthogonal-curve
        # pick of the del Pezzo decomposition reads this order
        assert [str(C) for C in lat.neg_one_curves(lat.del_pezzo(6))] == [
            "E1", "E2", "E3", "L-E1-E2", "L-E1-E3", "L-E2-E3"
        ]
        for degree in range(4, 8):
            curves = lat.neg_one_curves(lat.del_pezzo(degree))
            assert tuple(C.coords for C in curves) == lat.neg_one_classes(9 - degree)
        assert lat.neg_one_classes(5)[-1] == (2, -1, -1, -1, -1, -1)

    @pytest.mark.parametrize("k,count", [(1, 1), (2, 3), (3, 6), (4, 10), (5, 16), (6, 27), (7, 56), (8, 240)])
    def test_table_counts_and_numerics(self, k, count):
        S = lat.blowup_p2(k)
        K = lat.canonical(S).coords
        table = lat.neg_one_classes(k)
        assert len(table) == len(set(table)) == count
        for C in table:
            assert lat.form(S, C, C) == -1 and lat.form(S, C, K) == -1

    @pytest.mark.parametrize("k", range(2, 9))
    def test_table_is_the_orbit_of_an_exceptional_curve(self, k):
        S = lat.blowup_p2(k)
        orbit = {C.coords for C in weyl_orbit(lat.basis_divisor(S, f"E{k}"))}
        missing = {(1, -1, -1)} if k == 2 else set()  # the Weyl group of two points has no Cremona root
        assert orbit | missing == set(lat.neg_one_classes(k)) and not orbit & missing

    @pytest.mark.parametrize("k", [0, 9])
    def test_table_refused_outside_one_to_eight(self, k):
        with pytest.raises(lat.LatticeError):
            lat.neg_one_classes(k)


class TestNefAndEffective:
    def test_examples(self):
        assert lat.is_nef(D(F2, "E+2F"))
        assert lat.is_nef(D(DP5, "2L-E1-E2-E3-E4"))
        assert not lat.is_nef(D(F1, "E"))

    def test_refused_on_plain_blowups(self):
        with pytest.raises(lat.LatticeError):
            lat.is_nef(D(BL2, "L"))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(4, 7).flatmap(
            lambda degree: st.tuples(
                st.just(degree),
                st.lists(st.integers(-1000, 1000), min_size=10 - degree, max_size=10 - degree),
            )
        )
    )
    @example((7, [5, -3, -2]))  # d = m1 + m2
    @example((7, [5, -3, -3]))  # d = m1 + m2 - 1
    @example((4, [5, -2, -2, -2, -2, -2]))  # 2d = m1 + ... + m5
    @example((4, [5, -2, -2, -2, -2, -3]))  # 2d = m1 + ... + m5 - 1
    @example((6, [3, -1, 1, -1]))  # m2 = -1
    @example((5, [1000, 1, -500, -500, 0]))  # m1 = -1 at large coordinates
    def test_closed_form_matches_curve_test(self, case):
        # the reference: meet every (-1)-curve of the three families nonnegatively
        degree, coords = case
        S = lat.del_pezzo(degree)
        coords = tuple(coords)
        reference = all(lat.form(S, coords, C) >= 0 for C in lat.neg_one_classes(S.k))
        assert lat.is_nef_coords(S, coords) == reference


class TestWeyl:
    def test_transposition(self):
        root = D(BL2, "E1-E2")
        assert lat.weyl_reflect(D(BL2, "2L-E1"), root) == D(BL2, "2L-E2")

    def test_cremona(self):
        S = lat.blowup_p2(3)
        root = D(S, "L-E1-E2-E3")
        image = lat.weyl_reflect(D(S, "L"), root)
        assert image == D(S, "2L-E1-E2-E3")
        assert lat.weyl_reflect(image, root) == D(S, "L")

    def test_canonical_fixed_and_form_preserved(self):
        rng = random.Random(3)
        S = lat.del_pezzo(4)
        K = lat.canonical(S)
        roots = [D(S, "E1-E2"), D(S, "E2-E5"), D(S, "L-E1-E2-E3"), D(S, "L-E2-E4-E5")]
        for root in roots:
            assert lat.weyl_reflect(K, root) == K
            for _ in range(20):
                a = lat.DivisorClass(S, tuple(rng.randrange(-6, 7) for _ in range(6)))
                b = lat.DivisorClass(S, tuple(rng.randrange(-6, 7) for _ in range(6)))
                assert lat.weyl_reflect(lat.weyl_reflect(a, root), root) == a
                assert lat.intersect(
                    lat.weyl_reflect(a, root), lat.weyl_reflect(b, root)
                ) == lat.intersect(a, b)

    def test_nef_cone_preserved(self):
        S = lat.del_pezzo(5)
        root = D(S, "L-E1-E2-E3")
        for C in lat.neg_one_curves(S):
            nef = D(S, "3L-E1-E2-E3-E4")  # anticanonical, ample
            assert lat.is_nef(lat.weyl_reflect(nef, root))
            assert lat.is_nef(C) == lat.is_nef(lat.weyl_reflect(C, root))

    def test_non_root_rejected(self):
        with pytest.raises(lat.LatticeError):
            lat.weyl_reflect(D(BL2, "L"), D(BL2, "E1"))

    def test_move_curve_to_last_examples(self):
        S3 = lat.del_pezzo(6)
        word = curve_word(D(S3, "E1"))
        assert [str(w) for w in word] == ["E1-E3"]
        word = curve_word(D(S3, "L-E1-E2"))
        assert apply_word(D(S3, "L-E1-E2"), word) == D(S3, "E3")
        S5 = lat.del_pezzo(4)
        conic = D(S5, "2L-E1-E2-E3-E4-E5")
        word = curve_word(conic)
        assert apply_word(conic, word) == D(S5, "E5")

    def test_move_curve_to_last_exhaustive(self):
        for degree in (4, 5, 6):
            S = lat.del_pezzo(degree)
            target = lat.basis_divisor(S, f"E{S.k}")
            for C in lat.neg_one_curves(S):
                word = curve_word(C)
                assert apply_word(C, word) == target
                # each reflection is an involution, so the reversed word undoes it
                assert apply_word(target, reversed(word)) == C

    def test_cached_curve_word_reaches_last_exceptional(self):
        lat.curve_word.cache_clear()
        for degree in (4, 5, 6):
            S = lat.del_pezzo(degree)
            target = lat.basis_divisor(S, f"E{S.k}").coords
            for C in lat.neg_one_classes(S.k):
                cur = C
                for root in lat.curve_word(S, C):
                    cur = lat.reflect(S, cur, root)
                assert cur == target, C
                assert lat.curve_word(S, C) is lat.curve_word(S, C)  # computed once
        assert lat.curve_word.cache_info().currsize == 6 + 10 + 16

    @pytest.mark.parametrize(
        "case", GOLDEN["orbits"], ids=[f"{c['surface']}:{c['class']}" for c in GOLDEN["orbits"]]
    )
    def test_pinned_orbit(self, case):
        S = lat.parse_surface(case["surface"])
        orbit = weyl_orbit(D(S, case["class"]))
        assert len(orbit) == case["size"]
        first = sorted(orbit, key=lambda w: w.coords)[: len(case["first"])]
        assert [str(w) for w in first] == case["first"]
        assert all(w.surface == S for w in orbit)


class TestGrammar:
    def test_round_trip(self):
        for surface, expr in [
            (BL2, "3L-2E1-E2"),
            (F2, "2E+3F"),
            (F1, "-E+7F"),
            (lat.blowup_hirzebruch(2, 2), "-E+5F+E1-3E2"),
            (BL2, "0"),
        ]:
            parsed = lat.parse_divisor(expr, surface)
            assert lat.parse_divisor(lat.divisor_expr(parsed), surface) == parsed

    def test_whitespace_and_repeats(self):
        assert lat.parse_divisor(" 3L - 2E1 - E2 ", BL2) == D(BL2, "3L-2E1-E2")
        assert lat.parse_divisor("L+L-E1+E1", BL2) == D(BL2, "2L")

    def test_bad_symbol(self):
        with pytest.raises(lat.ParseError):
            lat.parse_divisor("2H", BL2)  # the hyperplane pullback is spelled L
        with pytest.raises(lat.ParseError):
            lat.parse_divisor("E3", BL2)
        with pytest.raises(lat.ParseError):
            lat.parse_divisor("L", F2)

    def test_surface_specs(self):
        assert lat.parse_surface("F3") == F3
        assert lat.parse_surface("dp5") == DP5
        assert lat.parse_surface("blp2:k=4:collinear=1,2,3,4") == lat.blowup_p2(
            4, lat.collinear_config([1, 2, 3, 4])
        )
        assert lat.parse_surface("blF2:k=3") == lat.blowup_hirzebruch(2, 3)
        for surface in (F0, DP7, lat.blowup_p2(4, lat.collinear_config([1, 2]))):
            assert lat.parse_surface(surface.spec()) == surface
        with pytest.raises(lat.ParseError):
            lat.parse_surface("dp3")
        with pytest.raises(lat.ParseError):
            lat.parse_surface("blF1:k=2")  # blowups of F_e assume e >= 2


class TestDivisorArithmetic:
    def test_integral_arithmetic_stays_integral(self):
        a, b = D(DP5, "3L-E1-2E2"), D(DP5, "L-E3")
        for got, want in ((a + b, "4L-E1-2E2-E3"), (a - b, "2L-E1-2E2+E3"), (-a, "-3L+E1+2E2")):
            assert got == D(DP5, want) and type(got) is lat.DivisorClass
            assert all(type(c) is int for c in got.coords) and hash(got) == hash(D(DP5, want))
        reflected = lat.weyl_reflect(a, D(DP5, "E1-E2"))
        assert reflected == D(DP5, "3L-2E1-E2") and type(reflected) is lat.DivisorClass


class TestSurfaceHash:
    def test_hash_is_computed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(lat.PointConfig, "__hash__", lambda self: calls.append(self) or 7)
        S = lat.blowup_p2(4, lat.collinear_config([1, 2, 3]))
        keys = {lat.DivisorClass(S, (d, 0, 0, 0, 0)) for d in range(5)}
        assert len(keys) == 5 and hash(S) == hash(S) and calls == [S.config]

    def test_pickled_model_hashes_in_another_process(self):
        # str hashes are salted per process, so a cached hash must not travel
        S = lat.blowup_p2(4, lat.collinear_config([1, 2, 3]))
        hash(S)
        T = pickle.loads(pickle.dumps(S))
        assert "_hash" not in T.__dict__ and T == S and hash(T) == hash(S)
        assert S != lat.blowup_p2(4, lat.collinear_config([1, 2]))
        script = textwrap.dedent(
            """
            import pickle, sys
            from rbn import lattice
            T = pickle.loads(bytes.fromhex(sys.argv[1]))
            print(hash(T) == hash(lattice.parse_surface(T.spec())))
            """
        )
        src = str(pathlib.Path(lat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(hash(S) % 1000 + 1)}
        out = subprocess.run(
            [sys.executable, "-c", script, pickle.dumps(S).hex()], capture_output=True, text=True, env=env
        )
        assert out.stdout == "True\n", out.stderr


# each public way in must still refuse malformed coordinates; the checks are
# raises, not asserts, so ``python -O`` keeps them
BOUNDARY_CASES = {
    "short": "lattice.DivisorClass(lattice.blowup_p2(2), (1, 0))",
    "long": "lattice.DivisorClass(lattice.blowup_p2(2), (1, 0, 0, 0))",
    "float": "lattice.DivisorClass(lattice.blowup_p2(2), (1.0, 0, 0))",
    "fraction": "lattice.DivisorClass(lattice.blowup_p2(2), (Fraction(1, 2), 0, 0))",
    "half_scalar": "lattice.parse_divisor('2L-E1', lattice.blowup_p2(2)) * Fraction(1, 2)",
    # collinear indices count the points from 1, so 0 and below name no point
    "collinear_zero": "lattice.collinear_config([0, 1])",
    "collinear_negative": "lattice.blowup_p2(3, lattice.PointConfig('collinear', collinear=(-1, 2)))",
}


class TestBoundaryValidation:
    @pytest.mark.parametrize("name", sorted(BOUNDARY_CASES))
    def test_refused(self, name):
        with pytest.raises(lat.LatticeError):
            eval(BOUNDARY_CASES[name], {"lattice": lat, "Fraction": Fraction})

    def test_refused_in_optimized_mode(self):
        script = textwrap.dedent(
            """
            import sys
            from fractions import Fraction
            from rbn import lattice
            cases = sys.argv[1:]
            for expr in cases:
                try:
                    eval(expr)
                except lattice.LatticeError:
                    continue
                print("accepted", expr)
            print("optimize", sys.flags.optimize, "refused", len(cases))
            """
        )
        src = str(pathlib.Path(lat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        cases = [BOUNDARY_CASES[name] for name in sorted(BOUNDARY_CASES)]
        out = subprocess.run(
            [sys.executable, "-O", "-c", script, *cases], capture_output=True, text=True, env=env
        )
        assert (out.returncode, out.stdout) == (0, f"optimize 1 refused {len(cases)}\n"), out.stderr
