import itertools
import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbn import chern as ch
from rbn import cohomology as coh
from rbn import goodsums as gd
from rbn import lattice as lat


DP7 = lat.del_pezzo(7)
DP6 = lat.del_pezzo(6)
DP4 = lat.del_pezzo(4)
BL2 = lat.blowup_p2(2)
BL5 = lat.blowup_p2(5)

# golden del Pezzo decompositions and, for test_lattice, Weyl orbits; a
# change to them changes user-visible output
GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "lattice_golden.json").read_text())


def D(surface, expr):
    return lat.parse_divisor(expr, surface)


def anticanonical_sum(surface, *exprs):
    return gd.GoodSum(-lat.canonical(surface), tuple(D(surface, e) for e in exprs))


def gap_and_bound(gs, F):
    """The widest N-degree gap of the sum, and -N.(F + K): the sum meets the
    F-prioritary degree-gap criterion when the gap lies strictly below it."""
    degrees = gs.degrees()
    return max(degrees) - min(degrees), -lat.intersect(gs.N, F + lat.canonical(gs.surface))


class TestIsGoodSum:
    def test_worked_decomposition_of_twice_the_line(self):
        gs = anticanonical_sum(DP7, "L-E1", "L-E2", "E1+E2")
        check = gd.is_good_sum(gs)
        assert check.ok and not check.failures

    def test_degree_gap_failure(self):
        gs = anticanonical_sum(DP7, "2L", "0")
        check = gd.is_good_sum(gs)
        assert not check.ok
        assert any("gap" in f for f in check.failures)

    def test_zero_sum_passes(self):
        gs = anticanonical_sum(DP4, *(["0"] * 4))
        assert gd.is_good_sum(gs).ok

    def test_cohomology_failure_detected(self):
        gs = anticanonical_sum(DP7, "2L-2E1-2E2")  # h1 = 1
        check = gd.is_good_sum(gs)
        assert not check.ok and any("higher cohomology" in f for f in check.failures)

    @pytest.mark.parametrize(
        "spec, provenance",
        [
            ("blp2:k=5", ()),  # exact on general points
            ("blp2:k=9", ("summand 3L-2E1-E2-E3-E4-E5: oracle-clean, not rule-derivable",)),
        ],
    )
    def test_oracle_provenance_only_off_general_points(self, spec, provenance):
        S = lat.parse_surface(spec)
        gs = gd.GoodSum(D(S, "L"), (D(S, "3L-2E1-E2-E3-E4-E5"),))
        assert gd.is_good_sum(gs) == gd.GoodSumCheck(True, (), provenance)

    def test_classes_on_another_surface_refused(self):
        # the sums read coordinates alone, so a class of another surface is
        # refused when the sum is built
        with pytest.raises(lat.LatticeError, match="different surfaces"):
            gd.GoodSum(-lat.canonical(DP7), (D(DP7, "L"), D(BL2, "L")))
        with pytest.raises(lat.LatticeError, match="different surfaces"):
            gd.GoodSum(D(BL2, "L"), (D(DP7, "L"),))

    def test_surface_is_read_off_the_reference(self):
        gs = gd.GoodSum(D(DP7, "L"), ())
        assert gs.surface is DP7 and gs.rank == 0
        # a surface in first place is refused, not read as the reference
        with pytest.raises(TypeError):
            gd.GoodSum(DP7, D(DP7, "L"), (D(DP7, "L"),))

    def test_reference_hypothesis_enforced(self):
        # N = E1 is not nef, and N = 0 fails -N.(F+K) >= 2
        with pytest.raises(gd.GoodSumError):
            gd.is_good_sum(gd.GoodSum(D(DP7, "E1"), (lat.zero_divisor(DP7),)))
        with pytest.raises(gd.GoodSumError):
            gd.is_good_sum(gd.GoodSum(lat.zero_divisor(DP7), (lat.zero_divisor(DP7),)))


class TestPrioritarySumCheck:
    def test_good_sums_pass(self):
        for degree in (4, 5, 6, 7):
            S = lat.del_pezzo(degree)
            gap, bound = gap_and_bound(gd.delpezzo_decompose(D(S, "2L"), 3), D(S, "L-E1"))
            # goodness gives the gap, and -N.(F + K) >= 2 the bound
            assert gap <= 1 < 2 <= bound

    def test_wide_gap_fails(self):
        gap, bound = gap_and_bound(anticanonical_sum(DP7, "2L", "0"), gd.fiber_class(DP7))
        assert not gap < bound

    def test_rank_one_vacuous(self):
        gap, bound = gap_and_bound(anticanonical_sum(DP7, "2L"), gd.fiber_class(DP7))
        assert gap == 0 < bound


class TestRoundingSum:
    def test_rank_two_example(self):
        v = ch.character_from_chi(2, D(BL2, "3L-E1"), 0)
        gs = gd.rounding_sum(v)
        assert gs.c1() == D(BL2, "3L-E1")
        assert {d.coords[0] for d in gs.summands} == {1, 2}
        assert gd.is_good_sum(gs).ok

    def test_rank_one_is_exact(self):
        v = ch.character_from_chi(1, D(BL2, "2L-E1"), 0)
        gs = gd.rounding_sum(v)
        assert gs.summands == (D(BL2, "2L-E1"),)

    def test_rank_three_example(self):
        v = ch.character_from_chi(3, D(BL5, "4L-2E1-E2"), 0)
        gs = gd.rounding_sum(v)
        assert sorted(d.coords[0] for d in gs.summands) == [1, 1, 2]
        assert gd.is_good_sum(gs).ok

    def test_hypothesis_failures(self):
        with pytest.raises(gd.GoodSumError, match="alpha_1"):
            gd.rounding_sum(ch.character_from_chi(2, D(BL2, "2L+E1"), 0))
        with pytest.raises(gd.GoodSumError, match="delta"):
            gd.rounding_sum(ch.character_from_chi(2, D(BL2, "-L"), 0))
        # floor/ceiling bundle 2L-2E1-2E2 has h1 = 1
        with pytest.raises(gd.GoodSumError, match="floor/ceiling"):
            gd.rounding_sum(ch.character_from_chi(2, D(BL2, "4L-3E1-3E2"), 0))


def lift(surface, counts, i, j):
    """``_lift_summands`` on a tally of (expression, count) pairs, read back
    as pairs in the sorted order of the classes."""
    tally = {D(surface, e).coords: n for e, n in counts}
    gd._lift_summands(tally, i, j)
    return [(str(lat.DivisorClass(surface, c)), n) for c, n in sorted(tally.items())]


def expand(counts):
    return [e for e, n in counts for _ in range(n)]


def reference_lift(summands, i, j):
    """The lift on a sorted tuple of summands, one entry per copy: the first
    eligible summand absorbs E_i - E_j."""
    for idx, s in enumerate(summands):
        if -s[i] > -s[j] >= -1:
            out = list(summands)
            out[idx] = tuple(x + (p == i) - (p == j) for p, x in enumerate(s))
            return tuple(sorted(out))
    raise lat.LatticeError("no eligible summand")


class TestUpshiftLift:
    def test_worked_lift(self):
        lifted = lift(DP7, [("L-E1", 2)], 1, 2)
        assert lifted == [("L-E1", 1), ("L-E2", 1)]
        assert gd.is_good_sum(anticanonical_sum(DP7, *expand(lifted))).ok

    def test_symmetric_summand_never_chosen(self):
        # the 2L summand is symmetric in (1, 2); only L-E1 is eligible
        lifted = lift(DP6, [("2L-E1-E2-E3", 1), ("L-E1", 1)], 1, 2)
        assert lifted == [("L-E2", 1), ("2L-E1-E2-E3", 1)]

    def test_anticanonical_degree_preserved(self):
        counts = [("L-E1", 1), ("2L-2E1", 1)]
        gs = anticanonical_sum(DP7, *expand(counts))
        lifted = anticanonical_sum(DP7, *expand(lift(DP7, counts, 1, 2)))
        assert sorted(lifted.degrees()) == sorted(gs.degrees())

    def test_no_eligible_summand_errors(self):
        with pytest.raises(lat.LatticeError):
            lift(DP7, [("L-E1-E2", 3)], 1, 2)

    def test_one_unit_of_the_first_eligible_class_moves(self):
        # both classes are eligible; one copy of the first, L-E1, moves
        lifted = lift(DP7, [("L-E1", 3), ("2L-2E1", 2)], 1, 2)
        assert lifted == [("L-E1", 2), ("L-E2", 1), ("2L-2E1", 2)]

    def test_counts_match_the_lift_of_the_expanded_sum(self):
        rng = random.Random(5)
        for _ in range(300):
            k = rng.choice((2, 3, 4, 5))
            classes = {(rng.randrange(0, 4),) + tuple(rng.randrange(-3, 2) for _ in range(k)) for _ in range(3)}
            counts = tuple(sorted((c, rng.randrange(1, 4)) for c in classes))
            i, j = rng.sample(range(1, k + 1), 2)
            summands = tuple(c for c, n in counts for _ in range(n))
            tally = dict(counts)
            try:
                want = reference_lift(summands, i, j)
            except lat.LatticeError:
                with pytest.raises(lat.LatticeError):
                    gd._lift_summands(tally, i, j)
                continue
            gd._lift_summands(tally, i, j)
            assert [c for c, n in sorted(tally.items()) for _ in range(n)] == list(want)
            assert 0 not in tally.values()


class TestTwoPointSummand:
    def test_worked_example(self):
        M = gd._two_point_summand_raw(3, 1, 2)  # 3L-E1
        assert M == D(DP7, "L+E1").coords

    def test_trivial_when_degree_small(self):
        assert gd._two_point_summand_raw(1, 1, 4) == lat.zero_divisor(DP7).coords  # L-E1

    def test_special_case_refused(self):
        with pytest.raises(gd.GoodSumError):
            gd._two_point_summand_raw(1, 1, 2)  # L-E1

    def test_postconditions_exhaustive(self):
        mK = -lat.canonical(DP7)
        for d in range(0, 9):
            for a in range(0, d + 1):
                for r in range(2, 6):
                    if r == 2 and (d, a) == (1, 1):
                        continue
                    Dv = lat.DivisorClass(DP7, (d, -a, 0))
                    M = lat.DivisorClass(DP7, gd._two_point_summand_raw(d, a, r))
                    m = (3 * d - a) // r
                    assert lat.intersect(M, mK) == m
                    assert lat.is_nef(Dv - M)
                    vec = coh.blowup_cohomology_oracle(M)
                    assert vec.higher_vanishes, (d, a, r, M)


def reference_upshift_moves(coords, k):
    """The full-candidate loop: build each candidate D - E_i + E_j and test
    it for nefness from scratch (the incremental test must match it)."""
    surface = lat.del_pezzo(9 - k)
    moves = []
    cur = coords
    while True:
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                if i == j or -cur[i] < -cur[j]:
                    continue
                cand = list(cur)
                cand[i] -= 1
                cand[j] += 1
                cand = tuple(cand)
                if lat.is_nef_coords(surface, cand):
                    moves.append((i, j))
                    cur = cand
                    break
            else:
                continue
            break
        else:
            return moves, cur


class TestUpshiftMoves:
    def test_incremental_matches_full_candidate_loop(self):
        checked = 0
        for degree in (4, 5, 6, 7):
            S = lat.del_pezzo(degree)
            for d in range(9):
                for ms in itertools.product(range(d + 1), repeat=S.k):
                    coords = (d,) + tuple(-m for m in ms)
                    if lat.is_nef_coords(S, coords):
                        got = gd._upshift_moves(coords, S.k)
                        assert got == reference_upshift_moves(coords, S.k), coords
                        checked += 1
        assert checked > 10_000

    def test_non_nef_class_is_not_moved(self):
        # fails only the conic condition, which no move can mend, while the
        # two-multiplicity test alone would accept the move (1, 2)
        coords = (7, -3, -3, -3, -3, -3)
        assert gd._upshift_moves(coords, 5) == ([], coords) == reference_upshift_moves(coords, 5)


class TestDecompose:
    def test_reference_decomposition_of_twice_the_line(self):
        gs = gd.delpezzo_decompose(D(DP7, "2L"), 3)
        assert set(map(str, gs.summands)) == {"L-E1", "L-E2", "E1+E2"}

    def test_zero_class(self):
        gs = gd.delpezzo_decompose(lat.zero_divisor(DP4), 4)
        assert gs.summands == (lat.zero_divisor(DP4),) * 4

    def test_worked_rank_two(self):
        gs = gd.delpezzo_decompose(D(DP7, "3L-E1"), 2)
        assert set(map(str, gs.summands)) == {"L+E1", "2L-2E1"}
        assert gs.degrees() == (4, 4)
        for s in gs.summands:
            assert coh.blowup_cohomology_oracle(s).higher_vanishes

    @pytest.mark.parametrize(
        "case",
        GOLDEN["decompositions"],
        ids=[f"{c['surface']}:{c['c1']}:r{c['rank']}" for c in GOLDEN["decompositions"]],
    )
    def test_pinned_decomposition(self, case):
        S = lat.parse_surface(case["surface"])
        gs = gd.delpezzo_decompose(D(S, case["c1"]), case["rank"])
        assert [str(s) for s in gs.summands] == case["summands"]

    @pytest.mark.parametrize(
        "case",
        GOLDEN["high_rank_decompositions"],
        ids=[f"{c['surface']}:{c['c1']}:r{c['rank']}" for c in GOLDEN["high_rank_decompositions"]],
    )
    def test_pinned_high_rank_decomposition(self, case):
        # above _MEMO_RANK the two-point steps run in a loop; the sums are
        # pinned as (summand, count) runs in the emitted order
        S = lat.parse_surface(case["surface"])
        gs = gd.delpezzo_decompose(D(S, case["c1"]), case["rank"])
        runs = [[str(s), len(list(g))] for s, g in itertools.groupby(gs.summands)]
        assert runs == case["summands"]

    def test_pinned_pipeline(self):
        """Byte equality with ``data/delpezzo_golden.json``, one case per line.

        The 300 cases were drawn with ``random.Random(2026)``: the degree
        uniform in 4..7, the L-coefficient d uniform in 0..10, each
        multiplicity uniform in 0..d // 2 + 1, the rank uniform in 1..5,
        keeping the nef and distinct (surface, c1, rank); the summands were
        recorded before the reduction step was cached for all ranks.
        """
        path = pathlib.Path(__file__).parent / "data" / "delpezzo_golden.json"
        text = path.read_text()
        rows = []
        for case in json.loads(text):
            S = lat.parse_surface(case["surface"])
            gs = gd.delpezzo_decompose(D(S, case["c1"]), case["rank"])
            rows.append(json.dumps({**case, "summands": [str(s) for s in gs.summands]}))
        assert "[\n" + ",\n".join(rows) + "\n]\n" == text

    @pytest.mark.parametrize("extra", [(0,), (1, -1)], ids=["one", "two"])
    def test_summand_of_wrong_length_is_refused(self, monkeypatch, extra):
        # summands are wrapped unchecked, so the c1 and rank check must see a
        # long one even when its head coordinates add up to c1
        monkeypatch.setattr(gd, "_decompose", lambda k, coords, r: ((coords + extra, 1), ((0,) * len(coords), r - 1)))
        with pytest.raises(RuntimeError, match="lost its first Chern class or rank"):
            gd.delpezzo_decompose(D(DP7, "2L"), 3)

    def test_non_nef_rejected(self):
        with pytest.raises(gd.GoodSumError):
            gd.delpezzo_decompose(D(DP7, "E1"), 2)
        # off the del Pezzo surfaces the decomposition is refused, never run
        for spec in ("blp2:k=1", "blp2:k=6", "blp2:k=3:collinear=1,2,3", "blF2:k=1"):
            S = lat.parse_surface(spec)
            with pytest.raises(gd.GoodSumError):
                gd.delpezzo_decompose(lat.DivisorClass(S, (1,) + (0,) * (S.rank - 1)), 2)

    @pytest.mark.parametrize("degree,expr", [(7, "2L"), (6, "3L-E1-E2"), (5, "2L-E1"), (4, "3L-E1-E2-E3-E4-E5")])
    def test_either_spelling(self, degree, expr):
        # blp2:k=<9-d> decomposes as dp<d> does, with every class on the
        # model as spelled
        blp2 = lat.blowup_p2(9 - degree)
        dp_sum = gd.delpezzo_decompose(D(lat.del_pezzo(degree), expr), 3)
        gs = gd.delpezzo_decompose(D(blp2, expr), 3)
        assert [c.coords for c in gs.summands] == [c.coords for c in dp_sum.summands]
        assert gs.surface is blp2 and gs.N == -lat.canonical(blp2)
        assert all(c.surface is blp2 for c in gs.summands)
        assert gd.is_good_sum(gs).ok
        with pytest.raises(gd.GoodSumError):
            gd.delpezzo_decompose(D(blp2, "E1"), 2)

    def test_small_sweep_all_degrees(self):
        for degree in (4, 5, 6, 7):
            S = lat.del_pezzo(degree)
            k = S.k
            for d in range(4):
                for ms in itertools.product(range(d + 1), repeat=k):
                    Dv = lat.DivisorClass(S, (d,) + tuple(-m for m in ms))
                    if not lat.is_nef(Dv):
                        continue
                    for r in (1, 2, 3):
                        gs = gd.delpezzo_decompose(Dv, r)
                        assert gs.c1() == Dv
                        check = gd.is_good_sum(gs)
                        assert check.ok, (Dv, r, check.failures)

    def test_anticanonical_degree_balance(self):
        rng = random.Random(43)
        for _ in range(25):
            degree = rng.choice((4, 5, 6, 7))
            S = lat.del_pezzo(degree)
            while True:
                coords = (rng.randrange(0, 7),) + tuple(
                    -rng.randrange(0, 4) for _ in range(S.k)
                )
                Dv = lat.DivisorClass(S, coords)
                if lat.is_nef(Dv):
                    break
            r = rng.randrange(1, 6)
            degrees = gd.delpezzo_decompose(Dv, r).degrees()
            assert max(degrees) - min(degrees) <= 1


    @pytest.mark.parametrize(
        "spec, expr, r",
        [("dp7", "6000L-2000E1-2000E2", 1200), ("dp7", "5001L-1667E1", 1000), ("dp4", "4000L-1000E1-900E2-800E3-700E4-600E5", 1000)],
    )
    def test_high_rank_needs_no_recursion_depth(self, spec, expr, r):
        # the two-point surface splits off one summand per rank step; a rank
        # of 1000 or more must not reach Python's recursion limit
        S = lat.parse_surface(spec)
        gs = gd.delpezzo_decompose(D(S, expr), r)
        assert gs.rank == r and gs.c1() == D(S, expr)
        assert gd.is_good_sum(gs).ok

class TestHirzebruchFiberSum:
    def test_quadric_special_case(self):
        v = ch.character_from_chi(2, D(lat.hirzebruch(0), "-2E-2F"), 0)
        gs = gd.hirzebruch_fiber_sum(v)
        assert [str(s) for s in gs.summands] == ["-E-F", "-E-F"]

    def test_pocket_character(self):
        v = ch.character_from_chi(3, D(lat.hirzebruch(1), "-2E-4F"), 0)
        gs = gd.hirzebruch_fiber_sum(v)
        assert gs.c1() == v.c1 and gs.chi() == 0
        for s in gs.summands:
            assert coh.hirzebruch_cohomology(s).as_tuple() == (0, 0, 0)
        gap, bound = gap_and_bound(gs, gd.fiber_class(gs.surface))
        assert gd.is_good_sum(gs).ok and gap <= 1 < 2 <= bound

    def test_out_of_range_k(self):
        v = ch.character_from_chi(2, D(lat.hirzebruch(1), "2E"), 0)
        with pytest.raises(gd.GoodSumError):
            gd.hirzebruch_fiber_sum(v)


def _witness(gs, v):
    """The witness decide builds: the sum plus chi(sum) point modifications."""
    return gd.WBNWitness(gs, v)


class TestWitness:
    def test_worked_witness(self):
        v = ch.character_from_chi(3, D(DP7, "2L"), 0)
        w = _witness(gd.delpezzo_decompose(v.c1, v.r), v)
        assert w.modifications == 5
        assert w.bookkeeping_ok()
        assert w.good_sum.character().ch2 - 5 == v.ch2

    def test_zero_modifications_iff_all_chi_zero(self):
        v = ch.character_from_chi(2, D(lat.hirzebruch(0), "-2E-2F"), 0)
        w = _witness(gd.hirzebruch_fiber_sum(v), v)
        assert w.modifications == 0
        assert all(lat.chi_line_bundle(s) == 0 for s in w.good_sum.summands)

    def test_rounding_route(self):
        v = ch.character_from_chi(2, D(BL2, "3L-E1"), 0)
        w = _witness(gd.rounding_sum(v), v)
        assert w.good_sum.N == D(BL2, "L")
        assert w.bookkeeping_ok()

    def test_chi_zero_required(self):
        # a sum built for another chi misses the target's ch2
        v = ch.character_from_chi(3, D(DP7, "2L"), 1)
        assert not _witness(gd.delpezzo_decompose(v.c1, v.r), v).bookkeeping_ok()
        with pytest.raises(ch.CharacterError):
            gd.hirzebruch_fiber_sum(ch.character_from_chi(2, D(lat.hirzebruch(0), "-2E-2F"), 1))


class TestWitnessBookkeepingAtLargeCoordinates:
    # the witness bookkeeping of the fiber sum and of the rounding sum at
    # large coordinates, with c1 and chi recomputed here from the summands'
    # coordinates

    @settings(max_examples=60, deadline=None)
    @given(e=st.integers(0, 10), r=st.integers(1, 1000), data=st.data())
    def test_fiber_sum(self, e, r, data):
        k = -data.draw(st.integers(1, r))
        ell = data.draw(st.integers(-10**6, 10**6))
        v = ch.character_from_chi(r, lat.DivisorClass(lat.hirzebruch(e), (k, ell)), 0)
        gs = gd.hirzebruch_fiber_sum(v)
        w = gd.WBNWitness(gs, v)
        assert w.bookkeeping_ok() and gs.rank == r
        coords = [s.coords for s in gs.summands]
        assert tuple(map(sum, zip(*coords))) == (k, ell)
        # chi(aE + bF) = (a + 1)(b + 1) - e a(a + 1)/2 on F_e, with E^2 = -e
        assert sum((a + 1) * (b + 1) - e * a * (a + 1) // 2 for a, b in coords) == 0 == w.modifications
        assert sum(2 * a * b - e * a * a for a, b in coords) == v.twice_ch2

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 8), r=st.integers(2, 1000), d=st.integers(0, 2000), data=st.data())
    def test_rounding_sum(self, k, r, d, data):
        # c1 = (dr + p)L - sum (a_i r + p_i)E_i with p > 0, so the rounding
        # splits; the ceiling multiplicities sum to at most d + 1, so the
        # ceiling bundle is rule-derivable and has no higher cohomology
        p = data.draw(st.integers(1, r - 1))
        ceil = data.draw(st.lists(st.integers(0, (d + 1) // k), min_size=k, max_size=k))
        rems = [data.draw(st.integers(0, r - 1)) if c else 0 for c in ceil]
        a = [c - (q > 0) for c, q in zip(ceil, rems)]
        S = lat.blowup_p2(k)
        c1 = (d * r + p,) + tuple(-(x * r + q) for x, q in zip(a, rems))
        v = ch.character_from_chi(r, lat.DivisorClass(S, c1), 0)
        gs = gd.rounding_sum(v)
        w = gd.WBNWitness(gs, v)
        assert w.bookkeeping_ok() and gs.rank == r
        coords = [s.coords for s in gs.summands]
        assert tuple(map(sum, zip(*coords))) == c1
        assert sorted(c[0] for c in coords) == [d] * (r - p) + [d + 1] * p
        for i, (x, q) in enumerate(zip(a, rems), start=1):
            assert sorted(-c[i] for c in coords) == [x] * (r - q) + [x + 1] * q
        # chi(dL + sum c_i E_i) = (d + 1)(d + 2)/2 - sum c_i(c_i - 1)/2
        chi = sum((c[0] + 1) * (c[0] + 2) // 2 - sum(x * (x - 1) // 2 for x in c[1:]) for c in coords)
        assert chi == w.modifications >= 0
