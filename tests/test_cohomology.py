import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
import textwrap
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbn import cohomology as coh
from rbn import lattice as lat
from rbn._modp import modp_stream_rank
from rbn.cohomology import Vanishing

from references import cremona_vector_reference, hirzebruch_pushforward_oracle
from test_lattice import reflect, weyl_generators


F1 = lat.hirzebruch(1)
F2 = lat.hirzebruch(2)
BL2 = lat.blowup_p2(2)
BL3 = lat.blowup_p2(3)
BL5 = lat.blowup_p2(5)
COL2 = "blp2:k=2:collinear=1,2"
COL3 = "blp2:k=3:collinear=1,2,3"
CREMONA = ("exact cohomology by Cremona reduction",)

# (surface, class, higher verdict, derivation trail).  The trail shows the
# search order (strips in generator order, the first derivable predecessor
# wins), so any change to it changes user-visible output.  The rule engine
# runs only where no exact algorithm exists; on k <= 8 general points, del
# Pezzo models included, the verdict is read off the Cremona vector.
GOLDEN_TRAILS = [
    (COL2, '2L-E1-E2', 'Zero', ('start (0,0,-1)', '+L-E1', '+L')),
    (COL3, '4L-2E1-E2-E3', 'Zero', ('start (0,0,0,-1)', '+L-E2', '+L-E1', '+L-E1', '+L')),
    ('blp2:k=4:collinear=1,2,3', '3L-E1-E2-E3-E4', 'Zero', ('start (0,0,0,0,-1)', '+L-E3', '+L-E2', '+L-E1')),
    (COL2, '2L-2E1-2E2', 'Unknown', ()),
    (COL3, '-L+E1+E2', 'Zero', ('stock class',)),
    ('dp4', '4L-2E1-2E2-E3-E4-E5', 'Zero', CREMONA),
    ('dp4', '-3L+2E1+E2+E3+E5', 'Zero', CREMONA),  # vector (0, 0, 0)
    ('dp5', '5L-2E1-2E2-2E3-2E4', 'Zero', CREMONA),
    ('dp6', '4L-2E1-2E2-2E3', 'Zero', CREMONA),
    ('dp7', '2L-2E1', 'Zero', CREMONA),
    ('dp7', '3L-E1-E2', 'Zero', CREMONA),
    ('dp4', '8L-3E1-3E2-3E3-E4', 'Zero', CREMONA),  # vector (26, 0, 0)
    ('dp4', '8L+E1+E2+2E4', 'Nonzero', CREMONA),  # h1 = 1, so no derivation exists
    ('blp2:k=5', '8L-3E1-3E2-3E3-E4', 'Zero', CREMONA),  # dp4 under another name
    ('blp2:k=2', '2L-2E1-2E2', 'Nonzero', CREMONA),  # vector (1, 1, 0)
    ('blF2:k=1', 'E+2F-E1', 'Zero', ('start (0,0,-1)', '+F', '+E', '+F')),
    ('blF2:k=2', 'E+6F-E1+E2', 'Zero', ('start (0,0,-1,0)', '+F', '+E', '+F', '+F', '+F', '+F', '+F', '+E2')),
    ('blF3:k=2', '3E+10F+E1+E2', 'Zero', ('start (0,0,-1,0)', '+F', '+F', '+E', '+F', '+F', '+F', '+E', '+F', '+F', '+F', '+E', '+F', '+F', '+E2', '+E1', '+E1')),
    ('blF3:k=2', 'E+4F-E1', 'Zero', ('start (0,0,-1,0)', '+F', '+F', '+E', '+F', '+F')),
    ('blF3:k=1', '2E+7F-2E1', 'Unknown', ()),
    (COL2, '0', 'Zero', ('start (0,0,0)',)),
    ('blF2:k=1', '0', 'Zero', ('start (0,0,0)',)),
]


def D(surface, expr):
    return lat.parse_divisor(expr, surface)


def monomials(d):
    """Every monomial x^a y^b z^(d-a-b) as (a, b), ordered by a, then b."""
    return [(a, b) for a in range(d + 1) for b in range(d + 1 - a)]


def fat_point_reference(d, mults, points, p):
    """The oracle matrix from its entry formula, in Python integers."""
    monos = monomials(d)
    return [
        [
            math.comb(a, u) * math.comb(b, v) * pow(x0, a - u, p) * pow(y0, b - v, p) % p
            if a >= u and b >= v
            else 0
            for a, b in monos
        ]
        for (x0, y0), m in zip(points, mults)
        for u in range(m)
        for v in range(m - u)
    ]


def reference_sample_points(surface, p, seed, trial):
    """The unframed sampler on general and collinear models: every point in
    the affine chart, collinear ones on a random line."""
    config = surface.config
    rng = random.Random(f"{seed}:{trial}:{surface.k}:{p}")
    pts = [None] * surface.k
    used = set()
    if config.kind == "collinear":
        slope, offset = rng.randrange(1, p), rng.randrange(p)
        xs = set()
        for i in config.collinear:
            x = rng.randrange(p)
            while x in xs:
                x = rng.randrange(p)
            xs.add(x)
            pts[i - 1] = (x, (slope * x + offset) % p)
            used.add(pts[i - 1])
    for i in range(surface.k):
        while pts[i] is None:
            pt = (rng.randrange(p), rng.randrange(p))
            if pt not in used:
                pts[i] = pt
                used.add(pt)
    return pts


def reference_interpolation_h0(Dv, seed, trials, p):
    """The unframed oracle: one row block per point, every monomial a column."""
    d = Dv.coords[0]
    if d < 0:
        return 0
    mults = [max(0, -c) for c in Dv.coords[1:]]
    ncols = (d + 1) * (d + 2) // 2
    if not any(mults):
        return ncols
    return min(
        framed_matrix_nullity(d, mults, reference_sample_points(Dv.surface, p, seed, t), p, monomials(d))
        for t in range(trials)
    )


def fat_point_rows(mults, points, p, cols):
    """The fat-point matrix as a list of rows: the columns of
    ``_fat_point_columns``, transposed."""
    return [list(row) for row in zip(*coh._fat_point_columns(mults, points, p, cols))]


def framed_matrix_nullity(d, rest, points, p, cols):
    """Nullity of the framed matrix built directly, on the kept monomials
    ``cols``, from its rows; with no rows it is the number of columns."""
    return len(cols) - modp_stream_rank(fat_point_rows(rest, points, p, cols), len(cols), p)


def reference_plausible_blp2(coords, _):
    """The search's prune on blowups of the plane: a necessary condition."""
    ell, tail = coords[0], coords[1:]
    if ell < -2 or max(tail) > 1 or sum(-c for c in tail if c < 0) > 1 + (ell + 2):
        return False
    return (ell + 1) * (ell + 2) // 2 >= sum(c * (c - 1) // 2 for c in tail)


def reference_plausible_blf(coords, e):
    return max(coords[2:]) <= 1


def reference_derive(coords, stock, strips, plausible, param, memo):
    """The depth-first rule search the closed forms replaced: a state takes
    its first derivable predecessor in strip order, found with an explicit
    stack and a memo of resolved states (state -> (move, predecessor), or
    None when not derivable)."""
    start, open_ = ("start", ()), object()

    def known(c):
        step = memo.get(c, open_)
        if step is open_:
            if not any(c) or stock(c):
                return start
            if not plausible(c, param):
                return None
        return step

    step = known(coords)
    if step is open_:
        stack = [[coords, strips(coords, param), None]]
        while stack:
            frame = stack[-1]
            step = None
            for pred, move in frame[1]:
                pred_step = known(pred)
                if pred_step is open_:
                    frame[2] = move
                    stack.append([pred, strips(pred, param), None])
                    step = open_
                    break
                if pred_step is not None:
                    step = (move, pred)
                    break
            if step is open_:
                continue
            state = frame[0]
            while True:
                memo[state] = step
                stack.pop()
                if step is None or not stack:
                    break
                parent = stack[-1]
                step, state = (parent[2], state), parent[0]
    if step is None:
        return None
    moves = []
    while step is not start:
        move, coords = step
        moves.append(move)
        step = known(coords)
    return (f"start {coh._coords_repr(coords)}",) + tuple(reversed(moves))


BLP2_RULES = (coh._is_stock_blp2, coh._strips_blp2)
BLF_RULES = (coh._is_stock_blf, coh._strips_blf)


def engines_agree(coords, rules, derivable, plausible, param, memo):
    """Closed-form derivability and the greedy trail against the search."""
    expected = reference_derive(coords, *rules, plausible, param, memo)
    assert derivable(coords, param) == (expected is not None), coords
    assert coh._derive(coords, *rules, derivable, param) == expected, coords


class TestHirzebruchExact:
    def test_negative_section_row(self):
        for e in range(4):
            S = lat.hirzebruch(e)
            for b in range(-6, 7):
                assert coh.hirzebruch_cohomology(lat.DivisorClass(S, (-1, b))).as_tuple() == (0, 0, 0)

    def test_fiber_multiples_row(self):
        for e in range(4):
            S = lat.hirzebruch(e)
            for b in range(-5, 6):
                vec = coh.hirzebruch_cohomology(lat.DivisorClass(S, (0, b)))
                assert vec.as_tuple() == (max(0, b + 1), max(0, -b - 1), 0)

    def test_worked_values(self):
        assert coh.hirzebruch_cohomology(D(F1, "E+F")).as_tuple() == (3, 0, 0)
        assert coh.hirzebruch_cohomology(D(F2, "2E+F")).as_tuple() == (2, 2, 0)
        assert coh.hirzebruch_cohomology(D(F2, "-E+7F")).as_tuple() == (0, 0, 0)

    def test_deep_class(self):
        Dv = D(F1, "3000E+5F")
        assert coh.hirzebruch_cohomology(Dv).as_tuple() == (21, 4483515, 0)
        assert hirzebruch_pushforward_oracle(Dv).as_tuple() == (21, 4483515, 0)

    def test_canonical_dual_to_structure_sheaf(self):
        for e in range(4):
            S = lat.hirzebruch(e)
            assert hirzebruch_pushforward_oracle(lat.canonical(S)).as_tuple() == (0, 0, 1)

    def test_agrees_with_pushforward_and_serre(self):
        for e in range(3):
            S = lat.hirzebruch(e)
            K = lat.canonical(S)
            for a in range(-6, 7):
                for b in range(-6, 7):
                    Dv = lat.DivisorClass(S, (a, b))
                    vec = coh.hirzebruch_cohomology(Dv)
                    assert vec == hirzebruch_pushforward_oracle(Dv)
                    dual = coh.hirzebruch_cohomology(K - Dv)
                    assert vec.as_tuple() == (dual.h2, dual.h1, dual.h0)
                    assert vec.chi == lat.chi_line_bundle(Dv)


class TestVanishingRules:
    # each test keeps its general-point class (answered from the Cremona
    # vector) and adds a collinear one, which only the rule engine answers
    def test_stock_class(self):
        verdict = coh.vanishing_by_rules(D(BL3, "-L+E1+E2"))
        assert verdict.vector.as_tuple() == (0, 0, 0)
        assert verdict.higher_cohomology is Vanishing.ZERO
        verdict = coh.vanishing_by_rules(D(lat.parse_surface(COL3), "-L+E1+E2"))
        assert verdict == coh.CohomologyAnswer(coh.CohomologyVector(0, 0, 0), "rules", ("stock class",))

    def test_derived_class(self):
        verdict = coh.vanishing_by_rules(D(BL2, "2L-E1-E2"))
        assert verdict.higher_cohomology is Vanishing.ZERO
        assert verdict.derivation  # a concrete trail is recorded
        assert coh.blowup_cohomology_oracle(D(BL2, "2L-E1-E2")).as_tuple() == (4, 0, 0)
        collinear = D(lat.parse_surface(COL3), "2L-E1-E2")
        verdict = coh.vanishing_by_rules(collinear)
        assert verdict.higher_cohomology is Vanishing.ZERO
        assert verdict.derivation[0].startswith("start ") and verdict.derivation != CREMONA
        assert coh.blowup_cohomology_oracle(collinear).as_tuple() == (4, 0, 0)

    def test_blowup_hirzebruch_stock(self):
        S = lat.blowup_hirzebruch(2, 1)
        verdict = coh.vanishing_by_rules(D(S, "-E+5F+E1"))
        assert verdict.vector.as_tuple() == (0, 0, 0)

    def test_blowup_hirzebruch_derivations(self):
        S = lat.blowup_hirzebruch(2, 2)
        for expr in ("F", "E+2F", "E+F", "2F-E1", "E+2F-E1", "E1-E2", "E2"):
            verdict = coh.vanishing_by_rules(D(S, expr))
            assert verdict.higher_cohomology is Vanishing.ZERO, expr

    def test_weyl_invariant_verdicts_on_del_pezzo(self):
        # reflections preserve line-bundle cohomology, and a del Pezzo class
        # without a derivation is answered from its exact vector, so Zero
        # verdicts are orbit-constant
        S = lat.del_pezzo(6)
        rng = random.Random(17)
        roots = [D(S, "E1-E2"), D(S, "E2-E3"), D(S, "L-E1-E2-E3")]
        for _ in range(60):
            Dv = lat.DivisorClass(S, tuple(rng.randrange(-3, 5) for _ in range(4)))
            base = coh.vanishing_by_rules(Dv).higher_cohomology
            for root in roots:
                image = reflect(Dv, root)
                got = coh.vanishing_by_rules(image).higher_cohomology
                assert (got is Vanishing.ZERO) == (base is Vanishing.ZERO), (Dv, root)

    def test_cremona_image_of_derivable_class(self):
        S = lat.del_pezzo(6)
        verdict = coh.vanishing_by_rules(D(S, "3L-2E1-E2-E3"))  # image of 2L-E1
        assert verdict.higher_cohomology is Vanishing.ZERO

    def test_unknown_is_honest(self):
        # a class with h1 != 0 must never be claimed Zero
        for S in (BL2, lat.parse_surface(COL3)):
            verdict = coh.vanishing_by_rules(D(S, "2L-2E1-2E2"))
            assert verdict.higher_cohomology is not Vanishing.ZERO
            assert coh.blowup_cohomology_oracle(D(S, "2L-2E1-2E2")).h1 == 1
        assert coh.vanishing_by_rules(D(lat.parse_surface(COL3), "2L-2E1-2E2")).derivation == ()

    def test_nonzero_certificates(self):
        for S in (BL2, lat.parse_surface(COL3)):
            assert (
                coh.vanishing_by_rules(D(S, "2L-3E1-E2")).higher_cohomology
                is Vanishing.NONZERO
            )  # chi = -1 forces h1
            assert (
                coh.vanishing_by_rules(D(S, "-4L")).higher_cohomology is Vanishing.NONZERO
            )  # K - D = L + E1 + E2 (+ E3) is effective, so h2 > 0
        collinear = lat.parse_surface(COL3)
        assert coh.vanishing_by_rules(D(collinear, "2L-3E1-E2")).derivation == ("chi < 0 forces h1 > 0",)
        assert coh.vanishing_by_rules(D(collinear, "-4L")).derivation == ("K - D effective forces h2 > 0",)

    def test_hirzebruch_refused(self):
        with pytest.raises(lat.LatticeError):
            coh.vanishing_by_rules(D(F2, "E"))

    def test_soundness_against_oracle_small_box(self):
        # exact on general points; the collinear surface keeps the rules
        # cross-checked against the oracle
        for S in (BL2, lat.parse_surface(COL3)):
            for coords in itertools.product(range(-2, 5), *[range(-3, 2)] * S.k):
                Dv = lat.DivisorClass(S, coords)
                verdict = coh.vanishing_by_rules(Dv)
                if verdict.higher_cohomology is Vanishing.ZERO:
                    assert coh.blowup_cohomology_oracle(Dv).higher_vanishes, Dv
                if verdict.vector is not None:
                    assert coh.blowup_cohomology_oracle(Dv) == verdict.vector, Dv


class TestDerivationTrails:
    @pytest.mark.parametrize(
        "spec, expr, higher, trail", GOLDEN_TRAILS, ids=[f"{g[0]}:{g[1]}" for g in GOLDEN_TRAILS]
    )
    def test_pinned_trail(self, spec, expr, higher, trail):
        verdict = coh.vanishing_by_rules(D(lat.parse_surface(spec), expr))
        assert (str(verdict.higher_cohomology), verdict.derivation) == (higher, trail)

    def test_deep_blowup_plane_class(self):
        verdict = coh.vanishing_by_rules(D(lat.parse_surface(COL3), "1200L-E1-E2-E3"))
        assert verdict.higher_cohomology is Vanishing.ZERO
        assert verdict.derivation[-1] == "+L" and len(verdict.derivation) == 1201

    def test_deep_blowup_hirzebruch_class(self):
        verdict = coh.vanishing_by_rules(D(lat.blowup_hirzebruch(2, 1), "5E+3000F-E1"))
        assert verdict.higher_cohomology is Vanishing.ZERO

    @pytest.mark.parametrize("spec, expr", [("blp2:k=5:collinear=1,2,3", "8L+E1+E2+2E4"), ("blF2:k=2", "3E+9F+2E1")])
    def test_exceptional_coefficient_two_is_not_searched(self, spec, expr):
        # no move raises an exceptional coefficient above 1, so the closed
        # form refuses the class before any strip is generated
        def no_strips(*args):
            raise AssertionError("a class with coefficient 2 reached the strips")

        with mock.patch.multiple(coh, _strips_blp2=no_strips, _strips_blf=no_strips):
            verdict = coh.vanishing_by_rules(D(lat.parse_surface(spec), expr))
        assert verdict.higher_cohomology is Vanishing.UNKNOWN and verdict.derivation == ()

    def test_one_memo_family_on_blowups_of_the_plane(self):
        # general points, del Pezzo models, collinear points and k = 9 in one
        # sweep: only the last two reach the rule engine, with one family of
        # rules (the engine keeps no memo)
        reached, derive = [], coh._derive

        def recording(coords, stock, strips, derivable, param):
            reached.append((len(coords), stock, strips, derivable, param))
            return derive(coords, stock, strips, derivable, param)

        with mock.patch.object(coh, "_derive", recording):
            for S in [BL3, lat.del_pezzo(5), lat.parse_surface(COL3), lat.parse_surface("blp2:k=9")]:
                for coords in itertools.product(range(-1, 4), *[range(-2, 2)] * 3):
                    coh.vanishing_by_rules(lat.DivisorClass(S, coords + (0,) * (S.k - 3)))
        assert {r[0] for r in reached} == {4, 10}  # collinear k = 3 and k = 9 only
        assert {r[1:] for r in reached} == {BLP2_RULES + (coh._derivable_blp2, None)}

    @pytest.mark.parametrize(
        "k, ells, coeffs",
        [(3, range(-3, 8), range(-4, 3)), (4, range(-3, 6), range(-3, 3)), (1, range(-4, 12), range(-7, 3)),
         (5, range(-3, 5), range(-2, 3))],
    )
    def test_chi_prune_keeps_every_derivable_state(self, k, ells, coeffs):
        # the search with its chi prune is the reference: on every state of
        # the box the closed form agrees with it on derivability, and the
        # greedy walk returns the same trail
        memo = {}
        for coords in itertools.product(ells, *[coeffs] * k):
            engines_agree(coords, BLP2_RULES, coh._derivable_blp2, reference_plausible_blp2, None, memo)

    @pytest.mark.parametrize("e, k", [(0, 1), (1, 2), (2, 2), (3, 3)])
    def test_blowup_hirzebruch_engine_matches_the_reference(self, e, k):
        memo = {}
        for coords in itertools.product(range(-3, 5), range(-4, 11), *[range(-2, 3)] * k):
            engines_agree(coords, BLF_RULES, coh._derivable_blf, reference_plausible_blf, e, memo)

    def test_random_trails_match_the_reference(self):
        rng = random.Random(20)
        memos = {}
        for _ in range(2000):
            if rng.random() < 0.5:
                coords = (rng.randint(-3, 25),) + tuple(rng.choice((-2, -1, -1, 0, 0, 1, 1, 2)) for _ in range(rng.randint(1, 7)))
                rules, derivable, plausible, param = BLP2_RULES, coh._derivable_blp2, reference_plausible_blp2, None
            else:
                param = rng.randint(0, 4)
                coords = (rng.randint(-2, 10), rng.randint(-3, 40)) + tuple(rng.choice((-2, -1, 0, 0, 1, 1)) for _ in range(rng.randint(1, 4)))
                rules, derivable, plausible = BLF_RULES, coh._derivable_blf, reference_plausible_blf
            engines_agree(coords, rules, derivable, plausible, param, memos.setdefault((rules, param), {}))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_trail_replays_forward(self, data):
        # start at the trail's start class, check every move's guard
        # C.D >= -C^2 - 1 and land on the target, at coordinates up to 500
        S = lat.parse_surface(data.draw(st.sampled_from([COL3, "blp2:k=4:collinear=1,2,3", "blp2:k=9", "blF2:k=2", "blF3:k=3"])))
        head = [st.integers(-3, 500)] if S.is_blowup_p2_like else [st.integers(-2, 60), st.integers(-3, 500)]
        coords = tuple(data.draw(h) for h in head) + tuple(
            data.draw(st.lists(st.sampled_from([-2, -1, -1, 0, 0, 1, 1]), min_size=S.k, max_size=S.k))
        )
        verdict = coh.vanishing_by_rules(lat.DivisorClass(S, coords))
        stock = coh._is_stock_blp2 if S.is_blowup_p2_like else coh._is_stock_blf
        if verdict.higher_cohomology is not Vanishing.ZERO or verdict.derivation == ("stock class",):
            assert (verdict.derivation == ("stock class",)) == stock(coords)
            return
        first, *moves = verdict.derivation
        state = tuple(int(c) for c in first.removeprefix("start (").removesuffix(")").split(","))
        assert not any(state) or stock(state)
        for move in moves:
            C = lat.parse_divisor(move[1:], S).coords
            assert lat.form(S, C, state) >= -lat.form(S, C, C) - 1, (verdict.derivation, move, state)
            state = tuple(x + y for x, y in zip(state, C))
        assert state == coords

    def test_wrong_closed_form_raises_under_optimization(self):
        # a closed form that admits a class with no derivation must crash the
        # walk, never return a trail, and python -O must not change that
        script = textwrap.dedent(
            """
            from rbn import cli, cohomology, lattice
            cohomology._derivable_blp2 = lambda coords, _: True
            S = lattice.parse_surface("blp2:k=3:collinear=1,2,3")
            try:
                trail = cohomology.vanishing_by_rules(lattice.parse_divisor("2L-2E1-2E2", S)).derivation
            except RuntimeError as exc:
                print("raised:", exc)
            else:
                print("returned", trail)
            print("exit", cli.main(["cohom", "--surface", S.spec(), "--divisor", "2L-2E1-2E2"]))
            """
        )
        src = str(pathlib.Path(coh.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
        )
        assert out.stdout == (
            "raised: derivable state (-2,-2,-2,-1) has no derivable predecessor\nexit 3\n"
        ), out.stderr


# blowups of the plane at k <= 8 general points, the del Pezzo models included
GENERAL_MODELS = [lat.blowup_p2(k) for k in range(1, 9)] + [lat.del_pezzo(deg) for deg in range(4, 8)]


def general_classes(d, tail):
    """Classes on GENERAL_MODELS with L-coefficient and E-coefficients drawn from ``d`` and ``tail``."""
    return st.sampled_from(GENERAL_MODELS).flatmap(
        lambda S: st.builds(
            lambda head, rest: lat.DivisorClass(S, (head,) + tuple(rest)),
            d,
            st.lists(tail, min_size=S.k, max_size=S.k),
        )
    )


class TestCremonaExact:
    def test_worked_values(self):
        def vector(coords):
            return coh._cremona_answer(coords).vector.as_tuple()

        assert vector((8, 1, 1, 0, 2, 0)) == (45, 1, 0)  # 8L+E1+E2+2E4 on dp4
        assert vector((4, -2, -2, -2, -2, -2)) == (1, 1, 0)  # doubled conic
        assert vector((2, -2, -2)) == (1, 1, 0)  # doubled line
        assert vector((1, -1, -1, -1, -1)) == (0, 1, 0)  # no line through 4 points
        assert vector((-3, 1, 1, 1, 1, 1, 1, 1, 1)) == (0, 0, 1)  # K on 8 points

    @settings(max_examples=200, deadline=None)
    @given(Dv=general_classes(st.integers(-3, 14), st.integers(-6, 1)))
    def test_matches_the_oracle(self, Dv):
        answer = coh.certified_cohomology(Dv)
        assert (answer.vector, answer.route) == (coh.blowup_cohomology_oracle(Dv), "exact")

    @settings(max_examples=200, deadline=None)
    @given(Dv=general_classes(st.integers(-1000, 1000), st.integers(-1000, 1000)))
    def test_serre_duality(self, Dv):
        vec = coh.certified_cohomology(Dv).vector
        dual = coh.certified_cohomology(lat.canonical(Dv.surface) - Dv).vector
        assert dual.as_tuple() == (vec.h2, vec.h1, vec.h0)
        assert vec.chi == lat.chi_line_bundle(Dv) and min(vec.as_tuple()) >= 0

    @settings(max_examples=200, deadline=None)
    @given(Dv=general_classes(st.integers(-1000, 1000), st.integers(-1000, 1000)))
    def test_weyl_invariance(self, Dv):
        S = Dv.surface
        answer = coh._cremona_answer(Dv.coords)
        for root in weyl_generators(S):
            assert coh._cremona_answer(lat.reflect(S, Dv.coords, root)) == answer, root

    def test_one_cache_entry_per_orbit(self):
        # renumbering the points asks the cache with one key, so a class and
        # its permutations cost one miss and get one answer, through either
        # caller of the cache
        S = lat.blowup_p2(7)
        coords = (11, -4, 1, 0, -2, -4, -1, -3)
        perms = [coords[:1] + tuple(p) for p in itertools.islice(itertools.permutations(coords[1:]), 0, 5040, 97)]
        coh._cremona_answer.cache_clear()
        answers = {coh.vanishing_by_rules(lat.DivisorClass(S, c)) for c in perms}
        bounds = {coh._h0_lower_bound(lat.DivisorClass(S, c)) for c in perms}
        info = coh._cremona_answer.cache_info()
        assert len(perms) == 52 and len(set(perms)) == 52
        assert (info.misses, info.hits, info.currsize) == (1, 2 * 52 - 1, 1)
        assert len(answers) == 1 and bounds == {answers.pop().vector.h0}

    @pytest.mark.parametrize("k", range(2, 9))
    def test_orbit_answer_matches_the_reference(self, k):
        # the answer keyed by the sorted coordinates against a reduction of
        # the class as drawn, unsorted
        S, rng = lat.blowup_p2(k), random.Random(34 + k)
        for _ in range(60):
            Dv = lat.DivisorClass(S, (rng.randint(-6, 16),) + tuple(rng.randint(-7, 2) for _ in range(k)))
            assert coh.vanishing_by_rules(Dv).vector == cremona_vector_reference(Dv), Dv.coords

    @settings(max_examples=200, deadline=None)
    @given(Dv=general_classes(st.integers(-6, 14), st.integers(-6, 2)))
    def test_rule_verdicts_read_the_vector(self, Dv):
        # vanishing_by_rules answers from the exact vector, never the search
        def unreachable(*args, **kwargs):
            raise AssertionError("general points reached the rule search or the oracle")

        vec = coh.certified_cohomology(Dv).vector
        expected = coh.CohomologyAnswer(vec, "exact", CREMONA)
        with mock.patch.multiple(coh, _derive=unreachable, interpolation_h0=unreachable):
            assert coh.vanishing_by_rules(Dv) == expected

    @settings(max_examples=100, deadline=None)
    @given(Dv=general_classes(st.integers(-3, 14), st.integers(-6, 1)))
    def test_no_rule_search_or_oracle(self, Dv):
        # certified_cohomology asks vanishing_by_rules, whose Cremona branch
        # answers before any stock test, closed-form test or search
        def unreachable(*args, **kwargs):
            raise AssertionError("general points reached the rule engine or the oracle")

        with mock.patch.multiple(
            coh,
            _is_stock_blp2=unreachable,
            _derivable_blp2=unreachable,
            _derive=unreachable,
            interpolation_h0=unreachable,
        ):
            answer = coh.certified_cohomology(Dv)
            assert answer.route == "exact"
            assert coh.higher_cohomology_vanishes(Dv) == answer == coh.line_bundle_cohomology(Dv)


class TestInterpolationOracle:
    def test_conics_through_two_points(self):
        assert coh.interpolation_h0(D(BL2, "2L-E1-E2")) == 4

    def test_collinear_line_survives(self):
        S = lat.blowup_p2(4, lat.collinear_config([1, 2, 3, 4]))
        assert coh.interpolation_h0(D(S, "L-E1-E2-E3-E4"), seed=7, trials=3) == 1
        G = lat.blowup_p2(4)
        assert coh.interpolation_h0(D(G, "L-E1-E2-E3-E4")) == 0

    def test_doubled_conic(self):
        assert coh.interpolation_h0(D(BL5, "4L-2E1-2E2-2E3-2E4-2E5")) == 1

    def test_negative_degree_and_fixed_components(self):
        assert coh.interpolation_h0(D(BL2, "-L")) == 0
        # exceptional classes with negative multiplicity are fixed components
        assert coh.interpolation_h0(D(BL2, "E1+E2")) == 1
        assert coh.interpolation_h0(D(BL2, "2L+3E1")) == 6

    def test_monotone_in_point_conditions(self):
        rng = random.Random(9)
        for _ in range(25):
            d = rng.randrange(0, 7)
            mults = [rng.randrange(0, 4) for _ in range(3)]
            base = lat.DivisorClass(BL3, (d,) + tuple(-m for m in mults))
            j = rng.randrange(3)
            heavier = lat.DivisorClass(
                BL3, (d,) + tuple(-(m + (1 if i == j else 0)) for i, m in enumerate(mults))
            )
            h_base = coh.interpolation_h0(base)
            assert h_base >= coh.interpolation_h0(heavier)
            assert h_base >= lat.chi_line_bundle(base)

    def test_seed_stability_on_general_points(self):
        Dv = D(BL5, "5L-2E1-2E2-E3-E4-E5")
        values = {coh.interpolation_h0(Dv, seed=s, trials=3) for s in (1, 2, 3)}
        assert len(values) == 1

    def test_matrix_entries_match_python_integers(self):
        # at d = 90, m = 20 the exact binomials and products run far past
        # 2^64, and every entry is still the residue of the formula
        p, d, m, point = coh.DEFAULT_ORACLE_PRIME, 90, 20, (123457, 654321)
        assert fat_point_rows([m], [point], p, monomials(d)) == fat_point_reference(d, [m], [point], p)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(0, 30),
        points=st.lists(
            st.tuples(st.integers(0, coh.DEFAULT_ORACLE_PRIME - 1), st.integers(0, coh.DEFAULT_ORACLE_PRIME - 1)),
            min_size=1,
            max_size=4,
        ),
        data=st.data(),
    )
    def test_matrix_matches_entry_formula(self, d, points, data):
        # multiplicities up to d + 3 cover derivative orders above d (zero rows)
        p = coh.DEFAULT_ORACLE_PRIME
        mults = data.draw(st.lists(st.integers(0, d + 3), min_size=len(points), max_size=len(points)))
        mat = fat_point_rows(mults, points, p, monomials(d))
        assert len(mat) == sum(m * (m + 1) // 2 for m in mults)
        assert all(len(row) == (d + 1) * (d + 2) // 2 for row in mat)
        assert mat == fat_point_reference(d, mults, points, p)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(0, 14),
        frame_mults=st.lists(st.integers(0, 16), max_size=3),
        points=st.lists(
            st.tuples(st.integers(0, coh.DEFAULT_ORACLE_PRIME - 1), st.integers(0, coh.DEFAULT_ORACLE_PRIME - 1)),
            min_size=1,
            max_size=4,
        ),
        data=st.data(),
    )
    def test_framed_matrix_matches_entry_formula(self, d, frame_mults, points, data):
        # the oracle streams the columns of the kept monomials in degree
        # order; materialized, they are the reference matrix's columns
        p = coh.DEFAULT_ORACLE_PRIME
        mults = data.draw(st.lists(st.integers(0, d + 3), min_size=len(points), max_size=len(points)))
        cols = list(coh._frame_columns(d, frame_mults))
        mat = fat_point_rows(mults, points, p, cols)
        reference = fat_point_reference(d, mults, points, p)
        index = {mono: j for j, mono in enumerate(monomials(d))}
        assert mat == [[row[index[mono]] for mono in cols] for row in reference if cols]

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(1, 6),
        collinear=st.booleans(),
        seed=st.integers(0, 50),
        trials=st.integers(1, 4),
        d=st.integers(0, 6),
        tail=st.lists(st.integers(-3, 1), min_size=6, max_size=6),
        special=st.sets(st.integers(0, 3)),
    )
    @example(k=6, collinear=False, seed=0, trials=2, d=2, tail=[-1] * 6, special={0})
    @example(k=6, collinear=False, seed=0, trials=3, d=2, tail=[-1] * 6, special={0, 1})
    @example(k=4, collinear=True, seed=0, trials=1, d=1, tail=[-1] * 6, special={0})
    def test_stopping_at_the_floor_keeps_the_minimum(self, k, collinear, seed, trials, d, tail, special):
        # the oracle's answer is the minimum framed nullity over every trial;
        # the trials in `special` put the points outside the frame on the
        # line y = x, which also passes through the frame's (0, 0), so that
        # trials can disagree (on six points a conic through the frame's
        # three and three on that line is forced to contain it).  The loop
        # stops at the nullity floor or at the proven lower bound on h0,
        # which no configuration goes below; a stop above both would show
        # as an answer above the minimum.  On the collinear models every point
        # is listed, so every sampled point lies on the frame's line y = 0:
        # those classes are counted, the sampler is never consulted, and the
        # count is the nullity at the real sample of every trial
        line_only = collinear and k >= 2
        S = lat.blowup_p2(k, lat.collinear_config(range(1, k + 1))) if line_only else lat.blowup_p2(k)
        coords = (d,) + tuple(tail[:k])
        p, sample, consulted = coh.DEFAULT_ORACLE_PRIME, coh._sample_points, []

        def points(surface, frame, prime, seed, trial):
            consulted.append(trial)
            pts = sample(surface, frame, prime, seed, trial)
            return [(i + 1, i + 1) for i in range(len(pts))] if trial in special else pts

        mults = [max(0, -c) for c in coords[1:]]
        frame = coh._frame(S, mults)
        cols = list(coh._frame_columns(d, [mults[i] for i in frame]))
        rest = [m for i, m in enumerate(mults) if i not in frame]

        def nullities(sampler):
            return [framed_matrix_nullity(d, rest, sampler(S, frame, p, seed, t), p, cols) for t in range(trials)]

        expected = nullities(sample) if line_only else nullities(points)
        consulted.clear()
        with mock.patch.object(coh, "_sample_points", points):
            h0 = coh.interpolation_h0(lat.DivisorClass(S, coords), seed=seed, trials=trials)
        if line_only:
            assert consulted == [] and set(expected) == {h0}
        else:
            assert h0 == min(expected)

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(2, 10),
        data=st.data(),
        seed=st.integers(0, 50),
        trials=st.integers(1, 4),
        d=st.integers(0, 14),
        prime=st.sampled_from([1009, 100003, 1000003, 2147483647]),
    )
    def test_points_on_the_line_are_counted(self, k, data, seed, trials, d, prime):
        # every sampled point of positive multiplicity on the line: at most
        # one unlisted point is heavy, and the frame puts it at [0:1:0]; the
        # count is the framed nullity at the real sample of every trial
        listed = data.draw(st.sets(st.integers(1, k), min_size=2))
        unlisted = [i for i in range(k) if i + 1 not in listed]
        heavy = data.draw(st.sampled_from(unlisted)) if unlisted else None
        tail = [
            data.draw(st.integers(-5, 1) if i + 1 in listed or i == heavy else st.integers(0, 1))
            for i in range(k)
        ]
        S = lat.blowup_p2(k, lat.collinear_config(listed))
        mults = [max(0, -c) for c in tail]
        frame = coh._frame(S, mults)
        cols = list(coh._frame_columns(d, [mults[i] for i in frame]))
        rest = [m for i, m in enumerate(mults) if i not in frame]
        nullities = {
            framed_matrix_nullity(d, rest, coh._sample_points(S, frame, prime, seed, t), prime, cols)
            for t in range(trials)
        }
        assert nullities == {coh.interpolation_h0(lat.DivisorClass(S, (d, *tail)), seed=seed, trials=trials, prime=prime)}

    @settings(max_examples=100, deadline=None)
    @given(
        spec=st.sampled_from(
            ["blp2:k=3:collinear=1,2,3", "blp2:k=5:collinear=1,2,3,4", "blp2:k=7:collinear=2,4,6,7,1,3",
             "blp2:k=9:collinear=1,2,3,4,5,6,7,8,9"]
        ),
        d=st.integers(-3, 12),
        tail=st.lists(st.integers(-5, 1), min_size=9, max_size=9),
    )
    def test_points_on_the_line_need_no_matrix(self, spec, d, tail):
        # at most one unlisted point, which the frame places at [0:1:0], so
        # every sampled point lies on the line and h0 is counted
        def unreachable(*args, **kwargs):
            raise AssertionError("a class with every sampled point on the line built a matrix")

        S = lat.parse_surface(spec)
        Dv = lat.DivisorClass(S, (d,) + tuple(tail[: S.k]))
        with mock.patch.multiple(
            coh,
            modp_stream_rank=unreachable,
            _fat_point_columns=unreachable,
            _sample_points=unreachable,
        ):
            h0 = coh.interpolation_h0(Dv, seed=0, trials=3, prime=coh.DEFAULT_ORACLE_PRIME)
        assert h0 == reference_interpolation_h0(Dv, 0, 3, coh.DEFAULT_ORACLE_PRIME)

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 8),
        data=st.data(),
        seed=st.integers(0, 50),
        d=st.integers(0, 12),
        prime=st.sampled_from([1009, 100003, 1000003, 2147483647]),
    )
    def test_lower_bound_is_below_every_sample(self, k, data, seed, d, prime):
        # the second stopping value bounds h0 from below at every
        # configuration of the surface's type, so no trial goes below it;
        # an empty `listed` stands for general points
        listed = data.draw(st.just(set()) | st.sets(st.integers(1, k), min_size=2)) if k >= 2 else set()
        S = lat.blowup_p2(k, lat.collinear_config(listed)) if listed else lat.blowup_p2(k)
        tail = data.draw(st.lists(st.integers(-5, 1), min_size=k, max_size=k))
        mults = [max(0, -c) for c in tail]
        frame = coh._frame(S, mults)
        cols = list(coh._frame_columns(d, [mults[i] for i in frame]))
        rest = [m for i, m in enumerate(mults) if i not in frame]
        bound = coh._h0_lower_bound(lat.DivisorClass(S, (d, *tail)))
        for trial in range(3):
            points = coh._sample_points(S, frame, prime, seed, trial)
            assert bound <= framed_matrix_nullity(d, rest, points, prime, cols)

    def test_collinear_bound_meets_the_oracle(self):
        # on k <= 8 collinear points the bound is Harbourne's h0, so it equals
        # the oracle's minimum, also on the classes with h1 > 0 (h2 = 0 at
        # d >= 0); the unframed reference runs every trial, with no stop
        rng, special = random.Random(14), 0
        for _ in range(300):
            k = rng.randint(3, 8)
            S = lat.blowup_p2(k, lat.collinear_config(rng.sample(range(1, k + 1), rng.randint(3, k))))
            d = rng.randint(0, 14)
            top = max(1, round(1.3 * d / math.sqrt(k)))
            Dv = lat.DivisorClass(S, (d,) + tuple(rng.randint(-top, 1) for _ in range(k)))
            h0 = coh.interpolation_h0(Dv)
            assert coh._h0_lower_bound(Dv) == h0 == reference_interpolation_h0(Dv, 0, 3, coh.DEFAULT_ORACLE_PRIME)
            special += h0 > lat.chi_line_bundle(Dv)
        assert special >= 90

    @pytest.mark.parametrize(
        "spec, expr, h0",
        [("blp2:k=6", "6L-3E1-3E2-3E4-3E5-2E6", 2), ("blp2:k=5:collinear=1,2,3", "7L-3E1-3E2-3E3-4E4-3E5", 3)],
    )
    def test_special_class_stops_at_the_bound(self, monkeypatch, spec, expr, h0):
        # h1 > 0, so the first trial misses the nullity floor (columns less
        # rows of the framed matrix); it meets the proven lower bound
        # instead, and the other two trials are never sampled
        calls, sample = [], coh._sample_points
        monkeypatch.setattr(coh, "_sample_points", lambda *args: calls.append(args[-1]) or sample(*args))
        Dv = D(lat.parse_surface(spec), expr)
        assert coh.interpolation_h0(Dv, seed=0, trials=3, prime=coh.DEFAULT_ORACLE_PRIME) == h0
        mults = [max(0, -c) for c in Dv.coords[1:]]
        frame = coh._frame(Dv.surface, mults)
        cols = list(coh._frame_columns(Dv.coords[0], [mults[i] for i in frame]))
        rows = sum(m * (m + 1) // 2 for i, m in enumerate(mults) if i not in frame)
        assert calls == [0] and len(cols) - rows < h0
        assert h0 > lat.chi_line_bundle(Dv) and h0 == reference_interpolation_h0(Dv, 0, 3, coh.DEFAULT_ORACLE_PRIME)

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 10),
        data=st.data(),
        seed=st.integers(0, 50),
        trials=st.integers(1, 3),
        d=st.integers(0, 14),
        prime=st.sampled_from([1009, 100003, 1000003, 2147483647]),
    )
    def test_reduced_sample_keeps_the_framed_nullity(self, k, data, seed, trials, d, prime):
        # each quadratic transformation is an isomorphism of the surface
        # blown up at the sample, and each clamp or line removal drops a
        # fixed component, so the reduced value is the framed nullity at the
        # real sample of every trial; an empty `listed` stands for general
        # points
        listed = data.draw(st.just(set()) | st.sets(st.integers(1, k), min_size=2)) if k >= 2 else set()
        S = lat.blowup_p2(k, lat.collinear_config(listed)) if listed else lat.blowup_p2(k)
        tail = data.draw(st.lists(st.integers(-6, 1), min_size=k, max_size=k))
        mults = [max(0, -c) for c in tail]
        frame = coh._frame(S, mults)
        frame_mults = [mults[i] for i in frame]
        cols = list(coh._frame_columns(d, frame_mults))
        rest = [m for i, m in enumerate(mults) if i not in frame]
        nullities = []
        for trial in range(trials):
            points = coh._sample_points(S, frame, prime, seed, trial)
            nullities.append(framed_matrix_nullity(d, rest, points, prime, cols))
            reduced = coh._reduce_sample(d, mults, frame, points, prime, {i - 1 for i in listed})
            assert coh._framed_nullity(*(reduced or (d, frame_mults, rest, points)), prime) == nullities[-1]
        h0 = coh.interpolation_h0(lat.DivisorClass(S, (d, *tail)), seed=seed, trials=trials, prime=prime)
        assert h0 == min(nullities)

    @pytest.mark.parametrize(
        "spec, expr",
        [("blp2:k=6", "6L-3E1-3E2-3E4-3E5-2E6"), ("blp2:k=5:collinear=1,2,3", "7L-3E1-3E2-3E3-4E4-3E5"),
         ("blp2:k=6", "12L-3E1-5E2-5E3-E4-3E5-3E6"), ("blp2:k=6:collinear=1,2,3", "14L-5E1-3E2-4E3-7E4-7E5-6E6"),
         ("blp2:k=10", "12L-5E1-4E2-4E3-4E4-3E5-3E6-3E7-3E8-2E9-2E10"),
         ("blp2:k=8:collinear=1,2,3,4,5", "9L-3E1-3E2-3E3-2E4-2E5-3E6-3E7-3E8")],
    )
    def test_reduction_steps_keep_the_framed_nullity(self, spec, expr):
        # classes whose samples take a step: the reduced value is the framed
        # nullity at each sample, with a smaller matrix or none
        Dv = D(lat.parse_surface(spec), expr)
        d, mults = Dv.coords[0], [max(0, -c) for c in Dv.coords[1:]]
        listed = {i - 1 for i in Dv.surface.config.collinear}
        frame = coh._frame(Dv.surface, mults)
        cols = list(coh._frame_columns(d, [mults[i] for i in frame]))
        rest = [m for i, m in enumerate(mults) if i not in frame]
        for prime in (1009, coh.DEFAULT_ORACLE_PRIME):
            for trial in range(3):
                points = coh._sample_points(Dv.surface, frame, prime, 0, trial)
                reduced = coh._reduce_sample(d, mults, frame, points, prime, listed)
                assert reduced is not None and sum(m * (m + 1) // 2 for m in reduced[2]) < sum(
                    m * (m + 1) // 2 for m in rest
                )
                expected = framed_matrix_nullity(d, rest, points, prime, cols)
                assert coh._framed_nullity(*reduced, prime) == expected

    # three collinear points survive a quadratic step in these samples (seed
    # 0, trials 0-2); a frame that also kept other points off the lines bc
    # and ca found no triple, and the unreduced matrix was eliminated
    @pytest.mark.parametrize(
        "spec, expr",
        [("blp2:k=5:collinear=1,2,3", "6L-3E1-E2-2E3-3E4-2E5"), ("blp2:k=6:collinear=1,2,3", "8L-2E1-4E2-3E3-E4-4E6"),
         ("blp2:k=6:collinear=1,2,3,4", "7L-2E1-3E2-2E3-2E4-E5-4E6"), ("blp2:k=6:collinear=1,2,3,4", "11L-6E2-E3-E4-5E5-2E6"),
         ("blp2:k=5:collinear=1,2,3", "9L-5E1-E2-3E3-5E4-2E5"), ("blp2:k=6:collinear=1,2,3,4", "8L-4E1-E2-3E3-4E4-E5-4E6"),
         ("blp2:k=5:collinear=1,2,3", "9L-E1-3E2-5E3-3E4-5E5"), ("blp2:k=6:collinear=1,2,3,4", "13L-3E1-7E2-4E3-3E4-7E5-5E6"),
         ("blp2:k=5:collinear=1,2,3", "14L-6E1-E2-3E3-3E4-8E5"), ("blp2:k=5:collinear=1,2,3", "10L-3E1-4E2-6E3-4E4-E5"),
         ("blp2:k=5:collinear=1,2,3", "11L-4E1-6E2-E3-6E4-E5"), ("blp2:k=6:collinear=1,2,3,4", "9L-4E1-5E2-3E3-4E4-E5-4E6")],
    )
    def test_reduced_sample_is_framed_whenever_a_frame_exists(self, spec, expr):
        # a frame needs three non-collinear points and the line ab, sent to
        # z = 0, free of other points; the reduced value is the framed
        # nullity of the unreduced class at the same sample
        Dv = D(lat.parse_surface(spec), expr)
        d, mults = Dv.coords[0], [max(0, -c) for c in Dv.coords[1:]]
        listed = {i - 1 for i in Dv.surface.config.collinear}
        frame = coh._frame(Dv.surface, mults)
        cols = list(coh._frame_columns(d, [mults[i] for i in frame]))
        rest = [m for i, m in enumerate(mults) if i not in frame]
        for prime in (1009, coh.DEFAULT_ORACLE_PRIME):
            for trial in range(3):
                points = coh._sample_points(Dv.surface, frame, prime, 0, trial)
                reduced = coh._reduce_sample(d, mults, frame, points, prime, listed)
                assert reduced is not None and len(reduced[2]) < len(rest)
                expected = framed_matrix_nullity(d, rest, points, prime, cols)
                assert coh._framed_nullity(*reduced, prime) == expected

    @pytest.mark.parametrize(
        "spec, expr, moved",
        [
            # the fourth point on x = 0, the line through the centres at
            # [0:0:1] and [0:1:0]: every triple is collinear or has a point
            # on one of its lines
            ("blp2:k=4", "2L-E1-E2-E3-E4", {3: (0, 5)}),
            # the heavy off-line points at [0:1:0] and on x = 0 are collinear
            # with the listed point at [0:0:1], and x = 0 blocks every other
            # triple whose multiplicities sum above d
            ("blp2:k=5:collinear=1,2,3", "4L-E1-E2-E3-2E4-2E5", {4: (0, 7)}),
        ],
    )
    def test_degenerate_sample_falls_back(self, spec, expr, moved):
        # a sample with no triple to transform at builds the unreduced framed matrix
        S = lat.parse_surface(spec)
        Dv = D(S, expr)
        d, mults = Dv.coords[0], [max(0, -c) for c in Dv.coords[1:]]
        frame = coh._frame(S, mults)
        cols = list(coh._frame_columns(d, [mults[i] for i in frame]))
        rest = [m for i, m in enumerate(mults) if i not in frame]
        sample = coh._sample_points
        others = [i for i in range(S.k) if i not in frame]

        def points(surface, frame, prime, seed, trial):
            return [moved.get(i, pt) for i, pt in zip(others, sample(surface, frame, prime, seed, trial))]

        pts = points(S, frame, coh.DEFAULT_ORACLE_PRIME, 0, 0)
        assert coh._reduce_sample(d, mults, frame, pts, coh.DEFAULT_ORACLE_PRIME, {i - 1 for i in S.config.collinear}) is None
        expected = framed_matrix_nullity(d, rest, pts, coh.DEFAULT_ORACLE_PRIME, cols)
        with mock.patch.object(coh, "_sample_points", points):
            assert coh.interpolation_h0(Dv, seed=0, trials=1, prime=coh.DEFAULT_ORACLE_PRIME) == expected

    def test_sample_below_the_bound_raises_under_optimization(self):
        # a trial below the proven bound disproves it: the oracle raises, not
        # returns, python -O must not change that, and the CLI exits 3
        script = textwrap.dedent(
            """
            from rbn import cli, cohomology, lattice
            bound = cohomology._h0_lower_bound
            cohomology._h0_lower_bound = lambda D: bound(D) + 1
            for spec, expr in (("blp2:k=6", "6L-3E1-3E2-3E4-3E5-2E6"),
                               ("blp2:k=5:collinear=1,2,3", "7L-3E1-3E2-3E3-4E4-3E5")):
                S = lattice.parse_surface(spec)
                try:
                    h0 = cohomology.interpolation_h0(lattice.parse_divisor(expr, S))
                except RuntimeError as exc:
                    print("raised:", exc)
                else:
                    print("returned", h0)
            print("exit", cli.main(["cohom", "--surface", spec, "--divisor", expr]))
            """
        )
        src = str(pathlib.Path(coh.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
        )
        assert out.stdout == (
            "raised: sample nullity 2 of 6L-3E1-3E2-3E4-3E5-2E6 on blp2:k=6 is below the proven bound 3\n"
            "raised: sample nullity 3 of 7L-3E1-3E2-3E3-4E4-3E5 on blp2:k=5:collinear=1,2,3 is below the proven bound 4\n"
            "exit 3\n"
        ), out.stderr

    def test_frame_kills_monomials(self):
        # a point of multiplicity m at (0, 0) has Taylor rows that are nonzero
        # exactly on the monomials x^a y^b with a + b < m; the swaps x <-> z
        # and y <-> z carry [1:0:0] and [0:1:0] to [0:0:1], so there the
        # killed monomials are those whose swapped exponents (d - a - b, b)
        # and (a, d - a - b) are killed at (0, 0); the kept ones come by
        # total degree a + b, then by a
        p = coh.DEFAULT_ORACLE_PRIME
        for d in range(7):
            monos = monomials(d)
            swaps = (lambda a, b: (a, b), lambda a, b: (d - a - b, b), lambda a, b: (a, d - a - b))
            killed = {}
            for m in range(d + 3):
                rows = fat_point_rows([m], [(0, 0)], p, monos)
                killed[m] = {mono for j, mono in enumerate(monos) if any(row[j] for row in rows)}
                assert killed[m] == {(a, b) for a, b in monos if a + b < m}
            for frame_mults in itertools.product(range(d + 3), repeat=3):
                assert list(coh._frame_columns(d, frame_mults)) == sorted(
                    (mono for mono in monos if not any(swap(*mono) in killed[m] for swap, m in zip(swaps, frame_mults))),
                    key=lambda mono: (sum(mono), mono[0]),
                )

    def test_frame_count_is_the_number_of_kept_monomials(self):
        for d in range(-2, 25):
            for n in range(4):
                for frame_mults in itertools.product(range(12 if n == 3 else 4), repeat=n):
                    assert coh._frame_count(d, frame_mults) == len(list(coh._frame_columns(d, frame_mults)))

    # fixed classes on general and collinear models with k <= 6 and d <= 10
    REFERENCE_MODELS = ["blp2:k=4", "blp2:k=5", "blp2:k=6", "blp2:k=3:collinear=1,2,3",
                        "blp2:k=4:collinear=1,2,3", "blp2:k=5:collinear=1,2,3,4", "blp2:k=6:collinear=2,4,6",
                        "blp2:k=6:collinear=1,2,3,4,5,6"]

    @pytest.mark.parametrize("spec", REFERENCE_MODELS)
    def test_framed_oracle_matches_the_unframed_reference(self, spec):
        S = lat.parse_surface(spec)
        rng = random.Random(spec)
        for _ in range(40):
            Dv = lat.DivisorClass(S, (rng.randrange(-1, 11),) + tuple(rng.randrange(-4, 2) for _ in range(S.k)))
            for seed in (0, 5):
                expected = reference_interpolation_h0(Dv, seed, 3, coh.DEFAULT_ORACLE_PRIME)
                assert coh.interpolation_h0(Dv, seed=seed) == expected, (spec, Dv.coords, seed)

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 7),
        data=st.data(),
        seed=st.integers(0, 50),
        trial=st.integers(0, 3),
    )
    def test_sampler_invariants(self, k, data, seed, trial):
        # an empty `listed` stands for general points; small fields hit the
        # excluded points often and still leave room for every point
        listed = data.draw(st.just(set()) | st.sets(st.integers(1, k), min_size=2) if k >= 2 else st.just(set()))
        p = data.draw(st.sampled_from([7, 11, coh.DEFAULT_ORACLE_PRIME] if listed else [3, 5, coh.DEFAULT_ORACLE_PRIME]))
        mults = data.draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
        S = lat.blowup_p2(k, lat.collinear_config(listed)) if listed else lat.blowup_p2(k)
        frame = coh._frame(S, mults)
        heaviest = sorted(range(k), key=lambda i: (-mults[i], i))
        if listed:
            assert list(frame[:2]) == [i for i in heaviest if i + 1 in listed][:2]
            assert list(frame[2:]) == [i for i in heaviest if i + 1 not in listed][:1]
        else:
            assert list(frame) == heaviest[:3]
        pts = coh._sample_points(S, frame, p, seed, trial)
        assert pts == coh._sample_points(S, frame, p, seed, trial)  # deterministic
        rest = [i for i in range(k) if i not in frame]
        assert len(pts) == len(rest) and len(set(pts)) == len(pts) and (0, 0) not in pts
        for i, (x, y) in zip(rest, pts):
            assert 0 <= x < p and 0 <= y < p
            if listed:
                # listed points on the frame's line y = 0 (not at its (0, 0)), unlisted ones off it
                assert (y == 0 and x != 0) if i + 1 in listed else y != 0

    @settings(max_examples=200, deadline=None)
    @given(
        spec=st.sampled_from(["blp2:k=1", "blp2:k=2", "blp2:k=3", "blp2:k=2:collinear=1,2"]),
        d=st.integers(-3, 25),
        tail=st.lists(st.integers(-12, 2), min_size=3, max_size=3),
    )
    def test_three_points_need_no_matrix(self, spec, d, tail):
        # with every point at a coordinate point the count of kept monomials is h0
        def unreachable(*args, **kwargs):
            raise AssertionError("the frame left a point to sample")

        S = lat.parse_surface(spec)
        Dv = lat.DivisorClass(S, (d,) + tuple(tail[: S.k]))
        with mock.patch.multiple(
            coh, modp_stream_rank=unreachable, _fat_point_columns=unreachable, _sample_points=unreachable
        ):
            h0 = coh.interpolation_h0(Dv, seed=0, trials=3, prime=coh.DEFAULT_ORACLE_PRIME)
        assert h0 == coh._cremona_h0(Dv.coords)

    @pytest.mark.parametrize(
        "surface, expr",
        [
            (BL5, "4L-2E1-2E2-2E3-2E4-2E5"),  # general points
            (lat.parse_surface("blp2:k=5:collinear=1,2,3,4"), "4L-2E1-2E2-E3-E4-E5"),  # every heavy point on the line
            (lat.parse_surface("blp2:k=6:collinear=1,2,3"), "14L-5E1-3E2-4E3-7E4-7E5-6E6"),  # two off it
            (lat.parse_surface("blp2:k=9"), "6L-2E1-2E2-2E3-2E4-2E5-2E6-2E7-2E8-2E9"),
        ],
        ids=["general", "on-the-line", "off-the-line", "k=9"],
    )
    def test_repeated_calls_agree(self, surface, expr):
        # nothing is cached: a repeated call draws the same seeded samples
        Dv = D(surface, expr)
        assert coh.interpolation_h0(Dv, seed=3) == coh.interpolation_h0(Dv, seed=3)
        assert coh.blowup_cohomology_oracle(Dv, seed=3) == coh.blowup_cohomology_oracle(Dv, seed=3)

    def test_modulus_validation(self):
        with pytest.raises(coh.OracleError):
            coh.interpolation_h0(D(BL2, "L"), prime=1000000)  # composite
        with pytest.raises(coh.OracleError):
            coh.interpolation_h0(D(BL2, "L"), prime=997)  # too small
        assert coh.interpolation_h0(D(BL2, "2L-E1-E2"), prime=100003) == 4
        assert coh.interpolation_h0(D(BL2, "2L-E1-E2"), prime=2147483647) == 4  # 2^31 - 1
        with pytest.raises(coh.OracleError, match=r"not below 2\^31"):
            coh.interpolation_h0(D(BL2, "L"), prime=2147483649)  # composite, above the cap


class TestOracleVector:
    def test_structure_sheaf(self):
        assert coh.blowup_cohomology_oracle(lat.zero_divisor(BL2)).as_tuple() == (1, 0, 0)

    def test_very_negative_line_class(self):
        # h2 = h0(K + 3L) = h0(E1 + E2) = 1 and chi = 1, so h1 = 0
        assert coh.blowup_cohomology_oracle(D(BL2, "-3L")).as_tuple() == (0, 0, 1)

    def test_doubled_conic_vector(self):
        vec = coh.blowup_cohomology_oracle(D(BL5, "4L-2E1-2E2-2E3-2E4-2E5"))
        assert vec.as_tuple() == (1, 1, 0)

    @pytest.mark.parametrize("d", [-6, -4, -3, -2, -1, 0, 2, 5])
    def test_dual_interpolated_only_at_nonnegative_dual_degree(self, d):
        # K - D has degree -3 - d, so at d >= -2 it has no sections and is not asked
        calls, interpolate = [], coh.interpolation_h0

        def counting(Dv, **kwargs):
            calls.append(Dv.coords)
            return interpolate(Dv, **kwargs)

        Dv = lat.DivisorClass(BL3, (d, -1, 0, 1))
        with mock.patch.object(coh, "interpolation_h0", counting):
            vec = coh.blowup_cohomology_oracle(Dv)
        assert len(calls) == (1 if d >= -2 else 2)
        assert vec == coh.certified_cohomology(Dv).vector

    @pytest.mark.parametrize("d", [-3, -2, 0])
    def test_oracle_refusals_kept(self, d):
        # the first interpolation still checks the surface, the trials and
        # the prime where the dual one is skipped
        Dv = lat.DivisorClass(BL2, (d, 0, -1))
        with pytest.raises(coh.OracleError, match="blowups of the plane"):
            coh.blowup_cohomology_oracle(lat.DivisorClass(F2, (d, 1)))
        with pytest.raises(coh.OracleError, match="at least one trial"):
            coh.blowup_cohomology_oracle(Dv, trials=0)
        with pytest.raises(coh.OracleError, match="not prime"):
            coh.blowup_cohomology_oracle(Dv, prime=1000000)
        with pytest.raises(coh.OracleError, match="too small"):
            coh.blowup_cohomology_oracle(Dv, prime=997)

    def test_chi_consistency_random(self):
        rng = random.Random(21)
        for _ in range(40):
            coords = (rng.randrange(-4, 8),) + tuple(rng.randrange(-4, 4) for _ in range(3))
            Dv = lat.DivisorClass(BL3, coords)
            vec = coh.blowup_cohomology_oracle(Dv)
            assert vec.chi == lat.chi_line_bundle(Dv)
            assert min(vec.as_tuple()) >= 0


# (surface, class, higher cohomology is Zero, route) of the answer of
# higher_cohomology_vanishes, then (vector, route) of the answer of
# line_bundle_cohomology, at least one class per route;
# general points at k <= 8 and del Pezzo models are exact, so the rules and
# the oracle are pinned on collinear points and at k = 9.  A class the
# rules show nonzero skips the oracle in the first and not in the second.
GOLDEN_ROUTES = [
    ("F1", "E+2F", True, "exact", (5, 0, 0), "exact"),
    ("F2", "2E+F", False, "exact", (2, 2, 0), "exact"),
    ("blp2:k=3", "L", True, "exact", (3, 0, 0), "exact"),
    ("dp5", "-L+E1+E2", True, "exact", (0, 0, 0), "exact"),
    ("blp2:k=1", "3E1", False, "exact", (1, 3, 0), "exact"),
    ("blp2:k=5", "3L-2E1-E2-E3-E4-E5", True, "exact", (3, 0, 0), "exact"),
    ("blp2:k=2", "4L-3E1-3E2", False, "exact", (4, 1, 0), "exact"),
    ("dp6", "2L-2E1-2E2", False, "exact", (1, 1, 0), "exact"),
    ("blp2:k=4:collinear=1,2,3,4", "L", True, "rules", (3, 0, 0), "rules"),
    ("blF2:k=1", "F-E1", True, "rules", (1, 0, 0), "rules"),
    ("blp2:k=9", "3E1", False, "rules", (1, 3, 0), "oracle"),
    ("blF2:k=1", "-2E-5F", False, "rules", None, "rules"),
    ("blp2:k=9", "3L-2E1-E2-E3-E4-E5", True, "oracle", (3, 0, 0), "oracle"),
    ("blp2:k=4:collinear=1,2,3,4", "2L-E1-E2-E3-E4", False, "oracle", (3, 1, 0), "oracle"),
    ("blF2:k=1", "E", False, "undecided", None, "undecided"),
]


class TestHigherCohomologyVanishes:
    @pytest.mark.parametrize(
        "spec, expr, vanishes, how, vector, route", GOLDEN_ROUTES, ids=[f"{g[0]}:{g[1]}" for g in GOLDEN_ROUTES]
    )
    def test_pinned_route(self, spec, expr, vanishes, how, vector, route):
        Dv = D(lat.parse_surface(spec), expr)
        answer = coh.higher_cohomology_vanishes(Dv)
        assert (answer.higher_cohomology is Vanishing.ZERO, answer.route) == (vanishes, how)
        answer = coh.line_bundle_cohomology(Dv)
        assert (answer.vector and answer.vector.as_tuple(), answer.route) == (vector, route)

    @pytest.mark.parametrize("spec, expr", [g[:2] for g in GOLDEN_ROUTES], ids=[f"{g[0]}:{g[1]}" for g in GOLDEN_ROUTES])
    def test_rule_engine_runs_at_most_once(self, spec, expr):
        calls, derive = [], coh._derive

        def counting(*args):
            calls.append(args[0])
            return derive(*args)

        Dv = D(lat.parse_surface(spec), expr)
        with mock.patch.object(coh, "_derive", counting):
            for entry in (coh.certified_cohomology, coh.line_bundle_cohomology, coh.higher_cohomology_vanishes):
                calls.clear()
                entry(Dv)
                assert len(calls) <= 1, entry.__name__


# Hirzebruch surfaces, general and collinear blowups of the plane (k = 9
# included) and blowups of F_e
ANSWER_MODELS = ["F0", "F1", "F3", "blp2:k=3", "dp5", "blp2:k=6", "blp2:k=9", "blp2:k=4:collinear=1,2,3",
                 "blp2:k=6:collinear=2,4,6", "blF2:k=1", "blF3:k=2"]


class TestCohomologyAnswer:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_answers_are_consistent(self, data):
        # the vector and the verdict agree, Unknown is exactly "undecided",
        # and the oracle never contradicts a verdict given without it: a
        # certified Zero or Nonzero stays, and on blowups of the plane the
        # oracle's vector is the certified one
        S = lat.parse_surface(data.draw(st.sampled_from(ANSWER_MODELS)))
        head = [st.integers(-4, 9)] if S.is_blowup_p2_like else [st.integers(-4, 5), st.integers(-6, 10)]
        coords = tuple(data.draw(h) for h in head) + tuple(data.draw(st.integers(-4, 1)) for _ in range(S.k))
        Dv = lat.DivisorClass(S, coords)
        certified = coh.certified_cohomology(Dv)
        answers = (certified, coh.line_bundle_cohomology(Dv), coh.higher_cohomology_vanishes(Dv))
        for answer in answers:
            assert answer.route in ("exact", "rules", "oracle", "undecided")
            assert (answer.route == "undecided") == (answer.higher_cohomology is Vanishing.UNKNOWN)
            if answer.vector is not None:
                assert (answer.higher_cohomology is Vanishing.ZERO) == answer.vector.higher_vanishes
                assert answer.vector.chi == lat.chi_line_bundle(Dv)
        if certified.higher_cohomology is not Vanishing.UNKNOWN:
            assert {answer.higher_cohomology for answer in answers} == {certified.higher_cohomology}
        if certified.vector is not None:
            assert set(answers) == {certified}
            if S.is_blowup_p2_like:
                assert coh.blowup_cohomology_oracle(Dv) == certified.vector

    def test_higher_cohomology_is_read_off_vector_and_route(self):
        clean, dirty = coh.CohomologyVector(3, 0, 0), coh.CohomologyVector(3, 1, 0)
        assert coh.CohomologyAnswer(clean, "oracle").higher_cohomology is Vanishing.ZERO
        assert coh.CohomologyAnswer(dirty, "exact").higher_cohomology is Vanishing.NONZERO
        assert coh.CohomologyAnswer(None, "rules").higher_cohomology is Vanishing.NONZERO
        assert coh.CohomologyAnswer(None, "undecided").higher_cohomology is Vanishing.UNKNOWN
        # a verdict in the route's place is refused, not read as a route
        with pytest.raises(ValueError, match="unknown cohomology route"):
            coh.CohomologyAnswer(None, Vanishing.UNKNOWN, "undecided")
        with pytest.raises(ValueError, match="unknown cohomology route"):
            coh.CohomologyAnswer(clean, Vanishing.ZERO, "exact")
