"""Good direct sums of line bundles and the constructive del Pezzo pipeline.

Fix a nef divisor N with -N.(F+K) >= 2.  A direct sum of line bundles is
N-good when no summand has higher cohomology and the N-degrees of the
summands pairwise differ by at most one; such a sum is F-prioritary, and
elementary modifications at chi(sum) general points produce a prioritary
sheaf with no cohomology at all.  On a del Pezzo surface of degree 4..7
(N = -K) every nef integral class is the first Chern class of a good sum
of any prescribed rank; the construction below mirrors the inductive proof:
unbalance the point multiplicities while staying nef, normalize an
orthogonal (-1)-curve to the last exceptional class by a Weyl word, drop to
one fewer point, and at two points split off one summand of the correct
anticanonical degree per rank step.  Every reduction is recorded so the
witness sum can be lifted back verbatim; it does not depend on the rank,
so each class is reduced once for all ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .chern import CharacterError, ChernCharacter, chi_integer
from .cohomology import CohomologyVector, Vanishing, certified_cohomology, higher_cohomology_vanishes
from .lattice import (
    DivisorClass,
    LatticeError,
    SurfaceModel,
    anticanonical,
    basis_divisor,
    canonical,
    chi_line_bundle,
    curve_word,
    del_pezzo,
    divisor_expr,
    form,
    is_nef,
    is_nef_coords,
    neg_one_classes,
    reflect,
    wrap_coords,
)


class GoodSumError(ValueError):
    """Raised when good-sum preconditions fail; the message names the culprit."""


def fiber_class(surface: SurfaceModel) -> DivisorClass:
    """The ruling that makes the surface birationally ruled: F, or L - E1."""
    if surface.is_blowup_p2_like:
        return DivisorClass(surface, (1, -1) + (0,) * (surface.k - 1))
    return basis_divisor(surface, "F")


# one entry per reference divisor: -K on each del Pezzo model, L on a
# blowup of the plane, F on F_e.  Every del Pezzo sum carries its model's
# one -K (``anticanonical``), so the lookup finds it by identity and never
# compares coordinates.  A bad N raises, and ``lru_cache`` keeps no
# exception, so it raises on every call
@lru_cache(maxsize=64)
def _certify_reference(N: DivisorClass) -> None:
    """Raise unless N is certified nef and -N.(F+K) >= 2."""
    s = N.surface
    if s.is_hirzebruch or s.is_del_pezzo:
        if not is_nef(N):
            raise GoodSumError(f"reference divisor {N} is not nef")
    elif not (s.is_blowup_p2_like and N == basis_divisor(s, "L")):
        # on other blowups only the hyperplane pullback is certified nef
        raise GoodSumError(f"cannot certify {N} nef on {s}")
    if -(form(s, N.coords, fiber_class(s).coords) + form(s, N.coords, canonical(s).coords)) < 2:
        raise GoodSumError(f"reference divisor fails -N.(F+K) >= 2 on {s}")


@dataclass(frozen=True)
class GoodSum:
    """A direct sum of line bundles measured against a nef reference N."""

    N: DivisorClass
    summands: tuple[DivisorClass, ...]

    # the sums below read coordinates alone, so every summand must live on N's surface
    def __post_init__(self):
        s = self.surface
        for D in self.summands:
            if D.surface is not s:
                raise LatticeError(f"divisors live on different surfaces: {D.surface} vs {s}")

    @property
    def surface(self) -> SurfaceModel:
        return self.N.surface

    @property
    def rank(self) -> int:
        return len(self.summands)

    def c1(self) -> DivisorClass:
        # a sum of classes on the surface, so wrapped unchecked as lattice sums are
        rows = [(0,) * self.surface.rank] + [D.coords for D in self.summands]
        return wrap_coords(self.surface, tuple(map(sum, zip(*rows))))

    def character(self) -> ChernCharacter:
        twice_ch2 = sum(form(self.surface, D.coords, D.coords) for D in self.summands)
        return ChernCharacter(self.rank, self.c1(), twice_ch2=twice_ch2)

    def chi(self) -> int:
        return sum(chi_line_bundle(D) for D in self.summands)

    def degrees(self) -> tuple:
        return tuple(form(self.surface, self.N.coords, D.coords) for D in self.summands)

    def to_json_dict(self) -> dict:
        return {
            "surface": self.surface.spec(),
            "N": divisor_expr(self.N),
            "summands": [divisor_expr(D) for D in self.summands],
        }


@dataclass(frozen=True)
class GoodSumCheck:
    ok: bool
    failures: tuple[str, ...] = ()
    provenance: tuple[str, ...] = ()


def is_good_sum(gs: GoodSum, *, seed: int = 0, trials: int = 3) -> GoodSumCheck:
    """Verify both goodness conditions, naming any offender.

    Condition (1), no higher cohomology, is decided exactly on Hirzebruch
    surfaces and on blowups of the plane at k <= 8 general points (``dp<d>``
    spellings included), and elsewhere by the vanishing rules with an
    oracle fallback on blowups of the plane; a summand that is clean for
    the oracle but not derivable by rules (collinear points, or k >= 9)
    is accepted with a provenance note.  Condition (2) bounds the pairwise
    N-degree gaps by 1.
    """
    _certify_reference(gs.N)
    failures: list[str] = []
    provenance: list[str] = []
    for _, D in sorted({D.coords: D for D in gs.summands}.items()):
        answer = higher_cohomology_vanishes(D, seed=seed, trials=trials)
        if answer.higher_cohomology is not Vanishing.ZERO:
            failures.append(f"summand {divisor_expr(D)} has (or may have) higher cohomology")
        elif answer.route == "oracle":
            provenance.append(f"summand {divisor_expr(D)}: oracle-clean, not rule-derivable")
    degrees = gs.degrees()
    if degrees:
        lo, hi = min(degrees), max(degrees)
        if hi - lo > 1:
            i, j = degrees.index(hi), degrees.index(lo)
            failures.append(
                f"N-degree gap {hi - lo} > 1 between {divisor_expr(gs.summands[i])} "
                f"and {divisor_expr(gs.summands[j])}"
            )
    return GoodSumCheck(not failures, tuple(failures), tuple(provenance))


# ---------------------------------------------------------------------------
# Rounding construction (reference divisor L)
# ---------------------------------------------------------------------------


def rounding_sum(v: ChernCharacter, *, seed: int = 0, trials: int = 3) -> GoodSum:
    """L-good sum with c1 = c1(v) by rounding the slope coefficients.

    Writes the slope as (d + p/r) L - sum (a_i + p_i/r) E_i and builds r
    line bundles whose L-coefficients are d or d+1 (exactly p of the larger)
    and whose i-th multiplicities are a_i or a_i+1 (exactly p_i of the
    larger), provided the floor/ceiling bundle dL - sum ceil(alpha_i) E_i
    has no higher cohomology.  The larger L-coefficients are paired with the
    smaller multiplicity totals (a fixed deterministic schedule).
    """
    s = v.surface
    if not s.is_blowup_p2_like:
        raise GoodSumError("rounding builds sums on blowups of the plane")
    r = v.r
    ell, mults = v.c1.coords[0], [-c for c in v.c1.coords[1:]]  # c1.L and the c1.E_i
    if ell < 0:
        raise GoodSumError(f"hypothesis delta >= 0 fails: delta = {Fraction(ell, r)}")
    for i, m in enumerate(mults, start=1):
        if m < 0:
            raise GoodSumError(f"hypothesis alpha_{i} >= 0 fails: alpha_{i} = {Fraction(m, r)}")
    d, p = divmod(ell, r)
    floors = [divmod(m, r) for m in mults]
    ceil_bundle = DivisorClass(s, (d,) + tuple(-(a + (pi > 0)) for a, pi in floors))
    if higher_cohomology_vanishes(ceil_bundle, seed=seed, trials=trials).higher_cohomology is not Vanishing.ZERO:
        raise GoodSumError(
            f"floor/ceiling bundle {divisor_expr(ceil_bundle)} has (or may have) higher cohomology"
        )
    # slots 0..p-1 carry the larger L-coefficient; ceil multiplicities go to
    # the last slots so large L pairs with small multiplicity totals.
    slots = [(d + (t < p),) + tuple(-(a + (t >= r - pi)) for a, pi in floors) for t in range(r)]
    gs = GoodSum(basis_divisor(s, "L"), tuple(DivisorClass(s, c) for c in sorted(slots)))
    if gs.c1() != v.c1:
        raise RuntimeError("rounding produced the wrong first Chern class")
    return gs


# ---------------------------------------------------------------------------
# Del Pezzo decomposition engine (raw coordinate tuples, memoized)
# ---------------------------------------------------------------------------


def _upshift_moves(coords, k: int):
    """Unbalance multiplicities while nef; returns (moves, fixed coords).

    Each move (i, j) replaces D by D - E_i + E_j for the first ordered pair
    with D.E_i >= D.E_j whose image stays nef.  With m_i = D.E_i, a move
    raises m_i by one, lowers m_j by one and keeps their sum, so from a nef
    class the conic condition cannot change and every line condition through
    neither or both of i, j still holds; the image is nef iff m_j >= 1 and
    m_i + 1 + m_l <= d for every l other than i and j (see
    ``lattice.is_nef_coords``).  A class that is not nef has no nef image of
    this kind and is returned unmoved.  The potential sum_i m_i^2 grows by
    at least 2 per move and is bounded by k (D.L)^2, which caps the
    iteration count.
    """
    moves: list[tuple[int, int]] = []
    if not is_nef_coords(del_pezzo(9 - k), coords):
        return moves, coords
    d = coords[0]
    m = [0] + [-c for c in coords[1:]]  # m[i] = D.E_i, 1-based
    points = range(1, k + 1)
    bound = k * d * d
    while True:
        # the indices of the three largest m_l, so rest below is the largest
        # m_l off {i, j}; at k = 2 that is m_0 = 0, and m_i + 1 <= d holds, as
        # the line condition gives m_i + m_j <= d
        a, b, c = (sorted(points, key=m.__getitem__, reverse=True) + [0])[:3]
        for i in points:
            for j in points:
                if i == j or m[i] < m[j] or m[j] < 1:
                    continue
                rest = m[a] if a != i and a != j else m[b] if b != i and b != j else m[c]
                if m[i] + 1 + rest <= d:
                    break
            else:
                continue
            break
        else:
            return moves, (d,) + tuple(-x for x in m[1:])
        m[i] += 1
        m[j] -= 1
        moves.append((i, j))
        if len(moves) > bound:
            raise RuntimeError("upshift loop exceeded its potential bound")


def _lift_summands(tally: dict, i: int, j: int) -> None:
    """Undo one upshift move on a good sum held as {class: count}: one copy
    of the first class in sorted order with L'.E_i > L'.E_j >= -1 absorbs
    E_i - E_j, keeping its anticanonical degree and its vanishing."""
    for s in sorted(tally):
        if -s[i] > -s[j] >= -1:
            tally[s] -= 1
            if not tally[s]:
                del tally[s]
            repl = list(s)
            repl[i] += 1
            repl[j] -= 1
            lifted = tuple(repl)
            tally[lifted] = tally.get(lifted, 0) + 1
            return
    raise LatticeError(f"no summand eligible for the upshift lift ({i}, {j}); input sum was not good")


def _two_point_summand_raw(d: int, a: int, r: int) -> tuple[int, int, int]:
    """One summand of anticanonical degree floor((3d-a)/r) for D = dL - aE_1
    on the two-point surface, with D - M nef and M free of higher cohomology."""
    if not 0 <= a <= d:
        raise GoodSumError(f"dL - aE_1 with (d, a) = ({d}, {a}) is not nef")
    if r == 2 and (d, a) == (1, 1):
        raise GoodSumError("the case r = 2, D = L - E_1 splits directly as (L-2E_1) + E_1")
    m = (3 * d - a) // r
    s, t = divmod(m, 3)
    basic = ((s, 0, 0), (s, 1, 0), (s, 1, 1))[t]
    if t == 2 and a == 0:
        return basic  # already within reach of the target degree
    cur = basic
    if t == 2:
        cur = (cur[0] + 1, cur[1] - 2, cur[2] - 1)  # one copy of L - 2E_1 - E_2
    target = d - a  # D.(L - E_1 - E_2)
    while cur[0] + cur[1] + cur[2] > target:
        cur = (cur[0] + 1, cur[1] - 3, cur[2])  # copies of L - 3E_1
        if -cur[1] > a or -cur[2] > 0:
            raise RuntimeError("two-point summand ran past its bounds")
    return cur


# up to this rank the two-point steps recurse through the memo of
# ``_decompose``, so low-rank remainders shared between queries are memo
# hits (the delpezzo_goodsums benchmark's ranks 1-5); above it they run in a
# loop, so a high rank costs no recursion depth
_MEMO_RANK = 16


def _decompose_two_point(coords, r: int):
    """Good-sum counts for a nef class on the two-point surface.

    Each rank step unbalances the class, swaps E_1 and E_2 if E_1 is the
    one it meets, and splits off one summand of the right anticanonical
    degree.  The steps' moves, swaps and summands go on a stack until the
    rank left is at most ``_MEMO_RANK``, which ``_decompose`` finishes;
    then the steps are undone in reverse, on the distinct classes only.
    """
    surface, stack, tally = del_pezzo(7), [], None
    while tally is None:
        moves, swap, (d, c) = _reduction(2, coords)
        a = -c
        if r == 2 and (d, a) == (1, 1):
            stack.append((moves, swap, (1, -2, 0)))
            tally = {(0, 1, 0): 1}  # E_1 and L - 2E_1
            break
        M = _two_point_summand_raw(d, a, r)
        coords = (d - M[0], c - M[1], -M[2])
        if not is_nef_coords(surface, coords):
            raise RuntimeError(f"two-point summand left a non-nef remainder {coords}")
        if 3 * M[0] + M[1] + M[2] != (3 * d - a) // r:
            raise RuntimeError("wrong anticanonical degree")
        stack.append((moves, swap, M))
        r -= 1
        if r <= _MEMO_RANK:
            tally = dict(_decompose(2, coords, r))
    for moves, swap, M in reversed(stack):
        tally[M] = tally.get(M, 0) + 1
        if swap:
            tally = {(s[0], s[2], s[1]): n for s, n in tally.items()}
        for i, j in reversed(moves):
            _lift_summands(tally, i, j)
    return tuple(sorted(tally.items()))


# The step that does not depend on the rank, read by every rank of a class:
# a delpezzo_goodsums pass (seed 1, pass 0) asks for 1,836 reductions of
# 1,245 classes, and criterion 5 misses 14,097 of 61,314 at this bound.
# Entries are a few moves, a word of at most three roots and one class
@lru_cache(maxsize=1 << 12)
def _reduction(k: int, coords):
    """A nef class on k >= 2 points brought to k - 1 points: (moves, word, reduced).

    ``moves`` are the upshift moves (``_upshift_moves``), ``word`` is a
    reflection word carrying a (-1)-curve orthogonal to the upshifted class
    to E_k, and ``reduced`` is the image with its E_k coefficient, 0,
    dropped.  At k = 2 the orthogonal curve is E_1 or E_2, and the word is
    empty or the swap of the two, the reflection in E_1 - E_2.
    """
    moves, cur = _upshift_moves(coords, k)
    surface = del_pezzo(9 - k)
    if k == 2:
        if cur[1] and cur[2]:
            raise RuntimeError(f"two-point upshift fixed point {cur} has no orthogonal E_i")
        word = ((0, 1, -1),) if cur[2] else ()
    else:
        ortho = next((C for C in neg_one_classes(k) if form(surface, cur, C) == 0), None)
        if ortho is None:
            raise RuntimeError(f"upshift fixed point {cur} meets every (-1)-curve positively")
        word = curve_word(surface, ortho)
    for root in word:
        cur = reflect(surface, cur, root)
    if cur[-1] != 0 or not is_nef_coords(surface, cur):
        raise RuntimeError("Weyl normalization failed")
    return tuple(moves), word, cur[:-1]


# Entries are counts, a few pairs at any rank.  A delpezzo_goodsums pass
# (seed 1, pass 0) keeps all its 2,105 misses and hits 1,010 times;
# criterion 5's 67,980 top-level calls miss 75,000 times and hit 54,289
# times at this bound.  A miss reads the rank-free ``_reduction``, then
# reflects and lifts back the sum of the class brought to k - 1 points
@lru_cache(maxsize=1 << 12)
def _decompose(k: int, coords, r: int):
    """Good-sum counts, sorted (coords, multiplicity) pairs, of a nef class on k points."""
    if r == 1:
        return ((coords, 1),)
    if k == 2:
        return _decompose_two_point(coords, r)
    moves, word, reduced = _reduction(k, coords)
    surface = del_pezzo(9 - k)
    tally = {}
    for summand, n in _decompose(k - 1, reduced, r):
        summand += (0,)
        for root in reversed(word):
            summand = reflect(surface, summand, root)
        tally[summand] = n
    for i, j in reversed(moves):
        _lift_summands(tally, i, j)
    return tuple(sorted(tally.items()))


def delpezzo_decompose(D: DivisorClass, r: int) -> GoodSum:
    """(-K)-good sum of rank r with first Chern class a nef divisor D.

    D lives on a del Pezzo surface (``dp<d>`` or ``blp2:k=<9-d>``), and so does
    the sum.  Runs the full reduction pipeline (unbalancing moves, Weyl
    normalization of an orthogonal (-1)-curve, descent to fewer points, the
    two-point splitting) and lifts the resulting summands back.
    """
    s = D.surface
    if not s.is_del_pezzo:
        raise GoodSumError(f"the decomposition is implemented on del Pezzo surfaces of degree 4..7, not {s}")
    if r < 1:
        raise GoodSumError("rank must be at least 1")
    if not is_nef(D):
        raise GoodSumError(f"{divisor_expr(D)} is not nef on {s}")
    counts = _decompose(s.k, D.coords, r)
    flat = [x for c, n in counts for x in (c,) * n]
    # is_good_sum does not check c1, so a wrong sum would otherwise be printed.
    # The check covers the summands' lengths too (a short one shortens the
    # sum), so they are wrapped unchecked
    if len(flat) != r or sum(map(len, flat)) != r * s.rank or tuple(map(sum, zip(*flat))) != D.coords:
        raise RuntimeError(f"decomposition of {divisor_expr(D)} at rank {r} lost its first Chern class or rank")
    summands = tuple(x for c, n in counts for x in (wrap_coords(s, c),) * n)
    return GoodSum(anticanonical(s), summands)


# ---------------------------------------------------------------------------
# Hirzebruch direct sums with no cohomology (fiber-good)
# ---------------------------------------------------------------------------


def hirzebruch_fiber_sum(v: ChernCharacter) -> GoodSum:
    """F-good sum with character v and no cohomology at all, for k < 0.

    With c1 = kE + lF, m = -k copies of O(-E + b_i F) (balanced b_i summing
    to l + r - m) and r - m copies of O(-F) give chi = 0 and every summand
    cohomology-free; this covers the characters whose two-term resolution
    would need a negative exponent, including the rank-r twist of O(-1,-1)
    on F_0.
    """
    s = v.surface
    if not s.is_hirzebruch:
        raise GoodSumError("fiber sums are built on Hirzebruch surfaces")
    if chi_integer(v) != 0:
        raise CharacterError("fiber sums are built for characters with chi = 0")
    k, ell = v.c1.coords
    r = v.r
    m = -k
    if not 1 <= m <= r:
        raise GoodSumError(f"fiber sum needs -r <= k <= -1, got k = {k}")
    total = ell + (r - m)
    base, extra = divmod(total, m)
    E, F = basis_divisor(s, "E"), basis_divisor(s, "F")
    summands = [-E + (base + (1 if t < extra else 0)) * F for t in range(m)]
    summands += [-F] * (r - m)
    for D in summands:
        if certified_cohomology(D).vector != CohomologyVector(0, 0, 0):
            raise RuntimeError(f"fiber-sum summand {divisor_expr(D)} has cohomology")
    gs = GoodSum(F, tuple(sorted(summands, key=lambda d: d.coords)))
    if gs.c1() != v.c1 or gs.chi() != 0:
        raise RuntimeError("fiber sum lost its first Chern class or chi = 0")
    return gs


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WBNWitness:
    """A good sum plus the point modifications reaching the target.

    chi drops by one per modification, so there are n = chi(sum) of them
    and the target character is the sum's with ch2 lowered by n.
    """

    good_sum: GoodSum
    target: ChernCharacter

    @property
    def modifications(self) -> int:
        return self.good_sum.chi()

    def bookkeeping_ok(self) -> bool:
        n = self.good_sum.chi()
        sum_char = self.good_sum.character()
        return (
            n >= 0
            and sum_char.r == self.target.r
            and sum_char.c1 == self.target.c1
            and sum_char.twice_ch2 - 2 * n == self.target.twice_ch2
        )

    def to_json_dict(self) -> dict:
        out = self.good_sum.to_json_dict()
        out["modifications"] = self.modifications
        out["target"] = {
            "r": self.target.r,
            "c1": divisor_expr(self.target.c1),
            "ch2": str(self.target.ch2),
        }
        return out
