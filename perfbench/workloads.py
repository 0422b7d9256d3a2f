"""Seeded query streams, their public-API calls and their correctness checks.

Each workload is a class of static methods:

* ``generate(rng, n)`` draws ``n`` raw queries (plain tuples of ints) from a
  ``random.Random``; nothing from ``rbn`` runs here, so the inputs depend on
  the seed alone.
* ``setup()`` builds the surface models a user would need (``canonical`` and
  ``neg_one_curves`` on each).  It is part of the measured set-up time.
* ``build(models, raw)`` turns raw queries into library objects (classes and
  characters) before timing starts.
* ``run(query, state)`` is one timed query through the public API;
  ``check(query, result)`` runs afterwards and returns a list of problems.
* ``is_verdict(query)`` and ``status(result)`` feed ``decided_frac``, and
  ``describe(query, result)`` gives the line that goes into the digest.

The checks recompute the expected answers with the benchmark's own exact
arithmetic (intersection forms, Euler characteristics, pairings), so a
library change that alters an answer shows up as a failed query.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import rbn
from rbn import cohomology, decide, goodsums, lattice

HOLDS, FAILS, EMPTY, UNKNOWN = "Holds", "Fails", "EmptyModuli", "Unknown"
DECIDED = (HOLDS, FAILS, EMPTY)


# ---------------------------------------------------------------------------
# Independent exact arithmetic for the checks
# ---------------------------------------------------------------------------


def form(surface, u, v):
    """Intersection form in the fixed basis of ``surface``."""
    if surface.is_blowup_p2_like:
        return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))
    e = surface.e
    val = -e * u[0] * v[0] + u[0] * v[1] + u[1] * v[0]
    return val - sum(a * b for a, b in zip(u[2:], v[2:]))


def canonical_coords(surface):
    if surface.is_hirzebruch:
        return (-2, -(surface.e + 2))
    if surface.is_blowup_p2_like:
        return (-3,) + (1,) * surface.k
    return (-2, -(surface.e + 2)) + (1,) * surface.k


def chi_coords(surface, c):
    K = canonical_coords(surface)
    twice = 2 + form(surface, c, c) - form(surface, c, K)
    return twice // 2


def pairing(surface, rv, cv, ch2v, rw, cw, ch2w):
    """chi(v, w) for characters given as (r, c1 coords, ch2)."""
    K = canonical_coords(surface)
    mixed = rv * form(surface, cw, K) - rw * form(surface, cv, K)
    return rv * rw - Fraction(mixed, 2) + rv * ch2w + rw * ch2v - form(surface, cv, cw)


def char_tuple(v):
    return (v.r, v.c1.coords, Fraction(v.ch2))


def neg_one_curve_coords(k):
    """(-1)-curve classes on the plane blown up at k <= 5 general points."""
    curves = [tuple(1 if j == i else 0 for j in range(k + 1)) for i in range(1, k + 1)]
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            curves.append((1,) + tuple(-1 if t in (i, j) else 0 for t in range(1, k + 1)))
    if k == 5:
        curves.append((2, -1, -1, -1, -1, -1))
    return curves


def stratified(rng, n, strata, draw):
    """n distinct queries spread evenly over the strata, in seeded random order.

    Every pass then holds the same mix of query kinds and sizes, and the seed
    only varies the details inside each stratum; that keeps the cost of a
    pass steady from seed to seed.  No query repeats within a pass, as in a
    sweep, so a cache only helps where the library reuses its own
    sub-results: a draw that repeats an earlier query is drawn again, and a
    stratum too small for its share is an error rather than a silent repeat.
    """
    seen, out = set(), []
    for i in range(n):
        stratum = strata[i % len(strata)]
        for _ in range(1000):
            q = draw(rng, stratum)
            if q not in seen:
                break
        else:
            raise ValueError(f"stratum {stratum} has too few distinct queries for {n} draws")
        seen.add(q)
        out.append(q)
    rng.shuffle(out)
    return out


def repeat_share(raw) -> float:
    """Share of the queries of a pass that repeat an earlier one exactly."""
    return 1 - len(set(raw)) / len(raw) if raw else 0.0


def _dp_nef(k, coords):
    return all(
        coords[0] * c[0] - sum(a * b for a, b in zip(coords[1:], c[1:])) >= 0
        for c in neg_one_curve_coords(k)
    )


def h0_bounds(surface, coords):
    """Bounds on h0(O(D)) for D on a blowup of the plane, without the oracle.

    A negative E_i coefficient, or a line through the collinear points that D
    meets negatively, is a fixed component of |D| and is taken off first; that
    leaves D' = dH - sum m_i E_i with every m_i >= 0 and h0(D) = h0(D').  Then
    h0(D') <= h0(O(d)), and a point of multiplicity m imposes at most
    m(m + 1)/2 conditions, which gives the lower bound.
    """
    d, mult = coords[0], [max(0, -c) for c in coords[1:]]
    line = set(surface.config.collinear) if surface.config.kind == "collinear" else set()
    while d >= 0 and line and d < sum(mult[i - 1] for i in line):
        d -= 1
        mult = [max(0, m - 1) if i in line else m for i, m in enumerate(mult, start=1)]
    if d < 0:
        return 0, 0
    top = (d + 1) * (d + 2) // 2
    return max(0, top - sum(m * (m + 1) // 2 for m in mult)), top


def check_line_bundle(surface, coords, vec):
    """Checks of an oracle vector (h0, h1, h2) for O(D) on a blowup of the plane.

    h0 and h2 = h0(K - D) must lie within ``h0_bounds``; that and h1 >= 0 can
    catch an oracle error.  h0 - h1 + h2 = chi holds by construction, since the
    oracle derives h1 from it; it checks the library's Riemann-Roch.
    """
    problems = []
    dual = tuple(k - c for k, c in zip(canonical_coords(surface), coords))
    for name, value, (low, high) in (("h0", vec.h0, h0_bounds(surface, coords)),
                                      ("h2", vec.h2, h0_bounds(surface, dual))):
        if not low <= value <= high:
            problems.append(f"{name} = {value} outside [{low}, {high}] on {surface} {coords}")
    if vec.h1 < 0:
        problems.append(f"negative h1 on {surface} {coords}: {vec}")
    if vec.chi != chi_coords(surface, coords):
        problems.append(f"h0 - h1 + h2 = {vec.chi} != chi on {surface} {coords}")
    return problems


# ---------------------------------------------------------------------------
# Shared verdict bookkeeping check
# ---------------------------------------------------------------------------


def check_verdict_bookkeeping(verdict, target):
    """Witness and obstruction bookkeeping for a verdict about ``target``.

    ``target`` is the character the verdict speaks about, as
    (surface, r, c1 coords, ch2).
    """
    surface, r, c, ch2 = target
    problems = []
    status = str(verdict.status)
    if status == HOLDS:
        w = verdict.witness
        if w is None:
            return ["Holds without a witness"]
        if isinstance(w, rbn.ResolutionReport):
            if not (w.feasible and w.bookkeeping_ok()):
                problems.append("resolution witness fails its bookkeeping")
        elif isinstance(w, rbn.WBNWitness):
            if not w.bookkeeping_ok():
                problems.append("good-sum witness fails its bookkeeping")
            gs = w.good_sum
            chi_sum = sum(chi_coords(surface, s.coords) for s in gs.summands)
            if w.modifications != chi_sum:
                problems.append("modification count differs from chi of the sum")
            total = tuple(sum(col) for col in zip(*(s.coords for s in gs.summands)))
            if total != c or gs.rank != r:
                problems.append("good-sum witness has the wrong rank or c1")
        else:
            problems.append(f"unexpected witness type {type(w).__name__}")
        if char_tuple(w.target) != (r, c, ch2):
            problems.append("witness target differs from the queried character")
    elif status == FAILS:
        obst = verdict.obstruction
        if obst is None:
            return ["Fails without an obstruction"]
        if obst.curve is not None:
            C = obst.curve.coords
            chi_c = pairing(surface, 1, C, Fraction(form(surface, C, C), 2), r, c, ch2)
            if obst.chi_pairing != chi_c or chi_c <= 0:
                problems.append(f"obstruction pairing {obst.chi_pairing} != chi(O(C), v) = {chi_c}")
            if obst.h0_lower_bound != chi_c:
                problems.append("obstruction bound differs from its pairing")
        elif not ((obst.h0_lower_bound or 0) > 0 or (obst.h2_lower_bound or 0) > 0):
            problems.append("rank-one obstruction carries no positive bound")
    return problems


def verdict_line(verdict):
    return json.dumps(verdict.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# hirz_verdicts: the `rbn wbn --sweep` traffic on F_0..F_3
# ---------------------------------------------------------------------------


class HirzVerdicts:
    name = "hirz_verdicts"

    @staticmethod
    def generate(rng, n):
        """Raw queries (e, r, k, l): a seeded sample, without replacement, of
        the queries of the twelve sweeps over F_0..F_3 and ranks 2..4, each of
        which visits every (k, l) in the box |k|, |l| <= 8r once.  Ranks come
        in the sweeps' proportion, 1089 : 2401 : 4225 points per surface."""
        sweeps = [(e, r, k, ell) for e in range(4) for r in (2, 3, 4)
                  for k in range(-8 * r, 8 * r + 1) for ell in range(-8 * r, 8 * r + 1)]
        return rng.sample(sweeps, n)

    @staticmethod
    def setup():
        models = {e: lattice.hirzebruch(e) for e in range(4)}
        for S in models.values():
            lattice.canonical(S)
        return models

    @staticmethod
    def build(models, raw):
        e, r, k, ell = raw
        S = models[e]
        return rbn.character_from_chi(r, lattice.DivisorClass(S, (k, ell)), 0)

    @staticmethod
    def run(v, state):
        return decide.wbn(v)

    @staticmethod
    def is_verdict(v):
        return True

    @staticmethod
    def status(result):
        return str(result.status)

    @staticmethod
    def check(v, verdict):
        S, e, r = v.surface, v.surface.e, v.r
        c, ch2 = v.c1.coords, Fraction(v.ch2)
        K = canonical_coords(S)
        # Serre-dual normalization k/r >= -1 (boundary: l/r >= -1 - e/2)
        kr = Fraction(c[0], r)
        if not (kr > -1 or (kr == -1 and Fraction(c[1], r) >= -1 - Fraction(e, 2))):
            ch2 = ch2 - form(S, c, K) + r * Fraction(form(S, K, K), 2)
            c = tuple(r * k_ - a for a, k_ in zip(c, K))
        nu2 = Fraction(form(S, c, c), r * r)
        delta = nu2 / 2 - ch2 / r
        nu_e = Fraction(c[1] - e * c[0], r)
        expect = EMPTY if delta < 0 else (HOLDS if nu_e >= -1 else FAILS)
        status = str(verdict.status)
        problems = []
        if status != expect:
            problems.append(f"status {status}, closed form says {expect}")
        if verdict.bogomolov_delta is not None and verdict.bogomolov_delta != delta:
            problems.append("reported discriminant differs")
        if status == FAILS:
            bound = -(c[1] - e * c[0]) - r  # chi(w(-E)) since chi(O(-E)) = 0
            obst = verdict.obstruction
            if obst is None or obst.h0_lower_bound != bound:
                problems.append(f"Fails bound differs from the twisted chi {bound}")
        problems += check_verdict_bookkeeping(verdict, (S, r, c, ch2))
        return problems

    @staticmethod
    def describe(v, verdict):
        return f"{v.surface} {v} {verdict_line(verdict)}"


# ---------------------------------------------------------------------------
# delpezzo_goodsums: `rbn goodsum` plus criterion-5 oracle certification
# ---------------------------------------------------------------------------

# Rules cost climbs steeply with degree; a cap of 10 keeps a pass of 1280
# queries near 4 s, so a 40 s run holds about eight passes.  Nef classes of
# degree 2 or less are a handful (six on dP7 at degree 2), too few to fill a
# stratum without repeats; degree 3 has eight on dP7, one stratum's share.
DP_DEGREES = range(3, 11)


class DelPezzoGoodSums:
    name = "delpezzo_goodsums"

    @staticmethod
    def generate(rng, n):
        """Raw queries (k, coords, r): a nef class of degree d in DP_DEGREES on
        the plane blown up at k points, even over (k, d, r)."""

        def draw(rng, stratum):
            k, d, r = stratum
            while True:
                coords = (d,) + tuple(-rng.randint(0, d // 2 + 1) for _ in range(k))
                if _dp_nef(k, coords):
                    return (k, coords, r)

        strata = [(k, d, r) for k in (2, 3, 4, 5) for d in DP_DEGREES
                  for r in range(1, 6)]
        return stratified(rng, n, strata, draw)

    @staticmethod
    def setup():
        models = {9 - deg: lattice.del_pezzo(deg) for deg in (4, 5, 6, 7)}
        for S in models.values():
            lattice.canonical(S)
            lattice.neg_one_curves(S)
        return models

    @staticmethod
    def build(models, raw):
        k, coords, r = raw
        return (lattice.DivisorClass(models[k], coords), r)

    @staticmethod
    def run(query, state):
        D, r = query
        gs = goodsums.delpezzo_decompose(D, r)
        check = goodsums.is_good_sum(gs)
        certified = {}
        seen = state.setdefault("certified", set())
        for s in gs.summands:
            if s not in seen:
                seen.add(s)
                certified[s] = cohomology.blowup_cohomology_oracle(s)
        return gs, check, certified

    @staticmethod
    def is_verdict(query):
        return True

    @staticmethod
    def status(result):
        """A goodsum query is decided when its sum is certified good."""
        return HOLDS if result[1].ok else UNKNOWN

    @staticmethod
    def check(query, result):
        D, r = query
        gs, check, certified = result
        S = D.surface
        problems = []
        if gs.rank != r:
            problems.append(f"rank {gs.rank} != {r}")
        total = tuple(sum(col) for col in zip(*(s.coords for s in gs.summands)))
        if total != D.coords:
            problems.append("summands do not add up to c1")
        anti = tuple(-a for a in canonical_coords(S))
        degrees = [form(S, anti, s.coords) for s in gs.summands]
        if max(degrees) - min(degrees) > 1:
            problems.append(f"anticanonical degrees {degrees} differ by more than 1")
        if not check.ok:
            problems.append(f"is_good_sum: {check.failures}")
        for s, vec in certified.items():
            if vec.h1 != 0 or vec.h2 != 0:
                problems.append(f"oracle finds higher cohomology on {s}: {vec}")
            problems += check_line_bundle(S, s.coords, vec)
        return problems

    @staticmethod
    def describe(query, result):
        D, r = query
        gs, check, certified = result
        cert = " ".join(f"{s}:{v}" for s, v in sorted(certified.items(), key=lambda t: t[0].coords))
        return f"{D.surface} r={r} {D} -> {json.dumps(gs.to_json_dict())} ok={check.ok} {cert}"


# ---------------------------------------------------------------------------
# blowup_queries: `rbn cohom` and `rbn wbn` on blowups
# ---------------------------------------------------------------------------

BLOWUP_MAX_DEGREE = 14


class BlowupQueries:
    name = "blowup_queries"

    @staticmethod
    def generate(rng, n):
        """Raw queries ("cohom", k, ncol, coords), ("wbn", k, ncol, r, coords) and
        ("wbnF", e, k, r, coords); ncol > 0 puts E1..E_ncol on a line.

        Strata: cohomology queries over (k, configuration, degree), verdicts
        over (k, configuration, rank) on blp2 and (e, k, rank) on blF_e, the
        verdict strata counted twice.
        """

        def draw(rng, stratum):
            kind, k, x, y = stratum
            if kind == "wbnF":
                e, r = x, y
                coords = (rng.randint(-1, r), rng.randint(0, 4 * r)) + tuple(
                    -rng.randint(0, r) for _ in range(k)
                )
                return ("wbnF", e, k, r, coords)
            ncol = rng.randint(3, k) if x else 0
            if kind == "cohom":
                d = y
                top = max(1, math.ceil(1.2 * d / math.sqrt(k)))
                return ("cohom", k, ncol, (d,) + tuple(-rng.randint(0, top) for _ in range(k)))
            r = y
            coords = (rng.randint(0, 3 * r),) + tuple(-rng.randint(0, r + 1) for _ in range(k))
            return ("wbn", k, ncol, r, coords)

        strata = []
        for k in range(2, 7):
            for collinear in (False, True) if k >= 3 else (False,):
                strata += [("cohom", k, collinear, d) for d in range(1, BLOWUP_MAX_DEGREE + 1)]
                strata += [("wbn", k, collinear, r) for r in range(1, 5)] * 2
        strata += [("wbnF", k, e, r) for e in (2, 3) for k in (1, 2, 3) for r in (2, 3, 4)] * 2
        return stratified(rng, n, strata, draw)

    @staticmethod
    def setup():
        models = {}
        for k in range(2, 7):
            models[("p", k, 0)] = lattice.blowup_p2(k)
            for ncol in range(3, k + 1):
                models[("p", k, ncol)] = lattice.blowup_p2(
                    k, lattice.collinear_config(range(1, ncol + 1))
                )
        for e in (2, 3):
            for k in (1, 2, 3):
                models[("F", e, k)] = lattice.blowup_hirzebruch(e, k)
        for S in models.values():
            lattice.canonical(S)
        return models

    @staticmethod
    def build(models, raw):
        if raw[0] == "cohom":
            _, k, ncol, coords = raw
            return ("cohom", lattice.DivisorClass(models[("p", k, ncol)], coords))
        if raw[0] == "wbn":
            _, k, ncol, r, coords = raw
            S = models[("p", k, ncol)]
        else:
            _, e, k, r, coords = raw
            S = models[("F", e, k)]
        return ("wbn", rbn.character_from_chi(r, lattice.DivisorClass(S, coords), 0))

    @staticmethod
    def run(query, state):
        kind, x = query
        if kind == "cohom":
            return (cohomology.vanishing_by_rules(x), cohomology.blowup_cohomology_oracle(x))
        return decide.wbn(x)

    @staticmethod
    def is_verdict(query):
        return query[0] == "wbn"

    @staticmethod
    def status(result):
        return str(result.status)

    @staticmethod
    def check(query, result):
        kind, x = query
        if kind == "cohom":
            rules, vec = result
            problems = check_line_bundle(x.surface, x.coords, vec)
            higher = str(rules.higher_cohomology)
            if higher == "Zero" and not vec.higher_vanishes:
                problems.append(f"rules say Zero, oracle says {vec}")
            if higher == "Nonzero" and vec.higher_vanishes:
                problems.append(f"rules say Nonzero, oracle says {vec}")
            return problems
        v = x
        return check_verdict_bookkeeping(
            result, (v.surface, v.r, v.c1.coords, Fraction(v.ch2))
        )

    @staticmethod
    def describe(query, result):
        kind, x = query
        if kind == "cohom":
            rules, vec = result
            return f"cohom {x.surface} {x} {rules.higher_cohomology} {vec}"
        return f"wbn {x.surface} {x} {verdict_line(result)}"

    @staticmethod
    def collinear(query):
        surface = query[1].surface
        return surface.config.kind == "collinear"


WORKLOADS = {w.name: w for w in (HirzVerdicts, DelPezzoGoodSums, BlowupQueries)}
