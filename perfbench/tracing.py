"""Span tracing of the public ``rbn`` functions, installed from outside.

``Tracer.install()`` replaces each listed function at every module binding
(``from .x import y`` copies the name, so ``rbn.decide.vanishing_by_rules``
and ``rbn.cohomology.vanishing_by_rules`` are patched separately) and
``uninstall()`` puts the originals back.  Spans are kept in flat arrays,
(function, start, end, parent span, query id), and written out with
``save()`` after the run.  A function that no longer exists is skipped; a
layer with none of its functions left is reported as absent.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# layer -> (module, public functions); layer names double as metric prefixes
LAYERS = {
    "lattice": (
        "lattice",
        ("intersect", "is_nef", "neg_one_curves", "weyl_orbit", "weyl_reflect",
         "canonical", "chi_line_bundle"),
    ),
    "cohomology.rules": ("cohomology", ("vanishing_by_rules",)),
    "cohomology.hirz": ("cohomology", ("hirzebruch_cohomology",)),
    "cohomology.oracle": ("cohomology", ("interpolation_h0", "blowup_cohomology_oracle")),
    "modp": ("_modp", ("modp_nullity", "modp_rank")),
    "goodsums.decompose": ("goodsums", ("delpezzo_decompose", "upshift_lift")),
    "goodsums.check": ("goodsums", ("is_good_sum", "rounding_sum", "wbn_witness")),
    "resolutions": (
        "resolutions",
        ("hirzebruch_resolution", "blowup_resolution", "blowup_hirzebruch_resolution",
         "solve_exponents"),
    ),
    "chern": (
        "chern",
        ("character_from_chi", "euler_pairing", "twisted_chi", "hirzebruch_normalize",
         "riemann_roch_chi"),
    ),
    "decide": (
        "decide",
        ("wbn", "rank_one_wbn", "hirzebruch_wbn", "blowup_p2_wbn", "blowup_hirzebruch_wbn",
         "delpezzo_wbn"),
    ),
}

STATUS_METRIC = {"Holds": "decide.holds", "Fails": "decide.fails",
                 "EmptyModuli": "decide.empty", "Unknown": "decide.unknown"}


def _rbn_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rbn" or name.startswith("rbn."))]


def cache_entries() -> int:
    """Entries held by every module-level ``lru_cache`` in ``rbn``."""
    seen, total = set(), 0
    for mod in _rbn_modules():
        for val in vars(mod).values():
            val = getattr(val, "__wrapped_original__", val)
            if hasattr(val, "cache_info") and id(val) not in seen:
                seen.add(id(val))
                total += val.cache_info().currsize
    return total


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # function id -> "layer:function"
        self.layer_of: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_query = -1
        self.absent: list[str] = []
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        # counters filled at the layer boundaries
        self.rules_decided = 0
        self.oracle_keys: set = set()
        self.oracle_perm_keys: set = set()
        self.oracle_calls = 0
        self.oracle_repeats = 0
        self.oracle_perm_repeats = 0
        self.trials = 0
        self.wasted_trials = 0
        self._hit_spans: set[int] = set()
        self.matrices = 0
        self.cells = 0
        self.largest = (0, 0)
        self.statuses = dict.fromkeys(STATUS_METRIC.values(), 0)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        import rbn  # noqa: F401  (loads every submodule)

        modules = _rbn_modules()
        for layer, (modname, fnames) in LAYERS.items():
            mod = sys.modules.get(f"rbn.{modname}")
            found = 0
            for fname in fnames:
                orig = getattr(mod, fname, None) if mod is not None else None
                if orig is None:
                    self.missing.append(f"{modname}.{fname}")
                    continue
                found += 1
                fid = len(self.names)
                self.names.append(f"{layer}:{fname}")
                self.layer_of.append(layer)
                # a method named _after_<function> sees each call's args and result
                wrapper = self._wrap(fid, orig, getattr(self, f"_after_{fname}", None))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))
            if not found:
                self.absent.append(layer)
        self._interp_fid = self._fid("cohomology.oracle:interpolation_h0")
        self._decide_fids = {i for i, layer in enumerate(self.layer_of) if layer == "decide"}
        self._nullity_fid = self._fid("modp:modp_nullity")

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _fid(self, name):
        return self.names.index(name) if name in self.names else -2

    def _wrap(self, fid, fn, after):
        fns, parents, queries = self.fn, self.parent, self.query
        starts, ends, stack = self.start, self.end, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            queries.append(self.current_query)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        wrapper.__wrapped_original__ = fn
        return wrapper

    # -- counters at layer boundaries -------------------------------------------

    def _ancestor(self, idx, fids):
        p = self.parent[idx]
        while p >= 0 and self.fn[p] not in fids:
            p = self.parent[p]
        return p

    def _after_vanishing_by_rules(self, idx, args, verdict):
        if str(verdict.higher_cohomology) in ("Zero", "Nonzero"):
            self.rules_decided += 1

    def _after_interpolation_h0(self, idx, args, h0):
        D = args[0]
        s = D.surface
        self.oracle_calls += 1
        key = (s, D.coords)
        if key in self.oracle_keys:
            self.oracle_repeats += 1
        self.oracle_keys.add(key)
        if s.config.kind == "general":
            pkey = (s, D.coords[0], tuple(sorted(D.coords[1:])))
            if pkey in self.oracle_perm_keys:
                self.oracle_perm_repeats += 1
            self.oracle_perm_keys.add(pkey)

    def _after_modp_nullity(self, idx, args, nullity):
        rows, cols = self._count_matrix(args[0])
        oracle = self._ancestor(idx, {self._interp_fid})
        if oracle < 0:
            return
        self.trials += 1
        if oracle in self._hit_spans:
            self.wasted_trials += 1
        elif nullity == max(0, cols - rows):
            self._hit_spans.add(oracle)

    def _after_modp_rank(self, idx, args, rank):
        if self._ancestor(idx, {self._nullity_fid}) < 0:
            self._count_matrix(args[0])

    def _count_matrix(self, mat):
        rows, cols = np.shape(mat)
        self.matrices += 1
        self.cells += rows * cols
        if rows * cols > self.largest[0] * self.largest[1]:
            self.largest = (rows, cols)
        return rows, cols

    def _after_decide(self, idx, args, verdict):
        if self._ancestor(idx, self._decide_fids) < 0:
            self.statuses[STATUS_METRIC[str(verdict.status)]] += 1

    _after_wbn = _after_rank_one_wbn = _after_hirzebruch_wbn = _after_decide
    _after_blowup_p2_wbn = _after_blowup_hirzebruch_wbn = _after_delpezzo_wbn = _after_decide

    # -- results -------------------------------------------------------------------

    def _self_times(self):
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return fn, dur - child

    def metrics(self) -> dict[str, float]:
        fn, self_s = self._self_times()
        calls = np.bincount(fn, minlength=len(self.names))
        self_by_fn = np.bincount(fn, weights=self_s, minlength=len(self.names))
        out: dict[str, float] = {}
        for layer in LAYERS:
            ids = [i for i, lay in enumerate(self.layer_of) if lay == layer]
            n = int(calls[ids].sum()) if ids else 0
            t = float(self_by_fn[ids].sum()) if ids else 0.0
            count_name = {"modp": "modp.matrices"}.get(layer, f"{layer}.calls")
            out[count_name] = self.matrices if layer == "modp" else n
            out[f"{layer}.self_s"] = t
        rules_calls = out["cohomology.rules.calls"]
        out["cohomology.rules.decided_ratio"] = self.rules_decided / rules_calls if rules_calls else 0.0
        out["cohomology.oracle.trials"] = self.trials
        out["cohomology.oracle.wasted_trials"] = self.wasted_trials
        oc = self.oracle_calls
        out["cohomology.oracle.repeat_share"] = self.oracle_repeats / oc if oc else 0.0
        out["cohomology.oracle.perm_repeat_share"] = self.oracle_perm_repeats / oc if oc else 0.0
        out["modp.cells"] = self.cells
        out["modp.largest_rows"], out["modp.largest_cols"] = self.largest
        out.update(self.statuses)
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fn=np.frombuffer(self.fn, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            query=np.frombuffer(self.query, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
