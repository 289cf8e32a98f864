"""Span tracing of the calls into pombox's public functions, installed from
the benchmark's own files by rebinding module attributes; nothing under
``src/`` changes.

Every wrapped call records one span: name, start, end, parent span and the
query it belongs to.  Spans live in flat arrays in memory and are written
out once, when the run ends.  A layer's self time is its spans' durations
minus the time covered by their direct child spans.
"""

import json
import sys
import time
from array import array

# (module, attribute) pairs wrapped as plain calls.  A function imported by
# name into another pombox module is rebound there too, so calls through
# either binding are seen.
CALLS = [
    ("posets", "classify_subset"),
    ("posets", "find_homomorphism"),
    ("posets", "canonical_key"),
    ("posets", "order_extensions"),
    ("terms", "parse_term"),
    ("terms", "interp"),
    ("terms", "decide"),
    ("logic", "sat_bool"),
    ("logic", "sat"),
    ("logic", "sat_oracle"),
    ("logic", "frame_check"),
    ("logic", "independent"),
    ("testkit", "gen_poset"),
    ("testkit", "gen_formula"),
    ("testkit", "gen_term"),
    ("testkit", "gen_sp_term"),
]
# generator functions: each step of the iteration is one span
GENERATORS = [
    ("posets", "weakenings"),
    ("posets", "strengthenings"),
]
METHODS = [("Poset", "restrict"), ("Poset", "key")]

WITNESS_SPACES = ("posets.weakenings", "posets.strengthenings",
                  "posets.order_extensions")
GEN_FUNCS = ("testkit.gen_poset", "testkit.gen_formula", "testkit.gen_term",
             "testkit.gen_sp_term")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_query = -1
        # time the benchmark itself spent inside spans (its reference
        # kernel); span times are read on a clock that leaves it out
        self.offset = 0.0
        # span indices whose call returned the oracle's "unknown"
        self.unknown_spans = []
        # (span, size) for results whose size is a layer's work count
        self.sized = []
        self._restore = []

    def _name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.query.append(self.current_query)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter() - self.offset)
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter() - self.offset
        self.stack.pop()

    def wrap_call(self, name, fn, on_result=None):
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if on_result is not None:
                on_result(i, res)
            return res
        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        nid = self._name_id(name)
        tracer = self

        def steps(it):
            while True:
                i = tracer._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(i)
                tracer.sized.append((i, 1))
                yield item

        def traced(*args, **kwargs):
            return steps(fn(*args, **kwargs))
        traced.__wrapped__ = fn
        return traced

    def install(self, pkg):
        """Wrap the listed functions and methods of the imported package
        ``pkg``.  Names the package no longer has are skipped."""
        mods = [getattr(pkg, m) for m in ("posets", "terms", "logic",
                                          "testkit", "cli")
                if hasattr(pkg, m)]
        unknown = getattr(pkg.logic, "UNKNOWN", "unknown")

        def on_oracle(i, res):
            if isinstance(res, str) and res == unknown:
                self.unknown_spans.append(i)

        def on_sized(i, res):
            self.sized.append((i, len(res)))

        hooks = {"logic.sat_oracle": on_oracle,
                 "terms.interp": on_sized,
                 "posets.order_extensions": on_sized}
        wrappers = []
        for mod, attr in CALLS:
            fn = getattr(getattr(pkg, mod), attr, None)
            if fn is not None:
                name = "%s.%s" % (mod, attr)
                wrappers.append((fn, self.wrap_call(name, fn,
                                                    hooks.get(name))))
        for mod, attr in GENERATORS:
            fn = getattr(getattr(pkg, mod), attr, None)
            if fn is not None:
                wrappers.append((fn, self.wrap_generator(
                    "%s.%s" % (mod, attr), fn)))
        for m in mods:
            for fn, traced in wrappers:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._restore.append((m, attr, val))
                        setattr(m, attr, traced)
        for cls_name, attr in METHODS:
            cls = getattr(pkg.posets, cls_name)
            fn = cls.__dict__.get(attr)
            if fn is not None:
                self._restore.append((cls, attr, fn))
                setattr(cls, attr, self.wrap_call(
                    "posets.%s" % attr, fn))

    def uninstall(self):
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore = []

    def write(self, path):
        """Write every span: one JSON header line, then the raw arrays in
        the header's field order (native byte order)."""
        header = {"names": self.names, "count": len(self.start),
                  "fields": [["name", "i"], ["parent", "i"], ["query", "i"],
                             ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.query, self.start,
                        self.end):
                arr.tofile(fh)

    def layer_metrics(self):
        """The per-layer metrics named in BENCHMARK.json."""
        n = len(self.start)
        names, name, parent = self.names, self.name, self.parent
        start, end = self.start, self.end
        dur = [end[i] - start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_time[p] += dur[i]
        calls = {}
        total = {}
        self_s = {}
        for i in range(n):
            nm = names[name[i]]
            calls[nm] = calls.get(nm, 0) + 1
            total[nm] = total.get(nm, 0.0) + dur[i]
            self_s[nm] = self_s.get(nm, 0.0) + dur[i] - child_time[i]

        def name_of(i):
            return names[name[i]] if i >= 0 else None

        key_misses = set()
        witness_under_sat = 0.0
        for i in range(n):
            nm = names[name[i]]
            if nm == "posets.canonical_key" and \
                    name_of(parent[i]) == "posets.key":
                key_misses.add(parent[i])
            elif nm == "logic.sat_bool" and name_of(parent[i]) == "logic.sat":
                witness_under_sat += dur[i]
        interp_posets = 0
        witness_posets = 0
        for i, size in self.sized:
            nm = names[name[i]]
            outer = name_of(parent[i])
            if nm == "terms.interp" and outer != "terms.interp":
                interp_posets += size
            elif nm in WITNESS_SPACES and outer not in WITNESS_SPACES:
                witness_posets += size
        oracle_calls = calls.get("logic.sat_oracle", 0)
        oracle_s = total.get("logic.sat_oracle", 0.0)
        unknown_s = sum(dur[i] for i in self.unknown_spans)
        key_calls = calls.get("posets.key", 0)

        def c(nm):
            return calls.get(nm, 0)

        def s(nm):
            return self_s.get(nm, 0.0)

        return {
            "posets.restrict.calls": c("posets.restrict"),
            "posets.restrict.s": s("posets.restrict"),
            "posets.canonical_key.calls": c("posets.canonical_key"),
            "posets.canonical_key.s": s("posets.canonical_key"),
            "posets.key.calls": key_calls,
            "posets.key.hit_ratio": (1.0 - len(key_misses) / key_calls
                                     if key_calls else 0.0),
            "posets.find_homomorphism.calls": c("posets.find_homomorphism"),
            "posets.find_homomorphism.s": s("posets.find_homomorphism"),
            "posets.classify_subset.calls": c("posets.classify_subset"),
            "posets.classify_subset.s": s("posets.classify_subset"),
            "posets.witness_space.posets": witness_posets,
            "posets.witness_space.s": sum(s(nm) for nm in WITNESS_SPACES),
            "terms.parse_term.s": s("terms.parse_term"),
            "terms.interp.calls": c("terms.interp"),
            "terms.interp.s": s("terms.interp"),
            "terms.interp.posets": interp_posets,
            "terms.decide.s": s("terms.decide"),
            "logic.sat_bool.calls": c("logic.sat_bool"),
            "logic.sat_bool.s": s("logic.sat_bool"),
            "logic.sat.witness_s": total.get("logic.sat", 0.0)
            - witness_under_sat,
            "logic.sat_oracle.calls": oracle_calls,
            "logic.sat_oracle.s": s("logic.sat_oracle"),
            "logic.sat_oracle.unknown_ratio": (
                len(self.unknown_spans) / oracle_calls
                if oracle_calls else 0.0),
            "logic.sat_oracle.unknown_time_share": (
                unknown_s / oracle_s if oracle_s else 0.0),
            "logic.frame_check.s": s("logic.frame_check"),
            "logic.independent.s": s("logic.independent"),
            "testkit.gen.s": sum(s(nm) for nm in GEN_FUNCS),
        }

    def call_counts(self):
        counts = {}
        for nid in self.name:
            nm = self.names[nid]
            counts[nm] = counts.get(nm, 0) + 1
        return counts
