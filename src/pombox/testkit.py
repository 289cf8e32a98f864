"""Seeded random generators and the differential harness that
cross-checks the compositional satisfaction engine against the
brute-force oracle, shrinking each mismatch it finds: what `pombox fuzz`
and the benchmark run.  The slow references that tests compare the
library against live with the tests."""

import random

from . import posets, logic


# gen_poset tries this many times to add a box
_BOX_ATTEMPTS = 3


class GenConfig:
    def __init__(self, max_events=4, alphabet_size=3, term_depth=3,
                 formula_depth=3, seed=0):
        assert max_events >= 0
        assert alphabet_size >= 1 and term_depth >= 0 and formula_depth >= 0
        self.max_events = max_events
        self.alphabet_size = alphabet_size
        self.term_depth = term_depth
        self.formula_depth = formula_depth
        self.seed = seed

    def rng(self):
        return random.Random(self.seed)

    def alphabet(self):
        return [chr(ord("a") + i) for i in range(self.alphabet_size)]


def gen_poset(cfg, rng=None):
    rng = rng or cfg.rng()
    n = rng.randint(0, cfg.max_events)
    labels = [rng.choice(cfg.alphabet()) for _ in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                edges.append((i, j))
    boxes = []
    for _ in range(_BOX_ATTEMPTS):
        if n == 0 or rng.random() < 0.5:
            continue
        if rng.random() < 0.7:
            # contiguous id range: biased toward nested configurations
            i = rng.randrange(n)
            j = rng.randrange(i, n)
            box = set(range(i, j + 1))
        else:
            # arbitrary subset: overlapping/straddling boxes do occur
            box = set(e for e in range(n) if rng.random() < 0.5)
        if box:
            boxes.append(box)
    return posets.from_edges(labels, edges, boxes)


# The random grammars as rows of (cumulative weight, node kind): a draw k
# in [0, 1) picks the first row with k < weight.  At depth 0 the node is
# drawn uniformly from the constants, in row order, followed by an atom.
_SP_TERM = ((0.25, "atom"), (0.3, "one"), (0.55, "seq"), (0.8, "par"),
            (1, "box"))
_TERM = ((0.2, "atom"), (0.25, "one"), (0.3, "zero"), (0.5, "seq"),
         (0.7, "par"), (0.85, "join"), (1, "box"))
_FORMULA = ((0.15, "atom"), (0.2, "emp"), (0.3, "and"), (0.4, "or"),
            (0.5, "neg"), (0.65, "seqthen"), (0.8, "parnext"),
            (0.9, "boxmod"), (1, "ctx"))
_ARITY = {"atom": 0, "one": 0, "zero": 0, "emp": 0,
          "box": 1, "neg": 1, "boxmod": 1, "ctx": 1,
          "seq": 2, "par": 2, "join": 2,
          "and": 2, "or": 2, "seqthen": 2, "parnext": 2}


def _walk(rows, cfg, rng, depth):
    if depth <= 0:
        # seeded streams draw the atom's label before choosing the leaf
        atom = ("atom", rng.choice(cfg.alphabet()))
        return rng.choice([(kind,) for _, kind in rows
                           if _ARITY[kind] == 0 and kind != "atom"] + [atom])
    k = rng.random()
    kind = next(kind for weight, kind in rows if k < weight)
    if kind == "atom":
        return ("atom", rng.choice(cfg.alphabet()))
    return (kind,) + tuple(_walk(rows, cfg, rng, depth - 1)
                           for _ in range(_ARITY[kind]))


def gen_sp_term(cfg, rng=None, depth=None):
    depth = cfg.term_depth if depth is None else depth
    return _walk(_SP_TERM, cfg, rng or cfg.rng(), depth)


def gen_term(cfg, rng=None, depth=None):
    depth = cfg.term_depth if depth is None else depth
    return _walk(_TERM, cfg, rng or cfg.rng(), depth)


def gen_formula(cfg, positive=False, rng=None, depth=None):
    """A random formula; a positive one has no negation."""
    depth = cfg.formula_depth if depth is None else depth
    rows = [row for row in _FORMULA if not (positive and row[1] == "neg")]
    return _walk(rows, cfg, rng or cfg.rng(), depth)


class Discrepancy:
    def __init__(self, poset, formula, relation, expected, actual,
                 shrunk=False):
        self.poset = poset
        self.formula = formula
        self.relation = relation
        self.expected = expected
        self.actual = actual
        self.shrunk = shrunk

    def as_dict(self):
        return {"poset": posets.to_json(self.poset),
                "formula": logic.render_formula(self.formula),
                "relation": self.relation,
                "expected": self.expected,
                "actual": self.actual,
                "shrunk": self.shrunk}

    def replayable(self):
        actual = logic.sat_bool(self.poset, self.formula, self.relation)
        expected = logic.sat_oracle(self.poset, self.formula, self.relation)
        return expected != logic.UNKNOWN and actual != expected

    def __repr__(self):
        return "Discrepancy(%r)" % (self.as_dict(),)


def _formula_shrinks(f):
    yield logic.EMP
    for sub in f[1:]:
        if isinstance(sub, tuple):
            yield sub


def shrink(d):
    """Greedy shrinking: drop events, then replace the formula by
    subformulas, while the mismatch persists."""
    P, f, rel = d.poset, d.formula, d.relation
    changed = True
    while changed:
        changed = False
        for e in range(P.n):
            smaller = P.restrict(set(range(P.n)) - {e})
            cand = Discrepancy(smaller, f, rel, d.expected, d.actual, True)
            if cand.replayable():
                P = smaller
                changed = True
                break
        if changed:
            continue
        for g in _formula_shrinks(f):
            cand = Discrepancy(P, g, rel, d.expected, d.actual, True)
            if cand.replayable():
                f = g
                changed = True
                break
    actual = logic.sat_bool(P, f, rel)
    expected = logic.sat_oracle(P, f, rel)
    return Discrepancy(P, f, rel, expected, actual, True)


def differential_run(cfg, n_cases, relations=logic.RELATIONS):
    """Compare the engine against the oracle on random cases; returns the
    shrunk discrepancies."""
    rng = cfg.rng()
    out = []
    for _ in range(n_cases):
        P = gen_poset(cfg, rng)
        for rel in relations:
            f = gen_formula(cfg, positive=(rel != "iso"), rng=rng)
            expected = logic.sat_oracle(P, f, rel)
            if expected == logic.UNKNOWN:
                continue
            actual = logic.sat_bool(P, f, rel)
            if actual != expected:
                out.append(shrink(Discrepancy(P, f, rel, expected, actual)))
    return out
