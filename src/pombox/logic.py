"""Pomset logic: formulas, the satisfaction engine for the three
relations (iso, sub, rev), the brute-force oracle, set-level
quantifiers, term-to-formula translation, independence and frame-rule
checking.

Formula AST nodes are plain tuples:
  ("emp",) ("atom", label)
  ("and", f, g) ("or", f, g) ("neg", f)
  ("seqthen", f, g) ("parnext", f, g)
  ("boxmod", f) ("ctx", f)

Relations: "iso" (isomorphism), "sub" (the poset may be weaker than the
formula demands: witnesses drop order/boxes), "rev" (witnesses add
order/boxes).
"""

import functools

from . import terms
from .posets import (Poset, unit, atom, seq, par, iso, subsumed_by,
                     steps, subsets, cuts, split_ok, _is_id_list)
from .terms import FragmentError

EMP = ("emp",)

RELATIONS = ("iso", "sub", "rev")

UNKNOWN = "unknown"


class FormulaSyntaxError(terms.ParseError):
    pass


_FORMULAS = terms.Grammar(
    FormulaSyntaxError, "formula",
    constants={"emp": EMP},
    prefix={"~": "neg", "<>": "ctx"},
    infix={"\\/": ("or", 1, False), "/\\": ("and", 2, False),
           "||": ("parnext", 3, False), "|>": ("seqthen", 4, True)},
    brackets={"(": (")", None), "[": ("]", "boxmod")})
parse_formula = _FORMULAS.parse


def render_formula(f):
    return _FORMULAS.render(f)


def positive(f):
    return "neg" not in terms.kinds(f)


def contains_boxmod(f):
    return "boxmod" in terms.kinds(f)


# ---------------------------------------------------------------------------
# the compositional satisfaction engine


_MEMO = {}

_SPLITS = ("seqthen", "parnext", "ctx")


def _check_query(f, rel):
    if rel not in RELATIONS:
        raise ValueError("bad relation %r" % (rel,))
    if rel != "iso" and not positive(f):
        raise FragmentError("negation is only available under iso")


def sat_bool(P, f, rel):
    _check_query(f, rel)
    return _sat(P, f, rel)


def _sat(P, f, rel):
    key = (P.key(), f, rel)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    res = _choose(P, f, rel) is not None
    _MEMO[key] = res
    return res


def _box_interior(P, rel):
    """The poset a box modality's subformula is checked on, or None when
    P lacks the full box the relation demands."""
    if P.n == 0:
        return P
    if rel in ("iso", "sub") and not P.has_full_box():
        return None
    return P.without_full_box()


# a formula whose label multisets outnumber this is treated as unbounded
_SHAPE_LIMIT = 64


@functools.lru_cache(maxsize=4096)
def shape(f):
    """The sorted label tuples of every poset f can hold on, under any
    relation, as a frozenset; None when f does not bound them.  Atoms and
    emp fix their events, |> and || split the events between their
    operands, and a box modality keeps every event."""
    kind = f[0]
    if kind == "emp":
        return frozenset({()})
    if kind == "atom":
        return frozenset({(f[1],)})
    if kind == "boxmod":
        return shape(f[1])
    if kind not in ("and", "or", "seqthen", "parnext"):
        return None
    left, right = shape(f[1]), shape(f[2])
    if kind == "and":
        if left is None or right is None:
            return right if left is None else left
        return left & right
    if left is None or right is None:
        return None
    if kind == "or":
        out = left | right
    else:
        out = frozenset(tuple(sorted(l + r)) for l in left for r in right)
    return out if len(out) <= _SHAPE_LIMIT else None


def _boxed_cuts(P, f, left, right):
    """The cuts A of P the split clause f tries under iso and sub when an
    operand is a box modality, in the order of posets.subsets: a [g]
    operand's side is empty or one of P's boxes (see _choose), and both
    sides carry label multisets the operands' shapes left and right
    admit, as in posets.cuts."""
    all_ev = frozenset(range(P.n))
    sides = P.boxes | {frozenset()}
    comps = {all_ev - B for B in sides}
    found = (sides if f[1][0] == "boxmod" else comps) & \
        (comps if f[0] != "ctx" and f[2][0] == "boxmod" else sides)

    def fits(A, bound):
        return bound is None or \
            tuple(sorted(P.labels[e] for e in A)) in bound
    return sorted((A for A in found
                   if fits(A, left) and fits(all_ev - A, right)),
                  key=lambda A: (len(A), sorted(A)))


def _choose(P, f, rel):
    """How the top clause of f holds on P: the split A for |>, || and <>,
    "left" or "right" for \\/, True for the other clauses, and None when
    the clause fails.  The empty split is a valid choice, so callers test
    the result against None.

    A split clause tries only the cuts whose sides carry label multisets
    its operands' shapes admit.  Under iso and sub it also tries a [g]
    operand's side only when that side is empty or one of P's boxes
    (_boxed_cuts): a box modality holds on a non-empty poset only when
    that poset is one box (_box_interior), and P.restrict(A) keeps just
    the boxes inside A, so it has the full box exactly when A is one of
    P's boxes.  Every other cut would fail on that side.  Under rev any
    side may be boxed, so no cut is dropped there."""
    kind = f[0]
    if kind in _SPLITS:
        all_ev = frozenset(range(P.n))
        left = shape(f[1])
        right = None if kind == "ctx" else shape(f[2])
        # f[-1] is the right operand, or the only one of a <>
        if rel == "rev" or "boxmod" not in (f[1][0], f[-1][0]):
            found = cuts(P, left, right)
        else:
            found = _boxed_cuts(P, f, left, right)
        for A in found:
            comp = all_ev - A
            if not split_ok(P, A, comp, kind, rel):
                continue
            if _sat(P.restrict(A), f[1], rel) and (
                    kind == "ctx" or _sat(P.restrict(comp), f[2], rel)):
                return A
        return None
    if kind == "or":
        if _sat(P, f[1], rel):
            return "left"
        return "right" if _sat(P, f[2], rel) else None
    if kind == "emp":
        ok = P.n == 0
    elif kind == "atom":
        ok = (P.n == 1 and P.labels[0] == f[1]
              and (rel == "sub" or not P.boxes))
    elif kind == "and":
        ok = _sat(P, f[1], rel) and _sat(P, f[2], rel)
    elif kind == "neg":
        ok = not _sat(P, f[1], rel)
    elif kind == "boxmod":
        inner = _box_interior(P, rel)
        ok = inner is not None and _sat(inner, f[1], rel)
    else:
        raise ValueError("bad formula node %r" % (kind,))
    return True if ok else None


class SatResult:
    def __init__(self, truth, witness):
        self.truth = truth
        self.witness = witness

    def __bool__(self):
        return self.truth

    def __repr__(self):
        return "SatResult(%r, %r)" % (self.truth, self.witness)


def sat(P, f, rel="iso"):
    truth = sat_bool(P, f, rel)
    return SatResult(truth, _witness(P, f, rel) if truth else None)


def _witness(P, f, rel):
    """Rebuild a structured trace for a query known to hold by following
    the choices of _choose."""
    kind = f[0]
    if kind in ("emp", "neg"):
        return {"rule": kind}
    if kind == "atom":
        return {"rule": "atom", "label": f[1]}
    if kind == "and":
        return {"rule": "and", "left": _witness(P, f[1], rel),
                "right": _witness(P, f[2], rel)}
    if kind == "boxmod":
        return {"rule": "boxmod",
                "sub": _witness(_box_interior(P, rel), f[1], rel)}
    how = _choose(P, f, rel)
    if how is None:
        raise AssertionError("witness lost")
    if kind == "or":
        sub = f[1] if how == "left" else f[2]
        return {"rule": "or", "side": how, "sub": _witness(P, sub, rel)}
    if kind == "ctx":
        return {"rule": "ctx", "A": sorted(how),
                "sub": _witness(P.restrict(how), f[1], rel)}
    comp = frozenset(range(P.n)) - how
    return {"rule": kind, "A": sorted(how),
            "left": _witness(P.restrict(how), f[1], rel),
            "right": _witness(P.restrict(comp), f[2], rel)}


def replay(P, f, rel, witness):
    """Re-derive truth from a recorded witness trace; False when the
    trace does not derive f on P, malformed traces included."""
    kind = f[0]
    if not isinstance(witness, dict) or witness.get("rule") != kind:
        return False
    if kind in ("emp", "atom"):
        return _choose(P, f, rel) is not None
    if kind == "and":
        return (replay(P, f[1], rel, witness.get("left"))
                and replay(P, f[2], rel, witness.get("right")))
    if kind == "or":
        side = witness.get("side")
        if side not in ("left", "right"):
            return False
        sub = f[1] if side == "left" else f[2]
        return replay(P, sub, rel, witness.get("sub"))
    if kind == "neg":
        # negative subgoals carry no constructive trace
        return not _sat(P, f[1], rel)
    if kind in _SPLITS:
        if not _is_id_list(witness.get("A")):
            return False
        A = frozenset(witness["A"])
        all_ev = frozenset(range(P.n))
        comp = all_ev - A
        if not A <= all_ev or not split_ok(P, A, comp, kind, rel):
            return False
        if kind == "ctx":
            return replay(P.restrict(A), f[1], rel, witness.get("sub"))
        return (replay(P.restrict(A), f[1], rel, witness.get("left"))
                and replay(P.restrict(comp), f[2], rel, witness.get("right")))
    if kind == "boxmod":
        inner = _box_interior(P, rel)
        return inner is not None and replay(inner, f[1], rel,
                                            witness.get("sub"))
    return False


# ---------------------------------------------------------------------------
# brute-force oracle: definition-level witness enumeration


def _witness_space(P, run, f):
    """Witness posets for the clause f on P, one per isomorphism class, by
    a depth-first walk from P: pop a poset, yield it, and push each poset
    one step away whose key is new.  Steps commute with isomorphism, so
    expanding one poset per class reaches every class, and a caller that
    stops at the first witness that holds walks no further.  Each poset a
    step makes costs one budget step, and each new class 20 more.
    Under sub a box-free f drops P's boxes, which only ever hurt it.
    Under rev the witnesses are P's order extensions with P's boxes, and
    for a box modality the full box too.  No other new box helps: without
    it a legal cut stays legal and its parts are weaker, and whatever
    holds under rev holds on every weaker poset."""
    if run.rel == "iso":
        yield P
        return
    if run.rel == "sub" and not contains_boxmod(f):
        P = Poset(P.labels, P.order, (), _checked=True)
    elif run.rel == "rev" and f[0] == "boxmod":
        P = Poset(P.labels, P.order, P.boxes | {frozenset(range(P.n))},
                  _checked=True)
    seen = {P.key()}
    stack = [P]
    while stack:
        W = stack.pop()
        yield W
        for V in steps(W, run.rel):
            run.tick()
            if V.key() not in seen:
                run.tick(20)
                seen.add(V.key())
                stack.append(V)


class _BudgetExhausted(Exception):
    pass


# evaluation steps allowed per top-level oracle call; nested witness walks
# can explode combinatorially, so past this the call gives up and answers
# "unknown"; nothing else bounds a wide witness space, so it is kept small
# enough that such a call ends within seconds
_ORACLE_BUDGET = 600000

# emp and atom answers, shared by every call: a leaf costs a call one step
# whether computed or looked up, so sharing changes no answer or budget
_LEAVES = {}


class _Run:
    """One sat_oracle call: relation, budget left and memo."""

    def __init__(self, rel):
        self.rel = rel
        self.budget = _ORACLE_BUDGET
        self.memo = {}

    def tick(self, weight=1):
        self.budget -= weight
        if self.budget < 0:
            raise _BudgetExhausted()


def sat_oracle(P, f, rel="iso", cap=None):
    """Evaluate satisfaction by direct witness enumeration over
    the posets below or above P, decompositions found by explicit subset
    search on the witness.  Returns True, False or "unknown": unknown
    means the work budget ran out before the answer was found.  Witness
    spaces are read lazily, and a split or box modality stops at the
    first witness that holds.  Conjunctions, disjunctions and the two
    parts of a |> or || cut read emp and atom operands first and stop at
    the first that decides; the connectives are commutative, so the order
    changes no answer, only how much budget it costs.  A call owns its
    budget and memo: no earlier call changes its answer.  cap is ignored:
    rev witnesses add no box but the full box a box modality asks for, so
    there is no box count to bound.  It is kept because the benchmark's
    workloads pass it."""
    _check_query(f, rel)
    try:
        return _oracle(_Run(rel), P, f)
    except _BudgetExhausted:
        return UNKNOWN


def _oracle(run, P, f):
    run.tick()
    memo = _LEAVES if f[0] in ("emp", "atom") else run.memo
    key = (P.key(), f, run.rel)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = _oracle_raw(run, P, f)
    return hit


def _leaves_first(run, W, parts):
    """The oracle's answers on W's (formula, events) parts, emp and atom
    formulas first, read lazily: a leaf costs one step, so a False
    conjunct or True disjunct there spares the costly parts.  Events None
    stand for all of W; other parts are restricted only when read.  The
    sort is stable and the connectives are commutative, so the order
    changes no answer, only how much budget it costs."""
    parts = sorted(parts, key=lambda part: part[0][0] not in ("emp", "atom"))
    for g, evs in parts:
        yield _oracle(run, W if evs is None else W.restrict(evs), g)


def _oracle_raw(run, P, f):
    kind = f[0]
    if kind in ("emp", "atom"):
        Q = unit() if kind == "emp" else atom(f[1])
        if run.rel == "iso":
            return iso(P, Q)
        return subsumed_by(P, Q) if run.rel == "sub" else subsumed_by(Q, P)
    if kind in ("and", "or"):
        read = _leaves_first(run, P, ((g, None) for g in f[1:]))
        return all(read) if kind == "and" else any(read)
    if kind == "neg":
        return not _oracle(run, P, f[1])

    if kind == "boxmod" and P.n == 0:
        return _oracle(run, P, f[1])
    space = _witness_space(P, run, f)
    if kind in _SPLITS:
        # every witness is checked up to isomorphism, so the split rule
        # is always the iso one; a cut holds when both its parts do, and
        # <> has only the first
        def cuts_hold():
            for W in space:
                all_ev = frozenset(range(W.n))
                for A in subsets(W.n):
                    run.tick(3)
                    comp = all_ev - A
                    if split_ok(W, A, comp, kind):
                        yield all(_leaves_first(run, W, zip(f[1:], (A, comp))))
        return any(cuts_hold())
    if kind == "boxmod":
        return any(_oracle(run, W.without_full_box(), f[1])
                   for W in space if W.has_full_box())
    raise ValueError("bad formula node %r" % (kind,))


# ---------------------------------------------------------------------------
# set-level satisfaction


def sat_set(X, f, rel="iso", quant="all"):
    _check_query(f, rel)
    if isinstance(X, tuple):
        X = terms.interp(X)
    if quant == "all":
        return all(_sat(P, f, rel) for P in X)
    if quant == "some":
        return any(_sat(P, f, rel) for P in X)
    raise ValueError("quantifier must be all or some")


# ---------------------------------------------------------------------------
# formulas from terms


def phi_of_sp(s):
    kind = s[0]
    if kind == "one":
        return EMP
    if kind == "atom":
        return ("atom", s[1])
    if kind == "seq":
        return ("seqthen", phi_of_sp(s[1]), phi_of_sp(s[2]))
    if kind == "par":
        return ("parnext", phi_of_sp(s[1]), phi_of_sp(s[2]))
    if kind == "box":
        # a box modality describes the box interior, so a subterm that
        # already carries its full box is the box's formula itself
        inner = phi_of_sp(s[1])
        if terms.interp_sp(s[1]).has_full_box():
            return inner
        return ("boxmod", inner)
    raise FragmentError("phi_of_sp needs a series-parallel term")


def phi_of_term(e):
    parts = terms.expand(e)
    if not parts:
        raise ValueError("term denotes the empty set: no formula")
    f = phi_of_sp(parts[0])
    for s in parts[1:]:
        f = ("or", f, phi_of_sp(s))
    return f


# ---------------------------------------------------------------------------
# independence, frame rules, substitution


def independent(P, f, rel="iso"):
    return not sat_bool(P, ("ctx", ("boxmod", f)), rel)


# frame shape: how P and the frame Q compose, the clause, if Q comes first
_FRAMES = {"par": (par, "parnext", False),
           "seq_suffix": (seq, "seqthen", False),
           "seq_prefix": (seq, "seqthen", True)}


def _frame(shape):
    if shape not in _FRAMES:
        raise ValueError("shape must be par, seq_suffix or seq_prefix")
    return _FRAMES[shape]


def compose_frame(P, Q, shape):
    compose, _, first = _frame(shape)
    return compose(Q, P) if first else compose(P, Q)


def frame_formula(psi, f, shape):
    _, kind, first = _frame(shape)
    boxf = ("boxmod", f)
    return (kind, boxf, psi) if first else (kind, psi, boxf)


def frame_check(P, Q, f, psi, shape, rel="iso"):
    """Report on one frame-rule instance: are the side conditions met,
    and does the biconditional between the local and the composed
    judgement hold."""
    indep = independent(P, f, rel)
    q_boxed = sat_bool(Q, ("boxmod", f), rel)
    lhs = sat_bool(P, psi, rel)
    composed = compose_frame(P, Q, shape)
    rhs = sat_bool(composed, frame_formula(psi, f, shape), rel)
    return {
        "shape": shape,
        "relation": rel,
        "independent": indep,
        "q_sat_boxed": q_boxed,
        "preconditions": indep and q_boxed,
        "local": lhs,
        "composed": rhs,
        "left_to_right": (not lhs) or rhs,
        "right_to_left": (not rhs) or lhs,
        "biconditional": lhs == rhs,
    }


def substitute_term(e, sigma):
    """Replace every atom whose label sigma maps, in a term or a formula."""
    kind = e[0]
    if kind == "atom":
        return sigma.get(e[1], e)
    return (kind,) + tuple(substitute_term(sub, sigma) for sub in e[1:])


substitute_formula = substitute_term
