"""Terms over the box-bimonoid grammar, parsing, interpretation,
series-parallel recognition and synthesis, and the semantic decision
procedures for the four axiom systems.

Term AST nodes are plain tuples:
  ("zero",) ("one",) ("atom", label)
  ("seq", l, r) ("par", l, r) ("join", l, r) ("box", t)
"""

import functools
import itertools

from .posets import unit, atom, seq, par, boxed, subsumed_by, sp_tree

ZERO = ("zero",)
ONE = ("one",)


class ParseError(ValueError):
    """A syntax error at character position pos of the input."""

    def __init__(self, msg, pos):
        super().__init__("%s (at position %d)" % (msg, pos))
        self.pos = pos


class TermSyntaxError(ParseError):
    pass


class FragmentError(ValueError):
    pass


# ---------------------------------------------------------------------------
# parsing and rendering, shared by terms and formulas


def _is_name_start(c):
    return c.isalpha() or c == "_"


class Grammar:
    """An expression grammar as data.  Names are atoms; constants maps a
    token to its node; prefix maps a token to the kind of a unary node
    binding tighter than any infix operator; infix maps a token to (kind,
    precedence, right-associative); brackets maps an opening token to
    (closing token, kind of the node it makes, or None to group).  error
    is raised on bad input and noun says what an operand should be."""

    def __init__(self, error, noun, constants, prefix, infix, brackets):
        self.error, self.noun = error, noun
        self.constants, self.prefix = constants, prefix
        self.infix, self.brackets = infix, brackets
        symbols = [tok for tok in itertools.chain(
            constants, prefix, infix, brackets,
            (close for close, _ in brackets.values()))
            if not _is_name_start(tok[0])]
        self.symbols1 = {tok for tok in symbols if len(tok) == 1}
        self.symbols2 = {tok for tok in symbols if len(tok) == 2}
        # for rendering: the token of each node kind (None: grouping), and
        # a prefix operand binds tighter than every infix operator
        self.token_of = dict(itertools.chain(
            ((node[0], tok) for tok, node in constants.items()),
            ((kind, tok) for tok, kind in prefix.items()),
            ((kind, tok) for tok, (kind, _, _) in infix.items()),
            ((kind, tok) for tok, (_, kind) in brackets.items())))
        self.top = 1 + max(prec for _, prec, _ in infix.values())

    def _tokenize(self, text):
        """(token, position) pairs ending in (None, len(text))."""
        toks = []
        i = 0
        n = len(text)
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
            elif text[i:i + 2] in self.symbols2:
                toks.append((text[i:i + 2], i))
                i += 2
            elif c in self.symbols1:
                toks.append((c, i))
                i += 1
            elif _is_name_start(c):
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                toks.append((text[i:j], i))
                i = j
            else:
                raise self.error("unexpected character %r" % c, i)
        toks.append((None, n))
        return toks

    def parse(self, text):
        """Precedence climbing: one recursion per operand and per nesting
        level, one loop per run of infix operators.  Input nested past the
        interpreter's recursion limit raises the grammar's error."""
        toks = self._tokenize(text)
        infix, prefix = self.infix, self.prefix
        brackets, constants = self.brackets, self.constants
        i = 0

        def operand():
            nonlocal i
            tok, where = toks[i]
            if tok in prefix:
                i += 1
                return (prefix[tok], operand())
            if tok in brackets:
                close, kind = brackets[tok]
                i += 1
                t = expression(0)
                if toks[i][0] != close:
                    raise self.error("expected '%s'" % close, toks[i][1])
                i += 1
                return t if kind is None else (kind, t)
            if tok in constants:
                i += 1
                return constants[tok]
            if tok is not None and _is_name_start(tok[0]):
                i += 1
                return ("atom", tok)
            raise self.error("expected a %s" % self.noun, where)

        def expression(min_prec):
            nonlocal i
            t = operand()
            while toks[i][0] in infix:
                kind, prec, right = infix[toks[i][0]]
                if prec < min_prec:
                    break
                i += 1
                t = (kind, t, expression(prec if right else prec + 1))
            return t

        try:
            t = expression(0)
        except RecursionError:
            raise self.error("input nested too deeply", toks[i][1]) from None
        if toks[i][0] is not None:
            raise self.error("trailing input", toks[i][1])
        return t

    def render(self, t, outer=0):
        """The text of an AST with the fewest parentheses that parse back
        to it; outer is the precedence the context demands."""
        if t[0] == "atom":
            return t[1]
        tok = self.token_of[t[0]]
        if tok in self.constants:
            return tok
        if tok in self.prefix:
            return tok + self.render(t[1], self.top)
        if tok in self.brackets:
            return tok + self.render(t[1]) + self.brackets[tok][0]
        _, prec, right = self.infix[tok]
        # the operand on the associative side may hold the same operator
        lprec, rprec = (prec + 1, prec) if right else (prec, prec + 1)
        s = self.render(t[1], lprec) + tok + self.render(t[2], rprec)
        if prec < outer:
            tok = self.token_of[None]
            s = tok + s + self.brackets[tok][0]
        return s


_TERMS = Grammar(TermSyntaxError, "term",
                 constants={"0": ZERO, "1": ONE},
                 prefix={},
                 infix={"+": ("join", 1, False), "|": ("par", 2, False),
                        ";": ("seq", 3, False)},
                 brackets={"(": (")", None), "[": ("]", "box")})
parse_term = _TERMS.parse


def render_term(t):
    return _TERMS.render(t)


def kinds(t):
    """The kind of every node of the term or formula t, outermost first; a
    loop, so depth costs no stack.  Every operand is a node, except the
    label of an atom."""
    todo = [t]
    for node in todo:  # todo grows as the walk goes down
        yield node[0]
        if node[0] != "atom":
            todo += node[1:]


def is_sp(t):
    return not any(kind in ("zero", "join") for kind in kinds(t))


# ---------------------------------------------------------------------------
# interpretation


def interp_sp(t):
    """The one poset of a series-parallel term, numbered as interp numbers
    it: the left operand of seq/par occupies the lower event ids."""
    if not is_sp(t):
        raise FragmentError("a series-parallel term is needed: no 0 and no +")
    return interp(t)[0]


def dedup(ps):
    """ps without isomorphic repeats, in canonical-key order; fewer than
    two posets are returned as given, with no key computed."""
    if len(ps) < 2:
        return ps
    seen = {}
    for p in ps:
        seen.setdefault(p.key(), p)
    return [seen[k] for k in sorted(seen)]


def interp(t):
    """Interpret a full term as a finite set of posets (list, deduplicated
    by isomorphism, in canonical-key order)."""
    kind = t[0]
    if kind == "zero":
        return []
    if kind == "one":
        return [unit()]
    if kind == "atom":
        return [atom(t[1])]
    if kind == "join":
        return dedup(interp(t[1]) + interp(t[2]))
    if kind == "seq":
        return dedup([seq(p, q) for p in interp(t[1]) for q in interp(t[2])])
    if kind == "par":
        return dedup([par(p, q) for p in interp(t[1]) for q in interp(t[2])])
    if kind == "box":
        return dedup([boxed(p) for p in interp(t[1])])
    raise ValueError("bad term node %r" % (kind,))


def expand(t):
    """Rewrite a term into the list of series-parallel terms whose
    interpretations make up its own (syntactic duplicates kept)."""
    kind = t[0]
    if kind == "zero":
        return []
    if kind in ("one", "atom"):
        return [t]
    if kind == "join":
        return expand(t[1]) + expand(t[2])
    if kind == "seq":
        return [("seq", a, b) for a in expand(t[1]) for b in expand(t[2])]
    if kind == "par":
        return [("par", a, b) for a in expand(t[1]) for b in expand(t[2])]
    if kind == "box":
        return [("box", a) for a in expand(t[1])]
    raise ValueError("bad term node %r" % (kind,))


# ---------------------------------------------------------------------------
# series-parallel recognition (forbidden patterns)


class PatternWitness:
    def __init__(self, pattern, events, boxes):
        self.pattern = pattern
        self.events = tuple(events)
        self.boxes = tuple(frozenset(b) for b in boxes)

    def as_dict(self):
        return {"pattern": self.pattern,
                "events": list(self.events),
                "boxes": [sorted(b) for b in self.boxes]}

    def __repr__(self):
        return "PatternWitness(%s, events=%r, boxes=%r)" % (
            self.pattern, list(self.events),
            [sorted(b) for b in self.boxes])


def sp_check(P):
    """None when P is series-parallel, else the first forbidden pattern
    found under a deterministic scan (P1, then P2, P3, P4)."""
    le = P.leq
    for e1, e2, e3, e4 in itertools.permutations(range(P.n), 4):
        if (le(e1, e3) and le(e2, e3) and le(e2, e4)
                and not le(e1, e4) and not le(e2, e1)
                and not le(e4, e3)):
            return PatternWitness("P1", (e1, e2, e3, e4), ())
    boxes = sorted(P.boxes, key=lambda b: (len(b), sorted(b)))
    for A, B in itertools.combinations(boxes, 2):
        if A - B and A & B and B - A:
            return PatternWitness("P2", (min(A - B), min(A & B), min(B - A)),
                                  (A, B))
    for A in boxes:
        for e1 in range(P.n):
            if e1 in A:
                continue
            for e2 in sorted(A):
                for e3 in sorted(A):
                    if le(e1, e2) and not le(e1, e3):
                        return PatternWitness("P3", (e1, e2, e3), (A,))
                    if le(e2, e1) and not le(e3, e1):
                        return PatternWitness("P4", (e1, e2, e3), (A,))
    return None


def synthesize_term(P):
    """A series-parallel term denoting P, folded from P's sp_tree children
    first, or None when P contains a forbidden pattern."""
    tree = sp_tree(P)
    subs = [None] * len(tree)
    for i in reversed(range(len(tree))):
        kind, evs, children = tree[i]
        if kind == "prime":
            return None
        if kind == "atom":
            subs[i] = ("atom", P.labels[min(evs)])
        elif kind == "box":
            subs[i] = ("box", subs[children[0]])
        else:
            subs[i] = functools.reduce(lambda r, l: (kind, l, r),
                                       [subs[c] for c in reversed(children)])
    return subs[0] if tree else ONE


# ---------------------------------------------------------------------------
# set-level relations and the decision procedures


def set_rel(A, B, rel):
    if rel == "iso_eq":
        return {p.key() for p in A} == {q.key() for q in B}
    if rel == "subsume":
        return all(any(subsumed_by(p, q) for q in B) for p in A)
    raise ValueError("bad set relation %r" % (rel,))


def decide(sys, lhs, rhs, kind):
    """Semantic decision of provability in the chosen axiom system."""
    if sys not in ("bsp", "cmb", "bsr", "csrb"):
        raise ValueError("unknown system %r" % (sys,))
    if kind not in ("eq", "leq"):
        raise ValueError("kind must be eq or leq")
    if sys in ("bsp", "cmb"):
        for t in (lhs, rhs):
            if not is_sp(t):
                raise FragmentError(
                    "system %s only accepts terms without 0 and +" % sys)
    if (sys, kind) in (("bsp", "leq"), ("bsr", "leq")):
        raise ValueError("system %s has no inequational theory here; "
                         "use cmb or csrb for leq" % sys)
    A = interp(lhs)
    B = interp(rhs)
    if sys in ("bsp", "bsr"):
        return set_rel(A, B, "iso_eq")
    # cmb and csrb: subsumption, pointwise, checked both ways for eq
    return set_rel(A, B, "subsume") and (
        kind == "leq" or set_rel(B, A, "subsume"))
