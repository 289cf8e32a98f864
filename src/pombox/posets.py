"""Posets with boxes: the semantic data model.

A poset here is a finite set of labelled events 0..n-1, a strict order
stored transitively closed, and a set of non-empty boxes (subsets of
events marking protected regions).  All values are immutable after
construction.
"""

import collections
import itertools
import json
import math


class PosetError(ValueError):
    pass


def transitive_closure(n, pairs):
    reach = {i: set() for i in range(n)}
    for a, b in pairs:
        reach[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in range(n):
            extra = set()
            for b in reach[a]:
                extra |= reach[b] - reach[a]
            if extra:
                reach[a] |= extra
                changed = True
    return frozenset((a, b) for a in range(n) for b in reach[a])


# canonical keys are expensive to compute and the same structures recur
# constantly during witness enumeration, so keys are shared globally; a
# key folded from a poset's sp_tree keys its prime pieces through here too
_KEY_CACHE = {}
_KEY_CACHE_LIMIT = 500000


def _is_event(x, n):
    """Whether x is an event id of an n-event poset: an int, as from_json
    demands, since 0.0 and False compare equal to 0 as well."""
    return type(x) is int and 0 <= x < n


class Poset:
    """Immutable labelled poset with boxes."""

    def __init__(self, labels, order, boxes, _checked=False):
        """Validates its input unless _checked, which promises a valid
        poset whose order pairs are tuples and whose boxes are frozensets;
        those are then stored as given."""
        self.labels = tuple(labels)
        self.n = len(self.labels)
        self._key = None
        if _checked:
            self.order = frozenset(order)
            self.boxes = frozenset(boxes)
        else:
            self.order = frozenset((a, b) for a, b in order)
            self.boxes = frozenset(frozenset(b) for b in boxes)
            self._validate()

    def _validate(self):
        for label in self.labels:
            if not _is_label(label):
                raise PosetError("bad label %r: %s" % (label, _LABEL_RULE))
        for (a, b) in self.order:
            if not (_is_event(a, self.n) and _is_event(b, self.n)):
                raise PosetError("bad event id in order pair: %r" % ((a, b),))
            if a == b:
                raise PosetError("order must be irreflexive")
            if (b, a) in self.order:
                raise PosetError("order must be antisymmetric")
        if transitive_closure(self.n, self.order) != self.order:
            raise PosetError("order must be transitively closed")
        for box in self.boxes:
            if not box:
                raise PosetError("boxes must be non-empty")
            if not all(_is_event(e, self.n) for e in box):
                raise PosetError("bad event id in box: %r" % (set(box),))

    def leq(self, a, b):
        return a == b or (a, b) in self.order

    def has_full_box(self):
        return self.n > 0 and frozenset(range(self.n)) in self.boxes

    def without_full_box(self):
        full = frozenset(range(self.n))
        return Poset(self.labels, self.order,
                     [b for b in self.boxes if b != full], _checked=True)

    def restrict(self, A):
        A = set(A)
        if not A <= set(range(self.n)):
            raise PosetError("restriction set out of range")
        kept = sorted(A)
        ren = {old: new for new, old in enumerate(kept)}
        labels = [self.labels[e] for e in kept]
        order = [(ren[a], ren[b]) for (a, b) in self.order
                 if a in A and b in A]
        boxes = [frozenset(ren[e] for e in box)
                 for box in self.boxes if box <= A]
        return Poset(labels, order, boxes, _checked=True)

    def key(self):
        if self._key is None:
            cached = _KEY_CACHE.get(self)
            if cached is None:
                cached = canonical_key(self)
                if len(_KEY_CACHE) >= _KEY_CACHE_LIMIT:
                    _KEY_CACHE.clear()
                _KEY_CACHE[self] = cached
            self._key = cached
        return self._key

    def __repr__(self):
        return "Poset(n=%d, labels=%r, order=%r, boxes=%r)" % (
            self.n, list(self.labels),
            sorted(self.order),
            sorted(sorted(b) for b in self.boxes))

    def __eq__(self, other):
        # structural equality (same indexing), not isomorphism
        return (isinstance(other, Poset)
                and self.labels == other.labels
                and self.order == other.order
                and self.boxes == other.boxes)

    def __hash__(self):
        return hash((self.labels, self.order, self.boxes))


# ---------------------------------------------------------------------------
# constructors


def unit():
    return Poset((), (), (), _checked=True)


def atom(label):
    return Poset((label,), (), ())


def _shift(P, off):
    order = [(a + off, b + off) for (a, b) in P.order]
    boxes = [frozenset(e + off for e in box) for box in P.boxes]
    return order, boxes


def par(P, Q):
    qorder, qboxes = _shift(Q, P.n)
    return Poset(P.labels + Q.labels,
                 list(P.order) + qorder,
                 list(P.boxes) + qboxes, _checked=True)


def seq(P, Q):
    qorder, qboxes = _shift(Q, P.n)
    cross = [(a, b) for a in range(P.n) for b in range(P.n, P.n + Q.n)]
    return Poset(P.labels + Q.labels,
                 list(P.order) + qorder + cross,
                 list(P.boxes) + qboxes, _checked=True)


def boxed(P):
    if P.n == 0:
        return P
    full = frozenset(range(P.n))
    if full in P.boxes:
        return P
    return Poset(P.labels, P.order, list(P.boxes) + [full], _checked=True)


def from_edges(labels, edges, boxes):
    """Build a poset from an arbitrary DAG edge list (closure is taken)."""
    for (a, b) in edges:
        if not (_is_event(a, len(labels)) and _is_event(b, len(labels))):
            raise PosetError("unknown id in order: %r" % ((a, b),))
    return Poset(labels, transitive_closure(len(labels), edges), boxes)


# ---------------------------------------------------------------------------
# structural predicates


def subsets(n):
    """Every subset of the events 0..n-1 as a frozenset, lazily, smallest
    first and in itertools.combinations order within each size."""
    evs = range(n)
    for k in range(n + 1):
        for sub in itertools.combinations(evs, k):
            yield frozenset(sub)


def cuts(P, left=None, right=None):
    """The subsets A of P's events whose sorted labels lie in left and
    whose complement's sorted labels lie in right (None accepts any), in
    the order of subsets(P.n).  The bounded side is built label by label
    from per-label combinations, so cuts of other labels are never
    visited."""
    if left is None and right is None:
        return subsets(P.n)
    total = collections.Counter(P.labels)
    by_label = {}
    for e, label in enumerate(P.labels):
        by_label.setdefault(label, []).append(e)
    all_ev = frozenset(range(P.n))
    found = []
    for labels in (left if left is not None else right):
        counts = collections.Counter(labels)
        if counts - total:
            continue
        if left is not None and right is not None and \
                tuple(sorted((total - counts).elements())) not in right:
            continue
        for parts in itertools.product(
                *[itertools.combinations(by_label[label], k)
                  for label, k in counts.items()]):
            side = frozenset(itertools.chain.from_iterable(parts))
            found.append(side if left is not None else all_ev - side)
    found.sort(key=lambda A: (len(A), sorted(A)))
    return found


def _nested(P, A):
    return all(box <= A or not (box & A) for box in P.boxes)


def _prefix(P, A, comp):
    return all((a, b) in P.order for a in A for b in comp)


def _isolated(P, A, comp):
    return all((a, b) not in P.order and (b, a) not in P.order
               for a in A for b in comp)


def _downset(P, A, comp):
    return all((b, a) not in P.order for a in A for b in comp)


def split_ok(P, A, comp, kind, rel="iso"):
    """Whether splitting P into A and its complement comp is legal for the
    clause kind ("seqthen", "parnext", or "ctx", which keeps only A) under
    rel.  Under iso, A must be box-nested and a prefix (|>) or isolated
    (||); sub drops all but the prefix test, rev relaxes prefix to
    down-set."""
    if kind == "seqthen":
        if rel == "iso":
            return _prefix(P, A, comp) and _nested(P, A)
        if rel == "sub":
            return _prefix(P, A, comp)
        return _nested(P, A) and _downset(P, A, comp)
    if kind == "parnext":
        return rel == "sub" or (_isolated(P, A, comp) and _nested(P, A))
    if kind == "ctx":
        return rel == "sub" or _nested(P, A)
    raise ValueError("bad split kind %r" % (kind,))


def _covers(P):
    """Per event, the events that cover it: above it with nothing between."""
    succ = [set() for _ in range(P.n)]
    for (a, b) in P.order:
        succ[a].add(b)
    return [succ[x].difference(*map(succ.__getitem__, succ[x]))
            for x in range(P.n)]


def _root(up, e):
    """The root of e's class in the union-find forest up (event -> the
    event above it, a root -> itself), halving the path on the way."""
    while up[e] != e:
        up[e] = up[up[e]]
        e = up[e]
    return e


def sp_tree(P):
    """P's series-parallel decomposition by the finest splits split_ok
    allows under iso: a list of nodes (kind, events, children), each before
    its children, a range of indices into the list.  A "box" node's events
    are a box of P, and its one child has them without that box.  The
    children of a "par" node are the classes of its events linked by order
    or a shared box, smallest first, then by sorted events; those of a
    "seq" node are the runs between its legal prefixes, in order.  An
    "atom" node has one event and a "prime" node no legal split; an empty
    P has no nodes."""
    below, above, _ = _degrees(P)
    covers = _covers(P)
    # a node's events are a convex module: every other event lies below all
    # of them (lo such events), above all (hi) or apart, so covers link them
    # as order does.  A par class has one class, a seq run no legal prefix
    todo = [(frozenset(range(P.n)), 0, 0, None)] if P.n else []
    nodes = []
    for evs, lo, hi, parent in todo:  # todo grows as nodes split
        boxes = {box for box in P.boxes
                 if box <= evs and (box != evs or parent != "box")}
        kind, runs = "prime", []
        if evs in boxes:
            kind, runs = "box", [(evs, lo, hi)]
        elif len(evs) == 1:
            kind = "atom"
        if kind == "prime" and parent != "par":
            up = {e: e for e in evs}
            for linked in itertools.chain(boxes, (
                    (x, y) for x in evs for y in covers[x] if y in evs)):
                first, *rest = {_root(up, e) for e in linked}
                for r in rest:
                    up[r] = first
            classes = {}
            for e in evs:
                classes.setdefault(_root(up, e), set()).add(e)
            found = sorted(map(frozenset, classes.values()),
                           key=lambda A: (len(A), sorted(A)))
            if len(found) > 1:
                kind, runs = "par", [(A, lo, hi) for A in found]
        if kind == "prime" and parent != "seq":
            # sorted by how many events lie below, the events are a linear
            # extension; its first i precede the other m - i when all
            # i * (m - i) pairs cross, and are nested when no box straddles
            ext = sorted(evs, key=below.__getitem__)
            m, pos = len(ext), {e: i for i, e in enumerate(ext)}
            straddles = [0] * (m + 1)
            for box in boxes:
                spots = [pos[e] for e in box]
                straddles[min(spots) + 1] += 1
                straddles[max(spots) + 1] -= 1
            ends, cross, straddling = [], 0, 0
            for i, x in enumerate(ext, 1):
                cross += (above[x] - hi) - (below[x] - lo)
                straddling += straddles[i]
                if cross == i * (m - i) and not straddling:
                    ends.append(i)
            if len(ends) > 1:
                kind, runs = "seq", [(frozenset(ext[i:j]), lo + i, hi + m - j)
                                     for i, j in zip([0] + ends, ends)]
        nodes.append((kind, evs, range(len(todo), len(todo) + len(runs))))
        todo.extend(run + (kind,) for run in runs)
    return nodes


# ---------------------------------------------------------------------------
# homomorphisms


def _degrees(P):
    """Per event: how many events lie below it, how many above it, and
    how many boxes contain it."""
    below, above, boxes = [0] * P.n, [0] * P.n, [0] * P.n
    for (a, b) in P.order:
        below[b] += 1
        above[a] += 1
    for box in P.boxes:
        for e in box:
            boxes[e] += 1
    return below, above, boxes


def find_homomorphism(src, tgt):
    """Search for a subsumption map: a label-respecting bijection src ->
    tgt mapping order into order and boxes into boxes.  Returns the map
    as a tuple (src event -> tgt event), or None."""
    if src.n != tgt.n:
        return None
    if sorted(src.labels) != sorted(tgt.labels):
        return None

    s_below, s_above, s_boxc = _degrees(src)
    t_below, t_above, t_boxc = _degrees(tgt)

    def compatible(e, t):
        return (src.labels[e] == tgt.labels[t]
                and s_below[e] <= t_below[t] and s_above[e] <= t_above[t]
                and s_boxc[e] <= t_boxc[t])

    cands = [[t for t in range(tgt.n) if compatible(e, t)]
             for e in range(src.n)]
    if any(not c for c in cands):
        return None
    # assign scarcest events first
    events = sorted(range(src.n), key=lambda e: len(cands[e]))
    h = [None] * src.n
    used = [False] * tgt.n

    def extend(i):
        if i == src.n:
            if all(frozenset(h[e] for e in box) in tgt.boxes
                   for box in src.boxes):
                return tuple(h)
            return None
        e = events[i]
        for t in cands[e]:
            if used[t]:
                continue
            for f in events[:i]:
                if ((e, f) in src.order and (t, h[f]) not in tgt.order) or \
                        ((f, e) in src.order and (h[f], t) not in tgt.order):
                    break
            else:
                h[e] = t
                used[t] = True
                m = extend(i + 1)
                if m is not None:
                    return m
                h[e] = None
                used[t] = False
        return None

    return extend(0)


def iso(P, Q):
    """P and Q are isomorphic: their canonical keys agree."""
    return P.key() == Q.key()


def subsumed_by(P, Q):
    """P is subsumed by Q (P has more order and boxes than Q needs)."""
    return find_homomorphism(Q, P) is not None


def factorize_subsumption(P, Q):
    """If P is subsumed by Q, split the witness into a box-only step and
    an order-only step.  Returns (R1, R2) or None."""
    h = find_homomorphism(Q, P)  # Q-event -> P-event
    if h is None:
        return None
    inv = {h[e]: e for e in range(Q.n)}
    # R1: Q's events and order, P's boxes pulled back
    r1_boxes = [frozenset(inv[x] for x in box) for box in P.boxes]
    R1 = Poset(Q.labels, Q.order, r1_boxes, _checked=True)
    # R2: P's events and order, Q's boxes pushed forward
    r2_boxes = [frozenset(h[x] for x in box) for box in Q.boxes]
    R2 = Poset(P.labels, P.order, r2_boxes, _checked=True)
    return R1, R2


# ---------------------------------------------------------------------------
# witness spaces for the brute-force satisfaction oracle


def steps(P, rel):
    """The posets one step from P in the subsumption order, lazily: under
    "sub" P without one covering pair or one box, under "rev" P plus one
    pair (a, b) of incomparable events and every (x, y) with x <= a and
    b <= y.  Each is a poset, and chains of steps reach every closed
    sub-order with every subset of the boxes (sub) or every order
    extension (rev)."""
    if rel == "sub":
        for a, above in enumerate(_covers(P)):
            for b in above:
                yield Poset(P.labels, P.order - {(a, b)}, P.boxes,
                            _checked=True)
        for box in P.boxes:
            yield Poset(P.labels, P.order, P.boxes - {box}, _checked=True)
        return
    down = [{e} for e in range(P.n)]
    up = [{e} for e in range(P.n)]
    for a, b in P.order:
        down[b].add(a)
        up[a].add(b)
    for a, b in itertools.permutations(range(P.n), 2):
        if b not in up[a] and a not in up[b]:
            added = itertools.product(down[a], up[b])
            yield Poset(P.labels, P.order.union(added), P.boxes,
                        _checked=True)


# ---------------------------------------------------------------------------
# canonical keys


def _event_signatures(P):
    """Iso-invariant fingerprint per event; used to split the permutation
    classes of canonical_key without losing canonicity."""
    preds = [[] for _ in range(P.n)]
    succs = [[] for _ in range(P.n)]
    for (a, b) in P.order:
        succs[a].append(P.labels[b])
        preds[b].append(P.labels[a])
    memb = [[] for _ in range(P.n)]
    for box in P.boxes:
        blabels = tuple(sorted(P.labels[x] for x in box))
        for e in box:
            memb[e].append(blabels)
    return [(P.labels[e], tuple(sorted(preds[e])), tuple(sorted(succs[e])),
             tuple(sorted(memb[e])))
            for e in range(P.n)]


def _twin_classes(P):
    """Events grouped into twins: the same label, predecessors,
    successors and boxes.  Swapping two twins is an automorphism of P."""
    preds = [set() for _ in range(P.n)]
    succs = [set() for _ in range(P.n)]
    for (a, b) in P.order:
        succs[a].add(b)
        preds[b].add(a)
    boxes = [set() for _ in range(P.n)]
    for box in P.boxes:
        for e in box:
            boxes[e].add(box)
    classes = {}
    for e in range(P.n):
        classes.setdefault((P.labels[e], frozenset(preds[e]),
                            frozenset(succs[e]), frozenset(boxes[e])),
                           []).append(e)
    return {e: cls for cls in classes.values() for e in cls}


def _interleavings(classes):
    # every merge of the lists in classes that keeps each list in order
    if not any(classes):
        yield ()
        return
    for i, cls in enumerate(classes):
        if cls:
            rest = classes[:i] + [cls[1:]] + classes[i + 1:]
            for tail in _interleavings(rest):
                yield (cls[0],) + tail


def _merges(classes):
    """How many merges _interleavings(classes) yields: the multinomial of
    the class sizes."""
    sizes = [len(cls) for cls in classes]
    return math.factorial(sum(sizes)) // math.prod(map(math.factorial, sizes))


def _tree_key(P, tree):
    """P's key folded from its sp_tree, children first, as one flat tuple:
    per node in pre-order its kind, its number of children and its label
    (an atom), its own key (a prime piece) or None, with the children of a
    "par" node sorted by their keys.  The encoding is self-delimiting, so
    two keys that agree up to a slot hold the same kind of value there,
    and comparing them never recurses per level."""
    keys = [None] * len(tree)
    for i in reversed(range(len(tree))):
        kind, evs, children = tree[i]
        subs = [keys[c] for c in children]
        payload = None
        if kind == "atom":
            payload = P.labels[min(evs)]
        elif kind == "prime":
            # a piece with a full box sits under the box node that drops it
            payload = P.restrict(evs).without_full_box().key()
        keys[i] = (kind, len(subs), payload) + tuple(itertools.chain(
            *(sorted(subs) if kind == "par" else subs)))
    return keys[0]


def canonical_key(P):
    """P's canonical key: equal keys mean isomorphic posets.

    It is ("form",) + P's canonical form (labels, order, boxes): P
    renumbered by the least relabelling that keeps events in blocks of
    equal iso-invariant signature, blocks in signature order, taken once
    per order of twins.  When that search would try more relabellings
    than P has events, and the root of P's sp_tree is not prime, the key
    is folded from the tree instead (see _tree_key), led by the root's
    kind.  Each choice depends only on P's isomorphism class."""
    sigs = _event_signatures(P)
    groups = {}
    for e in range(P.n):
        groups.setdefault(sigs[e], []).append(e)
    sigs_sorted = sorted(groups)
    if len(groups) == P.n:
        orders = [[groups[s]] for s in sigs_sorted]
    else:
        # orders that differ only among twins give the same encoding, so
        # each signature class is ordered once per merge of its twins
        twins = _twin_classes(P)
        classes = [[twins[e] for e in groups[s] if twins[e][0] == e]
                   for s in sigs_sorted]
        if math.prod(map(_merges, classes)) > P.n:
            tree = sp_tree(P)
            if tree[0][0] != "prime":
                return _tree_key(P, tree)
        orders = [_interleavings(cls) for cls in classes]
    order = list(P.order)
    boxes = [tuple(box) for box in P.boxes]
    best = None
    for combo in itertools.product(*orders):
        # new ids are assigned in blocks per signature class
        ren = {old: new for new, old in
               enumerate(itertools.chain.from_iterable(combo))}
        order_enc = tuple(sorted((ren[a], ren[b]) for (a, b) in order))
        boxes_enc = tuple(sorted(tuple(sorted(ren[e] for e in box))
                                 for box in boxes))
        enc = (order_enc, boxes_enc)
        if best is None or enc < best:
            best = enc
    return ("form", tuple(s[0] for s in sigs_sorted for _ in groups[s])) \
        + best


# ---------------------------------------------------------------------------
# serialization


_LABEL_RULE = "labels are a letter or _, then letters, digits or _, not emp"


def _is_label(text):
    """A label both grammars can write: a name that is not emp, which
    formulas read as the empty pomset."""
    return (isinstance(text, str) and (text[:1].isalpha() or text[:1] == "_")
            and all(c.isalnum() or c == "_" for c in text) and text != "emp")


def _is_id_list(xs):
    return isinstance(xs, list) and all(type(x) is int for x in xs)


def from_json(data):
    if isinstance(data, str):
        data = json.loads(data)
    try:
        events = data["events"]
        order = data.get("order", [])
        boxes = data.get("boxes", [])
    except (TypeError, KeyError):
        raise PosetError("poset JSON needs an 'events' list")
    try:
        ids = [ev["id"] for ev in events]
        labels = [ev["label"] for ev in events]
    except (TypeError, KeyError):
        raise PosetError("every poset JSON event needs an 'id' and a 'label'")
    if not _is_id_list(ids) or sorted(ids) != list(range(len(ids))):
        raise PosetError("event ids must be exactly the ints 0..n-1")
    if not isinstance(order, list) or not all(
            _is_id_list(p) and len(p) == 2 for p in order):
        raise PosetError("poset JSON 'order' must be a list of [id, id] pairs")
    if not isinstance(boxes, list) or not all(map(_is_id_list, boxes)):
        raise PosetError("poset JSON 'boxes' must be a list of id lists")
    labels = [label for _, label in sorted(zip(ids, labels))]
    return from_edges(labels, order, boxes)


def to_json(P):
    return {"events": [{"id": e, "label": P.labels[e]}
                       for e in range(P.n)],
            "order": [list(p) for p in sorted(P.order)],
            "boxes": [sorted(b) for b in
                      sorted(P.boxes, key=lambda b: (len(b), sorted(b)))]}


def transitive_reduction(P):
    return {(a, b) for a, above in enumerate(_covers(P)) for b in above}


def to_dot(P):
    """DOT export: covering edges, boxes as clusters when the box family
    is laminar; overlapping boxes degrade to dashed note nodes."""
    lines = ["digraph poset {", "  rankdir=LR;"]
    boxes = sorted(P.boxes, key=lambda b: (-len(b), sorted(b)))
    clusters = []  # laminar subfamily
    overlapping = []
    for box in boxes:
        if all(box <= other or other <= box or not (box & other)
               for other in clusters):
            clusters.append(box)
        else:
            overlapping.append(box)

    # nest clusters: children of a cluster are the maximal clusters
    # strictly inside it
    roots = [b for b in clusters
             if not any(b < other for other in clusters)]

    emitted = set()

    def emit_cluster(box, indent):
        idx = len(emitted)
        emitted.add(box)
        pad = "  " * indent
        lines.append("%ssubgraph cluster_%d {" % (pad, idx))
        lines.append("%s  style=solid;" % pad)
        inner = [c for c in clusters
                 if c < box and not any(c < m < box for m in clusters)]
        covered = set()
        for c in inner:
            emit_cluster(c, indent + 1)
            covered |= c
        for e in sorted(box - covered):
            lines.append("%s  e%d [label=\"%d:%s\"];" % (pad, e, e,
                                                         P.labels[e]))
        lines.append("%s}" % pad)

    top_covered = set()
    for b in roots:
        emit_cluster(b, 1)
        top_covered |= b
    for e in range(P.n):
        if e not in top_covered:
            lines.append("  e%d [label=\"%d:%s\"];" % (e, e, P.labels[e]))
    for (a, b) in sorted(transitive_reduction(P)):
        lines.append("  e%d -> e%d;" % (a, b))
    for i, box in enumerate(overlapping):
        # not expressible as a cluster; annotate instead
        lines.append("  overlap_%d [shape=note, style=dashed, "
                     "label=\"box: %s\"];" % (
                         i, ",".join(str(e) for e in sorted(box))))
    lines.append("}")
    return "\n".join(lines)
