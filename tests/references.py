"""The slow, definition-level references that tests compare the library
against: the pruning-free homomorphism search, the subset flags and split
checks from their definitions, the forbidden patterns, the brute-force
canonical key, the all-subsets split and synthesis searches, and the
strengthenings with any new boxes, the rev witness space by definition."""

import itertools

from pombox import posets, logic, terms


# homomorphism modes: ANY maps order into order and boxes into boxes, ISO
# also needs every target pair and box to be an image
ANY = "any"
ISO = "iso"


def hom_ok(src, tgt, h, mode=ANY):
    """Whether h (src event -> tgt event) is a label-respecting bijection
    that is a homomorphism of the given mode."""
    if mode not in (ANY, ISO):
        raise ValueError("bad mode %r" % (mode,))
    if sorted(h) != list(range(tgt.n)) or len(h) != src.n or any(
            src.labels[e] != tgt.labels[h[e]] for e in range(src.n)):
        return False
    order = {(h[a], h[b]) for (a, b) in src.order}
    boxes = {frozenset(h[e] for e in box) for box in src.boxes}
    if not order <= tgt.order or not boxes <= tgt.boxes:
        return False
    return mode == ANY or (order == tgt.order and boxes == tgt.boxes)


def find_hom_reference(src, tgt, mode=ANY):
    """Pruning-free exhaustive homomorphism search of the given mode, the
    reference for posets.find_homomorphism.  Returns the map as a tuple,
    or None."""
    if src.n != tgt.n:
        return None
    if sorted(src.labels) != sorted(tgt.labels):
        return None
    by_label = {}
    for e in range(tgt.n):
        by_label.setdefault(tgt.labels[e], []).append(e)
    src_groups = {}
    for e in range(src.n):
        src_groups.setdefault(src.labels[e], []).append(e)
    labels = sorted(src_groups)
    for combo in itertools.product(
            *[itertools.permutations(by_label[l]) for l in labels]):
        h = [None] * src.n
        for l, perm in zip(labels, combo):
            for e, t in zip(src_groups[l], perm):
                h[e] = t
        if hom_ok(src, tgt, h, mode):
            return tuple(h)
    return None


def classify_subset(P, A):
    """The flags of the cut of P into A and its complement, each from its
    definition: the reference for posets.split_ok."""
    A = frozenset(A)
    all_ev = frozenset(range(P.n))
    if not A <= all_ev:
        raise posets.PosetError("subset out of range")
    comp = all_ev - A
    pairs = [(a, b) for a in A for b in comp]
    return {"nontrivial": bool(A) and bool(comp),
            "nested": all(box <= A or box <= comp for box in P.boxes),
            "prefix": all(P.leq(a, b) for a, b in pairs),
            "isolated": not any(P.leq(a, b) or P.leq(b, a)
                                for a, b in pairs),
            "downset": not any(P.leq(b, a) for a, b in pairs)}


def pattern_holds(P, w):
    """Whether the terms.sp_check witness w is an instance of its forbidden
    pattern in P, checked from the pattern's definition."""
    le = P.leq
    if w.pattern == "P1":
        e1, e2, e3, e4 = w.events
        return (le(e1, e3) and le(e2, e3) and le(e2, e4)
                and not le(e1, e4) and not le(e2, e1)
                and not le(e4, e3))
    if w.pattern == "P2":
        A, B = w.boxes
        return (A in P.boxes and B in P.boxes
                and bool(A - B) and bool(A & B) and bool(B - A))
    if w.pattern == "P3":
        e1, e2, e3 = w.events
        (A,) = w.boxes
        return (A in P.boxes and e1 not in A and e2 in A and e3 in A
                and le(e1, e2) and not le(e1, e3))
    if w.pattern == "P4":
        e1, e2, e3 = w.events
        (A,) = w.boxes
        return (A in P.boxes and e1 not in A and e2 in A and e3 in A
                and le(e2, e1) and not le(e3, e1))
    return False


def split_check(P, A, mode):
    """Decide whether A splits P as a seq or par composition from the
    subset flags, and check that an explicit recomposition agrees."""
    A = set(A)
    comp = set(range(P.n)) - A
    flags = classify_subset(P, A)
    if mode == "seq":
        by_flags = flags["prefix"] and flags["nested"]
        recomposed = posets.seq(P.restrict(A), P.restrict(comp))
    elif mode == "par":
        by_flags = flags["isolated"] and flags["nested"]
        recomposed = posets.par(P.restrict(A), P.restrict(comp))
    else:
        raise ValueError("mode must be seq or par")
    # the flag test must agree with an explicit isomorphism check; the
    # iso is built directly from the id renaming, no search needed
    kept = sorted(A) + sorted(comp)
    mapping = {new: old for new, old in enumerate(kept)}
    by_iso = all(P.labels[mapping[e]] == recomposed.labels[e]
                 for e in range(P.n))
    if by_iso:
        mapped_order = frozenset((mapping[a], mapping[b])
                                 for (a, b) in recomposed.order)
        mapped_boxes = frozenset(frozenset(mapping[e] for e in box)
                                 for box in recomposed.boxes)
        by_iso = mapped_order == P.order and mapped_boxes == P.boxes
    if by_flags != by_iso:
        raise AssertionError("split_check flag/iso disagreement")
    return by_flags


def canonical_key_reference(P):
    """Brute-force minimum over every relabelling within the classes of
    equal event signature, the reference for posets.canonical_key: a key
    tagged "form" carries this form after its tag."""
    sigs = posets._event_signatures(P)
    groups = {}
    for e in range(P.n):
        groups.setdefault(sigs[e], []).append(e)
    sigs_sorted = sorted(groups)
    best = None
    for combo in itertools.product(
            *[itertools.permutations(groups[s]) for s in sigs_sorted]):
        ren = {old: new for new, old in
               enumerate(itertools.chain.from_iterable(combo))}
        order_enc = tuple(sorted((ren[a], ren[b]) for (a, b) in P.order))
        boxes_enc = tuple(sorted(tuple(sorted(ren[e] for e in box))
                                 for box in P.boxes))
        enc = (order_enc, boxes_enc)
        if best is None or enc < best:
            best = enc
    labels = tuple(P.labels[e] for s in sigs_sorted for e in groups[s])
    return (labels,) + best


def choose_reference(P, f, rel):
    """logic._choose with its split clauses searched over every subset,
    the reference for the label-filtered posets.cuts."""
    kind = f[0]
    if kind not in logic._SPLITS:
        return logic._choose(P, f, rel)
    all_ev = frozenset(range(P.n))
    for A in posets.subsets(P.n):
        comp = all_ev - A
        if posets.split_ok(P, A, comp, kind, rel) and \
                logic._sat(P.restrict(A), f[1], rel) and (
                    kind == "ctx" or logic._sat(P.restrict(comp), f[2], rel)):
            return A
    return None


def synthesize_term_reference(P):
    """Term synthesis by search: the first legal |> split over every
    subset, else the first legal || split, each side synthesized in turn.
    The reference for terms.synthesize_term, which folds posets.sp_tree."""
    if P.n == 0:
        return terms.ONE
    if P.has_full_box():
        inner = synthesize_term_reference(P.without_full_box())
        if inner is None:
            return None
        return ("box", inner)
    if P.n == 1:
        return ("atom", P.labels[0])
    all_ev = frozenset(range(P.n))
    for kind, node in (("seqthen", "seq"), ("parnext", "par")):
        for A in posets.subsets(P.n):
            comp = all_ev - A
            if not A or not comp or not posets.split_ok(P, A, comp, kind):
                continue
            l = synthesize_term_reference(P.restrict(A))
            r = synthesize_term_reference(P.restrict(comp))
            if l is None or r is None:
                return None
            return (node, l, r)
    return None


def strengthenings(P, max_new_boxes):
    """Posets with more order and up to max_new_boxes extra boxes; every
    yielded Q is subsumed by P."""
    cands = [A for A in posets.subsets(P.n) if A and A not in P.boxes]
    for rel in posets._order_extensions(P):
        for k in range(0, max_new_boxes + 1):
            for extra in itertools.combinations(cands, k):
                yield posets.Poset(P.labels, rel,
                                   list(P.boxes) + list(extra), _checked=True)
