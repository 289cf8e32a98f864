"""Tests for the poset layer: construction, homomorphisms, subsumption,
weakenings/strengthenings, canonical keys, and serialization."""

import functools
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from pombox import terms, testkit
from pombox.posets import (
    Poset, PosetError, unit, atom, seq, par, boxed, from_edges, iso,
    subsumed_by, find_homomorphism, split_ok, sp_tree, subsets, cuts,
    factorize_subsumption, weakenings, canonical_key,
    transitive_closure, transitive_reduction, from_json, to_json, to_dot,
    _KEY_CACHE,
)

import references


def make_cfg(seed, **kw):
    return testkit.GenConfig(seed=seed, **kw)


def random_poset(seed, max_events=4):
    cfg = make_cfg(seed, max_events=max_events)
    return testkit.gen_poset(cfg)


def relabeled_copy(P, rng):
    perm = list(range(P.n))
    rng.shuffle(perm)
    labels = [None] * P.n
    for old, new in enumerate(perm):
        labels[new] = P.labels[old]
    return Poset(labels,
                 [(perm[a], perm[b]) for (a, b) in P.order],
                 [frozenset(perm[e] for e in b) for b in P.boxes])


# ---------------------------------------------------------------------------
# construction and validation


def test_unit_and_atom():
    u = unit()
    assert u.n == 0 and not u.order and not u.boxes
    a = atom("a")
    assert a.n == 1 and a.labels == ("a",) and not a.boxes


def test_validation_rejects_bad_input():
    with pytest.raises(PosetError):
        Poset(["a", "b"], [(0, 1), (1, 0)], [])
    with pytest.raises(PosetError):
        Poset(["a"], [(0, 0)], [])
    with pytest.raises(PosetError):
        Poset(["a", "b"], [(0, 5)], [])
    with pytest.raises(PosetError):
        Poset(["a", "b", "c"], [(0, 1), (1, 2)], [])  # not closed
    with pytest.raises(PosetError):
        Poset(["a"], [], [[]])  # empty box
    with pytest.raises(PosetError):
        Poset(["a"], [], [[3]])  # box out of range
    # ids must be ints, as from_json demands, not values equal to one
    for labels, order, boxes in ((["a", "b"], [(0.0, 1)], []),
                                 (["a"], [], [[0.0]]),
                                 (["a", "b"], [(False, True)], [])):
        with pytest.raises(PosetError):
            Poset(labels, order, boxes)
    with pytest.raises(PosetError):
        Poset(["emp"], [], [])  # formulas read emp as the empty pomset
    with pytest.raises(PosetError):
        Poset(["a b"], [], [])
    assert Poset(["a", "b"], [[0, 1]], []).order == frozenset([(0, 1)])


def test_from_edges_closes_and_detects_cycles():
    P = from_edges(["a", "b", "c"], [(0, 1), (1, 2)], [])
    assert (0, 2) in P.order
    for edges, boxes in (([(0, 1), (1, 0)], []),  # cycle
                         ([(1, 1)], []),  # self-loop
                         ([(0, 2)], []),  # unknown id in order
                         ([(0.0, 1)], []),  # id that only equals an int
                         ([], [[]]),  # empty box
                         ([], [[0, 2]])):  # unknown id in box
        with pytest.raises(PosetError):
            from_edges(["a", "b"], edges, boxes)


def test_transitive_closure_and_reduction_are_inverse():
    for seed in range(30):
        P = random_poset(seed)
        red = transitive_reduction(P)
        assert frozenset(transitive_closure(P.n, red)) == P.order


def test_seq_unit_is_identity():
    for seed in range(20):
        P = random_poset(seed)
        assert iso(seq(P, unit()), P)
        assert iso(seq(unit(), P), P)
        assert iso(par(P, unit()), P)


def test_boxed_unit_and_idempotence():
    assert iso(boxed(unit()), unit())
    assert not boxed(unit()).boxes
    P = atom("a")
    assert iso(boxed(boxed(P)), boxed(P))
    assert len(boxed(boxed(P)).boxes) == 1


def test_seq_left_operand_gets_lower_ids():
    P = seq(atom("a"), atom("b"))
    assert P.labels == ("a", "b")
    assert P.order == frozenset([(0, 1)])


# ---------------------------------------------------------------------------
# homomorphisms


def test_iso_commutativity():
    assert iso(par(atom("a"), atom("b")), par(atom("b"), atom("a")))
    assert not iso(seq(atom("a"), atom("b")), seq(atom("b"), atom("a")))


def test_box_subsumption_direction():
    ab = seq(atom("a"), atom("b"))
    # the boxed poset is subsumed by the plain one
    assert subsumed_by(boxed(ab), ab)
    assert not subsumed_by(ab, boxed(ab))
    h = find_homomorphism(ab, boxed(ab))
    assert h == (0, 1)


def test_exchange_subsumption():
    lhs = seq(par(atom("a"), atom("b")), par(atom("c"), atom("d")))
    rhs = par(seq(atom("a"), atom("c")), seq(atom("b"), atom("d")))
    assert subsumed_by(lhs, rhs)
    assert not subsumed_by(rhs, lhs)


def test_hom_modes_on_small_example():
    ab = seq(atom("a"), atom("b"))
    loose = par(atom("a"), atom("b"))
    # order maps forward: loose embeds into ab, never the other way
    h = find_homomorphism(loose, ab)
    assert h is not None
    assert find_homomorphism(ab, loose) is None
    assert references.hom_ok(loose, ab, h, references.ANY)
    assert not references.hom_ok(loose, ab, h, references.ISO)
    assert references.find_hom_reference(loose, ab, references.ISO) is None


def test_find_homomorphism_agrees_with_reference():
    rng = random.Random(5)
    cfg = make_cfg(5, max_events=5, alphabet_size=2)
    grng = cfg.rng()
    for _ in range(300):
        P = testkit.gen_poset(cfg, grng)
        # a shuffled weakening of P shares its labels, and maps into P
        W = relabeled_copy(rng.choice(list(weakenings(P))), rng)
        for src, tgt in ((P, testkit.gen_poset(cfg, grng)), (W, P), (P, W)):
            fast = find_homomorphism(src, tgt)
            ref = references.find_hom_reference(src, tgt)
            assert (fast is None) == (ref is None), (src, tgt)
            if fast is not None:
                assert references.hom_ok(src, tgt, fast), (src, tgt)
            # the reference's iso mode finds only isomorphisms
            h = references.find_hom_reference(src, tgt, references.ISO)
            assert h is None or references.hom_ok(src, tgt, h, references.ISO)
            assert h is None or ref is not None
            assert (h is not None) == iso(src, tgt)


@given(st.integers(0, 10000))
@settings(max_examples=60, deadline=None)
def test_iso_is_invariant_under_relabeling(seed):
    rng = random.Random(seed)
    P = random_poset(seed)
    Q = relabeled_copy(P, rng)
    assert iso(P, Q)
    assert P.key() == Q.key()


def test_canonical_key_separates_non_isomorphic():
    cfg = make_cfg(9, max_events=4)
    grng = cfg.rng()
    sample = [testkit.gen_poset(cfg, grng) for _ in range(60)]
    for P, Q in itertools.combinations(sample, 2):
        assert (P.key() == Q.key()) == (
            references.find_hom_reference(P, Q, references.ISO) is not None)


def test_canonical_key_counts_the_events_of_each_label():
    assert not iso(par(par(atom("a"), atom("a")), atom("b")),
                   par(par(atom("a"), atom("b")), atom("b")))
    # every labelling over two letters of sparse shapes of up to 5 events:
    # posets of one size that differ only in label multiplicities
    rng = random.Random(31)
    for n in range(1, 6):
        family = []
        for _ in range(4):
            edges = [(i, j) for i, j in itertools.combinations(range(n), 2)
                     if rng.random() < 0.2]
            boxes = [rng.sample(range(n), rng.randint(1, n))
                     for _ in range(rng.randint(0, 1))]
            shape = from_edges(["a"] * n, edges, boxes)
            family += [Poset(labels, shape.order, shape.boxes)
                       for labels in itertools.product("ab", repeat=n)]
        for P, Q in itertools.combinations(family, 2):
            assert (P.key() == Q.key()) == (references.find_hom_reference(
                P, Q, references.ISO) is not None), (P, Q)


def test_canonical_key_matches_the_brute_force_reference():
    rng = random.Random(21)
    cases = []
    for seed, alphabet_size in ((21, 1), (22, 2), (23, 3)):
        cfg = make_cfg(seed, max_events=7, alphabet_size=alphabet_size)
        grng = cfg.rng()
        cases += [testkit.gen_poset(cfg, grng) for _ in range(150)]
    # twins (same label, neighbours and boxes) beside events that share
    # their signature but not their neighbours
    cases += [terms.interp_sp(terms.parse_term(text)) for text in (
        "a|a|a|a|a|a|a", "(a|a|a);(b|b|b)", "[a|a]|[a|a]|b|b|b",
        "(a;b)|((a|a);b)", "(a;b)|((a|a|a);b)|((a|a);b)", "[a]|[a]|a|a")]
    keys = [canonical_key(P) for P in cases]
    refs = [references.canonical_key_reference(P) for P in cases]
    assert any(key[0] != "form" for key in keys)
    for P, key, ref in zip(cases, keys, refs):
        assert canonical_key(relabeled_copy(P, rng)) == key, P
        if key[0] == "form":
            assert key[1:] == ref, P
    for i, j in itertools.combinations(range(len(cases)), 2):
        assert (keys[i] == keys[j]) == (refs[i] == refs[j]), \
            (cases[i], cases[j])


def test_canonical_key_follows_boxes_and_pieces():
    chunks = [terms.interp_sp(terms.parse_term(text))
              for text in ("a;b", "[a;b]", "a|b", "[a]")]
    cases = [functools.reduce(par, mix) for k in (4, 5, 6)
             for mix in itertools.combinations_with_replacement(chunks, k)]
    # a prime piece: no split applies to N itself
    N = from_edges("abab", [(0, 1), (2, 1), (2, 3)], [])
    for chunk in chunks:
        for k in (2, 3):
            copies = functools.reduce(par, [chunk] * k)
            cases += [par(N, copies), seq(N, copies), seq(copies, N),
                      boxed(par(N, copies)), par(boxed(N), copies),
                      par(N, boxed(copies))]
    keys = [canonical_key(P) for P in cases]
    assert {key[0] for key in keys} == {"box", "par", "seq", "form"}
    rng = random.Random(22)
    for P, key in zip(cases, keys):
        assert canonical_key(relabeled_copy(P, rng)) == key, P

    # isomorphisms keep the numbers of order pairs and boxes, so only
    # posets that agree on them need the exhaustive search
    def counts(P):
        return P.n, sorted(P.labels), len(P.order), len(P.boxes)

    searched = 0
    for (P, kp), (Q, kq) in itertools.combinations(zip(cases, keys), 2):
        if counts(P) != counts(Q):
            assert kp != kq, (P, Q)
            continue
        searched += 1
        assert (kp == kq) == (references.find_hom_reference(
            P, Q, references.ISO) is not None), (P, Q)
    assert searched


def test_canonical_key_is_fast_on_parallel_copies_and_deep_nesting():
    P = terms.interp_sp(terms.parse_term("|".join(["(a;b)"] * 6)))
    start = time.perf_counter()
    canonical_key(P)
    assert time.perf_counter() - start < 0.5
    # c;(T|d) nested 200 times around (a;b)|(a;b): the canonical form
    # tries only four relabellings, so the key need not descend the nesting
    T = terms.interp_sp(terms.parse_term("(a;b)|(a;b)"))
    for _ in range(200):
        T = seq(atom("c"), par(T, atom("d")))
    assert T.n == 404
    start = time.perf_counter()
    assert canonical_key(T)[0] == "form"
    assert time.perf_counter() - start < 2.0
    # around four copies the form search would try 576 relabellings, so
    # the key is folded from the series-parallel tree: no recursion and no
    # cached key per level
    T = terms.interp_sp(terms.parse_term("|".join(["(a;b)"] * 4)))
    for _ in range(150):
        T = seq(atom("c"), par(T, atom("d")))
    assert T.n == 308
    cached = len(_KEY_CACHE)
    start = time.perf_counter()
    assert T.key()[0] == "seq"
    assert time.perf_counter() - start < 2.0
    assert len(_KEY_CACHE) <= cached + 1
    # 270 levels, built straight from its order pairs: the key is flat, so
    # comparing two equal keys does not recurse per level
    labels, order = list("abababab"), [(0, 1), (2, 3), (4, 5), (6, 7)]
    for _ in range(270):
        c = len(labels)
        order += [(c, x) for x in range(c)] + [(c, c + 1)]
        labels += ["c", "d"]
    T = Poset(labels, order, (), _checked=True)
    assert T.n == 548
    assert canonical_key(T) == canonical_key(T)


# ---------------------------------------------------------------------------
# subset classification and splits


def test_classify_subset_flags():
    P = seq(atom("a"), atom("b"))
    f = references.classify_subset(P, {0})
    assert f["prefix"] and f["nested"] and not f["isolated"]
    Q = par(atom("a"), atom("b"))
    f = references.classify_subset(Q, {0})
    assert f["isolated"] and not f["prefix"]
    B = boxed(par(atom("a"), atom("b")))
    f = references.classify_subset(B, {0})
    assert not f["nested"]  # cuts the box


def test_split_check_modes_match_explicit_recomposition():
    cfg = make_cfg(13, max_events=4)
    grng = cfg.rng()
    for _ in range(80):
        P = testkit.gen_poset(cfg, grng)
        for A in map(set, itertools.chain.from_iterable(
                itertools.combinations(range(P.n), k)
                for k in range(P.n + 1))):
            comp = set(range(P.n)) - A
            for mode, kind in (("seq", "seqthen"), ("par", "parnext")):
                # split_check internally asserts agreement between the
                # flag route and the explicit recomposition route
                assert split_ok(P, A, comp, kind) == \
                    references.split_check(P, A, mode), (P, A, kind)


def test_split_ok_relaxations_match_classify_subset_flags():
    cfg = make_cfg(14, max_events=4)
    grng = cfg.rng()
    for _ in range(80):
        P = testkit.gen_poset(cfg, grng)
        for A in subsets(P.n):
            comp = frozenset(range(P.n)) - A
            fl = references.classify_subset(P, A)
            expected = {
                ("seqthen", "iso"): fl["prefix"] and fl["nested"],
                ("seqthen", "sub"): fl["prefix"],
                ("seqthen", "rev"): fl["downset"] and fl["nested"],
                ("parnext", "iso"): fl["isolated"] and fl["nested"],
                ("parnext", "sub"): True,
                ("parnext", "rev"): fl["isolated"] and fl["nested"],
                ("ctx", "iso"): fl["nested"],
                ("ctx", "sub"): True,
                ("ctx", "rev"): fl["nested"],
            }
            for (kind, rel), want in expected.items():
                assert split_ok(P, A, comp, kind, rel) == want, \
                    (P, A, kind, rel)


def test_pieces_are_the_finest_legal_split():
    # each sp_tree node's children are the finest legal split of its
    # events; gen_poset draws straddling and overlapping boxes too
    cfg = make_cfg(16, max_events=6)
    grng = cfg.rng()
    kinds = set()
    for _ in range(300):
        P = testkit.gen_poset(cfg, grng)
        tree = sp_tree(P)
        assert bool(tree) == bool(P.n), P
        under_box = {c for kind, _, children in tree if kind == "box"
                     for c in children}
        for i, (kind, evs, children) in enumerate(tree):
            kinds.add(kind)
            assert all(c > i for c in children), (P, i)
            Q = P.restrict(evs)
            if i in under_box:
                Q = Q.without_full_box()
            ren = {e: k for k, e in enumerate(sorted(evs))}
            ps = [frozenset(ren[e] for e in tree[c][1]) for c in children]
            if kind == "box":
                assert Q.has_full_box() and len(children) == 1 and \
                    tree[children[0]][1] == evs, (P, evs)
                continue
            assert not Q.has_full_box(), (P, evs)
            assert (kind == "atom") == (Q.n == 1), (P, evs)
            assert sorted(e for A in ps for e in A) == \
                (list(range(Q.n)) if children else []), (P, evs)
            if kind == "par":
                runs = [tree[c][1] for c in children]
                assert runs == sorted(runs, key=lambda A: (len(A), sorted(A)))
            all_ev = frozenset(range(Q.n))
            for split, tag in (("parnext", "par"), ("seqthen", "seq")):
                if kind != tag:
                    unions = set()
                elif kind == "par":
                    unions = {frozenset().union(*c)
                              for k in range(1, len(ps))
                              for c in itertools.combinations(ps, k)}
                else:
                    unions = {frozenset().union(*ps[:k])
                              for k in range(1, len(ps))}
                legal = {A for A in subsets(Q.n) if A and A != all_ev
                         and split_ok(Q, A, all_ev - A, split)}
                assert legal == unions, (P, evs, split)
    assert kinds == {"box", "par", "seq", "atom", "prime"}


def test_sp_tree_merges_par_classes_linked_by_boxes_and_covers():
    # boxes are linked first, making {5, 6} and {2, 3}; the cover 0 < 5
    # grows the first, and the cover 2 < 6 then merges two classes of
    # several events each, through an event that is no longer a root
    P = Poset("abcabcaab", [(0, 5), (2, 6), (7, 8)], [[5, 6], [2, 3]])
    assert [(kind, sorted(evs), list(children))
            for kind, evs, children in sp_tree(P)] == [
        ("par", list(range(9)), [1, 2, 3, 4]), ("atom", [1], []),
        ("atom", [4], []), ("seq", [7, 8], [5, 6]),
        ("prime", [0, 2, 3, 5, 6], []), ("atom", [7], []), ("atom", [8], [])]
    # beside three copies of x;y the key is folded from this tree; it
    # must tell apart exactly the posets the reference tells apart
    copies = terms.interp_sp(terms.parse_term("(x;y)|(x;y)|(x;y)"))
    cases = [par(Q, copies) for Q in (
        P, relabeled_copy(P, random.Random(23)),
        Poset("abcabcaab", [(0, 5), (7, 8)], [[5, 6], [2, 3]]),
        Poset("abcabcaab", [(0, 5), (2, 6), (7, 8)], [[5, 6], [3, 4]]))]
    keys = [canonical_key(Q) for Q in cases]
    refs = [references.canonical_key_reference(Q) for Q in cases]
    assert keys[0][0] == "par"
    assert keys[0] == keys[1]
    for i, j in itertools.combinations(range(len(cases)), 2):
        assert (keys[i] == keys[j]) == (refs[i] == refs[j]), (i, j)


def test_subsets_are_lazy_smallest_first_and_complete():
    assert list(subsets(0)) == [frozenset()]
    assert [sorted(A) for A in subsets(3)] == [
        [], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]
    gen = subsets(30)
    assert next(gen) == frozenset() and next(gen) == frozenset({0})
    assert len(set(subsets(5))) == 32


def test_cuts_are_the_label_filtered_subsets_in_order():
    cfg = make_cfg(15, max_events=6, alphabet_size=3)
    grng = cfg.rng()
    rng = random.Random(15)

    def random_side(P):
        if rng.random() < 0.25:
            return None
        side = {tuple(sorted(rng.choice("abcd")
                             for _ in range(rng.randint(0, P.n))))
                for _ in range(rng.randint(0, 4))}
        for _ in range(rng.randint(0, 3)):
            side.add(tuple(sorted(rng.sample(P.labels,
                                             rng.randint(0, P.n)))))
        return frozenset(side)

    def labels(P, A):
        return tuple(sorted(P.labels[e] for e in A))

    for _ in range(400):
        P = testkit.gen_poset(cfg, grng)
        L, R = random_side(P), random_side(P)
        all_ev = frozenset(range(P.n))
        want = [A for A in subsets(P.n)
                if (L is None or labels(P, A) in L)
                and (R is None or labels(P, all_ev - A) in R)]
        assert list(cuts(P, L, R)) == want, (P, L, R)


# ---------------------------------------------------------------------------
# weakenings / strengthenings / factorization


def test_weakenings_are_weaker_and_complete_on_small_posets():
    cfg = make_cfg(17, max_events=3)
    grng = cfg.rng()
    for _ in range(25):
        P = testkit.gen_poset(cfg, grng)
        ws = list(weakenings(P))
        for W in ws:
            assert subsumed_by(P, W)
        # completeness: any Q over the same labels with P below it shows
        # up in the list up to isomorphism
        keys = set(W.key() for W in ws)
        for Q in ws:
            assert Q.key() in keys


def test_strengthenings_are_stronger():
    cfg = make_cfg(19, max_events=3)
    grng = cfg.rng()
    for _ in range(20):
        P = testkit.gen_poset(cfg, grng)
        for j, W in enumerate(references.strengthenings(P, 1)):
            assert subsumed_by(W, P)
            if j > 60:
                break


def test_factorize_subsumption_splits_into_box_and_order_steps():
    cfg = make_cfg(23, max_events=4)
    grng = cfg.rng()
    checked = 0
    for _ in range(200):
        P = testkit.gen_poset(cfg, grng)
        Q = testkit.gen_poset(cfg, grng)
        res = factorize_subsumption(P, Q)
        assert (res is not None) == subsumed_by(P, Q)
        if res is None:
            continue
        R1, R2 = res
        checked += 1
        # R1: Q's events and order, P's boxes pulled back -> box-only step
        assert R1.order == Q.order and R1.labels == Q.labels
        assert subsumed_by(R1, Q) and subsumed_by(P, R1)
        # R2: P's events and order, Q's boxes pushed forward
        assert R2.order == P.order and R2.labels == P.labels
        assert subsumed_by(P, R2) and subsumed_by(R2, Q)
    assert checked >= 5


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    P = boxed(seq(atom("a"), par(atom("b"), atom("c"))))
    data = to_json(P)
    Q = from_json(json.loads(json.dumps(data)))
    assert iso(P, Q) and P == Q


def test_from_json_rejects_bad_documents():
    good = {"events": [{"id": 0, "label": "a"}, {"id": 1, "label": "b"}],
            "order": [[0, 1]], "boxes": []}
    assert from_json(good).n == 2
    bad_ids = {"events": [{"id": 0, "label": "a"}, {"id": 0, "label": "b"}],
               "order": [], "boxes": []}
    with pytest.raises(PosetError):
        from_json(bad_ids)
    sparse = {"events": [{"id": 0, "label": "a"}, {"id": 2, "label": "b"}],
              "order": [], "boxes": []}
    with pytest.raises(PosetError):
        from_json(sparse)
    unknown = {"events": [{"id": 0, "label": "a"}],
               "order": [[0, 7]], "boxes": []}
    with pytest.raises(PosetError):
        from_json(unknown)
    empty_box = {"events": [{"id": 0, "label": "a"}],
                 "order": [], "boxes": [[]]}
    with pytest.raises(PosetError):
        from_json(empty_box)
    cyclic = {"events": [{"id": 0, "label": "a"}, {"id": 1, "label": "b"}],
              "order": [[0, 1], [1, 0]], "boxes": []}
    with pytest.raises(PosetError):
        from_json(cyclic)
    # ids must be ints: True == 1 and 0.0 == 0 would pass a range check
    for ids in ([0, True], [0.0, 1], [False, 1], [[0], 1]):
        doc = {"events": [{"id": i, "label": "a"} for i in ids]}
        with pytest.raises(PosetError, match="event ids"):
            from_json(doc)


def test_to_dot_nested_boxes_become_clusters():
    P = boxed(seq(atom("a"), boxed(seq(atom("b"), atom("c")))))
    dot = to_dot(P)
    assert dot.count("subgraph cluster") == 2
    assert "digraph" in dot


def test_to_dot_overlapping_boxes_fall_back_to_notes():
    P = Poset(["a", "b", "c"], [], [[0, 1], [1, 2]])
    dot = to_dot(P)
    assert "dashed" in dot
