"""Tests for the logic layer: formula parsing, satisfaction under the
three relations, witnesses, the enumeration oracle, translations from
terms, independence, frame checking, and substitution."""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from pombox import posets, terms, logic, testkit
from pombox.posets import atom, unit, seq, par, boxed, iso, subsumed_by
from pombox.terms import parse_term, interp_sp, FragmentError
from pombox.logic import (
    EMP, UNKNOWN, parse_formula, render_formula, FormulaSyntaxError,
    positive, contains_boxmod, sat, sat_bool, sat_set, sat_oracle, replay,
    phi_of_sp, phi_of_term, independent, frame_check, compose_frame,
    frame_formula, substitute_term, substitute_formula,
)

import references


# ---------------------------------------------------------------------------
# parsing and rendering


def test_parse_formula_precedence():
    assert parse_formula("a/\\b\\/c") == ("or", ("and", ("atom", "a"),
                                                 ("atom", "b")),
                                          ("atom", "c"))
    assert parse_formula("a|>b|>c") == ("seqthen", ("atom", "a"),
                                        ("seqthen", ("atom", "b"),
                                         ("atom", "c")))
    # the sequential arrow binds tighter than the parallel one
    assert parse_formula("a||b|>c") == ("parnext", ("atom", "a"),
                                        ("seqthen", ("atom", "b"),
                                         ("atom", "c")))
    assert parse_formula("~a") == ("neg", ("atom", "a"))
    assert parse_formula("[a]") == ("boxmod", ("atom", "a"))
    assert parse_formula("<>a") == ("ctx", ("atom", "a"))
    assert parse_formula("emp") == EMP


def test_parse_formula_errors():
    for text in ("", "a/\\", "(a", "[a", "a b", "|>a"):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=120, deadline=None)
def test_formula_render_parse_round_trip(seed):
    cfg = testkit.GenConfig(seed=seed, formula_depth=4)
    f = testkit.gen_formula(cfg)
    assert parse_formula(render_formula(f)) == f


def test_positive_and_contains_boxmod():
    assert positive(parse_formula("a|>[b]\\/<>c"))
    assert not positive(parse_formula("a/\\~b"))
    assert contains_boxmod(parse_formula("<>(a|>[b])"))
    assert not contains_boxmod(parse_formula("<>(a|>b)"))


def test_kind_predicates_walk_deep_asts():
    # 5 000 levels, far past the interpreter's recursion limit
    def nest(node, kind, leaf):
        for _ in range(5000):
            node = (kind, node, leaf)
        return node
    f = nest(("atom", "a"), "or", ("atom", "b"))
    assert positive(f) and not contains_boxmod(f)
    f = nest(("neg", ("boxmod", ("atom", "a"))), "and", EMP)
    assert not positive(f) and contains_boxmod(f)
    assert terms.is_sp(nest(("box", ("atom", "a")), "seq", terms.ONE))
    assert not terms.is_sp(nest(terms.ZERO, "par", ("atom", "a")))


# ---------------------------------------------------------------------------
# satisfaction basics


def test_emp_holds_exactly_on_the_empty_poset():
    f = EMP
    for rel in logic.RELATIONS:
        assert sat_bool(unit(), f, rel)
        assert not sat_bool(atom("a"), f, rel)
        assert not sat_bool(boxed(atom("a")), f, rel)


def test_atom_cases_per_relation():
    a = atom("a")
    assert sat_bool(a, ("atom", "a"), "iso")
    assert not sat_bool(a, ("atom", "b"), "iso")
    # a boxed single event is below the atom, so sub holds and iso fails
    ba = boxed(atom("a"))
    assert not sat_bool(ba, ("atom", "a"), "iso")
    assert sat_bool(ba, ("atom", "a"), "sub")
    assert not sat_bool(ba, ("atom", "a"), "rev")


def test_negation_rejected_outside_iso():
    f = parse_formula("~a")
    assert sat_bool(atom("b"), f, "iso")
    for rel in ("sub", "rev"):
        with pytest.raises(FragmentError):
            sat_bool(atom("b"), f, rel)
        with pytest.raises(FragmentError):
            sat_oracle(atom("b"), f, rel)
        with pytest.raises(FragmentError):
            sat_set([], f, rel)


def test_seqthen_and_parnext_under_iso():
    ab = seq(atom("a"), atom("b"))
    assert sat_bool(ab, parse_formula("a|>b"), "iso")
    assert not sat_bool(ab, parse_formula("a||b"), "iso")
    apb = par(atom("a"), atom("b"))
    assert sat_bool(apb, parse_formula("a||b"), "iso")
    assert not sat_bool(apb, parse_formula("a|>b"), "iso")
    # empty split parts are allowed, so phi|>emp collapses to phi
    assert sat_bool(ab, parse_formula("(a|>b)|>emp"), "iso")
    assert sat_bool(ab, parse_formula("emp|>a|>b"), "iso")


def test_exchange_example_under_sub():
    run = interp_sp(parse_term("(a|b);(c|d)"))
    f = parse_formula("(a|>c)||(b|>d)")
    assert not sat_bool(run, f, "iso")
    assert sat_bool(run, f, "sub")
    assert not sat_bool(run, f, "rev")


def test_interleaving_seen_from_both_sides():
    # a;c;b;d is a linearization of (a;b)|(c;d): the parallel shape is
    # reached by dropping order (sub), while the parallel program reaches
    # the interleaving by adding order (rev)
    run = interp_sp(parse_term("a;c;b;d"))
    prog = interp_sp(parse_term("(a;b)|(c;d)"))
    f = parse_formula("(a|>b)||(c|>d)")
    assert sat_bool(run, f, "sub")
    assert not sat_bool(run, f, "rev")
    assert sat_bool(prog, f, "iso")
    g = parse_formula("a|>c|>b|>d")
    assert sat_bool(prog, g, "rev")
    assert not sat_bool(prog, g, "sub")


def test_boxmod_requires_full_box_under_iso_and_sub():
    ab = seq(atom("a"), atom("b"))
    f = parse_formula("[a|>b]")
    assert not sat_bool(ab, f, "iso")
    assert sat_bool(boxed(ab), f, "iso")
    assert sat_bool(boxed(ab), f, "sub")
    # under rev the box may be imagined onto the witness
    assert sat_bool(ab, f, "rev")
    assert not sat_bool(ab, f, "sub")


def test_boxmod_on_empty_poset_reduces_to_subformula():
    assert sat_bool(unit(), parse_formula("[emp]"), "iso")
    assert not sat_bool(unit(), parse_formula("[a]"), "iso")


def test_ctx_explores_restrictions():
    abc = interp_sp(parse_term("a;b;c"))
    assert sat_bool(abc, parse_formula("<>(a|>c)"), "iso")
    assert sat_bool(abc, parse_formula("<>emp"), "iso")
    assert not sat_bool(abc, parse_formula("<>(c|>a)"), "iso")


def test_ctx_respects_boxes_under_iso():
    # restrictions may not cut a box open under iso
    P = interp_sp(parse_term("[a;b];c"))
    assert not sat_bool(P, parse_formula("<>(a|>c)"), "iso")
    # the box itself is reachable, and shields its interior from a bare
    # sequential split
    assert sat_bool(P, parse_formula("<>[a|>b]"), "iso")
    assert not sat_bool(P, parse_formula("<>(a|>b)"), "iso")
    # under sub the box can be dropped by the weakening first
    assert sat_bool(P, parse_formula("<>(a|>c)"), "sub")
    assert sat_bool(P, parse_formula("<>(a|>b)"), "sub")


def test_shape_examples():
    assert logic.shape(parse_formula("emp")) == {()}
    assert logic.shape(parse_formula("[a|>b]")) == {("a", "b")}
    assert logic.shape(parse_formula("(a\\/b)||a")) == {("a", "a"),
                                                        ("a", "b")}
    assert logic.shape(parse_formula("(a\\/b)/\\(b\\/c)")) == {("b",)}
    assert logic.shape(parse_formula("~a/\\(b|>c)")) == {("b", "c")}
    for text in ("~a", "<>a", "a\\/~b", "a|><>b"):
        assert logic.shape(parse_formula(text)) is None
    # past the cap a formula counts as unbounded
    wide = "(" + "\\/".join("a%d" % i for i in range(9)) + ")"
    assert len(logic.shape(parse_formula(wide + "||" + wide))) == 45
    assert logic.shape(parse_formula(wide + "|>" + wide)) == \
        logic.shape(parse_formula(wide + "||" + wide))
    assert logic.shape(parse_formula(
        wide + "||" + wide + "||" + wide)) is None


def test_shape_bounds_the_labels_of_every_model():
    cfg = testkit.GenConfig(seed=47, max_events=4, alphabet_size=2,
                            formula_depth=3)
    rng = cfg.rng()
    held = 0
    for _ in range(2000):
        P = testkit.gen_poset(cfg, rng)
        for rel in logic.RELATIONS:
            f = testkit.gen_formula(cfg, positive=(rel != "iso"), rng=rng)
            bound = logic.shape(f)
            if bound is not None and sat_bool(P, f, rel):
                held += 1
                assert tuple(sorted(P.labels)) in bound, (P, f, rel)
    assert held > 150


def test_choose_matches_the_all_subsets_reference():
    # criterion 5's generator; every subformula is chosen on every
    # restriction the split clauses can reach
    cfg = testkit.GenConfig(max_events=4, formula_depth=3, seed=501)
    rng = cfg.rng()
    for _ in range(150):
        P = testkit.gen_poset(cfg, rng)
        for rel in logic.RELATIONS:
            f = testkit.gen_formula(cfg, positive=(rel != "iso"), rng=rng)
            stack = [f]
            while stack:
                g = stack.pop()
                stack.extend(sub for sub in g[1:] if isinstance(sub, tuple))
                for A in posets.subsets(P.n):
                    Q = P.restrict(A)
                    assert logic._choose(Q, g, rel) == \
                        references.choose_reference(Q, g, rel), (Q, g, rel)


def _box_heavy_poset(rng, n):
    """n events over a, b with 2-4 boxes drawn from: the full box, a
    single event, a range, a range nested in it and one disjoint from
    it."""
    labels = [rng.choice("ab") for _ in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.3]
    i = rng.randrange(n)
    j = rng.randrange(i, n)
    kinds = [range(n), [rng.randrange(n)], range(i, j + 1),
             range(i, rng.randint(i, j) + 1),
             range(rng.randint(j + 1, n), n) or range(i)]
    boxes = sorted({tuple(box) for box in kinds if box})
    boxes = rng.sample(boxes, rng.randint(2, min(4, len(boxes))))
    return posets.from_edges(labels, edges, boxes)


def test_boxed_sides_match_the_all_subsets_reference():
    # [g] operands on either side of each split; emp and <>emp make the
    # empty side the first cut that holds
    inner = ["emp", "<>emp", "a", "a||b", "<>a", "b|>a"]
    forms = ["<>[%s]" % g for g in inner]
    for g, h in zip(inner, inner[1:] + inner[:1]):
        forms += ["[%s]|>%s" % (g, h), "%s|>[%s]" % (h, g),
                  "[%s]||[%s]" % (g, h)]
    forms = [parse_formula(text) for text in forms]
    rng = testkit.GenConfig(seed=83).rng()
    held = 0
    for n in [2, 3, 4, 5, 6, 7] * 2:
        P = _box_heavy_poset(rng, n)
        for rel in logic.RELATIONS:
            for f in forms:
                for A in posets.subsets(P.n):
                    Q = P.restrict(A)
                    cut = references.choose_reference(Q, f, rel)
                    assert logic._choose(Q, f, rel) == cut, (Q, f, rel)
                    if cut is None:
                        continue
                    held += 1
                    parts = [sat(Q.restrict(side), g, rel).witness
                             for side, g in zip(
                                 (cut, frozenset(range(Q.n)) - cut), f[1:])]
                    names = ["sub"] if f[0] == "ctx" else ["left", "right"]
                    expected = dict(zip(names, parts), rule=f[0],
                                    A=sorted(cut))
                    assert sat(Q, f, rel).witness == expected, (Q, f, rel)
    assert held > 5000


def test_memo_tells_apart_posets_with_other_label_counts():
    aab = interp_sp(parse_term("a|a|b"))
    abb = interp_sp(parse_term("a|b|b"))
    f = parse_formula("(a||a)||b")
    assert sat_bool(aab, f, "iso")
    assert not sat_bool(abb, f, "iso")


# ---------------------------------------------------------------------------
# witnesses


def test_sat_result_truth_and_replay():
    cfg = testkit.GenConfig(seed=29, max_events=4, formula_depth=3)
    rng = cfg.rng()
    for _ in range(150):
        P = testkit.gen_poset(cfg, rng)
        for rel in logic.RELATIONS:
            f = testkit.gen_formula(cfg, positive=(rel != "iso"), rng=rng)
            r = sat(P, f, rel)
            assert bool(r) == r.truth == sat_bool(P, f, rel)
            if r.truth:
                assert r.witness is not None
                assert replay(P, f, rel, r.witness)


def test_query_holding_on_a_part_with_other_label_counts():
    # true on the a|b|b part, where a memo keyed without label counts
    # would answer for a|a|b
    P = interp_sp(parse_term("a|a|b|b"))
    f = parse_formula("<>(<>(b||b) /\\ ~<>(a||a) /\\ (~emp||~emp||~emp))")
    assert sat_oracle(P, f, "iso") is True
    r = sat(P, f, "iso")
    assert r.truth and replay(P, f, "iso", r.witness)


def test_replay_rejects_malformed_witnesses():
    P = interp_sp(parse_term("a;b"))
    f = parse_formula("a|>b")
    assert replay(P, f, "iso", sat(P, f, "iso").witness)
    for witness in ({"rule": "seqthen", "A": [0]},
                    {"rule": "seqthen", "A": 0}, None):
        assert replay(P, f, "iso", witness) is False


# ---------------------------------------------------------------------------
# oracle


def test_oracle_agrees_on_basics():
    ab = seq(atom("a"), atom("b"))
    for rel in logic.RELATIONS:
        assert sat_oracle(ab, parse_formula("a|>b"), rel) is True
        assert sat_oracle(ab, parse_formula("b|>a"), rel) is False
    assert sat_oracle(boxed(ab), parse_formula("[a|>b]"), "iso") is True
    assert sat_oracle(ab, parse_formula("[a|>b]"), "rev") is True


def test_oracle_adds_the_full_box_a_box_modality_needs():
    # under rev a [g] clause's witnesses carry the full box, whatever
    # cap says
    assert sat_oracle(atom("a"), parse_formula("[a]"), "rev", 0) is True
    assert sat_oracle(atom("a"), parse_formula("[a]"), "rev") is True
    # box-free formulas answer definitely too
    assert sat_oracle(atom("a"), parse_formula("a|>emp"), "rev") is True
    assert sat_oracle(atom("a"), parse_formula("b|>emp"), "rev") is False


def test_oracle_reads_witness_spaces_lazily(monkeypatch):
    # the first order extension of six parallel a's is the poset itself,
    # where the cut {0} holds; building the whole extension space before
    # reading a cut would spend the 20 000 steps
    monkeypatch.setattr(logic, "_ORACLE_BUDGET", 20000)
    P = interp_sp(parse_term("|".join(["a"] * 6)))
    assert sat_oracle(P, parse_formula("<>a"), "rev") is True


def test_oracle_answer_does_not_depend_on_earlier_calls(monkeypatch):
    # with 6 000 steps <>[a] runs out of budget here, and the oracle reads
    # it before emp|>emp (False, but no leaf); were its finished
    # sub-results kept past the call, the second or the last query would
    # answer False
    monkeypatch.setattr(logic, "_ORACLE_BUDGET", 6000)
    P = posets.Poset(["c", "a", "b", "b"], [(0, 3), (2, 3)],
                     [[0, 1], [0, 1, 2]])
    f = parse_formula("<>[a]/\\(emp|>emp)")
    assert sat_oracle(P, f, "rev") == UNKNOWN
    assert sat_oracle(P, parse_formula("<>[a]"), "rev") == UNKNOWN
    assert sat_oracle(P, f, "rev") == UNKNOWN
    assert sat_oracle(P, parse_formula("emp|>emp"), "rev") is False


def test_oracle_reads_leaves_first(monkeypatch):
    # with 6 000 steps <>[a] runs out of budget on this poset; emp is
    # False on four events and costs one step, so the conjunction answers
    # False in either order without reading <>[a]
    monkeypatch.setattr(logic, "_ORACLE_BUDGET", 6000)
    P = posets.Poset(["c", "a", "b", "b"], [(0, 3), (2, 3)],
                     [[0, 1], [0, 1, 2]])
    assert sat_oracle(P, parse_formula("<>[a]"), "rev") == UNKNOWN
    for text in ("<>[a]/\\emp", "emp/\\<>[a]"):
        start = time.perf_counter()
        assert sat_oracle(P, parse_formula(text), "rev") is False, text
        assert time.perf_counter() - start < 0.5, text
        assert sat_bool(P, parse_formula(text), "rev") is False, text
    # a cut whose right part is an atom reads it first and skips the left
    # part where b fails; read left first, the cut with an empty right
    # part would try the disjunction on the whole poset, where <>[a]
    # spends the budget before the witness that orders 1 < 3 makes
    # {0, 1, 2} a prefix
    f = parse_formula("([[c||a]||b]\\/<>[a])|>b")
    assert sat_oracle(P, f, "rev") is True
    assert sat_bool(P, f, "rev") is True


def test_oracle_differential_small():
    cfg = testkit.GenConfig(seed=31, max_events=3, formula_depth=3)
    found = testkit.differential_run(cfg, 40)
    assert found == []


def test_box_free_witness_spaces_are_orders_up_to_iso():
    # the oracle's walk yields each witness class once: under sub every
    # weakening, with P's boxes dropped first for a box-free clause; under
    # rev every order extension with P's boxes, and with the full box too
    # for a box modality
    cfg = testkit.GenConfig(seed=41, max_events=4)
    rng = cfg.rng()
    for _ in range(40):
        P = testkit.gen_poset(cfg, rng)
        bare = posets.Poset(P.labels, P.order, ())
        exts = list(references._order_extensions(P))
        cases = [("sub", "a", references.weakenings(bare)),
                 ("sub", "[a]", references.weakenings(P)),
                 ("rev", "a", [posets.Poset(P.labels, ext, P.boxes)
                               for ext in exts])]
        if P.n:
            full = P.boxes | {frozenset(range(P.n))}
            cases.append(("rev", "[a]", [posets.Poset(P.labels, ext, full)
                                         for ext in exts]))
        for rel, text, space in cases:
            keys = [W.key() for W in logic._witness_space(
                P, logic._Run(rel), parse_formula(text))]
            assert len(keys) == len(set(keys)), (P, rel, text)
            assert set(keys) == {W.key() for W in space}, (P, rel, text)


def test_witness_walk_counts_the_unlabelled_posets():
    # from n parallel a under rev, or n sequenced a under sub, the walk
    # reaches every order on n events once up to isomorphism: the
    # unlabelled posets, OEIS A000112
    for n, count in zip(range(1, 7), (1, 2, 5, 16, 63, 318)):
        for rel, op in (("rev", "|"), ("sub", ";")):
            P = interp_sp(parse_term(op.join(["a"] * n)))
            space = logic._witness_space(P, logic._Run(rel),
                                         parse_formula("a"))
            assert sum(1 for _ in space) == count, (n, rel)


def _order_extensions_reference(P):
    # every subset of all missing pairs, reverses of order pairs included
    missing = [(a, b) for a in range(P.n) for b in range(P.n)
               if a != b and (a, b) not in P.order]
    out = []
    for k in range(len(missing) + 1):
        for add in itertools.combinations(missing, k):
            rel = set(P.order) | set(add)
            if all((b, a) not in rel for (a, b) in add) and \
                    references.is_transitively_closed(rel):
                out.append(frozenset(rel))
    return out


def test_order_extensions_match_the_all_missing_pairs_reference():
    cfg = testkit.GenConfig(seed=43, max_events=4)
    rng = cfg.rng()
    for _ in range(200):
        P = testkit.gen_poset(cfg, rng)
        assert list(references._order_extensions(P)) == \
            _order_extensions_reference(P)


def test_oracle_on_a_chain_under_rev_is_fast():
    # a chain has exactly one order extension
    chain = interp_sp(parse_term(";".join(["a"] * 7)))
    start = time.perf_counter()
    assert sat_oracle(chain, parse_formula("a|>b"), "rev") is False
    assert time.perf_counter() - start < 1.0


def test_oracle_on_a_chain_under_sub_is_fast():
    # every order on ten events lies below a chain of ten, one class per
    # unlabelled poset, far more than the budget pays for at 21 steps a
    # class, so the budget ends the call
    chain = interp_sp(parse_term(";".join(["a"] * 10)))
    start = time.perf_counter()
    assert sat_oracle(chain, parse_formula("a|>b"), "sub") is not True
    assert time.perf_counter() - start < 5.0


def test_query_on_parallel_copies_under_iso_is_fast():
    # the relabellings of (a;b) six times in parallel number 6!·6!, but
    # its key and its restrictions' keys follow the parallel pieces
    P = interp_sp(parse_term("|".join(["(a;b)"] * 6)))
    start = time.perf_counter()
    assert sat_bool(P, parse_formula("<>((a||a)|>(b||b))"), "iso") is False
    assert time.perf_counter() - start < 0.5


def test_oracle_on_an_antichain_under_rev_returns():
    # no witness holds a b; the 130 023 labelled orders on six events
    # fall into 318 classes, and the walk expands one poset per class
    antichain = interp_sp(parse_term("|".join(["a"] * 6)))
    start = time.perf_counter()
    assert sat_oracle(antichain, parse_formula("a||b"), "rev") is False
    assert time.perf_counter() - start < 10.0


def test_oracle_charges_every_order_candidate(monkeypatch):
    # the orders above two parallel chains of four outnumber what the
    # budget pays for; every poset a step makes costs a step, repeats
    # included, so the call ends at the budget
    monkeypatch.setattr(logic, "_ORACLE_BUDGET", 100000)
    P = interp_sp(parse_term("(a;a;a;a)|(b;b;b;b)"))
    start = time.perf_counter()
    assert sat_oracle(P, parse_formula("<>[c]"), "rev") == UNKNOWN
    assert time.perf_counter() - start < 5.0


def _uncapped_rev_space(P, run, f):
    # the rev witness space by definition: every order extension with
    # every set of new boxes, where f has a box modality, one per
    # isomorphism class
    new_boxes = 2 ** P.n - 1 if contains_boxmod(f) else 0
    seen = set()
    for W in references.strengthenings(P, new_boxes):
        run.tick(20)
        if W.key() not in seen:
            seen.add(W.key())
            yield W


def test_rev_oracle_matches_the_uncapped_strengthenings(monkeypatch):
    # no definite answer may differ from the oracle that adds any boxes,
    # and an answer only the narrowed space decides must be the engine's
    compared = 0
    for seed in range(1, 9):
        cfg = testkit.GenConfig(seed=seed, max_events=3, formula_depth=3)
        rng = cfg.rng()
        for _ in range(60):
            P = testkit.gen_poset(cfg, rng)
            f = testkit.gen_formula(cfg, positive=True, rng=rng)
            if not contains_boxmod(f):
                continue
            compared += 1
            got = sat_oracle(P, f, "rev")
            with monkeypatch.context() as m:
                m.setattr(logic, "_witness_space", _uncapped_rev_space)
                want = sat_oracle(P, f, "rev")
            if want != UNKNOWN:
                assert got == want, (P, f)
            elif got != UNKNOWN:
                assert got == sat_bool(P, f, "rev"), (P, f)
    assert compared >= 150


# ---------------------------------------------------------------------------
# term-to-formula translations


def test_phi_of_sp_is_satisfied_by_the_term_itself():
    cfg = testkit.GenConfig(seed=37, term_depth=3)
    rng = cfg.rng()
    for _ in range(80):
        s = testkit.gen_sp_term(cfg, rng)
        P = interp_sp(s)
        f = phi_of_sp(s)
        for rel in logic.RELATIONS:
            assert sat_bool(P, f, rel), (s, rel)


def test_phi_of_sp_on_boxed_terms_matches_the_relations():
    cfg = testkit.GenConfig(seed=47, term_depth=4, alphabet_size=2)
    rng = cfg.rng()
    texts = ["[[a]]", "[1]", "1;[a]", "[1;[a]]", "[a;[b]]", "[[a]|b]"]
    cases = [parse_term(t) for t in texts] + [
        testkit.gen_sp_term(cfg, rng) for _ in range(40)]
    pcfg = testkit.GenConfig(seed=48, max_events=4, alphabet_size=2)
    prng = pcfg.rng()
    for s in cases:
        S = interp_sp(s)
        f = phi_of_sp(s)
        targets = [S, boxed(S), S.without_full_box()] + [
            testkit.gen_poset(pcfg, prng) for _ in range(4)]
        for P in targets:
            for rel, direct in (("iso", iso(P, S)),
                                ("sub", subsumed_by(P, S)),
                                ("rev", subsumed_by(S, P))):
                assert sat_bool(P, f, rel) == direct, (s, P, rel)


def test_phi_of_term_is_a_disjunction_over_the_expansion():
    e = parse_term("a+b;c")
    f = phi_of_term(e)
    for P in terms.interp(e):
        assert sat_bool(P, f, "iso")
    assert not sat_bool(atom("z"), f, "iso")
    with pytest.raises(ValueError):
        phi_of_term(parse_term("0"))


# ---------------------------------------------------------------------------
# set-level satisfaction


def test_sat_set_quantifiers():
    e = parse_term("a+b")
    assert sat_set(e, ("atom", "a"), "iso", "some")
    assert not sat_set(e, ("atom", "a"), "iso", "all")
    assert sat_set(e, ("or", ("atom", "a"), ("atom", "b")), "iso", "all")
    with pytest.raises(ValueError):
        sat_set(e, EMP, "iso", "most")
    with pytest.raises(ValueError):
        sat_set([], ("atom", "a"), "bogus")


# ---------------------------------------------------------------------------
# independence and frames


def test_independence_examples():
    f = parse_formula("<>c")
    assert independent(atom("a"), f, "iso")
    boxed_c = interp_sp(parse_term("[b|[c]]"))
    assert not independent(boxed_c, f, "sub")
    # on the unit poset independence is the negation of [phi]
    assert independent(unit(), ("atom", "a"), "iso")


def test_frame_counterexample_under_sub():
    P = atom("a")
    Q = interp_sp(parse_term("[b|[c]]"))
    phi = parse_formula("<>c")
    psi = parse_formula("a||b")
    r = frame_check(P, Q, phi, psi, "par", rel="sub")
    assert r["preconditions"]
    assert r["left_to_right"]
    assert not r["right_to_left"]


def test_frame_counterexample_under_rev():
    P = interp_sp(parse_term("a|b"))
    Q = atom("c")
    phi = parse_formula("<>c")
    psi = parse_formula("a")
    r = frame_check(P, Q, phi, psi, "par", rel="rev")
    assert r["preconditions"]
    assert r["left_to_right"]
    assert not r["right_to_left"]


def test_frame_shapes_compose_correctly():
    P, Q = atom("a"), atom("b")
    assert iso(compose_frame(P, Q, "par"), par(P, Q))
    assert iso(compose_frame(P, Q, "seq_suffix"), seq(P, Q))
    assert iso(compose_frame(P, Q, "seq_prefix"), seq(Q, P))
    psi, f = ("atom", "a"), ("atom", "b")
    assert frame_formula(psi, f, "par") == ("parnext", psi, ("boxmod", f))
    assert frame_formula(psi, f, "seq_suffix") == ("seqthen", psi,
                                                   ("boxmod", f))
    assert frame_formula(psi, f, "seq_prefix") == ("seqthen", ("boxmod", f),
                                                   psi)
    with pytest.raises(ValueError):
        compose_frame(P, Q, "diagonal")
    with pytest.raises(ValueError):
        frame_formula(psi, f, "diagonal")


# ---------------------------------------------------------------------------
# substitution


def test_substitute_term_example():
    sigma = {"x": parse_term("a;b")}
    assert substitute_term(parse_term("x|x"), sigma) == \
        parse_term("(a;b)|(a;b)")


def test_substitute_formula_example():
    tau = {"x": parse_formula("a\\/b")}
    assert substitute_formula(parse_formula("x|>x"), tau) == \
        parse_formula("(a\\/b)|>(a\\/b)")


def test_substitution_modularity_scenario():
    # e satisfies phi(e); replacing an atom by an implementation on both
    # sides preserves satisfaction on this instance
    e = parse_term("x;y")
    f = phi_of_term(e)
    sigma = {"x": parse_term("a;b")}
    tau = {"x": phi_of_term(parse_term("a;b"))}
    e2 = substitute_term(e, sigma)
    f2 = substitute_formula(f, tau)
    for P in terms.interp(e2):
        assert sat_bool(P, f2, "iso")

