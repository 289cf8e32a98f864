"""Tests for the term layer: parsing, rendering, interpretation,
series-parallel recognition/synthesis, and the decision procedures."""

import hashlib
import json
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pombox import logic, posets, terms, testkit
from pombox.posets import iso, subsumed_by, atom, unit, seq, par, boxed
from pombox.terms import (
    ZERO, ONE, parse_term, render_term, TermSyntaxError, FragmentError,
    is_sp, interp_sp, interp, expand, sp_check, synthesize_term, set_rel,
    decide,
)

import references


# ---------------------------------------------------------------------------
# parsing and rendering


def test_parse_precedence():
    assert parse_term("a;b|c") == ("par", ("seq", ("atom", "a"),
                                           ("atom", "b")), ("atom", "c"))
    assert parse_term("a|b+c") == ("join", ("par", ("atom", "a"),
                                            ("atom", "b")), ("atom", "c"))
    assert parse_term("a;(b+c)") == ("seq", ("atom", "a"),
                                     ("join", ("atom", "b"), ("atom", "c")))
    assert parse_term("[a;b]") == ("box", ("seq", ("atom", "a"),
                                           ("atom", "b")))
    assert parse_term("0") == ZERO
    assert parse_term("1") == ONE


def test_parse_left_associativity():
    assert parse_term("a;b;c") == ("seq", ("seq", ("atom", "a"),
                                           ("atom", "b")), ("atom", "c"))


def test_parse_errors_carry_position():
    for text in ("", "a;", "(a", "a)", "[]", "a b", "+a"):
        with pytest.raises(TermSyntaxError):
            parse_term(text)
    try:
        parse_term("a;;b")
    except TermSyntaxError as exc:
        assert exc.pos is not None


_TERM_CASES = [
    ("", "expected a term", 0),
    ("a;", "expected a term", 2),
    ("(a", "expected ')'", 2),
    ("a)", "trailing input", 1),
    ("[]", "expected a term", 1),
    ("a b", "trailing input", 2),
    ("+a", "expected a term", 0),
    ("a$", "unexpected character '$'", 1),
    ("|>a", "unexpected character '>'", 1),
    ("[a", "expected ']'", 2),
    ("a/\\", "unexpected character '/'", 1),
    ("(a]", "expected ')'", 2),
    ("a;;b", "expected a term", 2),
]
_FORMULA_CASES = [
    ("", "expected a formula", 0),
    ("a;", "unexpected character ';'", 1),
    ("(a", "expected ')'", 2),
    ("a)", "trailing input", 1),
    ("[]", "expected a formula", 1),
    ("a b", "trailing input", 2),
    ("+a", "unexpected character '+'", 0),
    ("a$", "unexpected character '$'", 1),
    ("|>a", "expected a formula", 0),
    ("[a", "expected ']'", 2),
    ("a/\\", "expected a formula", 3),
    ("[a)", "expected ']'", 2),
    ("~", "expected a formula", 1),
    ("a|", "unexpected character '|'", 1),
]


@pytest.mark.parametrize(
    "parse, error, text, message, pos",
    [(parse_term, TermSyntaxError) + case for case in _TERM_CASES]
    + [(logic.parse_formula, logic.FormulaSyntaxError) + case
       for case in _FORMULA_CASES],
    ids=["term %r" % (case[0],) for case in _TERM_CASES]
    + ["formula %r" % (case[0],) for case in _FORMULA_CASES])
def test_syntax_errors_pin_message_and_position(parse, error, text, message,
                                                pos):
    # the CLI prints these messages, so they are part of its output
    with pytest.raises(error) as info:
        parse(text)
    assert type(info.value) is error
    assert str(info.value) == "%s (at position %d)" % (message, pos)
    assert info.value.pos == pos


@pytest.mark.parametrize("parse, error, text", [
    (parse_term, TermSyntaxError, "(" * 3000 + "a" + ")" * 3000),
    (logic.parse_formula, logic.FormulaSyntaxError, "~" * 3000 + "a"),
], ids=["term", "formula"])
def test_too_deep_input_raises_the_grammars_error(parse, error, text):
    with pytest.raises(error) as info:
        parse(text)
    assert str(info.value).startswith("input nested too deeply (at position")
    assert 0 <= info.value.pos < len(text)


_TERM_ALPHABET = [";", "|", "+", "[", "]", "(", ")", "0", "1", "a", "b",
                  "x1", " ", "~", ">", "$"]
_FORMULA_ALPHABET = ["\\/", "/\\", "||", "|>", "<>", "~", "[", "]", "(", ")",
                     "emp", "a", "b", " ", "|", "/", "<", "0", "$"]


@pytest.mark.parametrize("parse, render, error, alphabet", [
    (parse_term, render_term, TermSyntaxError, _TERM_ALPHABET),
    (logic.parse_formula, logic.render_formula, logic.FormulaSyntaxError,
     _FORMULA_ALPHABET),
], ids=["term", "formula"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_random_token_strings_parse_and_round_trip_or_fail_cleanly(
        parse, render, error, alphabet, data):
    text = "".join(data.draw(st.lists(st.sampled_from(alphabet),
                                      max_size=14)))
    try:
        t = parse(text)
    except error as exc:
        assert 0 <= exc.pos <= len(text)
        return
    assert parse(render(t)) == t


@given(st.integers(0, 10 ** 6))
@settings(max_examples=120, deadline=None)
def test_render_parse_round_trip(seed):
    cfg = testkit.GenConfig(seed=seed, term_depth=4)
    t = testkit.gen_term(cfg)
    assert parse_term(render_term(t)) == t
    s = testkit.gen_sp_term(cfg)
    assert parse_term(render_term(s)) == s


# ---------------------------------------------------------------------------
# interpretation


def test_interp_sp_shapes():
    P = interp_sp(parse_term("a;(b|c)"))
    assert P.n == 3
    assert (0, 1) in P.order and (0, 2) in P.order
    assert (1, 2) not in P.order and (2, 1) not in P.order


def test_interp_sp_is_pinned():
    # interp_sp is the one member of interp: the same poset with the same
    # event numbering, pinned for seeds 0-4 and depths 0-4
    lines = []
    for seed in range(5):
        for depth in range(5):
            cfg = testkit.GenConfig(max_events=depth, term_depth=depth,
                                    seed=seed)
            rng = cfg.rng()
            for _ in range(20):
                t = testkit.gen_sp_term(cfg, rng)
                P = interp_sp(t)
                assert interp(t) == [P], t
                lines.append(json.dumps(posets.to_json(P), sort_keys=True))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "0ac325084d977525c4f64561c6d0d310d09c6e7db78bb19329fdee575f17c097")


def test_interp_dedups_and_absorbs():
    assert len(interp(parse_term("a+a"))) == 1
    assert interp(parse_term("0;a")) == []
    assert interp(parse_term("a;0")) == []
    assert interp(parse_term("0|a")) == []
    assert len(interp(parse_term("(a+b);c"))) == 2


def test_interp_distributivity():
    A = interp(parse_term("a;(b+c)"))
    B = interp(parse_term("a;b+a;c"))
    assert set_rel(A, B, "iso_eq")


def test_expand_keeps_duplicates_interp_dedups():
    t = parse_term("(a+a);b")
    assert len(expand(t)) == 2
    assert len(interp(t)) == 1


def test_is_sp_and_fragment_errors():
    assert is_sp(parse_term("[a;b]|c"))
    assert not is_sp(parse_term("a+b"))
    assert not is_sp(parse_term("0"))
    with pytest.raises(FragmentError):
        interp_sp(parse_term("a+b"))


# ---------------------------------------------------------------------------
# recognition and synthesis


def test_restrictions_of_sp_posets_stay_sp():
    # restrict keeps only the boxes inside A, so no forbidden pattern of
    # P's can appear; over 6 000 restrictions of posets up to 9 events
    cfg = testkit.GenConfig(seed=5, term_depth=5)
    rng = cfg.rng()
    for _ in range(150):
        P = interp_sp(testkit.gen_sp_term(cfg, rng))
        if P.n > 9:
            continue
        for A in posets.subsets(P.n):
            assert sp_check(P.restrict(A)) is None, (P, A)


def test_sp_check_finds_the_four_patterns():
    # order N shape between four events
    n_shape = posets.from_edges(["a", "b", "c", "d"],
                                [(0, 2), (1, 2), (1, 3)], [])
    w = sp_check(n_shape)
    assert w is not None and w.pattern == "P1"
    assert references.pattern_holds(n_shape, w)

    overlap = posets.Poset(["a", "b", "c"], [], [[0, 1], [1, 2]])
    w = sp_check(overlap)
    assert w is not None and w.pattern == "P2"
    assert references.pattern_holds(overlap, w)

    entering = posets.from_edges(["a", "b", "c"], [(0, 1)], [[1, 2]])
    w = sp_check(entering)
    assert w is not None and w.pattern == "P3"
    assert references.pattern_holds(entering, w)

    leaving = posets.from_edges(["a", "b", "c"], [(1, 0)], [[1, 2]])
    w = sp_check(leaving)
    assert w is not None and w.pattern == "P4"
    assert references.pattern_holds(leaving, w)


def test_sp_terms_have_no_patterns_and_round_trip():
    cfg = testkit.GenConfig(seed=11, term_depth=3)
    rng = cfg.rng()
    for _ in range(120):
        s = testkit.gen_sp_term(cfg, rng)
        P = interp_sp(s)
        assert sp_check(P) is None
        t = synthesize_term(P)
        assert t is not None
        assert iso(interp_sp(t), P)
        assert decide("bsp", s, t, "eq")


def test_synthesis_fails_exactly_on_pattern_posets():
    cfg = testkit.GenConfig(seed=13, max_events=5)
    rng = cfg.rng()
    for _ in range(150):
        P = testkit.gen_poset(cfg, rng)
        w = sp_check(P)
        t = synthesize_term(P)
        if w is None:
            assert t is not None and iso(interp_sp(t), P)
        else:
            assert t is None and references.pattern_holds(P, w)


def test_synthesis_matches_the_search_reference():
    cfg = testkit.GenConfig(seed=17, max_events=6, term_depth=6)
    rng = cfg.rng()
    found = set()
    for _ in range(300):
        for P in (testkit.gen_poset(cfg, rng),
                  interp_sp(testkit.gen_sp_term(cfg, rng))):
            if P.n > 14:
                continue
            t = synthesize_term(P)
            assert t == references.synthesize_term_reference(P), P
            found.add(t is None)
    assert found == {True, False}


def test_synthesis_is_polynomial():
    # ten parallel pieces need no search over 2**20 subsets, and a chain
    # keeps no restriction of its rest alive per piece
    P = interp_sp(parse_term("|".join(["(a;b)"] * 10)))
    start = time.perf_counter()
    assert synthesize_term(P) is not None
    assert time.perf_counter() - start < 0.5
    chain = interp_sp(parse_term(";".join(["a"] * 150)))
    tracemalloc.start()
    try:
        assert synthesize_term(chain) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, peak
    # nor restricts the poset once per piece
    chain = interp_sp(parse_term(";".join(["a"] * 300)))
    start = time.perf_counter()
    assert synthesize_term(chain) is not None
    assert time.perf_counter() - start < 0.3


# ---------------------------------------------------------------------------
# decision procedures


def test_decide_canonical_examples():
    assert decide("bsp", parse_term("1;a"), parse_term("a"), "eq")
    assert decide("cmb", parse_term("[a;b]"), parse_term("a;b"), "leq")
    assert not decide("cmb", parse_term("a;b"), parse_term("[a;b]"), "leq")
    assert decide("csrb", parse_term("(a|b);(c|d)"),
                  parse_term("a;c|b;d"), "leq")
    assert decide("bsr", parse_term("a;(b+c)"),
                  parse_term("a;b+a;c"), "eq")
    assert not decide("bsp", parse_term("a;b"), parse_term("b;a"), "eq")


def test_decide_rejects_wrong_fragments_and_kinds():
    with pytest.raises(FragmentError):
        decide("bsp", parse_term("a+b"), parse_term("a"), "eq")
    with pytest.raises(FragmentError):
        decide("cmb", parse_term("0"), parse_term("a"), "leq")
    with pytest.raises(ValueError):
        decide("bsp", parse_term("a"), parse_term("a"), "leq")
    with pytest.raises(ValueError):
        decide("bsr", parse_term("a"), parse_term("a"), "leq")
    with pytest.raises(ValueError):
        decide("nope", parse_term("a"), parse_term("a"), "eq")


def test_set_rel_on_singletons_matches_poset_relations():
    cfg = testkit.GenConfig(seed=17, term_depth=3, alphabet_size=2)
    rng = cfg.rng()
    for _ in range(60):
        s = testkit.gen_sp_term(cfg, rng)
        t = testkit.gen_sp_term(cfg, rng)
        S, T = interp_sp(s), interp_sp(t)
        assert set_rel([S], [T], "iso_eq") == (
            references.find_hom_reference(S, T, references.ISO) is not None)
        assert set_rel([S], [T], "subsume") == subsumed_by(S, T)
