"""Tests for the generators, shrinking, and the differential harness."""

import hashlib
import json
import time

from pombox import posets, terms, logic, testkit
from pombox.testkit import (
    GenConfig, gen_poset, gen_sp_term, gen_term, gen_formula,
    differential_run, shrink, Discrepancy,
)


def test_same_seed_same_stream():
    a = GenConfig(seed=42)
    b = GenConfig(seed=42)
    ra, rb = a.rng(), b.rng()
    for _ in range(30):
        assert gen_poset(a, ra) == gen_poset(b, rb)
        assert gen_term(a, ra) == gen_term(b, rb)
        assert gen_formula(a, rng=ra) == gen_formula(b, rng=rb)


def _streams_text():
    """The first 20 draws of every generator, each from a fresh stream,
    rendered as text, for seeds 0-4 and depths 0-4."""
    lines = []
    for seed in range(5):
        for depth in range(5):
            cfg = GenConfig(max_events=depth, term_depth=depth,
                            formula_depth=depth, seed=seed)
            draws = [
                lambda rng: terms.render_term(gen_sp_term(cfg, rng)),
                lambda rng: terms.render_term(gen_term(cfg, rng)),
                lambda rng: logic.render_formula(gen_formula(cfg, rng=rng)),
                lambda rng: logic.render_formula(
                    gen_formula(cfg, positive=True, rng=rng)),
                lambda rng: json.dumps(posets.to_json(gen_poset(cfg, rng)),
                                       sort_keys=True),
            ]
            for draw in draws:
                rng = cfg.rng()
                lines.extend(draw(rng) for _ in range(20))
    return "\n".join(lines)


def test_seeded_streams_are_pinned():
    # rendering is injective (parse(render(t)) == t), so equal text means
    # equal draws: every seeded test and benchmark stream stays fixed
    digest = hashlib.sha256(_streams_text().encode()).hexdigest()
    assert digest == (
        "b6b9650ef3b65b984369f9c7d8cedf9c3fd5c4e71ecb0117cc453a92dcc42cb9")


def test_generated_posets_are_valid():
    cfg = GenConfig(seed=1, max_events=5)
    rng = cfg.rng()
    for _ in range(100):
        P = gen_poset(cfg, rng)
        # re-validating raises on any structural defect
        posets.Poset(P.labels, P.order, P.boxes)
        assert P.n <= 5


def test_generated_terms_respect_fragments():
    cfg = GenConfig(seed=2, term_depth=4)
    rng = cfg.rng()
    for _ in range(100):
        assert terms.is_sp(gen_sp_term(cfg, rng))
        terms.interp(gen_term(cfg, rng))  # interpretable


def test_generated_positive_formulas_are_positive():
    cfg = GenConfig(seed=3, formula_depth=4)
    rng = cfg.rng()
    for _ in range(100):
        assert logic.positive(gen_formula(cfg, positive=True, rng=rng))


def test_differential_run_is_clean_on_the_real_engine():
    cfg = GenConfig(seed=5, max_events=3, formula_depth=3)
    assert differential_run(cfg, 30) == []


def test_differential_run_catches_a_seeded_fault(monkeypatch):
    # a broken engine that lets restrictions cut boxes open under iso,
    # so boxes no longer shield their interior from the context modality
    real = logic.sat_bool

    def broken(P, f, rel):
        if f[0] == "ctx" and rel == "iso":
            for A in posets.subsets(P.n):
                if broken(P.restrict(A), f[1], rel):
                    return True
            return False
        return real(P, f, rel)

    monkeypatch.setattr(logic, "sat_bool", broken)
    cfg = GenConfig(seed=8, max_events=4, formula_depth=2)
    found = differential_run(cfg, 150, relations=("iso",))
    assert found, "the harness must flag the seeded fault"
    for d in found:
        assert d.expected != d.actual
        assert broken(d.poset, d.formula, d.relation) != \
            logic.sat_oracle(d.poset, d.formula, d.relation)


def test_shrink_preserves_the_mismatch_shape():
    # shrink against an artificial mismatch: engine result negated
    cfg = GenConfig(seed=9, max_events=3, formula_depth=2)
    rng = cfg.rng()
    P = gen_poset(cfg, rng)
    f = gen_formula(cfg, rng=rng)
    d = Discrepancy(P, f, "iso", logic.sat_oracle(P, f, "iso"),
                    logic.sat_bool(P, f, "iso"))
    s = shrink(d)
    assert s.shrunk
    assert s.poset.n <= P.n


def test_shrink_returns_when_the_mismatch_persists_on_emp(monkeypatch):
    # a broken engine that calls emp true on one event: the mismatch on
    # emp persists when shrink offers emp again, which must not count as
    # progress; past 200 engine calls shrink is looping
    real = logic.sat_bool
    calls = []

    def broken(P, f, rel):
        calls.append(None)
        assert len(calls) < 200, "shrink loops"
        return (f == logic.EMP and P.n == 1) or real(P, f, rel)

    monkeypatch.setattr(logic, "sat_bool", broken)
    start = time.perf_counter()
    s = shrink(Discrepancy(posets.atom("a"), logic.EMP, "iso", False, True))
    assert time.perf_counter() - start < 1.0
    assert posets.iso(s.poset, posets.atom("a")) and s.formula == logic.EMP
    assert (s.expected, s.actual) == (False, True)


def test_discrepancy_as_dict_is_replayable():
    P = posets.atom("a")
    f = ("atom", "a")
    d = Discrepancy(P, f, "iso", True, False)
    doc = d.as_dict()
    Q = posets.from_json(doc["poset"])
    g = logic.parse_formula(doc["formula"])
    assert posets.iso(P, Q) and g == f
    assert doc["relation"] == "iso"
