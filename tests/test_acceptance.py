"""Acceptance suite: nine end-to-end criteria, each reporting a single
pass/fail line."""

import io
import time

from pombox import posets, terms, logic, testkit, cli
from pombox.posets import iso, subsumed_by, unit, boxed
from pombox.terms import parse_term, interp_sp, interp, set_rel, decide
from pombox.logic import parse_formula, sat_bool, sat_oracle, phi_of_sp

import references


def report(num, ok, detail=""):
    tail = " (%s)" % detail if detail else ""
    print("criterion %d: %s%s" % (num, "PASS" if ok else "FAIL", tail))
    assert ok, "criterion %d failed%s" % (num, tail)


# ---------------------------------------------------------------------------
# 1. axiom soundness sweep


EQ_AXIOMS = [
    ("s;(t;u)", "(s;t);u"),
    ("s|(t|u)", "(s|t)|u"),
    ("s|t", "t|s"),
    ("1;s", "s"),
    ("s;1", "s"),
    ("1|s", "s"),
    ("[[s]]", "[s]"),
    ("[1]", "1"),
    ("s+(t+u)", "(s+t)+u"),
    ("s+t", "t+s"),
    ("s+s", "s"),
    ("0+s", "s"),
    # the absorption row states two identities; both are checked
    ("0;s", "0"),
    ("s;0", "0"),
    ("0|s", "0"),
    ("s;(t+u)", "(s;t)+(s;u)"),
    ("(s+t);u", "(s;u)+(t;u)"),
    ("s|(t+u)", "(s|t)+(s|u)"),
    ("[0]", "0"),
    ("[s+t]", "[s]+[t]"),
]

LEQ_AXIOMS = [
    ("(s|t);(u|v)", "(s;u)|(t;v)"),
    ("[s]", "s"),
]


def _instantiate(template, sub):
    return logic.substitute_term(parse_term(template), sub)


def _gen_substitution(cfg, rng):
    while True:
        sub = {v: testkit.gen_term(cfg, rng) for v in "stuv"}
        parts = [p for v in sub for p in terms.expand(sub[v])]
        if len(parts) <= 8 and sum(interp_sp(p).n for p in parts) <= 16:
            return sub


def test_criterion_1_axiom_soundness():
    start = time.time()
    cfg = testkit.GenConfig(term_depth=3, alphabet_size=3, seed=101)
    rng = cfg.rng()
    bad = []
    for lhs, rhs in EQ_AXIOMS:
        for _ in range(100):
            sub = _gen_substitution(cfg, rng)
            if not set_rel(interp(_instantiate(lhs, sub)),
                           interp(_instantiate(rhs, sub)), "iso_eq"):
                bad.append((lhs, rhs, sub))
    for lhs, rhs in LEQ_AXIOMS:
        for _ in range(100):
            sub = _gen_substitution(cfg, rng)
            if not set_rel(interp(_instantiate(lhs, sub)),
                           interp(_instantiate(rhs, sub)), "subsume"):
                bad.append((lhs, rhs, sub))
    took = time.time() - start
    report(1, not bad and took < 30,
           "21 axiom rows (%d identities) x 100 instances, %.1fs" % (
               len(EQ_AXIOMS) + len(LEQ_AXIOMS), took))


# ---------------------------------------------------------------------------
# 2. series-parallel characterization, both directions


def test_criterion_2_sp_characterization():
    start = time.time()
    cfg = testkit.GenConfig(term_depth=3, alphabet_size=3, seed=201)
    rng = cfg.rng()
    ok = True
    for _ in range(500):
        s = testkit.gen_sp_term(cfg, rng)
        P = interp_sp(s)
        if terms.sp_check(P) is not None:
            ok = False
            break
        t = terms.synthesize_term(P)
        if t is None or not decide("bsp", s, t, "eq"):
            ok = False
            break
    pcfg = testkit.GenConfig(max_events=6, seed=202)
    prng = pcfg.rng()
    for _ in range(500):
        P = testkit.gen_poset(pcfg, prng)
        w = terms.sp_check(P)
        t = terms.synthesize_term(P)
        if w is None:
            if t is None or not iso(interp_sp(t), P):
                ok = False
                break
        else:
            if t is not None or not references.pattern_holds(P, w):
                ok = False
                break
    took = time.time() - start
    report(2, ok and took < 60, "500 terms + 500 posets, %.1fs" % took)


# ---------------------------------------------------------------------------
# 3. decision procedures versus direct homomorphism search


def test_criterion_3_decide_vs_reference_homs():
    cfg = testkit.GenConfig(term_depth=3, alphabet_size=2, seed=301)
    rng = cfg.rng()
    bad = 0
    for _ in range(300):
        s = testkit.gen_sp_term(cfg, rng)
        t = testkit.gen_sp_term(cfg, rng)
        S, T = interp_sp(s), interp_sp(t)
        if decide("bsp", s, t, "eq") != (references.find_hom_reference(
                S, T, references.ISO) is not None):
            bad += 1
        if decide("cmb", s, t, "leq") != (references.find_hom_reference(
                T, S, references.ANY) is not None):
            bad += 1
    report(3, bad == 0, "300 pairs, eq and leq, %d disagreements" % bad)


# ---------------------------------------------------------------------------
# 4. term-to-formula translation matches the relations


def test_criterion_4_term_to_form():
    pcfg = testkit.GenConfig(max_events=5, seed=401)
    tcfg = testkit.GenConfig(term_depth=3, alphabet_size=3, seed=402)
    prng, trng = pcfg.rng(), tcfg.rng()
    bad = 0
    for _ in range(300):
        P = testkit.gen_poset(pcfg, prng)
        s = testkit.gen_sp_term(tcfg, trng)
        S = interp_sp(s)
        f = phi_of_sp(s)
        for rel, direct in (("iso", iso(P, S)),
                            ("sub", subsumed_by(P, S)),
                            ("rev", subsumed_by(S, P))):
            if sat_bool(P, f, rel) != direct:
                bad += 1
    report(4, bad == 0, "300 pairs x 3 relations, %d disagreements" % bad)


# ---------------------------------------------------------------------------
# 5. differential model checking against the oracle


def test_criterion_5_differential():
    start = time.time()
    cfg = testkit.GenConfig(max_events=4, formula_depth=3, seed=501)
    rng = cfg.rng()
    compared = {"iso": 0, "sub": 0, "rev": 0}
    unknown = {"iso": 0, "sub": 0, "rev": 0}
    bad = 0
    attempts = 0
    while min(compared.values()) < 200 and attempts < 600:
        attempts += 1
        P = testkit.gen_poset(cfg, rng)
        for rel in logic.RELATIONS:
            f = testkit.gen_formula(cfg, positive=(rel != "iso"), rng=rng)
            expected = sat_oracle(P, f, rel)
            if expected == logic.UNKNOWN:
                unknown[rel] += 1
                continue
            compared[rel] += 1
            if sat_bool(P, f, rel) != expected:
                bad += 1
    took = time.time() - start
    ok = bad == 0 and min(compared.values()) >= 200 and took < 300
    report(5, ok, "compared %r, unknown %r, %d disagreements, %.1fs" % (
        compared, unknown, bad, took))


# ---------------------------------------------------------------------------
# 6. closure, symmetry-closure and extension laws


def test_criterion_6_closure_laws():
    cfg = testkit.GenConfig(max_events=4, formula_depth=3, seed=601)
    rng = cfg.rng()
    bad = []
    for i in range(200):
        P = testkit.gen_poset(cfg, rng)
        f = testkit.gen_formula(cfg, positive=True, rng=rng)
        ws = list(posets.weakenings(P))
        Q = ws[rng.randrange(len(ws))]
        if sat_bool(Q, f, "sub") and not sat_bool(P, f, "sub"):
            bad.append(("sub-closure", i))
        ss = []
        for j, W in enumerate(references.strengthenings(P, 1)):
            ss.append(W)
            if j > 200:
                break
        Q = ss[rng.randrange(len(ss))]
        if sat_bool(Q, f, "rev") and not sat_bool(P, f, "rev"):
            bad.append(("rev-closure", i))
        g = testkit.gen_formula(cfg, positive=False, rng=rng)
        perm = list(range(P.n))
        rng.shuffle(perm)
        labels = [None] * P.n
        for old, new in enumerate(perm):
            labels[new] = P.labels[old]
        R = posets.Poset(labels,
                         [(perm[a], perm[b]) for (a, b) in P.order],
                         [frozenset(perm[e] for e in b) for b in P.boxes])
        if sat_bool(P, g, "iso") != sat_bool(R, g, "iso"):
            bad.append(("sym-closure", i))
        if sat_bool(P, f, "iso") and not (sat_bool(P, f, "sub")
                                          and sat_bool(P, f, "rev")):
            bad.append(("extension", i))
    report(6, not bad, "200 instances per law, violations %r" % bad[:3])


# ---------------------------------------------------------------------------
# 7. frame rule: generated precondition instances plus counterexamples


def test_criterion_7_frame_rule():
    tcfg = testkit.GenConfig(term_depth=2, alphabet_size=3, seed=701)
    pcfg = testkit.GenConfig(max_events=3, formula_depth=2, seed=702)
    trng, prng = tcfg.rng(), pcfg.rng()
    bad = []
    for shape in ("par", "seq_suffix", "seq_prefix"):
        done = 0
        attempts = 0
        while done < 100 and attempts < 10000:
            attempts += 1
            t = testkit.gen_sp_term(tcfg, trng)
            T = interp_sp(t)
            if T.has_full_box():
                continue
            phi = phi_of_sp(t)
            Q = boxed(T)
            if not sat_bool(Q, ("boxmod", phi), "iso"):
                continue
            P = testkit.gen_poset(pcfg, prng)
            if not logic.independent(P, phi, "iso"):
                continue
            psi = testkit.gen_formula(pcfg, positive=False, rng=prng)
            r = logic.frame_check(P, Q, phi, psi, shape, rel="iso")
            if not r["preconditions"] or not r["biconditional"]:
                bad.append((shape, t, psi))
            done += 1
        if done < 100:
            bad.append((shape, "generation starved"))

    # published counterexamples: the biconditional genuinely fails in the
    # right-to-left direction under sub and rev
    P = posets.atom("a")
    Q = interp_sp(parse_term("[b|[c]]"))
    r = logic.frame_check(P, Q, parse_formula("<>c"),
                          parse_formula("a||b"), "par", rel="sub")
    if not (r["preconditions"] and r["left_to_right"]
            and not r["right_to_left"]):
        bad.append(("counterexample-sub", r))
    P = interp_sp(parse_term("a|b"))
    r = logic.frame_check(P, posets.atom("c"), parse_formula("<>c"),
                          parse_formula("a"), "par", rel="rev")
    if not (r["preconditions"] and r["left_to_right"]
            and not r["right_to_left"]):
        bad.append(("counterexample-rev", r))
    report(7, not bad, "100 instances x 3 shapes + 2 counterexamples"
           + ("" if not bad else "; failures %r" % bad[:2]))


# ---------------------------------------------------------------------------
# 8. case studies


def test_criterion_8_case_studies():
    start = time.time()
    buf = io.StringIO()
    ok_counter = cli.run_counter_example(buf)
    ok_voting = cli.run_voting_example(2, 2, buf)
    took = time.time() - start
    ok = ok_counter and ok_voting and took < 120
    detail = "counter %s, voting %s, %.1fs" % (
        "ok" if ok_counter else "FAILED",
        "ok" if ok_voting else "FAILED", took)
    if not ok:
        detail += "; transcript:\n" + buf.getvalue()
    report(8, ok, detail)


# ---------------------------------------------------------------------------
# 9. the empty-poset characterization


def test_criterion_9_unit_characterization():
    cfg = testkit.GenConfig(max_events=4, seed=901)
    rng = cfg.rng()
    bad = 0
    for _ in range(100):
        P = testkit.gen_poset(cfg, rng)
        empty = P.n == 0
        if subsumed_by(P, unit()) != empty:
            bad += 1
        if iso(P, unit()) != empty:
            bad += 1
        if subsumed_by(unit(), P) != empty:
            bad += 1
        if sat_bool(P, logic.EMP, "iso") != empty:
            bad += 1
        if sat_bool(P, logic.EMP, "sub") != empty:
            bad += 1
        if sat_bool(P, logic.EMP, "rev") != empty:
            bad += 1
    report(9, bad == 0, "100 posets, %d disagreements" % bad)
