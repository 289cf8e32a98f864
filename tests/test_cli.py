"""Tests for the command line interface: exit codes, JSON output, file
indirection, and the built-in case studies."""

import hashlib
import json
import subprocess
import sys
import time

import pytest

from pombox import cli, logic, posets, terms


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "pombox.cli"] + list(argv),
                          capture_output=True, text=True)


# ---------------------------------------------------------------------------
# exit-code contract


def test_eq_true_exits_zero():
    r = run_cli("eq", "--system", "bsp", "1;a", "a")
    assert r.returncode == 0 and r.stdout.strip() == "true"


def test_eq_false_exits_one():
    r = run_cli("eq", "--system", "bsp", "a;b", "b;a")
    assert r.returncode == 1 and r.stdout.strip() == "false"


def test_eq_counts_events_per_label():
    r = run_cli("eq", "--system", "bsp", "a|a|b", "a|b|b")
    assert r.returncode == 1 and r.stdout.strip() == "false"


def test_eq_reorders_parallel_pieces():
    r = run_cli("eq", "--system", "bsp", "(a;b)|[a;b]|(a;b)|[a;b]|(a;b)|[a;b]",
                "[a;b]|[a;b]|[a;b]|(a;b)|(a;b)|(a;b)")
    assert r.returncode == 0 and r.stdout.strip() == "true"


def test_eq_answers_on_deep_nesting():
    # c;(T|d) nested 150 times around four copies of a;b: 308 events, whose
    # key is read off the series-parallel tree with no recursion per level
    t = "(a;b)|(a;b)|(a;b)|(a;b)"
    for _ in range(150):
        t = "c;((%s)|d)" % t
    r = run_cli("eq", "--system", "bsp", t, t)
    assert r.returncode == 0 and r.stdout.strip() == "true"


def test_eq_tells_parallel_pieces_apart():
    r = run_cli("eq", "--system", "bsp", "(a;b)|(a;b)|(a|b)",
                "(a;b)|(a|b)|(a|b)")
    assert r.returncode == 1 and r.stdout.strip() == "false"


def test_leq_box_axiom():
    r = run_cli("leq", "--system", "cmb", "[a;b]", "a;b")
    assert r.returncode == 0
    r = run_cli("leq", "--system", "cmb", "a;b", "[a;b]")
    assert r.returncode == 1


def test_parse_error_exits_two():
    r = run_cli("eq", "--system", "bsp", "a;;b", "a")
    assert r.returncode == 2 and "error" in r.stderr


def test_fragment_error_exits_two():
    r = run_cli("eq", "--system", "bsp", "a+b", "a")
    assert r.returncode == 2 and "error" in r.stderr


def test_usage_error_exits_two():
    r = run_cli("eq", "a", "b")  # missing --system
    assert r.returncode == 2
    r = run_cli("frobnicate")
    assert r.returncode == 2


@pytest.mark.parametrize("cmd", [["mc", "--formula", "a"], ["synth"],
                                 ["patterns"], ["export-dot"]],
                         ids=lambda cmd: cmd[0])
@pytest.mark.parametrize("source", [[], ["--poset-json", "p.json", "a"]],
                         ids=["neither", "both"])
def test_poset_source_is_a_term_or_poset_json(cmd, source):
    # exactly one of the two: with both, the term is not silently ignored
    r = run_cli(*(cmd + source))
    assert r.returncode == 2 and "usage:" in r.stderr
    assert "Traceback" not in r.stderr


EVENT_A = [{"id": 0, "label": "a"}]


@pytest.mark.parametrize("doc", [
    {"events": [{"id": 0}]},
    {"events": [{"label": "a"}]},
    {"events": [{"id": 0, "label": ""}]},
    {"events": EVENT_A, "order": [0]},
    {"events": EVENT_A, "boxes": [5]},
    {"events": EVENT_A, "order": [[0]]},
    {"events": [{"id": 0, "label": "a b"}]},
    {"events": [{"id": 0, "label": "emp"}]},
    {"events": EVENT_A + [{"id": True, "label": "b"}]},
    {"events": [{"id": 0.0, "label": "a"}, {"id": 1, "label": "b"}]},
    {"events": [{"id": False, "label": "a"}, {"id": 1, "label": "b"}]},
], ids=["no-label", "no-id", "empty-label", "order-not-pair",
        "box-not-list", "order-short-pair", "label-not-identifier",
        "label-emp", "id-true", "id-float", "id-false"])
def test_malformed_poset_json_exits_two(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    r = run_cli("mc", "--formula", "a", "--poset-json", str(path))
    assert r.returncode == 2 and "error" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv", [
    ["synth", "a+b"],
    ["factorize", "a+b", "a"],
], ids=["synth", "factorize"])
def test_non_sp_term_exits_two_with_the_rule(argv):
    # commands that need one poset name the fragment they accept
    r = run_cli(*argv)
    assert r.returncode == 2 and "no 0 and no +" in r.stderr
    assert "interp_sp" not in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("term", ["a", "0", "0+0"])
def test_negation_outside_iso_exits_two(term):
    # the query is checked before quantifying, also over no posets at all
    r = run_cli("mc", "--relation", "sub", "--formula", "~a", term)
    assert r.returncode == 2 and "only available under iso" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv", [
    ["mc", "--formula", "emp", "emp"],
    ["eq", "--system", "bsp", "emp", "emp"],
], ids=["mc", "eq"])
def test_label_emp_exits_two(argv):
    # formulas read emp as the empty pomset, so no event may carry it
    r = run_cli(*argv)
    assert r.returncode == 2 and "not emp" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv", [
    ["synth", "(" * 3000 + "a" + ")" * 3000],
    ["mc", "--formula", "~" * 3000 + "a", "a"],
    ["synth", ";".join(["a"] * 3000)],
], ids=["nested-term", "nested-formula", "long-chain"])
def test_too_deep_input_exits_two(argv):
    r = run_cli(*argv)
    assert r.returncode == 2 and "nested too deeply" in r.stderr
    assert "Traceback" not in r.stderr


def test_mc_sub_answers_a_long_disjunction():
    # the positivity check that sub needs walks the formula without recursion
    r = run_cli("mc", "--relation", "sub", "--formula",
                "\\/".join(["a"] * 400), "a")
    assert r.returncode == 0 and r.stdout.strip() == "true"


def test_internal_error_exits_three(monkeypatch, capsys):
    def broken(*args):
        raise ZeroDivisionError("broken")
    monkeypatch.setattr(terms, "decide", broken)
    assert cli.main(["eq", "--system", "bsp", "a", "a"]) == 3
    assert "Traceback" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["examples", "voting", "--voters", "0"],
    ["examples", "voting", "--counters", "0"],
    ["examples", "voting", "--voters", "1"],
    ["fuzz", "--max-events", "-1"],
    ["fuzz", "--formula-depth", "-1"],
    ["fuzz", "--cases", "-1"],
], ids=lambda argv: " ".join(argv[-2:]))
def test_out_of_range_count_exits_two(argv):
    r = run_cli(*argv)
    assert r.returncode == 2 and "Traceback" not in r.stderr


# ---------------------------------------------------------------------------
# model checking


def test_mc_counter_conflict():
    faulty = "print;(rx|ry);(ix|iy);(wx|wy);print"
    r = run_cli("mc", "--relation", "rev", "--quantifier", "some",
                "--formula", "<>((rx||ry)|>(wx||wy))", faulty)
    assert r.returncode == 0 and r.stdout.strip() == "true"


def test_mc_json_payload_round_trips():
    r = run_cli("mc", "--json", "--formula", "a|>b", "a;b")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["holds"] is True and doc["witness"] is not None
    r = run_cli("mc", "--json", "--formula", "b|>a", "a;b")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["holds"] is False and doc["witness"] is None
    assert doc["member"] is None


def test_mc_json_names_the_witness_member():
    # the witness's event ids refer to the member it names, whichever
    # member of the set it is
    text = "<>(a|>b)"
    r = run_cli("mc", "--json", "--quantifier", "some", "--formula", text,
                "((a;b)|(a;b)|(a;b)) + (a|a|(a;(b|b|b)))")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    m = posets.from_json(doc["member"])
    assert set(doc["witness"]["A"]) <= set(range(m.n))
    assert logic.replay(m, logic.parse_formula(text), "iso", doc["witness"])


def test_mc_reads_poset_json(tmp_path):
    P = terms.interp_sp(terms.parse_term("a;b"))
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(posets.to_json(P)), encoding="utf-8")
    r = run_cli("mc", "--formula", "a|>b", "--poset-json", str(path))
    assert r.returncode == 0


def test_formula_file_indirection(tmp_path):
    path = tmp_path / "formula.txt"
    path.write_text("a|>b\n", encoding="utf-8")
    r = run_cli("mc", "--formula", "@" + str(path), "a;b")
    assert r.returncode == 0


# ---------------------------------------------------------------------------
# synthesis, patterns, factorization, DOT


def test_synth_round_trip():
    r = run_cli("synth", "[a;(b|c)]")
    assert r.returncode == 0
    t = terms.parse_term(r.stdout.strip())
    assert terms.decide("bsp", t, terms.parse_term("[a;(b|c)]"), "eq")


def test_patterns_on_non_sp_poset(tmp_path):
    P = posets.from_edges(["a", "b", "c", "d"], [(0, 2), (1, 2), (1, 3)], [])
    path = tmp_path / "n.json"
    path.write_text(json.dumps(posets.to_json(P)), encoding="utf-8")
    r = run_cli("patterns", "--json", "--poset-json", str(path))
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["result"] is False and doc["witness"]["pattern"] == "P1"
    r = run_cli("synth", "--poset-json", str(path))
    assert r.returncode == 1


def test_patterns_on_a_long_chain_skip_the_pattern_scan():
    # the series-parallel tree answers first, so the scan over every four
    # events, minutes on 200 events, never runs
    start = time.perf_counter()
    r = run_cli("patterns", ";".join(["a"] * 200))
    assert r.returncode == 0 and r.stdout.strip() == "ok"
    assert time.perf_counter() - start < 10.0


def test_patterns_ok_on_sp_term():
    r = run_cli("patterns", "a;(b|c)")
    assert r.returncode == 0 and r.stdout.strip() == "ok"


def test_factorize_outputs_two_posets():
    r = run_cli("factorize", "--json", "[a;b]", "a|b")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    R1 = posets.from_json(doc["r1"])
    R2 = posets.from_json(doc["r2"])
    P = terms.interp_sp(terms.parse_term("[a;b]"))
    Q = terms.interp_sp(terms.parse_term("a|b"))
    assert posets.subsumed_by(P, R2) and posets.subsumed_by(R1, Q)
    r = run_cli("factorize", "a|b", "[a;b]")
    assert r.returncode == 1


def test_export_dot(tmp_path):
    out = tmp_path / "g.dot"
    r = run_cli("export-dot", "-o", str(out), "[a;b]")
    assert r.returncode == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("digraph") and "cluster" in text


# ---------------------------------------------------------------------------
# examples and fuzzing


def test_examples_counter_passes():
    r = run_cli("examples", "counter")
    assert r.returncode == 0
    assert "FAIL" not in r.stdout and "PASS" in r.stdout


def test_examples_voting_passes():
    r = run_cli("examples", "voting", "--voters", "2", "--counters", "2")
    assert r.returncode == 0
    assert "FAIL" not in r.stdout


def test_fuzz_clean():
    r = run_cli("fuzz", "--cases", "15", "--seed", "4", "--max-events", "3")
    assert r.returncode == 0 and r.stdout.strip() == ""


# ---------------------------------------------------------------------------
# builders


def test_voting_interp_sizes():
    v11 = cli.build_voting(1, 1)
    members = terms.interp(v11)
    assert len(members) == 1 and members[0].n == 5
    v22 = cli.build_voting(2, 2)
    assert len(terms.interp(v22)) == 4


def test_counter_builders():
    protected = terms.interp_sp(cli.build_counter(boxed=True))
    assert len(protected.boxes) == 2
    run = terms.interp_sp(cli.build_counter_faulty_run())
    assert run.n == 8
    assert posets.subsumed_by(run, terms.interp_sp(cli.build_counter(False)))


def _builders_text():
    """Every case-study builder's output as text, for voters and counters
    in 1..3, boxed and unboxed."""
    rt, rf = terms.render_term, logic.render_formula
    lines = [rt(cli.build_counter(True)), rt(cli.build_counter(False)),
             rt(cli.build_counter_faulty_run()),
             rf(cli.counter_conflict_formula())]
    for n in range(1, 4):
        lines.append(rt(cli.build_publish(n)))
        for k in range(1, 4):
            for boxed in (True, False):
                lines.append(rt(cli.build_choose(n, k, boxed)))
                lines.append(rt(cli.build_voting(n, k, boxed)))
            lines.append(rf(cli.voting_seqsep_formula(n, k)))
            lines.append(rf(cli.voting_votethensend_formula(n, k)))
    for k in range(1, 4):
        lines.extend(rf(build(k)) for build in (
            cli.voting_conflict_formula, cli.voting_unique_votes_formula,
            cli.voting_write_formula, cli.voting_frame_phi,
            cli.voting_frame_psi))
    return "\n".join(lines)


def test_case_study_builders_are_pinned():
    # rendering is injective (parse(render(t)) == t), so equal text means
    # equal ASTs: the case studies' programs and formulas stay fixed
    digest = hashlib.sha256(_builders_text().encode()).hexdigest()
    assert digest == (
        "e9d8ee6472a0e73c7bab0242336dac66a81ab3710420baaf327f23354ec13c81")
