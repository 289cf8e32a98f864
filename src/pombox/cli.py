"""Command line front end: equational queries, model checking, term
synthesis, pattern reports, subsumption factorization, DOT export, the
built-in case studies, and the differential fuzzer."""

import argparse
import json
import sys
import traceback

from . import posets, terms, logic, testkit


# ---------------------------------------------------------------------------
# case-study builders, written in the concrete syntax of terms.parse_term
# and logic.parse_formula


def _group(text, boxed):
    """text as one operand: boxed, or else in parentheses."""
    return ("[%s]" if boxed else "(%s)") % text


def build_counter(boxed=True):
    """The two-counter increment program as a series-parallel term."""
    return terms.parse_term("print;(%s|%s);print" % (
        _group("rx;ix;wx", boxed), _group("ry;iy;wy", boxed)))


def build_counter_faulty_run():
    """A bad schedule of the unboxed program: both reads happen before
    both writes."""
    return terms.parse_term("print;(rx|ry);(ix|iy);(wx|wy);print")


def counter_conflict_formula():
    return logic.parse_formula("<>((rx||ry)|>(wx||wy))")


def _choose(n, k, boxed):
    """The n voters in parallel: voter i chooses one of the k counters j,
    then reads, increments and writes it."""
    return "|".join(_group("+".join(
        "choose_%d_%d;read_%d;inc;write_%d" % (i, j, j, j)
        for j in range(1, k + 1)), boxed) for i in range(1, n + 1))


def _publish(n):
    return "|".join("send_%d" % i for i in range(1, n + 1))


def build_choose(n, k, boxed=True):
    return terms.parse_term(_choose(n, k, boxed))


def build_publish(n):
    return terms.parse_term(_publish(n))


def build_voting(n, k, boxed=True):
    return terms.parse_term("(%s);(%s)" % (_choose(n, k, boxed),
                                          _publish(n)))


def voting_conflict_formula(j):
    return logic.parse_formula(
        "<>((read_%d||read_%d)|>(write_%d||write_%d))" % (j, j, j, j))


def _any(atoms):
    """The disjunction of the atoms, in parentheses."""
    return "(%s)" % "\\/".join(atoms)


def voting_seqsep_formula(n, k):
    sends = _any("send_%d" % i for i in range(1, n + 1))
    chooses = _any("choose_%d_%d" % (i, j) for i in range(1, n + 1)
                   for j in range(1, k + 1))
    return logic.parse_formula("<>~%s |> <>~%s" % (sends, chooses))


def voting_votethensend_formula(n, k):
    return logic.parse_formula("<>(%s)" % "||".join(
        "%s|>send_%d" % (_any("choose_%d_%d" % (i, j)
                              for j in range(1, k + 1)), i)
        for i in range(1, n + 1)))


def voting_unique_votes_formula(k):
    return logic.parse_formula("\\/".join(
        "<>[<>(write_%d||write_%d)]" % (j, j2)
        for j in range(1, k + 1) for j2 in range(1, k + 1)))


def _writes(k):
    return _any("write_%d" % j for j in range(1, k + 1))


def voting_write_formula(k):
    return logic.parse_formula(_writes(k))


def voting_frame_phi(k):
    # a non-empty pomset with no box containing a write
    return logic.parse_formula("~(emp \\/ <>[<>%s])" % _writes(k))


def voting_frame_psi(k):
    return logic.parse_formula("<>(%s|>%s)" % (_writes(k), _writes(k)))


# ---------------------------------------------------------------------------
# example runners


def _run_checks(checks, out):
    all_ok = True
    for desc, expected, actual in checks:
        ok = expected == actual
        all_ok = all_ok and ok
        out.write("%-4s  %s (expected %s, got %s)\n" % (
            "PASS" if ok else "FAIL", desc, expected, actual))
    return all_ok


def run_counter_example(out):
    conflict = counter_conflict_formula()
    run = terms.interp_sp(build_counter_faulty_run())
    plain = terms.interp_sp(build_counter(boxed=False))
    protected = terms.interp_sp(build_counter(boxed=True))
    checks = [
        ("faulty interleaved run satisfies conflict (rev)",
         True, logic.sat_bool(run, conflict, "rev")),
        ("unprotected program can reach the conflict (rev, some)",
         True, logic.sat_bool(plain, conflict, "rev")),
        ("boxed program rules the conflict out (rev, some)",
         False, logic.sat_bool(protected, conflict, "rev")),
    ]
    return _run_checks(checks, out)


def run_voting_example(n, k, out):
    vote = build_voting(n, k, boxed=True)
    vote_prime = build_voting(n, k, boxed=False)
    conflict = voting_conflict_formula(1)
    seqsep = voting_seqsep_formula(n, k)
    vts = voting_votethensend_formula(n, k)
    uniq = voting_unique_votes_formula(k)
    phi = voting_frame_phi(k)
    psi = voting_frame_psi(k)
    choose_boxed = ("box", build_choose(n, k, boxed=True))
    publish_boxed = ("box", build_publish(n))
    composed = ("seq", choose_boxed, publish_boxed)
    choose_ps = terms.interp(choose_boxed)
    publish_ps = terms.interp(publish_boxed)

    frame_bicond = all(
        logic.frame_check(p, q, phi, psi, "seq_suffix")["biconditional"]
        for p in choose_ps for q in publish_ps)

    checks = [
        ("unboxed protocol can show a conflict (rev, some)",
         True, logic.sat_set(vote_prime, conflict, "rev", "some")),
        ("boxed protocol rules the conflict out (rev, some)",
         False, logic.sat_set(vote, conflict, "rev", "some")),
        ("sends happen after all votes: seqsep (iso, all)",
         True, logic.sat_set(vote, seqsep, "iso", "all")),
        ("each voter votes then is notified (sub, all)",
         True, logic.sat_set(vote, vts, "sub", "all")),
        ("no box writes two counters: unique votes (sub, some)",
         False, logic.sat_set(vote, uniq, "sub", "some")),
        ("boxed choose phase independent of phi (iso, all)",
         True, all(logic.independent(p, phi) for p in choose_ps)),
        ("boxed publish phase satisfies [phi] (iso, all)",
         True, logic.sat_set(publish_ps, ("boxmod", phi), "iso", "all")),
        ("boxed choose cannot show write-then-write (iso, all)",
         False, logic.sat_set(choose_ps, psi, "iso", "all")),
        ("composed program fails psi |> [phi] (iso, all)",
         False, logic.sat_set(composed,
                              ("seqthen", psi, ("boxmod", phi)),
                              "iso", "all")),
        ("frame biconditional on every member pair",
         True, frame_bicond),
    ]
    return _run_checks(checks, out)


# ---------------------------------------------------------------------------
# CLI plumbing


def _text(arg):
    if arg.startswith("@"):
        with open(arg[1:], "r", encoding="utf-8") as fh:
            return fh.read().strip()
    return arg


def _load_poset_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return posets.from_json(json.load(fh))


def _single_poset(args):
    if args.poset_json:
        return _load_poset_json(args.poset_json)
    t = terms.parse_term(_text(args.term))
    return terms.interp_sp(t)


def _poset_set(args):
    if args.poset_json:
        return [_load_poset_json(args.poset_json)]
    return terms.interp(terms.parse_term(_text(args.term)))


def _emit(args, payload, human):
    if getattr(args, "json", False):
        print(json.dumps(payload))
    else:
        print(human)


def _at_least(low):
    """An argparse type for integers no smaller than low."""
    def count(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d" % low)
        return value
    return count


def _poset_source(q):
    """The poset comes from exactly one of --poset-json and a term."""
    src = q.add_mutually_exclusive_group(required=True)
    src.add_argument("--poset-json")
    src.add_argument("term", nargs="?")


def build_parser():
    p = argparse.ArgumentParser(
        prog="pombox",
        description="posets with boxes: algebra and model checking")
    sub = p.add_subparsers(dest="cmd", required=True)

    for name in ("eq", "leq"):
        q = sub.add_parser(name, help="decide %s in an axiom system" % name)
        q.add_argument("--system", choices=("bsp", "cmb", "bsr", "csrb"),
                       required=True)
        q.add_argument("--json", action="store_true")
        q.add_argument("lhs")
        q.add_argument("rhs")

    q = sub.add_parser("mc", help="model check a formula")
    q.add_argument("--relation", choices=logic.RELATIONS, default="iso")
    q.add_argument("--quantifier", choices=("all", "some"), default="all")
    q.add_argument("--formula", required=True)
    q.add_argument("--json", action="store_true")
    _poset_source(q)

    q = sub.add_parser("synth", help="synthesize a term from a poset")
    q.add_argument("--json", action="store_true")
    _poset_source(q)

    q = sub.add_parser("patterns", help="report forbidden patterns")
    q.add_argument("--json", action="store_true")
    _poset_source(q)

    q = sub.add_parser("factorize",
                       help="factor a subsumption into box/order steps")
    q.add_argument("--json-posets", action="store_true",
                   help="treat the two arguments as poset JSON files")
    q.add_argument("--json", action="store_true")
    q.add_argument("lhs")
    q.add_argument("rhs")

    q = sub.add_parser("export-dot", help="write a poset in DOT format")
    q.add_argument("-o", "--output")
    _poset_source(q)

    q = sub.add_parser("examples", help="run a built-in case study")
    q.add_argument("name", choices=("counter", "voting"))
    q.add_argument("--voters", type=_at_least(2), default=2)
    q.add_argument("--counters", type=_at_least(1), default=2)

    q = sub.add_parser("fuzz", help="differential engine-vs-oracle fuzzing")
    q.add_argument("--cases", type=_at_least(0), default=50)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--max-events", type=_at_least(0), default=3)
    q.add_argument("--formula-depth", type=_at_least(0), default=3)
    return p


def run(argv):
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.cmd in ("eq", "leq"):
        lhs = terms.parse_term(_text(args.lhs))
        rhs = terms.parse_term(_text(args.rhs))
        res = terms.decide(args.system, lhs, rhs, args.cmd)
        _emit(args, {"result": res}, "true" if res else "false")
        return 0 if res else 1

    if args.cmd == "mc":
        members = _poset_set(args)
        f = logic.parse_formula(_text(args.formula))
        holds = logic.sat_set(members, f, args.relation, args.quantifier)
        member = witness = None
        if holds:
            for m in members:
                r = logic.sat(m, f, args.relation)
                if r.truth:
                    member, witness = posets.to_json(m), r.witness
                    break
        _emit(args, {"holds": holds, "member": member, "witness": witness},
              "true" if holds else "false")
        return 0 if holds else 1

    if args.cmd == "synth":
        P = _single_poset(args)
        t = terms.synthesize_term(P)
        if t is None:
            w = terms.sp_check(P)
            _emit(args, {"result": False, "witness": w.as_dict()},
                  "not series-parallel: %r" % w)
            return 1
        _emit(args, {"result": True, "term": terms.render_term(t)},
              terms.render_term(t))
        return 0

    if args.cmd == "patterns":
        P = _single_poset(args)
        # the quartic pattern scan runs only when synthesis fails
        w = terms.sp_check(P) if terms.synthesize_term(P) is None else None
        if w is None:
            _emit(args, {"result": True}, "ok")
            return 0
        _emit(args, {"result": False, "witness": w.as_dict()}, repr(w))
        return 1

    if args.cmd == "factorize":
        if args.json_posets:
            P = _load_poset_json(args.lhs)
            Q = _load_poset_json(args.rhs)
        else:
            P = terms.interp_sp(terms.parse_term(_text(args.lhs)))
            Q = terms.interp_sp(terms.parse_term(_text(args.rhs)))
        res = posets.factorize_subsumption(P, Q)
        if res is None:
            _emit(args, {"result": False}, "not subsumed")
            return 1
        R1, R2 = res
        payload = {"result": True, "r1": posets.to_json(R1),
                   "r2": posets.to_json(R2)}
        _emit(args, payload, json.dumps(payload, indent=2))
        return 0

    if args.cmd == "export-dot":
        P = _single_poset(args)
        dot = posets.to_dot(P)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(dot + "\n")
        else:
            print(dot)
        return 0

    if args.cmd == "examples":
        if args.name == "counter":
            ok = run_counter_example(sys.stdout)
        else:
            ok = run_voting_example(args.voters, args.counters, sys.stdout)
        return 0 if ok else 1

    if args.cmd == "fuzz":
        cfg = testkit.GenConfig(max_events=args.max_events,
                                formula_depth=args.formula_depth,
                                seed=args.seed)
        found = testkit.differential_run(cfg, args.cases)
        for d in found:
            print(json.dumps(d.as_dict()))
        return 0 if not found else 1

    parser.error("unknown command")


def main(argv=None):
    """Run the CLI.  Exit codes: 0 true, 1 false, 2 usage or input error
    (including input nested too deeply), 3 unexpected internal error."""
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
