"""The benchmark's three workloads.

Each workload is built in set-up from ``--seed`` and exposes:

* ``queries``: a list of zero-argument callables, one per query, issued in
  order by a single caller that waits for each verdict (a closed loop);
* ``decided(result)``: whether a query's verdict is definite;
* ``verdict(result)``: the verdict as a JSON value, for comparing passes;
* ``check(results)``: the untimed check of every verdict, returning one
  flag per query that is True when the verdict is wrong (``results`` holds
  None where the query raised);
* ``corrupt(result)``: a deliberately wrong copy of a result, or None,
  used only by the self-test to prove that the check catches it.

The structure of every workload is fixed and the seed renames its labels,
so a run on any seed does the same amount of work and runs on different
seeds can be compared.
"""

import random

from pombox import cli, logic, posets, terms, testkit

# Voting sizes (voters, counters) in the casestudy workload.  Larger sizes
# are left out because one run could not be repeated often enough:
# 3x2 takes 84 s and 1.2 GB, 3x3 takes 470 s.  The change that brings them
# into range adds them here, as a benchmark change of its own.
VOTING_SIZES = [(2, 2), (2, 3), (2, 4)]

# criterion 5's generator, stream and oracle box cap
DIFFERENTIAL_CONFIG = dict(max_events=4, formula_depth=3, seed=501)
DIFFERENTIAL_CASES = 100
ORACLE_CAP = 2


def _fresh_names(rng, labels):
    """A random renaming of ``labels`` to fresh atom names that keeps their
    sorted order, so that every order the program derives from labels, and
    with it the work it does, is the same on every seed."""
    labels = sorted(labels)
    ids = sorted(rng.sample(range(100, 1000), len(labels)))
    return {old: "q%d" % i for old, i in zip(labels, ids)}


def _term_labels(t, out):
    if t[0] == "atom":
        out.add(t[1])
    for sub in t[1:]:
        if isinstance(sub, tuple):
            _term_labels(sub, out)
    return out


def _rename_term(t, names):
    return logic.substitute_term(
        t, {old: ("atom", new) for old, new in names.items()})


def _rename_formula(f, names):
    return logic.substitute_formula(
        f, {old: ("atom", new) for old, new in names.items()})


# ---------------------------------------------------------------------------
# casestudy: the paper's counter and voting programs


class CaseStudy:
    """``examples counter`` and the full ``examples voting`` check list, one
    logic call per member poset, in the order the CLI evaluates them."""

    def __init__(self, seed, smoke=False):
        rng = random.Random(seed)
        self.queries = []
        # groups: (quantifier, expected, first query index, end index)
        self.groups = []
        # sat queries: index -> (poset, formula, relation) for replay
        self.replays = {}
        sizes = VOTING_SIZES[:1] if smoke else VOTING_SIZES
        self._counter(rng)
        for n, k in sizes:
            self._voting(rng, n, k)

    def _group(self, quant, expected, calls):
        first = len(self.queries)
        for kind, args in calls:
            if kind == "sat":
                self.replays[len(self.queries)] = args
            self.queries.append(_CALLS[kind](*args))
        self.groups.append((quant, expected, first, len(self.queries)))

    def _counter(self, rng):
        run = cli.build_counter_faulty_run()
        plain = cli.build_counter(boxed=False)
        protected = cli.build_counter(boxed=True)
        names = _fresh_names(rng, _term_labels(plain, set()))
        conflict = _rename_formula(cli.counter_conflict_formula(), names)
        for t, expected in ((run, True), (plain, True), (protected, False)):
            P = terms.interp_sp(_rename_term(t, names))
            self._group("all", expected, [("sat", (P, conflict, "rev"))])

    def _voting(self, rng, n, k):
        vote = cli.build_voting(n, k, boxed=True)
        vote_prime = cli.build_voting(n, k, boxed=False)
        names = _fresh_names(rng, _term_labels(vote, set()))

        def f(x):
            return _rename_formula(x, names)

        def t(x):
            return _rename_term(x, names)
        conflict = f(cli.voting_conflict_formula(1))
        seqsep = f(cli.voting_seqsep_formula(n, k))
        vts = f(cli.voting_votethensend_formula(n, k))
        uniq = f(cli.voting_unique_votes_formula(k))
        phi = f(cli.voting_frame_phi(k))
        psi = f(cli.voting_frame_psi(k))
        choose_boxed = ("box", t(cli.build_choose(n, k, boxed=True)))
        publish_boxed = ("box", t(cli.build_publish(n)))
        composed = ("seq", choose_boxed, publish_boxed)
        vote_ps = terms.interp(t(vote))
        prime_ps = terms.interp(t(vote_prime))
        choose_ps = terms.interp(choose_boxed)
        publish_ps = terms.interp(publish_boxed)
        composed_ps = terms.interp(composed)

        def sat(ps, g, rel):
            return [("sat", (P, g, rel)) for P in ps]
        # the CLI evaluates the frame biconditional before its check list
        self._group("all", True, [("frame", (p, q, phi, psi))
                                  for p in choose_ps for q in publish_ps])
        self._group("some", True, sat(prime_ps, conflict, "rev"))
        self._group("some", False, sat(vote_ps, conflict, "rev"))
        self._group("all", True, sat(vote_ps, seqsep, "iso"))
        self._group("all", True, sat(vote_ps, vts, "sub"))
        self._group("some", False, sat(vote_ps, uniq, "sub"))
        self._group("all", True, [("indep", (p, phi)) for p in choose_ps])
        self._group("all", True, sat(publish_ps, ("boxmod", phi), "iso"))
        self._group("all", False, sat(choose_ps, psi, "iso"))
        self._group("all", False, sat(composed_ps,
                                      ("seqthen", psi, ("boxmod", phi)),
                                      "iso"))

    def decided(self, result):
        return isinstance(result[0], bool)

    def verdict(self, result):
        return result[0]

    def check(self, results):
        wrong = [r is None for r in results]
        for quant, expected, first, end in self.groups:
            verdicts = [r[0] if r is not None else None
                        for r in results[first:end]]
            if (quant == "all") == expected:
                # every member must give the expected verdict
                for i in range(first, end):
                    if verdicts[i - first] is not expected:
                        wrong[i] = True
            else:
                # only the aggregate is known: some member must give it
                if expected not in verdicts:
                    for i in range(first, end):
                        wrong[i] = True
        for i, (P, f, rel) in self.replays.items():
            r = results[i]
            if r is not None and r[0] is True and \
                    not logic.replay(P, f, rel, r[1]):
                wrong[i] = True
        return wrong

    def corrupt(self, result):
        return (not result[0], result[1])


def _sat_call(P, f, rel):
    def run():
        res = logic.sat(P, f, rel)
        return (res.truth, res.witness)
    return run


def _frame_call(p, q, phi, psi):
    def run():
        return (logic.frame_check(p, q, phi, psi, "seq_suffix")[
            "biconditional"], None)
    return run


def _indep_call(p, phi):
    def run():
        return (logic.independent(p, phi), None)
    return run


_CALLS = {"sat": _sat_call, "frame": _frame_call, "indep": _indep_call}


# ---------------------------------------------------------------------------
# differential: engine against the brute-force oracle


class Differential:
    """Criterion 5's case stream: one query is one generated poset checked
    under iso, sub and rev, oracle first and then the engine wherever the
    oracle decides."""

    def __init__(self, seed, smoke=False):
        cfg = testkit.GenConfig(**DIFFERENTIAL_CONFIG)
        gen_rng = cfg.rng()
        names = _fresh_names(random.Random(seed), cfg.alphabet())
        self.queries = []
        for _ in range(10 if smoke else DIFFERENTIAL_CASES):
            P = testkit.gen_poset(cfg, gen_rng)
            P = posets.Poset([names[x] for x in P.labels], P.order, P.boxes)
            triples = []
            for rel in logic.RELATIONS:
                f = testkit.gen_formula(cfg, positive=(rel != "iso"),
                                        rng=gen_rng)
                triples.append((rel, _rename_formula(f, names)))
            self.queries.append(_case_call(P, triples))

    def decided(self, result):
        return all(o != logic.UNKNOWN for _, o, _ in result)

    def verdict(self, result):
        return [[o, e] for _, o, e in result]

    def check(self, results):
        return [r is None or any(o != logic.UNKNOWN and o != e
                                 for _, o, e in r)
                for r in results]

    def corrupt(self, result):
        for i, (rel, o, e) in enumerate(result):
            if o != logic.UNKNOWN:
                out = list(result)
                out[i] = (rel, o, not e)
                return out
        return None


def _case_call(P, triples):
    def run():
        out = []
        for rel, f in triples:
            o = logic.sat_oracle(P, f, rel, ORACLE_CAP)
            e = None if o == logic.UNKNOWN else logic.sat_bool(P, f, rel)
            out.append((rel, o, e))
        return out
    return run


# ---------------------------------------------------------------------------
# symmetric: many interchangeable events


# chunks over the labels A and B, as term text
CHUNKS = ["A;B", "[A;B]", "A|B", "[A]"]
# posets for the logic half: copies per chunk kind, at most 12 events
SAT_POSETS = (
    [{c: k} for c in CHUNKS for k in range(1, 6)]
    + [{"A;B": 3, "A|B": 3}, {"[A;B]": 3, "[A]": 3},
       {"A;B": 2, "[A;B]": 2, "A|B": 2}, {"A;B": 4, "[A]": 2}])
SAT_FORMULAS = ["<>((A||A)|>(B||B))", "<>(A|>B)",
                "<>([A|>B]||[A|>B])", "<>((A|>B)||(A|>B))"]
SAT_RELATIONS = ("iso", "rev")
# criterion 1's axiom table: (lhs, rhs, system, kind)
AXIOMS = [(l, r, "bsr", "eq") for l, r in [
    ("s;(t;u)", "(s;t);u"), ("s|(t|u)", "(s|t)|u"), ("s|t", "t|s"),
    ("1;s", "s"), ("s;1", "s"), ("1|s", "s"), ("[[s]]", "[s]"),
    ("[1]", "1"), ("s+(t+u)", "(s+t)+u"), ("s+t", "t+s"), ("s+s", "s"),
    ("0+s", "s"), ("0;s", "0"), ("s;0", "0"), ("0|s", "0"),
    ("s;(t+u)", "(s;t)+(s;u)"), ("(s+t);u", "(s;u)+(t;u)"),
    ("s|(t+u)", "(s|t)+(s|u)"), ("[0]", "0"), ("[s+t]", "[s]+[t]")]] + [
    (l, r, "csrb", "leq") for l, r in [
        ("(s|t);(u|v)", "(s;u)|(t;v)"), ("[s]", "s")]]
DECIDE_INSTANCES = 4
MAX_EVENTS = 12


class Symmetric:
    """Parallel copies of small chunks: ``terms.decide`` on axiom-row
    instances with wide substitutions, and ``logic.sat_bool`` under iso and
    rev with split formulas."""

    def __init__(self, seed, smoke=False):
        names = _fresh_names(random.Random(seed), ["A", "B"])
        sat_posets = SAT_POSETS[::5] if smoke else SAT_POSETS
        axioms = AXIOMS[::4] if smoke else AXIOMS
        instances = 1 if smoke else DECIDE_INSTANCES
        decide = []
        for j in range(instances):
            for row, (lhs, rhs, system, kind) in enumerate(axioms):
                decide.append((self._instance(names, j + row, lhs, rhs,
                                              system, kind), None))
        sat = []
        for mix in sat_posets:
            chunks = [c for c in CHUNKS for _ in range(mix.get(c, 0))]
            text = "|".join("(%s)" % c for c in chunks)
            P = terms.interp_sp(terms.parse_term(_fill(text, names)))
            for ftext in SAT_FORMULAS:
                f = logic.parse_formula(_fill(ftext, names))
                for rel in SAT_RELATIONS:
                    sat.append((_symsat_call(P, f, rel), (P, f, rel)))
        # the two halves alternate, so a run always mixes both
        entries = _interleave(decide, sat)
        self.queries = [call for call, _ in entries]
        self.decide_queries = {i for i, (_, meta) in enumerate(entries)
                               if meta is None}
        # (poset, formula) -> {relation: query index}
        self.sat_checks = {}
        for i, (_, meta) in enumerate(entries):
            if meta is not None:
                P, f, rel = meta
                self.sat_checks.setdefault((P, f), {})[rel] = i

    def _instance(self, names, j, lhs, rhs, system, kind):
        template_vars = [v for v in "stuv" if v in lhs + rhs]
        occurrences = max(sum(side.count(v) for v in template_vars)
                          for side in (lhs, rhs))
        # as wide as the 12-event limit allows (a chunk has at most two
        # events), at most five copies
        width = min(5, MAX_EVENTS // (2 * max(1, occurrences)))
        sub = {}
        for i, v in enumerate(template_vars):
            # two alternatives of different chunk kinds; s and t never
            # share a kind, so no poset holds more than five equal chunks
            groups = ["|".join(["(%s)" % CHUNKS[(j + i + shift) % len(CHUNKS)]]
                               * width) for shift in (0, 2)]
            sub[v] = terms.parse_term(_fill(" + ".join(groups), names))
        left = terms.render_term(logic.substitute_term(
            terms.parse_term(lhs), sub))
        right = terms.render_term(logic.substitute_term(
            terms.parse_term(rhs), sub))
        return _decide_call(system, left, right, kind)

    def decided(self, result):
        return isinstance(result, bool)

    def verdict(self, result):
        return result

    def check(self, results):
        # decide answers hold by soundness of the axioms
        wrong = [r is None or (i in self.decide_queries and r is not True)
                 for i, r in enumerate(results)]
        for (P, f), by_rel in self.sat_checks.items():
            iso_q, rev_q = by_rel["iso"], by_rel["rev"]
            # positive formulas extend monotonically from iso to rev
            if results[iso_q] is True and results[rev_q] is False:
                wrong[iso_q] = wrong[rev_q] = True
            for rel, q in by_rel.items():
                if results[q] is None or not _oracle_feasible(P, rel):
                    continue
                o = logic.sat_oracle(P, f, rel, ORACLE_CAP)
                if o != logic.UNKNOWN and o != results[q]:
                    wrong[q] = True
        return wrong

    def corrupt(self, result):
        return not result


def _oracle_feasible(P, rel):
    """Whether the oracle's enumeration fits in the check phase: under iso
    it searches subsets of P (2^n); under rev it enumerates every order
    extension of P together with up to two new boxes, and with more than
    two boxes already present it runs out of budget after seconds."""
    if rel == "iso":
        return P.n <= 8
    return P.n <= 4 and len(P.boxes) <= 2


def _fill(text, names):
    return text.replace("A", names["A"]).replace("B", names["B"])


def _interleave(xs, ys):
    out = []
    for i in range(max(len(xs), len(ys))):
        out.extend(xs[i:i + 1])
        out.extend(ys[i:i + 1])
    return out


def _decide_call(system, left, right, kind):
    def run():
        return terms.decide(system, terms.parse_term(left),
                            terms.parse_term(right), kind)
    return run


def _symsat_call(P, f, rel):
    def run():
        return logic.sat_bool(P, f, rel)
    return run


WORKLOADS = {"casestudy": CaseStudy, "differential": Differential,
             "symmetric": Symmetric}
