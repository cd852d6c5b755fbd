import itertools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctxdrt import tableau
from ctxdrt.drs import DRS, Atom
from ctxdrt.lcon import Conj, Disj, In, auto_tag_positions, extract
from ctxdrt.models import AlphaRemaining
from ctxdrt.projection import BackgroundTheory, InferenceTask, project
from ctxdrt.tableau import (
    CLOSED,
    OPEN_BOUNDED,
    OPEN_SATURATED,
    Bounds,
    CompareReport,
    Const,
    FreeVar,
    Label,
    LitNode,
    ProofStats,
    SkolemApp,
    _Branch,
    _closure_pairs,
    _ClosureExceeded,
    _DepthExceeded,
    _Engine,
    _GammaTemplate,
    _unify_args,
    close_branch,
    compare_cost,
    labels_compatible,
    naive_prove,
    prove_lcon,
    unify,
)
from ctxdrt.text import parse_drs, parse_lcon, print_condition

from conftest import CONTENTLESS, FAMILY_M_40, HANK
from gen import alpha_free_boxes, alpha_free_lcon_formulas, corpus_drs


def lit(ctx, acc, pol, pred, *args):
    return LitNode(Label(ctx, frozenset(acc), pol), pred, tuple(args), 0)


A = Const("a")
X = FreeVar(99)


def test_closure_same_context():
    pair = close_branch([lit(1, {0}, "+", "p", A), lit(1, {0}, "-", "p", X)])
    assert pair is not None
    subst, (pos, neg) = pair
    assert subst == {X: A}
    assert pos.label.polarity == "+" and neg.label.polarity == "-"


def test_closure_across_accessible_context():
    pair = close_branch([lit(1, {0}, "+", "p", A), lit(2, {0, 1}, "-", "p", A)])
    assert pair is not None
    assert pair[0] == {}


def test_no_closure_between_mutually_inaccessible_contexts():
    assert close_branch([lit(1, {0}, "+", "p", A), lit(2, {0}, "-", "p", A)]) is None


def test_closure_compatibility_is_symmetric():
    rng = random.Random(4)
    for _ in range(200):
        a = Label(rng.randrange(4), frozenset(rng.sample(range(4, 9), rng.randrange(3))), "+")
        b = Label(rng.randrange(4), frozenset(rng.sample(range(4, 9), rng.randrange(3))), "-")
        assert labels_compatible(a, b) == labels_compatible(b, a)


def plain_closure_pairs(lits):
    """The plain positives x negatives join, in branch order."""
    positives = [n for n in lits if n.label.polarity == "+"]
    negatives = [n for n in lits if n.label.polarity == "-"]
    return [
        (pos, neg)
        for pos in positives
        for neg in negatives
        if pos.pred == neg.pred and len(pos.args) == len(neg.args)
    ]


def test_closure_pairs_keep_product_order():
    # closure search charges steps in pair order, so the indexed filter must
    # list pairs exactly as the plain positives x negatives filter does
    rng = random.Random(11)
    for _ in range(300):
        lits = []
        for i in range(rng.randrange(12)):
            pred, arity = rng.choice([("p", 1), ("p", 2), ("q", 1), ("r", 2)])
            accessible = frozenset(rng.sample(range(4, 8), rng.randrange(3)))
            label = Label(rng.randrange(4), accessible, rng.choice("+-"))
            lits.append(LitNode(label, pred, (A,) * arity, i))
        assert _closure_pairs({}, lits) == plain_closure_pairs(lits)


def random_term(rng, depth=0):
    roll = rng.random()
    if roll < 0.35:
        return Const(rng.choice("abc"))
    if roll < 0.6:
        return FreeVar(rng.randrange(3))
    if depth >= 2:
        return SkolemApp(rng.randrange(3))
    args = tuple(random_term(rng, depth + 1) for _ in range(rng.randrange(3)))
    return SkolemApp(rng.randrange(3), args)


def random_lits(rng, count, counter):
    out = []
    for _ in range(count):
        pred, arity = rng.choice([("p", 1), ("p", 2), ("q", 1), ("r", 2)])
        accessible = frozenset(rng.sample(range(4, 8), rng.randrange(3)))
        label = Label(rng.randrange(4), accessible, rng.choice("+-"))
        args = tuple(random_term(rng) for _ in range(arity))
        out.append(LitNode(label, pred, args, next(counter)))
    return out


def plain_ground_terms(lits):
    """Every ground argument term and ground subterm, by a flat scan."""
    flat: set = set()

    def add(term):
        if isinstance(term, Const):
            flat.add(term)
            return True
        if isinstance(term, SkolemApp) and all(add(a) for a in term.args):
            flat.add(term)
            return True
        return False

    for arg in {a for n in lits for a in n.args}:
        add(arg)
    return flat


def random_branch(rng, context, count, counter):
    """Literals over the context's predicates and others, in nested contexts."""
    keys = sorted({(n.pred, len(n.args)) for n in context} | {("p", 1), ("zz", 1)})
    terms = sorted({a for n in context for a in n.args}, key=repr) + [A, X]
    out = []
    for _ in range(count):
        pred, arity = rng.choice(keys)
        ctx = rng.randrange(6)
        label = Label(ctx, frozenset(range(rng.randrange(ctx + 1))), rng.choice("+-"))
        args = tuple(rng.choice(terms) for _ in range(arity))
        out.append(LitNode(label, pred, args, next(counter)))
    return out


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(alpha_free_boxes, min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_spine_index_matches_flat_scan(boxes, rng):
    # the spine indexes each context once: the index must hold the boxes'
    # atoms, numbered in order from the nodes before each level, and closure
    # pairs must come out as the flat scan over context + branch gives them
    engine = _Engine(Bounds())
    context = tableau._ROOT
    flat = []
    for box in boxes:
        start = engine.nodes
        context = engine.expand_context(box, context)
        label = context.label.signed("+")
        atoms = [c for c in box.conditions if isinstance(c, Atom)]
        for index, atom in enumerate(atoms, start + 1):
            args = tuple(context.env.get(a, Const(a.name)) for a in atom.args)
            flat.append(LitNode(label, atom.predicate, args, index))
        assert engine.nodes == start + len(atoms)
        for side in context.positives.values():
            assert side == sorted(side, key=lambda n: n.index)
        indexed = [n for side in context.positives.values() for n in side]
        assert sorted(indexed, key=lambda n: n.index) == flat
        for n in flat:
            assert set(n.args) <= plain_ground_terms([n])
        assert context.terms == plain_ground_terms(flat)
        counter = itertools.count(engine.nodes + 1)
        for _ in range(5):
            branch = random_branch(rng, flat, rng.randrange(8), counter)
            assert _closure_pairs(context.positives, branch) == plain_closure_pairs(flat + branch)


def snapshot(context):
    """A copy of everything a context record holds, down to its index lists."""
    return (
        context.label,
        {key: side.copy() for key, side in context.positives.items()},
        context.terms.copy(),
        context.gammas.copy(),
        context.deferred.copy(),
        context.env.copy(),
        context.signs.copy(),
    )


def prove_checking_contexts(formula, tags=None, bounds=Bounds()):
    """``prove_lcon``, asserting afterwards that no context record changed."""
    built = [(tableau._ROOT, snapshot(tableau._ROOT))]
    expand = _Engine.expand_context

    def recording(self, box, outer):
        context = expand(self, box, outer)
        built.append((context, snapshot(context)))
        return context

    with mock.patch.object(_Engine, "expand_context", recording):
        prove_lcon(formula, tags, bounds)
    for context, before in built:
        assert snapshot(context) == before
    return len(built) - 1


@pytest.mark.parametrize("source", [HANK, FAMILY_M_40], ids=["hank", "family_m_40"])
def test_a_context_is_never_changed_below_it(source, marriage_bg):
    extraction = extract(parse_drs(source), marriage_bg)
    assert prove_checking_contexts(extraction.formula, extraction.tag_positions()) >= 2


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(alpha_free_lcon_formulas)
def test_no_context_of_a_formula_is_changed_below_it(formula):
    prove_checking_contexts(formula, None, Bounds(gamma_limit=2, depth_limit=2000))


def reference_close_all(engine, branch_pairs, subst):
    """Closure search as it was before pruning: unify every pair at every level."""
    if not branch_pairs:
        return subst
    best_index = -1
    best_options = None
    for i, pairs in enumerate(branch_pairs):
        options = []
        for pos, neg in pairs:
            engine.closure_steps += 1
            if engine.closure_steps > engine.bounds.depth_limit:
                raise _ClosureExceeded
            trial = _unify_args(pos.args, neg.args, subst)
            if trial is not None and trial not in options:
                options.append(trial)
        if not options:
            return None
        if best_options is None or len(options) < len(best_options):
            best_index, best_options = i, options
            if len(best_options) == 1:
                break
    rest = branch_pairs[:best_index] + branch_pairs[best_index + 1 :]
    for trial in best_options:
        found = reference_close_all(engine, rest, trial)
        if found is not None:
            return found
    return None


def counted_unify(monkeypatch):
    """Route ``tableau.unify`` through a counter: the list it appends to."""
    calls = []
    plain = tableau.unify

    def counting(a, b, subst=None):
        calls.append(1)
        return plain(a, b, subst)

    monkeypatch.setattr(tableau, "unify", counting)
    return calls


def unscanned(pairs):
    """A branch as ``_close_all`` takes it before its first scan."""
    return (len(pairs), pairs, 0, None, None)


def test_pruned_closure_search_matches_full_scan(monkeypatch):
    # pruning pairs that failed higher up must find the same substitution,
    # charge the same closure steps and trip the same step bounds
    rng = random.Random(13)
    unify_calls = counted_unify(monkeypatch)
    calls = {"reference": 0, "pruned": 0}
    seen = set()
    for _ in range(300):
        counter = iter(range(1, 10**6))
        branch_pairs = []
        for _ in range(rng.randrange(1, 5)):
            pairs = []
            for _ in range(rng.randrange(1, 7)):
                pos, neg = random_lits(rng, 2, counter)
                args = tuple(random_term(rng) for _ in pos.args)
                pairs.append((pos, neg._replace(pred=pos.pred, args=args)))
            branch_pairs.append(pairs)
        for limit in (5, 20, 100, 20000):
            results = {}
            for route in ("reference", "pruned"):
                engine = _Engine(Bounds(depth_limit=limit))
                del unify_calls[:]
                try:
                    if route == "reference":
                        found = reference_close_all(engine, branch_pairs, {})
                    else:
                        found = engine._close_all([unscanned(p) for p in branch_pairs], {})
                    results[route] = (found, engine.closure_steps)
                except _ClosureExceeded:
                    results[route] = "exceeded"
                calls[route] += len(unify_calls)
            assert results["pruned"] == results["reference"]
            seen.add("exceeded" if results["pruned"] == "exceeded" else results["pruned"][0] is None)
    assert seen == {"exceeded", True, False}
    assert calls["pruned"] < calls["reference"]


def rescanning_close_all(engine, branches, subst):
    """Closure search as it was before scans were reused: each branch it
    looks at is unified again under the running substitution."""
    if not branches:
        return subst
    narrowed = branches.copy()
    best_index = -1
    best_options = None
    for i, (charge, pairs) in enumerate(branches):
        engine.closure_steps += charge
        if engine.closure_steps > engine.bounds.depth_limit:
            raise _ClosureExceeded
        options = []
        live = []
        for pair in pairs:
            trial = _unify_args(pair[0].args, pair[1].args, subst)
            if trial is not None:
                live.append(pair)
                if trial not in options:
                    options.append(trial)
        if not options:
            return None
        narrowed[i] = (charge, live)
        if best_options is None or len(options) < len(best_options):
            best_index, best_options = i, options
            if len(best_options) == 1:
                break
    rest = narrowed[:best_index] + narrowed[best_index + 1 :]
    for trial in best_options:
        found = rescanning_close_all(engine, rest, trial)
        if found is not None:
            return found
    return None


def random_search(rng):
    """8 to 64 branches of 2 to 8 pairs over a shared pool of variables.

    Each branch draws its variables from a few of the pool's, so a binding
    reaches some branches and not others.  A term is a constant, a variable
    or a Skolem term over variables, so the search binds variables to
    variables, in chains, and to Skolem terms with arguments.
    """
    pool = [FreeVar(i) for i in range(rng.randrange(6, 40))]
    number = itertools.count(1)
    positive, negative = Label(1, frozenset({0}), "+"), Label(1, frozenset({0}), "-")
    branch_pairs = []
    for _ in range(rng.randrange(8, 65)):
        own = rng.sample(pool, 4)

        def term():
            roll = rng.random()
            if roll < 0.1:
                return Const(rng.choice("ab"))
            if roll < 0.85:
                return rng.choice(own)
            return SkolemApp(rng.randrange(2), tuple(rng.choice(own) for _ in range(rng.randrange(1, 3))))

        pairs = []
        for _ in range(rng.randrange(2, 9)):
            arity = rng.randrange(1, 3)
            pos = LitNode(positive, "p", tuple(term() for _ in range(arity)), next(number))
            neg = LitNode(negative, "p", tuple(term() for _ in range(arity)), next(number))
            pairs.append((pos, neg))
        branch_pairs.append(pairs)
    return branch_pairs


def test_closure_search_reuses_a_scan_only_while_no_binding_reaches_it(monkeypatch):
    # a branch that no binding since its scan reaches is not unified again:
    # the search must find the substitution a full scan finds, charge the
    # same steps, trip the step bound at the same point, and never unify
    # more than the search that unifies each branch it looks at
    rng = random.Random(29)
    unify_calls = counted_unify(monkeypatch)
    calls = Counter()
    seen = set()
    for _ in range(40):
        branch_pairs = random_search(rng)
        for limit in (300, 3000, 20000):
            results = {}
            for route in ("reference", "rescanning", "reusing"):
                engine = _Engine(Bounds(depth_limit=limit))
                del unify_calls[:]
                try:
                    if route == "reference":
                        found = reference_close_all(engine, branch_pairs, {})
                    elif route == "rescanning":
                        found = rescanning_close_all(engine, [(len(p), p) for p in branch_pairs], {})
                    else:
                        found = engine._close_all([unscanned(p) for p in branch_pairs], {})
                    results[route] = (found, engine.closure_steps)
                except _ClosureExceeded:
                    results[route] = "exceeded"
                calls[route] = len(unify_calls)
            assert results["reusing"] == results["reference"]
            assert results["rescanning"] == results["reference"]
            assert calls["reusing"] <= calls["rescanning"]
            calls["reused"] += calls["rescanning"] - calls["reusing"]
            outcome = results["reusing"]
            seen.add("exceeded" if outcome == "exceeded" else outcome[0] is None)
    assert seen == {"exceeded", True, False}
    assert calls["reused"] > 0


def test_reused_scans_prove_what_full_scans_prove(monkeypatch):
    # 300 corpus extractions, each proved with the closure search, with
    # reference_close_all and with rescanning_close_all in its place: every
    # task keeps its status and closure steps, and every proof its
    # statistics.  reference_close_all charges pair by pair, so it stops
    # counting at the first pair past the bound, where the others charge
    # the whole branch: past the bound its steps are compared as "over".
    unify_calls = counted_unify(monkeypatch)
    plain_run_task = _Engine.run_task
    tasks = []

    def recording(self, goal, context):
        status = plain_run_task(self, goal, context)
        tasks.append((status, self.closure_steps))
        return status

    routes = {
        "reusing": _Engine._close_all,
        "reference": lambda self, branches, subst: reference_close_all(
            self, [entry[1] for entry in branches], subst
        ),
        "rescanning": lambda self, branches, subst: rescanning_close_all(
            self, [entry[:2] for entry in branches], subst
        ),
    }
    monkeypatch.setattr(_Engine, "run_task", recording)
    rng = random.Random(48)  # draws 4 open_bounded tasks, and searches of up to 64 branches
    calls = Counter()
    for _ in range(300):
        extraction = extract(corpus_drs(rng))
        if extraction.formula is None:
            continue
        args = extraction.formula, extraction.tag_positions()
        proofs = {}
        for route, close_all in routes.items():
            del tasks[:], unify_calls[:]
            with mock.patch.object(_Engine, "_close_all", close_all):
                verdict, stats = prove_lcon(*args)
            proofs[route] = (verdict, stats.as_json(), tasks.copy())
            calls[route] += len(unify_calls)
        assert proofs["rescanning"] == proofs["reusing"]
        over = Bounds().depth_limit
        for route in ("reusing", "reference"):
            verdict, stats, steps = proofs[route]
            proofs[route] = verdict, stats, [(s, "over" if n > over else n) for s, n in steps]
        assert proofs["reference"] == proofs["reusing"]
        calls["bounded"] += sum(status == OPEN_BOUNDED for status, _ in tasks)
    assert calls["bounded"] > 0
    assert calls["reusing"] < calls["rescanning"] < calls["reference"]


def unpruned():
    """The search without the pure-literal rule: every universal node is instantiated."""
    return mock.patch.object(_Engine, "_useless", lambda self, template: False)


def reference_run_task(self, goal, context):
    """Deepening as it was before: rebuild every branch from nothing at each budget.

    Run it ``unpruned()``: it sets no task signature.
    """
    self.node_limit = self.nodes + self.bounds.depth_limit
    self.closure_steps = 0
    context_lits = [n for side in context.positives.values() for n in side]
    for budget in range(self.bounds.gamma_limit + 1):
        branch0 = _Branch([], (), context.gammas.copy())
        stack = [(context.label, goal, context.env), *reversed(context.deferred)]
        try:
            branches = self._saturate(branch0, stack, budget)
            if not branches:
                return CLOSED
            branch_pairs = [_closure_pairs(context.positives, b.lits) for b in branches]
            closing = None
            if all(branch_pairs):
                closing = self._close_all([unscanned(p) for p in branch_pairs], {})
        except (_DepthExceeded, _ClosureExceeded):
            return OPEN_BOUNDED
        if closing is not None:
            self.stats.closures += len(branches)
            return CLOSED
        lits = context_lits + [n for b in branches for n in b.lits]
        ground = max(1, len(plain_ground_terms(lits)))
        gammas = [(t, count) for b in branches for t, count in zip(b.gammas, b.counts)]
        if all(count >= ground ** len(t.universe) for t, count in gammas):
            return OPEN_SATURATED
    return OPEN_BOUNDED


def test_saturate_keeps_the_open_leaf_when_the_last_child_closes():
    # the last child takes over its parent's stack; when it closes, the
    # first child's leaf is still returned, with only its own literals
    engine = _Engine(Bounds())
    box = parse_drs("[ | [ | p(a)] or [ | not [ | ]], q(a)]")  # refuting [ | ] closes
    stack = [(Label(1, frozenset({0}), "+"), box, {})]
    leaves = engine._saturate(_Branch([], (), []), stack, 0)
    assert [[n.pred for n in leaf.lits] for leaf in leaves] == [["p", "q"]]


def test_a_resumed_branch_expands_its_items_once():
    # the context's disjunction splits before the goal is expanded, and its
    # last child closes with the goal still pending; the open branch resumes
    # at budget 1 and must not meet the goal again.  Three refuted boxes:
    # the goal, the negated [ | ] and the implication instance's antecedent.
    # The consequent asserts r, so neither side of the implication is pure.
    context = "[ | [ | p(a)] or [ | not [ | ]], [m | r(m)] => [ | s(m), r(m)]]"
    formula = parse_lcon("in(%s, [ | t(a)])" % context)
    verdict, stats = prove_lcon(formula)
    assert verdict["t1"] == OPEN_SATURATED
    assert stats.per_rule["gamma:imp"] == 1
    assert stats.per_rule["-:condition"] == 3


def test_saturation_counts_the_ground_terms_a_branch_adds():
    # the context holds no ground term, so for it alone one instance per node
    # would be all; the goal adds a and b, and the closure needs q(a) and q(b)
    # from two instances of the first node, so the task is not saturated
    # after one round
    context = "[ | [x | p(x)] => [ | q(x)], [ | q(a), q(b)] => [ | r(a)]]"
    formula = parse_lcon("in(%s, [ | [ | p(a), p(b)] => [ | r(a)]])" % context)
    verdict, stats = prove_lcon(formula)
    assert verdict["t1"] == CLOSED
    assert stats.per_rule["gamma:imp"] > 3


def test_a_branch_drops_a_universal_node_equal_to_one_it_holds():
    # the refuted disjunction puts both disjuncts on one branch: two boxes
    # that are equal but not the same object, so the second node is dropped.
    # Keeping both, the task runs out of nodes (open_bounded, 38 rules).
    formula = parse_lcon("in([x | q(x), s(a)], [ | [y | q(y), s(y)] or [y | q(y), s(y)]])")
    verdict, stats = prove_lcon(formula)
    assert verdict["t1"] == OPEN_SATURATED
    assert stats.rule_applications == 14
    assert stats.per_rule["gamma:drs"] == 3
    # equal means equal label, kind, payload (as sets) and environment
    box, other = parse_drs("[y | q(y), s(y)]"), parse_drs("[y | q(y)]")
    branch = _Branch([], (), [])
    for context, payload in [(1, box), (1, other), (1, parse_drs("[y | s(y), q(y)]")), (2, box)]:
        branch.add_gamma(_GammaTemplate(Label(context, frozenset({0}), "-"), "drs", payload, {}))
    assert [(t.label.context, t.payload) for t in branch.gammas] == [(1, box), (1, other), (2, box)]
    assert branch.counts == [0, 0, 0]


@pytest.mark.parametrize("polarity", ["+", "-"])
def test_a_signed_label_equals_a_fresh_one(polarity):
    label = Label(3, frozenset({0, 1}), polarity)
    for sign in "+-":
        signed = label.signed(sign)
        fresh = Label(3, frozenset({0, 1}), sign)
        assert signed == fresh
        assert hash(signed) == hash(fresh)
        assert repr(signed) == repr(fresh)
        assert label.signed(sign) is signed
        assert signed.signed(polarity) is label
    with pytest.raises(ValueError):
        label.signed("*")
    # the flip outlives the label it was built from: signing back builds an
    # equal label once, and the two find each other from then on
    flip = Label(3, frozenset({0, 1}), polarity).signed("-" if polarity == "+" else "+")
    back = flip.signed(polarity)
    assert back == label and repr(back) == repr(label)
    assert flip.signed(polarity) is back and back.signed(flip.polarity) is flip


def test_an_instance_body_equals_a_fresh_box_of_its_template():
    imp = parse_drs("[ | [m | r(m), s(m,m)] => [ | t(m)]]").conditions[0]
    box = parse_drs("[ | not [y | q(y), p(y,y)]]").conditions[0].body
    for kind, payload, conditions in [
        ("imp", imp, imp.antecedent.conditions),
        ("drs", box, box.conditions),
    ]:
        template = _GammaTemplate(Label(1, frozenset({0}), "+"), kind, payload, {})
        engine = _Engine(Bounds())
        branch = _Branch([], (), [template])
        first = engine._instantiate(0, branch)[0][0]
        second = engine._instantiate(0, branch)[0][0]
        assert first[1] is second[1]
        assert first[1] == DRS((), conditions)
        assert (first[1].universe, first[1].conditions) == ((), conditions)
        assert first[2] != second[2]  # each instance binds fresh variables
        assert first[0] == Label(1, frozenset({0}), "-")


@pytest.mark.parametrize(
    "context",
    [
        # nothing refutes s, so asserting the consequent satisfies the node
        "[g | r(g), s(g), [m | r(m)] => [ | s(m)]]",
        # nothing asserts r, so refuting the antecedent satisfies the node
        "[g | s(g), not [ | r(g)], [m | r(m)] => [ | s(m)]]",
    ],
)
def test_a_pure_node_gets_no_instance(context):
    # the node's pure side can be made true everywhere, so it never helps
    # a closure: the search without the rule instantiates it in vain
    formula = parse_lcon("in(%s, [ | t(g)])" % context)
    with unpruned():
        verdict, stats = prove_lcon(formula)
    assert verdict["t1"] == OPEN_SATURATED
    assert stats.per_rule["gamma:imp"] == 1
    verdict, stats = prove_lcon(formula)
    assert verdict["t1"] == OPEN_SATURATED
    assert not any(rule.startswith("gamma:") for rule in stats.per_rule)


def test_a_node_the_goal_refutes_is_instantiated():
    # only the goal refutes s, so the consequent is not pure in this task
    formula = parse_lcon("in([g | r(g), [m | r(m)] => [ | s(m)]], [ | s(g)])")
    verdict, stats = prove_lcon(formula)
    assert verdict["t1"] == CLOSED
    assert stats.per_rule["gamma:imp"] == 1


def test_a_false_disjunct_is_never_pure():
    # refuting [ | ] => [ | ] closes at once, however its (no) literals are
    # set: that side cannot be made true, so the node must still be used
    formula = parse_lcon("in([g | [ | [ | ] => [ | ]] => [ | s(g)]], [ | s(g)])")
    assert prove_lcon(formula)[0]["t1"] == CLOSED


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(alpha_free_lcon_formulas)
def test_pure_nodes_change_no_decided_verdict(formula):
    # every verdict the search without the rule decides stays as it is; only
    # a task it left open_bounded may become decided
    bounds = Bounds(gamma_limit=2, depth_limit=2000)
    with unpruned():
        expected, _ = prove_lcon(formula, None, bounds)
    verdict, _ = prove_lcon(formula, None, bounds)
    for (tag, want), (_, got) in zip(expected.statuses, verdict.statuses):
        if want != OPEN_BOUNDED:
            assert got == want, tag


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(alpha_free_lcon_formulas)
def test_deepening_in_place_decides_as_rebuilding_does(formula):
    # a round that resumes the previous round's branches must decide every
    # task the rebuilding loop decides, the same way; only a task the
    # rebuilding loop left open_bounded may become decided
    bounds = Bounds(gamma_limit=2, depth_limit=2000)
    with unpruned(), mock.patch.object(_Engine, "run_task", reference_run_task):
        expected, _ = prove_lcon(formula, None, bounds)
    verdict, _ = prove_lcon(formula, None, bounds)
    for (tag, want), (_, got) in zip(expected.statuses, verdict.statuses):
        if want != OPEN_BOUNDED:
            assert got == want, tag


def test_terms_are_tuples_with_the_dataclass_repr_and_hash():
    from dataclasses import field, make_dataclass

    old = {
        FreeVar: make_dataclass("FreeVar", [("id", int)], frozen=True),
        SkolemApp: make_dataclass(
            "SkolemApp", [("fn", int), ("args", tuple, field(default=()))], frozen=True
        ),
        Const: make_dataclass("Const", [("name", str)], frozen=True),
    }

    def as_dataclass(term):
        if type(term) is SkolemApp:
            return old[SkolemApp](term.fn, tuple(as_dataclass(a) for a in term.args))
        return old[type(term)](*term)

    terms = [FreeVar(1), Const("1"), SkolemApp(1)]
    assert len(set(terms)) == 3
    for a, b in itertools.combinations(terms, 2):
        assert a != b
    assert SkolemApp(2) == SkolemApp(2, ())
    rng = random.Random(14)
    terms += [random_term(rng) for _ in range(200)]
    for term in terms:
        assert repr(term) == repr(as_dataclass(term))
        assert hash(term) == hash(as_dataclass(term))


def test_unify_occurs_check():
    f_of_x = SkolemApp(1, (X,))
    assert unify(X, f_of_x) is None
    assert unify(f_of_x, SkolemApp(1, (A,))) == {X: A}
    assert unify(SkolemApp(1, ()), SkolemApp(2, ())) is None


def reference_resolve(term, subst):
    while isinstance(term, FreeVar) and term in subst:
        term = subst[term]
    return term


def reference_occurs(var, term, subst):
    term = reference_resolve(term, subst)
    if term == var:
        return True
    return isinstance(term, SkolemApp) and any(reference_occurs(var, a, subst) for a in term.args)


def reference_unify(a, b, subst=None):
    """The copy-always unifier: a fresh dict per call, occurs check on every binding."""
    out = {} if subst is None else dict(subst)
    pending = [(a, b)]
    while pending:
        s, t = pending.pop()
        s, t = reference_resolve(s, out), reference_resolve(t, out)
        if s == t:
            continue
        if isinstance(s, FreeVar):
            if reference_occurs(s, t, out):
                return None
            out[s] = t
        elif isinstance(t, FreeVar):
            if reference_occurs(t, s, out):
                return None
            out[t] = s
        elif isinstance(s, SkolemApp) and isinstance(t, SkolemApp):
            if s.fn != t.fn or len(s.args) != len(t.args):
                return None
            pending.extend(zip(s.args, t.args))
        else:
            return None
    return out


def reference_unify_args(xs, ys, subst):
    if len(xs) != len(ys):
        return None
    for x, y in zip(xs, ys):
        subst = reference_unify(x, y, subst)
        if subst is None:
            return None
    return subst


def random_unify_term(rng, depth=0):
    """Few variables, so pairs share them; nested Skolem terms, so some
    bindings fail the occurs check."""
    roll = rng.random()
    if roll < 0.2:
        return Const(rng.choice("ab"))
    if roll < 0.55 or depth >= 3:
        return FreeVar(rng.randrange(4))
    args = tuple(random_unify_term(rng, depth + 1) for _ in range(rng.randrange(3)))
    return SkolemApp(rng.randrange(2), args)


def random_substitution(rng):
    """A cycle-free substitution, built by unifying random pairs."""
    subst = {}
    for _ in range(rng.randrange(3)):
        found = reference_unify(random_unify_term(rng), random_unify_term(rng), subst)
        if found is not None:
            subst = found
    return subst


def test_copy_on_write_unification_matches_the_copying_unifier():
    rng = random.Random(24)
    outcomes = Counter()
    for _ in range(4000):
        subst = random_substitution(rng)
        before = dict(subst)
        arity = rng.randrange(1, 4)
        xs = tuple(random_unify_term(rng) for _ in range(arity))
        ys = tuple(random_unify_term(rng) for _ in range(arity))
        roll = rng.random()
        if roll < 0.1:  # a variable against a term around it
            var = FreeVar(rng.randrange(4))
            xs, ys = (var,) + xs[1:], (SkolemApp(0, (var, Const("a"))),) + ys[1:]
        elif roll < 0.2:  # equal terms
            ys = xs
        want = reference_unify(xs[0], ys[0], subst)
        assert unify(xs[0], ys[0], subst) == want
        assert subst == before
        want_args = reference_unify_args(xs, ys, subst)
        got_args = _unify_args(xs, ys, subst)
        assert got_args == want_args
        assert subst == before
        if want_args == subst:  # nothing new to bind: the dict itself comes back
            assert got_args is subst
        outcomes["none" if want_args is None else "same" if want_args == subst else "extended"] += 1
        assert unify(xs[0], ys[0]) == reference_unify(xs[0], ys[0])
    assert unify(X, X, before) is before
    assert min(outcomes.values()) > 300, outcomes


def test_self_entailment_through_one_context():
    formula = parse_lcon("in([x | man(x)], [y | man(y)])")
    verdict, stats = prove_lcon(formula)
    assert verdict["t1"] == CLOSED
    assert stats.closures >= 1


def test_reference_formula_without_background(hank):
    extraction = extract(hank)
    verdict, _ = prove_lcon(extraction.formula, extraction.tag_positions())
    assert verdict.as_dict() == {
        "t1": OPEN_SATURATED,
        "t2": OPEN_SATURATED,
        "t3": OPEN_SATURATED,
    }


def test_reference_formula_with_background(hank, marriage_bg):
    extraction = extract(hank, marriage_bg)
    verdict, _ = prove_lcon(extraction.formula, extraction.tag_positions())
    assert verdict.as_dict() == {"t1": CLOSED, "t2": CLOSED, "t3": OPEN_SATURATED}


def test_naive_self_entailment_is_cheap():
    task = InferenceTask("informativity", parse_drs("[ | p(a)]"), parse_drs("[ | p(a)]"), "t")
    status, stats = naive_prove(task)
    assert status == CLOSED
    assert stats.rule_applications <= 3


def test_nothing_entails_an_existential():
    task = InferenceTask("informativity", parse_drs("[ | ]"), parse_drs("[x | p(x)]"), "t")
    assert naive_prove(task)[0] == OPEN_SATURATED


def test_empty_conclusion_is_entailed_by_anything():
    task = InferenceTask("informativity", parse_drs("[x | p(x)]"), parse_drs("[ | ]"), "t")
    assert naive_prove(task)[0] == CLOSED


def test_inconsistent_premise_entails_anything():
    task = InferenceTask(
        "informativity",
        parse_drs("[ | p(a), not [ | p(a)]]"),
        parse_drs("[ | weird(a)]"),
        "t",
    )
    assert naive_prove(task)[0] == CLOSED


@pytest.mark.parametrize(
    "with_bg, nodes, rules, imp_instances", [(False, 6, 12, 0), (True, 139, 76, 7)]
)
def test_node_budget_accounting_on_hank(with_bg, nodes, rules, imp_instances, hank, marriage_bg):
    # the node count decides where depth_limit trips; an implication's
    # instance is a node of its own, besides the items it opens.  Without
    # the background: the spine's 2 in, 1 conjunction and 1 disjunction
    # rules; 3 + 2 rules and 2 + 1 literal nodes for the two context boxes;
    # and per task one -:universe rule and its node for the goal
    # [u | wife(u), of(u,_)], whose conditions meet no asserted wife or of,
    # so the goal is never instantiated: 12 rules, 6 nodes.
    formula = extract(hank, marriage_bg if with_bg else BackgroundTheory()).formula
    engine = _Engine(Bounds())
    engine.refute(formula, tableau._ROOT)
    assert engine.nodes == nodes
    assert engine.stats.rule_applications == rules
    assert engine.stats.per_rule.get("gamma:imp", 0) == imp_instances


def test_exhausted_budget_reports_open_bounded(hank, marriage_bg):
    extraction = extract(hank, marriage_bg)
    verdict, _ = prove_lcon(extraction.formula, extraction.tag_positions(), Bounds(gamma_limit=0))
    assert OPEN_BOUNDED in verdict.as_dict().values()


def test_spine_labels_nest_with_fresh_contexts(hank, marriage_bg, monkeypatch):
    seen: list[Label] = []
    expand = _Engine.expand_context

    def recording(self, box, outer):
        context = expand(self, box, outer)
        seen.append(context.label)
        return context

    monkeypatch.setattr(_Engine, "expand_context", recording)
    extraction = extract(hank, marriage_bg)
    prove_lcon(extraction.formula, extraction.tag_positions())
    assert len(seen) >= 2
    outer = {0: Label(0, frozenset(), "-")}
    for label in seen:
        assert label.context not in outer  # a fresh context id
        parent = outer.get(max(label.accessible, default=None))
        assert parent is not None
        assert label.accessible == parent.accessible | {parent.context}
        outer[label.context] = label


def in_contexts(f):
    """The context box of every ``in`` wrapper in f, depth-first."""
    if isinstance(f, In):
        return [f.context, *in_contexts(f.body)]
    if isinstance(f, (Conj, Disj)):
        return [box for item in f.items for box in in_contexts(item)]
    return []


def prove_recording_pairs(formula, tags=None, bounds=Bounds()):
    """``prove_lcon``'s stats, and every pair the closure search was given."""
    pairs = []
    plain = tableau._closure_pairs

    def recording(context, lits):
        out = plain(context, lits)
        pairs.extend(out)
        return out

    with mock.patch.object(tableau, "_closure_pairs", recording):
        stats = prove_lcon(formula, tags, bounds)[1]
    return stats, pairs


def expected_expansions(formula):
    """One expansion of each condition per ``in`` wrapper that states it."""
    return Counter(print_condition(c) for box in in_contexts(formula) for c in box.conditions)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(alpha_free_lcon_formulas)
def test_closure_search_gets_only_compatible_pairs(formula):
    # the proof pairs literals without a label check: the spine must only
    # ever show a task literals whose contexts lie on one chain
    _, pairs = prove_recording_pairs(formula, None, Bounds(gamma_limit=2, depth_limit=2000))
    assert all(labels_compatible(pos.label, neg.label) for pos, neg in pairs)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(alpha_free_lcon_formulas)
def test_context_conditions_expand_once_per_in_wrapper(formula):
    stats = prove_lcon(formula, None, Bounds(gamma_limit=2, depth_limit=2000))[1]
    assert stats.context_condition_expansions == expected_expansions(formula)


@pytest.mark.parametrize("with_bg", [False, True])
def test_corpus_proofs_pair_compatible_labels_and_expand_contexts_once(with_bg, marriage_bg):
    bg = marriage_bg if with_bg else BackgroundTheory()
    rng = random.Random(89)
    paired = 0
    for _ in range(300):
        extraction = extract(corpus_drs(rng), bg)
        if extraction.formula is None:
            continue
        stats, pairs = prove_recording_pairs(extraction.formula, extraction.tag_positions())
        assert all(labels_compatible(pos.label, neg.label) for pos, neg in pairs)
        assert stats.context_condition_expansions == expected_expansions(extraction.formula)
        paired += len(pairs)
    assert paired > 0


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(alpha_free_lcon_formulas)
def test_prove_lcon_gives_one_status_per_box_literal(formula):
    verdict, _ = prove_lcon(formula, None, Bounds(gamma_limit=2, depth_limit=2000))
    assert len(verdict.statuses) == len(auto_tag_positions(formula))
    assert {s for _, s in verdict.statuses} <= {CLOSED, OPEN_SATURATED, OPEN_BOUNDED}


# An alpha at each place a prover input can hold one; only the prover's
# first walk over the goal or the context may meet it.
ALPHA_PLACES = {
    "goal_at_root": "[ | alpha:[z | r(z)]]",
    "context_top_level": "in([x | p(x), alpha:[y | q(y)]], [ | p(x)])",
    "context_antecedent": "in([x | [y | q(y), alpha:[z | r(z)]] => [ | p(y)]], [ | p(x)])",
    "context_consequent": "in([x | [y | q(y)] => [ | alpha:[z | r(z)]]], [ | p(x)])",
    "context_negation": "in([x | not [ | alpha:[z | r(z)]]], [ | p(x)])",
    "context_disjunction": "in([x | [ | q(x)] or [ | alpha:[z | r(z)]]], [ | p(x)])",
    "goal_negation": "in([x | p(x)], [ | not [ | alpha:[z | r(z)]]])",
    "goal_antecedent": "in([x | p(x)], [ | [y | alpha:[z | r(z)]] => [ | q(y)]])",
    "goal_consequent": "in([x | p(x)], [ | [ | q(x)] => [ | alpha:[z | r(z)]]])",
    "goal_disjunction": "in([x | p(x)], [ | [ | q(x)] or [ | alpha:[z | r(z)]]])",
    "second_disjunct": "in([x | p(x)], [ | p(x)] | [ | alpha:[z | q(z)]])",
}


@pytest.mark.parametrize("source", ALPHA_PLACES.values(), ids=ALPHA_PLACES.keys())
def test_an_alpha_anywhere_in_a_prover_input_is_rejected(source):
    with pytest.raises(AlphaRemaining):
        prove_lcon(parse_lcon(source))


def test_tags_must_name_box_literals_one_each():
    formula = parse_lcon("in([x | p(x)], [ | p(x)] | [ | q(x)])")
    verdict, _ = prove_lcon(formula, {(0, 1): "b"})
    assert verdict.statuses == (("t1", CLOSED), ("b", OPEN_SATURATED))
    for tags in ({(7,): "t9"}, {(0,): "d"}):  # no box literal there
        with pytest.raises(ValueError, match="no box literal"):
            prove_lcon(formula, tags)
    for tags in ({(0, 0): "same", (0, 1): "same"}, {(0, 0): "t2"}):
        with pytest.raises(ValueError, match="share a tag"):
            prove_lcon(formula, tags)


def test_deterministic_statistics(hank, marriage_bg):
    extraction = extract(hank, marriage_bg)
    runs = [prove_lcon(extraction.formula, extraction.tag_positions()) for _ in range(2)]
    assert runs[0][0] == runs[1][0]
    assert runs[0][1].as_json() == runs[1][1].as_json()


def test_compare_shares_context_expansions(hank, marriage_bg):
    report = compare_cost(hank, marriage_bg)
    assert report.ratio_of("hank(x)") == 5.0
    assert report.ratio_of("married(x)") == 5.0
    assert report.ratio_of("man(y)") == 4.0
    assert report.shared_stats.context_condition_expansions["hank(x)"] == 1
    assert report.naive_stats.context_condition_expansions["hank(x)"] == 5
    assert report.agreement


# The slowest corpus discourse at seed 1: two of its three readings run
# every closure-search step of their task and stay undecided.
SLOWEST_CORPUS_BOX = (
    "[a, b | p(b), q(a,a), [d | s(d,d)] => [e | not [ | q(e,a)], alpha:[c | q(c,c), r(c)]],"
    " [f | s(f,f)] => [g | r(g)]]"
)


def test_the_slowest_corpus_box_keeps_its_bounded_verdicts():
    # each task's (status, closure steps, rules), shared and per-task; a
    # change to a bounded verdict, or to where the step bound trips, shows here
    tasks = []
    plain_run_task = _Engine.run_task

    def recording(self, goal, context):
        rules = self.stats.rule_applications
        status = plain_run_task(self, goal, context)
        tasks.append((status, self.closure_steps, self.stats.rule_applications - rules))
        return status

    expected = [
        (OPEN_SATURATED, 0, 7),
        (OPEN_BOUNDED, 20002, 169),
        (OPEN_BOUNDED, 20007, 171),
    ]
    box = parse_drs(SLOWEST_CORPUS_BOX)
    extraction = extract(box)
    with mock.patch.object(_Engine, "run_task", recording):
        verdict, stats = prove_lcon(extraction.formula, extraction.tag_positions())
        assert tasks == expected
        assert stats.rule_applications == 360
        del tasks[:]
        outcome = project(box)
    assert tasks == expected
    assert [c.verdict.informative for c in outcome.checks] == ["pass", "unknown", "unknown"]


def test_deepening_in_place_saves_rule_applications(hank, marriage_bg):
    # rebuilding every branch at each budget cost 83 shared and 164 naive
    report = compare_cost(hank, marriage_bg)
    assert report.shared_stats.rule_applications <= 76
    assert report.naive_stats.rule_applications <= 151
    # Proof by proof on corpus boxes.  Not a law: resuming interleaves the
    # instances of the universal nodes, so a later instance can be expanded
    # on more branches than when each node got all its instances in turn,
    # and a proof with several such nodes can cost more rules.
    rng = random.Random(79)
    saved = 0
    for _ in range(200):
        extraction = extract(corpus_drs(rng))
        if extraction.formula is None:
            continue
        args = extraction.formula, extraction.tag_positions()
        with unpruned(), mock.patch.object(_Engine, "run_task", reference_run_task):
            reference = prove_lcon(*args)[1].rule_applications
        in_place = prove_lcon(*args)[1].rule_applications
        assert in_place <= reference
        saved += reference - in_place
    assert saved > 0


def possessive(t):
    """'Every man<t> likes his wife', as the benchmark families write it."""
    return (
        "[y{0} | man{0}(y{0})] => [ | likes(y{0},u{0}),"
        " alpha:[u{0} | wife(u{0}), of(u{0},v{0}), alpha:[v{0} | ]]]"
    ).format(t)


def family_m(m, rng):
    """Hank with ``m`` extra unary root facts, in seeded order (family M)."""
    facts = ["f%d_%d(x)" % (i, rng.randrange(1000)) for i in range(m)]
    conds = ["hank(x)", "married(x)"] + facts
    rng.shuffle(conds)
    return parse_drs("[x | %s]" % ", ".join(conds + [possessive("")]))


def family_k(k, rng):
    """Hank is married, then ``k`` sentences 'every man_i likes his wife' (family K)."""
    sentences = [possessive(t) for t in rng.sample(range(100), k)]
    return parse_drs("[x | %s]" % ", ".join(["hank(x)", "married(x)"] + sentences))


def cost(report):
    """Rule applications and context-condition expansions, shared then per task."""
    shared, naive = report.shared_stats, report.naive_stats
    return (
        shared.rule_applications,
        naive.rule_applications,
        sum(shared.context_condition_expansions.values()),
        sum(naive.context_condition_expansions.values()),
    )


@pytest.mark.parametrize("m", [0, 40, 320])
def test_family_m_cost_laws(m, marriage_bg):
    # the shared proof expands the m facts once, the per-task route once for
    # each of the 5 readings; any change to the prover's work shows here.
    # Without the postulate nothing asserts wife or of, so no goal is
    # instantiated: each task costs its one -:universe rule
    report = compare_cost(family_m(m, random.Random(m)))
    assert cost(report) == (12 + m, 29 + 5 * m, 3 + m, 14 + 5 * m)
    assert report.agreement
    report = compare_cost(family_m(m, random.Random(m)), marriage_bg)
    assert cost(report) == (76 + m, 151 + 5 * m, 4 + m, 19 + 5 * m)
    assert report.agreement


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_family_k_cost_laws(k, marriage_bg):
    report = compare_cost(family_k(k, random.Random(k)), marriage_bg)
    assert cost(report)[:2] == (70 * k + 6, 151 * k)
    assert report.agreement


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_family_k_readings_are_all_decided(k, marriage_bg):
    # each sentence keeps two readings of "his wife", the man's wife in the
    # antecedent or in the consequent; Hank's wife is entailed by the
    # postulate, so every reading about him fails, and no check is unknown
    outcome = project(family_k(k, random.Random(k)), marriage_bg)
    assert len(outcome.survivors) == 2**k
    assert not any(check.verdict.unknown for check in outcome.checks)


def test_compare_ratio_is_one_without_shared_context():
    report = compare_cost(parse_drs("[ | alpha:[u | rain(u)]]"))
    assert report.overall_ratio == 1.0
    assert report.per_condition_ratio == ()


@pytest.mark.parametrize("text", CONTENTLESS)
def test_compare_checks_no_alpha_with_nothing_to_accommodate(text):
    report = compare_cost(parse_drs(text))
    assert report.shared_verdicts == () == report.naive_verdicts
    assert report.agreement


def test_agreement_counts_verdicts_of_readings_sharing_a_ref():
    # two readings can share a ref (it leaves out the alpha path); the routes
    # agree only when each gives the same verdicts as many times
    report = CompareReport(
        ProofStats(),
        ProofStats(),
        (("g", CLOSED), ("g", OPEN_SATURATED)),
        (("g", OPEN_SATURATED),) * 2,
        (),
        1.0,
    )
    assert not report.agreement


def test_compare_ratios_never_below_one():
    rng = random.Random(53)
    for _ in range(30):
        report = compare_cost(corpus_drs(rng))
        for _, ratio in report.per_condition_ratio:
            assert ratio >= 1.0
        assert report.overall_ratio >= 1.0


def test_naive_rejects_consistency_tasks():
    task = InferenceTask("consistency", parse_drs("[ | p(a)]"), None, "t")
    with pytest.raises(ValueError):
        naive_prove(task)


def test_skolem_ids_unique_per_attempt():
    from ctxdrt.tableau import _Engine

    engine = _Engine(Bounds())
    seen = {engine.fresh_skolem(()).fn for _ in range(50)}
    assert len(seen) == 50


def test_closing_survives_premise_growth():
    # entailment is monotone: anything a premise proves, a larger premise
    # proves too (no nonmonotonic operators in the language)
    rng = random.Random(61)
    grown = 0
    for _ in range(40):
        root = corpus_drs(rng)
        report = compare_cost(root)
        for ref, status in report.naive_verdicts:
            if status != CLOSED:
                continue
            from ctxdrt.projection import build_tasks, candidate_readings, eligible_alpha_paths
            from ctxdrt.drs import merge, validate
            for path in eligible_alpha_paths(root):
                for reading in candidate_readings(root, path)[0]:
                    if reading.ref != ref:
                        continue
                    task, _ = build_tasks(reading, root)
                    extra = parse_drs("[zq | zp(zq)]")
                    bigger = InferenceTask(
                        task.kind, merge(task.premise, extra), task.conclusion, ref
                    )
                    assert naive_prove(bigger)[0] == CLOSED
                    grown += 1
    assert grown > 3


def test_disjunction_of_in_formulas_gets_independent_verdicts():
    formula = parse_lcon("in([x | p(x)], [y | p(y)]) | in([z | q(z,z)], [ | p(z)])")
    verdict, _ = prove_lcon(formula)
    assert verdict.as_dict() == {"t1": CLOSED, "t2": OPEN_SATURATED}


def test_verdict_agreement_shared_vs_naive_on_corpus():
    rng = random.Random(77)
    for _ in range(60):
        root = corpus_drs(rng)
        report = compare_cost(root)
        shared = dict(report.shared_verdicts)
        naive = dict(report.naive_verdicts)
        assert set(shared) == set(naive)
        for ref, status in shared.items():
            if OPEN_BOUNDED in (status, naive[ref]):
                continue
            assert status == naive[ref], (ref, status, naive[ref])


# A context whose first task can run the node budget out: the marriage
# postulate, Hank, and every man who has a wife likes her.
BUDGET_CONTEXT = (
    "[x, y1 | [m | married(m)] => [w | wife(w), of(w,m)], hank(x), married(x),"
    " [y0, u0 | man0(y0), wife(u0), of(u0,y0)] => [ | likes(y0,u0)], man1(y1)]"
)


@pytest.mark.parametrize("depth", [4000, 8000, 12000])
def test_a_task_that_runs_out_leaves_its_siblings_their_budget(depth):
    hard, easy = "[u | wife(u), of(u,y1)]", "[ | hank(x)]"
    for items in ((hard, easy), (easy, hard)):
        formula = parse_lcon("in(%s, %s | %s)" % (BUDGET_CONTEXT, *items))
        verdict, _ = prove_lcon(formula, None, Bounds(gamma_limit=5, depth_limit=depth))
        statuses = dict(zip(items, (status for _, status in verdict.statuses)))
        assert statuses[easy] == CLOSED, items


def reversed_items(f):
    if isinstance(f, In):
        return In(f.context, reversed_items(f.body))
    if isinstance(f, (Conj, Disj)):
        return type(f)(tuple(reversed_items(g) for g in reversed(f.items)))
    return f


def mirrored(f, position):
    """The position in ``reversed_items(f)`` of the node at ``position`` in f."""
    out = []
    for i in position:
        if isinstance(f, In):
            f = f.body
        else:
            i, f = len(f.items) - 1 - i, f.items[i]
        out.append(i)
    return tuple(out)


def statuses_by_position(formula, bounds):
    verdict, _ = prove_lcon(formula, None, bounds)
    return {pos: verdict[tag] for pos, tag in auto_tag_positions(formula).items()}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(alpha_free_lcon_formulas)
def test_verdicts_do_not_depend_on_the_order_of_items(formula):
    for depth in (150, 2000):
        bounds = Bounds(gamma_limit=2, depth_limit=depth)
        forward = statuses_by_position(formula, bounds)
        backward = statuses_by_position(reversed_items(formula), bounds)
        assert {mirrored(formula, pos): s for pos, s in forward.items()} == backward


def test_shared_and_naive_routes_agree_under_tight_bounds():
    rng = random.Random(83)
    for _ in range(300):
        report = compare_cost(corpus_drs(rng), bounds=Bounds(gamma_limit=2, depth_limit=60))
        assert Counter(report.shared_verdicts) == Counter(report.naive_verdicts)
