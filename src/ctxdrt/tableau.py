"""Context-labeled free-variable tableau proving for context formulas.

Nodes carry labels (i, sigma, polarity): a context identifier, the set of
context identifiers accessible from it, and a sign.  Descending into
``in(K, f)`` under negative polarity allocates a fresh context for K and
asserts K positively there while refuting f; a branch closes on two
complementary literals whose terms unify (sound unification with occurs
check) and whose contexts are compatible: same context, or one accessible
from the other.

Conjunctions and disjunctions under the refutation sign split into sibling
tasks that share every ancestor context node, so shared context boxes are
expanded exactly once per proof; that is the measurable saving over
proving each task against a freshly re-expanded premise.  The per-task
search uses free variables for universal strength, Skolem terms over the
variables in scope for existential strength, and iterative deepening on
instantiation counts; exhausted bounds yield "open_bounded", never a
wrong verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .drs import DRS, Alpha, Atom, Condition, Imp, Neg, Or, Referent
from .lcon import Conj, Disj, DrsLit, Extraction, Formula, In, auto_tag_positions, extract
from .models import AlphaRemaining
from .projection import (
    EMPTY_BACKGROUND,
    BackgroundTheory,
    InferenceTask,
    ProjectionError,
    build_tasks,
    candidate_readings,
    eligible_alpha_paths,
)

__all__ = [
    "CLOSED",
    "OPEN_SATURATED",
    "OPEN_BOUNDED",
    "Bounds",
    "DEFAULT_BOUNDS",
    "FreeVar",
    "SkolemApp",
    "Const",
    "Term",
    "Label",
    "LitNode",
    "ProofStats",
    "Verdict",
    "unify",
    "labels_compatible",
    "close_branch",
    "prove_lcon",
    "naive_prove",
    "default_task_prover",
    "CompareReport",
    "compare_cost",
]

CLOSED = "closed"
OPEN_SATURATED = "open_saturated"
OPEN_BOUNDED = "open_bounded"


@dataclass(frozen=True)
class Bounds:
    gamma_limit: int = 5
    depth_limit: int = 20000

    def __post_init__(self) -> None:
        if self.gamma_limit < 0 or self.depth_limit <= 0:
            raise ValueError("bounds must be positive")


DEFAULT_BOUNDS = Bounds()


# -- terms and unification ----------------------------------------------------


@dataclass(frozen=True)
class FreeVar:
    id: int


@dataclass(frozen=True)
class SkolemApp:
    fn: int
    args: tuple["Term", ...] = ()


@dataclass(frozen=True)
class Const:
    name: str


Term = Union[FreeVar, SkolemApp, Const]


def _resolve(term: Term, subst: dict) -> Term:
    while isinstance(term, FreeVar) and term in subst:
        term = subst[term]
    return term


def _occurs(var: FreeVar, term: Term, subst: dict) -> bool:
    term = _resolve(term, subst)
    if term == var:
        return True
    if isinstance(term, SkolemApp):
        return any(_occurs(var, a, subst) for a in term.args)
    return False


def unify(a: Term, b: Term, subst: Optional[dict] = None) -> Optional[dict]:
    """Most general unifier extending ``subst``, or None; occurs check on."""
    out = {} if subst is None else dict(subst)
    pending = [(a, b)]
    while pending:
        s, t = pending.pop()
        s, t = _resolve(s, out), _resolve(t, out)
        if s == t:
            continue
        if isinstance(s, FreeVar):
            if _occurs(s, t, out):
                return None
            out[s] = t
        elif isinstance(t, FreeVar):
            if _occurs(t, s, out):
                return None
            out[t] = s
        elif isinstance(s, SkolemApp) and isinstance(t, SkolemApp):
            if s.fn != t.fn or len(s.args) != len(t.args):
                return None
            pending.extend(zip(s.args, t.args))
        else:
            return None
    return out


def _unify_args(xs: tuple[Term, ...], ys: tuple[Term, ...], subst: dict) -> Optional[dict]:
    if len(xs) != len(ys):
        return None
    out = subst
    for x, y in zip(xs, ys):
        nxt = unify(x, y, out)
        if nxt is None:
            return None
        out = nxt
    return out


# -- labels and literal nodes ---------------------------------------------------


@dataclass(frozen=True)
class Label:
    context: int
    accessible: frozenset[int]
    polarity: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "accessible", frozenset(self.accessible))
        if self.polarity not in ("+", "-"):
            raise ValueError("polarity must be '+' or '-'")
        if self.context in self.accessible:
            raise ValueError("a context is not accessible from itself")

    def signed(self, polarity: str) -> "Label":
        return Label(self.context, self.accessible, polarity)


def labels_compatible(a: Label, b: Label) -> bool:
    """Closure compatibility: same context, or one accessible from the other."""
    return a.context == b.context or a.context in b.accessible or b.context in a.accessible


@dataclass(frozen=True)
class LitNode:
    label: Label
    pred: str
    args: tuple[Term, ...]
    index: int


def _closure_pairs(literals: list[LitNode]) -> list[tuple[LitNode, LitNode]]:
    """Complementary, context-compatible (positive, negative) literal pairs."""
    positives = [n for n in literals if n.label.polarity == "+"]
    negatives = [n for n in literals if n.label.polarity == "-"]
    return [
        (pos, neg)
        for pos in positives
        for neg in negatives
        if pos.pred == neg.pred
        and len(pos.args) == len(neg.args)
        and labels_compatible(pos.label, neg.label)
    ]


def close_branch(
    literals: list[LitNode],
) -> Optional[tuple[dict, tuple[LitNode, LitNode]]]:
    """First complementary, context-compatible, unifiable literal pair.

    Returns the most general unifier and the (positive, negative) pair;
    the substitution is the caller's to apply, branch-locally.
    """
    for pos, neg in _closure_pairs(literals):
        subst = _unify_args(pos.args, neg.args, {})
        if subst is not None:
            return subst, (pos, neg)
    return None


# -- statistics -----------------------------------------------------------------


@dataclass
class ProofStats:
    rule_applications: int = 0
    per_rule: dict[str, int] = field(default_factory=dict)
    context_condition_expansions: dict[str, int] = field(default_factory=dict)
    branches: int = 0
    closures: int = 0

    def bump(self, rule: str) -> None:
        self.rule_applications += 1
        self.per_rule[rule] = self.per_rule.get(rule, 0) + 1

    def bump_context(self, key: str) -> None:
        self.context_condition_expansions[key] = (
            self.context_condition_expansions.get(key, 0) + 1
        )

    def absorb(self, other: "ProofStats") -> None:
        self.rule_applications += other.rule_applications
        for k, v in other.per_rule.items():
            self.per_rule[k] = self.per_rule.get(k, 0) + v
        for k, v in other.context_condition_expansions.items():
            self.context_condition_expansions[k] = (
                self.context_condition_expansions.get(k, 0) + v
            )
        self.branches += other.branches
        self.closures += other.closures

    def as_json(self) -> dict:
        return {
            "ruleApplications": self.rule_applications,
            "perRule": {k: self.per_rule[k] for k in sorted(self.per_rule)},
            "contextConditionExpansions": {
                k: self.context_condition_expansions[k]
                for k in sorted(self.context_condition_expansions)
            },
            "branches": self.branches,
            "closures": self.closures,
        }


@dataclass(frozen=True)
class Verdict:
    statuses: tuple[tuple[str, str], ...]  # (tag, status), in task order

    def as_dict(self) -> dict[str, str]:
        return dict(self.statuses)

    def __getitem__(self, tag: str) -> str:
        return self.as_dict()[tag]


# -- engine internals -------------------------------------------------------------


class _DepthExceeded(Exception):
    pass


class _ClosureExceeded(Exception):
    pass


@dataclass(frozen=True)
class _GammaTemplate:
    """A universal-strength node, instantiable with fresh free variables."""

    label: Label
    kind: str  # "imp" | "drs"
    payload: object
    env: tuple[tuple[Referent, Term], ...]

    @property
    def var_count(self) -> int:
        if self.kind == "imp":
            return len(self.payload.antecedent.universe)
        return len(self.payload.universe)


class _GammaState:
    __slots__ = ("template", "count")

    def __init__(self, template: _GammaTemplate, count: int = 0) -> None:
        self.template = template
        self.count = count

    def copy(self) -> "_GammaState":
        return _GammaState(self.template, self.count)


class _NegConds:
    """An instantiated negative condition set: refuting it branches."""

    __slots__ = ("conditions",)

    def __init__(self, conditions: tuple[Condition, ...]) -> None:
        self.conditions = conditions


class _BranchPoint:
    """Explicit alternatives produced by an instantiation."""

    __slots__ = ("alternatives",)

    def __init__(self, alternatives: tuple[tuple, ...]) -> None:
        self.alternatives = alternatives


class _Branch:
    __slots__ = ("lits", "scope", "gammas")

    def __init__(
        self, lits: list[LitNode], scope: tuple[FreeVar, ...], gammas: list[_GammaState]
    ) -> None:
        self.lits = lits
        self.scope = scope
        self.gammas = gammas

    def copy(self) -> "_Branch":
        return _Branch(list(self.lits), self.scope, [g.copy() for g in self.gammas])

    def add_gamma(self, template: _GammaTemplate) -> None:
        if all(g.template != template for g in self.gammas):
            self.gammas.append(_GammaState(template))


# Items awaiting expansion: (label, payload, env); the label's polarity is
# the payload's sign.
_Item = tuple


class _Shared:
    """Context material accumulated along the formula spine."""

    def __init__(self) -> None:
        self.lits: list[LitNode] = []
        self.gammas: list[_GammaTemplate] = []
        self.deferred: list[_Item] = []
        self.env: dict[Referent, Term] = {}

    def mark(self) -> tuple:
        return len(self.lits), len(self.gammas), len(self.deferred), dict(self.env)

    def rewind(self, mark: tuple) -> None:
        nl, ng, nd, env = mark
        del self.lits[nl:]
        del self.gammas[ng:]
        del self.deferred[nd:]
        self.env = env


class _Engine:
    def __init__(self, bounds: Bounds) -> None:
        self.bounds = bounds
        self.stats = ProofStats()
        self.nodes = 0
        self.closure_steps = 0
        self._var = 0
        self._skolem = 0
        self._context = 0
        self.exhausted = False
        self.label_edges: list[tuple[Label, Label]] = []

    # Fresh symbol supplies are owned by the proof attempt, so re-running
    # the same input yields identical trees and statistics.
    def fresh_var(self) -> FreeVar:
        self._var += 1
        return FreeVar(self._var)

    def fresh_skolem(self, scope: tuple[FreeVar, ...]) -> SkolemApp:
        self._skolem += 1
        return SkolemApp(self._skolem, tuple(scope))

    def fresh_context(self) -> int:
        self._context += 1
        return self._context

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.bounds.depth_limit:
            raise _DepthExceeded

    def _lit(self, label: Label, atom: Atom, env: dict) -> LitNode:
        self._tick()
        args = tuple(env.get(a, Const(a.name)) for a in atom.args)
        return LitNode(label, atom.predicate, args, self.nodes)

    # -- shared context expansion (once per in-wrapper) -------------------------

    def expand_context(self, label: Label, box: DRS, shared: _Shared) -> None:
        from .text import print_condition

        env = dict(shared.env)
        if box.universe:
            self.stats.bump("+:universe")
            self._tick()
            for ref in box.universe:
                env[ref] = self.fresh_skolem(())
        for cond in box.conditions:
            self.stats.bump("+:condition")
            self.stats.bump_context(print_condition(cond))
            if isinstance(cond, Atom):
                shared.lits.append(self._lit(label, cond, env))
            elif isinstance(cond, Imp):
                shared.gammas.append(_GammaTemplate(label, "imp", cond, tuple(env.items())))
            elif isinstance(cond, (Neg, Or)):
                shared.deferred.append((label, cond, env))
            elif isinstance(cond, Alpha):
                raise AlphaRemaining("context boxes must be alpha-free")
            else:
                raise TypeError("unexpected condition %r" % (cond,))
        shared.env = env

    # -- per-task expansion -------------------------------------------------------

    def _step(self, item: _Item, branch: _Branch) -> Optional[list[list[_Item]]]:
        """Expand one item.

        Non-branching rules mutate the branch (or return a single
        alternative); branching rules return one item list per child.
        """
        label, payload, env = item
        sign = label.polarity
        self._tick()

        if isinstance(payload, _BranchPoint):
            return [list(alt) for alt in payload.alternatives]
        if isinstance(payload, Atom):
            branch.lits.append(self._lit(label, payload, env))
            return None
        if isinstance(payload, DRS):
            if sign == "+":
                self.stats.bump("+:universe" if payload.universe else "+:box")
                env2 = dict(env)
                for ref in payload.universe:
                    env2[ref] = self.fresh_skolem(branch.scope)
                for _ in payload.conditions:
                    self.stats.bump("+:condition")
                return [[(label, c, env2) for c in payload.conditions]]
            if payload.universe:
                self.stats.bump("-:universe")
                branch.add_gamma(_GammaTemplate(label, "drs", payload, tuple(env.items())))
                return None
            self.stats.bump("-:condition")
            return [[(label, c, env)] for c in payload.conditions]
        if isinstance(payload, _NegConds):
            self.stats.bump("-:condition")
            return [[(label, c, env)] for c in payload.conditions]
        if isinstance(payload, Neg):
            self.stats.bump(sign + ":not")
            flipped = "-" if sign == "+" else "+"
            return [[(label.signed(flipped), payload.body, env)]]
        if isinstance(payload, Imp):
            if sign == "+":
                self.stats.bump("+:imp")
                branch.add_gamma(_GammaTemplate(label, "imp", payload, tuple(env.items())))
                return None
            self.stats.bump("-:imp")
            env2 = dict(env)
            for ref in payload.antecedent.universe:
                env2[ref] = self.fresh_skolem(branch.scope)
            items = [(label.signed("+"), c, env2) for c in payload.antecedent.conditions]
            items.append((label, payload.consequent, env2))
            return [items]
        if isinstance(payload, Or):
            self.stats.bump(sign + ":or")
            if sign == "+":
                return [[(label, payload.left, env)], [(label, payload.right, env)]]
            return [[(label, payload.left, env), (label, payload.right, env)]]
        if isinstance(payload, Alpha):
            raise AlphaRemaining("anaphoric material reached the prover")
        if isinstance(payload, DrsLit):
            return [[(label, payload.drs, env)]]
        if isinstance(payload, In):
            j = self.fresh_context()
            inner = Label(j, label.accessible | {label.context}, "+")
            self.label_edges.append((label, inner))
            self.stats.bump(sign + ":in")
            if sign == "-":
                return [[(inner, payload.context, env), (inner.signed("-"), payload.body, env)]]
            return [
                [(inner.signed("-"), payload.context, env)],
                [(inner, payload.body, env)],
            ]
        if isinstance(payload, Conj):
            self.stats.bump(sign + ":conj")
            if sign == "+":
                return [[(label, i, env) for i in payload.items]]
            return [[(label, i, env)] for i in payload.items]
        if isinstance(payload, Disj):
            self.stats.bump(sign + ":disj")
            if sign == "+":
                return [[(label, i, env)] for i in payload.items]
            return [[(label, i, env) for i in payload.items]]
        raise TypeError("cannot expand %r" % (payload,))

    def _instantiate(self, state: _GammaState, branch: _Branch) -> list[_Item]:
        """One fresh-variable instance of a universal-strength node."""
        template = state.template
        state.count += 1
        self.stats.bump("gamma:" + template.kind)
        env = dict(template.env)
        if template.kind == "imp":
            universe = template.payload.antecedent.universe
        else:
            universe = template.payload.universe
        fresh = tuple(self.fresh_var() for _ in universe)
        branch.scope = branch.scope + fresh
        env.update(zip(universe, fresh))
        label = template.label
        if template.kind == "imp":
            ante = template.payload.antecedent
            cons = template.payload.consequent
            alternatives = (
                ((label.signed("-"), _NegConds(ante.conditions), env),),
                ((label.signed("+"), cons, env),),
            )
            return [(label, _BranchPoint(alternatives), env)]
        return [(label.signed("-"), _NegConds(template.payload.conditions), env)]

    def _saturate(self, branch: _Branch, pending: list[_Item], budget: int) -> list[_Branch]:
        while True:
            while pending:
                item = pending.pop(0)
                alternatives = self._step(item, branch)
                if alternatives is None:
                    continue
                if len(alternatives) == 1:
                    pending = alternatives[0] + pending
                    continue
                out: list[_Branch] = []
                for alt in alternatives:
                    self.stats.branches += 1
                    out.extend(self._saturate(branch.copy(), list(alt) + list(pending), budget))
                return out
            state = next((g for g in branch.gammas if g.count < budget), None)
            if state is None:
                return [branch]
            pending = self._instantiate(state, branch)

    # -- closure ---------------------------------------------------------------------

    def _close_all(self, branch_pairs: list, subst: dict) -> Optional[dict]:
        """Find one substitution closing every branch at once.

        Most-constrained-first: commit the branch with the fewest pairs
        still unifiable under the running substitution, so conflicts
        surface early instead of after exploring hopeless prefixes.
        """
        if not branch_pairs:
            return subst
        best_index = -1
        best_options: Optional[list[dict]] = None
        for i, pairs in enumerate(branch_pairs):
            options: list[dict] = []
            for pos, neg in pairs:
                self.closure_steps += 1
                if self.closure_steps > self.bounds.depth_limit:
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
            found = self._close_all(rest, trial)
            if found is not None:
                return found
        return None

    def _ground_terms(self, branches: list[_Branch]) -> set[Term]:
        terms: set[Term] = set()

        def add(term: Term) -> bool:
            if isinstance(term, Const):
                terms.add(term)
                return True
            if isinstance(term, SkolemApp) and all(add(a) for a in term.args):
                terms.add(term)
                return True
            return False

        for branch in branches:
            for lit in branch.lits:
                for arg in lit.args:
                    add(arg)
        return terms

    def run_task(self, label: Label, goal: DRS, shared: _Shared, env: dict) -> str:
        """Decide one entailment question against the shared contexts.

        Iterative deepening on the per-node instantiation budget; after a
        failed round the task is saturated when every universal-strength
        node already has one instance per known ground term combination,
        so further variants could not enable new closures.
        """
        if self.exhausted:
            return OPEN_BOUNDED
        self.closure_steps = 0
        base_gammas = [_GammaState(t) for t in shared.gammas]
        base_items: list[_Item] = list(shared.deferred) + [(label.signed("-"), goal, env)]
        for budget in range(self.bounds.gamma_limit + 1):
            branch0 = _Branch(list(shared.lits), (), [g.copy() for g in base_gammas])
            try:
                branches = self._saturate(branch0, list(base_items), budget)
                if not branches:
                    return CLOSED
                branch_pairs = [_closure_pairs(b.lits) for b in branches]
                closing = None
                if all(branch_pairs):
                    closing = self._close_all(branch_pairs, {})
            except _DepthExceeded:
                self.exhausted = True
                return OPEN_BOUNDED
            except _ClosureExceeded:
                return OPEN_BOUNDED
            if closing is not None:
                self.stats.closures += len(branches)
                return CLOSED
            ground = max(1, len(self._ground_terms(branches)))
            states = [g for b in branches for g in b.gammas]
            if all(g.count >= ground**g.template.var_count for g in states):
                return OPEN_SATURATED
        return OPEN_BOUNDED


# -- public proving interface ---------------------------------------------------------


def prove_lcon(
    formula: Formula,
    tags: Optional[dict[tuple[int, ...], str]] = None,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> tuple[Verdict, ProofStats]:
    """Decide every tagged task of a context formula in one labeled tableau.

    The formula is refuted from the root label (0, {}, -).  Context boxes
    met on the way down are expanded once and shared by every task below;
    each box-literal leaf is then closed independently, with branch-local
    substitutions, so tasks receive individual verdicts.
    """
    engine = _Engine(bounds)
    position_tags = auto_tag_positions(formula)
    if tags:
        position_tags.update(tags)
    statuses: list[tuple[str, str]] = []
    shared = _Shared()

    def spine(f: Formula, label: Label, position: tuple[int, ...]) -> None:
        if isinstance(f, DrsLit):
            tag = position_tags[position]
            status = engine.run_task(label, f.drs, shared, dict(shared.env))
            statuses.append((tag, status))
            return
        if isinstance(f, In):
            j = engine.fresh_context()
            inner = Label(j, label.accessible | {label.context}, "+")
            engine.label_edges.append((label, inner))
            engine.stats.bump("-:in")
            mark = shared.mark()
            try:
                engine.expand_context(inner, f.context, shared)
            except _DepthExceeded:
                engine.exhausted = True
            spine(f.body, inner.signed("-"), position + (0,))
            shared.rewind(mark)
            return
        if isinstance(f, Conj):
            engine.stats.bump("-:conj")
        elif isinstance(f, Disj):
            engine.stats.bump("-:disj")
        else:
            raise TypeError("cannot prove %r" % (f,))
        for i, item in enumerate(f.items):
            spine(item, label, position + (i,))

    spine(formula, Label(0, frozenset(), "-"), ())
    return Verdict(tuple(statuses)), engine.stats


def naive_prove(task: InferenceTask, bounds: Bounds = DEFAULT_BOUNDS) -> tuple[str, ProofStats]:
    """Prove one entailment task against its own freshly expanded premise."""
    if task.conclusion is None:
        raise ValueError("satisfiability tasks go to the model checker")
    if task.premise.is_empty():
        formula: Formula = DrsLit(task.conclusion)
        position: tuple[int, ...] = ()
    else:
        formula = In(task.premise, DrsLit(task.conclusion))
        position = (0,)
    verdict, stats = prove_lcon(formula, {position: "task"}, bounds)
    return verdict["task"], stats


def default_task_prover(bounds: Bounds = DEFAULT_BOUNDS) -> Callable[[InferenceTask], str]:
    def prover(task: InferenceTask) -> str:
        return naive_prove(task, bounds)[0]

    return prover


# -- shared-vs-naive cost comparison ------------------------------------------------


@dataclass(frozen=True)
class CompareReport:
    shared_stats: ProofStats
    naive_stats: ProofStats
    shared_verdicts: tuple[tuple[str, str], ...]  # (reading ref, status)
    naive_verdicts: tuple[tuple[str, str], ...]
    per_condition_ratio: tuple[tuple[str, float], ...]
    overall_ratio: float

    @property
    def agreement(self) -> bool:
        return dict(self.shared_verdicts) == dict(self.naive_verdicts)

    def ratio_of(self, condition: str) -> float:
        return dict(self.per_condition_ratio)[condition]


def compare_cost(
    root: DRS,
    bg: BackgroundTheory = EMPTY_BACKGROUND,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> CompareReport:
    """Run the shared proof and the per-task proofs and relate their cost.

    The per-condition ratio reports how many times the per-task route
    expanded a context condition for every single shared expansion.
    """
    extraction: Extraction = extract(root, bg)
    shared_verdicts: list[tuple[str, str]] = []
    if extraction.formula is None:
        shared_stats = ProofStats()
    else:
        verdict, shared_stats = prove_lcon(extraction.formula, extraction.tag_positions(), bounds)
        by_tag = verdict.as_dict()
        for task in extraction.tasks:
            for reading in task.readings:
                shared_verdicts.append((reading.ref, by_tag[task.tag]))

    naive_stats = ProofStats()
    naive_verdicts: list[tuple[str, str]] = []
    for alpha_path in eligible_alpha_paths(root):
        try:
            readings = candidate_readings(root, alpha_path)[0]
        except ProjectionError:
            readings = []
        for reading in readings:
            informativity, _ = build_tasks(reading, root, bg)
            status, stats = naive_prove(informativity, bounds)
            naive_stats.absorb(stats)
            naive_verdicts.append((reading.ref, status))

    ratios: list[tuple[str, float]] = []
    for key in sorted(shared_stats.context_condition_expansions):
        shared_n = shared_stats.context_condition_expansions[key]
        naive_n = naive_stats.context_condition_expansions.get(key, 0)
        ratios.append((key, naive_n / shared_n))
    shared_total = sum(shared_stats.context_condition_expansions.values())
    naive_total = sum(
        naive_stats.context_condition_expansions.get(k, 0)
        for k in shared_stats.context_condition_expansions
    )
    overall = (naive_total / shared_total) if shared_total else 1.0
    return CompareReport(
        shared_stats,
        naive_stats,
        tuple(shared_verdicts),
        tuple(naive_verdicts),
        tuple(ratios),
        overall,
    )
