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
wrong verdict.  Each deepening round extends the open branches of the
previous round by one more instance per universal node, instead of
rebuilding the task's tree from its first node (the incremental deepening
of leanTAP, Beckert & Posegga 1995).

``_Engine.refute`` walks the formula spine.  The statuses live on the
engine, and ``prove_lcon`` pairs them with the task tags, so a proof is
one engine object and no closure refers back to it once the call returns.
Inside a task one loop expands items and instances alike: each returns
the alternatives it opens.  A refuted condition set (an instance's body or
an implication's antecedent) is a box with an empty universe under ``-``.

Each ``in`` level is a value, a ``_Context`` that ``expand_context`` builds
once from the level above: the context literals indexed by predicate and
arity, the parent's first, their ground terms, and the universal nodes and
waiting conditions every task at that level starts from.  The spine passes
it down as an argument and nothing writes to it, so leaving a level undoes
nothing.  A task's branches hold only the literals they add, so no branch
or deepening round copies the context or rescans it for closure pairs.
The spine decides which contexts a task sees, all on one chain, so a
proof pairs literals without a label check; ``close_branch``, given
free-standing literals, checks label compatibility itself.
Every task gets its own node and closure-step budgets, counted from its
start; expanding a context on the spine is charged to no task, so a
verdict does not depend on where its task sits in the proof.
A task never instantiates a universal node with a pure disjunct, one
whose literals meet no complement anywhere in the task (see ``run_task``).
The closure search looks for one substitution that closes every branch
of a round.  Its large searches unify a branch again only when a binding
made since the branch's last scan reaches a variable of its live pairs;
any other branch unifies as it did, each option extended by the same new
bindings, so the search makes the same choices, charges the same steps
and finds the same substitution (see ``_close_all``).

``_signed_keys`` reads each goal and non-atomic context condition once,
before any rule runs, and rejects an alpha or a non-condition on the way,
so no rule checks either.

Proof state is copied only where a step writes it, and then with
``.copy()`` and literals: CPython's ``dict()`` and ``list()`` constructors
and ``tuple()`` over a generator allocate past the free lists, so their
objects count toward the next garbage collection even after they die, and
wide contexts set off full collections mid-proof.  ``unify`` copies a
substitution at its first new binding and never writes the one it is
given, so a closure-search level shares its caller's substitution until a
pair binds something; a box or antecedent with an empty universe keeps its
environment.  A label builds its flip once, and a universal node the box
its instances refute, so a step allocates only what it adds: items,
literals and fresh terms.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

from .drs import DRS, Alpha, Atom, Imp, Neg, Or, Referent
from .lcon import Conj, Disj, DrsLit, Extraction, Formula, In, auto_tag_positions, extract
from .models import AlphaRemaining
from .projection import (
    EMPTY_BACKGROUND,
    BackgroundTheory,
    InferenceTask,
    _walk_alpha,
    candidate_readings,
    eligible_alpha_paths,
    site_premises,
)
from .text import print_condition

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
    "CompareReport",
    "compare_cost",
]

CLOSED = "closed"
OPEN_SATURATED = "open_saturated"
OPEN_BOUNDED = "open_bounded"


@dataclass(frozen=True)
class Bounds:
    """Per-task resource bounds; running out of one makes the task open_bounded.

    ``gamma_limit`` caps the instances of each universal-strength node;
    ``depth_limit`` caps both the tableau nodes a task builds and its
    closure-search steps.  Expanding a shared context is not charged.
    """

    gamma_limit: int = 5
    depth_limit: int = 20000

    def __post_init__(self) -> None:
        if self.gamma_limit < 0:
            raise ValueError("gamma limit must be non-negative")
        if self.depth_limit <= 0:
            raise ValueError("depth limit must be positive")


DEFAULT_BOUNDS = Bounds()


# -- terms and unification ----------------------------------------------------


class FreeVar(NamedTuple):
    id: int


class SkolemApp(NamedTuple):
    fn: int
    args: tuple["Term", ...] = ()


class Const(NamedTuple):
    name: str


# Terms are named tuples: ids are ints and names strs, so no two term types
# compare equal, and hashing and equality run in C.
Term = Union[FreeVar, SkolemApp, Const]


def _resolve(term: Term, subst: dict) -> Term:
    while type(term) is FreeVar and term in subst:
        term = subst[term]
    return term


def _occurs(var: FreeVar, term: Term, subst: dict) -> bool:
    term = _resolve(term, subst)
    if term == var:
        return True
    if type(term) is SkolemApp:
        for arg in term.args:
            if _occurs(var, arg, subst):
                return True
    return False


def _reached(terms: list, subst: dict) -> set[FreeVar]:
    """The unbound variables that ``terms`` reach through ``subst``; the
    list is used up."""
    free = set()
    while terms:
        term = terms.pop()
        if type(term) is FreeVar:
            if term in subst:
                terms.append(subst[term])
            else:
                free.add(term)
        elif type(term) is SkolemApp:
            terms.extend(term.args)
    return free


def unify(a: Term, b: Term, subst: Optional[dict] = None) -> Optional[dict]:
    """Most general unifier extending ``subst``, or None; occurs check on.

    Copy on write: ``subst`` is never written.  It is returned as it is
    when the terms are already equal under it, and copied at the first new
    binding otherwise.  A variable is bound to the other side, the left one
    if both are variables.  Only a Skolem term with arguments can contain
    a variable, so only binding to one runs the occurs check.
    """
    out = {} if subst is None else subst
    owned = subst is None
    pending = [(a, b)]
    while pending:
        s, t = pending.pop()
        while type(s) is FreeVar and s in out:  # _resolve, inlined in this hot loop
            s = out[s]
        while type(t) is FreeVar and t in out:
            t = out[t]
        if s == t:
            continue
        if type(s) is FreeVar:
            var, term = s, t
        elif type(t) is FreeVar:
            var, term = t, s
        elif type(s) is SkolemApp and type(t) is SkolemApp:
            if s.fn != t.fn or len(s.args) != len(t.args):
                return None
            pending.extend(zip(s.args, t.args))
            continue
        else:
            return None
        if type(term) is SkolemApp and term.args and _occurs(var, term, out):
            return None
        if not owned:
            out, owned = out.copy(), True
        out[var] = term
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


def _unifiers(pairs: list, subst: dict) -> tuple[list, list[dict]]:
    """The pairs whose arguments unify under ``subst``, and their distinct
    unifiers, in pair order."""
    live: list = []
    options: list[dict] = []
    for pair in pairs:
        trial = _unify_args(pair[0].args, pair[1].args, subst)
        if trial is not None:
            live.append(pair)
            if trial not in options:
                options.append(trial)
    return live, options


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
        """This label under ``polarity``: itself, or its flip, built once.

        The flip is kept on the instance, which is immutable, and the flip
        keeps a weak reference back, so signing back returns this label
        while it lives, and the two make no reference cycle.  Neither is a
        field, so equality, hashing and ``repr`` do not see them.
        """
        if polarity == self.polarity:
            return self
        flipped = self.__dict__.get("_flipped")
        if type(flipped) is weakref.ref:
            flipped = flipped()
        if flipped is None or flipped.polarity != polarity:
            flipped = Label(self.context, self.accessible, polarity)  # a bad sign raises
            object.__setattr__(self, "_flipped", flipped)
            object.__setattr__(flipped, "_flipped", weakref.ref(self))
        return flipped


def labels_compatible(a: Label, b: Label) -> bool:
    """Closure compatibility: same context, or one accessible from the other."""
    return a.context == b.context or a.context in b.accessible or b.context in a.accessible


class LitNode(NamedTuple):
    label: Label
    pred: str
    args: tuple[Term, ...]
    index: int


def _closure_pairs(
    context: dict[tuple[str, int], list[LitNode]], lits: list[LitNode]
) -> list[tuple[LitNode, LitNode]]:
    """Complementary (positive, negative) literal pairs; labels are not checked.

    ``context`` holds the context literals, all positive, by predicate and
    arity, each list in ``index`` order; ``lits`` are the branch's own.  The
    pairs are those of context + ``lits``, positive-major with negatives in
    branch order: closure search charges its steps in this order, so the
    order is part of the verdict under bounds.
    """
    negatives: dict[tuple[str, int], list[LitNode]] = {}
    own: list[LitNode] = []
    for n in lits:
        if n.label.polarity == "-":
            negatives.setdefault((n.pred, len(n.args)), []).append(n)
        else:
            own.append(n)
    positives = [n for key in negatives if key in context for n in context[key]]
    positives.sort(key=lambda n: n.index)
    positives.extend(own)
    return [
        (pos, neg) for pos in positives for neg in negatives.get((pos.pred, len(pos.args)), ())
    ]


def close_branch(
    literals: list[LitNode],
) -> Optional[tuple[dict, tuple[LitNode, LitNode]]]:
    """First complementary, context-compatible, unifiable literal pair.

    Returns the most general unifier and the (positive, negative) pair;
    the substitution is the caller's to apply, branch-locally.
    """
    for pos, neg in _closure_pairs({}, literals):
        if labels_compatible(pos.label, neg.label):
            subst = _unify_args(pos.args, neg.args, {})
            if subst is not None:
                return subst, (pos, neg)
    return None


def _add_ground(term: Term, terms: set[Term]) -> bool:
    """Whether ``term`` is ground; adds it to ``terms`` if so.

    Ground subterms are added on the way, up to the first argument that is
    not ground: the arguments after it are not visited.
    """
    if isinstance(term, Const):
        terms.add(term)
        return True
    if not isinstance(term, SkolemApp):
        return False
    for arg in term.args:
        if not _add_ground(arg, terms):
            return False
    terms.add(term)
    return True


def _saturated(branches: list, budget: int, terms: set[Term]) -> bool:
    """Whether every universal node of ``branches`` has ``budget`` instances
    for each combination of ``terms`` over its universe."""
    ground = max(1, len(terms))
    return all(budget >= ground ** len(t.universe) for b in branches for t in b.gammas)


# -- statistics -----------------------------------------------------------------


@dataclass
class ProofStats:
    """Counters of one proof, or of several absorbed into one.

    ``rule_applications`` sums ``per_rule``.  ``contexts`` lists the context
    boxes the spine expanded, one per ``in`` wrapper, in order;
    ``context_condition_expansions`` prints and counts their conditions
    each time it is read.
    """

    per_rule: dict[str, int] = field(default_factory=dict)
    contexts: list[DRS] = field(default_factory=list)
    branches: int = 0
    closures: int = 0

    @property
    def rule_applications(self) -> int:
        return sum(self.per_rule.values())

    @property
    def context_condition_expansions(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for box in self.contexts:
            for cond in box.conditions:
                key = print_condition(cond)
                counts[key] = counts.get(key, 0) + 1
        return counts

    def bump(self, rule: str, count: int = 1) -> None:
        self.per_rule[rule] = self.per_rule.get(rule, 0) + count

    def absorb(self, other: "ProofStats") -> None:
        for k, v in other.per_rule.items():
            self.per_rule[k] = self.per_rule.get(k, 0) + v
        self.contexts += other.contexts
        self.branches += other.branches
        self.closures += other.closures

    def as_json(self) -> dict:
        expansions = self.context_condition_expansions
        return {
            "ruleApplications": self.rule_applications,
            "perRule": {k: self.per_rule[k] for k in sorted(self.per_rule)},
            "contextConditionExpansions": {k: expansions[k] for k in sorted(expansions)},
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


_FLIP = {"+": "-", "-": "+"}


def _signed_keys(cond: Union[DRS, Atom, Neg, Imp, Or], sign: str, keys: set) -> bool:
    """Add to ``keys`` the (predicate, arity, sign) of every literal that
    ``cond`` under ``sign`` can put on a branch.

    Returns whether those literals, all true, make ``cond`` true under its
    sign.  A refuted box, an asserted implication and an asserted
    disjunction hold by one of their parts, the others by all of them; so
    ``-[ | ]`` is false however its (no) literals are set.
    """
    if isinstance(cond, Atom):
        keys.add((cond.predicate, len(cond.args), sign))
        return True
    if isinstance(cond, Neg):
        return _signed_keys(cond.body, _FLIP[sign], keys)
    if isinstance(cond, DRS):
        parts = [_signed_keys(c, sign, keys) for c in cond.conditions]
        return all(parts) if sign == "+" else any(parts)
    if isinstance(cond, Imp):
        flipped = _FLIP[sign]
        parts = [_signed_keys(c, flipped, keys) for c in cond.antecedent.conditions]
        parts.append(_signed_keys(cond.consequent, sign, keys))
        return any(parts) if sign == "+" else all(parts)
    if isinstance(cond, Or):
        left = _signed_keys(cond.left, sign, keys)
        right = _signed_keys(cond.right, sign, keys)
        return left or right if sign == "+" else left and right
    if isinstance(cond, Alpha):
        raise AlphaRemaining("anaphoric material reached the prover")
    raise TypeError("cannot expand %r" % (cond,))


def _complements(payload: Union[Imp, DRS]) -> tuple:
    """The keys that could close against each disjunct of a universal node.

    An implication's instance holds by one of its antecedent's conditions
    refuted or by its consequent asserted; a box's by one of its
    conditions refuted.  A disjunct that its own literals cannot make true
    is left out, so it never counts as pure.  Kept on the payload, which
    is immutable, as ``validate`` keeps its report.
    """
    found = payload.__dict__.get("_complements")
    if found is not None:
        return found
    if isinstance(payload, Imp):
        parts = [(c, "-") for c in payload.antecedent.conditions]
        parts.append((payload.consequent, "+"))
    else:
        parts = [(c, "-") for c in payload.conditions]
    complements = []
    for part, sign in parts:
        keys: set = set()
        if _signed_keys(part, sign, keys):
            complements.append(tuple([(pred, arity, _FLIP[s]) for pred, arity, s in keys]))
    found = tuple(complements)
    object.__setattr__(payload, "_complements", found)
    return found


@dataclass(frozen=True)
class _GammaTemplate:
    """A universal-strength node, instantiable with fresh free variables."""

    label: Label
    kind: str  # "imp" | "drs"
    payload: object
    env: dict[Referent, Term]  # shared with the items of its box, never written

    @property
    def universe(self) -> tuple[Referent, ...]:
        return self.payload.antecedent.universe if self.kind == "imp" else self.payload.universe

    def body(self) -> DRS:
        """The conditions every instance refutes, as a box with an empty
        universe: built at the first instance and kept on the template."""
        body = self.__dict__.get("_body")
        if body is None:
            refuted = self.payload.antecedent if self.kind == "imp" else self.payload
            body = DRS((), refuted.conditions)
            object.__setattr__(self, "_body", body)
        return body


class _Branch:
    __slots__ = ("lits", "scope", "gammas", "counts")  # counts[i]: instances of gammas[i]

    def __init__(self, lits: list[LitNode], scope: tuple, gammas: list, counts=None) -> None:
        self.lits = lits
        self.scope = scope
        self.gammas = gammas
        self.counts: list[int] = [0] * len(gammas) if counts is None else counts

    def copy(self) -> "_Branch":
        return _Branch(self.lits.copy(), self.scope, self.gammas.copy(), self.counts.copy())

    def add_gamma(self, template: _GammaTemplate) -> None:
        """Add a universal node, unless the branch holds an equal one.

        Equal as the dataclass compares them; a node of another context has
        another label, so the full comparison runs only within a context.
        """
        context = template.label.context
        for other in self.gammas:
            if other.label.context == context and other == template:
                return
        self.gammas.append(template)
        self.counts.append(0)


# Items awaiting expansion: (label, payload, env); the label's polarity is
# the payload's sign.
_Item = tuple


class _Context(NamedTuple):
    """One ``in`` level: what every task refuted under ``label`` starts from.

    Every context literal is asserted and ground.  ``positives`` indexes
    them by predicate and arity, each list in node order, so a task finds
    its closure partners in the context without scanning it; ``terms`` are
    their arguments.  ``signs`` holds the (predicate, arity, sign) of every
    literal the universal nodes and waiting conditions can add.  Built
    once by ``expand_context``; nothing writes to it afterwards, so the
    levels below share it as it is.
    """

    label: Label  # the "-" label of the tasks at this level
    positives: dict[tuple[str, int], list[LitNode]]
    terms: set[Term]
    gammas: list[_GammaTemplate]
    deferred: list[_Item]
    env: dict[Referent, Term]
    signs: set[tuple[str, int, str]]


_ROOT = _Context(Label(0, frozenset(), "-"), {}, set(), [], [], {}, set())


# A closure-search level reuses the scans of the levels above only when it
# holds more branches than this.  A smaller search ends within a few levels,
# too few to repay walking each branch's terms for the reuse test.
_REUSE_ABOVE = 16


class _Engine:
    def __init__(self, bounds: Bounds) -> None:
        self.bounds = bounds
        self.statuses: list[str] = []  # in task order, the spine's depth-first order
        self.stats = ProofStats()
        self.nodes = 0  # over the whole proof; numbers the literals
        self.node_limit = bounds.depth_limit  # run_task sets it per task
        self.closure_steps = 0
        self.signature: tuple = ({}, set())  # (positives, signs) of the running task
        self._var = 0
        self._skolem = 0
        self._context = 0

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
        if self.nodes > self.node_limit:
            raise _DepthExceeded

    # -- shared context expansion (once per in-wrapper) -------------------------

    def expand_context(self, box: DRS, outer: _Context) -> _Context:
        """The level of ``in(box, ...)`` below ``outer``, in a fresh context.

        The new context can access ``outer``'s contexts and ``outer``
        itself.  The work is linear in the box, so no task's node budget
        pays for it.  One loop over the conditions: an atom becomes a
        context literal, numbered as the next node and indexed by predicate
        and arity; any other, once ``_signed_keys`` has added its keys to
        ``signs``, a universal node if an implication, else a condition
        waiting for each task.  The box's conditions are counted at once.
        This box's index lists then follow the parent's, key by key.
        """
        above = outer.label
        label = Label(self.fresh_context(), above.accessible | {above.context}, "+")
        self.stats.contexts.append(box)
        per_rule = self.stats.per_rule
        env = outer.env.copy()
        if box.universe:
            per_rule["+:universe"] = per_rule.get("+:universe", 0) + 1
            for ref in box.universe:
                env[ref] = self.fresh_skolem(())
        if box.conditions:
            per_rule["+:condition"] = per_rule.get("+:condition", 0) + len(box.conditions)
        positives: dict[tuple[str, int], list[LitNode]] = {}  # this box's own, at first
        terms, gammas, deferred = outer.terms.copy(), outer.gammas.copy(), outer.deferred.copy()
        signs = outer.signs.copy()
        nodes = self.nodes
        arg_terms: dict[tuple, tuple] = {}  # argument tuples met in this box, as terms
        new_tuple = tuple.__new__  # a LitNode from its fields, past its Python-level __new__
        for cond in box.conditions:
            if isinstance(cond, Atom):
                nodes += 1
                args = arg_terms.get(cond.args)
                if args is None:
                    args = arg_terms[cond.args] = tuple(
                        [env[a] if a in env else Const(a.name) for a in cond.args]
                    )
                    terms.update(args)
                lit = new_tuple(LitNode, (label, cond.predicate, args, nodes))
                key = (cond.predicate, len(args))
                side = positives.get(key)
                if side is None:
                    positives[key] = [lit]
                else:
                    side.append(lit)
            else:
                _signed_keys(cond, "+", signs)
                if isinstance(cond, Imp):
                    gammas.append(_GammaTemplate(label, "imp", cond, env))
                else:
                    deferred.append((label, cond, env))
        self.nodes = nodes
        if outer.positives:
            own, positives = positives, outer.positives.copy()
            for key, side in own.items():
                if key in positives:
                    side = positives[key] + side
                positives[key] = side
        return _Context(label.signed("-"), positives, terms, gammas, deferred, env, signs)

    # -- per-task expansion -------------------------------------------------------

    def _step(self, item: _Item, branch: _Branch) -> Optional[Sequence[Sequence[_Item]]]:
        """Expand one item: a box or a condition.

        Formula structure (``in``, ``&``, ``|``) never reaches a task;
        ``refute`` takes it apart.  Non-branching rules mutate the branch
        (or return a single alternative); branching rules return one item
        list per child.
        """
        label, payload, env = item
        if isinstance(payload, Atom):
            nodes = self.nodes + 2  # the item, and its literal as a node of its own
            if nodes > self.node_limit:
                self._tick()  # raises where counting node by node stops
                self._tick()
            self.nodes = nodes
            args = tuple([env[a] if a in env else Const(a.name) for a in payload.args])
            branch.lits.append(tuple.__new__(LitNode, (label, payload.predicate, args, nodes)))
            return None
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise _DepthExceeded
        sign = label.polarity
        if isinstance(payload, DRS):
            if sign == "+":
                self.stats.bump("+:universe" if payload.universe else "+:box")
                env = self._skolemized(env, payload.universe, branch.scope)
                if payload.conditions:
                    self.stats.bump("+:condition", len(payload.conditions))
                return [[(label, c, env) for c in payload.conditions]]
            if payload.universe:
                self.stats.bump("-:universe")
                template = _GammaTemplate(label, "drs", payload, env)
                if not self._useless(template):
                    branch.add_gamma(template)
                return None
            self.stats.bump("-:condition")
            return [[(label, c, env)] for c in payload.conditions]
        if isinstance(payload, Neg):
            self.stats.bump(sign + ":not")
            return [[(label.signed(_FLIP[sign]), payload.body, env)]]
        if isinstance(payload, Imp):
            if sign == "+":
                self.stats.bump("+:imp")
                template = _GammaTemplate(label, "imp", payload, env)
                if not self._useless(template):
                    branch.add_gamma(template)
                return None
            self.stats.bump("-:imp")
            env = self._skolemized(env, payload.antecedent.universe, branch.scope)
            asserted = label.signed("+")
            items = [(asserted, c, env) for c in payload.antecedent.conditions]
            items.append((label, payload.consequent, env))
            return [items]
        self.stats.bump(sign + ":or")
        if sign == "+":
            return [[(label, payload.left, env)], [(label, payload.right, env)]]
        return [[(label, payload.left, env), (label, payload.right, env)]]

    def _skolemized(self, env: dict, universe: tuple, scope: tuple) -> dict:
        """``env`` with a fresh Skolem term for each referent of ``universe``;
        ``env`` itself, unwritten, if there is none."""
        if universe:
            env = env.copy()
            for ref in universe:
                env[ref] = self.fresh_skolem(scope)
        return env

    def _useless(self, template: _GammaTemplate) -> bool:
        """Whether a disjunct of the node can meet no complement in this task."""
        positives, signs = self.signature
        for keys in _complements(template.payload):
            for key in keys:
                if key in signs or key[2] == "+" and key[:2] in positives:
                    break
            else:
                return True
        return False

    def _instantiate(self, i: int, branch: _Branch) -> Sequence[Sequence[_Item]]:
        """One fresh-variable instance of the branch's ``i``-th universal node.

        Returns its alternatives, as ``_step`` does.  An implication's
        instance splits, and is a node; a box's is one item for ``_step``.
        """
        template = branch.gammas[i]
        branch.counts[i] += 1
        self.stats.bump("gamma:" + template.kind)
        env = template.env.copy()
        universe = template.universe
        fresh = tuple([self.fresh_var() for _ in universe])
        branch.scope = branch.scope + fresh
        env.update(zip(universe, fresh))
        label = template.label
        refuted = ((label.signed("-"), template.body(), env),)
        if template.kind == "imp":
            self._tick()
            return (refuted, ((label.signed("+"), template.payload.consequent, env),))
        return (refuted,)

    def _saturate(self, branch: _Branch, stack: list[_Item], budget: int) -> list[_Branch]:
        """Expand ``stack`` on ``branch``, then instantiate up to ``budget``.

        Each step takes its alternatives from the stack, with the next item
        last, or once it is empty from the first node below ``budget``.
        The branch is extended in place, and a split copies it for every
        child but the last, so a returned leaf can be resumed at a larger
        budget: it goes on from each node's count.  The children of a
        split wait in ``children``, the next one last, and each is taken up
        once the one before it is done, so the leaves come depth-first
        however deep the splits go.
        """
        leaves: list[_Branch] = []
        children: list[tuple] = []  # (branch, stack, alternative, whether it is the last child)
        while True:
            if stack:
                alternatives = self._step(stack.pop(), branch)
            else:
                for i, count in enumerate(branch.counts):
                    if count < budget:
                        alternatives = self._instantiate(i, branch)
                        break
                else:
                    leaves.append(branch)
                    alternatives = ()
            if alternatives is None:
                continue
            if len(alternatives) == 1:
                stack.extend(reversed(alternatives[0]))
                continue
            last = len(alternatives) - 1
            for i in range(last, -1, -1):
                children.append((branch, stack, alternatives[i], i == last))
            if not children:
                return leaves
            branch, stack, alt, is_last = children.pop()
            self.stats.branches += 1
            if not is_last:
                branch, stack = branch.copy(), stack.copy()
            stack.extend(reversed(alt))

    # -- the formula spine ---------------------------------------------------------

    def refute(self, f: Formula, context: _Context) -> None:
        """Refute a formula node at ``context``, deciding every task below it.

        ``in(K, g)`` builds the level of K from ``context`` once for all of
        g; conjunctions and disjunctions pass their context to every item;
        each box literal runs one task at its context and appends its
        status, as the spine meets box literals depth-first.
        """
        if isinstance(f, DrsLit):
            self.statuses.append(self.run_task(f.drs, context))
            return
        if isinstance(f, In):
            self.stats.bump("-:in")
            self.refute(f.body, self.expand_context(f.context, context))
            return
        if isinstance(f, Conj):
            self.stats.bump("-:conj")
        elif isinstance(f, Disj):
            self.stats.bump("-:disj")
        else:
            raise TypeError("cannot prove %r" % (f,))
        for item in f.items:
            self.refute(item, context)

    # -- closure ---------------------------------------------------------------------

    def _close_all(self, branches: list, subst: dict) -> Optional[dict]:
        """Find one substitution closing every branch at once.

        Most-constrained-first: commit the branch with the fewest distinct
        options (the unifiers of its pairs) under the running substitution,
        so conflicts surface early instead of after exploring hopeless
        prefixes; the scan stops at the first branch with one option.

        Each branch comes as ``(charge, live, count, scanned, free)``:
        ``charge`` is its full pair count; ``live`` the pairs that unified
        under ``scanned``, the substitution of its last scan (None before
        the first), and ``count`` their distinct options there; ``free``
        the unbound variables those pairs reach under ``scanned``, or None
        until a deeper level first needs them.  After a scan that was
        forced by a binding, ``free`` is updated through the new bindings
        only, so it may keep variables of pairs that have died; that only
        makes the test below stricter.  A pair that fails to unify
        under a substitution fails under every extension of it, so a branch
        hands down only its live pairs; the options, and the order they are
        tried in, are those of the full list.  Looking at a branch costs
        ``charge`` closure steps whether or not it is unified again, so the
        step bound trips exactly where a scan of every pair would.

        A level's substitution extends its caller's with its new bindings
        last, so the bindings made since a branch's scan are the keys past
        the length of ``scanned``.  When none of them binds a variable of
        ``free``, the branch is not unified again (forward checking,
        Haralick & Elliott 1980: only the constraints on a variable just
        assigned are looked at again).  That is exact: every term of the
        live pairs resolves as it did, so each pair unifies as it did, with
        the new bindings added.  Each option o becomes o plus the new
        bindings, a map that cannot merge two options, so the count, the
        most-constrained choice, the early stop and the order of the
        options are those of a fresh scan.  A branch scanned higher up and
        left past an early stop is tested against every binding since its
        own scan, not only this level's.  The options of a chosen branch
        that was not unified again are rebuilt here, in the same order.
        Only a level with more than ``_REUSE_ABOVE`` branches runs the test;
        a smaller one unifies every branch it looks at again, unless no
        binding at all was made since its scan.
        """
        if not branches:
            return subst
        narrowed = branches.copy()
        reuse = len(branches) > _REUSE_ABOVE
        bound: Optional[list] = None  # the keys of subst, listed at the first branch that needs them
        best_index = best_count = -1
        best_options: Optional[list[dict]] = None
        for i, entry in enumerate(branches):
            charge, live, count, scanned, free = entry
            self.closure_steps += charge
            if self.closure_steps > self.bounds.depth_limit:
                raise _ClosureExceeded
            options: Optional[list[dict]] = None  # stays None for a branch not unified again
            if scanned is not subst:
                stale = True  # or the variables of free that a new binding reached
                if reuse and scanned is not None:
                    if bound is None:
                        bound = list(subst)
                    if free is None:
                        free = _reached([t for p in live for t in p[0].args + p[1].args], scanned)
                    stale = free.intersection(bound[len(scanned) :])
                    if stale:
                        free = (free - stale) | _reached([subst[v] for v in stale], subst)
                else:
                    free = None
                if stale:
                    live, options = _unifiers(live, subst)
                    if not options:
                        return None
                    count = len(options)
                narrowed[i] = (charge, live, count, subst, free)
            if best_index < 0 or count < best_count:
                best_index, best_count, best_options = i, count, options
                if count == 1:
                    break
        if best_options is None:
            best_options = _unifiers(narrowed[best_index][1], subst)[1]
        rest = narrowed[:best_index] + narrowed[best_index + 1 :]
        for trial in best_options:
            found = self._close_all(rest, trial)
            if found is not None:
                return found
        return None

    def run_task(self, goal: DRS, context: _Context) -> str:
        """Decide whether ``context`` entails ``goal``, refuting it there.

        The task may build ``depth_limit`` nodes from its own start and take
        ``depth_limit`` closure-search steps, so its verdict does not depend
        on the tasks before it.  Iterative deepening on the per-node
        instantiation budget: each round resumes the previous round's open
        branches at the next budget instead of rebuilding them, then tries
        to close them all at once; a branch without a pair cannot close,
        so the pair lists stop at the first such branch.  After a failed
        round the task is saturated when every universal-strength node
        already has one instance per known ground term combination, so
        further variants could not enable new closures.  A count grows
        only while it is below the budget, and ``_saturate`` ends only when
        none is, so every node of an open branch has ``budget`` instances.
        Each round adds the branches' ground terms to the context's.  The
        first branch starts from the goal and the waiting conditions; a
        resumed branch has expanded all its items, so it gets an empty stack.

        No universal node that a pure disjunct satisfies is instantiated
        (the pure-literal rule of Davis & Putnam 1960, as SETHEO's purity
        reduction applies it to tableau nodes).  The task's signature is
        the (predicate, arity, sign) of every literal it can hold: the
        context's positives and ``signs``, and the refuted goal's, which
        ``_signed_keys`` reads (rejecting an alpha).  A disjunct is pure
        when no literal it can add has its complement in the signature, and
        its own literals, all true, make it true; an empty consequent is
        such a disjunct.  Dropping the node changes no
        verdict.  Make every pure key true everywhere: the node then holds,
        and no other formula loses a model, since none carries a pure key's
        complement, so an ``open_saturated`` branch still gives a model of
        the whole task.  A closed tableau that uses the node has a closed
        one without it, because the pure child's subtree closes without its
        pure literals, which meet no complement.
        """
        self.node_limit = self.nodes + self.bounds.depth_limit
        self.closure_steps = 0
        signs = context.signs.copy()
        _signed_keys(goal, "-", signs)
        self.signature = (context.positives, signs)
        gammas = [t for t in context.gammas if not self._useless(t)]
        branches = [_Branch([], (), gammas)]
        stack: list[_Item] = [(context.label, goal, context.env), *reversed(context.deferred)]
        for budget in range(self.bounds.gamma_limit + 1):
            try:
                deeper: list[_Branch] = []
                for branch in branches:
                    deeper.extend(self._saturate(branch, stack, budget))
                    stack = []
                branches = deeper
                if not branches:
                    return CLOSED
                closing = None
                branch_pairs = []
                for branch in branches:
                    pairs = _closure_pairs(context.positives, branch.lits)
                    if not pairs:
                        break
                    branch_pairs.append((len(pairs), pairs, 0, None, None))
                else:
                    closing = self._close_all(branch_pairs, {})
            except (_DepthExceeded, _ClosureExceeded):
                return OPEN_BOUNDED
            if closing is not None:
                self.stats.closures += len(branches)
                return CLOSED
            # More ground terms only make saturation harder, so the branches'
            # terms are collected only if the context's alone would do.
            if _saturated(branches, budget, context.terms):
                terms = context.terms.copy()
                for arg in {arg for b in branches for n in b.lits for arg in n.args} - terms:
                    _add_ground(arg, terms)
                if _saturated(branches, budget, terms):
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

    ``tags`` renames the tasks at some box-literal positions, each task a
    tag of its own; other tags are a ``ValueError``.
    """
    position_tags = auto_tag_positions(formula)
    for position in tags or ():
        if position not in position_tags:
            raise ValueError("no box literal at tag position %r" % (position,))
    position_tags.update(tags or {})
    task_tags = list(position_tags.values())
    if len(set(task_tags)) < len(task_tags):
        raise ValueError("two tasks share a tag")
    engine = _Engine(bounds)
    engine.refute(formula, _ROOT)
    return Verdict(tuple(zip(task_tags, engine.statuses))), engine.stats


def naive_prove(task: InferenceTask, bounds: Bounds = DEFAULT_BOUNDS) -> tuple[str, ProofStats]:
    """Prove one entailment task against its own freshly expanded premise."""
    if task.conclusion is None:
        raise ValueError("satisfiability tasks go to the model checker")
    formula: Formula = DrsLit(task.conclusion)
    if not task.premise.is_empty():
        formula = In(task.premise, formula)
    verdict, stats = prove_lcon(formula, None, bounds)
    return verdict.statuses[0][1], stats


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
        return sorted(self.shared_verdicts) == sorted(self.naive_verdicts)

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
        walk = _walk_alpha(root, alpha_path)
        readings = candidate_readings(root, alpha_path, walk)[0]
        premises = site_premises(root, alpha_path, bg, walk) if readings else {}
        for reading in readings:
            informativity = InferenceTask(
                "informativity", premises[reading.site_path], reading.accommodated, reading.ref
            )
            status, stats = naive_prove(informativity, bounds)
            naive_stats.absorb(stats)
            naive_verdicts.append((reading.ref, status))

    shared_n = shared_stats.context_condition_expansions
    naive_n = naive_stats.context_condition_expansions
    ratios = [(key, naive_n.get(key, 0) / shared_n[key]) for key in sorted(shared_n)]
    shared_total = sum(shared_n.values())
    naive_total = sum(naive_n.get(key, 0) for key in shared_n)
    overall = (naive_total / shared_total) if shared_total else 1.0
    return CompareReport(
        shared_stats,
        naive_stats,
        tuple(shared_verdicts),
        tuple(naive_verdicts),
        tuple(ratios),
        overall,
    )
