import random
import string
from dataclasses import make_dataclass

import pytest
from hypothesis import HealthCheck, given, settings

from ctxdrt import drs
from ctxdrt.drs import (
    ALPHA_BODY,
    DRS,
    EMPTY,
    Alpha,
    Atom,
    BoundReferent,
    Imp,
    InvalidPath,
    Neg,
    Or,
    OverlappingUniverses,
    Referent,
    _validation_report,
    accessible_referents,
    alpha_condition_paths,
    condition_children,
    context_drs,
    delete_alpha,
    enumerate_sub_drss,
    extend_drs_at,
    is_sub_drs,
    merge,
    rename_apart,
    sub_drs_at,
    substitute,
    substitute_condition,
    substitute_free,
    validate,
)
from ctxdrt.text import parse_drs, print_condition, print_drs

from gen import corpus_drs, nested_alpha_boxes


def refs(*names):
    return tuple(Referent(n) for n in names)


def test_merge_unions_universes_and_conditions():
    a = parse_drs("[x | man(x)]")
    b = parse_drs("[y | wife(y)]")
    assert print_drs(merge(a, b)) == "[x, y | man(x), wife(y)]"


def test_merge_empty_is_identity():
    k = parse_drs("[x, y | man(x), wife(y), not [ | sad(x)]]")
    merged = merge(k, EMPTY)
    assert merged == k
    assert merged.universe == k.universe
    assert merged.conditions == k.conditions
    assert merge(EMPTY, k) == k


def test_merge_rejects_overlapping_universes():
    a = parse_drs("[x | man(x)]")
    b = parse_drs("[x | wife(x)]")
    with pytest.raises(OverlappingUniverses) as err:
        merge(a, b)
    assert err.value.referent == Referent("x")


def test_merge_drops_duplicate_conditions_once():
    a = parse_drs("[ | p(u)]")
    b = parse_drs("[ | p(u), q(u)]")
    assert merge(a, b).conditions == parse_drs("[ | p(u), q(u)]").conditions


def test_merge_commutes_and_associates_up_to_set_views():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (corpus_drs(rng) for _ in range(3))
        b = rename_apart(b, {r.name for r in a.universe})
        c = rename_apart(c, {r.name for r in a.universe + b.universe})
        if len({*a.universe, *b.universe, *c.universe}) != len(
            a.universe + b.universe + c.universe
        ):
            continue
        assert merge(a, b) == merge(b, a)  # box equality is the set view
        assert merge(merge(a, b), c) == merge(a, merge(b, c))


def test_sub_drs_reflexive_and_examples(every_man_with_wife, hank):
    assert is_sub_drs((), hank)
    antecedent = sub_drs_at(((0, "ante"),), every_man_with_wife)
    assert antecedent == parse_drs("[x, y | man(x), wife(y), of(y,x)]")
    assert not is_sub_drs(((5, "ante"),), hank)
    with pytest.raises(InvalidPath):
        sub_drs_at(((0, "neg"),), hank)


def test_enumerate_sub_drss_counts_and_order(hank):
    paths = enumerate_sub_drss(hank)
    assert len(paths) == 5  # root, antecedent, consequent, alpha body, anaphor box
    assert paths[0] == ()
    assert paths[1] == ((2, "ante"),)
    assert paths[2] == ((2, "cons"),)
    assert paths[3] == ((2, "cons"), (1, "alpha"))
    assert paths[4] == ((2, "cons"), (1, "alpha"), (2, "alpha"))
    for p in paths:
        assert is_sub_drs(p, hank)


def test_accessible_referents_examples(every_man, every_man_with_wife, hank):
    # from the innermost anaphor box, only the antecedent's referent is visible
    anaphor_box = ((0, "cons"), (1, "alpha"), (2, "alpha"))
    assert accessible_referents(anaphor_box, every_man) == refs("x")
    body = ((0, "cons"), (1, "alpha"))
    assert accessible_referents(body, every_man_with_wife) == refs("x", "y")
    assert accessible_referents((), hank) == hank.universe


def test_accessible_referents_monotone_along_paths():
    rng = random.Random(23)
    for _ in range(60):
        root = corpus_drs(rng)
        for p in enumerate_sub_drss(root):
            for cut in range(len(p)):
                shallow = set(accessible_referents(p[:cut], root))
                deeper = set(accessible_referents(p[: cut + 1], root))
                assert shallow <= deeper


def test_context_drs_examples(every_man, hank):
    assert context_drs((), hank) == EMPTY
    body = ((0, "cons"), (1, "alpha"))
    assert print_drs(context_drs(body, every_man)) == "[x | man(x), likes(x,u)]"
    hank_body = ((2, "cons"), (1, "alpha"))
    expected = "[x, y | hank(x), married(x), man(y), likes(y,u)]"
    assert print_drs(context_drs(hank_body, hank)) == expected


def test_context_universe_within_accessible():
    # alpha bodies introduce presupposed referents the discourse cannot see,
    # so the containment is checked on paths that do not cross them
    rng = random.Random(37)
    for _ in range(60):
        root = corpus_drs(rng)
        for p in enumerate_sub_drss(root):
            if any(sel == ALPHA_BODY for _, sel in p[:-1]):
                continue
            ctx = context_drs(p, root)
            assert set(ctx.universe) <= set(accessible_referents(p, root))


def test_substitute_free_occurrences():
    k = parse_drs("[u | wife(u), of(u,v)]")
    assert print_drs(substitute(k, Referent("v"), Referent("x"))) == "[u | wife(u), of(u,x)]"


def test_substitute_identity():
    k = parse_drs("[u | wife(u), of(u,v)]")
    assert substitute(k, Referent("x"), Referent("x")) is k


def test_substitute_refuses_bound_referents():
    k = parse_drs("[v | p(v)]")
    with pytest.raises(BoundReferent):
        substitute(k, Referent("v"), Referent("x"))


def test_substitute_roundtrip_when_target_fresh():
    for text in (
        "[u | wife(u), of(u,v)]",
        "[ | p(v), [x | q(x,v)] => [ | r(x)], not [ | p(v)]]",
        "[a, b | s(a,v), s(b,v)]",
    ):
        k = parse_drs(text)
        once = substitute(k, Referent("v"), Referent("zz"))
        assert substitute(once, Referent("zz"), Referent("v")) == k


def test_substitute_free_roundtrips_on_corpus():
    # free occurrences of a presupposed referent can be renamed and back;
    # the bound occurrences inside its alpha body are shadowed both ways
    from ctxdrt.drs import substitute_free

    rng = random.Random(3)
    checked = 0
    for _ in range(40):
        k = corpus_drs(rng)
        free = sorted(validate(k).free)
        if not free:
            continue
        source, target = free[0], Referent("zz")
        once = substitute_free(k, {source: target})
        assert substitute_free(once, {target: source}) == k
        checked += 1
    assert checked > 5


def test_validate_reports_free_and_pure(hank):
    report = validate(hank)
    assert report.pure
    assert report.free == frozenset(refs("u", "v"))
    assert validate(EMPTY) == validate(parse_drs("[ | ]"))
    assert validate(EMPTY).free == frozenset()


def test_validate_detects_duplicates():
    impure = DRS(
        refs("x"),
        (Atom("p", refs("x")), Imp(DRS(refs("x"), ()), DRS((), (Atom("q", refs("x")),)))),
    )
    report = validate(impure)
    assert not report.pure
    assert report.duplicates == refs("x")


def test_alpha_paths_and_edits(hank):
    paths = alpha_condition_paths(hank)
    assert len(paths) == 2
    pruned = delete_alpha(hank, paths[0])
    assert alpha_condition_paths(pruned) == []
    grown = extend_drs_at(hank, (), parse_drs("[z | thing(z)]"))
    assert Referent("z") in grown.universe


def test_duplicate_universe_rejected_at_construction():
    with pytest.raises(ValueError):
        DRS(refs("x", "x"), ())


def test_alpha_body_constructor_allows_nesting():
    inner = Alpha(DRS(refs("v"), ()))
    outer = Alpha(DRS(refs("u"), (Atom("wife", refs("u")), inner)))
    assert isinstance(outer.body.conditions[1], Alpha)


# Every compound condition type, nested: a negation, an implication whose
# consequent holds a disjunction with an alpha (itself holding an anaphor)
# on its right, and a disjunction whose right side holds a negation and an
# alpha.  ``e`` and ``f`` are bound on the left of their disjunctions and
# occur free on the right.
ALL_KINDS = (
    "[x | p(x), not [a | q(a,x)],"
    " [y | r(y,x)] => [ | s(y,z), [e | t(e,y)] or [ | t(e,z), alpha:[v | g(v,y), alpha:[n | ]]]],"
    " [f | h(f)] or [ | h(f), not [ | k(z)], alpha:[w | m(w,x)]]]"
)


def test_substitution_shadows_through_consequents_but_not_across_disjuncts():
    box = parse_drs(ALL_KINDS)
    imp, disjunction = box.conditions[2], box.conditions[3]
    mapping = {Referent(n): Referent(n + "2") for n in ("y", "e", "z", "f", "x", "v")}
    # y is bound by the antecedent, so the consequent keeps it; e is bound on
    # the left of the inner disjunction only, so its right side renames it
    assert print_condition(substitute_condition(imp, mapping)) == (
        "[y | r(y,x2)] => [ | s(y,z2), [e | t(e,y)] or"
        " [ | t(e2,z2), alpha:[v | g(v,y), alpha:[n | ]]]]"
    )
    assert print_condition(substitute_condition(disjunction, mapping)) == (
        "[f | h(f)] or [ | h(f2), not [ | k(z2)], alpha:[w | m(w,x2)]]"
    )
    assert print_condition(substitute_condition(box.conditions[1], mapping)) == (
        "not [a | q(a,x2)]"
    )


def test_rename_apart_renames_through_every_condition_type():
    box = parse_drs(ALL_KINDS)
    renamed = rename_apart(box, {"x", "a", "y", "v", "n", "w", "z"})
    assert print_drs(renamed) == (
        "[x_1 | p(x_1), not [a_1 | q(a_1,x_1)],"
        " [y_1 | r(y_1,x_1)] => [ | s(y_1,z), [e | t(e,y_1)] or"
        " [ | t(e,z), alpha:[v_1 | g(v_1,y_1), alpha:[n_1 | ]]]],"
        " [f | h(f)] or [ | h(f), not [ | k(z)], alpha:[w_1 | m(w_1,x_1)]]]"
    )
    assert rename_apart(box, {"z", "q"}) is box  # nothing bound collides
    # e and f are bound on the left of each disjunction only, so the free e
    # and f of the right disjuncts keep their names
    assert print_drs(rename_apart(box, {"e", "f"})) == (
        "[x | p(x), not [a | q(a,x)],"
        " [y | r(y,x)] => [ | s(y,z), [e_1 | t(e_1,y)] or"
        " [ | t(e,z), alpha:[v | g(v,y), alpha:[n | ]]]],"
        " [f_1 | h(f_1)] or [ | h(f), not [ | k(z)], alpha:[w | m(w,x)]]]"
    )
    # a fresh name never captures a free referent
    assert print_drs(rename_apart(parse_drs("[ | not [e | t(e,e_1)]]"), {"e"})) == (
        "[ | not [e_2 | t(e_2,e_1)]]"
    )


def test_alpha_edits_through_disjunctions_and_alpha_bodies():
    box = parse_drs(ALL_KINDS)
    v_path = ((2, "cons"), (1, "right"), (1, "alpha"))
    n_path = v_path + ((1, "alpha"),)
    w_path = ((3, "right"), (2, "alpha"))
    assert alpha_condition_paths(box) == [v_path, n_path, w_path]
    assert print_condition(delete_alpha(box, n_path).conditions[2]) == (
        "[y | r(y,x)] => [ | s(y,z), [e | t(e,y)] or [ | t(e,z), alpha:[v | g(v,y)]]]"
    )
    assert print_condition(delete_alpha(box, w_path).conditions[3]) == (
        "[f | h(f)] or [ | h(f), not [ | k(z)]]"
    )
    grown = extend_drs_at(box, v_path, parse_drs("[ | k(v)]"))
    assert print_drs(sub_drs_at(v_path, grown)) == "[v | g(v,y), alpha:[n | ], k(v)]"
    grown = extend_drs_at(box, ((3, "left"),), parse_drs("[b | k(b)]"))
    assert print_condition(grown.conditions[3]) == (
        "[f, b | h(f), k(b)] or [ | h(f), not [ | k(z)], alpha:[w | m(w,x)]]"
    )
    for edited in (delete_alpha(box, w_path), grown):
        assert edited.conditions[:3] == box.conditions[:3]


def reference_rebuild(root, path, replacement):
    """``root`` with the sub-box at ``path`` replaced, by recursion down the path."""
    if not path:
        return replacement
    (idx, sel), rest = path[0], path[1:]
    cond = root.conditions[idx]
    boxes = [
        reference_rebuild(child, rest, replacement) if s == sel else child
        for s, child in condition_children(cond)
    ]
    conditions = root.conditions[:idx] + (type(cond)(*boxes),) + root.conditions[idx + 1 :]
    return DRS(root.universe, conditions)


def assert_edits_match_reference(root):
    for path in enumerate_sub_drss(root):
        extra = DRS(refs("zz"), (Atom("k", refs("zz")),))
        want = reference_rebuild(root, path, merge(sub_drs_at(path, root), extra))
        got = extend_drs_at(root, path, extra)
        assert (got.universe, got.conditions) == (want.universe, want.conditions)
    for path in alpha_condition_paths(root):
        parent, idx = sub_drs_at(path[:-1], root), path[-1][0]
        pruned = DRS(parent.universe, parent.conditions[:idx] + parent.conditions[idx + 1 :])
        want = reference_rebuild(root, path[:-1], pruned)
        got = delete_alpha(root, path)
        assert (got.universe, got.conditions) == (want.universe, want.conditions)


def test_edits_rebuild_as_a_recursion_down_the_path_does():
    assert_edits_match_reference(parse_drs(ALL_KINDS))
    rng = random.Random(31)
    for _ in range(300):
        assert_edits_match_reference(corpus_drs(rng))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nested_alpha_boxes)
def test_edits_rebuild_as_a_recursion_down_the_path_does_on_generated_boxes(box):
    assert_edits_match_reference(box)


# (path, the InvalidPath message) for paths of HANK that ``scope_chain`` rejects;
# each ends at an alpha body, so ``delete_alpha`` also walks them
BAD_ALPHA_PATHS = (
    ((7, (1, "alpha")), "malformed step 7"),
    (((2,), (1, "alpha")), r"malformed step \(2,\)"),
    (((9, "cons"), (1, "alpha")), "condition index 9 out of range"),
    ((("2", "cons"), (1, "alpha")), "condition index '2' out of range"),
    (((2, "cons"), (5, "alpha")), "condition index 5 out of range"),
    (((2, "neg"), (1, "alpha")), "selector 'neg' does not apply to Imp"),
    (((2, "cons"), (0, "alpha")), "selector 'alpha' does not apply to Atom"),
)


@pytest.mark.parametrize("path, message", BAD_ALPHA_PATHS)
def test_edits_reject_bad_paths_as_scope_chain_does(hank, path, message):
    extra = parse_drs("[z | thing(z)]")
    for edit in (lambda: delete_alpha(hank, path), lambda: extend_drs_at(hank, path, extra)):
        with pytest.raises(InvalidPath, match=message):
            edit()
    with pytest.raises(InvalidPath, match=message):
        sub_drs_at(path, hank)


@pytest.mark.parametrize("path", [(), ((2, "cons"),), ((2, "ante"),), ((2, "cons"), (1, "neg"))])
def test_delete_alpha_rejects_a_path_not_ending_at_an_alpha_body(hank, path):
    with pytest.raises(InvalidPath, match="does not address an alpha condition"):
        delete_alpha(hank, path)


def test_each_edit_walks_its_path_once(monkeypatch, hank):
    calls = []
    walk = drs.scope_chain

    def counted(*args):
        calls.append(args[0])
        return walk(*args)

    monkeypatch.setattr(drs, "scope_chain", counted)
    alpha = ((2, "cons"), (1, "alpha"))
    delete_alpha(hank, alpha)
    assert calls == [alpha]
    extend_drs_at(hank, alpha, parse_drs("[z | thing(z)]"))
    assert calls == [alpha, alpha]


def test_referents_are_tuples_with_the_dataclass_repr_hash_and_order():
    old = make_dataclass(
        "Referent",
        [("name", str)],
        frozen=True,
        order=True,
        namespace={"__repr__": lambda self: "Referent(%r)" % self.name},
    )
    rng = random.Random(15)
    tail = string.ascii_letters + string.digits + "_"
    names = [
        rng.choice(string.ascii_lowercase) + "".join(rng.choices(tail, k=rng.randrange(5)))
        for _ in range(300)
    ]
    for name in names:
        assert repr(Referent(name)) == repr(old(name))
        assert hash(Referent(name)) == hash(old(name))
    for a, b in zip(names, reversed(names)):
        assert (Referent(a) < Referent(b)) == (old(a) < old(b))
    assert [r.name for r in sorted(map(Referent, names))] == [
        r.name for r in sorted(map(old, names))
    ]
    # equal hashes, so sets iterate in the same order
    assert [r.name for r in set(map(Referent, names))] == [r.name for r in set(map(old, names))]
    for bad in ("", "X", "1a", "a-b", "not ok", "x\n"):
        with pytest.raises(ValueError, match="bad referent name"):
            Referent(bad)
    # a tuple: it equals the 1-tuple of its name, and a term of that shape
    from ctxdrt.tableau import Const

    assert Referent("x") == ("x",) == Const("x")
    assert Referent("x") != "x" and Referent("x") != Referent("y")


def test_atoms_are_tuples_with_the_dataclass_repr_and_hash():
    old = make_dataclass(
        "Atom",
        [("predicate", str), ("args", tuple)],
        frozen=True,
    )
    rng = random.Random(16)
    atoms = [
        (rng.choice("pqrs") + rng.choice(["", "1", "_b"]), refs(*rng.sample("xyzuv", rng.randrange(1, 4))))
        for _ in range(300)
    ]
    for pred, args in atoms:
        assert repr(Atom(pred, args)) == repr(old(pred, args))
        assert hash(Atom(pred, args)) == hash(old(pred, args))
    assert repr(Atom("p", refs("x"))) == "Atom(predicate='p', args=(Referent('x'),))"
    # equal hashes, so sets of conditions iterate in the same order
    assert [tuple(a) for a in set(Atom(*a) for a in atoms)] == [
        (a.predicate, a.args) for a in set(old(*a) for a in atoms)
    ]
    assert Atom("p", [Referent("x")]).args == refs("x")
    assert Atom(predicate="p", args=refs("x")) == Atom("p", refs("x"))
    with pytest.raises(ValueError, match="bad predicate name: 'P'"):
        Atom("P", refs("x"))
    with pytest.raises(ValueError, match="atoms need at least one argument"):
        Atom("p", ())
    # a tuple: it equals the 2-tuple of its fields
    assert Atom("p", refs("x")) == ("p", refs("x"))


_NAMES = refs("x", "y", "z", "u", "v")


def _random_box(rng: random.Random, depth: int, avoid=(), shared=()) -> DRS:
    """A small box over five names: impure, with free names, or sharing ``shared``."""
    universe = [r for r in _NAMES if r not in avoid and rng.random() < 0.1 * (depth + 1)]
    conds = [c for c in shared if rng.random() < 0.4]
    for _ in range(rng.randrange(4)):
        kind = rng.randrange(5) if depth else 0
        if kind <= 1:
            pred, arity = rng.choice((("p", 1), ("q", 2)))
            conds.append(Atom(pred, tuple(rng.choice(_NAMES) for _ in range(arity))))
        elif kind == 2:
            conds.append(Neg(_random_box(rng, depth - 1)))
        elif kind == 3:
            conds.append(Imp(_random_box(rng, depth - 1), _random_box(rng, depth - 1)))
        else:
            conds.append(Or(_random_box(rng, depth - 1), _random_box(rng, depth - 1)))
    rng.shuffle(conds)
    return DRS(tuple(universe), tuple(conds))


def test_a_report_a_merge_carries_is_the_report_of_the_merged_box():
    rng = random.Random(17)
    carried_count = unbound_by_other = 0
    for _ in range(3000):
        k1 = _random_box(rng, 2)
        k2 = _random_box(rng, 2, avoid=k1.universe, shared=k1.conditions)
        reports = [validate(k) for k in (k1, k2) if rng.random() < 0.85]
        merged = merge(k1, k2)
        carried = merged.__dict__.get("_report")
        derivable = (
            len(reports) == 2
            and all(r.pure for r in reports)
            and reports[0].bound.isdisjoint(reports[1].bound)
        )
        assert (carried is not None) == derivable
        if carried is not None:
            assert carried == _validation_report(merged)
            assert validate(merged) is carried
            carried_count += 1
            unbound_by_other += bool(reports[0].free & set(k2.universe))
    assert carried_count > 300 and unbound_by_other > 40


def _parts(box: DRS):
    """Every box and every atom inside ``box``, itself first."""
    yield box
    for cond in box.conditions:
        if isinstance(cond, Atom):
            yield cond
        for _, child in condition_children(cond):
            yield from _parts(child)


def test_rebuilt_atoms_and_boxes_are_what_the_checked_constructors_build():
    # substitution and renaming rebuild atoms and boxes from checked parts
    # without checking them again; each must equal, hash and print as the
    # atom or box the public constructor builds from the same fields
    rng = random.Random(18)
    rebuilt_atoms = 0
    for _ in range(500):
        box = _random_box(rng, 2)
        mapping = {r: rng.choice(_NAMES) for r in rng.sample(_NAMES, 2)}
        rebuilt = [substitute_free(box, mapping), rename_apart(box, ["x", "y"])]
        for cond in box.conditions:
            new = substitute_condition(cond, mapping)
            rebuilt.append(new if isinstance(new, Atom) else DRS((), (new,)))
        for part in rebuilt:
            for made in _parts(part) if isinstance(part, DRS) else [part]:
                if isinstance(made, Atom):
                    checked = Atom(made.predicate, made.args)
                    rebuilt_atoms += 1
                else:
                    checked = DRS(made.universe, made.conditions)
                    assert made.universe == checked.universe
                    assert made.conditions == checked.conditions
                assert type(made) is type(checked)
                assert made == checked and hash(made) == hash(checked)
                assert repr(made) == repr(checked)
    assert rebuilt_atoms > 2000


def test_constructors_keep_their_checks_and_messages():
    for bad in ("", "X", "1a", "a-b"):
        with pytest.raises(ValueError, match=r"^bad referent name: %r$" % bad):
            Referent(bad)
    with pytest.raises(ValueError, match=r"^bad predicate name: 'P'$"):
        Atom("P", refs("x"))
    for empty in ((), []):
        with pytest.raises(ValueError, match="^atoms need at least one argument$"):
            Atom("p", empty)
    # the message names the first referent met a second time
    with pytest.raises(ValueError, match="^referent 'y' repeated in universe$"):
        DRS(refs("x", "y", "z", "y", "x"), ())
    with pytest.raises(ValueError, match="^referent 'x' repeated in universe$"):
        DRS(iter(refs("x", "y", "x", "y")), ())
    box = DRS(list(refs("x", "y")), [Atom("p", refs("x"))])
    assert type(box.universe) is tuple and type(box.conditions) is tuple
