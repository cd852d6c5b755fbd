"""The benchmark's tracer still wraps what the library calls.

``bench/tracing.Tracer`` replaces library functions by module attribute, so
a refactor that renames one, or stops calling it through its module, would
break a traced benchmark run (``bench/run.py --trace 1``) and nothing else.
"""

import sys
from pathlib import Path

from ctxdrt import tableau

from conftest import HANK, MARRIAGE_POSTULATE

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from operation import load_background, run_discourse  # noqa: E402
from tracing import SPANNED, Tracer  # noqa: E402


def test_tracer_enters_every_spanned_function_and_uninstalls():
    wrapped = list(SPANNED) + [(tableau, "unify")]
    originals = [getattr(module, attr) for module, attr in wrapped]
    bg = load_background((MARRIAGE_POSTULATE,))
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(m, a) is not f for (m, a), f in zip(wrapped, originals))
        out = run_discourse(HANK, bg, tracer)
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr in wrapped] == originals
    assert out.error is None and len(out.survivors) == 2

    names = ["%s.%s" % (module.__name__.rsplit(".", 1)[-1], attr) for module, attr in SPANNED]
    entered = {span[0] for span in tracer.spans}
    assert set(names) <= entered
    assert set(names) <= set(tracer.times())
    # the five reading checks of hank, and the rule counts its golden compare output pins
    assert tracer.counts["tableau.naive_prove"] == 5
    # one consistency search per binding: both bindings are satisfiable at the local site
    assert tracer.counts["models.model_check"] == 2
    assert tracer.counts["tableau.naive_rules"] == 151
    assert tracer.counts["tableau.shared_rules"] == 76
    # the closure search's unification work on hank, as the benchmark counts it
    assert tracer.counts["tableau.unify_calls"] == 691
    assert tracer.counts["tableau.unify_hits"] == 607
