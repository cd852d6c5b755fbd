"""Presupposition projection over discourse boxes, with a context-labeled prover.

The package resolves and accommodates anaphoric sub-boxes, generates the
informativity/consistency checks each accommodation site owes, restates
all informativity checks as one nested context formula, and decides them
with a labeled free-variable tableau whose shared context expansion is
instrumented against the naive one-proof-per-task route.
"""

from .drs import (
    ALPHA_BODY,
    DRS,
    EMPTY,
    IMP_ANTECEDENT,
    IMP_CONSEQUENT,
    NEG_BODY,
    OR_LEFT,
    OR_RIGHT,
    Alpha,
    Atom,
    BoundReferent,
    Condition,
    DrsError,
    DrsPath,
    Imp,
    InvalidPath,
    Neg,
    Or,
    OverlappingUniverses,
    Referent,
    ValidationReport,
    accessible_referents,
    context_drs,
    enumerate_sub_drss,
    is_sub_drs,
    merge,
    merge_all,
    sub_drs_at,
    substitute,
    validate,
)
from .lcon import (
    Conj,
    Disj,
    DrsLit,
    Extraction,
    Formula,
    In,
    SharingStats,
    TaggedTask,
    context_sharing_depth,
    extract,
)
from .models import (
    AlphaRemaining,
    ModelCheckResult,
    ResourceLimit,
    drs_to_fol,
    model_check,
)
from .projection import (
    BackgroundTheory,
    BlockedReading,
    CheckRecord,
    InferenceTask,
    NoAdmissibleReading,
    NotAccommodatable,
    NotAnAlpha,
    ProjectOutcome,
    ProjectionResult,
    Reading,
    ReadingVerdict,
    Resolution,
    build_tasks,
    candidate_readings,
    check_reading,
    project,
    resolve_alpha,
)
from .tableau import (
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
    Verdict,
    close_branch,
    compare_cost,
    labels_compatible,
    naive_prove,
    prove_lcon,
    unify,
)
from .text import ParseError, SourceSpan, parse_drs, parse_lcon, print_drs, print_lcon

__version__ = "0.1.0"
