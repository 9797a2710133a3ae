"""Numerical laboratory for unforgeability of unitary challenge-response devices.

Exact statevector simulation of Haar-random unitary devices, the
sample-based emulation attack against them, equality testing, and
game-based (existential / selective) unforgeability experiments, plus a
Monte Carlo audit battery for every quantitative law the laboratory relies
on.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    BudgetRefusal,
    DimensionCapExceeded,
    DimensionMismatch,
    InvalidQuantumObject,
    MuViolation,
    PostSelectionFailure,
    PreconditionViolation,
    PrivilegeRequired,
    QpufLabError,
)
from .numerics import (
    CONSTRUCTION_TOL,
    DERIVED_TOL,
    DensityMatrix,
    StateVector,
    UnitaryMatrix,
    apply,
    fidelity_mixed,
    fidelity_pure,
    haar_state,
    haar_unitary,
    max_dim,
    sqrt_fidelity_mixed,
    trace_distance,
)
from .qpuf import (
    EpsilonDisturbedChannel,
    QPufGenParams,
    QPufInstance,
    channel_apply,
    check_collision,
    qeval,
    qgen,
    uniqueness_distance,
)
from .emulator import (
    INPUT_LABEL,
    ClosedFormTerm,
    QeConfig,
    QeRunResult,
    closed_form_state,
    run_full,
    run_stage1,
    stage1_closed_form,
)
from .testers import (
    TestConfig,
    TestOutcome,
    expected_acceptance,
    run_test,
)
from .games import (
    AdversaryInterface,
    GameConfig,
    SealedOracle,
    Transcript,
    WinRateEstimate,
    estimate_win_rate,
    mu_check,
    run_game,
)
from .adversaries import (
    ForgerPlan,
    ForgeryReport,
    PrivilegedReadout,
    QeForger,
    RandomGuesser,
    SubspaceAdversary,
    SubspaceKnowledge,
    TomographyAdversary,
    forgery_fidelity_bound,
    make_forger_plan,
    run_forgery,
)
from .verify import (
    CheckReport,
    closed_form_check,
    distance_contraction_check,
    fidelity_disturbance_check,
    haar_subspace_weight_check,
    joint_concavity_check,
    negative_control_check,
    orthogonal_challenge_check,
    pure_state_distance_bound,
    recovery_floor_check,
    run_all_checks,
    swap_statistics_check,
)

__all__ = [
    "__version__",
    # errors
    "QpufLabError",
    "DimensionMismatch",
    "DimensionCapExceeded",
    "InvalidQuantumObject",
    "PreconditionViolation",
    "PostSelectionFailure",
    "MuViolation",
    "BudgetExceeded",
    "BudgetRefusal",
    "PrivilegeRequired",
    # numerics
    "CONSTRUCTION_TOL",
    "DERIVED_TOL",
    "StateVector",
    "DensityMatrix",
    "UnitaryMatrix",
    "apply",
    "fidelity_pure",
    "fidelity_mixed",
    "sqrt_fidelity_mixed",
    "trace_distance",
    "haar_state",
    "haar_unitary",
    "max_dim",
    # device model
    "QPufGenParams",
    "QPufInstance",
    "EpsilonDisturbedChannel",
    "qgen",
    "qeval",
    "channel_apply",
    "check_collision",
    "uniqueness_distance",
    # emulation circuit
    "INPUT_LABEL",
    "QeConfig",
    "QeRunResult",
    "ClosedFormTerm",
    "run_stage1",
    "stage1_closed_form",
    "closed_form_state",
    "run_full",
    # equality tests
    "TestConfig",
    "TestOutcome",
    "expected_acceptance",
    "run_test",
    # games
    "AdversaryInterface",
    "SealedOracle",
    "GameConfig",
    "Transcript",
    "WinRateEstimate",
    "mu_check",
    "run_game",
    "estimate_win_rate",
    # adversaries
    "ForgerPlan",
    "ForgeryReport",
    "QeForger",
    "RandomGuesser",
    "SubspaceKnowledge",
    "SubspaceAdversary",
    "PrivilegedReadout",
    "TomographyAdversary",
    "make_forger_plan",
    "forgery_fidelity_bound",
    "run_forgery",
    # audits
    "CheckReport",
    "pure_state_distance_bound",
    "haar_subspace_weight_check",
    "recovery_floor_check",
    "closed_form_check",
    "orthogonal_challenge_check",
    "distance_contraction_check",
    "fidelity_disturbance_check",
    "joint_concavity_check",
    "swap_statistics_check",
    "negative_control_check",
    "run_all_checks",
]
