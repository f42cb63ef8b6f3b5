"""Numerical testbed for the extremal trace-moment inequality.

Computes the exact maximum of E tr(X_1 + ... + X_N)^p over independent
PSD random matrices with operator-norm caps and prescribed mean norms,
and stress-tests the inequality chain behind it with exact checkers,
randomized sweeps, and adversarial search.
"""

__version__ = "0.1.0"

from .checks import (
    ALT_EXPONENTS,
    CHECK_TOL,
    LemmaId,
    LemmaSummary,
    run_lemma_sweep,
)
from .ensembles import (
    EnsembleFamily,
    FiniteEnsemble,
    exact_trace_moment,
    extremal_family,
    family_from_json,
    family_to_json,
)
from .errors import (
    BudgetExceeded,
    ConstraintViolated,
    DimensionError,
    InvalidExponent,
    SamplerFailed,
    TracemaxError,
)
from .extremal import (
    MOMENT_BUDGET,
    BernoulliParams,
    CorollaryRow,
    bernoulli_sum_moment,
    bernoulli_sum_moment_enum,
    corollary_growth,
    partial_sum_moments,
    theorem_max_value,
)
from .linalg import (
    PSD_TOL,
    EigenDecomposition,
    SymMatrix,
    batched_trace_power,
)
from .rng import stream, subseed
from .search import (
    SearchConfig,
    SweepOutcome,
    SweepRow,
    gap_sweep,
)
from .words import AlternatingWord
