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
    CheckReport,
    LemmaId,
    LemmaSummary,
    check_alt,
    check_alt_schatten,
    check_binomial_reduction,
    check_expectation_word_bound,
    check_holder,
    check_theorem_max,
    check_word_bound,
    run_lemma_sweep,
)
from .ensembles import (
    EnsembleFamily,
    FiniteEnsemble,
    exact_trace_moment,
    extremal_family,
    family_from_json,
    family_to_json,
    project_mean_shell,
    sample_constrained_ensemble,
    sample_with_retry,
)
from .errors import (
    BudgetExceeded,
    ConstraintViolated,
    DimensionError,
    InvalidExponent,
    NotPSD,
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
    psd_power,
    psd_trace_power,
    random_psd,
    random_rotation,
    random_spectral,
    schatten_norm,
    singular_values,
    trace_product,
)
from .rng import stream, subseed
from .search import (
    SearchConfig,
    SearchResult,
    SweepOutcome,
    SweepRow,
    gap_sweep,
    maximize,
)
from .words import (
    WORD_BUDGET,
    AlternatingWord,
    BinaryWord,
    PurePower,
    enumerate_binary_words,
    eval_word_trace,
    expand_trace_power,
    to_alternating,
)
