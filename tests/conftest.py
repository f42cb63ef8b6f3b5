"""Shared strategies and fixtures.

Random matrices are drawn through the package's own seeded streams rather
than hypothesis floats: spectra stay controlled, there are no NaN corner
cases to filter, and failures reproduce from the printed seed alone.
"""

import numpy as np
from hypothesis import settings, strategies as st

from oracles import stacked_matrix
from tracemax import SymMatrix, stream
from tracemax.linalg import _spectral_build, _spectral_draw

settings.register_profile("suite", max_examples=50, deadline=None, derandomize=True)
settings.load_profile("suite")

# One line per acceptance criterion, echoed after the run so the verdicts
# survive output capture.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def random_psd(n: int, rng: np.random.Generator, scale: float = 1.0) -> SymMatrix:
    """Random PSD matrix with spectrum uniform on [0, scale], drawn and built
    as the lemma sweep draws and builds its matrices, with its eigensystem."""
    stacks, ((_, row),) = _spectral_build([_spectral_draw(n, rng, 0.0, scale)])
    vecs, spectra, entries = stacks[n]
    return stacked_matrix(entries[row], vecs[row], spectra[row])


seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=5)


@st.composite
def psd_pairs(draw, max_dim=5, scale=2.0):
    """Two PSD matrices of a shared dimension plus the seed that made them."""
    seed = draw(seeds)
    n = draw(st.integers(min_value=1, max_value=max_dim))
    rng = stream(seed, 101)
    a = random_psd(n, rng, scale=float(rng.uniform(0.2, scale)))
    b = random_psd(n, rng, scale=float(rng.uniform(0.2, scale)))
    return a, b, seed


@st.composite
def psd_single(draw, max_dim=6, scale=2.0):
    seed = draw(seeds)
    n = draw(st.integers(min_value=1, max_value=max_dim))
    rng = stream(seed, 102)
    return random_psd(n, rng, scale=float(rng.uniform(0.2, scale)))


def sym_entries(n, seed, scale=1.0):
    """Plain symmetric (not necessarily PSD) test matrix."""
    rng = stream(seed, 103)
    m = rng.normal(0.0, scale, size=(n, n))
    return 0.5 * (m + m.T)


def assert_close(a, b, rel=1e-12, abs_tol=1e-12):
    assert abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol, f"{a!r} vs {b!r}"
