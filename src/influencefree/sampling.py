"""Seeded random ensembles for tests and the self-verifying acceptance suite.

Everything takes an explicit numpy Generator; nothing touches global RNG state.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .coupling import ProductState, is_influence_free
from .linalg import _hermitian_part
from .testspace import TestSpace, admits_positive_state

_MIXTURE = 3  # product states per influence-free table
_STATE_ROUNDS = 4000  # fitting rounds for one side's state
_SIGNALLING_ROUNDS = 1000  # fitting rounds for a signalling table
_MIN_DEVIATION = 1e-6  # least marginal deviation of a decisive signalling table
_MIN_SV = 0.3  # random_rank's nonzero singular values are at least this


def random_hermitian(rng: np.random.Generator, d: int, trace: float | None = None) -> np.ndarray:
    """GUE-style Hermitian matrix, optionally rescaled/shifted to a given trace."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = _hermitian_part(g)
    if trace is not None:
        h = h + (trace - np.trace(h).real) / d * np.eye(d)
    return h

def random_psd(rng: np.random.Generator, d: int, trace: float | None = None) -> np.ndarray:
    """Wishart-style PSD matrix G·G†, optionally normalized to a given trace."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    p = g @ g.conj().T
    if trace is not None:
        p = p * (trace / np.trace(p).real)
    return p


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_rank(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    """Random d x d matrix of exact rank `rank`, nonzero singular values >= _MIN_SV."""
    u = random_unitary(rng, d)
    v = random_unitary(rng, d)
    sv = np.zeros(d)
    sv[:rank] = _MIN_SV + rng.uniform(0.5, 1.5, size=rank)
    return (u * sv) @ v.conj().T


def random_test_space(
    rng: np.random.Generator,
    prefix: str,
    max_outcomes: int = 6,
    max_tests: int = 3,
    max_test_size: int = 3,
) -> TestSpace:
    """Random small test space: labeled outcomes covered by 1..max_tests tests."""
    n_tests = int(rng.integers(1, max_tests + 1))
    sizes = [int(rng.integers(1, max_test_size + 1)) for _ in range(n_tests)]
    # Draw tests over a provisional pool, then keep only outcomes actually used
    # so the covering invariant holds by construction.
    pool = [f"{prefix}{i}" for i in range(max_outcomes)]
    tests = []
    for s in sizes:
        s = min(s, len(pool))
        picks = rng.choice(len(pool), size=s, replace=False)
        tests.append(tuple(pool[i] for i in sorted(picks)))
    tests = list(dict.fromkeys(tests))
    used = sorted({x for t in tests for x in t}, key=lambda s: int(s[len(prefix):]))
    return TestSpace(used, tests)


def product_state_table(
    rng: np.random.Generator, alice: TestSpace, bob: TestSpace
) -> dict[tuple[str, str], float] | None:
    """Influence-free table: a convex mixture of product states.

    Component states come from per-test proportional fitting; None if either
    side's space defeats the fitting (e.g. admits no state at all). Each
    space is asked once whether it admits a strictly positive state.
    """
    fits = admits_positive_state(alice.incidence) and admits_positive_state(bob.incidence)
    weights = rng.dirichlet(np.ones(_MIXTURE))
    table = np.zeros((len(alice.outcomes), len(bob.outcomes)))
    for w in weights:
        fa = _random_state(rng, alice, fits)
        fb = _random_state(rng, bob, fits)
        if fa is None or fb is None:
            return None
        # table[x, y] accumulates (w * fa[x]) * fb[y] in mixture order
        table += np.outer(w * np.array(fa), fb)
    return dict(zip(product(alice.outcomes, bob.outcomes), table.ravel().tolist()))


def _test_indices(ts: TestSpace) -> list[list[int]]:
    """Each test as the list of its outcome indices, in outcome order."""
    return [np.flatnonzero(row).tolist() for row in ts.incidence]


def _fit(values: list[float], tests: list[list[int]], rounds: int) -> list[float] | None:
    """Gauss–Seidel proportional fitting in place: rescale each test to sum 1 in
    turn until a round starts with every sum within 1e-13 of 1; None if a test
    sum is not positive or `rounds` run out."""
    value = values.__getitem__
    for _ in range(rounds):
        worst = 0.0
        for t in tests:
            s = sum(map(value, t))
            if s <= 0:
                return None
            worst = max(worst, abs(s - 1.0))
            for i in t:
                values[i] /= s
        if worst < 1e-13:
            return values
    return None


def _random_state(rng: np.random.Generator, ts: TestSpace, fits: bool) -> list[float] | None:
    """Random state in outcome order via per-test proportional fitting; None if unsettled.

    The start values are drawn first, so when `fits` is False (a space
    admits no strictly positive state, and the fit could not settle) the fit
    is skipped and the rng is left where the fit would have left it.
    """
    start = [float(rng.uniform(0.05, 1.0)) for _ in ts.outcomes]
    if not fits:
        return None
    return _fit(start, _test_indices(ts), _STATE_ROUNDS)


def signalling_table(
    rng: np.random.Generator, alice: TestSpace, bob: TestSpace
) -> dict[tuple[str, str], float] | None:
    """Random table normalized per product test by iterative proportional fitting.

    Returns a state on the Cartesian product that is (generically) signalling;
    None if fitting fails in its rounds or the sample comes out too close to
    influence-free to be a decisive instance. The product tests admit a
    strictly positive state exactly when both sides do; when one does not,
    the fit is skipped after its start values are drawn.
    """
    pairs = list(product(alice.outcomes, bob.outcomes))
    start = rng.uniform(0.05, 1.0, size=len(pairs)).tolist()
    if not (admits_positive_state(alice.incidence) and admits_positive_state(bob.incidence)):
        return None
    nb = len(bob.outcomes)
    tests = product(_test_indices(alice), _test_indices(bob))
    cells = [[i * nb + j for i, j in product(ea, eb)] for ea, eb in tests]
    values = _fit(start, cells, _SIGNALLING_ROUNDS)
    if values is None:
        return None
    table = dict(zip(pairs, values))
    if is_influence_free(ProductState(alice, bob, table)).max_deviation < _MIN_DEVIATION:
        return None
    return table
