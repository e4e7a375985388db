"""Seeded random ensembles for tests and the self-verifying acceptance suite.

Everything takes an explicit numpy Generator; nothing touches global RNG state.
A side's states are mixtures of its state polytope's vertices, so coupled
tables sum to 1 over every product test up to rounding.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .coupling import ProductState, is_influence_free
from .linalg import _hermitian_part
from .testspace import TestSpace, _vertices

_MIXTURE = 3  # product states per influence-free table
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
    """Influence-free table: a convex mixture of _MIXTURE product states.

    Each side's states come from _random_state; None if either side admits
    no strictly positive state.
    """
    va = _positive_vertices(alice)
    vb = None if va is None else _positive_vertices(bob)
    if vb is None:
        return None
    weights = rng.dirichlet(np.ones(_MIXTURE))
    table = np.zeros((len(alice.outcomes), len(bob.outcomes)))
    for w in weights:
        table += np.outer(w * _random_state(rng, va), _random_state(rng, vb))
    return dict(zip(product(alice.outcomes, bob.outcomes), table.ravel().tolist()))


def _positive_vertices(ts: TestSpace) -> np.ndarray | None:
    """The vertices of ts's state polytope, or None unless their supports
    cover every outcome, that is unless some state is positive everywhere."""
    vertices = _vertices(ts.incidence)
    return vertices if (vertices > 0).any(axis=0).all() else None


def _random_state(rng: np.random.Generator, vertices: np.ndarray) -> np.ndarray:
    """A state in outcome order: a Dirichlet mixture of the polytope's vertices,
    positive everywhere when their supports cover every outcome."""
    return rng.dirichlet(np.ones(len(vertices))) @ vertices


def signalling_table(
    rng: np.random.Generator, alice: TestSpace, bob: TestSpace
) -> dict[tuple[str, str], float] | None:
    """Random state on the Cartesian product that is (generically) signalling.

    With f1, f2 and f random states of Alice, g, g1 and g2 of Bob, and s
    and t uniform in [0, 1] per outcome, f1 ⊗ g·s + f2 ⊗ g·(1 − s) has an
    Alice marginal that moves with how Bob's test splits g, and its mirror
    f·t ⊗ g1 + f·(1 − t) ⊗ g2 a Bob marginal that moves with Alice's test.
    Every product test sums to Σ g = 1 (or Σ f = 1) on each. The table is
    the first, the second or their average, with chance 1/3 each. None if
    either side admits no strictly positive state, or the sample comes out
    too close to influence-free to be a decisive instance.
    """
    va = _positive_vertices(alice)
    vb = None if va is None else _positive_vertices(bob)
    if vb is None:
        return None
    g, s = _random_state(rng, vb), rng.random(len(bob.outcomes))
    f, t = _random_state(rng, va), rng.random(len(alice.outcomes))
    to_alice = np.outer(_random_state(rng, va), g * s) + np.outer(_random_state(rng, va), g * (1 - s))
    to_bob = np.outer(f * t, _random_state(rng, vb)) + np.outer(f * (1 - t), _random_state(rng, vb))
    share = rng.choice([0.0, 0.5, 1.0])  # to_bob's share: to_alice alone, half each, to_bob alone
    values = (1 - share) * to_alice + share * to_bob
    table = dict(zip(product(alice.outcomes, bob.outcomes), values.ravel().tolist()))
    if is_influence_free(ProductState(alice, bob, table)).max_deviation < _MIN_DEVIATION:
        return None
    return table
