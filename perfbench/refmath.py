"""The benchmark's own numpy: seeded input constructions and reference checks.

Nothing here imports the package under test, so a check never relies on the
helpers it is checking, and a rewrite of the package's samplers cannot change
a workload. Every construction states the verdict it must receive.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9
FEAS_TOL = 1e-7  # the library's default residual tolerance for decompositions


# -- reference linear algebra -------------------------------------------------


def ptrans(w: np.ndarray, da: int, db: int) -> np.ndarray:
    """Partial transpose of the second factor of a (da*db)-square matrix."""
    return w.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db)


def lam_min(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0])


def fro(m) -> float:
    return float(np.linalg.norm(m))


def choi_conj(a: np.ndarray) -> np.ndarray:
    """Choi operator of X -> A X A† (rows (i, k) = input i, output k)."""
    v = a.T.reshape(-1)
    return np.outer(v, v.conj())


def apply_choi(c: np.ndarray, din: int, dout: int, x: np.ndarray) -> np.ndarray:
    """phi(X) = sum_ij X_ij C[i, :, j, :]."""
    return np.einsum("ij,iajb->ab", x, c.reshape(din, dout, din, dout))


def choi_of(fn, din: int) -> np.ndarray:
    """Choi operator of a map given as a function on din x din matrices."""
    blocks = {}
    for i in range(din):
        for j in range(din):
            e = np.zeros((din, din), dtype=complex)
            e[i, j] = 1.0
            blocks[i, j] = fn(e)
    dout = blocks[0, 0].shape[0]
    c = np.zeros((din, dout, din, dout), dtype=complex)
    for (i, j), b in blocks.items():
        c[i, :, j, :] = b
    return c.reshape(din * dout, din * dout)


def weyl(n: int, a: int, b: int) -> np.ndarray:
    """X^a Z^b with X the cyclic shift and Z the phase gradient."""
    x = np.roll(np.eye(n), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    return np.linalg.matrix_power(x, a % n) @ np.linalg.matrix_power(z, b % n)


def numeric_rank(a: np.ndarray) -> int:
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > 1e-10 * max(1.0, float(s[0]))))


# -- random building blocks ---------------------------------------------------


def unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def psd(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    g = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal((d, rank or d))
    return g @ g.conj().T


def hermitian_trace_one(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2.0
    return h + (1.0 - np.trace(h).real) / d * np.eye(d)


def orthogonal_to(rng: np.random.Generator, v: np.ndarray) -> np.ndarray:
    u = unit(rng, v.shape[0])
    u = u - v * (v.conj() @ u)
    return u / np.linalg.norm(u)


def max_entangled(rng: np.random.Generator, da: int, db: int) -> np.ndarray:
    """Unit vector with flat Schmidt coefficients in random local bases."""
    m = min(da, db)
    c = np.zeros((da, db), dtype=complex)
    c[np.arange(m), np.arange(m)] = 1.0 / np.sqrt(m)
    return (unitary(rng, da) @ c @ unitary(rng, db).T).reshape(-1)


def normalized(w: np.ndarray) -> np.ndarray:
    return w / np.trace(w).real


# -- bipartite operators, one per is_popt branch ------------------------------
# `popt` says whether the operator is positive on product vectors. In 2x2 and
# 2x3 that is the same as decomposable (Stormer, Woronowicz), so it is also the
# reference for decomposable_sum_membership.

def cone_operator(rng: np.random.Generator, kind: str, da: int, db: int) -> tuple[np.ndarray, bool]:
    """(trace-one operator, positive on product vectors) for one construction."""
    d = da * db
    if kind == "psd":
        w = psd(rng, d)
    elif kind == "ppt":
        # partial transpose of an entangled state: PPT, never PSD
        phi = max_entangled(rng, da, db)
        w = ptrans(np.outer(phi, phi.conj()) + 0.05 * normalized(psd(rng, d)), da, db)
    elif kind == "decomposition":
        # P + Q^Gamma plus a margin of identity: neither PSD nor PPT, and
        # far enough inside the cone for the projections to converge
        phi = max_entangled(rng, da, db)
        chi = max_entangled(rng, da, db)
        q = ptrans(np.outer(chi, chi.conj()), da, db)
        w = np.outer(phi, phi.conj()) + q - 0.25 * lam_min(q) * np.eye(d)
    elif kind == "boundary":
        # P + Q^Gamma vanishing on one product vector: on the cone's boundary
        x, y = unit(rng, da), unit(rng, db)
        phi = orthogonal_to(rng, np.kron(x, y))
        chi = orthogonal_to(rng, np.kron(x, y.conj()))
        w = np.outer(phi, phi.conj()) + ptrans(np.outer(chi, chi.conj()), da, db)
    elif kind == "refuted":
        # <xy|W|xy> = -0.2 / Tr by construction; the rest close to the identity
        # so the see-saw converges in a similar number of steps on every draw
        v = np.kron(unit(rng, da), unit(rng, db))
        r = np.eye(d) / d + 0.3 * normalized(psd(rng, d))
        w = r - (float(np.real(v.conj() @ r @ v)) + 0.2) * np.outer(v, v.conj())
        w = w / abs(np.trace(w).real)
        return (w + w.conj().T) / 2.0, False
    else:
        raise ValueError(kind)
    w = normalized(w)
    return (w + w.conj().T) / 2.0, True


def local_rotation(rng: np.random.Generator, w: np.ndarray, da: int, db: int) -> np.ndarray:
    """(U x V) W (U x V)† with Haar U, V.

    Local unitaries map product vectors to product vectors and PSD^Gamma onto
    itself, so the rotated operator keeps its verdicts, and the alternating
    projections run the same iterations on it. The see-saw starts from
    Haar-random vectors, so its cost is drawn from the same distribution too.
    """
    u = np.kron(unitary(rng, da), unitary(rng, db))
    r = u @ w @ u.conj().T
    return (r + r.conj().T) / 2.0


def conjugation_matrix(rng: np.random.Generator, singular_values, norm: float) -> np.ndarray:
    """U diag(s) V† with Haar U, V, scaled to Frobenius norm `norm`."""
    n = len(singular_values)
    a = (unitary(rng, n) * np.asarray(singular_values, dtype=float)) @ unitary(rng, n).conj().T
    return a * (norm / fro(a))


# -- certificate checks ---------------------------------------------------------


def check_decomposition(w, p, q, da, db) -> list[str]:
    """P >= 0, Q^Gamma >= 0 and ||W - P - Q|| <= FEAS_TOL, recomputed."""
    bad = []
    floor = -TOL * max(1.0, fro(w))
    if lam_min(p) < floor:
        bad.append("P not PSD")
    if lam_min(ptrans(q, da, db)) < floor:
        bad.append("Q^Gamma not PSD")
    if fro(w - p - q) > FEAS_TOL * max(1.0, fro(w)):
        bad.append("W != P + Q")
    return bad


def check_certified(w, cert, da, db) -> list[str]:
    """A `certified` POPT verdict: its decomposition (P, Q) if it carries one,
    else the eigenvalue floor of the psd or the ppt branch."""
    if cert is not None:
        return check_decomposition(w, cert[0], cert[1], da, db)
    floor = -TOL * max(1.0, fro(w))
    if lam_min(w) < floor and lam_min(ptrans(w, da, db)) < floor:
        return ["psd/ppt branch fails its eigenvalue floor"]
    return []


def product_value(w, x, y) -> float:
    v = np.kron(np.asarray(x), np.asarray(y))
    return float(np.real(v.conj() @ w @ v)) / float(np.real(v.conj() @ v))
