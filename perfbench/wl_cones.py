"""cone-verdicts: is_popt on every branch, membership, and the extremality probe.

The iterative loops in `cones` and the 4x4 / 6x6 / 9x9 `linalg` kernels do
almost all the work; `coupling` and `teleport` stay idle. Each cycle holds two
input sets of the same composition (the seed only changes the numbers), so
cycles cost alike across seeds. One input set is:

- is_popt, 2x2 and 2x3: 4 psd, 4 ppt, 24 refuted and 3 decomposition
  operators per shape, and one boundary operator (verdict `likely`) in 2x2;
  each operator is run again at a positive rescaling taken in turn from a
  fixed log grid over [0.1, 10]. Decided verdicts of the two copies must
  agree.
- decomposable_sum_membership at library defaults: a decomposable operator in
  each shape and one operator that is not decomposable.
- extremality_probe on X -> A X A† for n in {2, 3} and rank 1..n, with ||A||_F
  on a log-spaced grid over [0.3, 3.6]: four norms for rank 1, two for n = 2
  rank 2, six for n = 3 ranks 2 and 3. The probe's iteration count depends
  on A only through its singular values, so each (n, rank) has fixed
  singular-value ratios and the seed draws the singular vectors: every cycle
  then costs the same, including the one case (n = 2, rank 2, norm 1.24)
  that runs to the 20 000-iteration cap.
  Rank-1 maps below norm 1 expose the known scale defect (`rigid` on a
  co-CP map).

The boundary operator and the non-decomposable one run the projections to
their 20 000-iteration cap and take about 40 % of an input set's time. Each is
one fixed operator turned by seeded local unitaries (refmath.local_rotation),
which leaves the work of the projections unchanged and draws the see-saw's
work from one distribution: across random operators of the same kind the
see-saw alone took 0.06 to 0.64 s.
"""

from __future__ import annotations

import numpy as np

import refmath as R
from common import Digest, Op, Verdict

DEFECT = "extremality_probe reports rank-1 conjugations with ||A||_F < 1 as rigid"
DEFECT_CAUSES = frozenset({"extremality: rigid on a rank-1 map"})

SHAPES = ((2, 2), (2, 3))
# The cheap psd and ppt verdicts (with the rank-1 probes above norm 1) are as
# many as the operations slower than a refuted verdict, so the median falls in
# the middle of the refuted block, whose latencies spread smoothly over
# 10-25 ms. The 95th percentile falls inside the 28 n = 3 probes of rank 2 and
# 3 and below norm 1 (about 200 ms each, 1 000 iterations), under the eight
# operations that take seconds.
PER_SHAPE = {"psd": 4, "ppt": 4, "refuted": 24, "decomposition": 3}
SCALES = np.exp(np.linspace(np.log(0.1), np.log(10.0), 7))
# constructions of the two fixed operators, rotated per input set
BASE_SEED = 7
ORDER_SEED = 1
# Two input sets per cycle make a run measure about 30 s, which averages out
# more of a shared host's speed drift than one set of about 15 s does.
SETS_PER_CYCLE = 2
NORMS = np.exp(np.linspace(np.log(0.3), np.log(3.6), 8))  # 0.30, 0.43, ... 3.60
# (n, rank): (singular values, indices into NORMS)
CONJUGATIONS = {
    (2, 1): ((1.0, 0.0), (0, 2, 4, 6)),
    (2, 2): ((1.0, 0.6), (2, 4)),
    (3, 1): ((1.0, 0.0, 0.0), (1, 3, 4, 6)),
    (3, 2): ((1.0, 0.6, 0.0), (0, 2, 3, 4, 6, 7)),
    (3, 3): ((1.0, 0.8, 0.6), (0, 1, 2, 4, 5, 7)),
}


def _popt_ops(F, w, dims, popt: bool, kind: str, seed: int, shared: dict, key) -> Op:
    da, db = dims

    def run():
        v = F.is_popt(w, dims, seed=seed)
        cert = v.certificate
        return (
            v.status,
            v.witness,
            None if cert is None else (np.asarray(cert.p), np.asarray(cert.q)),
        )

    def check(res) -> Verdict:
        status, witness, cert = res
        out = Verdict(decided=status in ("certified", "refuted"))
        if status == "certified":
            if not popt:
                out.fail("is_popt: certified an operator with a negative product value")
            for why in R.check_certified(w, cert, da, db):
                out.fail(f"is_popt: certificate invalid ({why})")
        elif status == "refuted":
            x, y = witness
            if not R.product_value(w, x, y) < -R.TOL:
                out.fail("is_popt: refutation witness does not verify")
        elif status != "likely":
            out.fail(f"is_popt: unknown status {status!r}")
        if out.decided:
            earlier = shared.setdefault(key, status)
            if earlier != status:
                out.fail("is_popt: rescaled copies disagree")
        return out

    return Op(f"is_popt/{kind}/{da}x{db}", run, check)


def _membership_op(F, w, dims, decomposable: bool, kind: str) -> Op:
    da, db = dims

    def run():
        v = F.decomposable_sum_membership(w, dims)
        cert = v.certificate
        return v.status, None if cert is None else (np.asarray(cert.p), np.asarray(cert.q))

    def check(res) -> Verdict:
        status, cert = res
        out = Verdict(decided=status in ("member", "refuted"))
        if status == "member":
            if not decomposable:
                out.fail("membership: member verdict on a non-decomposable operator")
            if cert is None:
                out.fail("membership: member verdict without a certificate")
            else:
                for why in R.check_decomposition(w, cert[0], cert[1], da, db):
                    out.fail(f"membership: certificate invalid ({why})")
        elif status == "refuted":
            if decomposable:
                out.fail("membership: refuted a decomposable operator")
        elif status != "inconclusive":
            out.fail(f"membership: unknown status {status!r}")
        return out

    return Op(f"membership/{kind}/{da}x{db}", run, check)


def _extremality_op(F, a: np.ndarray) -> Op:
    n = a.shape[0]
    rank = R.numeric_rank(a)
    c = R.choi_conj(a)
    small = rank == 1 and R.fro(a) < 1.0

    def run():
        v = F.extremality_probe(a)
        cert = v.certificate
        return v.status, None if cert is None else np.asarray(cert)

    def check(res) -> Verdict:
        status, h = res
        out = Verdict(decided=status in ("rigid", "decomposable_nontrivially"))
        if status == "rigid":
            if rank < 2:
                out.fail("extremality: rigid on a rank-1 map")
        elif status == "decomposable_nontrivially":
            if rank >= 2:
                out.fail("extremality: split found for rank >= 2")
            if h is None:
                out.fail("extremality: split without a certificate")
            else:
                if R.lam_min(R.ptrans(h, n, n)) < -2e-7:
                    out.fail("extremality: certificate H^Gamma not PSD")
                if R.lam_min(c - h) < -2e-7:
                    out.fail("extremality: certificate exceeds the Choi operator")
                if R.fro(h) < 1e-3 or R.fro(c - h) < 1e-3:
                    out.fail("extremality: certificate is trivial")
        elif status != "inconclusive":
            out.fail(f"extremality: unknown status {status!r}")
        return out

    kind = f"extremality/n{n}r{rank}/{'norm<1' if R.fro(a) < 1 else 'norm>=1'}"
    if small:
        return Op(kind, run, check, DEFECT, DEFECT_CAUSES)
    return Op(kind, run, check)


def _fixed_operator(rng, kind: str, dims) -> np.ndarray:
    """The seed's local rotation of the one fixed operator of this kind."""
    base, _ = R.cone_operator(np.random.default_rng([0, BASE_SEED]), kind, *dims)
    return R.local_rotation(rng, base, *dims)


def _input_set(F, rng, digest: Digest, shared: dict, tag: int) -> list[Op]:
    ops: list[Op] = []
    for dims in SHAPES:
        kinds = [kind for kind, count in PER_SHAPE.items() for _ in range(count)]
        if dims == (2, 2):
            kinds.append("boundary")
        for i, kind in enumerate(kinds):
            if kind == "boundary":
                w, popt = _fixed_operator(rng, kind, dims), True
            else:
                w, popt = R.cone_operator(rng, kind, *dims)
            scale = float(SCALES[(i + 3 * tag) % len(SCALES)])
            popt_seed = int(rng.integers(1 << 31))
            digest.add(w, scale, popt_seed)
            key = (tag, dims, i)
            ops.append(_popt_ops(F, w, dims, popt, kind, popt_seed, shared, key))
            ops.append(_popt_ops(F, scale * w, dims, popt, kind, popt_seed, shared, key))
    for dims in SHAPES:
        w, _ = R.cone_operator(rng, "decomposition", *dims)
        digest.add(w)
        ops.append(_membership_op(F, w, dims, True, "decomposable"))
    w = _fixed_operator(rng, "refuted", (2, 2))
    digest.add(w)
    ops.append(_membership_op(F, w, (2, 2), False, "not-decomposable"))
    for profile, grid in CONJUGATIONS.values():
        for i in grid:
            a = R.conjugation_matrix(rng, profile, NORMS[i])
            digest.add(a)
            ops.append(_extremality_op(F, a))
    return ops


def build(F, seed: int, n_cycles: int, digest: Digest, sets: int = SETS_PER_CYCLE) -> list[list[Op]]:
    cycles = []
    for k in range(n_cycles):
        rng = np.random.default_rng([seed, k, 1])
        shared: dict = {}
        ops = [op for tag in range(sets) for op in _input_set(F, rng, digest, shared, tag)]
        # interleave the kinds so a cycle's cost is spread evenly over it, in
        # one fixed order for every seed
        order = np.random.default_rng(ORDER_SEED).permutation(len(ops))
        cycles.append([ops[i] for i in order])
    return cycles
