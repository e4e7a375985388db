"""Influence-free states on coupled test spaces, and their operator side.

The package has three layers: combinatorial test spaces with their product
constructions and influence/Bayes checks, the Choi representation of linear
maps with positivity cones over it, and the four-party teleportation algebra
that turns an entangled projector into a transfer of operators between
remote factors.  A command-line front end exposes every check with JSON
input and output.

Every public name below is importable from the package, but each library
module loads the first time one of its names (or the module itself, as in
`influencefree.cones`) is used, so `import influencefree` loads neither numpy
nor any submodule.  `_EXPORTS` lists each module's public names once.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "linalg": (
        "DEFAULT_TOL", "CapExceededError", "as_matrix", "finite_matrix", "frobenius",
        "hermitian", "hermitian_eig", "kron", "min_eig", "partial_trace",
        "partial_transpose", "permute_systems", "psd_part",
    ),
    "testspace": ("TestSpace", "state_check", "weight_space_dimension"),
    "coupling": (
        "DirectionReport", "InfluenceVerdict", "ProductState", "TwoStageTest",
        "TwoStageTests", "backward_tests", "bayes_mixture_check", "bayes_residuals",
        "condition", "fns_tests", "forward_tests", "is_influence_free",
        "is_state_on_two_stage", "marginal", "operational_bayes_check",
    ),
    "choimaps": (
        "KrausSet", "LinearMapChoi", "apply_map", "choi_from_conjugation",
        "compose_maps", "hk_representation", "identity_map", "is_co_cp", "is_cp",
        "kraus_residual", "reconstruct_operator", "state_eval", "swap_operator",
        "trace_condition", "transpose_in_basis", "transpose_map", "unnormalized_q",
    ),
    "cones": (
        "FEAS_TOL", "ConeVerdict", "DecompositionCertificate", "SeesawResult",
        "decomposable_sum_membership", "extremality_probe", "is_popt", "is_ppt",
        "is_psd", "popt_minimize", "split_holds", "witness_holds",
    ),
    "teleport": (
        "DesideratumReport", "PivotReport", "antisymmetric_projector", "bell_projector",
        "corollary_check", "desideratum_violation_demo", "embed_with_entangled_pair",
        "pivot_alice", "pivot_bob", "pivot_general", "sandwich_lemma_check",
        "symmetric_projector", "twisted_bell_projector", "weyl_basis", "weyl_operator",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    """Import a library module, or one of its names, on first access."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
