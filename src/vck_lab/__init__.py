"""vck-lab: higher-arity shattering dimension, partite box norms, and
low-arity cylinder decompositions on finite measured multipartite spaces.

The public names below are resolved on first use (PEP 562), so importing the
package, or one of its modules, loads only the modules that are asked for.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "space": ("MeasuredFunction", "Part", "PartiteSpace", "Relation", "all_traversals",
              "average_out", "fiber", "inner", "integrate", "l2_distance", "level_set"),
    "check": ("ShatteringCertificate",),
    "vck": ("Box", "VcResult", "check_shattered", "sauer_shelah_bound", "trace_count",
            "vc_k", "vc_k_slicewise", "verify_certificate"),
    "gowers": ("BoxNormReport", "box_norm", "cylinder_correlation", "dual_function"),
    "fibalg": ("AtomPartition", "FiberApproxReport", "FiberFamily", "FiberFamilySpec",
               "approx_by_fibers", "atoms", "dyadics", "fiber_family", "project_simple",
               "round_to_cells"),
    "decomp": ("BooleanCylinderExpr", "CylinderDecomposition", "CylinderTerm",
               "FitReport", "PoolLeaf", "fiber_pool", "fit_boolean_cylinders",
               "fit_weighted_cylinders", "fit_weighted_restarts", "index_sets", "l2_error",
               "sym_diff"),
    "adversary": ("AdversarialInstance", "build_instance", "inapproximability_score",
                  "inapproximability_scores", "pattern_norm", "quasirandomness_curve",
                  "random_pattern"),
    "gen": ("GeneratedBoolean", "ParityTriple", "boolean_of_lower_arity",
            "membership_gadget", "parity_triple", "quasirandom"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value
