"""vck-lab: higher-arity shattering dimension, partite box norms, and
low-arity cylinder decompositions on finite measured multipartite spaces."""

__version__ = "0.1.0"

from .space import (MeasuredFunction, Part, PartiteSpace, Relation, all_traversals,
                    average_out, complement, continuous_combine, fiber, inner,
                    integrate, l2_distance, level_set, monus, permute,
                    saturating_repeat, scale_half, trunc_add)
from .vck import (Box, ShatteringCertificate, VcResult, check_shattered,
                  sauer_shelah_bound, trace_count, vc_k, vc_k_slicewise,
                  vc_profile, verify_certificate, zarankiewicz)
from .gowers import BoxNormReport, box_norm, cylinder_correlation, dual_function
from .fibalg import (AtomPartition, FiberFamilySpec, FuzzinessWitness, atoms,
                     dyadics, fiber_family, fuzziness, project_simple,
                     round_to_cells, smooth_indicator, threshold_witness)
from .decomp import (BooleanCylinderExpr, CylinderDecomposition, CylinderTerm,
                     FiberApproxReport, FitReport, PoolLeaf, approx_by_fibers,
                     fit_boolean_cylinders, fit_weighted_cylinders, index_sets,
                     l2_error, sample_fiber_pool, sym_diff)
from .adversary import (AdversarialInstance, build_instance,
                        inapproximability_score, inapproximability_scores,
                        pattern_norm, quasirandomness_curve, random_pattern)
from .gen import (GeneratedBoolean, ParityTriple, boolean_of_lower_arity,
                  membership_gadget, parity_triple, quasirandom)
