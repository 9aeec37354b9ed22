"""Central configuration layer: caps, tolerances, and dyadic heights.

GRID_CAP, DYADIC_HEIGHT, ALS_ITERS, SCORE_RESTARTS and FUZZINESS_HEIGHT_CAP
are defaults that a call or CLI flag can override; the rest are fixed.  One tolerance lives elsewhere: the 1e-14 ALS stop of the weighted
fitter (``decomp.fit_weighted_restarts``).
"""

# Pointwise value checks (range membership at construction time).
POINTWISE_TOL = 1e-12

# A part's weights must sum to 1 within this.
WEIGHT_SUM_TOL = 1e-12

# Shattering search: maximum number of grid points in a box, i.e. up to
# 2**GRID_CAP subsets need witnesses.
GRID_CAP = 16

# Largest grid a cap may allow: grid subsets are int64 bitmasks.
GRID_CAP_MAX = 62

# Most coordinates a generated grid may have: numpy 1.x's axis limit, fixed
# so that what is refused does not depend on the installed numpy (2.x: 64).
MAX_AXES = 32

# Box norms: maximum total degree n (the corner product has 2**n factors).
DEGREE_CAP = 6

# Array entries one call may build, checked before anything is allocated:
# the largest array of a box norm or dual function (the doubled grid of all
# but the last coordinate, its corner product, or the dual's integrand); a
# generated instance's grid times the full-grid arrays its generator builds;
# a fiber family's relations times their grid cells.  Weighted-fit restarts
# that run in lockstep split into batches under it (rows x grid cells x
# (n_max + 1)); one restart alone is never refused.
ARRAY_CAP = 1 << 24

# A raw box-norm integral in (-BOX_NORM_CLAMP, 0) is clamped to zero and
# flagged; anything below -BOX_NORM_CLAMP raises NumericalFailureError.
BOX_NORM_CLAMP = 1e-9

# Default dyadic height for (r, s) threshold grids and fiber families.
DYADIC_HEIGHT = 2

# Fuzziness diagnostic: largest dyadic height tried before the scan is
# declared failed.  The threshold-pair grid is quadratic in 2**height, so
# this also bounds the scan cost; any within-cell value gap above 2**-8 is
# caught.
FUZZINESS_HEIGHT_CAP = 8

# Generator: membership gadget witness-part size cap (the part holds one
# vertex per subset of the box grid).
GADGET_SIZE_CAP = 1 << 16

# Alternating-minimization fitter defaults.
ALS_ITERS = 25
FIT_ZERO_TOL = 1e-12
MONOTONE_SLACK = 1e-9

# Bounded least squares (fit coefficients): active-set steps per variable.
BVLS_STEP_CAP = 50

# Adversary defaults.
SCORE_RESTARTS = 5
