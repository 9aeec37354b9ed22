#!/usr/bin/env python3
"""Regenerate the frozen calibration goldens used by the acceptance suite.

Run from the repository root:

    python3 scripts/calibrate.py

Writes tests/golden_calibration.json.  All quantities are deterministic
functions of the seeds recorded in the file, so reruns reproduce it byte
for byte; the acceptance suite checks live values against these numbers
(means within +-10%, scores against frozen floors).
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from vck_lab import (Relation, PartiteSpace, inapproximability_score,
                     quasirandomness_curve, random_pattern)
from vck_lab.serialize import write_canonical

CURVE_SEED = 20260809
CURVE_D = [2, 4, 8]
CURVE_TRIALS = 20
SCORE_SEED = 42
SCORE_FIT_SEED = 0
SCORE_N = 4
SCORE_RESTARTS = 5


def main() -> int:
    rows = quasirandomness_curve(1, CURVE_D, CURVE_TRIALS, CURVE_SEED)

    H = random_pattern(8, 1, 0.5, SCORE_SEED)
    random_score = inapproximability_score(H, 1, SCORE_N,
                                           seed=SCORE_FIT_SEED,
                                           restarts=SCORE_RESTARTS)
    space = PartiteSpace.uniform([8, 8], ["P1", "P2"])
    col = np.zeros((8, 8))
    col[:4, :] = 1.0
    control = Relation(space, (0, 1), col, name="control")
    control_score = inapproximability_score(control, 1, SCORE_N,
                                            seed=SCORE_FIT_SEED,
                                            restarts=SCORE_RESTARTS)

    doc = {
        "curve": {
            "k": 1,
            "d_values": CURVE_D,
            "trials": CURVE_TRIALS,
            "seed": CURVE_SEED,
            "rows": rows,
        },
        "score": {
            "d": 8,
            "n_terms": SCORE_N,
            "pattern_seed": SCORE_SEED,
            "fit_seed": SCORE_FIT_SEED,
            "restarts": SCORE_RESTARTS,
            "random_score": random_score,
            "control_score": control_score,
        },
    }
    out = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden_calibration.json"
    write_canonical(out, doc)
    print(f"wrote {out}")
    for row in rows:
        print(f"  d={row['d']}: mean={row['mean_norm']:.6f} std={row['std_norm']:.6f}")
    print(f"  random_score={random_score:.6f} control_score={control_score:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
