"""Curvature of the weighted connection and the two independent oracles.

Computes the affine Ricci tensor on a weighted sphere, compares it at the
two special parameter values against the static Ricci tensor and the
1-weighted Ricci curvature, and scans for the best constant K in the
lower curvature bound.
"""

import numpy as np

from affconn import (WeightParams, curvature_bound_scan, ricci_tensor,
                     static_ricci, weighted_ricci)
from affconn.charts import height_weight, sphere3_chart, sphere_chart


def main():
    man = sphere_chart(weight=height_weight(0.3))
    x = [1.0, 0.4]

    print("Weighted 2-sphere, u = 0.3 z\n")
    ric = ricci_tensor(man, x, WeightParams(0.4, -0.2)).entries
    print("affine Ricci at (0.4, -0.2):")
    print(np.array_str(ric, precision=6), "\n")

    gap_static = np.max(np.abs(
        ricci_tensor(man, x, WeightParams(0.0, 1.0)).entries
        - static_ricci(man, x).entries))
    print(f"(0, 1) vs static Ricci oracle:      {gap_static:.3e}")

    gap_wy = np.max(np.abs(
        ricci_tensor(man, x, WeightParams(1.0, 0.0)).entries
        - weighted_ricci(man, lambda z: -man.weight(z), 1.0, x).entries))
    print(f"(1, 0) vs 1-weighted Ricci oracle:  {gap_wy:.3e}\n")

    for chart, params, label in [
            (sphere_chart(), WeightParams(0.0, 0.0), "round 2-sphere"),
            (sphere3_chart(), WeightParams(0.0, 0.0), "round 3-sphere"),
            (man, WeightParams(0.4, -0.2), "weighted 2-sphere")]:
        rep = curvature_bound_scan(chart, params, 100)
        print(f"{label:18s} K_best = {rep.k_best:.6f}  "
              f"(asymmetry {rep.asymmetry:.1e}, attained at "
              f"{tuple(round(c, 3) for c in rep.min_point)})")


if __name__ == "__main__":
    main()
