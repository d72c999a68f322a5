"""Tour of the weighted affine connection family on a weighted 2-sphere.

Shows the coefficient shift relative to Levi-Civita, verifies the duality
pairing against the conformal metric, and confirms that the cubic tensor
matches its closed form and that the weighted volume form is parallel.
"""

import numpy as np

from affconn import (LEVI_CIVITA, WeightParams, amari_chentsov,
                     amari_chentsov_closed_form, connection_coeffs,
                     duality_residual, equiaffine_residual, halton_points)
from affconn.charts import height_weight, sphere_chart


def main():
    man = sphere_chart(weight=height_weight(0.3))
    params = WeightParams(0.4, 0.1)
    x = [1.1, 0.6]

    print("Weighted 2-sphere, u = 0.3 z, (alpha, beta) = (0.4, 0.1)")
    print(f"point (theta, phi) = {tuple(x)}\n")

    lc = connection_coeffs(man, LEVI_CIVITA, x).entries
    aff = connection_coeffs(man, params, x).entries
    dl = connection_coeffs(man, params.dual(), x).entries
    print("Gamma^0_00:  Levi-Civita %.6f   weighted %.6f   dual %.6f"
          % (lc[0][0][0], aff[0][0][0], dl[0][0][0]))
    print("Gamma^1_01:  Levi-Civita %.6f   weighted %.6f   dual %.6f\n"
          % (lc[1][0][1], aff[1][0][1], dl[1][0][1]))

    def xf(z):
        return [1.0, 0.3 * z[0]]

    def yf(z):
        return [0.5 * z[1], -0.2]

    def zf(z):
        return [z[0] * 0.1, 1.0]

    worst = max(duality_residual(man, params, list(p), xf, yf, zf)
                for p in halton_points(man, 30))
    print(f"duality defect over 30 sample points: {worst:.3e}")
    broken = duality_residual(man, params, x, xf, yf, zf, perturb=0.01)
    print(f"same defect with one dual coefficient perturbed: {broken:.3e}\n")

    c = amari_chentsov(man, params, x).entries
    cf = amari_chentsov_closed_form(man, params, x).entries
    print(f"cubic tensor vs closed form: {np.max(np.abs(c - cf)):.3e}")
    sym = max(np.max(np.abs(c - np.transpose(c, p)))
              for p in [(0, 2, 1), (1, 0, 2), (2, 1, 0)])
    print(f"total symmetry defect: {sym:.3e}\n")

    res = equiaffine_residual(man, params, x, xf)
    off = equiaffine_residual(man, params, x, xf, tau_shift=0.1)
    print(f"parallelism of the weighted volume form: {res:.3e}")
    print(f"with the exponent off by 0.1:            {off:.3e}")


if __name__ == "__main__":
    main()
