"""First eigenvalues of the induced weighted Laplacian and the bound check.

Assembles the finite element eigenproblem on the equator circle and on an
icosphere, certifies the eigenvalue lower bound for three scenarios, and
evaluates the boundary-term inequality behind the bound's proof on the
hemisphere.
"""

import numpy as np

from affconn import (assemble, choi_wang_certificate, curvature_bound_scan,
                     smallest_nonzero_eigenvalue)
from affconn.scenarios import get_scenario
from affconn.spectral import proof_chain_inequality


def main():
    print("scenario                  lambda_1     K_best    margin")
    for name in ("s2-classical", "s3-classical", "s2-weighted-quadratic"):
        scn = get_scenario(name)
        cert = choi_wang_certificate(scn.manifold(), scn.params,
                                     scn.hypersurface(), scn.mesh())
        print(f"{name:24s}  {cert.lambda1:9.6f}  {cert.k_best:8.6f}  "
              f"{cert.margin:+.6f}  {'ok' if cert.passed else 'VIOLATED'}")

    print("\nboundary-term inequality on the hemisphere (must be <= 0):")
    for name in ("s2-classical", "s2-weighted-quadratic"):
        scn = get_scenario(name)
        mesh = scn.proof_mesh()
        loop = mesh.boundary_loop
        angle = np.arctan2(mesh.vertices[loop, 1], mesh.vertices[loop, 0])
        k = curvature_bound_scan(scn.manifold(), scn.params).k_best
        res = proof_chain_inequality(mesh, scn.params, np.sin(angle), k)
        print(f"  {name:24s} quantity = {res['quantity']:+.6f}  "
              f"(energy {res['energy']:.4f}, pairing {res['pairing']:.4f})")

    print("\neigenvalue convergence on the circle (exact value 1):")
    from affconn.meshes import build_mesh
    from affconn.charts import WeightParams
    for level in (3, 4, 5, 6):
        lam = smallest_nonzero_eigenvalue(
            assemble(build_mesh("circle", level), WeightParams(0.0, 0.0)))
        print(f"  level {level}: lambda_1 = {lam:.8f}  error {abs(lam - 1):.2e}")


if __name__ == "__main__":
    main()
