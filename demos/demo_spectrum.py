"""First eigenvalues of the induced weighted Laplacian and the bound check.

Checks the eigenvalue lower bound lambda_1 >= K/2 on the equator circle and
on an icosphere for three scenarios, evaluates the boundary-term inequality
behind the bound's proof on the hemisphere, and refines the circle mesh.
"""

from affconn.scenarios import get_scenario
from affconn.suite import (check_choi_wang, check_proof_inequality,
                           convergence_rows)


def main():
    print("scenario                  lambda_1     K_best    margin")
    for name in ("s2-classical", "s3-classical", "s2-weighted-quadratic"):
        rec = check_choi_wang(get_scenario(name))
        v = rec["values"]
        print(f"{name:24s}  {v['lambda1']:9.6f}  {v['k_best']:8.6f}  "
              f"{v['margin']:+.6f}  {'ok' if rec['passed'] else 'VIOLATED'}")

    print("\nboundary-term inequality on the hemisphere (must be <= 0):")
    for name in ("s2-classical", "s2-weighted-quadratic"):
        v = check_proof_inequality(get_scenario(name))["values"]
        print(f"  {name:24s} quantity = {v['quantity']:+.6f}  "
              f"(energy {v['energy']:.4f}, pairing {v['pairing']:.4f})")

    print("\neigenvalue convergence on the circle (exact value 1):")
    for level, _, lam, err, _ in convergence_rows("s2-classical", "eigenvalue",
                                                  (3, 4, 5, 6)):
        print(f"  level {level}: lambda_1 = {lam:.8f}  error {err:.2e}")


if __name__ == "__main__":
    main()
