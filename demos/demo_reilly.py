"""Verify the weighted integral identity on a disk and a hemisphere.

Both sides are computed by composite Gauss quadrature; the hemisphere
case carries a nontrivial weight and generic connection parameters, and
a refinement ladder confirms second-order convergence of the residual.
"""

from affconn import reilly_residual
from affconn.scenarios import get_scenario
from affconn.suite import convergence_rows


def show(region, params, label, phi):
    res = reilly_residual(region, params, phi)
    print(f"{label:28s} lhs = {res.lhs:+.8e}")
    print(f"{'':28s} rhs = {res.rhs:+.8e}   residual = {res.residual:.2e}")


def main():
    disk = get_scenario("disk-flat")
    print("Flat unit disk (classical identity)")
    for label, phi in disk.reilly_fields:
        show(disk.region(), disk.params, f"  phi = {label}", phi)

    hemi = get_scenario("s2-hemisphere-weighted")
    print("\nWeighted hemisphere, u = 0.2 z, (alpha, beta) = (0.5, 0.3)")
    label, phi = hemi.reilly_fields[0]
    show(hemi.region(), hemi.params, f"  phi = {label}", phi)

    print("\nrefinement ladder (midpoint quadrature):")
    for level, _, _, r, order in convergence_rows(hemi.name, "reilly",
                                                  (3, 4, 5)):
        tail = f"   observed order {order:.2f}" if order != "" else ""
        print(f"  grid {2 ** level:3d}: residual {r:.3e}{tail}")


if __name__ == "__main__":
    main()
