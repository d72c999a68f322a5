"""Numerical verification engine for weighted affine-connection geometry."""

from .charts import (ChartedManifold, WeightParams, euclidean_chart,
                     halton_points, polar_disk_chart, sphere3_chart,
                     sphere_chart)
from .connections import (LEVI_CIVITA, amari_chentsov,
                          amari_chentsov_closed_form, connection_coeffs,
                          duality_residual, equiaffine_residual)
from .curvature import (CurvatureReport, curvature_bound_scan, ricci_tensor,
                        static_ricci, weighted_ricci)
from .dual import Dual

__version__ = "0.1.0"

from .meshes import SurfaceMesh, build_mesh, disk_mesh, hemisphere_mesh
from .operators import (DomainRegion, Hypersurface, affine_mean_curvature,
                        d_minimal_residual, reilly_residual)
from .scenarios import Scenario, get_scenario, scenario_names
from .spectral import (SpectralProblem, assemble, harmonic_extension_2d,
                       smallest_nonzero_eigenvalue)
from .suite import emit_convergence, report_json, run_suite

__all__ = [
    "ChartedManifold", "WeightParams", "CurvatureReport", "Dual",
    "euclidean_chart", "sphere_chart", "sphere3_chart", "polar_disk_chart",
    "halton_points",
    "LEVI_CIVITA", "connection_coeffs", "duality_residual",
    "amari_chentsov", "amari_chentsov_closed_form", "equiaffine_residual",
    "ricci_tensor", "static_ricci", "weighted_ricci",
    "curvature_bound_scan",
    "SurfaceMesh", "build_mesh", "disk_mesh", "hemisphere_mesh",
    "DomainRegion", "Hypersurface", "affine_mean_curvature",
    "d_minimal_residual", "reilly_residual",
    "Scenario", "get_scenario", "scenario_names",
    "SpectralProblem", "assemble", "harmonic_extension_2d",
    "smallest_nonzero_eigenvalue",
    "emit_convergence", "report_json", "run_suite",
    "__version__",
]
