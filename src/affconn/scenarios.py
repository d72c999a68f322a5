"""Built-in verification scenarios.

A scenario bundles an ambient chart with its weight, the connection
parameters (alpha, beta), and optional geometric attachments: a D-minimal
hypersurface for the eigenvalue bound, a spectral mesh spec, a coordinate
region for the integral identity, and the meshes of the harmonic-extension
and proof-inequality checks.  Factories are stored unevaluated so listing
scenarios stays cheap; hypersurface and region factories take the
scenario's manifold.
"""

import numpy as np

from dataclasses import dataclass, field

from . import dual
from .charts import (WeightParams, euclidean_chart, height_squared_weight,
                     height_weight, polar_disk_chart, sphere3_chart,
                     sphere_chart, zero_weight)
from .errors import UnsupportedKind
from .meshes import build_mesh, disk_mesh, hemisphere_mesh
from .operators import DomainRegion, Hypersurface

HALF_PI = 0.5 * np.pi


@dataclass(frozen=True)
class Scenario:
    """One named verification setup; attachments are lazy factories."""

    name: str
    description: str
    params: WeightParams
    manifold_factory: object
    hypersurface_factory: object = None  # manifold -> Hypersurface
    mesh_spec: tuple = None              # (kind, level) for build_mesh
    region_factory: object = None        # manifold -> DomainRegion
    reilly_fields: tuple = ()     # (label, phi_field) pairs for the identity
    expected: dict = field(default_factory=dict)
    extension_mesh: object = None  # () -> flat disk mesh, harmonic extension
    proof_mesh: object = None      # () -> weighted hemisphere mesh, proof chain

    def __post_init__(self):
        # The checks apply by the field they read, so each field must come
        # with the data those checks also read.
        if self.mesh_spec is not None and (
                self.hypersurface_factory is None
                or not {"lambda1", "lambda1_rtol"} <= self.expected.keys()):
            raise ValueError(f"scenario {self.name!r}: a mesh needs a "
                             f"hypersurface, lambda1 and lambda1_rtol")
        if (self.region_factory is None) != (not self.reilly_fields):
            raise ValueError(f"scenario {self.name!r}: a region needs Reilly "
                             f"fields, and Reilly fields need a region")

    @property
    def weighted(self):
        """True unless the chart carries the trivial weight."""
        return self.manifold().weight is not zero_weight

    def manifold(self):
        return self.manifold_factory()

    def hypersurface(self):
        if self.hypersurface_factory is None:
            return None
        return self.hypersurface_factory(self.manifold())

    def mesh(self, level=None):
        """Spectral mesh at the scenario's level, or at ``level``; the
        hypersurfaces lie where the ambient weight vanishes, so u = 0."""
        if self.mesh_spec is None:
            return None
        kind, default = self.mesh_spec
        return build_mesh(kind, default if level is None else level)

    def region(self):
        if self.region_factory is None:
            return None
        return self.region_factory(self.manifold())


# Field helpers evaluable on lifted coordinates.


def _phi_height(x):
    return dual.cos(x[0])


def _phi_x1(x):
    return x[0] * dual.cos(x[1])


def _phi_r2(x):
    return x[0] * x[0]


def _equator_circle(man):
    return Hypersurface(ambient=man, lower=(0.0,), upper=(2.0 * np.pi,),
                        periodic=(True,),
                        embedding=lambda s: [HALF_PI + 0.0 * s[0], s[0]],
                        orientation=1.0)


def _equator_sphere(man):
    return Hypersurface(ambient=man, lower=(0.0, 0.0),
                        upper=(np.pi, 2.0 * np.pi), periodic=(False, True),
                        embedding=lambda s: [HALF_PI + 0.0 * s[0], s[0], s[1]],
                        orientation=1.0)


def _hemisphere_region(man):
    return DomainRegion(ambient=man, lower=(0.0, 0.0),
                        upper=(HALF_PI, 2.0 * np.pi),
                        boundary=_equator_circle(man))


def _disk_region(man):
    boundary = Hypersurface(ambient=man, lower=(0.0,), upper=(2.0 * np.pi,),
                            periodic=(True,),
                            embedding=lambda s: [1.0 + 0.0 * s[0], s[0]],
                            orientation=1.0)
    return DomainRegion(ambient=man, lower=(0.0, 0.0),
                        upper=(1.0, 2.0 * np.pi), boundary=boundary)


_REGISTRY = {}


def _add(scenario):
    _REGISTRY[scenario.name] = scenario


_add(Scenario(
    name="euclidean-flat",
    description="Flat plane, trivial weight; every affine structure reduces "
                "to the Euclidean one.",
    params=WeightParams(0.0, 0.0),
    manifold_factory=euclidean_chart,
    expected={"k_best": 0.0},
))

_add(Scenario(
    name="s2-classical",
    description="Round 2-sphere without weight; equator circle with the "
                "classical bound K = 1, lambda1 = 1.",
    params=WeightParams(0.0, 0.0),
    manifold_factory=sphere_chart,
    hypersurface_factory=_equator_circle,
    mesh_spec=("circle", 6),
    region_factory=_hemisphere_region,
    reilly_fields=(("height", _phi_height),),
    expected={"k_best": 1.0, "lambda1": 1.0, "lambda1_rtol": 1e-4},
    proof_mesh=lambda: hemisphere_mesh(5),
))

_add(Scenario(
    name="s3-classical",
    description="Round 3-sphere without weight; equatorial 2-sphere with "
                "K = 2 and lambda1 near 2.",
    params=WeightParams(0.0, 0.0),
    manifold_factory=sphere3_chart,
    hypersurface_factory=_equator_sphere,
    mesh_spec=("icosphere", 5),
    expected={"k_best": 2.0, "lambda1": 2.0, "lambda1_rtol": 5e-3},
))

_add(Scenario(
    name="s2-weighted-quadratic",
    description="2-sphere with u = 0.1 z^2 at (alpha, beta) = (1, 0); the "
                "equator stays minimal for the affine mean curvature.",
    params=WeightParams(1.0, 0.0),
    manifold_factory=lambda: sphere_chart(weight=height_squared_weight(0.1)),
    hypersurface_factory=_equator_circle,
    mesh_spec=("circle", 6),
    expected={"lambda1": 1.0, "lambda1_rtol": 1e-4},
    proof_mesh=lambda: hemisphere_mesh(5).with_weight(
        lambda v: 0.1 * v[2] ** 2),
))

_add(Scenario(
    name="s2-substatic",
    description="2-sphere with u = 0.3 z at (alpha, beta) = (0, 1); the "
                "affine Ricci tensor equals the static Ricci tensor.",
    params=WeightParams(0.0, 1.0),
    manifold_factory=lambda: sphere_chart(weight=height_weight(0.3)),
    hypersurface_factory=_equator_circle,
    mesh_spec=("circle", 6),
    expected={"lambda1": 1.0, "lambda1_rtol": 1e-4},
))

_add(Scenario(
    name="s2-wylie-yeroshkin",
    description="2-sphere with u = 0.3 z at (alpha, beta) = (1, 0); the "
                "affine Ricci tensor matches the 1-weighted Ricci curvature "
                "with f = -u.",
    params=WeightParams(1.0, 0.0),
    manifold_factory=lambda: sphere_chart(weight=height_weight(0.3)),
))

_add(Scenario(
    name="s2-generic",
    description="2-sphere with u = 0.3 z at generic (alpha, beta) = "
                "(0.4, -0.2); exercises the full two-parameter family.",
    params=WeightParams(0.4, -0.2),
    manifold_factory=lambda: sphere_chart(weight=height_weight(0.3)),
))

_add(Scenario(
    name="s2-hemisphere-weighted",
    description="Upper hemisphere of the weighted 2-sphere, u = 0.2 z at "
                "(alpha, beta) = (0.5, 0.3); integral identity testbed.",
    params=WeightParams(0.5, 0.3),
    manifold_factory=lambda: sphere_chart(weight=height_weight(0.2)),
    region_factory=_hemisphere_region,
    reilly_fields=(("height", _phi_height),),
))

_add(Scenario(
    name="disk-flat",
    description="Flat unit disk in polar coordinates, trivial weight; the "
                "integral identity reduces to the classical Reilly formula.",
    params=WeightParams(0.0, 0.0),
    manifold_factory=polar_disk_chart,
    region_factory=_disk_region,
    reilly_fields=(("coordinate", _phi_x1), ("radial-square", _phi_r2)),
    expected={"k_best": 0.0},
    extension_mesh=lambda: disk_mesh(5),
))


def scenario_names():
    return sorted(_REGISTRY)


def get_scenario(name):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnsupportedKind(f"unknown scenario {name!r}") from None
