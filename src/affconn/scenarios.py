"""Built-in verification scenarios.

A scenario bundles an ambient chart with its weight, the connection
parameters (alpha, beta), and optional geometric attachments: a D-minimal
hypersurface for the eigenvalue bound, a surface mesh for the spectral
solver, and a coordinate region for the integral identity.  Factories are
stored unevaluated so listing scenarios stays cheap.
"""

import numpy as np

from dataclasses import dataclass, field

from . import dual
from .charts import (WeightParams, euclidean_chart, height_squared_weight,
                     height_weight, polar_disk_chart, sphere3_chart,
                     sphere_chart)
from .errors import UnsupportedKind
from .meshes import build_mesh
from .operators import DomainRegion, Hypersurface

HALF_PI = 0.5 * np.pi


@dataclass(frozen=True)
class Scenario:
    """One named verification setup; attachments are lazy factories."""

    name: str
    description: str
    params: WeightParams
    manifold_factory: object
    hypersurface_factory: object = None
    mesh_factory: object = None
    region_factory: object = None
    reilly_fields: tuple = ()     # (label, phi_field) pairs for the identity
    expected: dict = field(default_factory=dict)
    weighted: bool = False

    def manifold(self):
        return self.manifold_factory()

    def hypersurface(self):
        return None if self.hypersurface_factory is None else self.hypersurface_factory()

    def mesh(self):
        return None if self.mesh_factory is None else self.mesh_factory()

    def region(self):
        return None if self.region_factory is None else self.region_factory()


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
                        orientation=1.0, name="equator")


def _equator_sphere(man):
    return Hypersurface(ambient=man, lower=(0.0, 0.0),
                        upper=(np.pi, 2.0 * np.pi), periodic=(False, True),
                        embedding=lambda s: [HALF_PI + 0.0 * s[0], s[0], s[1]],
                        orientation=1.0, name="equator-2-sphere")


def _hemisphere_region(man, grid=24, order=8):
    return DomainRegion(ambient=man, lower=(0.0, 0.0),
                        upper=(HALF_PI, 2.0 * np.pi),
                        boundary=_equator_circle(man),
                        grid=grid, order=order, boundary_grid=grid,
                        name="upper-hemisphere")


def _disk_region(man, grid=24, order=8):
    boundary = Hypersurface(ambient=man, lower=(0.0,), upper=(2.0 * np.pi,),
                            periodic=(True,),
                            embedding=lambda s: [1.0 + 0.0 * s[0], s[0]],
                            orientation=1.0, name="unit-circle")
    return DomainRegion(ambient=man, lower=(0.0, 0.0),
                        upper=(1.0, 2.0 * np.pi), boundary=boundary,
                        grid=grid, order=order, boundary_grid=grid,
                        name="unit-disk")


def _mesh_circle(level, u_fn):
    def factory():
        return build_mesh("circle", level).with_weight(u_fn)
    return factory


def _mesh_icosphere(level, u_fn):
    def factory():
        return build_mesh("icosphere", level).with_weight(u_fn)
    return factory


def _u_zero(v):
    return 0.0


_REGISTRY = {}


def _add(scenario):
    _REGISTRY[scenario.name] = scenario


_add(Scenario(
    name="euclidean-flat",
    description="Flat plane, trivial weight; every affine structure reduces "
                "to the Euclidean one.",
    params=WeightParams(0.0, 0.0),
    manifold_factory=lambda: euclidean_chart(2),
    expected={"k_best": 0.0},
))

_add(Scenario(
    name="s2-classical",
    description="Round 2-sphere without weight; equator circle with the "
                "classical bound K = 1, lambda1 = 1.",
    params=WeightParams(0.0, 0.0),
    manifold_factory=lambda: sphere_chart(),
    hypersurface_factory=lambda: _equator_circle(sphere_chart()),
    mesh_factory=_mesh_circle(6, _u_zero),
    region_factory=lambda: _hemisphere_region(sphere_chart()),
    reilly_fields=(("height", _phi_height),),
    expected={"k_best": 1.0, "lambda1": 1.0, "lambda1_rtol": 1e-4},
))

_add(Scenario(
    name="s3-classical",
    description="Round 3-sphere without weight; equatorial 2-sphere with "
                "K = 2 and lambda1 near 2.",
    params=WeightParams(0.0, 0.0),
    manifold_factory=lambda: sphere3_chart(),
    hypersurface_factory=lambda: _equator_sphere(sphere3_chart()),
    mesh_factory=_mesh_icosphere(5, _u_zero),
    expected={"k_best": 2.0, "lambda1": 2.0, "lambda1_rtol": 5e-3},
))

_add(Scenario(
    name="s2-weighted-quadratic",
    description="2-sphere with u = 0.1 z^2 at (alpha, beta) = (1, 0); the "
                "equator stays minimal for the affine mean curvature.",
    params=WeightParams(1.0, 0.0),
    manifold_factory=lambda: sphere_chart(weight=height_squared_weight(0.1)),
    hypersurface_factory=lambda: _equator_circle(
        sphere_chart(weight=height_squared_weight(0.1))),
    # the ambient weight restricts to 0 on the equator (z = 0 there)
    mesh_factory=_mesh_circle(6, _u_zero),
    expected={"lambda1": 1.0, "lambda1_rtol": 1e-4},
    weighted=True,
))

_add(Scenario(
    name="s2-substatic",
    description="2-sphere with u = 0.3 z at (alpha, beta) = (0, 1); the "
                "affine Ricci tensor equals the static Ricci tensor.",
    params=WeightParams(0.0, 1.0),
    manifold_factory=lambda: sphere_chart(weight=height_weight(0.3)),
    hypersurface_factory=lambda: _equator_circle(
        sphere_chart(weight=height_weight(0.3))),
    mesh_factory=_mesh_circle(6, _u_zero),
    expected={"lambda1": 1.0, "lambda1_rtol": 1e-4},
    weighted=True,
))

_add(Scenario(
    name="s2-wylie-yeroshkin",
    description="2-sphere with u = 0.3 z at (alpha, beta) = (1, 0); the "
                "affine Ricci tensor matches the 1-weighted Ricci curvature "
                "with f = -u.",
    params=WeightParams(1.0, 0.0),
    manifold_factory=lambda: sphere_chart(weight=height_weight(0.3)),
    weighted=True,
))

_add(Scenario(
    name="s2-generic",
    description="2-sphere with u = 0.3 z at generic (alpha, beta) = "
                "(0.4, -0.2); exercises the full two-parameter family.",
    params=WeightParams(0.4, -0.2),
    manifold_factory=lambda: sphere_chart(weight=height_weight(0.3)),
    weighted=True,
))

_add(Scenario(
    name="s2-hemisphere-weighted",
    description="Upper hemisphere of the weighted 2-sphere, u = 0.2 z at "
                "(alpha, beta) = (0.5, 0.3); integral identity testbed.",
    params=WeightParams(0.5, 0.3),
    manifold_factory=lambda: sphere_chart(weight=height_weight(0.2)),
    region_factory=lambda: _hemisphere_region(
        sphere_chart(weight=height_weight(0.2))),
    reilly_fields=(("height", _phi_height),),
    weighted=True,
))

_add(Scenario(
    name="disk-flat",
    description="Flat unit disk in polar coordinates, trivial weight; the "
                "integral identity reduces to the classical Reilly formula.",
    params=WeightParams(0.0, 0.0),
    manifold_factory=lambda: polar_disk_chart(),
    region_factory=lambda: _disk_region(polar_disk_chart()),
    reilly_fields=(("coordinate", _phi_x1), ("radial-square", _phi_r2)),
    expected={"k_best": 0.0},
))


def scenario_names():
    return sorted(_REGISTRY)


def get_scenario(name):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnsupportedKind(f"unknown scenario {name!r}") from None


def weighted_scenarios():
    return [s for s in _REGISTRY.values() if s.weighted]
