"""Evolutionary-game dynamics substrate.

Dense-subgraph seeking is a standard quadratic optimisation problem (StQP)
over the simplex (paper Eq. 3).  This package provides three solvers:

* :mod:`~repro.dynamics.replicator` — replicator dynamics (RD), the solver
  behind the Dominant Sets baseline (Pavan & Pelillo);
* :mod:`~repro.dynamics.iid` — full-matrix Infection Immunization Dynamics
  (Rota Bulò et al.), linear time/space per iteration given the matrix;
* :mod:`~repro.dynamics.lid` — Localized IID (paper Alg. 1), which only
  touches the column block ``A[beta, alpha]`` through the affinity oracle.
"""

from repro.dynamics.iid import IIDResult, iid_dynamics, infectivity
from repro.dynamics.lid import LIDState, lid_dynamics
from repro.dynamics.replicator import ReplicatorResult, replicator_dynamics
from repro.dynamics.simplex import (
    barycenter,
    is_simplex_point,
    random_simplex_point,
    simplex_support,
    vertex,
)

__all__ = [
    "IIDResult",
    "iid_dynamics",
    "infectivity",
    "LIDState",
    "lid_dynamics",
    "ReplicatorResult",
    "replicator_dynamics",
    "barycenter",
    "is_simplex_point",
    "random_simplex_point",
    "simplex_support",
    "vertex",
]
