"""Decomposable optimal entanglement witnesses for two-particle momentum-spin states.

A small numpy library that builds the 16-dimensional two-particle state
family, derives optimal entanglement witnesses in closed form and by SVD,
applies Wigner-rotation kinematics, and quantifies entanglement under the
momentum-sector filtered boost family.  Every closed form is paired with a
brute-force linear-algebra oracle in the test suite.
"""

__version__ = "0.1.0"

import types as _types

from .linalg import dagger, partial_trace, partial_transpose
from .measures import (ConcurrenceReport, EntropyReport, doew_from_edge,
                       entropy_formula, entropy_pure, generalized_concurrence,
                       hs_distance, kappa, reduced_eigenvalue_pair,
                       relativistic_witness_value)
from .ppt import (FeasibleRegionReport, closed_form_momentum_pt, edge_state,
                  edge_weights, feasible_region_check, ppt_spectrum)
from .relativity import (WignerRotation, boost_mixture, boost_pure,
                         effective_angles, effective_boost_mixture,
                         effective_boost_pure, sector_weights,
                         single_particle_boost_unitary, wigner_half_angle,
                         wigner_matrix, wigner_rotation_oracle)
from .states import (BELL_TYPE_ANGLE, MixtureWeights, build_mixture,
                     family_matrix, mixtures, one_particle_bell, phi_state,
                     two_particle_bell)
from .witness import (TieError, WitnessCoefficients, b_coefficients,
                      coefficient_table, correlation_matrix, detect,
                      kkt_witness, operator_basis, random_product_states,
                      separability_floor_check, witness_min_value,
                      witness_operator)

#: every name imported above from the submodules
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
