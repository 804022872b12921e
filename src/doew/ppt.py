"""Partial-transpose spectra and the feasible region of odd-parity mixtures.

Positivity of the partial transpose over the first particle's *momentum
label* pins the four pairwise weight equalities; positivity over a spin label
(equivalently over a full particle) adds the bounds q_i <= 1/4.  Together
these constraints cut out the feasible region, whose boundary state
``edge_state`` saturates q1 = q7 = 1/4 and carries a zero partial-transpose
eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import basis_spectrum, pair_rotation, partial_transpose, require_hermitian
from .relativity import sector_weights
from .states import MixtureWeights, build_mixture

FR_TOL = 1e-10

#: weight pairs forced equal by momentum-label PPT
EQUALITY_PAIRS = ((1, 7), (3, 5), (9, 13), (11, 15))

#: independent representatives whose weights sum to 1/2
HALF_SUM_INDICES = (1, 3, 11, 9)

_PAIR_FIRST, _PAIR_SECOND = np.array(EQUALITY_PAIRS).T - 1   # 0-based members
# a filtered odd mixture's transpose, for either split: (e_i +/- e_j)/sqrt(2) on four pairs,
# (1, s1, s2, s1 s2)/2 on (2, 7, 8, 13) and (3, 6, 9, 12) as two rounds of pairs
_PT_BASIS = (pair_rotation(((0, 5), (1, 4), (10, 15), (11, 14), (2, 7), (8, 13), (3, 6), (9, 12)))
             @ pair_rotation(((2, 8), (7, 13), (3, 9), (6, 12))))


def ppt_spectrum(rho: np.ndarray, *, dims: tuple[int, int] = (4, 4)) -> np.ndarray:
    """Ascending eigenvalues of the transpose over the first factor of the dims split, per
    matrix of a stack (..., 16, 16), as diag(U^t pt U) where its Weyl bound certifies that, else
    by ``eigvalsh``; rho^T_B = (rho^T_A)^T has the same spectrum, so (4, 4) serves both."""
    if np.shape(rho)[-2:] != (16, 16):
        raise ValueError(f"expected a 16x16 operator, got shape {np.shape(rho)}")
    pt = partial_transpose(require_hermitian(rho), dims)
    return np.sort(basis_spectrum(np.linalg.eigvalsh, pt, _PT_BASIS), axis=-1)


def closed_form_momentum_pt(weights: MixtureWeights, theta1: float = 0.0,
                            theta2: float = 0.0) -> np.ndarray:
    """Closed-form momentum-label transpose spectrum of a filtered odd mixture.

    With c_i = cos^2(theta_i / 2) and S = c1^2 + c2^2, the sixteen eigenvalues
    are pair sums (q_a + q_b) scaled by c_i^2 / S and pair differences
    +/-(q_a - q_b) scaled by c1 c2 / S; nonnegativity of the difference pairs
    is exactly the four weight equalities.  The values match
    ``ppt_spectrum(rho, dims=(2, 8))`` of the unit-trace state.  A stack of weights
    gives one spectrum per weight vector, with scalar angles or one per vector.
    """
    if weights.parity != "odd":
        raise ValueError("closed-form spectrum applies to odd-parity weights")
    k1, k2, s = sector_weights(np.asarray(theta1)[..., None], np.asarray(theta2)[..., None])
    c1, c2 = k1 ** 2, k2 ** 2
    first, second = weights.q[..., _PAIR_FIRST], weights.q[..., _PAIR_SECOND]
    sums, diffs = first + second, first - second
    return np.sort(np.concatenate([sums * c1 ** 2 / s, sums * c2 ** 2 / s,
                                   diffs * c1 * c2 / s, -diffs * c1 * c2 / s], axis=-1))


@dataclass(frozen=True)
class FeasibleRegionReport:
    """Constraint residuals for an odd-parity weight vector.

    ``equalities`` holds (constraint id, residual) pairs that must vanish;
    ``inequalities`` holds (constraint id, margin) pairs that must be
    nonnegative.  ``is_ppt`` is True when every residual is within FR_TOL and
    every margin is above -FR_TOL.
    """

    equalities: list[tuple[str, float]]
    inequalities: list[tuple[str, float]]
    is_ppt: bool


def feasible_region_check(weights: MixtureWeights) -> FeasibleRegionReport:
    """Evaluate the weight equalities, the half-sum identity, and the 1/4 bounds."""
    if weights.parity != "odd":
        raise ValueError("feasible-region constraints apply to odd-parity weights")
    q = weights.weight
    equalities = [(f"q{a}=q{b}", q(a) - q(b)) for a, b in EQUALITY_PAIRS]
    half = sum(q(i) for i in HALF_SUM_INDICES) - 0.5
    equalities.append(("q1+q3+q11+q9=1/2", half))
    inequalities = [(f"q{i}<=1/4", 0.25 - q(i)) for i in range(1, 17)]
    ok = (all(abs(r) <= FR_TOL for _, r in equalities)
          and all(m >= -FR_TOL for _, m in inequalities))
    return FeasibleRegionReport(equalities=equalities, inequalities=inequalities,
                                is_ppt=ok)


def feasible_family(q) -> MixtureWeights:
    """Odd weights with q on q1 and q7 and 1 - 2q shared evenly by the other six
    odd indices (feasible for q in [0, 1/4]); an array q gives a stack, one
    weight vector per entry."""
    q = np.asarray(q, dtype=float)
    w = np.zeros(q.shape + (16,))
    w[..., 0::2] = ((1.0 - 2.0 * q) / 6.0)[..., None]
    w[..., np.array(EQUALITY_PAIRS[0]) - 1] = q[..., None]
    return MixtureWeights(w, "odd")


def edge_weights() -> MixtureWeights:
    """Weights of the PPT boundary mixture saturating q1 = q7 = 1/4,
    ``feasible_family`` at q = 1/4 (the other six odd weights 1/12 each); any
    other feasible split of the residual weight touches the same boundary."""
    return feasible_family(0.25)


def edge_state() -> np.ndarray:
    """Density matrix of the PPT-boundary mixture (see ``edge_weights``)."""
    return build_mixture(edge_weights())
