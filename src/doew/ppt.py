"""Partial-transpose spectra and the feasible region of odd-parity mixtures.

Positivity of the partial transpose over the first particle's *momentum
label* pins the four pairwise weight equalities; positivity over a spin label
(equivalently over a full particle) adds the bounds q_i <= 1/4.  Together
these constraints cut out the feasible region, whose boundary state
``edge_state`` saturates q_i = 1/4 and carries a zero partial-transpose
eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import partial_transpose, require_hermitian
from .relativity import sector_weights
from .states import BELL_TYPE_ANGLE, MixtureWeights, build_mixture

FR_TOL = 1e-10

#: weight pairs forced equal by momentum-label PPT
EQUALITY_PAIRS = ((1, 7), (3, 5), (9, 13), (11, 15))

#: independent representatives whose weights sum to 1/2
HALF_SUM_INDICES = (1, 3, 11, 9)


def _pt_spectrum(rho: np.ndarray, dims: tuple[int, int], party: str) -> np.ndarray:
    rho = require_hermitian(rho)
    if rho.shape[-2:] != (16, 16):
        raise ValueError("expected a 16x16 two-particle operator")
    return np.linalg.eigvalsh(partial_transpose(rho, dims, party))


def ppt_spectrum(rho: np.ndarray, party: str = "A") -> np.ndarray:
    """Ascending eigenvalues of the particle-particle partial transpose, one
    spectrum per matrix of a stack of shape (..., 16, 16)."""
    return _pt_spectrum(rho, (4, 4), party)


def momentum_label_pt_spectrum(rho: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the transpose over the first particle's momentum label.

    The 16-dimensional space splits as (momentum of particle 1) (x) (rest),
    a 2 (x) 8 bipartition; this is the transpose whose closed-form spectrum
    ``closed_form_momentum_pt`` reproduces.
    """
    return _pt_spectrum(rho, (2, 8), "A")


def closed_form_momentum_pt(weights: MixtureWeights, theta1: float = 0.0,
                            theta2: float = 0.0, raw: bool = False) -> np.ndarray:
    """Closed-form momentum-label transpose spectrum of a filtered odd mixture.

    With c_i = cos^2(theta_i / 2) and S = c1^2 + c2^2, the sixteen eigenvalues
    are pair sums (q_a + q_b) scaled by c_i^2 / S and pair differences
    +/-(q_a - q_b) scaled by c1 c2 / S; nonnegativity of the difference pairs
    is exactly the four weight equalities.  ``raw=True`` returns the values in
    the unnormalized convention carrying an overall factor of 16; the default
    is scaled to match ``momentum_label_pt_spectrum`` of the unit-trace state.
    """
    if weights.parity != "odd":
        raise ValueError("closed-form spectrum applies to odd-parity weights")
    q = weights.weight
    k1, k2, s = sector_weights(theta1, theta2)
    c1, c2 = k1 ** 2, k2 ** 2
    sums = [q(9) + q(13), q(11) + q(15), q(3) + q(5), q(1) + q(7)]
    diffs = [q(9) - q(13), q(11) - q(15), q(3) - q(5), q(1) - q(7)]
    lam = []
    for v in sums:
        lam += [16 * v * c1 ** 2 / s, 16 * v * c2 ** 2 / s]
    for v in diffs:
        lam += [16 * v * c1 * c2 / s, -16 * v * c1 * c2 / s]
    lam = np.sort(np.array(lam))
    return lam if raw else lam / 16.0


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


def feasible_region_check(weights: MixtureWeights, tol: float = FR_TOL) -> FeasibleRegionReport:
    """Evaluate the weight equalities, the half-sum identity, and the 1/4 bounds."""
    if weights.parity != "odd":
        raise ValueError("feasible-region constraints apply to odd-parity weights")
    q = weights.weight
    equalities = [(f"q{a}=q{b}", q(a) - q(b)) for a, b in EQUALITY_PAIRS]
    half = sum(q(i) for i in HALF_SUM_INDICES) - 0.5
    equalities.append(("q1+q3+q11+q9=1/2", half))
    inequalities = [(f"q{i}<=1/4", 0.25 - q(i)) for i in range(1, 17)]
    ok = (all(abs(r) <= tol for _, r in equalities)
          and all(m >= -tol for _, m in inequalities))
    return FeasibleRegionReport(equalities=equalities, inequalities=inequalities,
                                is_ppt=ok)


def edge_weights(direction: int = 1) -> MixtureWeights:
    """Weights of the PPT boundary mixture saturating q_i = 1/4 along one pair.

    The chosen pair gets 1/4 each; the remaining six odd weights share the
    rest uniformly (1/12 each), which keeps every equality satisfied.  Any
    other feasible split of the residual weight touches the same boundary.
    """
    pair = next((p for p in EQUALITY_PAIRS if direction in p), None)
    if pair is None:
        raise ValueError(f"direction must be an odd index in {EQUALITY_PAIRS}")
    mapping = {}
    for a, b in EQUALITY_PAIRS:
        value = 0.25 if (a, b) == pair else 1.0 / 12.0
        mapping[a] = mapping[b] = value
    return MixtureWeights.odd(mapping)


def edge_state(direction: int = 1, theta: float = BELL_TYPE_ANGLE) -> np.ndarray:
    """Density matrix of the PPT-boundary mixture (see ``edge_weights``)."""
    return build_mixture(edge_weights(direction), theta)
