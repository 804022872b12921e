"""Two-particle momentum (x) spin basis states and their mixtures.

Single-particle ordering is momentum-major:

    |p1,+1/2> -> 0,  |p1,-1/2> -> 1,  |p2,+1/2> -> 2,  |p2,-1/2> -> 3,

so a boost, which acts per momentum sector, is block-diagonal.  Two-particle
index = 4 * (first particle index) + (second particle index).

The sixteen entangled states ``phi_state(i, theta)`` are built from the four
one-particle Bell vectors, tabulated once at import (``family_matrix``); at
the Bell-type angle theta = pi/4 the odd-index states are supported purely on
equal-momentum kets and the even-index states purely on cross-momentum kets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BELL_TYPE_ANGLE = np.pi / 4

WEIGHT_SUM_TOL = 1e-12

_PAIRS = ((1, 2), (3, 4), (1, 3), (2, 4), (1, 4), (2, 3))

# row k-1 is psi_k: (|p1,+> +/- |p2,->) / sqrt(2) for k = 1, 2 and
# (|p2,+> +/- |p1,->) / sqrt(2) for k = 3, 4
_BELL = np.array([[1, 0, 0, 1], [1, 0, 0, -1],
                  [0, 1, 1, 0], [0, -1, 1, 0]], dtype=float) / np.sqrt(2.0)


def one_particle_bell(index: int) -> np.ndarray:
    """One of the four maximally entangled momentum-spin vectors (4 components)."""
    if index not in (1, 2, 3, 4):
        raise ValueError(f"bell index must be 1..4, got {index}")
    return _BELL[index - 1].copy()


def two_particle_bell(kind: str, pair: tuple[int, int]) -> np.ndarray:
    """Bell-type combination of two one-particle Bell vectors (16 components).

    kind 'psi+'/'psi-' combines the doubled vectors (a,a) +/- (b,b);
    kind 'phi+'/'phi-' combines the crossed vectors (a,b) +/- (b,a).
    """
    pair = tuple(pair)
    if pair not in _PAIRS:
        raise ValueError(f"pair must be one of {_PAIRS}, got {pair}")
    sign = {"psi+": 1, "psi-": -1, "phi+": 1, "phi-": -1}.get(kind)
    if sign is None:
        raise ValueError(f"kind must be psi+/psi-/phi+/phi-, got {kind!r}")
    a, b = (one_particle_bell(k) for k in pair)
    x, y = (a, b) if kind.startswith("psi") else (b, a)
    # a (x) x + sign b (x) y, as the flattened outer products
    return (np.outer(a, x) + sign * np.outer(b, y)).ravel() / np.sqrt(2.0)


# (kind, pair for the cos branch, pair for the sin branch, sign of sin branch)
_PHI_RECIPE = {
    1: ("psi+", (1, 2), (3, 4), +1),
    2: ("psi-", (1, 2), (3, 4), +1),
    3: ("psi+", (3, 4), (1, 2), -1),
    4: ("psi-", (3, 4), (1, 2), -1),
    5: ("phi+", (1, 2), (3, 4), +1),
    6: ("phi-", (1, 2), (3, 4), +1),
    7: ("phi+", (3, 4), (1, 2), -1),
    8: ("phi-", (3, 4), (1, 2), -1),
    9: ("phi+", (2, 4), (1, 3), -1),
    10: ("phi+", (1, 3), (2, 4), +1),
    11: ("phi-", (2, 4), (1, 3), -1),
    12: ("phi-", (1, 3), (2, 4), +1),
    13: ("phi+", (2, 3), (1, 4), -1),
    14: ("phi+", (1, 4), (2, 3), +1),
    15: ("phi-", (2, 3), (1, 4), -1),
    16: ("phi-", (1, 4), (2, 3), +1),
}


# the whole family is the static linear map U(theta) = cos(theta) C + sin(theta) S,
# column i-1 of C and S holding the two branches of phi_i
_FAMILY_C = np.stack([two_particle_bell(kind, pair_c)
                      for kind, pair_c, _, _ in _PHI_RECIPE.values()], axis=1)
_FAMILY_S = np.stack([sign * two_particle_bell(kind, pair_s)
                      for kind, _, pair_s, sign in _PHI_RECIPE.values()], axis=1)


def family_matrix(theta: float = BELL_TYPE_ANGLE) -> np.ndarray:
    """Real 16x16 orthogonal matrix whose column i-1 is phi_state(i, theta)."""
    return np.cos(theta) * _FAMILY_C + np.sin(theta) * _FAMILY_S


def phi_state(i: int, theta: float = BELL_TYPE_ANGLE) -> np.ndarray:
    """i-th member (1..16) of the orthonormal entangled family at mixing angle theta."""
    if i not in _PHI_RECIPE:
        raise ValueError(f"state index must be 1..16, got {i}")
    return family_matrix(theta)[:, i - 1]


@dataclass(frozen=True)
class MixtureWeights:
    """Probability vector q_1..q_16 over the entangled family, with a parity tag.

    ``q`` is stored 0-based (q[i-1] holds q_i), or is an (n, 16) stack checked
    row by row.  Weights are validated to sum to one within WEIGHT_SUM_TOL and
    then renormalized exactly, guarding against accumulated I/O rounding.
    """

    q: np.ndarray
    parity: str = "free"

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape[-1:] != (16,) or q.ndim > 2:
            raise ValueError(f"weights must have 16 entries, got shape {q.shape}")
        if not np.isfinite(q).all():
            raise ValueError("weights must be finite")
        if q.min() < 0.0:
            raise ValueError(f"weights must be nonnegative (min {q.min():.3e})")
        total = q.sum(axis=-1)
        if np.any(np.abs(total - 1.0) > WEIGHT_SUM_TOL):
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL:.0e}, "
                             f"got {total!r}")
        if self.parity not in ("odd", "even", "free"):
            raise ValueError(f"parity must be odd/even/free, got {self.parity!r}")
        if self.parity == "odd" and np.any(q[..., 1::2] != 0.0):
            raise ValueError("odd-parity weights must vanish on even indices")
        if self.parity == "even" and np.any(q[..., 0::2] != 0.0):
            raise ValueError("even-parity weights must vanish on odd indices")
        object.__setattr__(self, "q", q / total[..., None])
        self.q.setflags(write=False)

    @classmethod
    def from_mapping(cls, mapping: dict, parity: str = "free") -> "MixtureWeights":
        """Build from a sparse {index: real weight} mapping, 1-based keys, each index once."""
        q = {}
        for key, value in mapping.items():
            plain = (key.isascii() and key.isdigit() if isinstance(key, str)
                     else isinstance(key, int) and not isinstance(key, bool))
            i = int(key) if plain else 0   # int() also reads "+1", " 1", "1_5" and non-ASCII digits
            if not 1 <= i <= 16 or i in q:
                raise ValueError(f"weight index must be 1..16, each once, got {key!r}")
            if isinstance(value, (bool, str)):   # float() would take True and "0.5"
                raise ValueError(f"weight {key!r} must be a number, got {value!r}")
            q[i] = float(value)
        return cls(np.array([q.get(i, 0.0) for i in range(1, 17)]), parity)

    @classmethod
    def odd(cls, mapping: dict) -> "MixtureWeights":
        return cls.from_mapping(mapping, parity="odd")

    def weight(self, i: int) -> float:
        """q_i with a 1-based index."""
        return float(self.q[i - 1])


def mixtures(q: np.ndarray, theta: float = BELL_TYPE_ANGLE) -> np.ndarray:
    """Real density matrices sum_i q_i |phi_i><phi_i| for weight vectors q of shape (..., 16)."""
    u = family_matrix(theta)
    return (u * np.asarray(q, dtype=float)[..., None, :]) @ u.T


def build_mixture(weights: MixtureWeights, theta: float = BELL_TYPE_ANGLE) -> np.ndarray:
    """Density matrix sum_i q_i |phi_i><phi_i|; unit trace, PSD by construction."""
    return mixtures(weights.q, theta)
