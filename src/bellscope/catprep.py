"""Conditional generation of the three-mode candidate state from four
single-mode cat states, balanced beam splitters, and one homodyne detection.

States are finite superpositions of products of coherent states with real
amplitudes, tracked exactly through their weights: every operation here
(beam splitter, homodyne projection, overlap) has a closed form on that
class, so no Fock truncation is involved.  A state is a complex weight per
term and a terms x modes amplitude matrix; every operation acts on whole arrays.

Conventions (real amplitudes throughout):
    <a|b>  = exp(-(a^2 + b^2)/2 + a b)
    <x|a>  = pi^(-1/4) exp(-(x - sqrt(2) a)^2 / 2)
A balanced beam splitter maps amplitudes (a, b) -> ((a+b)/sqrt(2),
(a-b)/sqrt(2)), the sum landing on the first of the two modes.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .rootbin import cat_norms, psi3_prime_terms

__all__ = [
    "CoherentSuperposition",
    "scs_state",
    "psi3_prime_state",
    "bs_transform",
    "BSNetwork",
    "PREP_NETWORKS",
    "PipelineResult",
    "generation_pipeline",
]


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(E), E_ij = -sum_t (a_it - b_jt)^2 / 2, the overlaps of the coherent
    products in the rows of ``a`` with those of ``b``: 0 where rows are equal,
    where a b - (a^2 + b^2)/2 would cancel only to about a^2 eps."""
    return np.exp(-0.5 * np.square(a[:, None, :] - b).sum(axis=2))


class CoherentSuperposition:
    """Weighted superposition of products of coherent states: term i has the
    complex weight ``weights[i]`` and the mode amplitudes ``amplitudes[i]``.
    Both are stored as read-only arrays.
    """

    __slots__ = ("weights", "amplitudes")

    def __init__(self, weights, amplitudes):
        weights, amplitudes = np.array(weights, dtype=complex), np.array(amplitudes, dtype=float)
        if amplitudes.ndim != 2 or 0 in amplitudes.shape:
            raise ValueError("amplitudes must be a terms x modes matrix, both >= 1")
        if weights.shape != amplitudes.shape[:1]:
            raise ValueError("need one weight per term")
        weights.flags.writeable = amplitudes.flags.writeable = False
        self.weights, self.amplitudes = weights, amplitudes

    @property
    def n_modes(self) -> int:
        return self.amplitudes.shape[1]

    def inner_product(self, other: "CoherentSuperposition") -> complex:
        """<self|other> = w^H exp(E) w' for the Gram matrix of exponents
        E_ij = -sum_t (a_it - b_jt)^2 / 2, one exponential per pair of terms."""
        if other.n_modes != self.n_modes:
            raise ValueError("mode counts differ")
        return complex(
            self.weights.conj() @ _gram(self.amplitudes, other.amplitudes) @ other.weights
        )

    def norm_squared(self) -> float:
        return self.inner_product(self).real


def scs_state(alpha: float) -> CoherentSuperposition:
    """Single-mode even cat state c_+ (|alpha> + |-alpha>)."""
    c_plus, _ = cat_norms(alpha)
    return CoherentSuperposition([c_plus, c_plus], [[alpha], [-alpha]])


def tensor(*states: CoherentSuperposition) -> CoherentSuperposition:
    """Tensor product of coherent superpositions: one term per combination
    of the factors' terms, the first factor's index varying slowest."""
    index = np.indices([s.weights.size for s in states]).reshape(len(states), -1)
    weights = states[0].weights[index[0]]
    for state, i in zip(states[1:], index[1:]):
        weights = weights * state.weights[i]
    amplitudes = np.hstack([s.amplitudes[i] for s, i in zip(states, index)])
    return CoherentSuperposition(weights, amplitudes)


def psi3_prime_state(alpha: float) -> CoherentSuperposition:
    """The three-mode candidate state as a coherent superposition."""
    return CoherentSuperposition(*zip(*psi3_prime_terms(alpha)))


def bs_transform(state: CoherentSuperposition, a: int, b: int) -> CoherentSuperposition:
    """Balanced beam splitter on modes a and b: amplitudes (x, y) become
    ((x+y)/sqrt(2), (x-y)/sqrt(2)); weights and norm are untouched."""
    if a == b:
        raise ValueError("beam splitter needs two distinct modes")
    for idx in (a, b):
        if not 0 <= idx < state.n_modes:
            raise ValueError(f"mode index {idx} out of range")
    inv = 1.0 / math.sqrt(2.0)
    x, y = state.amplitudes[:, a], state.amplitudes[:, b]
    amplitudes = state.amplitudes.copy()
    amplitudes[:, a] = (x + y) * inv
    amplitudes[:, b] = (x - y) * inv
    return CoherentSuperposition(state.weights, amplitudes)


class BSNetwork(NamedTuple):
    """Ordered balanced-beam-splitter applications as (mode_a, mode_b) pairs."""

    pairs: tuple

    def apply(self, state: CoherentSuperposition) -> CoherentSuperposition:
        for a, b in self.pairs:
            state = bs_transform(state, a, b)
        return state


# Four cat states enter modes 0..3; the first layer mixes (0,1) and (2,3),
# the second mixes (1,2) and (0,3); mode 0 is then measured.  The "swapped"
# variant resolves the sum/difference port ambiguity the other way on the
# second layer.
PREP_NETWORKS = {
    "sum-first": BSNetwork(((0, 1), (2, 3), (1, 2), (0, 3))),
    "swapped": BSNetwork(((0, 1), (2, 3), (2, 1), (3, 0))),
}


class PipelineResult(NamedTuple):
    """Per x0 of the grid, in order: fidelity with the candidate state, density."""

    fidelity: list
    density: list


def generation_pipeline(alpha: float, x0_values, wiring: str = "sum-first") -> PipelineResult:
    """Run four cat states through the beam-splitter network, condition mode
    0 on each homodyne outcome x0 of the sequence ``x0_values``, and compare
    each three-mode conditional state against the candidate state.
    Conditioning near x0 = -sqrt(2)*alpha (the coherent peak of amplitude
    -alpha) makes the conditional state approach the target as alpha grows.

    Only the weights depend on x0 (w_i <x0|a_i0>), so the Gram matrices are
    built once.  Both states are built here, so one off norm 1 by more than
    1e-8 is an ArithmeticError, as is a density below 1e-300 (naming the
    first such x0, not a garbage state); a bad ``wiring`` is a ValueError.
    """
    if wiring not in PREP_NETWORKS:
        raise ValueError(f"unknown wiring {wiring!r}")
    mixed = PREP_NETWORKS[wiring].apply(tensor(*(scs_state(alpha) for _ in range(4))))
    target = psi3_prime_state(alpha)
    remaining = mixed.amplitudes[:, 1:]
    gram = _gram(remaining, remaining)
    overlap = target.weights.conj() @ _gram(target.amplitudes, remaining)
    # <x0|a> as one Python float expression per distinct amplitude of mode 0
    # (np.exp and an array ** 2 can round differently), and the weights divided
    # by sqrt(density) part by part as Python's complex / float does.
    distinct, term = np.unique(mixed.amplitudes[:, 0], return_inverse=True)
    position = np.array([
        [math.pi ** -0.25 * math.exp(-0.5 * (x0 - math.sqrt(2.0) * a) ** 2)
         for a in distinct.tolist()]
        for x0 in x0_values
    ]).reshape(-1, distinct.size)
    weights = mixed.weights * np.take(position, term, axis=1)  # C order, as view() needs

    def squared_norms(w):  # stacked, so each row rounds as one vector would
        return (w.conj()[:, None, :] @ gram @ w[:, :, None])[:, 0, 0].real

    density = squared_norms(weights)
    vanishing = np.flatnonzero(density < 1e-300)
    first = vanishing[0] if vanishing.size else density.size
    weights = (weights[:first].view(float) / np.sqrt(density[:first, None])).view(complex)
    norms = [target.norm_squared(), *squared_norms(weights).tolist()] if first else []
    if any(abs(norm - 1.0) > 1e-8 for norm in norms):
        raise ArithmeticError("fidelity expects normalized states")
    if vanishing.size:
        raise ArithmeticError(
            f"conditional state at x0 = {x0_values[first]!r} has vanishing density"
        )
    fidelity = [abs(z) ** 2 for z in (overlap @ weights[:, :, None])[:, 0].tolist()]
    return PipelineResult(fidelity, density.tolist())
