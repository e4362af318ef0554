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
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .rootbin import cat_norms, psi3_prime_terms

__all__ = [
    "CoherentSuperposition",
    "scs_state",
    "psi3_prime_state",
    "bs_transform",
    "homodyne_project",
    "fidelity",
    "BSNetwork",
    "PREP_NETWORKS",
    "PipelineResult",
    "generation_pipeline",
]


@dataclass(frozen=True, eq=False)
class CoherentSuperposition:
    """Weighted superposition of products of coherent states: term i has the
    complex weight ``weights[i]`` and the mode amplitudes ``amplitudes[i]``.
    Both are stored as read-only arrays.
    """

    weights: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        for name, dtype in (("weights", complex), ("amplitudes", float)):
            value = np.array(getattr(self, name), dtype=dtype)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if self.amplitudes.ndim != 2 or 0 in self.amplitudes.shape:
            raise ValueError("amplitudes must be a terms x modes matrix, both >= 1")
        if self.weights.shape != self.amplitudes.shape[:1]:
            raise ValueError("need one weight per term")

    @property
    def n_modes(self) -> int:
        return self.amplitudes.shape[1]

    def inner_product(self, other: "CoherentSuperposition") -> complex:
        """<self|other> = w^H exp(E) w' for the Gram matrix of exponents
        E_ij = sum_t [a_it b_jt - (a_it^2 + b_jt^2)/2], one exponential per
        pair of terms."""
        if other.n_modes != self.n_modes:
            raise ValueError("mode counts differ")
        a, b = self.amplitudes, other.amplitudes
        exponent = a @ b.T - 0.5 * ((a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1))
        return complex(self.weights.conj() @ np.exp(exponent) @ other.weights)

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


def homodyne_project(state: CoherentSuperposition, mode: int, x0: float):
    """Project ``mode`` onto the quadrature eigenvalue x0 and drop it.

    Returns (normalized conditional state on the remaining modes, outcome
    probability density at x0).  A conditional state of negligible norm
    (density below 1e-300) is an error rather than a garbage state.
    """
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode index {mode} out of range")
    if state.n_modes == 1:
        raise ValueError("cannot drop the only mode")
    # <x0|a> as one Python float expression per term, and the weights divided
    # by sqrt(density) part by part as Python's complex / float does: np.exp,
    # an array ** 2 and numpy's complex division can round differently.
    weights = state.weights * np.array([
        math.pi ** -0.25 * math.exp(-0.5 * (x0 - math.sqrt(2.0) * a) ** 2)
        for a in state.amplitudes[:, mode].tolist()
    ])
    amplitudes = np.delete(state.amplitudes, mode, axis=1)
    density = CoherentSuperposition(weights, amplitudes).norm_squared()
    if density < 1e-300:
        raise ArithmeticError(
            f"conditional state at x0 = {x0!r} has vanishing density"
        )
    normalized = (weights.view(float) / math.sqrt(density)).view(complex)
    return CoherentSuperposition(normalized, amplitudes), density


def fidelity(state: CoherentSuperposition, target: CoherentSuperposition) -> float:
    """|<target|state>|^2 for normalized coherent superpositions."""
    if state.n_modes != target.n_modes:
        raise ValueError("mode counts differ")
    for s in (state, target):
        if abs(s.norm_squared() - 1.0) > 1e-8:
            raise ValueError("fidelity expects normalized states")
    return abs(target.inner_product(state)) ** 2


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
    fidelity: float
    density: float


@lru_cache(maxsize=32)
def _prepared(alpha: float, wiring: str):
    """(four cat states after the wiring's network, candidate state): the
    part of the pipeline that does not depend on x0.  Both states are
    immutable, so every x0 of a scan shares them."""
    source = tensor(*(scs_state(alpha) for _ in range(4)))
    return PREP_NETWORKS[wiring].apply(source), psi3_prime_state(alpha)


def generation_pipeline(
    alpha: float, x0: float, wiring: str = "sum-first"
) -> PipelineResult:
    """Run four cat states through the beam-splitter network, condition mode
    0 on the homodyne outcome x0, and compare the three-mode conditional
    state against the candidate state.

    Conditioning near x0 = -sqrt(2)*alpha (the coherent peak of amplitude
    -alpha) makes the conditional state approach the target as alpha grows.
    """
    if wiring not in PREP_NETWORKS:
        raise ValueError(f"unknown wiring {wiring!r}")
    mixed, target = _prepared(alpha, wiring)
    conditional, density = homodyne_project(mixed, 0, x0)
    return PipelineResult(fidelity(conditional, target), density)
