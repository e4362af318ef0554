"""Conditional generation of the three-mode candidate state from four
single-mode cat states, balanced beam splitters, and one homodyne detection.

States are finite superpositions of products of coherent states with real
amplitudes, tracked exactly through their weights: every operation here
(beam splitter, homodyne projection, overlap) has a closed form on that
class, so no Fock truncation is involved.

Conventions (real amplitudes throughout):
    <a|b>  = exp(-(a^2 + b^2)/2 + a b)
    <x|a>  = pi^(-1/4) exp(-(x - sqrt(2) a)^2 / 2)
A balanced beam splitter maps amplitudes (a, b) -> ((a+b)/sqrt(2),
(a-b)/sqrt(2)), the sum landing on the first of the two modes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class CoherentSuperposition:
    """Weighted superposition of products of coherent states.

    ``terms`` holds (weight, per-mode amplitude vector) pairs; weights may
    be complex (homodyne conditioning can introduce phases for complex
    amplitudes, though everything stays real in this module's use).
    """

    n_modes: int
    terms: tuple

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("need at least one mode")
        cleaned = []
        for weight, amps in self.terms:
            amps = tuple(float(a) for a in amps)
            if len(amps) != self.n_modes:
                raise ValueError("amplitude vector length must equal the mode count")
            cleaned.append((complex(weight), amps))
        if not cleaned:
            raise ValueError("empty superposition")
        object.__setattr__(self, "terms", tuple(cleaned))

    def inner_product(self, other: "CoherentSuperposition") -> complex:
        """<self|other> = w^H exp(E) w' for the Gram matrix of exponents
        E_ij = sum_t [a_it b_jt - (a_it^2 + b_jt^2)/2], one exponential per
        pair of terms."""
        if other.n_modes != self.n_modes:
            raise ValueError("mode counts differ")
        w_a, a = _as_arrays(self.terms)
        w_b, b = _as_arrays(other.terms)
        exponent = a @ b.T - 0.5 * ((a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1))
        return complex(w_a.conj() @ np.exp(exponent) @ w_b)

    def norm_squared(self) -> float:
        return self.inner_product(self).real

    def normalized(self) -> "CoherentSuperposition":
        norm = math.sqrt(self.norm_squared())
        if norm < 1e-150:
            raise ArithmeticError("cannot normalize a (numerically) null state")
        return CoherentSuperposition(
            self.n_modes, tuple((w / norm, a) for w, a in self.terms)
        )


def _as_arrays(terms):
    """(weights, amplitude matrix with one row per term) of a term tuple."""
    return (
        np.array([w for w, _ in terms]),
        np.array([amps for _, amps in terms], dtype=float),
    )


def scs_state(alpha: float) -> CoherentSuperposition:
    """Single-mode even cat state c_+ (|alpha> + |-alpha>)."""
    c_plus, _ = cat_norms(alpha)
    return CoherentSuperposition(1, ((c_plus, (alpha,)), (c_plus, (-alpha,))))


def tensor(*states: CoherentSuperposition) -> CoherentSuperposition:
    """Tensor product of coherent superpositions."""
    n_modes = sum(s.n_modes for s in states)
    terms = []
    for combo in itertools.product(*(s.terms for s in states)):
        weight = 1.0 + 0.0j
        amps = ()
        for w, a in combo:
            weight *= w
            amps += a
        terms.append((weight, amps))
    return CoherentSuperposition(n_modes, tuple(terms))


def psi3_prime_state(alpha: float) -> CoherentSuperposition:
    """The three-mode candidate state as a coherent superposition."""
    return CoherentSuperposition(3, psi3_prime_terms(alpha))


def bs_transform(state: CoherentSuperposition, a: int, b: int) -> CoherentSuperposition:
    """Balanced beam splitter on modes a and b: amplitudes (x, y) become
    ((x+y)/sqrt(2), (x-y)/sqrt(2)); weights and norm are untouched."""
    if a == b:
        raise ValueError("beam splitter needs two distinct modes")
    for idx in (a, b):
        if not 0 <= idx < state.n_modes:
            raise ValueError(f"mode index {idx} out of range")
    inv = 1.0 / math.sqrt(2.0)
    new_terms = []
    for w, amps in state.terms:
        amps = list(amps)
        amps[a], amps[b] = (amps[a] + amps[b]) * inv, (amps[a] - amps[b]) * inv
        new_terms.append((w, tuple(amps)))
    return CoherentSuperposition(state.n_modes, tuple(new_terms))


def _position_amplitude(x0: float, a: float) -> float:
    """<x0|a> for a real coherent amplitude."""
    return math.pi ** -0.25 * math.exp(-0.5 * (x0 - math.sqrt(2.0) * a) ** 2)


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
    new_terms = []
    for w, amps in state.terms:
        w_new = w * _position_amplitude(x0, amps[mode])
        new_terms.append((w_new, amps[:mode] + amps[mode + 1 :]))
    unnormalized = CoherentSuperposition(state.n_modes - 1, tuple(new_terms))
    density = unnormalized.norm_squared()
    if density < 1e-300:
        raise ArithmeticError(
            f"conditional state at x0 = {x0!r} has vanishing density"
        )
    return unnormalized.normalized(), density


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
    source = tensor(*(scs_state(alpha) for _ in range(4)))
    mixed = PREP_NETWORKS[wiring].apply(source)
    conditional, density = homodyne_project(mixed, 0, x0)
    return PipelineResult(fidelity(conditional, psi3_prime_state(alpha)), density)
