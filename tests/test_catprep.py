import math

import numpy as np
import pytest

from bellscope import catprep
from bellscope.catprep import (
    PREP_NETWORKS,
    CoherentSuperposition,
    bs_transform,
    fidelity,
    generation_pipeline,
    homodyne_project,
    psi3_prime_state,
    scs_state,
    tensor,
)
from oracles import coherent_overlap, tuple_generation_pipeline


def single(amps, weight=1.0):
    return CoherentSuperposition([weight], [amps])


class TestOverlapAndNorm:
    def test_coherent_overlap(self):
        assert coherent_overlap(1.0, 1.0) == pytest.approx(1.0)
        assert coherent_overlap(1.0, -1.0) == pytest.approx(math.exp(-2.0))
        assert coherent_overlap(0.3, 1.7) == pytest.approx(
            math.exp(-0.5 * (0.3 ** 2 + 1.7 ** 2) + 0.3 * 1.7)
        )

    def test_scs_normalized(self):
        for alpha in (0.4, 1.0, 3.0):
            assert scs_state(alpha).norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_psi3_prime_normalized(self):
        for alpha in (0.5, 2.0):
            assert psi3_prime_state(alpha).norm_squared() == pytest.approx(
                1.0, abs=1e-10
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            CoherentSuperposition([1.0], np.zeros((1, 0)))
        with pytest.raises(ValueError):
            CoherentSuperposition([1.0, 1.0], [[0.0]])
        with pytest.raises(ValueError):
            CoherentSuperposition([], np.zeros((0, 1)))

    def test_arrays_are_read_only_copies(self):
        weights, amplitudes = np.array([1.0, 2.0]), np.array([[0.5], [-0.5]])
        state = CoherentSuperposition(weights, amplitudes)
        weights[0] = amplitudes[0, 0] = 9.0
        assert state.weights.tolist() == [1.0, 2.0]
        assert state.amplitudes.tolist() == [[0.5], [-0.5]]
        assert state.n_modes == 1
        with pytest.raises(ValueError):
            state.amplitudes[0, 0] = 1.0


class TestBeamSplitter:
    def test_equal_amplitudes_interfere(self):
        out = bs_transform(single((2.0, 2.0)), 0, 1)
        assert tuple(out.amplitudes[0]) == pytest.approx((2.0 * math.sqrt(2.0), 0.0))

    def test_opposite_amplitudes_interfere(self):
        out = bs_transform(single((2.0, -2.0)), 0, 1)
        assert tuple(out.amplitudes[0]) == pytest.approx((0.0, 2.0 * math.sqrt(2.0)))

    def test_unitarity_on_random_superpositions(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            terms = tuple(
                (complex(rng.standard_normal(), rng.standard_normal()),
                 tuple(rng.standard_normal(3)))
                for _ in range(4)
            )
            state = CoherentSuperposition(*zip(*terms))
            mixed = bs_transform(state, 0, 2)
            assert mixed.norm_squared() == pytest.approx(
                state.norm_squared(), abs=1e-10
            )

    def test_scs_network_norm_preserved(self):
        state = tensor(*(scs_state(2.0) for _ in range(4)))
        for network in PREP_NETWORKS.values():
            assert network.apply(state).norm_squared() == pytest.approx(
                1.0, abs=1e-10
            )

    def test_index_validation(self):
        state = single((1.0, 2.0))
        with pytest.raises(ValueError):
            bs_transform(state, 0, 0)
        with pytest.raises(ValueError):
            bs_transform(state, 0, 2)


class TestHomodyne:
    def test_product_state_factorizes(self):
        state = single((1.5, -0.7))
        conditional, density = homodyne_project(state, 0, 0.3)
        assert tuple(conditional.amplitudes[0]) == (-0.7,)
        expected = (
            math.pi ** -0.5 * math.exp(-((0.3 - math.sqrt(2.0) * 1.5) ** 2))
        )
        assert density == pytest.approx(expected, rel=1e-12)

    def test_odd_cat_node_at_origin(self):
        alpha = 2.0
        c_minus = 1.0 / math.sqrt(2.0 * (1.0 - math.exp(-2.0 * alpha ** 2)))
        odd_cat = CoherentSuperposition([c_minus, -c_minus], [[alpha, 0.0], [-alpha, 0.0]])
        # just off the node the density is tiny but the projection works
        _, density = homodyne_project(odd_cat, 0, 1e-3)
        assert density < 1e-6
        # exactly on the node the conditional state is null: explicit failure
        with pytest.raises(ArithmeticError, match="vanishing"):
            homodyne_project(odd_cat, 0, 0.0)

    def test_vanishing_density_is_an_error(self):
        state = single((1.0, 1.0))
        with pytest.raises(ArithmeticError, match="vanishing"):
            homodyne_project(state, 0, 60.0)

    def test_density_normalizes(self):
        alpha = 1.0
        state = tensor(*(scs_state(alpha) for _ in range(4)))
        mixed = PREP_NETWORKS["sum-first"].apply(state)
        xs = np.linspace(-9.0, 9.0, 1201)
        dens = np.array([homodyne_project(mixed, 0, float(x))[1] for x in xs])
        total = np.trapezoid(dens, xs)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            homodyne_project(single((1.0, 1.0)), 2, 0.0)
        with pytest.raises(ValueError):
            homodyne_project(single((1.0,)), 0, 0.0)


class TestFidelity:
    def test_self_fidelity(self):
        state = psi3_prime_state(1.2)
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_coherent_products(self):
        for alpha in (0.5, 1.0):
            a = single((alpha,) * 3)
            b = single((-alpha,) * 3)
            assert fidelity(a, b) == pytest.approx(
                math.exp(-12.0 * alpha * alpha), rel=1e-10
            )

    def test_requires_normalization_and_matching_modes(self):
        with pytest.raises(ValueError):
            fidelity(single((1.0,)), single((1.0, 1.0)))
        with pytest.raises(ValueError):
            fidelity(single((1.0,), weight=2.0), single((1.0,)))


class TestGenerationPipeline:
    def test_target_reached_at_designed_outcome(self):
        alpha = 3.0
        result = generation_pipeline(alpha, -math.sqrt(2.0) * alpha)
        assert result.fidelity >= 0.99
        assert result.density > 0.0

    def test_plus_peak_gives_sign_flipped_target(self):
        alpha = 3.0
        x0 = math.sqrt(2.0) * alpha
        result = generation_pipeline(alpha, x0)
        assert result.fidelity < 0.01  # nearly orthogonal to the target itself
        source = tensor(*(scs_state(alpha) for _ in range(4)))
        conditional, _ = homodyne_project(
            PREP_NETWORKS["sum-first"].apply(source), 0, x0
        )
        target = psi3_prime_state(alpha)
        flipped = CoherentSuperposition(target.weights, -target.amplitudes)
        assert fidelity(conditional, flipped) >= 0.99

    def test_monotone_in_amplitude_at_best_outcome(self):
        def best_fidelity(alpha):
            center = -math.sqrt(2.0) * alpha
            return max(
                generation_pipeline(alpha, float(x0)).fidelity
                for x0 in np.linspace(center - 1.5, center + 1.5, 31)
            )

        values = [best_fidelity(a) for a in (1.0, 2.0, 3.0, 4.0)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-9)

    def test_small_amplitude_below_unity(self):
        result = generation_pipeline(0.3, -math.sqrt(2.0) * 0.3)
        assert result.fidelity < 1.0 - 1e-5

    def test_unknown_wiring(self):
        with pytest.raises(ValueError):
            generation_pipeline(1.0, 0.0, wiring="diagonal")

    def test_source_state_built_once_per_amplitude(self, monkeypatch):
        """A second x0 at the same alpha reuses the prepared source state,
        and gives what a freshly prepared pipeline gives."""
        builds = []

        def counting_tensor(*states):
            builds.append(len(states))
            return tensor(*states)

        monkeypatch.setattr(catprep, "tensor", counting_tensor)
        catprep._prepared.cache_clear()
        alpha = 1.7
        generation_pipeline(alpha, -2.0)
        reused = generation_pipeline(alpha, -2.5)
        assert builds == [4]
        generation_pipeline(alpha, -2.5, wiring="swapped")
        assert builds == [4, 4]
        catprep._prepared.cache_clear()
        assert generation_pipeline(alpha, -2.5) == reused
        assert builds == [4, 4, 4]


class TestAgainstTupleOracle:
    """Bit for bit against the tuple-of-terms pipeline in ``tests/oracles.py``,
    on the x0 grid that ``prep-fidelity`` uses."""

    @pytest.mark.parametrize("alpha", [k / 10 for k in range(3, 51)])
    def test_raw_fidelity_and_density_equal(self, alpha):
        center = -math.sqrt(2.0) * alpha
        for x0 in [center + dx for dx in np.linspace(-2.0, 2.0, 41)]:
            for wiring, network in PREP_NETWORKS.items():
                expected = tuple_generation_pipeline(alpha, x0, network.pairs)
                assert tuple(generation_pipeline(alpha, x0, wiring)) == expected
