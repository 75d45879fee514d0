"""Tests for classical-space construction, the axiom verifier, and both
CHSH normalizations."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellctx.chsh import DEFAULT_COMBINATION, all_combinations, chsh_value, correlations
from bellctx.gleason import _context_stack, haar_unitary, random_density, random_rank_profile
from bellctx.kolmogorov import (
    SPACE_TOL,
    ClassicalProbabilitySpace,
    KolmogorovReport,
    SettingsSpec,
    build_mixed_context_space_from_tables,
    optimal_settings,
    szabo_chsh,
    verify_kolmogorov,
)
from bellctx.models import DeterministicStrategy, MixedLhvModel, QuantumModel
from bellctx.quantum import (
    context_distribution,
    joint_context,
    maximally_mixed,
    photon_pair_state,
    polarization_observable,
    pure_state,
)

RT2 = math.sqrt(2.0)


def computational_context(dim: int) -> np.ndarray:
    """Context of the computational-basis rank-1 projectors."""
    return np.array([np.diag(row) for row in np.eye(dim)], dtype=complex)


def random_context(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random context with a random rank profile."""
    profile = random_rank_profile(dim, rng)
    return _context_stack(haar_unitary(dim, rng)[None], profile)[0]


def context_space(rho, ctx: np.ndarray) -> ClassicalProbabilitySpace:
    """One atom per projector of the context; trace-rule probabilities."""
    return ClassicalProbabilitySpace(tuple(f"P{k}" for k in range(len(ctx))),
                                     context_distribution(rho, ctx))


def behaviour(rho, spec: SettingsSpec) -> np.ndarray:
    """p[x, y, a, b] of a two-qubit state measured at the spec's angles."""
    return QuantumModel(rho, spec.alice_angles, spec.bob_angles).behaviour()


def mixed_space(rho, spec: SettingsSpec) -> ClassicalProbabilitySpace:
    return build_mixed_context_space_from_tables(behaviour(rho, spec), spec)


def quantum_s(rho, spec: SettingsSpec, combination=DEFAULT_COMBINATION) -> float:
    """S from the conditional correlations E(x, y) of each context."""
    return chsh_value(correlations(behaviour(rho, spec)), combination)


class TestClassicalSpace:
    def test_valid_space_renormalizes_exactly(self):
        space = ClassicalProbabilitySpace(("a", "b"), (0.5 + 1e-14, 0.5))
        assert space.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            ClassicalProbabilitySpace(("a", "b"), (-0.1, 1.1))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            ClassicalProbabilitySpace(("a", "b"), (0.5, 0.6))

    def test_rejects_duplicate_atoms(self):
        with pytest.raises(ValueError, match="unique"):
            ClassicalProbabilitySpace(("a", "a"), (0.5, 0.5))

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_rejects_non_finite_probabilities(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ClassicalProbabilitySpace(("a", "b"), (bad, 0.5))

    def test_unchecked_carries_invalid_tables(self):
        space = ClassicalProbabilitySpace.unchecked(("a", "b"), (0.5, 0.6))
        assert space.probs.sum() == pytest.approx(1.1)

    @given(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=12))
    def test_random_weights_always_yield_valid_space(self, weights):
        probs = np.array(weights) / np.sum(weights)
        space = ClassicalProbabilitySpace(
            tuple(f"w{i}" for i in range(len(probs))), probs)
        assert space.probs.min() >= 0.0
        assert abs(space.probs.sum() - 1.0) <= 1e-12


class TestSettingsSpec:
    def test_uniform_constructor(self):
        spec = SettingsSpec.uniform((0.0, 1.0), (2.0,))
        assert spec.alice_probs == (0.5, 0.5)
        assert spec.bob_probs == (1.0,)

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError, match="sum"):
            SettingsSpec((0.0,), (0.5,), (0.0,), (1.0,))

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_rejects_non_finite_probabilities(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SettingsSpec((0.0, 1.0), (bad, 0.5), (0.0,), (1.0,))


class TestSingleContextSpace:
    def test_mixed_qubit_in_computational_basis(self):
        space = context_space(maximally_mixed(2), computational_context(2))
        assert space.atoms == ("P0", "P1")
        assert space.probs == pytest.approx([0.5, 0.5])

    def test_trivial_single_projector_context(self):
        space = context_space(maximally_mixed(3), np.eye(3, dtype=complex)[None])
        assert len(space) == 1
        assert space.probs[0] == pytest.approx(1.0)

    def test_pair_state_joint_context_probabilities(self):
        # Oracle: direct trace computation of the four joint projectors.
        rho = photon_pair_state()
        a = polarization_observable(0.0)
        b = polarization_observable(math.pi / 8)
        expected = []
        for pa in a:
            for pb in b:
                proj = np.kron(pa, pb)
                expected.append(float(np.trace(rho.matrix @ proj).real))
        space = context_space(rho, joint_context(a, b))
        assert space.probs == pytest.approx(expected, abs=1e-12)
        assert space.probs == pytest.approx(
            [(2 + RT2) / 8, (2 - RT2) / 8, (2 - RT2) / 8, (2 + RT2) / 8], abs=1e-12)


class TestMixedContextSpace:
    def test_sixteen_atoms_for_two_by_two(self):
        space = mixed_space(photon_pair_state(), optimal_settings())
        assert len(space) == 16

    def test_total_probability_one(self):
        space = mixed_space(photon_pair_state(), optimal_settings())
        assert space.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed_gives_sixteenth_each(self):
        space = mixed_space(maximally_mixed(4), optimal_settings())
        assert space.probs == pytest.approx([1 / 16] * 16)

    def test_quarter_factorization_cellwise(self):
        rho = photon_pair_state()
        spec = optimal_settings()
        space = mixed_space(rho, spec)
        p = behaviour(rho, spec)
        w = space.probs.reshape(2, 2, 2, 2)  # [x, a, y, b]
        assert w.transpose(0, 2, 1, 3) == pytest.approx(p / 4, abs=1e-12)

    def test_index_only_labels_in_array_order(self):
        space = mixed_space(photon_pair_state(), optimal_settings())
        assert space.atoms[:4] == ("x0:a+1|y0:b+1", "x0:a+1|y0:b-1",
                                   "x0:a+1|y1:b+1", "x0:a+1|y1:b-1")
        assert space.atoms[-1] == "x1:a-1|y1:b-1"

    def test_named_atom_probability(self):
        spec = optimal_settings()
        space = mixed_space(photon_pair_state(), spec)
        index = space.atoms.index("x0:a+1|y0:b+1")
        assert space.probs[index] == pytest.approx((2 + RT2) / 8 / 4, abs=1e-12)

    def test_marginal_consistency(self):
        spec = SettingsSpec((0.0, 0.5), (0.3, 0.7), (0.1, 0.9), (0.25, 0.75))
        space = mixed_space(photon_pair_state(), spec)
        marginals = space.probs.reshape(2, 2, 2, 2).sum(axis=(1, 3))
        assert marginals == pytest.approx(spec.joint_probs, abs=1e-12)

    def test_weighted_table_list_is_mixed(self):
        # A hidden variable with two values is the strategy mixture itself.
        spec = optimal_settings()
        all_up = DeterministicStrategy((1, 1), (1, 1))
        all_down = DeterministicStrategy((-1, -1), (-1, -1))
        model = MixedLhvModel((all_up, all_down), (0.25, 0.75))
        space = build_mixed_context_space_from_tables(model.behaviour(), spec)
        ix_up = space.atoms.index("x0:a+1|y0:b+1")
        assert space.probs[ix_up] == pytest.approx(0.25 / 4)


class TestVerifier:
    def test_single_context_spaces_pass(self):
        report = verify_kolmogorov(context_space(maximally_mixed(2), computational_context(2)))
        assert report.all_ok
        assert report.worst_violation <= 1e-12
        assert report.n_additivity_checks == 0

    @pytest.mark.parametrize("probs", [(0.5, 0.6), (0.25, 0.25, 0.5 + 2e-12)])
    def test_hand_built_space_fails_normalization(self, probs):
        report = verify_kolmogorov(
            ClassicalProbabilitySpace.unchecked(tuple(range(len(probs))), probs))
        assert not report.normalization_ok
        assert report.positivity_ok

    def test_normalization_uses_the_correctly_rounded_sum(self):
        # Added left to right the two 1e-16 atoms vanish into 1.0; their
        # exact sum rounds to the next float above 1.
        report = verify_kolmogorov(
            ClassicalProbabilitySpace.unchecked(tuple(range(4)), (0.5, 0.5, 1e-16, 1e-16)))
        assert report.normalization_ok
        assert report.worst_violation == 2.0 ** -52

    def test_negative_probability_fails_positivity(self):
        report = verify_kolmogorov(
            ClassicalProbabilitySpace.unchecked(("a", "b"), (1.2, -0.2)))
        assert not report.positivity_ok
        assert report.additivity_ok
        assert report.worst_violation >= 0.2

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_probability_fails_every_check(self, bad):
        # No arithmetic on the bad entry: under filterwarnings = error an
        # "invalid value" RuntimeWarning would fail this test.
        report = verify_kolmogorov(
            ClassicalProbabilitySpace.unchecked(("a", "b", "c"), (0.25, bad, 0.5)))
        assert not (report.positivity_ok or report.normalization_ok or report.additivity_ok)
        assert report.worst_violation == math.inf
        assert report.n_additivity_checks == 0

    def test_mixed_space_passes(self):
        space = mixed_space(photon_pair_state(), optimal_settings())
        report = verify_kolmogorov(space)
        assert report.all_ok
        assert report.n_atoms == 16
        assert report.n_additivity_checks == 0
        assert "by construction" in report.note

    def test_thousand_random_state_context_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            dim = int(rng.integers(2, 5))
            rho = random_density(dim, rng)
            ctx = random_context(dim, rng)
            report = verify_kolmogorov(context_space(rho, ctx))
            assert report.all_ok
            assert report.worst_violation <= 1e-12


def oracle_probabilities(n: int, kind: str, seed: int) -> np.ndarray:
    """Seeded n-atom probability vectors: Dirichlet, scaled and shifted so
    that some entries are negative, or rounded to 3 decimals."""
    rng = np.random.default_rng(1000 * n + seed)
    probs = rng.dirichlet(np.ones(n))
    if kind == "shifted":
        return 3.7 * probs - 0.5 / n
    if kind == "rounded":
        return np.round(probs, 3)
    return probs


class TestAuditOracle:
    """The audit equals its definition in exact rational arithmetic, to the
    last bit: the deficit of the most negative atom, and the distance from 1
    of the correctly rounded sum of the atoms."""

    @pytest.mark.parametrize("kind", ("dirichlet", "shifted", "rounded"))
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_exact_definition(self, n, kind):
        for seed in range(3):
            probs = oracle_probabilities(n, kind, seed)
            exact = [Fraction(float(p)) for p in probs]
            deficit = float(max(Fraction(0), -min(exact)))
            deviation = abs(float(sum(exact)) - 1.0)
            expected = KolmogorovReport(
                positivity_ok=deficit == 0.0,
                normalization_ok=deviation <= SPACE_TOL,
                additivity_ok=True,
                worst_violation=max(deficit, deviation),
                n_additivity_checks=0,
                n_atoms=n,
            )
            space = ClassicalProbabilitySpace.unchecked(tuple(range(n)), probs)
            assert verify_kolmogorov(space) == expected


def grid_search_max_s(steps: int = 24) -> float:
    """Independent oracle: coarse maximization of S over analyzer angles
    using only the cos-2-delta law (itself brute-forced in test_quantum)."""
    angles = np.linspace(0.0, np.pi, steps, endpoint=False)
    best = 0.0
    for a0 in angles:
        for a1 in angles:
            for b0 in angles:
                for b1 in angles:
                    e = np.cos(2 * np.array([a0 - b0, a0 - b1, a1 - b0, a1 - b1]))
                    s = e[0] - e[1] + e[2] + e[3]
                    best = max(best, abs(s))
    return best


class TestPerContextChsh:
    def test_pair_state_hits_two_root_two(self):
        s = quantum_s(photon_pair_state(), optimal_settings())
        assert s == pytest.approx(2 * RT2, abs=1e-10)

    def test_optimal_angles_agree_with_grid_search(self):
        assert grid_search_max_s() <= 2 * RT2 + 1e-9
        # The standard set achieves the grid maximum up to grid resolution.
        assert quantum_s(photon_pair_state(), optimal_settings()) >= grid_search_max_s() - 1e-9

    def test_maximally_mixed_gives_zero(self):
        s = quantum_s(maximally_mixed(4), optimal_settings())
        assert s == pytest.approx(0.0, abs=1e-12)

    def test_product_state_respects_local_bound(self):
        hh = pure_state([1, 0, 0, 0])
        rng = np.random.default_rng(11)
        for _ in range(50):
            angles = rng.uniform(0, np.pi, size=4)
            spec = SettingsSpec.uniform(angles[:2], angles[2:])
            for combination in all_combinations():
                assert abs(quantum_s(hh, spec, combination)) <= 2.0 + 1e-10

    def test_requires_two_settings_per_side(self):
        spec = SettingsSpec.uniform((0.0,), (0.0, 1.0))
        with pytest.raises(ValueError, match="two settings"):
            quantum_s(photon_pair_state(), spec)


class TestSzaboChsh:
    def test_pair_state_reduces_to_quarter(self):
        space = mixed_space(photon_pair_state(), optimal_settings())
        assert szabo_chsh(space) == pytest.approx(RT2 / 2, abs=1e-10)

    def test_equals_quarter_of_s_for_random_states_and_angles(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            rho = random_density(4, rng)
            angles = rng.uniform(-np.pi, np.pi, size=4)
            spec = SettingsSpec.uniform(angles[:2], angles[2:])
            s = quantum_s(rho, spec)
            s_prime = szabo_chsh(mixed_space(rho, spec))
            assert s_prime == pytest.approx(s / 4, abs=1e-12)

    def test_maximally_mixed_gives_zero(self):
        space = mixed_space(maximally_mixed(4), optimal_settings())
        assert szabo_chsh(space) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_mixed_structure(self):
        space = context_space(maximally_mixed(2), computational_context(2))
        with pytest.raises(ValueError, match="16-atom"):
            szabo_chsh(space)

    def test_relabeling_invariance_of_max_abs(self):
        # a -> -a on Alice's first setting, with the compensating sign
        # flips in the combination, leaves |S| and |S'| alone.
        rng = np.random.default_rng(13)
        rho = random_density(4, rng)
        spec = SettingsSpec.uniform(rng.uniform(0, np.pi, 2), rng.uniform(0, np.pi, 2))
        space = mixed_space(rho, spec)

        def flipped(space):
            # Swap the a = +1 and a = -1 atoms of Alice's first setting.
            w = space.probs.reshape(2, 2, 2, 2).copy()  # [x, a, y, b]
            w[0] = w[0, ::-1].copy()
            return ClassicalProbabilitySpace(space.atoms, w.ravel())

        original = max(abs(szabo_chsh(space, c)) for c in all_combinations())
        relabeled = max(abs(szabo_chsh(flipped(space), c)) for c in all_combinations())
        assert relabeled == pytest.approx(original, abs=1e-12)

    def test_malformed_atom_label_rejected(self):
        space = ClassicalProbabilitySpace(
            tuple(f"atom{i}" for i in range(16)), np.full(16, 1 / 16))
        with pytest.raises(ValueError, match="16-atom"):
            szabo_chsh(space)

    def test_permuted_atoms_rejected(self):
        space = mixed_space(photon_pair_state(), optimal_settings())
        permuted = ClassicalProbabilitySpace(space.atoms[::-1], space.probs[::-1])
        with pytest.raises(ValueError, match="16-atom"):
            szabo_chsh(permuted)

    def test_three_settings_rejected(self):
        spec = SettingsSpec.uniform((0.0, 0.5, 1.0), (0.1, 0.9))
        with pytest.raises(ValueError, match="16-atom"):
            szabo_chsh(mixed_space(photon_pair_state(), spec))
