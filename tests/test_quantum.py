"""Tests for the trace-rule engine: states, projectors, contexts."""

import math

import numpy as np
import pytest

from bellctx.quantum import (
    OUTCOME_PAIRS,
    DensityOperator,
    Projector,
    born_probability,
    check_contexts,
    context_distribution,
    joint_context,
    maximally_mixed,
    operator_from_json,
    operator_to_json,
    photon_pair_state,
    polarization_observable,
    projector_ranks,
    pure_state,
)
from bellctx.chsh import correlations
from bellctx.gleason import _context_stack, haar_unitary, random_density, random_rank_profile


def computational_context(dim: int) -> np.ndarray:
    """Context of the computational-basis rank-1 projectors."""
    return np.array([np.diag(row) for row in np.eye(dim)], dtype=complex)


def random_context(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random context with a random rank profile."""
    profile = random_rank_profile(dim, rng)
    return _context_stack(haar_unitary(dim, rng)[None], profile)[0]


def trace_prob(rho_matrix, proj_matrix) -> float:
    """Independent oracle: raw trace computation on plain arrays."""
    return float(np.trace(np.asarray(rho_matrix) @ np.asarray(proj_matrix)).real)


def joint_table(rho, ta: float, tb: float) -> np.ndarray:
    """p(a, b) of two analyzers as a 2x2 array (index 0 is outcome +1)."""
    context = joint_context(polarization_observable(ta), polarization_observable(tb))
    return context_distribution(rho, context).reshape(2, 2)


def e_of(rho, ta: float, tb: float) -> float:
    return float(correlations(joint_table(rho, ta, tb)))


class TestTypeInvariants:
    def test_density_operator_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2))

    def test_density_operator_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_operator_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_projector_rejects_non_idempotent(self):
        with pytest.raises(ValueError, match="idempotent"):
            Projector(np.diag([0.5, 0.5]))

    def test_projector_rank_is_rounded_trace(self):
        p = Projector(np.diag([1.0, 1.0, 0.0]))
        assert p.rank == 2

    def test_context_requires_orthogonality(self):
        p = np.diag([1.0, 0.0])
        with pytest.raises(ValueError, match="orthogonal"):
            check_contexts(np.array([p, p]))
        with pytest.raises(ValueError, match="orthogonal"):
            context_distribution(maximally_mixed(2), np.array([p, p], dtype=complex))

    def test_context_requires_completeness(self):
        p = np.diag([1.0, 0.0, 0.0])
        q = np.diag([0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="incomplete"):
            check_contexts(np.array([p, q]))
        with pytest.raises(ValueError, match="incomplete"):
            context_distribution(maximally_mixed(3), np.array([p, q], dtype=complex))

    def test_context_requires_projectors(self):
        # Orthogonal and complete, but neither part is idempotent.
        half = np.eye(2) / 2
        with pytest.raises(ValueError, match="idempotent"):
            context_distribution(maximally_mixed(2), np.array([half, half], dtype=complex))

    def test_context_requires_the_state_dimension(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            context_distribution(maximally_mixed(2), np.eye(2, dtype=complex))


class TestBornProbability:
    def test_identity_projector_gives_one(self):
        rho = random_density(3, np.random.default_rng(0))
        assert born_probability(rho, Projector(np.eye(3))) == pytest.approx(1.0, abs=1e-12)

    def test_state_on_its_own_projector(self):
        rho = pure_state([1, 0])
        assert born_probability(rho, Projector(np.diag([1.0, 0.0]))) == pytest.approx(1.0)

    def test_maximally_mixed_dim3_gives_third(self):
        rho = maximally_mixed(3)
        p = Projector(computational_context(3)[1])
        assert born_probability(rho, p) == pytest.approx(1 / 3, abs=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            born_probability(maximally_mixed(2), Projector(np.eye(3)))

    def test_additive_on_orthogonal_projectors(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            rho = random_density(dim, rng)
            ctx = random_context(dim, rng)
            if len(ctx) < 2:
                continue
            p, q = Projector(ctx[0]), Projector(ctx[1])
            merged = Projector(p.matrix + q.matrix)
            lhs = born_probability(rho, merged)
            rhs = born_probability(rho, p) + born_probability(rho, q)
            assert abs(lhs - rhs) <= 1e-10

    def test_complete_family_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            rho = random_density(dim, rng)
            ctx = random_context(dim, rng)
            total = sum(born_probability(rho, Projector(p)) for p in ctx)
            assert abs(total - 1.0) <= 1e-10


class TestContextDistribution:
    def test_maximally_mixed_qubit(self):
        probs = context_distribution(maximally_mixed(2), computational_context(2))
        assert probs == pytest.approx([0.5, 0.5])

    def test_basis_state(self):
        probs = context_distribution(pure_state([1, 0]), computational_context(2))
        assert probs == pytest.approx([1.0, 0.0])

    def test_plus_state_splits_evenly(self):
        # Oracle: direct trace computation on the raw matrices.
        plus = np.array([1, 1]) / math.sqrt(2)
        rho = np.outer(plus, plus)
        expected = [trace_prob(rho, np.diag([1.0, 0.0])), trace_prob(rho, np.diag([0.0, 1.0]))]
        probs = context_distribution(pure_state(plus), computational_context(2))
        assert probs == pytest.approx(expected)
        assert probs == pytest.approx([0.5, 0.5])

    def test_distribution_sums_exactly_to_one(self):
        rng = np.random.default_rng(3)
        rho = random_density(4, rng)
        probs = context_distribution(rho, computational_context(4))
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)


class TestPolarization:
    def test_theta_zero_is_horizontal(self):
        plus, minus = polarization_observable(0.0)
        assert np.array_equal(plus, np.diag([1.0, 0.0]))
        assert np.array_equal(minus, np.diag([0.0, 1.0]))

    def test_theta_right_angle_is_vertical(self):
        plus, _ = polarization_observable(math.pi / 2)
        assert np.allclose(plus, np.diag([0.0, 1.0]), atol=1e-15)

    def test_theta_quarter_by_hand(self):
        # Outer products of (1,1)/sqrt(2) and (-1,1)/sqrt(2) with themselves.
        plus, minus = polarization_observable(math.pi / 4)
        assert np.allclose(plus, np.full((2, 2), 0.5))
        assert np.allclose(minus, [[0.5, -0.5], [-0.5, 0.5]])

    def test_analyzer_is_a_rank_one_context(self):
        for theta in np.random.default_rng(9).uniform(-np.pi, np.pi, 20):
            analyzer = polarization_observable(theta)
            assert analyzer.shape == (2, 2, 2) and analyzer.dtype == complex
            assert projector_ranks(analyzer).tolist() == [1, 1]
            check_contexts(analyzer)

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError):
            polarization_observable(float("nan"))


class TestJointContext:
    def test_kronecker_products_in_outcome_pair_order(self):
        # Bit for bit np.kron of the analyzers' projectors, signed zeros included.
        rng = np.random.default_rng(4)
        angles = [(0.0, 0.0), (0.0, math.pi / 2)] + rng.uniform(-np.pi, np.pi, (50, 2)).tolist()
        for ta, tb in angles:
            a, b = polarization_observable(ta), polarization_observable(tb)
            context = joint_context(a, b)
            assert context.shape == (4, 4, 4)
            for part, (oa, ob) in zip(context, OUTCOME_PAIRS):
                expected = np.kron(a[(1 - oa) // 2], b[(1 - ob) // 2])
                assert part.tobytes() == expected.tobytes()

    def test_horizontal_pair_by_hand(self):
        context = joint_context(polarization_observable(0.0), polarization_observable(0.0))
        assert np.array_equal(context, [np.diag(row) for row in np.eye(4)])

    def test_joint_context_is_a_rank_one_context(self):
        rng = np.random.default_rng(5)
        for ta, tb in rng.uniform(-np.pi, np.pi, (50, 2)):
            context = joint_context(polarization_observable(ta), polarization_observable(tb))
            assert projector_ranks(context).tolist() == [1, 1, 1, 1]
            check_contexts(context)


class TestPhotonPair:
    def test_unit_trace_and_purity(self):
        rho = photon_pair_state()
        assert np.trace(rho.matrix).real == pytest.approx(1.0)
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0)

    def test_hh_probability_is_half(self):
        rho = photon_pair_state()
        hh = Projector(np.diag([1.0, 0.0, 0.0, 0.0]))
        assert trace_prob(rho.matrix, hh.matrix) == pytest.approx(0.5)
        assert born_probability(rho, hh) == pytest.approx(0.5)

    def test_perfect_correlation_at_equal_angles(self):
        rho = photon_pair_state()
        for theta in (0.0, 0.3, 1.1):
            e = e_of(rho, theta, theta)
            assert e == pytest.approx(1.0, abs=1e-12)


class TestJointDistribution:
    def test_maximally_mixed_is_uniform(self):
        table = joint_table(maximally_mixed(4), 0.3, 1.0)
        assert table.ravel() == pytest.approx([0.25] * 4)

    def test_equal_angles_diagonal(self):
        table = joint_table(photon_pair_state(), 0.0, 0.0)
        assert table[0, 0] == pytest.approx(0.5)  # (+1, +1)
        assert table[1, 1] == pytest.approx(0.5)  # (-1, -1)
        assert table[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_angle_gap_quarter_is_uniform(self):
        table = joint_table(photon_pair_state(), 0.0, math.pi / 4)
        assert table.ravel() == pytest.approx([0.25] * 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            joint_table(maximally_mixed(2), 0.0, 0.0)


class TestCorrelation:
    def test_cos_2delta_law_against_brute_force(self):
        # Brute force the four projector probabilities on raw matrices
        # before trusting the analytic shortcut E = cos(2 delta).
        rho = photon_pair_state().matrix
        rng = np.random.default_rng(5)
        for ta, tb in rng.uniform(0, np.pi, size=(40, 2)):
            vecs = {}
            for label, t in (("a", ta), ("b", tb)):
                vecs[label + "+"] = np.array([math.cos(t), math.sin(t)])
                vecs[label + "-"] = np.array([-math.sin(t), math.cos(t)])
            e_brute = 0.0
            for sa, sign_a in (("a+", 1), ("a-", -1)):
                for sb, sign_b in (("b+", 1), ("b-", -1)):
                    proj = np.kron(np.outer(vecs[sa], vecs[sa]), np.outer(vecs[sb], vecs[sb]))
                    e_brute += sign_a * sign_b * trace_prob(rho, proj)
            assert e_brute == pytest.approx(math.cos(2 * (ta - tb)), abs=1e-12)
            e_module = e_of(photon_pair_state(), ta, tb)
            assert e_module == pytest.approx(e_brute, abs=1e-12)

    def test_maximally_mixed_uncorrelated(self):
        e = e_of(maximally_mixed(4), 0.2, 0.9)
        assert e == pytest.approx(0.0, abs=1e-12)

    def test_half_wave_gap(self):
        e = e_of(photon_pair_state(), 0.0, math.pi / 8)
        assert e == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_depends_only_on_angle_difference(self):
        rho = photon_pair_state()
        rng = np.random.default_rng(6)
        for _ in range(25):
            ta, tb, shift = rng.uniform(-np.pi, np.pi, size=3)
            e1 = e_of(rho, ta, tb)
            e2 = e_of(rho, ta + shift, tb + shift)
            assert abs(e1 - e2) <= 1e-10

    def test_bounded_by_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rho = random_density(4, rng)
            ta, tb = rng.uniform(-np.pi, np.pi, size=2)
            e = e_of(rho, ta, tb)
            assert -1.0 - 1e-10 <= e <= 1.0 + 1e-10


def test_operator_json_round_trip():
    rng = np.random.default_rng(8)
    mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(operator_from_json(operator_to_json(mat)), mat)
