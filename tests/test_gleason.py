"""Tests for frame functions: additivity, the inverse fit, intertwining."""

import json
from pathlib import Path

import numpy as np
import pytest

from bellctx import gleason
from bellctx.gleason import (
    FrameFunction,
    check_orthogonal_additivity,
    dim2_counterexample,
    extravalence_check,
    fit_trace_form,
    haar_unitary,
    random_density,
    random_rank_one,
    random_rank_profile,
)
from bellctx.quantum import (DensityOperator, Projector, born_probability, check_contexts,
                             context_distribution, maximally_mixed, operator_to_json,
                             projector_ranks)

GOLDEN_DIR = Path(__file__).parent / "golden"


def random_context(dim: int, profile: tuple[int, ...], seed) -> np.ndarray:
    """Haar-random context ``(k, d, d)`` with the given rank profile."""
    return gleason._context_stack(haar_unitary(dim, gleason._as_generator(seed))[None],
                                  profile)[0]


def rank_proportional(dim: int) -> FrameFunction:
    """m(P) = rank(P)/dim; the trace form of the maximally mixed state."""
    return FrameFunction(dim, lambda stack, ranks: ranks / dim, "rank_proportional")


class TestRandomSampling:
    def test_haar_unitary_is_unitary(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3, 4):
            u = haar_unitary(dim, rng)
            assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) <= 1e-12

    def test_random_context_satisfies_invariants(self):
        ctx = random_context(3, (1, 1, 1), seed=1)
        assert len(ctx) == 3
        assert projector_ranks(ctx).tolist() == [1, 1, 1]
        check_contexts(ctx)

    def test_full_rank_profile_gives_identity(self):
        ctx = random_context(3, (3,), seed=2)
        assert np.allclose(ctx[0], np.eye(3))

    def test_seeded_context_matches_golden_file(self):
        ctx = random_context(2, (1, 1), seed=42)
        produced = {
            "dim": 2, "seed": 42, "rank_profile": [1, 1],
            "projectors": [operator_to_json(p) for p in ctx],
        }
        recorded = json.loads((GOLDEN_DIR / "context_dim2_seed42.json").read_text())
        assert json.dumps(produced, sort_keys=True) == json.dumps(recorded, sort_keys=True)

    def test_rank_profiles_are_compositions(self):
        rng = np.random.default_rng(3)
        for dim in (2, 3, 4):
            for _ in range(100):
                profile = random_rank_profile(dim, rng)
                assert sum(profile) == dim
                assert all(r >= 1 for r in profile)


class TestFrameFunction:
    def test_trace_form_normalization_enforced(self):
        rho = random_density(3, np.random.default_rng(4))
        m = FrameFunction.trace_form(rho)
        assert m(Projector(np.zeros((3, 3)))) == 0.0
        assert m(Projector(np.eye(3))) == pytest.approx(1.0)

    def test_unnormalized_rule_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            FrameFunction(2, lambda stack, ranks: 0.5 * ranks / 2, "half")

    def test_dimension_mismatch_rejected(self):
        m = rank_proportional(2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            m(Projector(np.eye(3)))


class TestOrthogonalAdditivity:
    def test_trace_form_passes_thousand_contexts(self):
        rho = random_density(3, np.random.default_rng(5))
        report = check_orthogonal_additivity(FrameFunction.trace_form(rho), 1000, 3, seed=6)
        assert report.passed
        assert report.worst_violation <= 1e-10
        assert report.n_contexts_tested == 1000

    def test_trace_form_passes_dims_two_to_four(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 4):
            rho = random_density(dim, rng)
            report = check_orthogonal_additivity(FrameFunction.trace_form(rho), 200, dim, seed=8)
            assert report.passed, f"dim {dim}: {report.worst_violation}"

    def test_rank_proportional_passes(self):
        report = check_orthogonal_additivity(rank_proportional(3), 200, 3, seed=9)
        assert report.passed

    def test_squared_trace_fails_big(self):
        rho = DensityOperator(np.diag([1.0, 0.0, 0.0]))
        report = check_orthogonal_additivity(
            FrameFunction.squared_trace_form(rho), 100, 3, seed=10)
        assert not report.passed
        assert report.worst_violation > 0.1

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            check_orthogonal_additivity(rank_proportional(2), 10, 3, seed=0)

    def test_non_unitary_contexts_are_rejected(self, monkeypatch):
        # The raw Gaussians in place of their unitaries: blocks B B^dagger of
        # columns that are not orthonormal are not idempotent.
        monkeypatch.setattr(gleason, "_haar_unitaries", lambda ginibre: ginibre)
        m = FrameFunction.trace_form(random_density(3, np.random.default_rng(40)))
        with pytest.raises(ValueError, match="not idempotent"):
            check_orthogonal_additivity(m, 200, 3, seed=41)

    def test_context_of_a_non_unitary_is_rejected(self):
        # Blocks of 1.5 I sum to 1.5 I: orthogonal, but each part is 2.25 B B^dagger.
        ctx = gleason._context_stack(1.5 * np.eye(3)[None], (1, 2))[0]
        with pytest.raises(ValueError, match="not idempotent"):
            context_distribution(maximally_mixed(3), ctx)

    def test_values_outside_unit_interval_are_rejected(self):
        # Normalized on 0 and I, but rank-1 projectors get 1.5.
        m = FrameFunction(2, lambda stack, ranks: np.where(ranks == 1, 1.5, ranks / 2), "over")
        with pytest.raises(ValueError, match="outside"):
            check_orthogonal_additivity(m, 10, 2, seed=43)

    def test_incomplete_contexts_are_rejected(self, monkeypatch):
        # Keep each context's first projector only: orthogonal, idempotent,
        # integer trace, but the parts no longer sum to the identity.
        stack = gleason._context_stack
        monkeypatch.setattr(gleason, "_context_stack",
                            lambda unitaries, profile: stack(unitaries, profile)[:, :1])
        m = FrameFunction.trace_form(random_density(3, np.random.default_rng(44)))
        with pytest.raises(ValueError, match="incomplete"):
            check_orthogonal_additivity(m, 50, 3, seed=45)


class TestTraceFormFit:
    def test_round_trip_recovers_known_state(self):
        rng = np.random.default_rng(11)
        rho = random_density(3, rng)
        samples = [(p, born_probability(rho, p))
                   for p in (random_rank_one(3, rng) for _ in range(30))]
        fit = fit_trace_form(samples, 3)
        assert np.max(np.abs(fit.rho_estimate.matrix - rho.matrix)) <= 1e-8
        assert fit.residual <= 1e-10
        assert fit.n_samples == 30

    def test_round_trip_with_mixed_rank_samples(self):
        rng = np.random.default_rng(12)
        rho = random_density(4, rng)
        samples = []
        while len(samples) < 40:
            ctx = random_context(4, random_rank_profile(4, rng), rng)
            samples.extend((p, born_probability(rho, p)) for p in map(Projector, ctx))
        fit = fit_trace_form(samples, 4)
        assert np.max(np.abs(fit.rho_estimate.matrix - rho.matrix)) <= 1e-8

    def test_rank_proportional_recovers_maximally_mixed(self):
        rng = np.random.default_rng(13)
        m = rank_proportional(3)
        samples = [(p, m(p)) for p in (random_rank_one(3, rng) for _ in range(30))]
        fit = fit_trace_form(samples, 3)
        assert np.max(np.abs(fit.rho_estimate.matrix - np.eye(3) / 3)) <= 1e-8

    def test_too_few_samples_rejected(self):
        rng = np.random.default_rng(14)
        samples = [(random_rank_one(3, rng), 0.3)] * 5
        with pytest.raises(ValueError, match="at least"):
            fit_trace_form(samples, 3)

    def test_rank_deficient_design_rejected(self):
        rng = np.random.default_rng(15)
        p = random_rank_one(3, rng)
        samples = [(p, 0.5)] * 12
        with pytest.raises(ValueError, match="rank"):
            fit_trace_form(samples, 3)

    def test_noisy_values_are_projected_to_a_state(self):
        rng = np.random.default_rng(16)
        rho = random_density(2, rng)
        samples = [(p, min(1.0, max(0.0, born_probability(rho, p) + rng.normal(0, 0.05))))
                   for p in (random_rank_one(2, rng) for _ in range(40))]
        fit = fit_trace_form(samples, 2)
        eigenvalues = np.linalg.eigvalsh(fit.rho_estimate.matrix)
        assert eigenvalues.min() >= -1e-10
        assert np.trace(fit.rho_estimate.matrix).real == pytest.approx(1.0, abs=1e-12)


class TestDim2Counterexample:
    def test_pole_values(self):
        m = dim2_counterexample()
        assert m(Projector(np.diag([1.0, 0.0]))) == 1.0
        assert m(Projector(np.diag([0.0, 1.0]))) == 0.0

    def test_equator_value_is_half(self):
        m = dim2_counterexample()
        x_plus = Projector(np.full((2, 2), 0.5))
        assert m(x_plus) == pytest.approx(0.5)

    def test_pair_sums_are_one_up_to_final_rounding(self):
        # The complement identity holds exactly in real arithmetic
        # (odd cubic); in floats only the final additions round.
        m = dim2_counterexample()
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(10_000):
            p = random_rank_one(2, rng)
            q = Projector(np.eye(2) - p.matrix)
            worst = max(worst, abs(m(p) + m(q) - 1.0))
        assert worst <= 1e-15

    def test_passes_additivity_but_fails_trace_fit(self):
        m = dim2_counterexample()
        report = check_orthogonal_additivity(m, 500, 2, seed=18)
        assert report.passed
        rng = np.random.default_rng(19)
        samples = [(p, m(p)) for p in (random_rank_one(2, rng) for _ in range(200))]
        fit = fit_trace_form(samples, 2)
        assert fit.residual > 0.01


class TestIntertwining:
    # extravalence_check's embeddings of p: rank-1 pieces that complete it.
    def test_five_embeddings_all_complete_the_projector(self):
        rng = np.random.default_rng(20)
        p = random_rank_one(3, rng)
        embeddings = list(gleason._embedding_pieces(p, 5, seed=21))
        assert len(embeddings) == 5
        for pieces in embeddings:
            assert projector_ranks(pieces).tolist() == [1, 1]
            check_contexts(np.concatenate([p.matrix[None], pieces]))

    def test_embeddings_are_pairwise_distinct(self):
        rng = np.random.default_rng(22)
        p = random_rank_one(3, rng)
        embeddings = list(gleason._embedding_pieces(p, 5, seed=23))
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.max(np.abs(embeddings[i] - embeddings[j])) > 1e-6

    def test_qubit_rank_one_has_unique_completion(self):
        rng = np.random.default_rng(24)
        with pytest.raises(ValueError, match="unique completion"):
            extravalence_check(rank_proportional(2), random_rank_one(2, rng), 3, seed=25)

    def test_dim4_rank2_completions_pass_invariants(self):
        rng = np.random.default_rng(26)
        u = haar_unitary(4, rng)
        block = u[:, :2]
        p = Projector(block @ block.conj().T)
        embeddings = list(gleason._embedding_pieces(p, 3, seed=27))
        assert len(embeddings) == 3
        for pieces in embeddings:
            assert pieces.shape == (2, 4, 4)  # two rank-1 pieces beside p
            check_contexts(np.concatenate([p.matrix[None], pieces]))


class TestExtravalence:
    def test_trace_form_spread_is_tiny(self):
        rng = np.random.default_rng(28)
        rho = random_density(3, rng)
        p = random_rank_one(3, rng)
        report = extravalence_check(FrameFunction.trace_form(rho), p, 100, seed=29)
        assert report.passed
        assert report.spread <= 1e-10

    def test_rank_proportional_spread_is_zero(self):
        rng = np.random.default_rng(30)
        p = random_rank_one(3, rng)
        report = extravalence_check(rank_proportional(3), p, 50, seed=31)
        assert report.spread == 0.0

    def test_context_dependent_rule_fails(self):
        # Negative control: value perturbed by a hash of the projector
        # entries, so each embedding's residual mass wobbles.
        def noisy(stack: np.ndarray, ranks: np.ndarray) -> np.ndarray:
            wobble = np.array([hash(p.tobytes()) % 1009 for p in stack]) / 1009.0
            values = np.clip(ranks / 3 + 0.2 * (wobble - 0.5), 0.0, 1.0)
            return np.where((ranks == 0) | (ranks == 3), ranks / 3, values)

        m = FrameFunction(3, noisy, "hash_perturbed")
        rng = np.random.default_rng(32)
        p = random_rank_one(3, rng)
        report = extravalence_check(m, p, 50, seed=33)
        assert not report.passed
        assert report.spread > 1e-3
