"""Tests for the outcome-model zoo and the local-bound machinery."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bellctx.chsh import CELLS, DEFAULT_COMBINATION, all_combinations, chsh_value, correlations
from bellctx.harness import _cell_cumulatives, _generate_chunk
from bellctx.kolmogorov import optimal_settings
from bellctx.models import (
    DeterministicStrategy,
    MixedLhvModel,
    PrBoxModel,
    QuantumModel,
    SignallingModel,
    SignallingTablesError,
    SuperdeterministicModel,
    enumerate_deterministic_strategies,
    lhv_max_chsh,
    local_polytope_membership,
    maximizing_strategies,
    model_description_hash,
    no_signalling_deltas,
    superdeterministic_s4_example,
    tables_from_json,
    validate_behaviour,
)
from bellctx.quantum import context_distribution, joint_context, \
    maximally_mixed, photon_pair_state, polarization_observable, pure_state

RT2 = math.sqrt(2.0)
PHOTON_PAIR_TABLES = Path(__file__).parent / "golden" / "photon_pair_tables.json"


# SHA-256 of QuantumModel.behaviour().tobytes() per case of behaviour_cases():
# every float of the trace-rule tables, signed zeros included, to the last bit.
BEHAVIOUR_SHA256 = {
    "photon_pair": "518909280f9789c2c16b8096ef1b5fbd5deb67eecd2ab2c2d35e8cf135645aca",
    "maximally_mixed": "c68b23194102001f1c75662481333e4d75ba9b17c4dffc307ac2f260e4eaf076",
    "product_hh": "27e505f18d42834dfdeb71c9ba40fa6faa603680557c3520dcf2da31e59b4864",
    "random_0": "c94799588e1350c75f3b32e833d14268f67cf561277ab99b97dd2d49e7b0d67a",
    "random_1": "3df725aabb7ef955da3eb87b2523745785ea3d54e521504b4a6f523d3eb87094",
    "random_2": "59e41d64f132fc68ad7100df8e5c3b5f8ffc8647f405546fe6c4ca7280a135ab",
    "random_3": "5d847f4501b977b977ebf61d817f0f028fd0ddb4a653dd6db9ca43e9f38d2bbb",
    "random_4": "922cb0b83f92ee136e440dc1a2d88e5f9d41a5edb1711e0c7abd0539b7959bf0",
    "random_5": "ad479317fbd9ce718d5c0fc251a5d9c4e10611a516a4200a478333dc076a8d1a",
    "random_6": "7530416f1324331f7c1019c87cc34c6dac6cdf65d119cc97c3e9e2f8283f1206",
    "random_7": "68ce6d1d4da47ab3fb56b683d3403cb2f6c4cd3cd67640610b59d5a806626ffc",
    "random_8": "0b6a8d1a96fcb142386e7f7c1a5100178826c0a7525eb5f7d439ca61a3d99c26",
    "random_9": "eeda5ddaf99688be94b10138f9a9482e02810ea44f0a35ebed1d2b131735a589",
    "random_10": "f28cb87cf0adbb880651d38dd2d9edb85b66e8814da484b4e7df8d3e68517e63",
    "random_11": "bdedebd3e7452357f531044aacb029e85f927b35c58cab791dcdbfbb00dcccf1",
    "random_12": "0e262f6a0ee000ff33e8ba752d21fec36fdf221fa48b4e495fbcdd1895622d6d",
    "random_13": "5d49be2d467e7bce25fdf687276469bbf9aafbeb36c077a0ed5e147ee3c12907",
    "random_14": "e3ed7846b7ff6895774312e5551ae0d0c139ae39c00ac680669a5d8bc0ae6eb2",
    "random_15": "02f242b3a74e6ff036ab04e4248127911bd10a2df2adbc40ba504dd5289f83f1",
    "random_16": "9543b5ee2e3d2c837e1290fcabc01e931dbf535f599c34b0a66f9d5cab42f33b",
    "random_17": "0310fdb1f4c582a310cb8f6221e2ccd3030b8c2f04ccc6a719175a237a403fc1",
    "random_18": "fff92b8a2b3453efbd71df8b56f80cdfc0597e12aecae03c4bf11428e8995fec",
    "random_19": "0b86694d3e2a4860dad6e32239bdffd425c03cba3b6f9df05a697c7415d54802",
}


def behaviour_cases():
    """(name, rho, alice angles, bob angles): the named states, whose zero
    probabilities cover the clamp, and 20 random states at 1-3 angles a side."""
    from bellctx.gleason import random_density
    spec = optimal_settings()
    yield "photon_pair", photon_pair_state(), spec.alice_angles, spec.bob_angles
    yield "maximally_mixed", maximally_mixed(4), spec.alice_angles, spec.bob_angles
    yield "product_hh", pure_state([1, 0, 0, 0]), (0.0, math.pi / 2), (0.0, -math.pi / 4, math.pi)
    rng = np.random.default_rng(15)
    for i in range(20):
        rho = random_density(4, rng)
        n_alice, n_bob = rng.integers(1, 4, 2)
        yield (f"random_{i}", rho, tuple(rng.uniform(-np.pi, np.pi, n_alice)),
               tuple(rng.uniform(-np.pi, np.pi, n_bob)))


def quantum_pair_model() -> QuantumModel:
    spec = optimal_settings()
    return QuantumModel(photon_pair_state(), spec.alice_angles, spec.bob_angles)


def model_s(model, combination=DEFAULT_COMBINATION) -> float:
    return chsh_value(correlations(model.behaviour()), combination)


def sample_cell(model, x_index, y_index, n, seed):
    """(a, b) draws of the chunked sampler with the settings pinned to one cell."""
    alice_cum = (np.arange(model.n_alice) >= x_index).astype(float)
    bob_cum = (np.arange(model.n_bob) >= y_index).astype(float)
    chunk = _generate_chunk(_cell_cumulatives(model.behaviour()), alice_cum, bob_cum,
                            master_seed=seed, chunk_id=0, start_trial=0, size=n)
    return list(zip(chunk.a.tolist(), chunk.b.tolist()))


class TestDeterministicStrategies:
    def test_enumeration_has_sixteen_unique_entries(self):
        strategies = enumerate_deterministic_strategies()
        assert len(strategies) == 16
        assert len({(s.a_of_x, s.b_of_y) for s in strategies}) == 16

    def test_all_plus_first_in_lexicographic_order(self):
        strategies = enumerate_deterministic_strategies()
        assert strategies[0] == DeterministicStrategy((1, 1), (1, 1))
        assert strategies[-1] == DeterministicStrategy((-1, -1), (-1, -1))

    def test_point_table(self):
        strategy = DeterministicStrategy((1, 1), (-1, -1))
        cell = strategy.behaviour()[0, 1]
        assert cell[0, 1] == 1.0  # (a, b) = (+1, -1)
        assert cell.sum() == 1.0

    def test_every_vertex_has_abs_s_two(self):
        for strategy in enumerate_deterministic_strategies():
            for combination in all_combinations():
                assert abs(strategy.chsh(combination)) == 2

    def test_invalid_outcomes_rejected(self):
        with pytest.raises(ValueError):
            DeterministicStrategy((1, 0), (1, 1))


class TestLhvBound:
    def test_exhaustive_bound_is_exactly_two(self):
        assert lhv_max_chsh() == 2

    def test_eight_vertices_reach_the_signed_maximum(self):
        winners = maximizing_strategies(DEFAULT_COMBINATION)
        assert len(winners) == 8
        assert all(s.chsh(DEFAULT_COMBINATION) == 2 for s in winners)

    def test_mixtures_respect_the_bound(self):
        rng = np.random.default_rng(0)
        strategies = tuple(enumerate_deterministic_strategies())
        for _ in range(1000):
            model = MixedLhvModel(strategies, tuple(rng.dirichlet(np.ones(16))))
            assert abs(model_s(model)) <= 2.0 + 1e-12

    def test_mixture_s_is_convex_combination(self):
        rng = np.random.default_rng(1)
        strategies = tuple(enumerate_deterministic_strategies())
        for _ in range(50):
            weights = rng.dirichlet(np.ones(16))
            model = MixedLhvModel(strategies, tuple(weights))
            expected = sum(w * s.chsh() for w, s in zip(weights, strategies))
            assert model_s(model) == pytest.approx(expected, abs=1e-12)


class TestMixedLhv:
    def test_uniform_mixture_is_uniform_table(self):
        model = MixedLhvModel.uniform_over_all()
        assert np.array_equal(model.behaviour(), np.full((2, 2, 2, 2), 0.25))

    def test_weights_validated(self):
        strategies = tuple(enumerate_deterministic_strategies())
        with pytest.raises(ValueError, match="sum"):
            MixedLhvModel(strategies, (0.5,) * 16)


class TestQuantumModel:
    def test_tables_match_trace_engine(self):
        model = quantum_pair_model()
        spec = optimal_settings()
        for ix, iy in CELLS:
            expected = context_distribution(photon_pair_state(), joint_context(
                polarization_observable(spec.alice_angles[ix]),
                polarization_observable(spec.bob_angles[iy])))
            assert np.array_equal(model.behaviour()[ix, iy].ravel(), expected)

    def test_behaviour_bytes_are_pinned(self):
        digests = {name: hashlib.sha256(QuantumModel(rho, a, b).behaviour().tobytes()).hexdigest()
                   for name, rho, a, b in behaviour_cases()}
        assert digests == BEHAVIOUR_SHA256

    def test_maximally_mixed_tables_uniform(self):
        model = QuantumModel(maximally_mixed(4), (0.0, 0.5), (0.1, 0.9))
        assert model.behaviour() == pytest.approx(np.full((2, 2, 2, 2), 0.25))

    def test_single_setting_model(self):
        model = QuantumModel(photon_pair_state(), (0.0,), (0.3,))
        assert model.behaviour().shape == (1, 1, 2, 2)
        assert model.behaviour().sum() == pytest.approx(1.0)

    def test_no_signalling_identically(self):
        rng = np.random.default_rng(2)
        from bellctx.gleason import random_density
        for _ in range(20):
            model = QuantumModel(random_density(4, rng),
                                 tuple(rng.uniform(0, np.pi, 2)),
                                 tuple(rng.uniform(0, np.pi, 2)))
            assert no_signalling_deltas(model.behaviour()) <= 1e-12

    def test_out_of_range_settings_rejected(self):
        p = quantum_pair_model().behaviour()
        assert p.shape == (2, 2, 2, 2)
        with pytest.raises(IndexError):
            p[2, 0]


class TestPrBox:
    def test_tables_correlate_except_negative_cell(self):
        p = PrBoxModel().behaviour()
        assert p[0, 0, 0, 0] == 0.5  # (+1, +1)
        assert p[0, 1, 0, 1] == 0.5  # (+1, -1) on the negative cell
        assert p[0, 1, 0, 0] == 0.0

    def test_reaches_four(self):
        assert model_s(PrBoxModel()) == pytest.approx(4.0)

    def test_no_signalling_tables(self):
        assert no_signalling_deltas(PrBoxModel().behaviour()) == 0.0

    def test_flags(self):
        box = PrBoxModel()
        assert box.violates_parameter_independence
        assert not box.violates_measurement_independence


class TestSuperdeterministic:
    def test_example_reaches_four(self):
        assert model_s(superdeterministic_s4_example()) == pytest.approx(4.0)

    def test_observable_tables_are_no_signalling(self):
        assert no_signalling_deltas(superdeterministic_s4_example().behaviour()) == 0.0

    def test_lambda_distribution_depends_on_settings(self):
        model = superdeterministic_s4_example()
        assert model.violates_measurement_independence
        assert not model.violates_parameter_independence

    def test_flags_mutually_exclusive_with_pr_box(self):
        box, sd = PrBoxModel(), superdeterministic_s4_example()
        assert box.violates_parameter_independence != sd.violates_parameter_independence
        assert box.violates_measurement_independence != sd.violates_measurement_independence

    def test_settings_independent_conditional_not_flagged(self):
        strategy = DeterministicStrategy((1, 1), (1, 1))
        model = SuperdeterministicModel({cell: ((strategy, 1.0),) for cell in CELLS})
        assert not model.violates_measurement_independence

    def test_adapts_to_requested_combination(self):
        for combination in all_combinations():
            model = superdeterministic_s4_example(combination)
            assert model_s(model, combination) == pytest.approx(4.0)

    def test_lambda_draw_evaluates_locally(self):
        # Draw lambda from the cell's conditional, then evaluate it locally:
        # each lambda answers a from x alone and b from y alone, and the
        # weighted point masses add up to the observable cell p[x, y].
        model = superdeterministic_s4_example()
        for (ix, iy), entries in model.conditional.items():
            cell = np.zeros((2, 2))
            for strategy, weight in entries:
                lam = strategy.behaviour()
                alice, bob = lam.sum(axis=3), lam.sum(axis=2)
                assert all(np.array_equal(alice[ix, y], alice[ix, iy]) for y in range(2))
                assert all(np.array_equal(bob[x, iy], bob[ix, iy]) for x in range(2))
                assert lam[ix, iy].max() == 1.0
                cell += weight * lam[ix, iy]
            assert np.array_equal(cell, model.behaviour()[ix, iy])


class TestSignallingControl:
    def test_tables_signal(self):
        assert no_signalling_deltas(SignallingModel().behaviour()) == pytest.approx(1.0)

    def test_membership_question_rejected(self):
        with pytest.raises(SignallingTablesError, match="ill-posed"):
            local_polytope_membership(SignallingModel().behaviour())


class TestSampling:
    def test_deterministic_strategy_always_fixed_pair(self):
        strategy = DeterministicStrategy((1, -1), (-1, 1))
        assert set(sample_cell(strategy, 0, 1, 20, seed=3)) == {(1, 1)}
        assert set(sample_cell(strategy, 1, 0, 20, seed=3)) == {(-1, -1)}

    def test_fixed_seed_reproduces_sequence(self):
        model = quantum_pair_model()
        assert sample_cell(model, 1, 1, 50, seed=5) == sample_cell(model, 1, 1, 50, seed=5)
        assert sample_cell(model, 1, 1, 50, seed=5) != sample_cell(model, 1, 1, 50, seed=6)

    def test_empirical_frequencies_within_five_sigma(self):
        # One context sampled a million times: pin the model to a single
        # settings pair and let the chunked generator do the volume.
        from bellctx.harness import run_experiment
        from bellctx.kolmogorov import SettingsSpec

        spec = optimal_settings()
        single = QuantumModel(photon_pair_state(), (spec.alice_angles[0],),
                              (spec.bob_angles[0],))
        n = 1_000_000
        result = run_experiment(single, n, SettingsSpec.uniform(
            (spec.alice_angles[0],), (spec.bob_angles[0],)), master_seed=60)
        for count, p in zip(result.counts.counts[0, 0].ravel(), single.behaviour()[0, 0].ravel()):
            sigma = math.sqrt(p * (1 - p) / n)
            observed = count / n
            assert abs(observed - p) <= 5 * sigma


class TestPolytopeMembership:
    def test_mixture_tables_are_local(self):
        rng = np.random.default_rng(8)
        strategies = tuple(enumerate_deterministic_strategies())
        for _ in range(20):
            model = MixedLhvModel(strategies, tuple(rng.dirichlet(np.ones(16))))
            result = local_polytope_membership(model.behaviour())
            assert result.is_local

    def test_quantum_optimal_angles_violate(self):
        result = local_polytope_membership(quantum_pair_model().behaviour())
        assert not result.is_local
        assert result.witness_s == pytest.approx(2 * RT2, abs=1e-10)

    def test_pr_box_witness_is_four(self):
        result = local_polytope_membership(PrBoxModel().behaviour())
        assert not result.is_local
        assert result.witness_s == pytest.approx(4.0)
        assert result.witness_combination == DEFAULT_COMBINATION

    def test_missing_cell_rejected(self):
        p = PrBoxModel().behaviour()[:, :1]
        with pytest.raises(ValueError, match="two settings"):
            local_polytope_membership(p)


class TestSerialization:
    @pytest.mark.parametrize("model", [
        DeterministicStrategy((1, -1), (-1, 1)),
        MixedLhvModel.uniform_over_all(),
        QuantumModel(photon_pair_state(), (0.0, np.pi / 4), (np.pi / 8, 3 * np.pi / 8)),
        PrBoxModel((1, 1)),
        superdeterministic_s4_example(),
        SignallingModel((-1, 1)),
    ])
    def test_json_round_trip(self, model):
        # The description behind model_hash is plain JSON: it survives a
        # dump/load unchanged and names the kind.
        description = model.to_json_dict()
        assert json.loads(json.dumps(description)) == description
        assert description["kind"] == model.kind

    def test_description_hash_is_stable_and_distinct(self):
        a = model_description_hash(PrBoxModel())
        b = model_description_hash(PrBoxModel())
        c = model_description_hash(PrBoxModel((1, 1)))
        assert a == b
        assert a != c

    def test_tables_json_round_trip(self):
        # The photon-pair tables file was written from this model's tables.
        p = tables_from_json(PHOTON_PAIR_TABLES.read_text())
        assert np.array_equal(p, quantum_pair_model().behaviour())


def test_chsh_value_requires_two_by_two():
    model = QuantumModel(photon_pair_state(), (0.0,), (0.0,))
    with pytest.raises(ValueError, match="two settings"):
        model_s(model)


def test_behaviour_is_read_only_and_built_once():
    model = quantum_pair_model()
    p = model.behaviour()
    assert model.behaviour() is p
    with pytest.raises(ValueError):
        p[0, 0, 0, 0] = 1.0


def test_validation_rejects_non_behaviours():
    with pytest.raises(ValueError, match="shape"):
        validate_behaviour(np.full((2, 2, 4), 0.25))
    with pytest.raises(ValueError, match="negative"):
        validate_behaviour(np.array([[[[1.5, -0.5], [0.0, 0.0]]]]))


def test_every_kind_emits_valid_tables():
    rng = np.random.default_rng(10)
    from bellctx.gleason import random_density
    zoo = [
        DeterministicStrategy((1, -1), (-1, 1)),
        MixedLhvModel.uniform_over_all(),
        MixedLhvModel(tuple(enumerate_deterministic_strategies()),
                      tuple(rng.dirichlet(np.ones(16)))),
        QuantumModel(random_density(4, rng), tuple(rng.uniform(0, np.pi, 2)),
                     tuple(rng.uniform(0, np.pi, 2))),
        PrBoxModel(),
        superdeterministic_s4_example(),
        SignallingModel(),
    ]
    for model in zoo:
        p = model.behaviour()
        assert p.shape == (2, 2, 2, 2)
        assert float(p.min()) >= 0.0
        assert np.abs(p.sum(axis=(2, 3)) - 1.0).max() <= 1e-12
