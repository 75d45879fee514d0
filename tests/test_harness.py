"""Tests for the chunked Monte Carlo harness and its estimators."""

import json
import math

import numpy as np
import pytest

from bellctx.chsh import CELLS, DEFAULT_COMBINATION, all_combinations
from bellctx.harness import (
    CountsTable,
    MarginalAudit,
    TrialRecord,
    chsh_estimate,
    estimate_correlations,
    estimate_report,
    exact_estimates,
    global_normalized_chsh,
    no_signalling_audit,
    read_event_log,
    run_experiment,
)
from bellctx.kolmogorov import (
    SettingsSpec,
    build_mixed_context_space_from_tables,
    optimal_settings,
    szabo_chsh,
)
from bellctx.models import (
    DeterministicStrategy,
    MixedLhvModel,
    PrBoxModel,
    QuantumModel,
    SignallingModel,
    enumerate_deterministic_strategies,
    superdeterministic_s4_example,
)
from bellctx.quantum import photon_pair_state

RT2 = math.sqrt(2.0)


def quantum_pair_model() -> QuantumModel:
    spec = optimal_settings()
    return QuantumModel(photon_pair_state(), spec.alice_angles, spec.bob_angles)


def analyzer(theta: float) -> np.ndarray:
    """P+ - P- of a polarization analyzer at angle theta, as a plain matrix."""
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    return np.array([[c, s], [s, -c]])


def trace_rule_s(rho, spec: SettingsSpec) -> float:
    """Oracle on raw matrices: E(x, y) = Re Tr(rho (A_x (x) B_y)), signed sum."""
    return sum(
        DEFAULT_COMBINATION.sign(ix, iy) * np.trace(rho.matrix @ np.kron(
            analyzer(spec.alice_angles[ix]), analyzer(spec.bob_angles[iy]))).real
        for ix, iy in CELLS)


class TestCountsTable:
    def test_cells_and_totals(self):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        counts[0, 1, 0, 1] = 7  # (x=0, y=1, a=+1, b=-1)
        table = CountsTable(counts)
        assert table.cell(0, 1, 1, -1) == 7
        assert table.context_total(0, 1) == 7
        assert table.n_total == 7

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CountsTable(np.full((2, 2, 2, 2), -1))

    def test_csv_round_trip(self):
        rng = np.random.default_rng(0)
        table = CountsTable(rng.integers(0, 50, size=(2, 2, 2, 2)))
        assert CountsTable.from_csv(table.to_csv()) == table

    def test_addition_is_cellwise(self):
        rng = np.random.default_rng(1)
        a = CountsTable(rng.integers(0, 9, size=(2, 2, 2, 2)))
        b = CountsTable(rng.integers(0, 9, size=(2, 2, 2, 2)))
        assert a.add(b).n_total == a.n_total + b.n_total


class TestRunExperiment:
    def test_deterministic_strategy_records(self):
        strategy = DeterministicStrategy((1, -1), (-1, 1))
        result = run_experiment(strategy, 100, optimal_settings(), master_seed=3)
        for record in result.iter_records():
            assert record.a == strategy.a_of_x[record.x_index]
            assert record.b == strategy.b_of_y[record.y_index]

    def test_same_seed_identical_logs(self):
        model = quantum_pair_model()
        spec = optimal_settings()
        lines1 = list(run_experiment(model, 5000, spec, master_seed=4).event_log_lines())
        lines2 = list(run_experiment(model, 5000, spec, master_seed=4).event_log_lines())
        assert lines1 == lines2

    def test_different_seed_differs(self):
        model = quantum_pair_model()
        spec = optimal_settings()
        r1 = run_experiment(model, 5000, spec, master_seed=5)
        r2 = run_experiment(model, 5000, spec, master_seed=6)
        assert r1.counts != r2.counts

    def test_worker_count_does_not_change_output(self):
        model = quantum_pair_model()
        spec = optimal_settings()
        serial = run_experiment(model, 100_000, spec, master_seed=7, chunk_size=8192)
        threaded = run_experiment(model, 100_000, spec, master_seed=7, chunk_size=8192,
                                  n_workers=8)
        assert serial.counts == threaded.counts
        assert list(serial.event_log_lines()) == list(threaded.event_log_lines())

    def test_counts_match_record_stream_exactly(self):
        model = quantum_pair_model()
        spec = optimal_settings()
        result = run_experiment(model, 7777, spec, master_seed=8, chunk_size=1000)
        rebuilt = CountsTable.from_records(result.iter_records(), 2, 2)
        assert rebuilt == result.counts

    def test_context_counts_within_five_sigma_of_quarter(self):
        result = run_experiment(quantum_pair_model(), 1_000_000, optimal_settings(),
                                master_seed=9)
        sigma = math.sqrt(1_000_000 * 0.25 * 0.75)
        for cell in CELLS:
            assert abs(result.counts.context_total(*cell) - 250_000) <= 5 * sigma

    def test_cell_frequencies_within_five_sigma_of_exact(self):
        model = quantum_pair_model()
        spec = optimal_settings()
        n = 1_000_000
        result = run_experiment(model, n, spec, master_seed=10)
        for index, p in np.ndenumerate(model.behaviour()):
            p_joint = p * 0.25
            sigma = math.sqrt(p_joint * (1 - p_joint) / n)
            observed = result.counts.counts[index] / n
            assert abs(observed - p_joint) <= 5 * sigma

    def test_trial_ids_are_contiguous(self):
        result = run_experiment(quantum_pair_model(), 2500, optimal_settings(),
                                master_seed=11, chunk_size=1000)
        ids = [r.trial_id for r in result.iter_records()]
        assert ids == list(range(2500))
        assert {r.chunk_id for r in result.iter_records()} == {0, 1, 2}

    def test_settings_shape_mismatch_rejected(self):
        model = QuantumModel(photon_pair_state(), (0.0,), (0.0,))
        with pytest.raises(ValueError, match="settings"):
            run_experiment(model, 10, optimal_settings(), master_seed=0)

    def test_invalid_trial_count_rejected(self):
        with pytest.raises(ValueError, match="n_trials"):
            run_experiment(quantum_pair_model(), 0, optimal_settings(), master_seed=0)


class TestEventLog:
    def test_round_trip_and_header(self, tmp_path):
        model = quantum_pair_model()
        result = run_experiment(model, 1234, optimal_settings(), master_seed=12)
        path = tmp_path / "events.jsonl"
        result.write_event_log(path)
        header, records = read_event_log(path)
        assert header["schema_version"] == 1
        assert header["master_seed"] == 12
        assert header["model_hash"] == result.model_hash
        assert len(records) == 1234
        assert CountsTable.from_records(records, 2, 2) == result.counts

    def test_record_lines_have_exact_field_set(self):
        result = run_experiment(quantum_pair_model(), 3, optimal_settings(), master_seed=13)
        lines = list(result.event_log_lines())
        record = json.loads(lines[1])
        assert set(record) == {"trial_id", "x_index", "y_index", "a", "b", "chunk_id"}


class TestEstimators:
    def test_perfect_correlation_has_zero_se(self):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        for cell in CELLS:
            counts[cell][0, 0] = 50
            counts[cell][1, 1] = 50
        estimates = estimate_correlations(CountsTable(counts))
        assert estimates[(0, 0)].e == 1.0
        assert estimates[(0, 0)].se == 0.0

    def test_flat_cells_give_zero_correlation(self):
        counts = np.full((2, 2, 2, 2), 25, dtype=np.int64)
        estimates = estimate_correlations(CountsTable(counts))
        assert estimates[(1, 1)].e == 0.0
        assert estimates[(1, 1)].se == pytest.approx(1 / math.sqrt(100))

    def test_empty_context_is_absent_and_s_refuses(self):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        counts[0, 0, 0, 0] = 10
        estimates = estimate_correlations(CountsTable(counts))
        assert (1, 1) not in estimates
        with pytest.raises(ValueError, match="no trials"):
            chsh_estimate(estimates)

    def test_quantum_correlation_near_exact(self):
        model = QuantumModel(photon_pair_state(), (0.0,), (math.pi / 8,))
        spec = SettingsSpec.uniform((0.0,), (math.pi / 8,))
        result = run_experiment(model, 1_000_000, spec, master_seed=14)
        est = estimate_correlations(result.counts)[(0, 0)]
        assert abs(est.e - RT2 / 2) <= 5 * est.se

    def test_chsh_estimate_near_two_root_two(self):
        result = run_experiment(quantum_pair_model(), 1_000_000, optimal_settings(),
                                master_seed=15)
        s, se = chsh_estimate(estimate_correlations(result.counts))
        assert abs(s - 2 * RT2) <= 5 * se

    def test_lhv_mixture_within_local_bound(self):
        rng = np.random.default_rng(16)
        model = MixedLhvModel(tuple(enumerate_deterministic_strategies()),
                              tuple(rng.dirichlet(np.ones(16))))
        result = run_experiment(model, 1_000_000, optimal_settings(), master_seed=17)
        s, se = chsh_estimate(estimate_correlations(result.counts))
        exact = exact_estimates(model, optimal_settings()).s
        assert abs(s - exact) <= 5 * se
        assert abs(exact) <= 2.0

    def test_pr_box_estimate_near_four(self):
        result = run_experiment(PrBoxModel(), 200_000, optimal_settings(), master_seed=18)
        s, se = chsh_estimate(estimate_correlations(result.counts))
        assert abs(s - 4.0) <= 5 * max(se, 1e-9)


class TestGlobalNormalization:
    def test_identity_with_per_context_estimator(self):
        result = run_experiment(quantum_pair_model(), 200_000, optimal_settings(),
                                master_seed=19)
        counts = result.counts
        estimates = estimate_correlations(counts)
        s_global, _ = global_normalized_chsh(counts)
        expected = sum(
            DEFAULT_COMBINATION.sign(*cell) * estimates[cell].e
            * counts.context_total(*cell) / counts.n_total
            for cell in CELLS)
        assert s_global == pytest.approx(expected, abs=1e-12)

    def test_all_plus_strategy_lands_on_half(self):
        strategy = DeterministicStrategy((1, 1), (1, 1))
        result = run_experiment(strategy, 1_000_000, optimal_settings(), master_seed=20)
        s_global, se = global_normalized_chsh(result.counts)
        assert abs(s_global - 0.5) <= 5 * se

    def test_quantum_global_near_quarter_of_s(self):
        result = run_experiment(quantum_pair_model(), 1_000_000, optimal_settings(),
                                master_seed=21)
        s_global, se = global_normalized_chsh(result.counts)
        assert abs(s_global - RT2 / 2) <= 5 * se

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            global_normalized_chsh(CountsTable.zeros(2, 2))


class TestNoSignallingAudit:
    def test_quantum_model_unflagged_at_one_million(self):
        result = run_experiment(quantum_pair_model(), 1_000_000, optimal_settings(),
                                master_seed=22)
        audits = no_signalling_audit(result.counts, z_threshold=5.0)
        assert audits and not any(a.flagged for a in audits)

    def test_signalling_control_is_flagged(self):
        result = run_experiment(SignallingModel(), 100_000, optimal_settings(),
                                master_seed=23)
        audits = no_signalling_audit(result.counts, z_threshold=5.0)
        flagged = [a for a in audits if a.flagged]
        assert flagged
        assert max(abs(a.delta) for a in flagged) > 0.9

    def test_superdeterministic_example_unflagged(self):
        result = run_experiment(superdeterministic_s4_example(), 1_000_000,
                                optimal_settings(), master_seed=24)
        audits = no_signalling_audit(result.counts, z_threshold=5.0)
        assert not any(a.flagged for a in audits)


class TestConsistencyAcrossModules:
    def test_exact_s_matches_trace_route(self):
        model = quantum_pair_model()
        exact = exact_estimates(model, optimal_settings())
        assert exact.s == pytest.approx(
            trace_rule_s(photon_pair_state(), optimal_settings()), abs=1e-12)

    def test_exact_global_matches_mixed_space_route(self):
        rng = np.random.default_rng(25)
        from bellctx.gleason import random_density
        for _ in range(20):
            rho = random_density(4, rng)
            angles = rng.uniform(0, np.pi, 4)
            spec = SettingsSpec.uniform(angles[:2], angles[2:])
            model = QuantumModel(rho, spec.alice_angles, spec.bob_angles)
            exact = exact_estimates(model, spec)
            space = build_mixed_context_space_from_tables(model.behaviour(), spec)
            assert exact.s_global == pytest.approx(szabo_chsh(space), abs=1e-12)
            assert exact.s == pytest.approx(trace_rule_s(rho, spec), abs=1e-12)

    def test_estimate_report_json_is_serializable(self):
        result = run_experiment(quantum_pair_model(), 10_000, optimal_settings(),
                                master_seed=26)
        report = estimate_report(result.counts)
        payload = json.dumps(report.to_json_dict())
        loaded = json.loads(payload)
        assert loaded["n_total"] == 10_000
        assert loaded["s_best_over_patterns"]["pattern"] in {
            c.to_string() for c in all_combinations()}


def test_trial_record_validates_outcomes():
    with pytest.raises(ValueError):
        TrialRecord(0, 0, 0, a=2, b=1, chunk_id=0)
