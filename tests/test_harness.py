"""Tests for the chunked Monte Carlo harness and its estimators."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bellctx import harness

from bellctx.chsh import CELLS, DEFAULT_COMBINATION, all_combinations
from bellctx.config import load_experiment
from bellctx.harness import (
    EVENT_FIELDS,
    EVENT_LOG_SCHEMA_VERSION,
    CountsTable,
    estimate_report,
    exact_estimates,
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
CONFIGS = Path(__file__).parent.parent / "src" / "bellctx" / "configs"
SHIPPED = sorted(path.name for path in CONFIGS.glob("*.cfg"))


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
        assert "0,1,1,-1,7" in table.to_csv().splitlines()
        assert estimate_report(table).n.tolist() == [[0, 7], [0, 0]]
        assert table.n_total == 7

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CountsTable(np.full((2, 2, 2, 2), -1))

    def test_csv_round_trip(self):
        rng = np.random.default_rng(0)
        table = CountsTable(rng.integers(0, 50, size=(2, 2, 2, 2)))
        assert CountsTable.from_csv(table.to_csv()) == table

    @pytest.mark.parametrize("text, message", [
        ("", "does not start with the header"),
        ("x,y,a,b,n\n0,0,1,1,5\n", "does not start with the header"),
        ("x_index,y_index,a,b,count\n", "at least one row"),
        ("x_index,y_index,a,b,count\n0,0,1,1\n", "five integers in every row"),
        ("x_index,y_index,a,b,count\n0,0,1,1,5\n0,1,1,1\n", "five integers in every row"),
        ("x_index,y_index,a,b,count\n0,0,1,1,x\n", "five integers in every row"),
        ("x_index,y_index,a,b,count\n0,0,2,1,5\n", "outcomes must be"),
        ("x_index,y_index,a,b,count\n-1,0,1,1,5\n", "outside the"),
    ], ids=["empty", "bad-header", "header-only", "short-row", "ragged-rows", "non-integer",
            "outcome-2", "negative-setting"])
    def test_malformed_csv_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            CountsTable.from_csv(text)

    def test_from_records_rejects_settings_off_the_grid(self):
        records = np.array([[0, 0, 2, 1, 1, 0]])
        with pytest.raises(ValueError, match="outside the 2x2 settings grid"):
            CountsTable.from_records(records, 2, 2)


class TestRunExperiment:
    def test_deterministic_strategy_records(self):
        strategy = DeterministicStrategy((1, -1), (-1, 1))
        result = run_experiment(strategy, 100, optimal_settings(), master_seed=3)
        for chunk in result.chunks:
            assert np.array_equal(chunk.a, np.take(strategy.a_of_x, chunk.x_index))
            assert np.array_equal(chunk.b, np.take(strategy.b_of_y, chunk.y_index))

    def test_same_seed_identical_logs(self, tmp_path):
        model = quantum_pair_model()
        spec = optimal_settings()
        logs = [log_bytes(run_experiment(model, 5000, spec, master_seed=4), tmp_path / name)
                for name in ("first.jsonl", "second.jsonl")]
        assert logs[0] == logs[1]

    def test_different_seed_differs(self):
        model = quantum_pair_model()
        spec = optimal_settings()
        r1 = run_experiment(model, 5000, spec, master_seed=5)
        r2 = run_experiment(model, 5000, spec, master_seed=6)
        assert r1.counts != r2.counts

    def test_worker_count_does_not_change_output(self, tmp_path):
        model = quantum_pair_model()
        spec = optimal_settings()
        serial = run_experiment(model, 100_000, spec, master_seed=7, chunk_size=8192)
        threaded = run_experiment(model, 100_000, spec, master_seed=7, chunk_size=8192,
                                  n_workers=8)
        assert serial.counts == threaded.counts
        assert (log_bytes(serial, tmp_path / "serial.jsonl")
                == log_bytes(threaded, tmp_path / "threaded.jsonl"))

    def test_thread_count_is_capped_at_the_chunk_count(self, monkeypatch):
        requested = []

        class RecordingExecutor:
            """Records the requested pool size and maps inline: no threads start."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingExecutor)
        result = run_experiment(quantum_pair_model(), 300, optimal_settings(), master_seed=7,
                                chunk_size=100, n_workers=10**6)
        assert requested == [3]
        assert [chunk.start_trial for chunk in result.chunks] == [0, 100, 200]
        assert result.counts.n_total == 300

    def test_counts_match_record_stream_exactly(self, tmp_path):
        model = quantum_pair_model()
        spec = optimal_settings()
        result = run_experiment(model, 7777, spec, master_seed=8, chunk_size=1000)
        result.write_event_log(tmp_path / "events.jsonl")
        _, records = read_event_log(tmp_path / "events.jsonl")
        assert CountsTable.from_records(records, 2, 2) == result.counts

    def test_context_counts_within_five_sigma_of_quarter(self):
        result = run_experiment(quantum_pair_model(), 1_000_000, optimal_settings(),
                                master_seed=9)
        sigma = math.sqrt(1_000_000 * 0.25 * 0.75)
        context_totals = result.counts.counts.sum(axis=(2, 3))
        assert np.all(np.abs(context_totals - 250_000) <= 5 * sigma)

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

    def test_trial_ids_are_contiguous(self, tmp_path):
        result = run_experiment(quantum_pair_model(), 2500, optimal_settings(),
                                master_seed=11, chunk_size=1000)
        result.write_event_log(tmp_path / "events.jsonl")
        _, records = read_event_log(tmp_path / "events.jsonl")
        assert records[:, 0].tolist() == list(range(2500))
        assert set(records[:, 5].tolist()) == {0, 1, 2}

    def test_settings_shape_mismatch_rejected(self):
        model = QuantumModel(photon_pair_state(), (0.0,), (0.0,))
        with pytest.raises(ValueError, match="settings"):
            run_experiment(model, 10, optimal_settings(), master_seed=0)

    def test_invalid_trial_count_rejected(self):
        with pytest.raises(ValueError, match="n_trials"):
            run_experiment(quantum_pair_model(), 0, optimal_settings(), master_seed=0)


def log_bytes(result, path: Path) -> bytes:
    result.write_event_log(path)
    return path.read_bytes()


def reference_log(result) -> bytes:
    """The event log with one json.dumps per trial: the oracle for the writer."""
    header = {"schema_version": EVENT_LOG_SCHEMA_VERSION, "master_seed": result.master_seed,
              "model_hash": result.model_hash}
    lines = [json.dumps(header)]
    for chunk in result.chunks:
        for offset in range(len(chunk.x_index)):
            values = (chunk.start_trial + offset, int(chunk.x_index[offset]),
                      int(chunk.y_index[offset]), int(chunk.a[offset]), int(chunk.b[offset]),
                      chunk.chunk_id)
            lines.append(json.dumps(dict(zip(EVENT_FIELDS, values)), separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode()


# A valid one-trial log, edited by the malformed-log cases below.
HEADER = '{"schema_version": 1, "master_seed": 0, "model_hash": "h"}\n'
RECORD = '{"trial_id":0,"x_index":1,"y_index":0,"a":-1,"b":1,"chunk_id":0}\n'


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
        assert records.shape == (1234, 6) and records.dtype == np.int64
        assert not records.flags.writeable
        assert CountsTable.from_records(records, 2, 2) == result.counts

    def test_record_lines_have_exact_field_set(self, tmp_path):
        result = run_experiment(quantum_pair_model(), 3, optimal_settings(), master_seed=13)
        lines = log_bytes(result, tmp_path / "events.jsonl").decode().splitlines()
        record = json.loads(lines[1])
        assert list(record) == list(EVENT_FIELDS)

    def test_valid_hand_written_log_parses(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(HEADER + RECORD + RECORD.replace('"trial_id":0', '"trial_id":1'))
        _, records = read_event_log(path)
        assert records.tolist() == [[0, 1, 0, -1, 1, 0], [1, 1, 0, -1, 1, 0]]

    @pytest.mark.parametrize("text, message", [
        (HEADER + RECORD.replace('"a":-1', '"a":2'), "line 2 is not an event record"),
        (HEADER + RECORD.replace('"b":1', '"b":0'), "line 2 is not an event record"),
        (HEADER + RECORD + RECORD.replace(",", ", "), "line 3 is not an event record"),
        (HEADER + RECORD + RECORD.replace('"chunk_id"', '"chunk"'), "line 3 is not"),
        (HEADER + RECORD + "\n", "line 3 is not an event record"),
        (HEADER + RECORD + RECORD.rstrip("\n"), "line 3 is not an event record"),
        (HEADER + RECORD.replace('"trial_id":0', '"trial_id":-5'), "line 2 is not"),
        (HEADER.replace('"schema_version": 1', '"schema_version": 2') + RECORD,
         "schema_version 2 is not 1"),
        ("[1]\n" + RECORD, "line 1 is not an event log header"),
        ("not json\n", "line 1 is not an event log header"),
        ("", "line 1 is not an event log header"),
    ], ids=["outcome-a-2", "outcome-b-0", "spaced", "renamed-field", "blank-line", "truncated",
            "negative-trial-id", "schema-2", "header-list", "header-not-json", "empty"])
    def test_malformed_log_rejected(self, tmp_path, text, message):
        path = tmp_path / "events.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_event_log(path)

    def test_failed_write_leaves_no_log_and_no_temp_file(self, tmp_path, monkeypatch):
        result = run_experiment(quantum_pair_model(), 3000, optimal_settings(),
                                master_seed=27, chunk_size=1000)
        encode = harness._encode_chunk
        encoded = []

        def fail_after_first_chunk(chunk):
            if encoded:
                raise RuntimeError("encoder failed")
            encoded.append(chunk.chunk_id)
            return encode(chunk)

        monkeypatch.setattr(harness, "_encode_chunk", fail_after_first_chunk)
        with pytest.raises(RuntimeError, match="encoder failed"):
            result.write_event_log(tmp_path / "events.jsonl")
        assert encoded == [0]
        assert list(tmp_path.iterdir()) == []

    def test_reading_holds_the_result_about_once(self, tmp_path):
        cfg = load_experiment(CONFIGS / "chsh_quantum.cfg")
        result = run_experiment(cfg.model, 300_000, cfg.settings, cfg.master_seed)
        path = tmp_path / "events.jsonl"
        result.write_event_log(path)
        del result
        tracemalloc.start()
        try:
            _, records = read_event_log(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert records.shape == (300_000, 6)
        assert peak < 1.5 * records.nbytes

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n_trials=st.integers(1, 5000), chunk_size=st.integers(1, 700),
           config=st.sampled_from(SHIPPED), workers=st.sampled_from([1, 2]))
    def test_round_trip_matches_counts_and_reference_encoder(self, tmp_path, n_trials,
                                                              chunk_size, config, workers):
        cfg = load_experiment(CONFIGS / config)
        result = run_experiment(cfg.model, n_trials, cfg.settings, cfg.master_seed,
                                chunk_size, workers)
        path = tmp_path / "events.jsonl"
        assert log_bytes(result, path) == reference_log(result)
        header, records = read_event_log(path)
        assert header["master_seed"] == cfg.master_seed
        assert CountsTable.from_records(records, cfg.settings.n_alice,
                                        cfg.settings.n_bob) == result.counts


class TestEstimators:
    def test_perfect_correlation_has_zero_se(self):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        for cell in CELLS:
            counts[cell][0, 0] = 50
            counts[cell][1, 1] = 50
        report = estimate_report(CountsTable(counts))
        assert report.e[0, 0] == 1.0
        assert report.se[0, 0] == 0.0

    def test_flat_cells_give_zero_correlation(self):
        counts = np.full((2, 2, 2, 2), 25, dtype=np.int64)
        report = estimate_report(CountsTable(counts))
        assert report.e[1, 1] == 0.0
        assert report.se[1, 1] == pytest.approx(1 / math.sqrt(100))

    def test_empty_context_is_absent_and_s_refuses(self):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        counts[0, 0, 0, 0] = 10
        report = estimate_report(CountsTable(counts))
        assert math.isnan(report.e[1, 1]) and math.isnan(report.se[1, 1])
        assert "1,1" not in report.to_json_dict()["correlations"]
        assert report.missing_cells == ((0, 1), (1, 0), (1, 1))
        assert report.s is None and report.s_se is None and report.s_best_value is None

    def test_quantum_correlation_near_exact(self):
        model = QuantumModel(photon_pair_state(), (0.0,), (math.pi / 8,))
        spec = SettingsSpec.uniform((0.0,), (math.pi / 8,))
        result = run_experiment(model, 1_000_000, spec, master_seed=14)
        report = estimate_report(result.counts)
        assert abs(report.e[0, 0] - RT2 / 2) <= 5 * report.se[0, 0]

    def test_chsh_estimate_near_two_root_two(self):
        result = run_experiment(quantum_pair_model(), 1_000_000, optimal_settings(),
                                master_seed=15)
        report = estimate_report(result.counts)
        assert abs(report.s - 2 * RT2) <= 5 * report.s_se

    def test_lhv_mixture_within_local_bound(self):
        rng = np.random.default_rng(16)
        model = MixedLhvModel(tuple(enumerate_deterministic_strategies()),
                              tuple(rng.dirichlet(np.ones(16))))
        result = run_experiment(model, 1_000_000, optimal_settings(), master_seed=17)
        report = estimate_report(result.counts)
        exact = exact_estimates(model, optimal_settings()).s
        assert abs(report.s - exact) <= 5 * report.s_se
        assert abs(exact) <= 2.0

    def test_pr_box_estimate_near_four(self):
        result = run_experiment(PrBoxModel(), 200_000, optimal_settings(), master_seed=18)
        report = estimate_report(result.counts)
        assert abs(report.s - 4.0) <= 5 * max(report.s_se, 1e-9)


class TestGlobalNormalization:
    def test_identity_with_per_context_estimator(self):
        result = run_experiment(quantum_pair_model(), 200_000, optimal_settings(),
                                master_seed=19)
        report = estimate_report(result.counts)
        expected = sum(
            DEFAULT_COMBINATION.sign(*cell) * report.e[cell] * report.n[cell] / report.n_total
            for cell in CELLS)
        assert report.s_global == pytest.approx(expected, abs=1e-12)

    def test_all_plus_strategy_lands_on_half(self):
        strategy = DeterministicStrategy((1, 1), (1, 1))
        result = run_experiment(strategy, 1_000_000, optimal_settings(), master_seed=20)
        report = estimate_report(result.counts)
        assert abs(report.s_global - 0.5) <= 5 * report.s_global_se

    def test_quantum_global_near_quarter_of_s(self):
        result = run_experiment(quantum_pair_model(), 1_000_000, optimal_settings(),
                                master_seed=21)
        report = estimate_report(result.counts)
        assert abs(report.s_global - RT2 / 2) <= 5 * report.s_global_se

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_report(CountsTable(np.zeros((2, 2, 2, 2))))


class TestNoSignallingAudit:
    def test_quantum_model_unflagged_at_one_million(self):
        result = run_experiment(quantum_pair_model(), 1_000_000, optimal_settings(),
                                master_seed=22)
        audits = estimate_report(result.counts).audits
        assert audits and not any(a["flagged"] for a in audits)

    def test_signalling_control_is_flagged(self):
        result = run_experiment(SignallingModel(), 100_000, optimal_settings(),
                                master_seed=23)
        audits = estimate_report(result.counts).audits
        flagged = [a for a in audits if a["flagged"]]
        assert flagged
        assert max(abs(a["delta"]) for a in flagged) > 0.9

    def test_superdeterministic_example_unflagged(self):
        result = run_experiment(superdeterministic_s4_example(), 1_000_000,
                                optimal_settings(), master_seed=24)
        audits = estimate_report(result.counts).audits
        assert not any(a["flagged"] for a in audits)


# Counts tables the shipped configs never produce. estimate_report_pins.json
# holds json.dumps(estimate_report(table).to_json_dict(), sort_keys=True) for
# each, recorded before the estimators became array expressions.
PINNED_TABLES = {
    # 3x2 settings: estimates and audits over three remote pairs, no S.
    "three_by_two": [[[[31, 7], [12, 25]], [[9, 40], [33, 14]]],
                     [[[22, 18], [5, 47]], [[16, 16], [29, 3]]],
                     [[[11, 36], [27, 8]], [[44, 2], [6, 19]]]],
    # 3x2 with context (2, 1) empty: left out of "correlations", no missing_cells.
    "three_by_two_one_empty": [[[[31, 7], [12, 25]], [[9, 40], [33, 14]]],
                               [[[22, 18], [5, 47]], [[16, 16], [29, 3]]],
                               [[[11, 36], [27, 8]], [[0, 0], [0, 0]]]],
    # 2x2 with context (1, 1) empty: S refused, S' still formed.
    "one_empty_context": [[[[9, 1], [2, 8]], [[5, 5], [5, 5]]],
                          [[[5, 5], [5, 5]], [[0, 0], [0, 0]]]],
    # Alice always +1: her pooled marginal is 1, so her z is 0.
    "alice_always_plus": [[[[30, 10], [0, 0]], [[12, 28], [0, 0]]],
                          [[[7, 33], [0, 0]], [[40, 5], [0, 0]]]],
    "one_trial": [[[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                  [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]],
}
PINNED_REPORTS = json.loads((Path(__file__).parent / "estimate_report_pins.json").read_text())

REPORT_KEYS = ["combination", "correlations", "missing_cells", "s", "s_se", "s_global",
               "s_global_se", "s_best_over_patterns", "no_signalling", "n_per_context",
               "n_total"]


class TestPinnedReports:
    @pytest.mark.parametrize("name", sorted(PINNED_TABLES))
    def test_report_json_is_unchanged(self, name):
        report = estimate_report(CountsTable(np.array(PINNED_TABLES[name]))).to_json_dict()
        assert json.dumps(report, sort_keys=True) == PINNED_REPORTS[name]
        assert list(report) == REPORT_KEYS


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

