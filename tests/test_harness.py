"""Tests for the chunked Monte Carlo harness and its estimators."""

import io
import itertools
import json
import math
import os
import stat
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

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
from bellctx.kolmogorov import SettingsSpec, optimal_settings
from bellctx.models import (
    DeterministicStrategy,
    MixedLhvModel,
    PrBoxModel,
    QuantumModel,
    SignallingModel,
    enumerate_deterministic_strategies,
    strict_json_loads,
    superdeterministic_s4_example,
)
from bellctx.quantum import photon_pair_state
from bellctx.rng import chunk_generator

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
        assert table.counts.sum() == 7

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CountsTable(np.full((2, 2, 2, 2), -1))

    def test_csv_round_trip(self):
        rng = np.random.default_rng(0)
        table = CountsTable(rng.integers(0, 50, size=(2, 2, 2, 2)))
        assert CountsTable.from_csv(table.to_csv()) == table

    def test_csv_count_above_two_to_the_53_is_exact(self):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        counts[1, 0, 1, 0] = 2**53 + 1  # the first integer a float64 rounds
        table = CountsTable(counts)
        assert "1,0,-1,1,9007199254740993" in table.to_csv().splitlines()
        assert CountsTable.from_csv(table.to_csv()).counts[1, 0, 1, 0] == 9007199254740993
        assert CountsTable.from_csv(table.to_csv()) == table

    # Counts up to about 2**58 with random low bits, so that most above 2**53
    # are not float64 values.
    @settings(max_examples=100, deadline=None)
    @given(counts=hnp.arrays(np.int64, st.tuples(st.integers(1, 3), st.integers(1, 3),
                                                 st.just(2), st.just(2)),
                             elements=st.builds(lambda high, low: high << 29 | low,
                                                st.integers(0, 2**29),
                                                st.integers(0, 2**29 - 1))))
    def test_csv_round_trip_property(self, counts):
        table = CountsTable(counts)
        assert CountsTable.from_csv(table.to_csv()) == table

    @pytest.mark.parametrize("text, message", [
        ("", "does not start with the header"),
        ("x,y,a,b,n\n0,0,1,1,5\n", "does not start with the header"),
        ("x_index,y_index,a,b,count\n", "at least one row"),
        ("x_index,y_index,a,b,count\n0,0,1,1\n", "five integers in every row"),
        ("x_index,y_index,a,b,count\n0,0,1,1,5\n0,1,1,1\n", "five integers in every row"),
        ("x_index,y_index,a,b,count\n0,0,1,1,x\n", "five integers in every row"),
        ("x_index,y_index,a,b,count\n0,0,1,1,9223372036854775808\n", "five integers in every row"),
        ("x_index,y_index,a,b,count\n0,0,1,1,5\n0,0,1,-1,0\n0,0,-1,1,0\n0,0,2,1,5\n",
         "outcomes must be"),
        ("x_index,y_index,a,b,count\n-1,0,1,1,5\n", "outside the"),
        ("x_index,y_index,a,b,count\n1000000000000000,0,1,1,5\n", "one row per cell"),
        ("x_index,y_index,a,b,count\n0,0,1,1,5\n0,1,1,1,5\n", "one row per cell"),
        ("x_index,y_index,a,b,count\n" + "0,0,1,1,5\n" * 4,
         r"repeats the cell \(x, y, a, b\) = \(0, 0, 1, 1\); it needs one row per cell"),
        ("x_index,y_index,a,b,count\n" + "".join(
            f"{x},{y},{a},{b},1\n" for x in (0, 1) for y in (0, 1) for a in (1, -1)
            for b in (1, -1) if (x, y, a, b) != (1, 0, -1, 1)) + "0,1,1,-1,1\n",
         r"repeats the cell \(x, y, a, b\) = \(0, 1, 1, -1\); it needs one row per cell"),
    ], ids=["empty", "bad-header", "header-only", "short-row", "ragged-rows", "non-integer",
            "count-above-int64", "outcome-2", "negative-setting", "grid-of-1e15-settings",
            "missing-cells", "duplicate-cell", "repeated-and-missing"])
    def test_malformed_csv_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            CountsTable.from_csv(text)

    def test_from_records_rejects_settings_off_the_grid(self):
        records = np.array([[0, 2, 1, 1]])
        with pytest.raises(ValueError, match="outside the 2x2 settings grid"):
            CountsTable.from_records(records, 2, 2)

    @pytest.mark.parametrize("records", [
        np.zeros((0, 4)),
        np.array([[0, 1, 1, 1]], dtype=float),
        np.array([[0, 1, 1, 1]], dtype=object),
        np.array([[0, 1, 1, 1]], dtype=np.uint64),
    ], ids=["empty-float", "float", "object", "uint64"])
    def test_from_records_rejects_non_integer_arrays(self, records):
        with pytest.raises(ValueError, match=f"integer array, got dtype {records.dtype}"):
            CountsTable.from_records(records, 2, 2)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_from_records_counts_any_signed_integer_dtype(self, dtype):
        rng = np.random.default_rng(8)
        records = np.column_stack([rng.integers(0, 3, 20_000), rng.integers(0, 4, 20_000),
                                   rng.choice([1, -1], (2, 20_000)).T])
        assert (CountsTable.from_records(records.astype(dtype), 3, 4)
                == CountsTable.from_records(records, 3, 4))
        assert CountsTable.from_records(records.astype(dtype), 3, 4).counts.sum() == 20_000

    def test_counts_do_not_depend_on_the_count_block(self, monkeypatch):
        rng = np.random.default_rng(7)
        records = np.column_stack([rng.integers(0, 3, 5000), rng.integers(0, 4, 5000),
                                   rng.choice([1, -1], (2, 5000)).T])
        whole = CountsTable.from_records(records, 3, 4)
        monkeypatch.setattr(harness, "_COUNT_ROWS", 37)
        assert CountsTable.from_records(records, 3, 4) == whole
        assert whole.counts.sum() == 5000
        assert whole.counts.tolist() == [[[[int(np.sum(
            (records[:, 0] == x) & (records[:, 1] == y) & (records[:, 2] == a)
            & (records[:, 3] == b))) for b in (1, -1)] for a in (1, -1)]
            for y in range(4)] for x in range(3)]


class TestRunExperiment:
    def test_deterministic_strategy_records(self):
        strategy = DeterministicStrategy((1, -1), (-1, 1))
        result = run_experiment(strategy, 100, optimal_settings(), master_seed=3)
        x_index, y_index, a, b = cell_columns(result.cells, 2)
        assert np.array_equal(a, np.take(strategy.a_of_x, x_index))
        assert np.array_equal(b, np.take(strategy.b_of_y, y_index))

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

    @pytest.mark.parametrize("n_trials, n_slices", [(300, 1), (70_000, 3)],
                             ids=["one-slice", "three-slices"])
    def test_thread_count_is_capped_at_the_slice_count(self, tmp_path, monkeypatch, n_trials,
                                                       n_slices):
        """A million workers draw on one thread per slice: the caller and
        n_slices - 1 helpers, all joined before run_experiment returns."""
        drawn, _ = record_draws(monkeypatch)
        threads = threading.enumerate()
        result = run_experiment(quantum_pair_model(), n_trials, optimal_settings(),
                                master_seed=7, chunk_size=100, n_workers=10**6)
        assert list(result.chunks) == list(range(0, n_trials, 100))
        assert len(drawn) == n_slices
        assert len({thread for thread, _ in drawn}) == n_slices
        assert result.counts.counts.sum() == n_trials
        assert threading.enumerate() == threads
        # The writer encodes on the calling thread.
        assert log_bytes(result, tmp_path / "events.jsonl") == reference_log(result)
        assert len(drawn) == n_slices
        assert threading.enumerate() == threads

    @pytest.mark.parametrize("n_trials, chunk_size, workers, slices", [
        (2000, 1, 2, [(0, 2000)]),
        (40_000, 1, 2, [(0, 32768), (32768, 40_000)]),
        (70_000, 3000, 2, [(0, 32768), (32768, 65536), (65536, 70_000)]),
        (70_000, 8192, 2, [(0, 32768), (32768, 65536), (65536, 70_000)]),
        (100_000, 40_000, 3, [(0, 32768), (32768, 65536), (65536, 98304),
                              (98304, 100_000)]),
        (70_000, 70_000, 2, [(0, 32768), (32768, 65536), (65536, 70_000)]),
        (100_000, 1000, 3, [(0, 32768), (32768, 65536), (65536, 98304), (98304, 100_000)]),
        (150_000, 50_000, 2, [(0, 32768), (32768, 65536), (65536, 98304), (98304, 131072),
                              (131072, 150_000)]),
    ], ids=["one-slice-of-tiny-chunks", "tiny-chunks", "chunks-of-3000", "four-chunks-a-slice",
            "chunks-of-40000", "one-chunk", "chunks-of-1000", "chunks-of-50000"])
    def test_tasks_are_slices_of_trials(self, tmp_path, monkeypatch, n_trials, chunk_size,
                                        workers, slices):
        """Thread k of n draws slices[k::n], slice k being trials from
        k * _DRAW_ROWS up to the next slice or n_trials whatever the chunk
        boundaries; the calling thread is thread 0, one worker starts no
        thread, and writing the log draws nothing."""
        for k, (start, stop) in enumerate(slices):
            assert (start, stop) == (k * harness._DRAW_ROWS,
                                     min((k + 1) * harness._DRAW_ROWS, n_trials))
        assert slices[-1][1] == n_trials
        threads = threading.enumerate()
        drawn, alive = record_draws(monkeypatch)
        serial = run_experiment(quantum_pair_model(), n_trials, optimal_settings(),
                                master_seed=7, chunk_size=chunk_size, n_workers=1)
        assert drawn == [(threading.current_thread(), start) for start, _ in slices]
        assert alive == [threads] * len(slices)
        drawn.clear()
        result = run_experiment(quantum_pair_model(), n_trials, optimal_settings(),
                                master_seed=7, chunk_size=chunk_size, n_workers=workers)
        n_threads = min(workers, len(slices))
        assert len({thread for thread, _ in drawn}) == n_threads
        by_thread = {}
        for thread, start in drawn:
            by_thread.setdefault(thread, []).append(start)
        caller = by_thread.pop(threading.current_thread())
        assert caller == [start for start, _ in slices[0::n_threads]]
        assert sorted(by_thread.values()) == [[start for start, _ in slices[k::n_threads]]
                                              for k in range(1, n_threads)]
        assert threading.enumerate() == threads
        assert result.counts == serial.counts
        assert np.array_equal(result.cells, serial.cells)
        drawn.clear()
        assert log_bytes(result, tmp_path / "events.jsonl") == reference_log(result)
        assert drawn == []

    @pytest.mark.parametrize("chunk_size", [7, 1000, 50_000])
    def test_any_range_of_trials_redraws_from_its_start(self, chunk_size):
        """_sample_cells gives a run's cells and counts of any range of its
        trials, whatever chunk boundaries the range starts on or crosses."""
        model, spec, n_trials = quantum_pair_model(), optimal_settings(), 120_000
        result = run_experiment(model, n_trials, spec, master_seed=12, chunk_size=chunk_size)
        cell_cums = harness._cell_cumulatives(model.behaviour())
        alice_cum, bob_cum = map(setting_cumulative, (spec.alice_probs, spec.bob_probs))
        rng = np.random.default_rng(chunk_size)
        ranges = [(0, 1), (n_trials - 1, 1), (chunk_size - 1, 2), (chunk_size, chunk_size),
                  *zip(rng.integers(0, n_trials, 20), rng.integers(1, 5 * chunk_size, 20))]
        for start, size in ranges:
            start, size = int(start), int(min(size, n_trials - start))
            cells = np.empty(size, dtype=result.cells.dtype)
            counts = harness._sample_cells(cells, np.empty((3, size)), cell_cums, alice_cum,
                                           bob_cum, 12, chunk_size, n_trials, start)
            assert np.array_equal(cells, result.cells[start:start + size]), (start, size)
            assert np.array_equal(counts, np.bincount(cells, minlength=16))

    @pytest.mark.parametrize("failing, drawer", [(32768, "helper"), (0, "caller")])
    def test_a_failed_draw_reaches_the_caller(self, monkeypatch, failing, drawer):
        """The exception of the slice that fails, on a helper thread or on the
        caller's, is the one run_experiment raises, after every helper is
        joined."""
        sample_cells, failures = harness._sample_cells, []

        def fail_on_one_slice(out, uniforms, *args):
            if args[-1] == failing:
                failures.append((threading.current_thread(), RuntimeError(f"slice {failing}")))
                raise failures[-1][1]
            return sample_cells(out, uniforms, *args)

        monkeypatch.setattr(harness, "_sample_cells", fail_on_one_slice)
        threads = threading.enumerate()
        with pytest.raises(RuntimeError) as error:
            run_experiment(quantum_pair_model(), 100_000, optimal_settings(), master_seed=7,
                           chunk_size=8192, n_workers=2)
        [(thread, raised)] = failures
        assert error.value is raised
        assert (thread is threading.current_thread()) == (drawer == "caller")
        assert threading.enumerate() == threads

    @pytest.mark.parametrize("chunk_size", [65536, 4_000_000])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_drawing_holds_a_byte_per_trial_and_a_few_mb_per_thread(self, monkeypatch,
                                                                     workers, chunk_size):
        """The cells column and, per thread, one slice's uniforms and work,
        whatever the chunk size: a bincount over the whole column would hold
        8 bytes per trial, and a buffer per chunk 24."""
        cfg = load_experiment(CONFIGS / "chsh_quantum.cfg")
        n_trials = 4_000_000
        # The first draw of a process imports numpy.random: keep that out.
        run_experiment(cfg.model, 1, cfg.settings, cfg.master_seed)
        drawn, _ = record_draws(monkeypatch)
        tracemalloc.start()
        try:
            result = run_experiment(cfg.model, n_trials, cfg.settings, cfg.master_seed,
                                    chunk_size, workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 123 slices of at most _DRAW_ROWS trials: one thread per worker.
        n_threads = len({thread for thread, _ in drawn})
        assert n_threads == workers
        assert result.cells.nbytes == n_trials
        assert peak <= n_trials + n_threads * 1_600_000

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

    def test_records_are_the_trials_in_order(self, tmp_path):
        """Trial t is the t-th record, and the header gives its chunk."""
        result = run_experiment(quantum_pair_model(), 2500, optimal_settings(),
                                master_seed=11, chunk_size=1000)
        result.write_event_log(tmp_path / "events.jsonl")
        header, records = read_event_log(tmp_path / "events.jsonl")
        assert np.array_equal(records, np.column_stack(cell_columns(result.cells, 2)))
        assert (header["n_trials"], header["chunk_size"]) == (2500, 1000)

    def test_settings_shape_mismatch_rejected(self):
        model = QuantumModel(photon_pair_state(), (0.0,), (0.0,))
        with pytest.raises(ValueError, match="settings"):
            run_experiment(model, 10, optimal_settings(), master_seed=0)

    def test_invalid_trial_count_rejected(self):
        with pytest.raises(ValueError, match="n_trials"):
            run_experiment(quantum_pair_model(), 0, optimal_settings(), master_seed=0)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_rejected(self, monkeypatch, workers):
        """Refused before anything is drawn, not an IndexError from a drawing thread."""
        drawn, _ = record_draws(monkeypatch)
        with pytest.raises(ValueError, match=f"n_workers must be at least 1, got {workers}$"):
            run_experiment(quantum_pair_model(), 10, optimal_settings(), master_seed=0,
                           n_workers=workers)
        assert drawn == []


def cell_columns(cells, n_bob: int) -> tuple[np.ndarray, ...]:
    """The x_index, y_index, a and b columns of trials, decoded from their cells."""
    context, outcome = np.divmod(cells.astype(np.intp), 4)
    return (*np.divmod(context, n_bob), 1 - 2 * (outcome >> 1), 1 - 2 * (outcome & 1))


def record_draws(monkeypatch) -> tuple[list, list]:
    """Wrap harness._sample_cells to record, for each slice it draws, the
    drawing thread and the slice's first trial, and the threads alive."""
    sample_cells, drawn, alive = harness._sample_cells, [], []

    def recording(out, uniforms, *args):
        drawn.append((threading.current_thread(), args[-1]))
        alive.append(threading.enumerate())
        return sample_cells(out, uniforms, *args)

    monkeypatch.setattr(harness, "_sample_cells", recording)
    return drawn, alive


def log_bytes(result, path: Path) -> bytes:
    result.write_event_log(path)
    return path.read_bytes()


def reference_line(x: int, y: int, a: int, b: int, n_alice: int, n_bob: int) -> str:
    """One trial's log line in an n_alice x n_bob grid's log, written field
    by field: each setting right-aligned to the digits of its side's largest
    index, each outcome to two columns. The oracle for the writer's lines."""
    wx, wy = len(str(n_alice - 1)), len(str(n_bob - 1))
    return f'{{"x_index":{x:>{wx}},"y_index":{y:>{wy}},"a":{a:>2},"b":{b:>2}}}\n'


def reference_lines(cells, n_alice: int, n_bob: int) -> bytes:
    """The log lines of trials with the given cells: the oracle for the encoder."""
    rows = zip(*(column.tolist() for column in cell_columns(cells, n_bob)))
    return "".join(reference_line(*values, n_alice, n_bob) for values in rows).encode()


def reference_log(result) -> bytes:
    """The event log with one reference_line per trial: the oracle for the writer."""
    spec = result.settings
    header = {"schema_version": EVENT_LOG_SCHEMA_VERSION, "master_seed": result.master_seed,
              "model_hash": result.model_hash, "n_trials": result.n_trials,
              "chunk_size": result.chunk_size, "n_alice": spec.n_alice, "n_bob": spec.n_bob}
    return (json.dumps(header) + "\n").encode() + reference_lines(result.cells, spec.n_alice,
                                                                  spec.n_bob)


def header_line(n_trials: int, n_alice: int = 2, n_bob: int = 2) -> str:
    """A valid header for n_trials trial lines, edited by the malformed-log cases below."""
    return ('{"schema_version": 3, "master_seed": 0, "model_hash": "h", '
            f'"n_trials": {n_trials}, "chunk_size": 65536, "n_alice": {n_alice}, '
            f'"n_bob": {n_bob}}}\n')


# A valid one-trial log, edited by the malformed-log cases below.
HEADER = header_line(1)
RECORD = '{"x_index":1,"y_index":0,"a":-1,"b": 1}\n'
# That trial in a format-1 log and in a format-2 log.
FORMAT_1_LOG = ('{"schema_version": 1, "master_seed": 0, "model_hash": "h"}\n'
                '{"trial_id":0,"x_index":1,"y_index":0,"a":-1,"b":1,"chunk_id":0}\n')
FORMAT_2_LOG = ('{"schema_version": 2, "master_seed": 0, "model_hash": "h", "n_trials": 1, '
                '"chunk_size": 65536}\n{"x_index":1,"y_index":0,"a":-1,"b":1}\n')


def read_allocations(path) -> tuple[int, object]:
    """The peak bytes tracemalloc sees while reading the log, and what the
    read returned or raised."""
    tracemalloc.start()
    try:
        try:
            outcome = read_event_log(path)
        except ValueError as error:
            outcome = error
        return tracemalloc.get_traced_memory()[1], outcome
    finally:
        tracemalloc.stop()


class TestEventLog:
    def test_round_trip_and_header(self, tmp_path):
        model = quantum_pair_model()
        result = run_experiment(model, 1234, optimal_settings(), master_seed=12,
                                chunk_size=500)
        path = tmp_path / "events.jsonl"
        result.write_event_log(path)
        header, records = read_event_log(path)
        assert header == {"schema_version": 3, "master_seed": 12,
                          "model_hash": result.model_hash, "n_trials": 1234,
                          "chunk_size": 500, "n_alice": 2, "n_bob": 2}
        assert records.shape == (1234, 4) and records.dtype == np.int8
        assert not records.flags.writeable
        assert CountsTable.from_records(records, 2, 2) == result.counts

    def test_record_lines_have_exact_field_set(self, tmp_path):
        result = run_experiment(quantum_pair_model(), 3, optimal_settings(), master_seed=13)
        lines = log_bytes(result, tmp_path / "events.jsonl").decode().splitlines()
        record = json.loads(lines[1])
        assert list(record) == list(EVENT_FIELDS) == ["x_index", "y_index", "a", "b"]

    def test_a_line_depends_on_its_cell_alone(self, tmp_path):
        result = run_experiment(quantum_pair_model(), 2000, optimal_settings(), master_seed=14,
                                chunk_size=300)
        lines = log_bytes(result, tmp_path / "events.jsonl").splitlines(keepends=True)[1:]
        by_cell = dict(zip(result.cells.tolist(), lines))
        assert len(by_cell) == 16
        assert lines == [by_cell[cell] for cell in result.cells.tolist()]
        assert by_cell[0b0101] == b'{"x_index":0,"y_index":1,"a": 1,"b":-1}\n'

    @pytest.mark.parametrize("n_alice, n_bob, width", [(2, 2, 40), (12, 3, 41)])
    def test_trial_t_starts_at_the_header_plus_t_line_widths(self, tmp_path, n_alice, n_bob,
                                                             width):
        """Every trial line has one width W, trial t's line starts at byte
        len(header) + t * W and is its cell's line, and the file is the
        header and n_trials lines of W bytes."""
        model, spec = grid_model(n_alice, n_bob)
        result = run_experiment(model, 3000, spec, master_seed=32, chunk_size=700)
        assert result.counts.counts[n_alice - 1].sum() > 0
        data = log_bytes(result, tmp_path / "events.jsonl")
        header = data[:data.index(b"\n") + 1]
        lines = harness._cell_lines(n_alice, n_bob)
        assert lines.shape == (4 * n_alice * n_bob, width)
        assert {len(line) for line in data.splitlines(keepends=True)[1:]} == {width}
        assert len(data) == len(header) + result.n_trials * width
        for t, cell in enumerate(result.cells.tolist()):
            start = len(header) + t * width
            assert data[start:start + width] == lines[cell].tobytes()

    def test_valid_hand_written_log_parses(self, tmp_path):
        path = tmp_path / "events.jsonl"
        # A 12-setting side right-aligns its settings to two columns.
        path.write_text(header_line(3, 12, 1) + '{"x_index": 1,"y_index":0,"a":-1,"b": 1}\n'
                        '{"x_index": 0,"y_index":0,"a":-1,"b": 1}\n'
                        '{"x_index":11,"y_index":0,"a":-1,"b": 1}\n')
        _, records = read_event_log(path)
        assert records.dtype == np.int8
        assert records.tolist() == [[1, 0, -1, 1], [0, 0, -1, 1], [11, 0, -1, 1]]

    def test_an_empty_run_reads_as_no_records(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(header_line(0))
        header, records = read_event_log(path)
        assert header["n_trials"] == 0 and records.shape == (0, 4)

    @pytest.mark.parametrize("text, message", [
        (HEADER + RECORD.replace('"a":-1', '"a": 2'), "line 2 is not an event record"),
        (HEADER + RECORD.replace('"b": 1', '"b": 0'), "line 2 is not an event record"),
        (HEADER + RECORD.replace('"b": 1', '"b":+1'), "line 2 is not an event record"),
        (HEADER + RECORD.replace('"b": 1', '"b":1 '), "line 2 is not an event record"),
        (header_line(2) + RECORD + RECORD.replace(",", ", "), "line 3 is not an event record"),
        (header_line(2) + RECORD + RECORD.replace('"b"', '"B"'), "line 3 is not"),
        (HEADER + RECORD + "\n", "line 3 is not an event record"),
        (header_line(2) + RECORD + RECORD.rstrip("\n"), "line 3 is not an event record"),
        (HEADER + RECORD.replace('"x_index":1', '"x_index":-5'), "line 2 is not"),
        (HEADER + RECORD.replace('"x_index":1', '"x_index":1000000000'),
         "line 2 is not an event record"),
        (HEADER + RECORD.replace('"x_index":1', '"x_index":2'), "line 2 is not an event record"),
        (HEADER.replace('"n_alice": 2', '"n_alice": 12') + RECORD,
         "line 2 is not an event record"),
        (HEADER.replace('"schema_version": 3', '"schema_version": 2') + RECORD,
         "schema_version 2 is not 3"),
        (HEADER.replace('"master_seed": 0', '"master_seed": 5, "master_seed": 7') + RECORD,
         "line 1 is not an event log header"),
        (HEADER.replace('"schema_version": 3', '"schema_version": 3.0') + RECORD,
         "schema_version 3.0 is not 3"),
        (HEADER.replace('"schema_version": 3', '"schema_version": true') + RECORD,
         "schema_version True is not 3"),
        ("[1]\n" + RECORD, "line 1 is not an event log header"),
        ("not json\n", "line 1 is not an event log header"),
        ("", "line 1 is not an event log header"),
        (HEADER.replace('"master_seed": 0, ', "") + RECORD,
         "master_seed None is not a non-negative int"),
        (HEADER.replace('"master_seed": 0', '"master_seed": -1') + RECORD,
         "master_seed -1 is not a non-negative int"),
        (HEADER.replace('"master_seed": 0', '"master_seed": 0.0') + RECORD,
         "master_seed 0.0 is not a non-negative int"),
        (HEADER.replace('"master_seed": 0', '"master_seed": false') + RECORD,
         "master_seed False is not a non-negative int"),
        (HEADER.replace('"model_hash": "h", ', "") + RECORD, "model_hash None is not a str"),
        (HEADER.replace('"model_hash": "h"', '"model_hash": 5') + RECORD,
         "model_hash 5 is not a str"),
        (HEADER.replace('"n_trials": 1, ', "") + RECORD, "n_trials None is not a count"),
        (HEADER.replace('"n_trials": 1', '"n_trials": -1') + RECORD,
         "n_trials -1 is not a count"),
        (HEADER.replace('"n_trials": 1', '"n_trials": 1.0') + RECORD,
         "n_trials 1.0 is not a count"),
        (HEADER.replace('"n_trials": 1', '"n_trials": true') + RECORD,
         "n_trials True is not a count"),
        (HEADER.replace('"chunk_size": 65536, ', "") + RECORD,
         "chunk_size None is not a positive int"),
        (HEADER.replace('"chunk_size": 65536', '"chunk_size": 0') + RECORD,
         "chunk_size 0 is not a positive int"),
        (HEADER.replace('"chunk_size": 65536', '"chunk_size": 65536.0') + RECORD,
         "chunk_size 65536.0 is not a positive int"),
        (HEADER.replace('"chunk_size": 65536', '"chunk_size": true') + RECORD,
         "chunk_size True is not a positive int"),
        (HEADER.replace('"n_alice": 2, ', "") + RECORD, "n_alice None is not a positive int"),
        (HEADER.replace('"n_alice": 2', '"n_alice": 0') + RECORD,
         "n_alice 0 is not a positive int"),
        (HEADER.replace('"n_bob": 2', '"n_bob": -2') + RECORD, "n_bob -2 is not a positive int"),
        (HEADER.replace('"n_bob": 2', '"n_bob": "2"') + RECORD,
         "n_bob '2' is not a positive int"),
        (HEADER.replace('"n_bob": 2', '"n_bob": true') + RECORD,
         "n_bob True is not a positive int"),
        (HEADER.replace('"n_alice": 2', '"n_alice": 100000') + RECORD,
         "grid 100000x2 has 800000 cells, more than 65536$"),
        (HEADER + RECORD + RECORD, "has 2 trial lines, but its header's n_trials is 1"),
    ], ids=["outcome-a-2", "outcome-b-0", "outcome-plus-sign", "outcome-left-aligned",
            "spaced", "renamed-field", "blank-line", "truncated", "negative-setting",
            "setting-10-digits", "setting-off-the-grid", "lines-of-a-narrower-grid",
            "schema-2", "header-repeated-key", "schema-3.0", "schema-true", "header-list",
            "header-not-json", "empty", "master-seed-missing", "master-seed-negative",
            "master-seed-float", "master-seed-false", "model-hash-missing", "model-hash-int",
            "n-trials-missing", "n-trials-negative", "n-trials-float", "n-trials-true",
            "chunk-size-missing", "chunk-size-0", "chunk-size-float", "chunk-size-true",
            "n-alice-missing", "n-alice-0", "n-bob-negative", "n-bob-str", "n-bob-true",
            "grid-too-large", "extra-line"])
    def test_malformed_log_rejected(self, tmp_path, text, message):
        path = tmp_path / "events.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_event_log(path)

    @pytest.mark.parametrize("text, version", [(FORMAT_1_LOG, 1), (FORMAT_2_LOG, 2)],
                             ids=["format-1", "format-2"])
    def test_an_older_format_is_refused(self, tmp_path, text, version):
        path = tmp_path / "events.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError) as error:
            read_event_log(path)
        assert str(error.value) == f"{path}: event log schema_version {version} is not 3"

    def test_a_dropped_line_is_refused(self, tmp_path):
        result = run_experiment(quantum_pair_model(), 1200, optimal_settings(), master_seed=15)
        lines = log_bytes(result, tmp_path / "events.jsonl").splitlines(keepends=True)
        path = tmp_path / "dropped.jsonl"
        path.write_bytes(b"".join(lines[:600] + lines[601:]))
        with pytest.raises(ValueError) as error:
            read_event_log(path)
        assert str(error.value) == (f"{path}: event log has 1199 trial lines, but its "
                                    f"header's n_trials is 1200")

    def test_a_duplicated_line_is_refused(self, tmp_path):
        """A 20-trial log with one line duplicated and two lines swapped."""
        result = run_experiment(quantum_pair_model(), 20, optimal_settings(), master_seed=16)
        lines = log_bytes(result, tmp_path / "events.jsonl").splitlines(keepends=True)
        lines.insert(9, lines[4])
        lines[2], lines[15] = lines[15], lines[2]
        path = tmp_path / "duplicated.jsonl"
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueError) as error:
            read_event_log(path)
        assert str(error.value) == (f"{path}: event log has 21 trial lines, but its "
                                    f"header's n_trials is 20")

    def test_swapped_lines_read_without_error(self, tmp_path):
        """The reader checks each line and their number, not their order."""
        result = run_experiment(quantum_pair_model(), 20, optimal_settings(), master_seed=16)
        lines = log_bytes(result, tmp_path / "events.jsonl").splitlines(keepends=True)
        lines[2], lines[15] = lines[15], lines[2]
        path = tmp_path / "swapped.jsonl"
        path.write_bytes(b"".join(lines))
        _, records = read_event_log(path)
        expected = np.column_stack(cell_columns(result.cells, 2))
        expected[[1, 14]] = expected[[14, 1]]
        assert np.array_equal(records, expected)

    @pytest.mark.parametrize("n_trials", [3, 10**12])
    def test_an_oversized_n_trials_is_refused_before_allocating(self, tmp_path, n_trials):
        """Two lines, 80 bytes, hold two trials and no more: the records are
        allocated for no more trials than the file has lines, and 10^12 int32
        records would need 16 TB."""
        line = '{"x_index":0,"y_index":0,"a": 1,"b": 1}\n'
        path = tmp_path / "events.jsonl"
        path.write_text(header_line(n_trials) + 2 * line)
        peak, error = read_allocations(path)
        assert str(error) == (f"{path}: event log has 2 trial lines, but its header's "
                              f"n_trials is {n_trials}")
        assert peak < 1 << 20
        path.write_text(header_line(2) + 2 * line)
        assert read_event_log(path)[1].tolist() == [[0, 0, 1, 1]] * 2

    @pytest.mark.parametrize("lines", [1, 24, 25])
    def test_a_grid_above_the_table_bound_is_refused_whatever_its_lines(self, tmp_path,
                                                                        monkeypatch, lines):
        """With a bound of 16 cells, a 3x2 grid's 24 cells are refused however
        many lines the log has, and a 2x2 grid's 16 are read."""
        monkeypatch.setattr(harness, "_TABLE_CELLS", 16)
        path = tmp_path / "events.jsonl"
        path.write_text(header_line(lines, 3, 2) + lines * reference_line(2, 1, -1, 1, 3, 2))
        with pytest.raises(ValueError) as error:
            read_event_log(path)
        assert str(error.value) == f"{path}: event log grid 3x2 has 24 cells, more than 16"
        path.write_text(header_line(lines) + lines * reference_line(1, 1, -1, 1, 2, 2))
        assert read_event_log(path)[1].tolist() == [[1, 1, -1, 1]] * lines

    @pytest.mark.parametrize("n_alice, n_bob", [(200, 100), (16385, 1), (128, 128),
                                                 (16384, 1)])
    def test_a_large_grid_round_trips_or_is_refused_by_the_run(self, tmp_path, n_alice, n_bob):
        """A 1,000-trial run on a grid of more than 65,536 cells is refused
        before it draws; one at the bound writes a log that reads back."""
        rng = np.random.default_rng(n_alice)
        model = DeterministicStrategy(tuple(rng.choice([1, -1], n_alice).tolist()),
                                      tuple(rng.choice([1, -1], n_bob).tolist()))
        spec = SettingsSpec.uniform(np.linspace(0.0, np.pi, n_alice),
                                    np.linspace(0.1, 1.3, n_bob))
        path = tmp_path / "events.jsonl"
        if 4 * n_alice * n_bob > 65536:
            with pytest.raises(ValueError) as error:
                run_experiment(model, 1000, spec, master_seed=34)
            assert str(error.value) == (f"settings grid {n_alice}x{n_bob} has "
                                        f"{4 * n_alice * n_bob} cells, more than 65536")
            return
        result = run_experiment(model, 1000, spec, master_seed=34)
        assert log_bytes(result, path) == reference_log(result)
        header, records = read_event_log(path)
        assert (header["n_alice"], header["n_bob"]) == (n_alice, n_bob)
        assert records.dtype == (np.int8 if n_alice <= 128 else np.int16)
        assert np.array_equal(records, np.column_stack(cell_columns(result.cells, n_bob)))
        assert CountsTable.from_records(records, n_alice, n_bob) == result.counts

    def test_an_oversized_grid_is_refused_before_allocating(self, tmp_path):
        """A 10^9 x 10^9 grid's cell lines would need 2e20 bytes."""
        path = tmp_path / "events.jsonl"
        path.write_text(header_line(1, 10**9, 10**9) + RECORD)
        peak, error = read_allocations(path)
        assert str(error) == (f"{path}: event log grid {10**9}x{10**9} has {4 * 10**18} "
                              f"cells, more than 65536")
        assert peak < 1 << 20

    @pytest.mark.parametrize("piece", [16, 64, 97, 1000])
    def test_small_pieces_read_the_same_records(self, tmp_path, monkeypatch, piece):
        result = run_experiment(quantum_pair_model(), 700, optimal_settings(), master_seed=29,
                                chunk_size=90)
        path = tmp_path / "events.jsonl"
        result.write_event_log(path)
        header, records = read_event_log(path)
        monkeypatch.setattr(harness, "_READ_BYTES", piece)
        small_header, small_records = read_event_log(path)
        assert small_header == header
        assert np.array_equal(small_records, records)
        assert small_records.shape == (700, 4) and not small_records.flags.writeable

    @pytest.mark.parametrize("shift", [-1, 0, 1], ids=["before", "at", "after"])
    @pytest.mark.parametrize("case", ["bad-line", "truncated", "longer-than-a-piece"])
    def test_a_bad_line_at_a_piece_boundary_is_named(self, tmp_path, monkeypatch, case,
                                                      shift):
        lines = [reference_line(i % 2, i // 2 % 2, 1 - 2 * (i % 3 == 0), -1, 2, 2)
                 for i in range(8)]
        if case == "bad-line":
            lines[5] = lines[5].replace('"b":-1', '"b": 2')
        elif case == "truncated":
            lines[5:] = [lines[5].rstrip("\n")]
        else:
            lines[5] = lines[5].replace('"b"', " " * 400 + '"b"')
        path = tmp_path / "events.jsonl"
        path.write_text(header_line(len(lines)) + "".join(lines))
        # The trial lines start a new piece at line 7, the sixth record, give
        # or take one byte; the longer line is also longer than 64 bytes.
        boundary = len("".join(lines[:5])) + shift
        expected = f"{path}: line 7 is not an event record: {lines[5].encode()[:200]!r}"
        for piece in (boundary, 64) if case == "longer-than-a-piece" else (boundary,):
            monkeypatch.setattr(harness, "_READ_BYTES", piece)
            with pytest.raises(ValueError) as error:
                read_event_log(path)
            assert str(error.value) == expected

    def test_failed_write_leaves_no_log_and_no_temp_file(self, tmp_path, monkeypatch):
        result = run_experiment(quantum_pair_model(), 30_000, optimal_settings(),
                                master_seed=27, chunk_size=10_000, n_workers=2)
        encode, slices = harness._encode, []

        def fail_after_first_slice(cells, lines):
            slices.append(len(cells))
            if len(slices) > 1:
                raise RuntimeError("encoder failed")
            return encode(cells, lines)

        monkeypatch.setattr(harness, "_encode", fail_after_first_slice)
        with pytest.raises(RuntimeError, match="encoder failed"):
            result.write_event_log(tmp_path / "events.jsonl")
        assert list(tmp_path.iterdir()) == []
        # The slices are encoded as they are written: none after the failure.
        assert slices == [8192, 8192]

    def test_many_drawing_threads_give_the_reference_log(self, tmp_path, monkeypatch):
        """More drawing threads than CPUs and a short switch interval, so
        threads finish out of order; the log is still written in trial order.
        Eight slices of _DRAW_ROWS trials, across chunks of 1,000, keep all
        eight threads."""
        drawn, _ = record_draws(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = run_experiment(quantum_pair_model(), 8 * 32_000, optimal_settings(),
                                    master_seed=30, chunk_size=1000, n_workers=8)
            written = log_bytes(result, tmp_path / "events.jsonl")
        finally:
            sys.setswitchinterval(interval)
        assert len({thread for thread, _ in drawn}) == 8
        assert written == reference_log(result)

    def test_cell_lines_follow_the_cell_index(self):
        """Each cell's line is its reference line, at the cell's counts-table
        index, and a grid's lines have one width."""
        n_alice, n_bob = 12, 11
        lines = harness._cell_lines(n_alice, n_bob)
        assert lines.shape == (4 * n_alice * n_bob, 42)
        for x, y, a, b in itertools.product(range(n_alice), range(n_bob), (1, -1), (1, -1)):
            cell = harness._cell_index(*np.array([[x], [y], [a], [b]]), n_bob)[0]
            assert cell == np.ravel_multi_index((x, y, a < 0, b < 0), (n_alice, n_bob, 2, 2))
            assert lines[cell].tobytes() == reference_line(x, y, a, b, n_alice, n_bob).encode()

    @pytest.mark.parametrize("n_alice,n_bob,n_trials", [
        (2, 2, 1),
        (2, 2, 8192),
        (2, 2, 25_000),
        (1, 1, 5),
        (3, 4, 300),
        (10, 10, 9000),
        (12, 11, 5000),
    ], ids=["one-trial", "one-slice", "three-slices", "one-context", "3x4", "10x10", "12x11"])
    def test_random_cells_match_reference_encoder(self, n_alice, n_bob, n_trials):
        rng = np.random.default_rng(n_trials)
        cells = rng.integers(0, n_alice * n_bob * 4, n_trials).astype(np.uint16)
        encoded = harness._encode(cells, harness._cell_lines(n_alice, n_bob)).tobytes()
        assert encoded == reference_lines(cells, n_alice, n_bob)

    def test_two_digit_setting_index_matches_reference_encoder(self, tmp_path):
        spec = SettingsSpec.uniform(np.linspace(0.0, np.pi, 12), (0.1, 0.7, 1.3))
        model = QuantumModel(photon_pair_state(), spec.alice_angles, spec.bob_angles)
        result = run_experiment(model, 5000, spec, master_seed=28, chunk_size=1500)
        assert result.counts.counts[10:].sum() > 0
        assert log_bytes(result, tmp_path / "events.jsonl") == reference_log(result)

    def test_reading_holds_the_result_about_once(self, tmp_path):
        cfg = load_experiment(CONFIGS / "chsh_quantum.cfg")
        result = run_experiment(cfg.model, 300_000, cfg.settings, cfg.master_seed)
        path = tmp_path / "events.jsonl"
        result.write_event_log(path)
        del result
        peak, (_, records) = read_allocations(path)
        assert records.shape == (300_000, 4)
        assert peak < 1.5 * records.nbytes

    def test_reading_holds_4_bytes_per_trial(self, tmp_path):
        """int8 records on a 2x2 grid, allocated for the header's n_trials,
        plus a block's work; int32 records would need four times that."""
        cfg = load_experiment(CONFIGS / "chsh_quantum.cfg")
        result = run_experiment(cfg.model, 400_000, cfg.settings, cfg.master_seed)
        path = tmp_path / "events.jsonl"
        result.write_event_log(path)
        del result
        peak, (_, records) = read_allocations(path)
        assert records.shape == (400_000, 4) and records.dtype == np.int8
        assert peak <= 4 * 400_000 + 4 * harness._READ_BYTES

    @pytest.mark.parametrize("n_alice, dtype", [(2, np.int8), (128, np.int8), (129, np.int16)])
    def test_records_take_the_grids_narrowest_signed_dtype(self, tmp_path, n_alice, dtype):
        """Up to 128 settings a side the records are int8, above it int16,
        and their values are the trials' either way."""
        model, spec = grid_model(n_alice, 1)
        result = run_experiment(model, 3000, spec, master_seed=35, chunk_size=700)
        path = tmp_path / "events.jsonl"
        result.write_event_log(path)
        _, records = read_event_log(path)
        assert records.dtype == dtype
        assert np.array_equal(records, np.column_stack(cell_columns(result.cells, 1)))
        assert np.array_equal(records, reference_read(path)[1])
        assert records[:, 0].max() == n_alice - 1

    def test_a_block_allocates_under_four_times_its_size(self, tmp_path):
        """Beside the records, reading holds a block, its cells' lines and
        their bytes, and a few per-line columns, and no more."""
        cfg = load_experiment(CONFIGS / "chsh_quantum.cfg")
        result = run_experiment(cfg.model, 20_000, cfg.settings, cfg.master_seed)
        path = tmp_path / "events.jsonl"
        result.write_event_log(path)
        peak, (_, records) = read_allocations(path)
        assert records.shape == (20_000, 4)
        assert peak - records.nbytes <= 4 * harness._READ_BYTES

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


def reference_read(path) -> tuple[dict, np.ndarray]:
    """The oracle for read_event_log: the header checked field by field, then
    the file split at its newlines and each line looked up among the
    reference lines of the header's grid."""
    header_text, _, body = Path(path).read_bytes().partition(b"\n")
    try:
        header = strict_json_loads(header_text)
        version = header["schema_version"]
    except (ValueError, TypeError, KeyError):
        raise ValueError(f"{path}: line 1 is not an event log header") from None
    if type(version) is not int or version != 3:
        raise ValueError(f"{path}: event log schema_version {version!r} is not 3")

    def need(name, ok, what):
        if not ok(header.get(name)):
            raise ValueError(f"{path}: event log {name} {header.get(name)!r} is not {what}")

    need("master_seed", lambda v: type(v) is int and v >= 0, "a non-negative int")
    need("model_hash", lambda v: isinstance(v, str), "a str")
    need("n_trials", lambda v: type(v) is int and v >= 0, "a count")
    for name in ("chunk_size", "n_alice", "n_bob"):
        need(name, lambda v: type(v) is int and v > 0, "a positive int")
    n_alice, n_bob = header["n_alice"], header["n_bob"]
    if 4 * n_alice * n_bob > harness._TABLE_CELLS:
        raise ValueError(f"{path}: event log grid {n_alice}x{n_bob} has {4 * n_alice * n_bob} "
                         f"cells, more than {harness._TABLE_CELLS}")
    cells = {reference_line(*cell, n_alice, n_bob).encode(): cell for cell in
             itertools.product(range(n_alice), range(n_bob), (1, -1), (1, -1))}
    *lines, last = body.split(b"\n")
    records = []
    for number, line in enumerate([line + b"\n" for line in lines] + [last] * bool(last), 2):
        if line not in cells:
            raise ValueError(f"{path}: line {number} is not an event record: {line[:200]!r}")
        records.append(cells[line])
    if len(records) != header["n_trials"]:
        raise ValueError(f"{path}: event log has {len(records)} trial lines, but its "
                         f"header's n_trials is {header['n_trials']}")
    records = np.array(records, dtype=np.int64).reshape(-1, len(EVENT_FIELDS))
    records.setflags(write=False)
    return header, records


def read_outcome(read, path):
    """What a reader makes of the log: (header, records) or its error text."""
    try:
        return read(path)
    except ValueError as error:
        return str(error)


# The block sizes each oracle case is read at; 1 << 16 is the default.
READ_SIZES = (64, 97, 1000, 1 << 16, 1 << 18)


def assert_reads_as_reference(path, monkeypatch, sizes=READ_SIZES):
    expected = read_outcome(reference_read, path)
    for size in sizes:
        monkeypatch.setattr(harness, "_READ_BYTES", size)
        got = read_outcome(read_event_log, path)
        if isinstance(expected, str):
            assert got == expected, size
        else:
            assert not isinstance(got, str), (size, got)
            assert got[0] == expected[0]
            n_settings = max(expected[0]["n_alice"], expected[0]["n_bob"])
            assert got[1].dtype == (np.int8 if n_settings <= 128 else np.int16), size
            assert got[1].shape == expected[1].shape
            assert not got[1].flags.writeable
            assert np.array_equal(got[1], expected[1]), size
    return expected


def edited(text: bytes, kind: str, rng) -> bytes:
    """One seeded single edit of a log's bytes."""
    lines = text.splitlines(keepends=True)
    i, j = sorted(rng.choice(np.arange(1, len(lines)), 2, replace=False))
    at = int(rng.integers(0, len(text) - 1))
    if kind == "byte-swap":
        return text[:at] + text[at + 1:at + 2] + text[at:at + 1] + text[at + 2:]
    if kind == "insertion":
        return text[:at] + bytes([rng.choice(list(b'0159-,:"}\n\r x'))]) + text[at:]
    if kind == "deletion":
        return text[:at] + text[at + 1:]
    if kind == "swapped-lines":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "duplicated-line":
        lines.insert(j, lines[i])
    elif kind == "crlf":
        lines[i:] = [line.replace(b"\n", b"\r\n") for line in lines[i:]]
    elif kind == "no-final-newline":
        return text[:-1]
    return b"".join(lines)


def grid_model(n_alice: int, n_bob: int) -> tuple[QuantumModel, SettingsSpec]:
    """A photon-pair model on an n_alice x n_bob grid of uniform settings."""
    spec = SettingsSpec.uniform(np.linspace(0.0, np.pi, n_alice), np.linspace(0.1, 1.3, n_bob))
    return QuantumModel(photon_pair_state(), spec.alice_angles, spec.bob_angles), spec


def setting_line(x: bytes, y: bytes = b"0") -> bytes:
    """A line with the given setting fields and outcomes -1, +1."""
    return b'{"x_index":' + x + b',"y_index":' + y + b',"a":-1,"b": 1}\n'


class TestReaderOracle:
    """read_event_log gives the records or the error text of reference_read,
    at every block size, on writer logs and on edits of them."""

    @pytest.mark.parametrize("chunk_size", [1, 90, 65536])
    @pytest.mark.parametrize("config", SHIPPED)
    def test_shipped_configs(self, tmp_path, monkeypatch, config, chunk_size):
        cfg = load_experiment(CONFIGS / config)
        for workers in (1, 2):
            result = run_experiment(cfg.model, 1200, cfg.settings, cfg.master_seed,
                                    chunk_size, workers)
            path = tmp_path / f"events-{workers}.jsonl"
            result.write_event_log(path)
            _, records = assert_reads_as_reference(path, monkeypatch)
            assert CountsTable.from_records(records, cfg.settings.n_alice,
                                            cfg.settings.n_bob) == result.counts

    @pytest.mark.parametrize("n_alice, n_bob", [(12, 3), (10, 10), (11, 11)])
    def test_setting_grids(self, tmp_path, monkeypatch, n_alice, n_bob):
        model, spec = grid_model(n_alice, n_bob)
        result = run_experiment(model, 1500, spec, master_seed=28, chunk_size=500)
        result.write_event_log(tmp_path / "events.jsonl")
        _, records = assert_reads_as_reference(tmp_path / "events.jsonl", monkeypatch)
        assert records[:, 0].max() == n_alice - 1 and records[:, 1].max() == n_bob - 1

    @pytest.mark.parametrize("grid, lines", [
        ((2, 2), [(1, 0, -1, 1), b'{"x_index"\n']),
        ((2, 2), [(1, 0, -1, 1), b'{"x_index":\n', (0, 0, 1, 1)]),
        ((12, 3), [setting_line(b"07")]),
        ((12, 3), [setting_line(b"7 "), *[(0, 1, -1, -1)] * 12]),
        ((12, 3), [(1, 0, -1, 1), setting_line(b" 1", b"05")]),
        ((2, 2), [(1, 1, 1, -1), (0, 10, -1, -1), (1, 5, 1, 1), (0, 100, 1, 1)]),
        ((2, 2), [(1, 1, 1, -1), (0, 10**9, -1, -1)]),
        ((12, 3), [(1, 1, 1, -1), (11, 2, -1, -1), (10, 0, 1, 1)]),
        ((12, 3), [(1, 1, 1, -1), setting_line(b"12"), (0, 1, -1, -1)]),
        ((12, 3), [(1, 1, 1, -1), setting_line(b"1")]),
        ((2, 2), [(1, 1, 1, -1), setting_line(b"2")]),
        ((2, 2), [(1, 1, 1, -1), b'{"x_index":1,"y_index":0,"a":+1,"b": 1}\n']),
        ((2, 2), [(1, 1, 1, -1), b'{"x_index":1,"y_index":0,"a":1 ,"b": 1}\n']),
        ((2, 2), [(1, 1, 1, -1), setting_line(b"1", b"a")]),
        ((2, 2), [(1, 1, 1, -1), setting_line(b"1", b" ")]),
        ((2, 2), [(1, 1, 1, -1), b"}\n", (0, 1, -1, -1)]),
        ((2, 2), [(1, 1, 1, -1), b"\n"]),
        *(((2, 2), [(1, 1, 1, -1), setting_line(b"1", field)]) for field in (b":", b"\xff", b"/")),
        ((2, 2), [(1, 1, 1, -1), b'{"x_index":1,"y_index":0,"a":-1,"b": 1}\r']),
        ((2, 2), [(1, 1, 1, -1), b'{"y_index":0,"x_index":1,"a":-1,"b": 1}\n']),
        ((2, 2), [(1, 1, 1, -1), b'{"x_index":1,"y_index":0,"a":-1,"b": 1}{\n',
                  b'"x_index":0,"y_index":1,"a":-1,"b":-1}\n']),
        ((10, 10), [(9, 9, -1, -1), (0, 5, 1, 1), (5, 0, 1, -1)]),
        ((2, 2), [b'{"x_index":1,"y_index":0,"a":-1,"b":1}\n']),
        ((2, 2), [b'{"trial_id":0,"x_index":1,"y_index":0,"a":-1,"b":1,"chunk_id":0}\n']),
    ], ids=["key-alone", "key-without-number", "setting-zero-padded",
            "setting-left-aligned-before-more-lines", "y-zero-padded",
            "setting-widths-vary", "setting-10-digits", "two-digit-settings",
            "setting-12-of-12", "setting-one-column-of-two", "setting-2-of-2",
            "outcome-plus-sign", "outcome-left-aligned", "setting-not-digits",
            "setting-space", "brace-alone", "blank", "setting-colon", "setting-ff-byte",
            "setting-slash", "carriage-return", "fields-swapped",
            "a-byte-moved-across-a-newline", "ten-by-ten", "format-2-line", "format-1-line"])
    def test_hand_written_lines(self, tmp_path, monkeypatch, grid, lines):
        path = tmp_path / "events.jsonl"
        body = b"".join(line if isinstance(line, bytes) else reference_line(*line, *grid).encode()
                        for line in lines)
        path.write_bytes(header_line(len(lines), *grid).encode() + body)
        assert_reads_as_reference(path, monkeypatch)

    @pytest.mark.parametrize("kind", ["byte-swap", "insertion", "deletion", "swapped-lines",
                                      "duplicated-line", "crlf", "no-final-newline"])
    def test_single_edits_of_a_writer_log(self, tmp_path, monkeypatch, kind):
        cfg = load_experiment(CONFIGS / "chsh_quantum.cfg")
        result = run_experiment(cfg.model, 150, cfg.settings, cfg.master_seed, chunk_size=12)
        original = log_bytes(result, tmp_path / "events.jsonl")
        rng = np.random.default_rng(sum(map(ord, kind)))
        for case in range(25):
            path = tmp_path / f"edited-{case}.jsonl"
            path.write_bytes(edited(original, kind, rng))
            assert_reads_as_reference(path, monkeypatch)


class RecordingReader(io.BufferedReader):
    """The log file as the reader opens it, recording each read and readline."""

    def __init__(self, path, mode):
        super().__init__(io.FileIO(path, mode.replace("b", "")))
        self.calls = []

    def read(self, size=-1):
        self.calls.append(("read", size))
        return super().read(size)

    def readline(self, size=-1):
        self.calls.append(("readline", size))
        return super().readline(size)


class TestWholeRows:
    """After the header a log is read in whole lines of its one width,
    without a search for newlines."""

    @staticmethod
    def recorded_read(path, monkeypatch):
        opened = []

        def opener(*args):
            opened.append(RecordingReader(*args))
            return opened[-1]

        monkeypatch.setattr(harness, "open", opener, raising=False)
        header, records = read_event_log(path)
        return header, records, opened[0].calls

    @pytest.mark.parametrize("chunk_size", [1, 90])
    @pytest.mark.parametrize("config", SHIPPED)
    def test_writer_logs_are_read_in_whole_lines(self, tmp_path, monkeypatch, config,
                                                 chunk_size):
        cfg = load_experiment(CONFIGS / config)
        result = run_experiment(cfg.model, 1200, cfg.settings, cfg.master_seed, chunk_size)
        path = tmp_path / "events.jsonl"
        result.write_event_log(path)
        expected_header, expected = reference_read(path)
        for size in (97, 1 << 16):
            monkeypatch.setattr(harness, "_READ_BYTES", size)
            header, records, calls = self.recorded_read(path, monkeypatch)
            assert header == expected_header and np.array_equal(records, expected)
            assert calls[0] == ("readline", -1)
            sizes = [size for call, size in calls[1:] if call == "read"]
            assert [call for call, _ in calls[1:]] == ["read"] * len(sizes)
            assert sum(sizes) == 1200 * 40
            assert all(read % 40 == 0 and 0 < read <= max(size, 40) for read in sizes)

    @pytest.mark.parametrize("n_alice, n_bob, width", [(10, 10, 40), (12, 3, 41)])
    def test_a_grid_log_is_read_in_whole_lines(self, tmp_path, monkeypatch, n_alice, n_bob,
                                               width):
        model, spec = grid_model(n_alice, n_bob)
        result = run_experiment(model, 3000, spec, master_seed=31)
        path = tmp_path / "events.jsonl"
        result.write_event_log(path)
        expected_header, expected = reference_read(path)
        header, records, calls = self.recorded_read(path, monkeypatch)
        assert header == expected_header and np.array_equal(records, expected)
        assert [size % width for _, size in calls[1:]] == [0] * (len(calls) - 1)

    @pytest.mark.parametrize("written, claimed", [((2, 2), (12, 3)), ((12, 3), (2, 2))])
    def test_lines_of_another_grid_are_refused(self, tmp_path, written, claimed):
        """Lines written for one grid and a header that names a grid whose
        lines have another width: the first line is named."""
        model, spec = grid_model(*written)
        result = run_experiment(model, 50, spec, master_seed=33)
        header, _, body = log_bytes(result, tmp_path / "events.jsonl").partition(b"\n")
        claim = dict(json.loads(header), n_alice=claimed[0], n_bob=claimed[1])
        path = tmp_path / "claimed.jsonl"
        path.write_bytes(json.dumps(claim).encode() + b"\n" + body)
        with pytest.raises(ValueError) as error:
            read_event_log(path)
        first = body[:body.index(b"\n") + 1]
        assert str(error.value) == f"{path}: line 2 is not an event record: {first!r}"


def reference_cells(p, alice_probs, bob_probs, ux, uy, uo) -> np.ndarray:
    """The sampler as first written, the oracle for the chunk generator: each
    uniform is drawn through ``searchsorted`` on its cumulative, capped at the
    last index, and the outcome uniforms one context mask at a time."""
    def draw(probs, u):
        cumulative = setting_cumulative(probs)
        return np.minimum(np.searchsorted(cumulative, u, side="right"), len(cumulative) - 1)

    x, y = draw(alice_probs, ux), draw(bob_probs, uy)
    outcome = np.empty(len(uo), dtype=np.intp)
    for ix, iy in np.ndindex(p.shape[:2]):
        mask = (x == ix) & (y == iy)
        outcome[mask] = draw(p[ix, iy].ravel(), uo[mask])
    return (x * p.shape[1] + y) * 4 + outcome


class FixedUniforms:
    """Stands in for a chunk's generator: ``random`` hands out given arrays in order."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)

    def random(self, out):
        u = self.arrays.pop(0)
        assert len(u) == len(out)
        out[:] = u


def setting_cumulative(probs) -> np.ndarray:
    """A wing's setting thresholds as run_experiment forms them."""
    cumulative = np.cumsum(probs)
    return cumulative / cumulative[-1]


def sampled_cells(p, alice_probs, bob_probs, master_seed, chunk_id, size) -> np.ndarray:
    """The cells of chunk ``chunk_id`` of ``size`` trials, drawn as one slice."""
    alice_cum, bob_cum = setting_cumulative(alice_probs), setting_cumulative(bob_probs)
    cells = np.empty(size, dtype=np.uint8)
    counts = harness._sample_cells(cells, np.empty((3, size)), harness._cell_cumulatives(p),
                                   alice_cum, bob_cum, master_seed, size,
                                   (chunk_id + 1) * size, chunk_id * size)
    assert np.array_equal(counts, np.bincount(cells, minlength=p.size))
    return cells


def around(values) -> list[float]:
    """Each value with its neighbouring doubles on either side, kept in [0, 1]."""
    return sorted({float(u) for v in values for u in (np.nextafter(v, -1.0), v,
                   np.nextafter(v, 2.0)) if 0.0 <= u <= 1.0})


class TestSamplerOracle:
    @pytest.mark.parametrize("config", SHIPPED)
    def test_shipped_configs_match_the_reference_sampler(self, config):
        cfg = load_experiment(CONFIGS / config)
        result = run_experiment(cfg.model, 20_000, cfg.settings, cfg.master_seed,
                                chunk_size=4096, n_workers=2)
        for chunk_id, start in enumerate(result.chunks):
            rng = chunk_generator(cfg.master_seed, chunk_id)
            size = min(4096, 20_000 - start)
            uniforms = [rng.random(size) for _ in range(3)]
            assert np.array_equal(result.cells[start:start + size], reference_cells(
                cfg.model.behaviour(), cfg.settings.alice_probs, cfg.settings.bob_probs,
                *uniforms))

    @pytest.mark.parametrize("chunk_size, n_trials", [
        (1, 40_000), (7, 100_003), (32767, 100_003), (32768, 100_003), (32769, 100_003),
        (65536, 100_003), (100_003, 100_003)])
    def test_slices_across_chunk_boundaries_match_the_chunk_streams(self, chunk_size,
                                                                    n_trials):
        """Fixed slices across chunk boundaries, at 1 and 2 workers,
        give the cells of each chunk's sequential rng.random(m) x 3."""
        cfg = load_experiment(CONFIGS / "chsh_quantum.cfg")
        uniforms = [[], [], []]
        for chunk_id, start in enumerate(range(0, n_trials, chunk_size)):
            rng = chunk_generator(cfg.master_seed, chunk_id)
            size = min(chunk_size, n_trials - start)
            for column in uniforms:
                column.append(rng.random(size))
        expected = reference_cells(cfg.model.behaviour(), cfg.settings.alice_probs,
                                   cfg.settings.bob_probs, *map(np.concatenate, uniforms))
        for workers in (1, 2):
            result = run_experiment(cfg.model, n_trials, cfg.settings, cfg.master_seed,
                                    chunk_size, workers)
            assert np.array_equal(result.cells, expected), workers
            assert np.array_equal(result.counts.counts.ravel(),
                                  np.bincount(expected, minlength=16))

    def test_random_behaviours_match_the_reference_sampler(self):
        rng = np.random.default_rng(31)
        for case in range(60):
            n_alice, n_bob = rng.integers(1, 4, 2)
            p = rng.dirichlet(np.ones(4), (n_alice, n_bob))
            # Some outcomes and settings never occur.
            p[rng.random(p.shape) < 0.2] = 0.0
            p[..., 0] += p.sum(axis=-1) == 0
            p = (p / p.sum(axis=-1, keepdims=True)).reshape(n_alice, n_bob, 2, 2)
            alice_probs, bob_probs = rng.dirichlet(np.ones(n_alice)), rng.dirichlet(np.ones(n_bob))
            if case % 3 == 0 and n_alice > 1:
                alice_probs[0] = 0.0
            size = int(rng.integers(1, 3000))
            ours = sampled_cells(p, alice_probs, bob_probs, 40 + case, case, size)
            generator = chunk_generator(40 + case, case)
            uniforms = [generator.random(size) for _ in range(3)]
            assert np.array_equal(ours, reference_cells(p, alice_probs, bob_probs, *uniforms))

    def test_entries_a_hair_below_zero_are_never_drawn(self, monkeypatch):
        """A behaviour entry in [-BEHAVIOUR_TOL, 0) draws as zero: the cumulative
        is made non-decreasing, so no uniform lands in its interval."""
        p = np.array([[[[0.5, -5e-10], [0.5 + 5e-10, 0.0]]]])
        uo = np.array([0.0, 0.5 - 2.5e-10, np.nextafter(0.5, 0.0), 0.5, 0.75])
        zeros = np.zeros(len(uo))
        monkeypatch.setattr(harness, "chunk_generator",
                            lambda seed, chunk_id: FixedUniforms(zeros, zeros, uo))
        cells = sampled_cells(p, np.ones(1), np.ones(1), 0, 0, len(uo))
        assert cells.tolist() == [0, 0, 0, 2, 2]

    @pytest.mark.parametrize("p", [
        DeterministicStrategy((1, -1), (-1, 1)).behaviour(),
        PrBoxModel().behaviour(),
        np.array([[[[0.25, 0.0], [0.0, 0.75]], [[0.0, 0.0], [0.0, 1.0]]],
                  [[[0.0, 0.5], [0.5, 0.0]], [[0.125, 0.375], [0.375, 0.125]]]]),
    ], ids=["deterministic", "pr-box", "zero-outcomes"])
    @pytest.mark.parametrize("alice_probs, bob_probs", [
        ((0.5, 0.5), (0.5, 0.5)), ((0.25, 0.75), (1.0, 0.0)), ((0.0, 1.0), (0.375, 0.625))])
    def test_uniforms_on_the_thresholds_match_the_reference_sampler(
            self, monkeypatch, p, alice_probs, bob_probs):
        """Every uniform at, just below and just above each threshold, so the
        draw rule decides every tie the way ``searchsorted(..., "right")`` does."""
        setting_us = [around(setting_cumulative(probs)) + [0.0]
                      for probs in (alice_probs, bob_probs)]
        cell_cums = np.cumsum(p.reshape(2, 2, 4), axis=-1)
        ux, uy, uo = (np.array(column) for column in zip(*itertools.product(
            *setting_us, around(cell_cums.ravel()))))
        monkeypatch.setattr(harness, "chunk_generator",
                            lambda seed, chunk_id: FixedUniforms(ux, uy, uo))
        ours = sampled_cells(p, np.array(alice_probs), np.array(bob_probs), 0, 0, len(ux))
        assert np.array_equal(ours, reference_cells(p, alice_probs, bob_probs, ux, uy, uo))


class TestAtomicWrite:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000])
    def test_mode_is_what_open_gives_a_new_file(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            harness.atomic_write(tmp_path / "artifact", [b"bytes"])
            with open(tmp_path / "plain", "wb") as fh:
                fh.write(b"bytes")
        finally:
            os.umask(previous)
        modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("artifact", "plain")]
        assert modes[0] == modes[1] == 0o666 & ~umask
        assert (tmp_path / "artifact").read_bytes() == b"bytes"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["artifact", "plain"]


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

    def test_exact_s_matches_trace_route_under_biased_settings(self):
        """exact.s matches the trace route for random states under
        non-uniform setting probabilities."""
        rng = np.random.default_rng(25)
        from bellctx.gleason import random_density
        for _ in range(200):
            rho = random_density(4, rng)
            angles = rng.uniform(0, np.pi, 4)
            p_alice, p_bob = rng.uniform(0.05, 0.95, 2)
            spec = SettingsSpec(tuple(angles[:2]), (p_alice, 1.0 - p_alice),
                                tuple(angles[2:]), (p_bob, 1.0 - p_bob))
            model = QuantumModel(rho, spec.alice_angles, spec.bob_angles)
            exact = exact_estimates(model, spec)
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

