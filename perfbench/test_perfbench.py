"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import launch  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from bellctx import cli, harness  # noqa: E402
from bellctx.kolmogorov import ClassicalProbabilitySpace, verify_kolmogorov  # noqa: E402


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": {}}


def test_self_time_subtracts_the_union_of_children():
    synthetic = [
        span("root", 0.0, 10.0, None),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),     # overlaps a: the union [1, 6] is covered once
        span("a.child", 2.0, 3.0, 1),
        span("late", 9.0, 12.0, 0),  # runs past its parent: only [9, 10] counts
    ]
    assert spans.self_times(synthetic) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_totals_sum_self_time_calls_and_counts():
    synthetic = [span("cli", 0.0, 5.0, None), span("x", 1.0, 2.0, 0), span("x", 3.0, 4.5, 0)]
    synthetic[1]["attrs"] = {"bytes": 10, "space": "ab"}
    synthetic[2]["attrs"] = {"bytes": 5, "space": "ab"}
    out = spans.totals(synthetic)
    assert out["cli"] == pytest.approx({"self_s": 2.5, "calls": 1})
    assert out["x"] == pytest.approx({"self_s": 2.5, "calls": 2, "bytes": 15})


def test_wrappers_record_spans_and_restore_originals():
    class Owner:
        def method(self):
            return "method"

        @classmethod
        def build(cls, value):
            return (cls.__name__, value)

    module = types.SimpleNamespace(function=lambda x: x + 1)
    originals = dict(vars(module)), dict(vars(Owner))
    tracer = spans.Tracer()
    tracer.patch(module, "function", "layer.function")
    tracer.patch(Owner, "method", "layer.method")
    tracer.patch(Owner, "build", "layer.build")
    assert module.function(1) == 2
    assert Owner().method() == "method"
    assert Owner.build(3) == ("Owner", 3)
    assert [s["name"] for s in tracer.spans] == ["layer.function", "layer.method", "layer.build"]
    assert tracer.restore() == []
    assert dict(vars(module)) == originals[0]
    assert all(vars(Owner)[key] is value for key, value in originals[1].items())


def test_launcher_restores_every_cli_entry_point():
    before = (dict(vars(cli)), dict(vars(harness.ExperimentResult)),
              dict(vars(harness.CountsTable)))
    tracer = spans.Tracer()
    launch.install(tracer)
    assert cli.verify_kolmogorov is not before[0]["verify_kolmogorov"]
    assert tracer.restore() == []
    after = (vars(cli), vars(harness.ExperimentResult), vars(harness.CountsTable))
    for old, new in zip(before, after):
        assert all(new[key] is value for key, value in old.items())


def test_unique_space_ratio_of_two_identical_spaces_is_half():
    probs = np.full(4, 0.25)
    digests = []
    for _ in range(2):
        space = ClassicalProbabilitySpace(("P0", "P1", "P2", "P3"), probs.copy())
        attrs = spans.ATTRS["verify_kolmogorov"]((space,), {}, verify_kolmogorov(space))
        digests.append(attrs["space"])
    assert spans.unique_space_ratio(digests) == 0.5


def timed(kind, wall, items=0, headline=False, probe_s=run.REFERENCE_PROBE_S,
          scale_to_host=False):
    return run.Done(run.Op(kind, [], kind=kind, scale_to_host=scale_to_host, items=items,
                           headline=headline),
                    wall, 50.0, [], probe_s=probe_s)


def test_work_rate_takes_the_median_wall_time_of_each_kind():
    rounds = [[timed("big", 2.0, 1000), timed("small", 1.0, 100)],
              [timed("big", 20.0, 1000), timed("small", 1.0, 100)],
              [timed("big", 2.0, 1000), timed("small", 3.0, 100)],
              [timed("big", 2.0, 1000)]]
    # One slow operation of each kind leaves the medians at 2 s and 1 s.
    assert run.median_round_rate(rounds) == pytest.approx(1100 / 3.0)


def test_only_operations_that_track_the_probe_are_scaled(capsys):
    slow = 2 * run.REFERENCE_PROBE_S  # the host ran the probe at half speed
    rounds = [[timed("kc", 3.0, headline=True, probe_s=slow),
               timed("g", 4.0, items=1000, probe_s=slow, scale_to_host=True)]]
    setup = [timed("setup", 0.5, probe_s=slow) for _ in range(3)]
    metrics = run.end_to_end("audit", rounds, setup, setup + rounds[0])
    assert metrics["work_per_s"] == pytest.approx(500.0)
    assert metrics["command_p50_s"] == 3.0
    assert metrics["setup_s"] == 0.5
    assert metrics["peak_rss_mb"] == 50.0
    assert "250.0 contexts/s before scaling by 0.5000" in capsys.readouterr().out


SMALL_QUANTUM = {
    "model.kind": "quantum", "model.state": "photon_pair",
    "alice.angles": "0.0, 0.7853981633974483",
    "bob.angles": "0.39269908169872414, 1.1780972450961724",
    "trials": "20000", "seed": "7", "chunk_size": "4096",
    "out.event_log": "events.jsonl", "out.counts": "counts.csv", "out.report": "report.json",
}


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """One small quantum config simulated at 1 and at 2 workers."""
    dirs = []
    for workers in (1, 2):
        out = tmp_path_factory.mktemp(f"workers{workers}")
        path = out / "experiment.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in
                                dict(SMALL_QUANTUM, workers=str(workers)).items()))
        assert cli.main(["simulate", str(path), "--quiet", "--out-dir", str(out)]) == 0
        dirs.append(out)
    return dirs, SMALL_QUANTUM


def flip_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def test_intact_artifacts_pass(two_runs):
    (first, second), cfg = two_runs
    assert checks.check_simulate(first, cfg) == []
    assert checks.check_simulate(second, cfg) == []
    assert checks.check_identical(first, second, cfg) == []


@pytest.mark.parametrize("artifact", ["out.event_log", "out.counts", "out.report"])
def test_one_flipped_byte_is_a_failure(two_runs, tmp_path, artifact):
    (first, second), cfg = two_runs
    corrupt = tmp_path / "corrupt"
    corrupt.mkdir()
    for key in ("out.event_log", "out.counts", "out.report"):
        (corrupt / cfg[key]).write_bytes((second / cfg[key]).read_bytes())
    target = corrupt / cfg[artifact]
    # A byte well inside the file: a digit of a record, a count, or a report value.
    flip_byte(target, len(target.read_bytes()) // 2)
    assert checks.check_identical(first, corrupt, cfg) != []


def test_flipped_count_fails_the_simulate_and_replay_checks(two_runs, tmp_path):
    (first, _), cfg = two_runs
    counts = (first / cfg["out.counts"]).read_text()
    (tmp_path / cfg["out.counts"]).write_text(counts)
    (tmp_path / cfg["out.report"]).write_text((first / cfg["out.report"]).read_text())
    (tmp_path / cfg["out.event_log"]).write_bytes((first / cfg["out.event_log"]).read_bytes())
    last_digit = len(counts) - 2  # the last count's final digit, before the newline
    flip_byte(tmp_path / cfg["out.counts"], last_digit)
    assert checks.check_simulate(tmp_path, cfg) != []

    replayed = json.dumps(replay.replay(str(first / "experiment.cfg"),
                                        str(first / cfg["out.event_log"])))
    assert checks.check_replay(replayed, first, cfg) == []
    assert checks.check_replay(replayed, tmp_path, cfg) != []
