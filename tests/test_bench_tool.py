"""tools/bench.py: it parses perfbench's output and sums up pairs of runs.

The parser runs on a captured ``perfbench/run.py --workload all`` output
(``golden/perfbench_all.out``) and must find every workload and every
end-to-end metric that BENCHMARK.json names, so a change to perfbench's
output or to the benchmark's metrics fails here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CAPTURED = (Path(__file__).parent / "golden" / "perfbench_all.out").read_text(encoding="utf-8")

_loader = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(bench)


def test_a_captured_run_has_every_workload_and_metric():
    parsed = bench.parse_perfbench(CAPTURED)
    assert list(parsed) == [workload["name"] for workload in SPEC["workloads"]]
    for name, result in parsed.items():
        assert set(result["metrics"]) == {metric["name"] for metric in SPEC["end_to_end"]}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
        assert result["provenance"]["workload"] == name and result["provenance"]["seed"] == 1
    assert parsed["replay"]["metrics"]["command_p50_s"] == 0.37238057200738695


@pytest.mark.parametrize("drop", ["result replay: ", "provenance: ", "{"],
                         ids=["a-result-line", "the-provenance-lines", "the-combined-line"])
def test_output_without_a_line_it_needs_is_refused(drop):
    lines = [line for line in CAPTURED.splitlines() if not line.startswith(drop)]
    with pytest.raises(ValueError):
        bench.parse_perfbench("\n".join(lines))


def test_wins_follow_each_metric_direction():
    parsed = bench.parse_perfbench(CAPTURED)

    def scaled(factor):
        return {name: dict(result, metrics={metric: value * factor
                                            for metric, value in result["metrics"].items()})
                for name, result in parsed.items()}

    # This checkout's values at 0.9, 1.1 and 0.9 times the parent's.
    runs = [(parsed, scaled(0.9)), (parsed, scaled(1.1)), (parsed, scaled(0.9))]
    summary = bench.summarize(runs, SPEC)
    p50, rate = (summary["replay"]["metrics"][name] for name in ("command_p50_s", "work_per_s"))
    assert (p50["head_wins"], rate["head_wins"], p50["pairs"]) == (2, 1, 3)
    assert p50["parent"] == [parsed["replay"]["metrics"]["command_p50_s"]] * 3
    assert p50["median_change"] == pytest.approx(-0.1)
    assert p50["parent_quartile_distance"] == 0.0
    assert summary["audit"]["failed"] == {"parent": [0, 0, 0], "head": [0, 0, 0]}
