"""Replay one simulate run from its event log.

Usage: python3 perfbench/replay.py CONFIG EVENT_LOG [SPANS_JSON]

Loads the config, reads the event log back, rebuilds the counts and
re-runs the estimators, then prints one JSON object with the header, the
rebuilt counts array, S and exact S. The benchmark compares these with
the counts CSV and report that ``bellctx simulate`` wrote. With
SPANS_JSON the library calls are traced as in ``launch.py``, under a
root span named ``replay``.
"""

from __future__ import annotations

import json
import sys
import time

from bellctx import config, harness

from spans import EXIT_UNRESTORED, Tracer


def replay(config_path: str, log_path: str) -> dict:
    cfg = config.load_experiment(config_path)
    header, records = harness.read_event_log(log_path)
    counts = harness.CountsTable.from_records(records, cfg.settings.n_alice,
                                              cfg.settings.n_bob)
    estimates = harness.estimate_report(counts, cfg.combination)
    exact = harness.exact_estimates(cfg.model, cfg.settings, cfg.combination)
    return {"header": header, "counts": counts.counts.tolist(),
            "s": estimates.s, "exact_s": exact.s}


def main(argv: list[str]) -> int:
    entered_wall, entered_perf = time.time(), time.perf_counter()
    if len(argv) < 3:
        print(json.dumps(replay(argv[0], argv[1])))
        return 0
    tracer = Tracer()
    tracer.patch(config, "load_experiment", "config.load_experiment")
    tracer.patch(harness, "read_event_log", "harness.read_event_log")
    tracer.patch(harness.CountsTable, "from_records", "harness.from_records")
    tracer.patch(harness, "estimate_report", "harness.estimate_report")
    tracer.patch(harness, "exact_estimates", "harness.exact_estimates")
    try:
        result = tracer.wrap(replay, "replay")(argv[0], argv[1])
    finally:
        lost = tracer.restore()
        tracer.dump(argv[2], entered_wall, entered_perf, lost)
    print(json.dumps(result))
    return EXIT_UNRESTORED if lost else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
