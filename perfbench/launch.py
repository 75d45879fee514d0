"""Run one bellctx CLI command with a span around every layer call.

Usage: python3 perfbench/launch.py SPANS_JSON <bellctx arguments...>

Wraps every bellctx function that ``bellctx.cli`` imports by name, the
two constructors it calls directly (``DensityOperator`` and
``ClassicalProbabilitySpace``), ``ExperimentResult.write_event_log`` and
``CountsTable.to_csv``, then calls ``cli.main(argv)`` inside a root span
named ``cli``. The root span's self time is the CLI's own work: argument
parsing, report assembly and JSON encoding, atomic writes. On exit every
wrapper is removed again and the spans are written to SPANS_JSON; a
wrapper that does not restore its original makes the exit code 70.
"""

from __future__ import annotations

import inspect
import sys
import time

from bellctx import cli, harness

from spans import EXIT_UNRESTORED, Tracer

# Several builders make one kind of object, a probability space.
SPAN_NAMES = {
    "build_mixed_context_space_from_tables": "kolmogorov.build_space",
    "build_single_context_space": "kolmogorov.build_space",
    "ClassicalProbabilitySpace": "kolmogorov.build_space",
}

# Classes the CLI only constructs; the others it also uses in isinstance
# checks or except clauses, so they must stay the classes themselves.
CONSTRUCTORS = ("DensityOperator", "ClassicalProbabilitySpace")


def install(tracer: Tracer) -> None:
    for attr, value in sorted(vars(cli).items()):
        is_layer_function = (inspect.isfunction(value)
                             and value.__module__.startswith("bellctx.")
                             and value.__module__ != cli.__name__)
        if is_layer_function or attr in CONSTRUCTORS:
            layer = value.__module__.rsplit(".", 1)[-1]
            tracer.patch(cli, attr, SPAN_NAMES.get(attr, f"{layer}.{attr}"))
    tracer.patch(harness.ExperimentResult, "write_event_log", "harness.write_event_log")
    tracer.patch(harness.CountsTable, "to_csv", "harness.to_csv")


def main(argv: list[str]) -> int:
    entered_wall, entered_perf = time.time(), time.perf_counter()
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        code = tracer.wrap(cli.main, "cli")(cli_args)
    finally:
        lost = tracer.restore()
        tracer.dump(spans_path, entered_wall, entered_perf, lost)
    return EXIT_UNRESTORED if lost else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
