"""Correctness checks on the artifacts of each benchmark operation.

Every check returns a list of problems; an empty list means the
operation's output is correct. The benchmark counts an operation with any
problem as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

COUNTS_HEADER = "x_index,y_index,a,b,count"


def read_counts_csv(path) -> dict[tuple[int, int, int, int], int]:
    """``{(x_index, y_index, a, b): count}`` from a counts CSV."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != COUNTS_HEADER:
        raise ValueError(f"{path}: unexpected counts CSV header")
    counts = {}
    for line in lines[1:]:
        ix, iy, a, b, n = (int(field) for field in line.split(","))
        counts[(ix, iy, a, b)] = n
    return counts


def count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))


def _report(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))["report"]


def _axioms_ok(audit: dict) -> bool:
    return audit["positivity_ok"] and audit["normalization_ok"] and audit["additivity_ok"]


def check_simulate(out_dir: Path, cfg: dict) -> list[str]:
    """Counts sum to trials, the log has trials + 1 lines, S is within 5 SE of
    exact S, the kc audit passes all three axioms, and a signalling model is
    flagged."""
    trials = int(cfg["trials"])
    try:
        counts = read_counts_csv(out_dir / cfg["out.counts"])
        n_lines = count_lines(out_dir / cfg["out.event_log"])
        report = _report(out_dir / cfg["out.report"])
        estimates = report["estimates"]
        problems = []
        if sum(counts.values()) != trials:
            problems.append(f"counts sum to {sum(counts.values())}, not {trials}")
        if n_lines != trials + 1:
            problems.append(f"event log has {n_lines} lines, not {trials + 1}")
        if not abs(estimates["s"] - report["exact"]["s"]) <= 5 * estimates["s_se"]:
            problems.append(f"S = {estimates['s']} +/- {estimates['s_se']} is more than "
                            f"5 SE from exact S = {report['exact']['s']}")
        if not _axioms_ok(report["kc"]["report"]):
            problems.append("kc audit fails a probability axiom")
        flagged = any(audit["flagged"] for audit in estimates["no_signalling"])
        if cfg["model.kind"] == "signalling" and not flagged:
            problems.append("signalling model not flagged by the no-signalling audit")
        return problems
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable simulate artifact: {exc!r}"]


def check_replay(stdout: str, out_dir: Path, cfg: dict) -> list[str]:
    """Rebuilt counts equal the counts CSV; S and exact S equal the report's exactly."""
    try:
        replayed = json.loads(stdout.strip().splitlines()[-1])
        expected = read_counts_csv(out_dir / cfg["out.counts"])
        report = _report(out_dir / cfg["out.report"])
        rebuilt = {(ix, iy, 1 - 2 * ia, 1 - 2 * ib): n
                   for ix, by_y in enumerate(replayed["counts"])
                   for iy, by_a in enumerate(by_y)
                   for ia, by_b in enumerate(by_a)
                   for ib, n in enumerate(by_b)}
        problems = []
        if rebuilt != expected:
            problems.append("counts rebuilt from the event log differ from the counts CSV")
        if replayed["s"] != report["estimates"]["s"]:
            problems.append(f"replayed S {replayed['s']} != report S {report['estimates']['s']}")
        if replayed["exact_s"] != report["exact"]["s"]:
            problems.append("replayed exact S differs from the report")
        if replayed["header"]["model_hash"] != report["model_hash"]:
            problems.append("event log header names another model than the report")
        return problems
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable replay output: {exc!r}"]


def check_kc_verify(out_dir: Path) -> list[str]:
    """Every space passes the axioms and 4 S' equals S to within 1e-12."""
    try:
        report = _report(out_dir / "kc_report.json")
        problems = [f"context {key} fails a probability axiom"
                    for key, entry in sorted(report["contexts"].items())
                    if not _axioms_ok(entry["report"])]
        if not _axioms_ok(report["mixed_space"]["report"]):
            problems.append("mixed space fails a probability axiom")
        if not abs(report["s_global_times_4"] - report["s"]) <= 1e-12:
            problems.append(f"4 S' = {report['s_global_times_4']} != S = {report['s']}")
        return problems
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable kc-verify report: {exc!r}"]


def check_gleason(out_dir: Path, dim: int) -> list[str]:
    """Additivity passes and the state is recovered; at dim 2 the counterexample
    is additive but unfittable, at dim >= 3 extravalence passes."""
    try:
        report = _report(out_dir / f"gleason_dim{dim}.json")
        problems = []
        if not report["additivity"]["passed"]:
            problems.append("frame-function additivity failed")
        if not report["trace_form_fit"]["recovery_max_error"] <= 1e-8:
            problems.append("state not recovered to 1e-8")
        if dim == 2:
            counterexample = report["counterexample"]
            if not counterexample["additivity"]["passed"]:
                problems.append("dim-2 counterexample not additive")
            if not counterexample["fit_residual"] > 0.01:
                problems.append("dim-2 counterexample fits a trace form")
        elif not report["extravalence"]["passed"]:
            problems.append("extravalence failed")
        return problems
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable gleason-check report: {exc!r}"]


def artifact_digests(out_dir: Path, cfg: dict) -> dict[str, str]:
    """SHA-256 of the event log, the counts CSV and the report without ``meta``."""
    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    report = json.loads((out_dir / cfg["out.report"]).read_text(encoding="utf-8"))["report"]
    return {
        "event_log": digest((out_dir / cfg["out.event_log"]).read_bytes()),
        "counts": digest((out_dir / cfg["out.counts"]).read_bytes()),
        "report": digest(json.dumps(report, sort_keys=True).encode()),
    }


def check_identical(first: Path, second: Path, cfg: dict) -> list[str]:
    """The artifacts of two runs of one config are byte-identical (report minus meta)."""
    try:
        a, b = artifact_digests(first, cfg), artifact_digests(second, cfg)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable artifact: {exc!r}"]
    return [f"{name} differs between worker counts" for name in a if a[name] != b[name]]
