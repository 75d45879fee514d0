"""Paired perfbench runs of a parent checkout and of this one, kept in BENCH_<pr>.json.

Usage, from the repository root:

    python3 tools/bench.py --pr N [--pairs K] [--parent DIR]

Each pair runs ``perfbench/run.py --workload all`` once in the parent
checkout and once in this one, both with the pair's seed (1 to K), so both
sides measure the same generated inputs. The side that goes first
alternates from pair to pair, so a host that slows down or speeds up over
the session does not favour one side. Every workload gets an equal share
of BENCHMARK.json's ``run_seconds``.

Without ``--parent`` the parent is exported with ``git archive`` into a
temporary directory: HEAD when the working tree has uncommitted changes or
files git does not ignore (the change under test is those changes), HEAD^
otherwise. A ``--parent`` directory that is not the top of a git checkout
is recorded with no commit id.

The file holds, per workload and end-to-end metric (BENCHMARK.json's
``end_to_end``): every run's value on each side, the medians, the parent
runs' quartile distance, how many pairs this checkout won (a strictly
better value, in the metric's ``better`` direction) and the relative change
of the median. It also holds each run's failed and attempted operation
counts, the perfbench provenance of the first run, the host, and both
commit ids. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"


def parse_perfbench(stdout: str) -> dict:
    """The results of one ``perfbench/run.py --workload all`` run: per
    workload its ``correct``, ``attempted`` and ``failed``, its metric
    values and its provenance line. Raises ValueError on output without a
    result line for every workload that printed a provenance line, or
    without the final combined JSON line."""
    lines = stdout.strip().splitlines()
    provenance, results = {}, {}
    for line in lines:
        if line.startswith("provenance: "):
            entry = json.loads(line[len("provenance: "):])
            provenance[entry["workload"]] = entry
        elif line.startswith("result "):
            name, _, payload = line[len("result "):].partition(": ")
            results[name] = json.loads(payload)
    if not lines or not results or set(results) != set(provenance):
        raise ValueError(f"perfbench output has result lines for {sorted(results)} and "
                         f"provenance lines for {sorted(provenance)}")
    combined = json.loads(lines[-1])
    if set(combined) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("perfbench output does not end with its combined JSON line")
    return {name: {"correct": result["correct"], "attempted": result["attempted"],
                   "failed": result["failed"],
                   "metrics": {metric: entry["value"]
                               for metric, entry in result["metrics"].items()},
                   "provenance": provenance[name]}
            for name, result in results.items()}


def summarize(runs: list[tuple[dict, dict]], spec: dict) -> dict:
    """Per workload and end-to-end metric, the parent's and this checkout's
    values over the pairs ``(parent, head)`` of parsed runs, their medians,
    the parent's quartile distance and the pairs this checkout won."""
    summary = {}
    for workload in (entry["name"] for entry in spec["workloads"]):
        metrics = {}
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = [p[workload]["metrics"][name] for p, _ in runs]
            head = [h[workload]["metrics"][name] for _, h in runs]
            q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
            metrics[name] = {
                "unit": metric["unit"], "better": metric["better"],
                "parent": parent, "head": head,
                "parent_median": statistics.median(parent),
                "head_median": statistics.median(head),
                "parent_quartile_distance": q3 - q1,
                "head_wins": sum(h < p if lower else h > p for p, h in zip(parent, head)),
                "pairs": len(runs),
                "median_change": statistics.median(head) / statistics.median(parent) - 1.0,
            }
        summary[workload] = {
            "metrics": metrics,
            "failed": {"parent": [p[workload]["failed"] for p, _ in runs],
                       "head": [h[workload]["failed"] for _, h in runs]},
            "attempted": {"parent": [p[workload]["attempted"] for p, _ in runs],
                          "head": [h[workload]["attempted"] for _, h in runs]},
        }
    return summary


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str, into: Path) -> None:
    """The files of ``commit`` under ``into``, as ``git archive`` gives them."""
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # Plain files and directories only, where this Python can filter.
        tar.extraction_filter = getattr(tarfile, "data_filter", None)
        tar.extractall(into)


def run_perfbench(checkout: Path, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", "all",
               "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"perfbench failed in {checkout} (exit {done.returncode}):\n"
                         f"{done.stderr}")
    return parse_perfbench(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="the BENCH file's number")
    parser.add_argument("--pairs", type=int, default=10, help="parent/head run pairs")
    parser.add_argument("--parent", type=Path, help="a checkout of the parent commit")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] / len(spec["workloads"])
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain"))

    with tempfile.TemporaryDirectory() as scratch:
        if args.parent is None:
            parent_commit = head if dirty else git("rev-parse", "HEAD^")
            parent_dir = Path(scratch)
            export(parent_commit, parent_dir)
        else:
            parent_dir = args.parent.resolve()
            # The directory's own commit, if it is the top of a git checkout.
            try:
                top = Path(git("rev-parse", "--show-toplevel", cwd=parent_dir))
                parent_commit = git("rev-parse", "HEAD", cwd=parent_dir)
            except subprocess.CalledProcessError:
                top = parent_commit = None
            if top != parent_dir:
                parent_commit = None
        runs = []
        for pair in range(args.pairs):
            sides = [(parent_dir, "parent"), (ROOT, "head")]
            if pair % 2:
                sides.reverse()
            results = {label: run_perfbench(checkout, pair + 1, seconds)
                       for checkout, label in sides}
            runs.append((results["parent"], results["head"]))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)

    first = runs[0][1]
    bench = {
        "pr": args.pr,
        "parent_commit": parent_commit,
        "head_commit": head,
        "head_has_uncommitted_changes": dirty,
        "command": ["python3", "perfbench/run.py", "--workload", "all",
                    "--seed", "<pair>", "--seconds", str(seconds)],
        "pairs": args.pairs,
        "order": "parent first in odd-numbered pairs, head first in even-numbered pairs",
        "provenance": {
            "host": {"machine": platform.machine(), "system": platform.system(),
                     "release": platform.release()},
            "perfbench": {name: result["provenance"] for name, result in first.items()},
        },
        "workloads": summarize(runs, spec),
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
