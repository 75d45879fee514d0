"""SHA-256 digests of the CLI's artifacts, pinned against tests/golden.

Covers every shipped config: ``simulate`` at 20 000 trials with
``chunk_size = 4096`` at 1 and 2 workers (event log, counts CSV and the
report without its ``meta`` block), the ``kc-verify`` report without
``meta``, the ``gleason-check`` report without ``meta`` at dim 2 and 3,
the ``plot`` SVG, and the stdout of ``lhv-bound --format json`` with no
argument and with the photon-pair tables file. The reports whose digests
leave ``meta`` out must still time themselves there.

Regenerate the golden file (only when an output change is intended and
explained) with ``PYTHONPATH=src python tests/test_golden_artifacts.py``.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from bellctx.cli import main
from bellctx.config import parse_config_text

HERE = Path(__file__).parent
CONFIGS = HERE.parent / "src" / "bellctx" / "configs"
GOLDEN = HERE / "golden" / "artifact_digests.json"
PHOTON_PAIR_TABLES = HERE / "golden" / "photon_pair_tables.json"
SHIPPED = sorted(path.name for path in CONFIGS.glob("*.cfg"))
PLOTTED = ("chsh_quantum.cfg", "chsh_lhv_uniform.cfg")
GLEASON_DIMS = (2, 3)


def sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def report_digest(path: Path) -> str:
    """Digest of the report with its ``meta`` block (timings, versions) left out."""
    payload = json.loads(path.read_text())
    return sha256(json.dumps(payload["report"], sort_keys=True, indent=2))


def write_config(out: Path, name: str, **overrides) -> tuple[Path, dict]:
    raw = dict(parse_config_text((CONFIGS / name).read_text()), **overrides)
    path = out / name
    path.write_text("".join(f"{key} = {value}\n" for key, value in raw.items()))
    return path, raw


def simulate_digests(out: Path, name: str, workers: int) -> dict:
    path, raw = write_config(out, name, trials=20_000, chunk_size=4096, workers=workers)
    assert main(["simulate", str(path), "--out-dir", str(out), "--quiet"]) == 0
    return {
        "event_log": sha256((out / raw["out.event_log"]).read_bytes()),
        "counts": sha256((out / raw["out.counts"]).read_bytes()),
        "report": report_digest(out / raw["out.report"]),
    }


def kc_verify_digest(out: Path, name: str) -> str:
    assert main(["kc-verify", str(CONFIGS / name), "--out-dir", str(out), "--quiet"]) == 0
    return report_digest(out / "kc_report.json")


def gleason_check_digest(out: Path, dim: int) -> str:
    assert main(["gleason-check", "--dim", str(dim), "--n-contexts", "200", "--seed", "5",
                 "--out-dir", str(out), "--quiet"]) == 0
    return report_digest(out / f"gleason_dim{dim}.json")


def wall_clock(path: Path) -> float:
    return json.loads(path.read_text())["meta"]["wall_clock_seconds"]


def plot_digest(out: Path, name: str) -> str:
    assert main(["plot", str(CONFIGS / name), "curve.svg", "--out-dir", str(out),
                 "--mc-trials", "2000", "--quiet"]) == 0
    return sha256((out / "curve.svg").read_bytes())


def lhv_bound_digest(*args) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["lhv-bound", "--format", "json", *args]) == 0
    return sha256(stdout.getvalue())


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", SHIPPED)
def test_simulate_artifacts_match_golden(tmp_path, name, workers):
    assert simulate_digests(tmp_path, name, workers) == golden()["simulate"][name]


@pytest.mark.parametrize("name", SHIPPED)
def test_kc_verify_report_matches_golden(tmp_path, name):
    assert kc_verify_digest(tmp_path, name) == golden()["kc_verify"][name]
    assert wall_clock(tmp_path / "kc_report.json") > 0


@pytest.mark.parametrize("dim", GLEASON_DIMS)
def test_gleason_check_report_matches_golden(tmp_path, dim):
    assert gleason_check_digest(tmp_path, dim) == golden()["gleason_check"][f"dim{dim}"]
    assert wall_clock(tmp_path / f"gleason_dim{dim}.json") > 0


@pytest.mark.parametrize("name", PLOTTED)
def test_plot_svg_matches_golden(tmp_path, name):
    assert plot_digest(tmp_path, name) == golden()["plot"][name]


def test_lhv_bound_stdout_matches_golden():
    expected = golden()["lhv_bound"]
    assert lhv_bound_digest() == expected["no_tables"]
    assert lhv_bound_digest(str(PHOTON_PAIR_TABLES)) == expected["photon_pair_tables"]


def _record(out: Path) -> dict:
    """Recompute every digest (used to write the golden file)."""
    digests = {"simulate": {}, "kc_verify": {}, "plot": {}, "gleason_check": {}}
    for name in SHIPPED:
        runs = []
        for workers in (1, 2):
            target = out / f"{name}-w{workers}"
            target.mkdir()
            runs.append(simulate_digests(target, name, workers))
        assert runs[0] == runs[1], name
        digests["simulate"][name] = runs[0]
        target = out / f"{name}-kc"
        target.mkdir()
        digests["kc_verify"][name] = kc_verify_digest(target, name)
    for dim in GLEASON_DIMS:
        target = out / f"gleason-dim{dim}"
        target.mkdir()
        digests["gleason_check"][f"dim{dim}"] = gleason_check_digest(target, dim)
    for name in PLOTTED:
        target = out / f"{name}-plot"
        target.mkdir()
        digests["plot"][name] = plot_digest(target, name)
    digests["lhv_bound"] = {
        "no_tables": lhv_bound_digest(),
        "photon_pair_tables": lhv_bound_digest(str(PHOTON_PAIR_TABLES)),
    }
    return digests


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(json.dumps(_record(Path(scratch)), sort_keys=True, indent=2) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
