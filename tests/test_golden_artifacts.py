"""SHA-256 digests of the CLI's artifacts, pinned against tests/golden.

Covers every shipped config: ``simulate`` at 20 000 trials with
``chunk_size = 4096`` at 1 and 2 workers (event log, counts CSV and the
report without its ``meta`` block), the ``kc-verify`` report without
``meta``, the ``gleason-check`` report without ``meta`` at dims 2-6 (200
contexts, and 1000 contexts against a ``--state`` file, the way the
benchmark runs it), the ``plot`` SVG, and the stdout of ``lhv-bound --format json`` with no
argument and with the photon-pair tables file. The reports whose digests
leave ``meta`` out must still time themselves there. The ``chsh_quantum``
event log at its shipped size (1M trials) is pinned at 1 and 2 workers.

Also pinned: the stdout of every command in each format it prints
(``STDOUT_CASES``), with the output directory replaced by ``<out>``.

Regenerate the golden file (only when an output change is intended and
explained) with ``PYTHONPATH=src python tests/test_golden_artifacts.py``.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from bellctx.cli import main
from bellctx.config import parse_config_text
from bellctx.gleason import random_density
from bellctx.models import SignallingModel
from bellctx.quantum import operator_to_json

HERE = Path(__file__).parent
CONFIGS = HERE.parent / "src" / "bellctx" / "configs"
GOLDEN = HERE / "golden" / "artifact_digests.json"
PHOTON_PAIR_TABLES = HERE / "golden" / "photon_pair_tables.json"
SHIPPED = sorted(path.name for path in CONFIGS.glob("*.cfg"))
PLOTTED = ("chsh_quantum.cfg", "chsh_lhv_uniform.cfg")
GLEASON_DIMS = (2, 3, 4, 5, 6)
# (command, subject, --format): a shipped config, a gleason dimension or a tables file.
STDOUT_CASES = (
    *(("simulate", name, "text") for name in SHIPPED),
    ("simulate", "chsh_quantum.cfg", "json"),
    ("simulate", "chsh_quantum.cfg", "csv"),
    *(("kc-verify", name, "text") for name in SHIPPED),
    ("kc-verify", "chsh_quantum.cfg", "json"),
    *(("gleason-check", f"dim{dim}", "text") for dim in GLEASON_DIMS),
    ("gleason-check", "dim3", "json"),
    *(("lhv-bound", tables, "text")
      for tables in ("no_tables", "photon_pair_tables", "signalling_tables")),
    *(("plot", name, "text") for name in PLOTTED),
)


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


# SHA-256 of the chsh_quantum event log at its shipped size (1M trials).
SHIPPED_QUANTUM_LOG = "e19495dacc236123ac7bc1eff3b5b9abdbc0fee258578b28e8615e51df0ebc73"


def kc_verify_digest(out: Path, name: str) -> str:
    assert main(["kc-verify", str(CONFIGS / name), "--out-dir", str(out), "--quiet"]) == 0
    return report_digest(out / "kc_report.json")


def gleason_check_digest(out: Path, dim: int) -> str:
    assert main(["gleason-check", "--dim", str(dim), "--n-contexts", "200", "--seed", "5",
                 "--out-dir", str(out), "--quiet"]) == 0
    return report_digest(out / f"gleason_dim{dim}.json")


def gleason_state_digest(out: Path, dim: int) -> str:
    state = out / "state.json"
    rho = random_density(dim, np.random.default_rng(600 + dim))
    state.write_text(json.dumps(operator_to_json(rho.matrix)))
    assert main(["gleason-check", "--dim", str(dim), "--n-contexts", "1000",
                 "--state", str(state), "--seed", str(700 + dim),
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


def signalling_tables(out: Path) -> Path:
    p = SignallingModel().behaviour()
    path = out / "signalling_tables.json"
    path.write_text(json.dumps({f"{ix},{iy}": dict(zip(("++", "+-", "-+", "--"),
                                                       p[ix, iy].ravel().tolist()))
                                for ix, iy in np.ndindex(p.shape[:2])}))
    return path


def command_argv(out: Path, command: str, subject: str) -> list[str]:
    if command == "simulate":
        path, _ = write_config(out, subject, trials=20_000, chunk_size=4096, workers=1)
        return ["simulate", str(path), "--out-dir", str(out)]
    if command == "kc-verify":
        return ["kc-verify", str(CONFIGS / subject), "--out-dir", str(out)]
    if command == "gleason-check":
        return ["gleason-check", "--dim", subject.removeprefix("dim"), "--n-contexts", "200",
                "--seed", "5", "--out-dir", str(out)]
    if command == "plot":
        return ["plot", str(CONFIGS / subject), "curve.svg", "--out-dir", str(out),
                "--mc-trials", "2000"]
    tables = {"no_tables": [], "photon_pair_tables": [str(PHOTON_PAIR_TABLES)],
              "signalling_tables": [str(signalling_tables(out))]}
    return ["lhv-bound", *tables[subject]]


def stdout_digest(out: Path, command: str, subject: str, fmt: str) -> str:
    argv = command_argv(out, command, subject) + ([] if fmt == "text" else ["--format", fmt])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    return sha256(stdout.getvalue().replace(str(out), "<out>"))


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", SHIPPED)
def test_simulate_artifacts_match_golden(tmp_path, name, workers):
    assert simulate_digests(tmp_path, name, workers) == golden()["simulate"][name]


@pytest.mark.parametrize("workers", [1, 2])
def test_shipped_size_quantum_log_matches_its_digest(tmp_path, workers):
    path, raw = write_config(tmp_path, "chsh_quantum.cfg", workers=workers)
    assert main(["simulate", str(path), "--out-dir", str(tmp_path), "--quiet"]) == 0
    log = tmp_path / raw["out.event_log"]
    digest = hashlib.sha256()
    with open(log, "rb") as fh:
        for piece in iter(lambda: fh.read(1 << 20), b""):
            digest.update(piece)
    log.unlink()  # 40 MB
    assert digest.hexdigest() == SHIPPED_QUANTUM_LOG


@pytest.mark.parametrize("name", SHIPPED)
def test_kc_verify_report_matches_golden(tmp_path, name):
    assert kc_verify_digest(tmp_path, name) == golden()["kc_verify"][name]
    assert wall_clock(tmp_path / "kc_report.json") > 0


@pytest.mark.parametrize("dim", GLEASON_DIMS)
def test_gleason_check_report_matches_golden(tmp_path, dim):
    assert gleason_check_digest(tmp_path, dim) == golden()["gleason_check"][f"dim{dim}"]
    assert wall_clock(tmp_path / f"gleason_dim{dim}.json") > 0


@pytest.mark.parametrize("dim", GLEASON_DIMS)
def test_gleason_check_state_file_report_matches_golden(tmp_path, dim):
    expected = golden()["gleason_check"][f"dim{dim}-state"]
    assert gleason_state_digest(tmp_path, dim) == expected


@pytest.mark.parametrize("name", PLOTTED)
def test_plot_svg_matches_golden(tmp_path, name):
    assert plot_digest(tmp_path, name) == golden()["plot"][name]


def test_lhv_bound_stdout_matches_golden():
    expected = golden()["lhv_bound"]
    assert lhv_bound_digest() == expected["no_tables"]
    assert lhv_bound_digest(str(PHOTON_PAIR_TABLES)) == expected["photon_pair_tables"]


@pytest.mark.parametrize("case", STDOUT_CASES, ids=" ".join)
def test_stdout_matches_golden(tmp_path, case):
    assert stdout_digest(tmp_path, *case) == golden()["stdout"][" ".join(case)]


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
        target = out / f"gleason-dim{dim}-state"
        target.mkdir()
        digests["gleason_check"][f"dim{dim}-state"] = gleason_state_digest(target, dim)
    for name in PLOTTED:
        target = out / f"{name}-plot"
        target.mkdir()
        digests["plot"][name] = plot_digest(target, name)
    digests["lhv_bound"] = {
        "no_tables": lhv_bound_digest(),
        "photon_pair_tables": lhv_bound_digest(str(PHOTON_PAIR_TABLES)),
    }
    digests["stdout"] = {}
    for case in STDOUT_CASES:
        target = out / "-".join(case)
        target.mkdir()
        digests["stdout"][" ".join(case)] = stdout_digest(target, *case)
    return digests


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(json.dumps(_record(Path(scratch)), sort_keys=True, indent=2) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
