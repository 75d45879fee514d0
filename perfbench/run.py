"""bellctx benchmark: the simulate, replay and audit workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload {simulate,replay,audit,all} --seed N \\
        --seconds S --trace {0,1}

``--workload all`` runs the three workloads one after the other, prints
each one's result line and then one line that combines them, with every
metric named ``<workload>.<metric>``.

Load: a closed loop with one client and concurrency 1. Every operation
is a fresh child process, the way users run the CLI (``python3 -m
bellctx.cli ...``, or ``perfbench/replay.py`` for replay), with at most
two workers; its wall time and peak RSS (``os.wait4``) are taken from
outside, so nothing cached in one operation helps the next. The loop
runs rounds, one pass over the workload's operations with freshly
generated inputs, for about ``--seconds``. Just before each
single-process child starts, a short fixed probe (``host_probe``) is
timed on every CPU and the child is pinned to the CPU where it ran
fastest, as on a shared host another tenant can slow one CPU by more
than half for seconds at a time. The inputs are
generated from ``--seed``: copies of the shipped configs with ``seed``
and ``workers`` set, random two-qubit states and angles, random states
for gleason-check. Every operation's output is checked (``checks.py``);
an operation that fails a check counts as failed.

End-to-end metrics (``--trace 0``), under the names in BENCHMARK.json.
gleason-check's wall times are multiplied by REFERENCE_PROBE_S over the
median probe time of its operations in the run, which puts runs made
while the host was busier or idler on one scale; the unscaled rate is
printed too. gleason-check spends its time the way the probe does, in
the interpreter and in numpy calls on 6x6-sized matrices. In ten audit
runs made while the host's speed swung, its rate moved by 36% where the
probe moved by 51%, and scaling halved the spread (quartile distance
over median) of work_per_s, from 16.6% to 8.2%; in ten steadier runs it
left it about where it was (7.1% unscaled, 8.3% scaled). The other
commands are not scaled, because scaling made their spread wider:
kc-verify's time goes to vectorised numpy over 2^20-element arrays (it
moved by 12% across the same runs), and simulate runs two threads on
both CPUs.

- ``setup_s``: median over 5 to 11 fresh interpreters, started
  between operations, of ``import bellctx`` plus ``load_experiment`` of
  the workload's configs.
- ``work_per_s``, the work done per second of operation wall time in a
  round where every operation takes the median wall time of its kind
  (same command at the same size) over the run: trials per second of
  ``simulate`` (simulate), trials re-read and re-counted per second
  (replay), random contexts checked per second of ``gleason-check``
  (audit). Medians per kind, not sums, so that a few operations slowed
  by other load on a shared host do not move the figure.
- ``command_p50_s``: median wall time of the workload's headline command:
  a 1M-trial ``simulate`` (simulate), a 1M-trial replay (replay),
  ``kc-verify`` (audit).
- ``peak_rss_mb``: highest max-RSS of any operation's child process.

Per-layer metrics (``--trace 1``): rounds alternate untraced and traced.
Traced rounds run the same operations through ``launch.py`` or
``replay.py`` with a spans file. A ``<layer>.<function>.self_s`` metric
is that function's self time summed over a round's operations and
averaged over traced rounds; counts (``calls``, ``bytes``, ``chunks``,
``additivity_checks``, ``contexts``) are per round as well; rates divide
a count by the matching self time. ``kolmogorov.unique_space_ratio`` is
the number of distinct probability vectors a traced round audits divided
by its audit calls. ``process.startup_s`` is the median time from
spawning a child to its main entry, ``process.teardown_s`` the median
time from the end of its root span to its exit, and
``trace.overhead_pct`` compares the median traced and untraced round. A
traced command whose startup, self times and teardown do not add up to
its wall time, or whose wrappers were not all restored, counts as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric under its workload-specific name, the error rate, the inputs'
provenance and, for a traced run, where each command's time went.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SHIPPED = SRC / "bellctx" / "configs"
WORK = ROOT / ".perfbench_work"

# Shipped configs in the order a simulate round runs them.
SIMULATE_CONFIGS = ("chsh_quantum", "chsh_lhv_uniform", "chsh_prbox",
                    "chsh_superdeterministic", "chsh_signalling")
# A 1M-trial and a 200k-trial log, written during set-up and read back.
REPLAY_CONFIGS = ("chsh_quantum", "chsh_prbox")
TABLE_KINDS = ("mixed_lhv", "deterministic", "pr_box", "superdeterministic_s4", "signalling")
GLEASON_DIMS = (2, 3, 4, 5, 6)
GLEASON_CONTEXTS = 1000
KC_QUANTUM_PER_ROUND = 1
KC_TABLES_PER_ROUND = 1
IDENTITY_TRIALS = 200_000
HEADLINE_TRIALS = 1_000_000
# Time of host_probe's workload on one uncontended CPU of the reference host
# (a 2-vCPU cloud VM); gleason-check wall times are scaled to this host speed.
REFERENCE_PROBE_S = 0.004
SETUP_SAMPLES = 11
SETUP_SAMPLES_MIN = 5
OP_TIMEOUT_S = 120.0

WHY = {
    "simulate": "all five shipped configs at shipped sizes: the harness write path and the "
                "kolmogorov audit do the work, at 1M and at 100k-200k trials; gleason is idle",
    "replay": "reads 200k- and 1M-trial logs back and re-counts them: the harness decoder "
              "does the work and memory grows with n_trials; kolmogorov and gleason are idle",
    "audit": "kc-verify on random states and table models, gleason-check at dim 2-6: the "
             "kolmogorov audit and gleason/quantum do the work; the harness is idle",
}

# What work_per_s and command_p50_s are called in each workload's summary.
ALIASES = {
    "simulate": ("simulate_trials_per_s", "trials/s", "simulate_1m_p50_s"),
    "replay": ("replay_trials_per_s", "trials/s", "replay_1m_p50_s"),
    "audit": ("gleason_contexts_per_s", "contexts/s", "kc_verify_p50_s"),
}

SETUP_CODE = ("import sys, bellctx\n"
              "from bellctx.config import load_experiment\n"
              "for path in sys.argv[1:]:\n"
              "    load_experiment(path)\n")


@dataclass
class Op:
    """One child process: what to run, the work it does and how to check it."""

    label: str
    argv: list[str]
    kind: str = ""  # operations of one kind do the same amount of work
    scale_to_host: bool = False  # its wall time tracks host_probe's; see end_to_end
    items: int = 0
    headline: bool = False
    check: Callable[[str], list[str]] = lambda stdout: []
    script: str | None = None  # a perfbench script instead of the bellctx CLI


@dataclass
class Done:
    op: Op
    wall_s: float
    rss_mb: float
    problems: list[str]
    probe_s: float = 0.0
    startup_s: float = 0.0
    teardown_s: float = 0.0
    totals: dict = field(default_factory=dict)
    digests: list[str] = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


PROBE_MATRIX = np.random.default_rng(0).normal(size=(6, 6))


def probe_once() -> float:
    """Seconds taken by a short fixed workload that, like the program, spends
    its time in the interpreter and in numpy calls on small matrices."""
    started = time.perf_counter()
    for _ in range(120):
        np.linalg.eigh(PROBE_MATRIX @ PROBE_MATRIX.T)
    total = 0
    for i in range(40_000):
        total += i * i
    return time.perf_counter() - started


def host_probe() -> tuple[int, float]:
    """The CPU this process may use that runs the probe fastest right now,
    and the probe's time there (the faster of two tries on each CPU)."""
    allowed = sorted(os.sched_getaffinity(0))
    times = {}
    try:
        for cpu in allowed:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = min(probe_once(), probe_once())
    finally:
        os.sched_setaffinity(0, allowed)
    cpu = min(times, key=times.get)
    return cpu, times[cpu]


def run_child(cmd: list[str], work: Path,
              pin: bool = False) -> tuple[int, float, float, float, float, str, str]:
    """(exit code, wall s, max RSS MB, spawn time, host probe s, stdout, stderr)
    of one child; with ``pin`` the child runs on the CPU the probe found
    fastest, otherwise it is not probed (probe time 0)."""
    out_path, err_path = work / "child.stdout", work / "child.stderr"
    cpu, probe_s = host_probe() if pin else (None, 0.0)
    pin_child = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.time()
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                preexec_fn=pin_child)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0, spawned, probe_s,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def execute(op: Op, work: Path, traced: bool) -> Done:
    spans_path = work / "spans.json"
    if op.script is None:
        cmd = ([sys.executable, str(BENCH / "launch.py"), str(spans_path)] if traced
               else [sys.executable, "-m", "bellctx.cli"]) + op.argv
    else:
        cmd = [sys.executable, str(BENCH / op.script)] + op.argv
        if traced:
            cmd.append(str(spans_path))
    # simulate runs two worker threads, so it is left free to use both CPUs.
    code, wall, rss, spawned, probe_s, stdout, stderr = run_child(
        cmd, work, pin=op.argv[0] != "simulate")
    if code != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return Done(op, wall, rss, [f"exit code {code}: {tail[0]}"], probe_s=probe_s)
    done = Done(op, wall, rss, op.check(stdout), probe_s=probe_s)
    if traced:
        trace_into(done, json.loads(spans_path.read_text()), spawned)
    return done


def trace_into(done: Done, record: dict, spawned: float) -> None:
    """Fill in the per-layer figures of a traced operation and check them."""
    span_list = record["spans"]
    own = spans.self_times(span_list)
    root = span_list[0]
    done.totals = spans.totals(span_list)
    done.digests = [s["attrs"]["space"] for s in span_list
                    if s["name"] == "kolmogorov.verify_kolmogorov"]
    done.startup_s = record["entered_wall"] - spawned
    main_s = root["end"] - record["entered_perf"]
    done.teardown_s = done.wall_s - done.startup_s - main_s
    if record["unrestored"]:
        done.problems.append(f"wrappers not restored: {record['unrestored']}")
    if abs(sum(own) - (root["end"] - root["start"])) > 1e-6:
        done.problems.append("self times do not add up to the root span")
    # Startup, self times and teardown must account for the wall time.
    if not -0.01 <= done.teardown_s <= 0.1 + 0.1 * done.wall_s:
        done.problems.append(f"{done.teardown_s:.3f} s of the wall time is not accounted for")


# ---------------------------------------------------------------- inputs


def read_cfg(path: Path) -> dict[str, str]:
    cfg = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            cfg[key] = value
    return cfg


def write_cfg(path: Path, cfg: dict[str, str]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{key} = {value}\n" for key, value in cfg.items()),
                    encoding="utf-8")
    return path


def random_density_json(dim: int, rng: np.random.Generator) -> str:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    rho /= np.trace(rho).real
    return json.dumps([[[float(z.real), float(z.imag)] for z in row] for row in rho])


class Inputs:
    """Generates every operation of a workload from the workload seed."""

    def __init__(self, seed: int, work: Path):
        self.rng = np.random.default_rng(seed)
        self.work = work
        self.serial = 0
        self.shipped = {name: read_cfg(SHIPPED / f"{name}.cfg") for name in SIMULATE_CONFIGS}

    def _dir(self, label: str) -> Path:
        self.serial += 1
        path = self.work / f"{self.serial:04d}-{label}"
        path.mkdir(parents=True)
        return path

    def seed(self) -> str:
        return str(int(self.rng.integers(2 ** 31)))

    def simulate(self, name: str, workers: int = 2, seed: str | None = None,
                 trials: int | None = None) -> tuple[Op, Path, dict]:
        cfg = dict(self.shipped[name], seed=seed or self.seed(), workers=str(workers))
        if trials is not None:
            cfg["trials"] = str(trials)
        out = self._dir(name)
        path = write_cfg(out / "experiment.cfg", cfg)
        n = int(cfg["trials"])
        op = Op(f"simulate {name} ({n} trials)", ["simulate", str(path), "--quiet",
                                                    "--out-dir", str(out)],
                kind=f"simulate {n}", items=n, headline=n == HEADLINE_TRIALS,
                check=lambda stdout: checks.check_simulate(out, cfg))
        return op, out, cfg

    def replay(self, out: Path, cfg: dict) -> Op:
        n = int(cfg["trials"])
        return Op(f"replay {n} trials", [str(out / "experiment.cfg"),
                                         str(out / cfg["out.event_log"])],
                  kind=f"replay {n}", items=n, headline=n == HEADLINE_TRIALS, script="replay.py",
                  check=lambda stdout: checks.check_replay(stdout, out, cfg))

    def kc_verify(self, kind: str) -> Op:
        out = self._dir(f"kc-{kind}")
        angles = [repr(float(angle)) for angle in self.rng.uniform(0.0, np.pi, size=4)]
        cfg = {"model.kind": kind,
               "alice.angles": f"{angles[0]}, {angles[1]}",
               "bob.angles": f"{angles[2]}, {angles[3]}",
               "trials": "100000", "seed": self.seed(), "workers": "2"}
        if kind == "quantum":
            state = out / "state.json"
            state.write_text(random_density_json(4, self.rng), encoding="utf-8")
            cfg["model.state_file"] = str(state)
        elif kind == "deterministic":
            a, b = self.rng.choice([-1, 1], size=(2, 2))
            cfg["model.a"], cfg["model.b"] = f"{a[0]:+d}, {a[1]:+d}", f"{b[0]:+d}, {b[1]:+d}"
        elif kind == "pr_box":
            cell = self.rng.integers(2, size=2)
            cfg["model.negative_cell"] = f"{cell[0]}, {cell[1]}"
        elif kind == "signalling":
            b = self.rng.choice([-1, 1], size=2)
            cfg["model.b_of_x"] = f"{b[0]:+d}, {b[1]:+d}"
        path = write_cfg(out / "experiment.cfg", cfg)
        return Op(f"kc-verify {kind}", ["kc-verify", str(path), "--quiet", "--out-dir", str(out)],
                  kind="kc-verify", headline=True, check=lambda stdout: checks.check_kc_verify(out))

    def gleason(self, dim: int) -> Op:
        out = self._dir(f"gleason-{dim}")
        state = out / "state.json"
        state.write_text(random_density_json(dim, self.rng), encoding="utf-8")
        return Op(f"gleason-check dim {dim} ({GLEASON_CONTEXTS} contexts)",
                  ["gleason-check", "--dim", str(dim), "--n-contexts", str(GLEASON_CONTEXTS),
                   "--state", str(state), "--seed", self.seed(), "--quiet",
                   "--out-dir", str(out)],
                  kind=f"gleason-check dim {dim}", scale_to_host=True, items=GLEASON_CONTEXTS,
                  check=lambda stdout: checks.check_gleason(out, dim))


class Workload:
    """A workload's set-up, its round of operations and its clean-up."""

    def __init__(self, name: str, inputs: Inputs):
        self.name = name
        self.inputs = inputs
        self.setup_done: list[Done] = []
        self.replay_logs: list[tuple[Path, dict]] = []
        self.pending: list[Op] = []

    def setup(self, work: Path) -> list[Path]:
        """Untimed preparation; returns the configs whose loading setup_s times."""
        if self.name == "replay":
            for name in REPLAY_CONFIGS:
                op, out, cfg = self.inputs.simulate(name)
                self.setup_done.append(execute(op, work, traced=False))
                self.replay_logs.append((out, cfg))
            return [out / "experiment.cfg" for out, _ in self.replay_logs]
        self.pending = self.round()
        return [Path(op.argv[1]) for op in self.pending if op.argv[0] in ("simulate",
                                                                           "kc-verify")]

    def next_round(self) -> list[Op]:
        ops, self.pending = self.pending or self.round(), []
        return ops

    def round(self) -> list[Op]:
        if self.name == "simulate":
            return [self.inputs.simulate(name)[0] for name in SIMULATE_CONFIGS]
        if self.name == "replay":
            return [self.inputs.replay(out, cfg) for out, cfg in self.replay_logs]
        kinds = (["quantum"] * KC_QUANTUM_PER_ROUND
                 + list(self.inputs.rng.choice(TABLE_KINDS, KC_TABLES_PER_ROUND, replace=False)))
        return ([self.inputs.kc_verify(str(kind)) for kind in kinds]
                + [self.inputs.gleason(dim) for dim in GLEASON_DIMS])

    def after(self, work: Path) -> list[Done]:
        """Once per simulate run: one config at 1 and 2 workers, same seed, same bytes."""
        if self.name != "simulate":
            return []
        seed = self.inputs.seed()
        runs = [self.inputs.simulate("chsh_quantum", workers, seed, IDENTITY_TRIALS)
                for workers in (1, 2)]
        done = [execute(op, work, traced=False) for op, _, _ in runs]
        problems = [p for d in done for p in d.problems]
        if not problems:
            problems = checks.check_identical(runs[0][1], runs[1][1], runs[0][2])
        op = Op(f"byte identity at 1 and 2 workers ({IDENTITY_TRIALS} trials)", [])
        return [Done(op, sum(d.wall_s for d in done), max(d.rss_mb for d in done), problems)]


def discard(op: Op) -> None:
    """Remove the event log of a checked simulate operation, to bound disk use."""
    if op.script is None and op.argv[0] == "simulate":
        for log in Path(op.argv[op.argv.index("--out-dir") + 1]).glob("*.jsonl"):
            log.unlink()


# ---------------------------------------------------------------- measurement


class SetupProbe:
    """Cold starts of a fresh interpreter that imports bellctx and loads the
    workload's configs. Samples are spread over the run, between operations,
    so that their median is taken over the same stretch of time as the rest."""

    def __init__(self, configs: list[Path], work: Path):
        self.cmd = [sys.executable, "-c", SETUP_CODE] + [str(path) for path in configs]
        self.work = work
        self.samples: list[Done] = []
        self.sample()  # warms the file cache and writes bytecode caches
        self.samples.clear()

    def sample(self) -> None:
        code, wall, rss, _, _, _, stderr = run_child(self.cmd, self.work, pin=True)
        problems = [f"exit code {code}: {stderr.strip()[-200:]}"] if code else []
        self.samples.append(Done(Op("setup: import bellctx + load_experiment", []),
                                 wall, rss, problems))


def run_rounds(workload: Workload, work: Path, seconds: float, trace: bool,
               probe: SetupProbe | None) -> list[tuple[bool, list[Done]]]:
    """Rounds of the workload's operations for about ``seconds``.

    Untraced, the first round runs whole; after it the run stops before the
    first operation that, at the median wall time of its kind so far, would
    end after ``seconds``. Traced, whole rounds alternate untraced and
    traced, at least one of each, while the next round at the mean pace so
    far would end by ``seconds``. A set-up probe runs after every second
    operation until it has SETUP_SAMPLES samples, and at the end until it
    has SETUP_SAMPLES_MIN."""
    rounds: list[tuple[bool, list[Done]]] = []
    walls: dict[str, list[float]] = {}
    started = time.perf_counter()
    n_ops = 0
    stop = False
    while not stop:
        elapsed = time.perf_counter() - started
        if trace and len(rounds) >= 2 and elapsed * (1 + 1 / len(rounds)) > seconds:
            break
        traced = trace and len(rounds) % 2 == 1
        done: list[Done] = []
        for op in workload.next_round():
            if rounds and not trace and (time.perf_counter() - started
                                         + statistics.median(walls[op.kind]) > seconds):
                stop = True
                break
            done.append(execute(op, work, traced))
            walls.setdefault(op.kind, []).append(done[-1].wall_s)
            discard(op)
            n_ops += 1
            if probe is not None and n_ops % 2 == 0 and len(probe.samples) < SETUP_SAMPLES:
                probe.sample()
        if done:
            rounds.append((traced, done))
    while probe is not None and len(probe.samples) < SETUP_SAMPLES_MIN:
        probe.sample()
    return rounds


def median_round_rate(rounds: list[list[Done]],
                      wall: Callable[[Done], float] = lambda d: d.wall_s) -> float:
    """Work per second of wall time of a round in which every operation takes
    the median wall time of its kind over the run."""
    walls: dict[str, list[float]] = {}
    for done in rounds:
        for d in done:
            walls.setdefault(d.op.kind, []).append(wall(d))
    timed = [d.op for d in rounds[0] if d.op.items]
    return (sum(op.items for op in timed)
            / sum(statistics.median(walls[op.kind]) for op in timed))


def timing_summary(values: list[float]) -> str:
    """Median with its sample count, plus the highest percentile that has at
    least ten samples beyond it."""
    text = f"median {statistics.median(values):.4f} s (n={len(values)})"
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[pct - 1]
            return text + f", p{pct} {cut:.4f} s"
    return text


def end_to_end(name: str, rounds: list[list[Done]], setup: list[Done],
               every: list[Done]) -> dict[str, float]:
    """The end-to-end metrics, with the wall times of operations that track
    the host probe scaled to the reference host speed."""
    alias_rate, rate_unit, alias_p50 = ALIASES[name]
    scaled = [d for done in rounds for d in done if d.op.scale_to_host]
    probe_s = statistics.median(d.probe_s for d in scaled) if scaled else REFERENCE_PROBE_S
    scale = REFERENCE_PROBE_S / probe_s

    def wall(d: Done) -> float:
        return d.wall_s * scale if d.op.scale_to_host else d.wall_s

    headline = [d.wall_s for done in rounds for d in done if d.op.headline]
    metrics = {
        "setup_s": statistics.median(d.wall_s for d in setup),
        "work_per_s": median_round_rate(rounds, wall),
        "command_p50_s": statistics.median(headline),
        "peak_rss_mb": max(d.rss_mb for d in every),
    }
    print(f"setup_s = {metrics['setup_s']:.4f} s   "
          f"({timing_summary([d.wall_s for d in setup])})")
    note = ""
    if scaled:
        note = (f"; {median_round_rate(rounds):.1f} {rate_unit} before scaling by "
                f"{scale:.4f} = reference {1000 * REFERENCE_PROBE_S:.1f} ms / median "
                f"probe {1000 * probe_s:.3f} ms")
    print(f"{alias_rate} = {metrics['work_per_s']:.1f} {rate_unit}   "
          f"(work_per_s; median wall time per kind over {len(rounds)} rounds{note})")
    print(f"{alias_p50} = {metrics['command_p50_s']:.4f} s   "
          f"(command_p50_s; {timing_summary(headline)})")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB")
    return metrics


def per_layer(rounds: list[tuple[bool, list[Done]]], names: list[str]) -> dict[str, float]:
    traced = [done for is_traced, done in rounds if is_traced]
    plain = [done for is_traced, done in rounds if not is_traced]
    per_round: dict[str, dict] = {}
    for done in traced:
        for d in done:
            for span, entry in d.totals.items():
                target = per_round.setdefault(span, {})
                for key, value in entry.items():
                    target[key] = target.get(key, 0.0) + value
    ops = [d for done in traced for d in done if d.totals]

    def round_wall(done: list[Done]) -> float:
        return sum(d.wall_s for d in done)

    overhead = (statistics.median(map(round_wall, traced))
                / statistics.median(map(round_wall, plain)) - 1.0)
    special = {
        "process.startup_s": statistics.median([d.startup_s for d in ops] or [0.0]),
        "process.teardown_s": statistics.median([d.teardown_s for d in ops] or [0.0]),
        "trace.overhead_pct": 100.0 * overhead,
        "kolmogorov.unique_space_ratio": statistics.mean(
            spans.unique_space_ratio([digest for d in done for digest in d.digests])
            for done in traced),
    }
    rates = {"trials_per_s": "trials", "checks_per_s": "additivity_checks",
             "contexts_per_s": "contexts"}
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
            continue
        span, key = name.rsplit(".", 1)
        entry = per_round.get(span, {})
        if key in rates:
            busy = entry.get("self_s", 0.0)
            metrics[name] = entry.get(rates[key], 0.0) / busy if busy else 0.0
        else:
            metrics[name] = entry.get(key, 0.0) / len(traced)
    return metrics


def print_breakdown(rounds: list[tuple[bool, list[Done]]]) -> None:
    """Where each command of the first traced round spent its wall time."""
    for d in next(done for is_traced, done in rounds if is_traced):
        top = sorted(d.totals.items(), key=lambda item: -item[1]["self_s"])[:3]
        parts = ", ".join(f"{span} {entry['self_s']:.3f} s" for span, entry in top)
        print(f"  {d.op.label}: wall {d.wall_s:.3f} s = startup {d.startup_s:.3f} + "
              f"[{parts}, ...] + teardown {d.teardown_s:.3f}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, wanted: list[dict]) -> dict:
    """Set up, measure and check one workload; print its summary and return its result."""
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = Workload(name, Inputs(seed, work))
        setup_configs = workload.setup(work)
        probe = None if trace else SetupProbe(setup_configs, work)
        rounds = run_rounds(workload, work, seconds, trace, probe)
        setup = probe.samples if probe else []
        after = workload.after(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = workload.setup_done + setup + [d for _, done in rounds for d in done] + after
    failed = [d for d in every if d.problems]
    print(f"workload {name} (seed {seed}): {WHY[name]}")
    print("provenance: " + json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": len(rounds), "inputs": sorted({d.op.label for d in every}),
        "numpy": np.__version__, "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }, sort_keys=True))
    for d in failed:
        print(f"FAILED {d.op.label}: {'; '.join(d.problems)}")
    print(f"error_rate = {len(failed) / len(every):.4f} ({len(failed)} of {len(every)} "
          f"operations failed)")

    if trace:
        values = per_layer(rounds, [m["name"] for m in wanted])
        print_breakdown(rounds)
        print(f"tracing overhead: {values['trace.overhead_pct']:+.2f}% of untraced round time")
    else:
        values = end_to_end(name, [done for _, done in rounds], setup, every)
    return {
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "bellctx" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no bellctx sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # On SIGTERM, unwind: the running child is killed and reaped, the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), wanted)
               for name in names}
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        print(f"result {name}: {json.dumps(result)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, result in results.items()
                    for metric, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
