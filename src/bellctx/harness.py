"""Event-level Monte Carlo of a randomly switched two-party experiment.

Trials are generated in fixed-size chunks. Each chunk owns an RNG stream
derived from (master_seed, chunk_id) by the counter-based scheme in
:mod:`bellctx.rng`, so the full run is reproducible byte for byte no
matter how many workers generate chunks or in which order they finish.
Aggregation is a cellwise sum of counts (a commutative monoid), and the
event-log sink writes chunks in chunk order.

Estimators are the plug-in ones, all array expressions over the counts
in :func:`estimate_report`: E(x,y) from the per-context counts with a
binomial standard error, the CHSH S under a declared sign pattern, the
globally normalized S' where correlations are divided by the total count
over all settings, and a no-signalling audit comparing each wing's
outcome marginal across the remote setting with a pooled z-score.

Simulated spacelike separation is bookkeeping only: setting draws never
feed the model's hidden state (the superdeterministic kind conditions on
them by design, which is its point).

A trial is a row of the chunk columns, and one event log line on disk:
``EVENT_FIELDS`` names the columns and one line template fixes the line.
The writer fills it a slice of a chunk at a time; the reader matches its
pattern a block of lines at a time into an ``(n_trials, 6)`` int64 array.
One ``bincount`` helper counts trials into cells; every artifact is
written through :func:`atomic_write`.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .chsh import CELLS, ChshCombination, DEFAULT_COMBINATION, chsh_value, correlations, \
    is_two_by_two, max_abs_chsh
from .kolmogorov import SettingsSpec
from .models import OutcomeModel, marginals, model_description_hash
from .rng import chunk_generator

EVENT_LOG_SCHEMA_VERSION = 1

# A trial's columns, in log-line order and in read_event_log's column order.
EVENT_FIELDS = ("trial_id", "x_index", "y_index", "a", "b", "chunk_id")

# One log line; the writer fills it and the reader matches the pattern below.
_EVENT_LINE = "{" + ",".join(f'"{name}":%d' for name in EVENT_FIELDS) + "}\n"

# The template's literal text with each %d replaced by its field's values:
# outcomes are +/-1, every other field a non-negative integer as %d writes it.
# A block of such lines matches _EVENT_LINES up to its first bad line.
_EVENT_LINE_TEXT = [re.escape(part) for part in _EVENT_LINE.encode().split(b"%d")]
_EVENT_LINES = re.compile(b"(?:" + _EVENT_LINE_TEXT[0] + b"".join(
    (rb"-?1" if name in ("a", "b") else rb"(?:0|[1-9][0-9]*)") + text
    for name, text in zip(EVENT_FIELDS, _EVENT_LINE_TEXT[1:])) + b")*")

# Blanks every byte of a matched block except its numbers.
_NUMBERS_ONLY = bytes(c if chr(c) in "-0123456789" else ord(" ") for c in range(256))

# Trials per template fill and bytes per parsed block: memory does not grow
# with chunk_size or with the log. Matching a block keeps a backtracking
# stack of about eight times the block, so blocks stay small.
_ENCODE_ROWS = 8192
_READ_BYTES = 1 << 18

# |z| above which a no-signalling row is flagged.
Z_THRESHOLD = 5.0


def atomic_write(path, pieces: Iterable[str]) -> None:
    """Write the text pieces to a temp file, then rename it to ``path``;
    a failure part way removes the temp file and leaves ``path`` as it was."""
    path = Path(path)
    handle, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(handle, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
        os.replace(tmp_name, path)
    except BaseException:
        os.unlink(tmp_name)
        raise


def _cell_counts(x, y, a, b, n_alice: int, n_bob: int, weights=None) -> np.ndarray:
    """Trials (x, y, a, b), each counted ``weights`` times (default once), in
    an (n_alice, n_bob, 2, 2) array. Refuses a setting off the grid or an
    outcome other than +/-1, which bincount would count into another cell."""
    x, y, a, b = (np.asarray(v) for v in (x, y, a, b))
    if x.size and (x.min() < 0 or x.max() >= n_alice or y.min() < 0 or y.max() >= n_bob):
        raise ValueError(f"setting index outside the {n_alice}x{n_bob} settings grid")
    if not (np.all(np.abs(a) == 1) and np.all(np.abs(b) == 1)):
        raise ValueError("outcomes must be +/-1")
    flat = ((x.astype(np.int64) * n_bob + y) * 2 + (1 - a) // 2) * 2 + (1 - b) // 2
    return np.bincount(flat, weights, n_alice * n_bob * 4).reshape(n_alice, n_bob, 2, 2)


class CountsTable:
    """Non-negative counts n(x, y, a, b); outcome index 0 is +1, 1 is -1."""

    def __init__(self, counts: np.ndarray):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 4 or counts.shape[2:] != (2, 2):
            raise ValueError(f"counts must have shape (nx, ny, 2, 2), got {counts.shape}")
        if counts.min() < 0:
            raise ValueError("counts must be non-negative")
        self.counts = counts
        self.counts.setflags(write=False)

    @classmethod
    def from_records(cls, records, n_alice: int, n_bob: int) -> "CountsTable":
        """Counts of an ``(n, 6)`` trial array with columns in ``EVENT_FIELDS`` order."""
        records = np.asarray(records)
        if records.ndim != 2 or records.shape[1] != len(EVENT_FIELDS):
            raise ValueError(f"records must have shape (n, {len(EVENT_FIELDS)}), "
                             f"got {records.shape}")
        return cls(_cell_counts(*records.T[1:5], n_alice, n_bob))

    @property
    def n_total(self) -> int:
        return int(self.counts.sum())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CountsTable) and bool(np.array_equal(self.counts, other.counts))

    def to_csv(self) -> str:
        lines = ["x_index,y_index,a,b,count"]
        for (ix, iy, ia, ib), count in np.ndenumerate(self.counts):
            lines.append(f"{ix},{iy},{1 - 2 * ia},{1 - 2 * ib},{count}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "CountsTable":
        lines = [line for line in text.strip().splitlines() if line]
        if not lines or lines[0] != "x_index,y_index,a,b,count":
            raise ValueError("counts CSV does not start with the header x_index,y_index,a,b,count")
        try:
            rows = np.array([line.split(",") for line in lines[1:]], dtype=np.int64)
        except ValueError:
            rows = None
        if rows is None or rows.ndim != 2 or rows.shape[1] != 5:
            raise ValueError("counts CSV needs at least one row and five integers in every row")
        x, y, a, b, count = rows.T
        counts = _cell_counts(x, y, a, b, x.max() + 1, y.max() + 1, weights=count)
        return cls(counts.astype(np.int64))


@dataclass(frozen=True)
class ChunkData:
    """Raw per-chunk trial arrays (int8 outcome/setting codes)."""

    chunk_id: int
    start_trial: int
    x_index: np.ndarray
    y_index: np.ndarray
    a: np.ndarray
    b: np.ndarray


def _cell_cumulatives(p: np.ndarray) -> np.ndarray:
    """Per-cell cumulative outcome distributions [x, y, 4] of a behaviour."""
    cum = np.cumsum(p.reshape(p.shape[0], p.shape[1], 4), axis=-1)
    return cum / cum[..., -1:]


def _draw_indices(cumulative: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.minimum(np.searchsorted(cumulative, u, side="right"),
                      len(cumulative) - 1)


def _generate_chunk(
    cell_cums: np.ndarray,
    alice_cum: np.ndarray,
    bob_cum: np.ndarray,
    master_seed: int,
    chunk_id: int,
    start_trial: int,
    size: int,
) -> ChunkData:
    """All trials of one chunk; a pure function of its arguments.

    Draw order is fixed (settings u's, then one outcome u per trial) so
    the output is identical no matter how cells interleave.
    """
    rng = chunk_generator(master_seed, chunk_id)
    ux = rng.random(size)
    uy = rng.random(size)
    uo = rng.random(size)
    xs = _draw_indices(alice_cum, ux).astype(np.int8)
    ys = _draw_indices(bob_cum, uy).astype(np.int8)
    outcome = np.empty(size, dtype=np.int8)
    for ix, iy in np.ndindex(cell_cums.shape[:2]):
        mask = (xs == ix) & (ys == iy)
        if mask.any():
            outcome[mask] = _draw_indices(cell_cums[ix, iy], uo[mask])
    a = np.where(outcome < 2, 1, -1).astype(np.int8)
    b = np.where((outcome & 1) == 0, 1, -1).astype(np.int8)
    return ChunkData(chunk_id, start_trial, xs, ys, a, b)


def _encode_chunk(chunk: ChunkData) -> Iterator[str]:
    """The chunk's log lines, one template fill per _ENCODE_ROWS trials."""
    for offset in range(0, len(chunk.x_index), _ENCODE_ROWS):
        columns = [column[offset:offset + _ENCODE_ROWS]
                   for column in (chunk.x_index, chunk.y_index, chunk.a, chunk.b)]
        first, n = chunk.start_trial + offset, len(columns[0])
        rows = np.column_stack([np.arange(first, first + n), *columns, np.full(n, chunk.chunk_id)])
        yield (_EVENT_LINE * n) % tuple(rows.ravel().tolist())


@dataclass(frozen=True)
class ExperimentResult:
    """Counts plus the full per-chunk event stream of one run."""

    counts: CountsTable
    chunks: tuple[ChunkData, ...]
    n_trials: int
    master_seed: int
    chunk_size: int
    model_hash: str
    settings: SettingsSpec

    def write_event_log(self, path) -> None:
        """Line-delimited JSON: one header line, then one line per trial."""
        header = json.dumps({
            "schema_version": EVENT_LOG_SCHEMA_VERSION,
            "master_seed": self.master_seed,
            "model_hash": self.model_hash,
        })

        def pieces() -> Iterator[str]:
            yield header + "\n"
            for chunk in self.chunks:
                yield from _encode_chunk(chunk)

        atomic_write(path, pieces())


def read_event_log(path) -> tuple[dict, np.ndarray]:
    """Parse an event log into its header and a read-only int64 array.

    The array has one row per trial and its columns in ``EVENT_FIELDS``
    order. A header of another schema version, or a line that is not
    exactly what the writer writes (outcomes +/-1 included), raises
    ValueError naming the line.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
            version = header["schema_version"]
        except (ValueError, TypeError, KeyError):
            raise ValueError(f"{path}: line 1 is not an event log header") from None
        if version != EVENT_LOG_SCHEMA_VERSION:
            raise ValueError(f"{path}: event log schema_version {version!r} is not "
                             f"{EVENT_LOG_SCHEMA_VERSION}")
        # Count the trial lines first, so the result is allocated once and
        # each block is parsed into its own rows.
        start = fh.tell()
        n_lines = sum(part.count(b"\n") for part in iter(lambda: fh.read(_READ_BYTES), b""))
        fh.seek(start)
        records = np.empty((n_lines, len(EVENT_FIELDS)), dtype=np.int64)
        row = 0
        for lines in iter(lambda: fh.readlines(_READ_BYTES), []):
            block = b"".join(lines)
            valid = _EVENT_LINES.match(block).end()
            if valid < len(block):
                bad = block.count(b"\n", 0, valid)
                raise ValueError(f"{path}: line {row + bad + 2} is not an event "
                                 f"record: {lines[bad][:200]!r}")
            numbers = np.fromstring(block.translate(_NUMBERS_ONLY), dtype=np.int64, sep=" ")
            records[row:row + len(lines)] = numbers.reshape(-1, len(EVENT_FIELDS))
            row += len(lines)
    records.setflags(write=False)
    return header, records


def run_experiment(
    model: OutcomeModel,
    n_trials: int,
    settings: SettingsSpec,
    master_seed: int,
    chunk_size: int = 65536,
    n_workers: int = 1,
) -> ExperimentResult:
    """Generate n_trials with independently drawn settings per trial.

    Output is byte-identical for identical (master_seed, chunk_size)
    regardless of worker count.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    if model.n_alice != settings.n_alice or model.n_bob != settings.n_bob:
        raise ValueError(
            f"model declares {model.n_alice}x{model.n_bob} settings but the "
            f"settings spec has {settings.n_alice}x{settings.n_bob}")
    cell_cums = _cell_cumulatives(model.behaviour())
    alice_cum = np.cumsum(settings.alice_probs)
    alice_cum /= alice_cum[-1]
    bob_cum = np.cumsum(settings.bob_probs)
    bob_cum /= bob_cum[-1]

    starts = range(0, n_trials, chunk_size)

    def generate(chunk_id: int, start: int) -> ChunkData:
        return _generate_chunk(cell_cums, alice_cum, bob_cum, master_seed, chunk_id,
                               start, min(chunk_size, n_trials - start))

    # Never more threads than chunks, whatever the configured worker count.
    with ThreadPoolExecutor(max_workers=min(n_workers, len(starts))) as pool:
        chunks = list(pool.map(generate, range(len(starts)), starts))

    total = np.zeros((settings.n_alice, settings.n_bob, 2, 2), dtype=np.int64)
    for chunk in chunks:
        total += _cell_counts(chunk.x_index, chunk.y_index, chunk.a, chunk.b,
                              settings.n_alice, settings.n_bob)
    return ExperimentResult(
        counts=CountsTable(total),
        chunks=tuple(chunks),
        n_trials=n_trials,
        master_seed=master_seed,
        chunk_size=chunk_size,
        model_hash=model_description_hash(model),
        settings=settings,
    )


def by_context(values, keep=None) -> dict:
    """The reports' ``{"x,y": value}`` object of an (nx, ny) array, in
    row-major order with Python scalars; contexts where ``keep`` is False
    are left out."""
    rows = np.asarray(values).tolist()
    return {f"{ix},{iy}": value
            for ix, row in enumerate(rows) for iy, value in enumerate(row)
            if keep is None or keep[ix][iy]}


# One report entry per context from its E, SE and trial count.
_correlation_entry = np.frompyfunc(lambda e, se, n: {"e": e, "se": se, "n": n}, 3, 1)


@dataclass(frozen=True)
class EstimateReport:
    """All estimators of one run under a declared sign pattern.

    ``n``, ``e`` and ``se`` are (nx, ny) arrays over the contexts: trials,
    sample correlation and its binomial standard error; ``e`` and ``se``
    are NaN where a context saw no trials. The CHSH scalars are None off
    the 2x2 scenario, and S and the best pattern also need every context.
    """

    n: np.ndarray
    e: np.ndarray
    se: np.ndarray
    combination: ChshCombination
    s: float | None
    s_se: float | None
    s_global: float | None
    s_global_se: float | None
    s_best_value: float | None
    s_best_pattern: str | None
    audits: tuple[dict, ...]

    @property
    def n_total(self) -> int:
        return int(self.n.sum())

    @property
    def missing_cells(self) -> tuple[tuple[int, int], ...]:
        """The contexts of a 2x2 run that saw no trials."""
        return tuple(cell for cell in CELLS if self.n[cell] == 0) if is_two_by_two(self.n) else ()

    def to_json_dict(self) -> dict:
        return {
            "combination": self.combination.to_string(),
            "correlations": by_context(_correlation_entry(self.e, self.se, self.n),
                                       keep=self.n > 0),
            "missing_cells": [list(c) for c in self.missing_cells],
            "s": self.s,
            "s_se": self.s_se,
            "s_global": self.s_global,
            "s_global_se": self.s_global_se,
            "s_best_over_patterns": {
                "value": self.s_best_value,
                "pattern": self.s_best_pattern,
                "note": "max |S| over all 8 sign patterns, reported separately "
                        "from the declared combination",
            },
            "no_signalling": list(self.audits),
            "n_per_context": by_context(self.n),
            "n_total": self.n_total,
        }


def estimate_report(
    counts: CountsTable,
    combination: ChshCombination = DEFAULT_COMBINATION,
) -> EstimateReport:
    """Every estimator of the counts, as array expressions over n[x, y, a, b].

    E(x,y) = (n++ + n-- - n+- - n-+)/n(x,y) with SE sqrt((1 - E^2)/n(x,y)).
    S' divides the same signed counts by the total over all settings, so
    each context is weighted by its selection frequency; with uniform
    binary settings S' sits at one quarter of S. The no-signalling rows
    compare each wing's +1 marginal across every pair of remote settings
    with a pooled-binomial z-score, flagged above Z_THRESHOLD.
    """
    table = counts.counts
    n = table.sum(axis=(2, 3))
    signed = correlations(table)
    with np.errstate(invalid="ignore"):
        e = signed / n
        se = np.sqrt(np.maximum(0.0, 1.0 - e * e) / n)
    for array in (n, e, se):
        array.setflags(write=False)

    s = s_se = s_global = s_global_se = s_best_value = s_best_pattern = None
    if is_two_by_two(table):
        n_total = int(n.sum())
        if n_total < 1:
            raise ValueError("counts table is empty")
        e_prime = signed / n_total
        variance_terms = np.maximum(0.0, n / n_total - e_prime * e_prime) / n_total
        s_global = chsh_value(e_prime, combination)
        s_global_se = float(np.sqrt(sum(variance_terms.ravel().tolist())))
        if n.all():
            s = chsh_value(e, combination)
            s_se = float(np.sqrt(sum(v ** 2 for v in se.ravel().tolist())))
            s_best_value, best = max_abs_chsh(e)
            s_best_pattern = best.to_string()

    audits = []
    alice, bob = marginals(table)
    # Per wing: [local setting, remote setting, outcome] counts.
    for side, wing in (("alice", alice), ("bob", bob.transpose(1, 0, 2))):
        r1, r2 = np.triu_indices(wing.shape[1], 1)
        plus, total = wing[..., 0], wing.sum(axis=2)
        k1, k2, n1, n2 = plus[:, r1], plus[:, r2], total[:, r1], total[:, r2]
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = k1 / n1 - k2 / n2
            pooled = (k1 + k2) / (n1 + n2)
            denom = np.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
            # A zero pooled variance means both marginals are 0 or both 1.
            z = np.where(denom == 0.0, 0.0, delta / denom)
        for local, pair in zip(*np.nonzero((n1 > 0) & (n2 > 0))):
            audits.append({
                "side": side, "setting_index": int(local),
                "remote_pair": [int(r1[pair]), int(r2[pair])],
                "delta": float(delta[local, pair]), "z": float(z[local, pair]),
                "flagged": bool(abs(z[local, pair]) > Z_THRESHOLD)})

    return EstimateReport(
        n=n, e=e, se=se, combination=combination, s=s, s_se=s_se,
        s_global=s_global, s_global_se=s_global_se, s_best_value=s_best_value,
        s_best_pattern=s_best_pattern, audits=tuple(audits))


@dataclass(frozen=True)
class ExactEstimates:
    """Infinite-n limits computed straight from the model's behaviour."""

    correlations: np.ndarray
    s: float
    s_global: float


def exact_estimates(
    model: OutcomeModel,
    settings: SettingsSpec,
    combination: ChshCombination = DEFAULT_COMBINATION,
) -> ExactEstimates:
    """E, S, and S' (E of P(x) P(y) p) a run would converge to, from the behaviour."""
    p = model.behaviour()
    e = correlations(p)
    s_global = chsh_value(correlations(settings.joint_probs[:, :, None, None] * p), combination)
    return ExactEstimates(correlations=e, s=chsh_value(e, combination), s_global=s_global)
