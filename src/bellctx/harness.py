"""Event-level Monte Carlo of a randomly switched two-party experiment.

Trials are generated in fixed-size chunks. Each chunk owns an RNG stream
derived from (master_seed, chunk_id) by the counter-based scheme in
:mod:`bellctx.rng`, so the full run is reproducible byte for byte no
matter how many workers generate chunks or in which order they finish.
A trial draws three uniforms, Alice's setting, Bob's and then the outcome
pair of that context, and each becomes the number of its cumulative's
thresholds (all but the last) at or below it. A trial is therefore one
cell of p(a,b|x,y), and a run is one column of cell indices, 1 byte per
trial in the 2x2 scenario. A chunk is only the unit of an RNG stream:
the column is drawn in slices of at most ``_DRAW_ROWS`` trials, whole
chunks or part of one, each thread with one buffer whatever the chunk
size. The counts are a sum of ``bincount``s of its slices (a monoid).

Estimators are the plug-in ones, all array expressions over the counts
in :func:`estimate_report`: E(x,y) from the per-context counts with a
binomial standard error, the CHSH S under a declared sign pattern, the
globally normalized S' where correlations are divided by the total count
over all settings, and a no-signalling audit comparing each wing's
outcome marginal across the remote setting with a pooled z-score.

Simulated spacelike separation is bookkeeping only: setting draws never
feed the model's hidden state (the superdeterministic kind conditions on
them by design, which is its point).

On disk a run is an event log (format 3): a JSON header line, then one
JSON line per trial. ``EVENT_FIELDS`` names a line's four numbers, the
trial's context and outcome. A setting is right-aligned with spaces to the
digit width of its side's largest index and an outcome takes two columns
(``"a": 1`` or ``"a":-1``), so a line depends on its cell alone and all
trial lines of a log have one width W: 40 bytes on any grid below 10x10.
The header holds the grid (``n_alice``, ``n_bob``) that fixes W, so trial
t starts at byte len(header line) + t * W and is in chunk t // chunk_size.
The writer encodes the column in fixed slices of ``_ENCODE_ROWS`` trials
on the calling thread, each a ``take`` of the per-cell lines, and writes
them in trial order. The reader views blocks of whole lines as matrices of
W-byte rows, decodes each row's cell from fixed columns and takes the
block iff the cells' lines give its bytes; the first row that differs is
the first bad line. It fills an ``(n_trials, 4)`` int8 array (int16 above
128 settings a side) and refuses another number of trial lines. One linear
cell index orders the cells, the counts and the per-cell lines; every
artifact is written through :func:`atomic_write`.
"""
from __future__ import annotations

import itertools
import json
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .chsh import CELLS, ChshCombination, DEFAULT_COMBINATION, chsh_value, correlations, \
    is_two_by_two, max_abs_chsh
from .kolmogorov import SettingsSpec
from .models import OutcomeModel, marginals, model_description_hash, strict_json_loads
from .rng import chunk_generator

EVENT_LOG_SCHEMA_VERSION = 3

# A trial's columns, in log-line order and in read_event_log's column order.
EVENT_FIELDS = ("x_index", "y_index", "a", "b")

# One log line. A setting is right-aligned with spaces to the digit width of
# its grid's largest index (the %*d width) and an outcome takes two columns,
# " 1" or "-1", so all lines of one grid's log have one width.
_EVENT_LINE = "{" + ",".join(f'"{name}":%{2 if name in ("a", "b") else "*"}d'
                             for name in EVENT_FIELDS) + "}\n"

# The header's fields after schema_version, in the writer's order, each with
# its type, its least value and what the reader's error says it must be.
_HEADER_FIELDS = (
    ("master_seed", int, 0, "a non-negative int"),
    ("model_hash", str, None, "a str"),
    ("n_trials", int, 0, "a count"),
    ("chunk_size", int, 1, "a positive int"),
    ("n_alice", int, 1, "a positive int"),
    ("n_bob", int, 1, "a positive int"),
)

# Trials per drawn slice (fewer draw slower), per encoded slice and per
# counted block, and the most bytes of whole lines the reader takes at once:
# memory does not grow with the log or the chunk size. At 64 KiB each of a
# block's arrays stays below glibc's 128 KiB mmap threshold, so the heap
# reuses them instead of mapping fresh pages for every block.
_DRAW_ROWS = 1 << 15
_ENCODE_ROWS = _COUNT_ROWS = 8192
_READ_BYTES = 1 << 16

# The most cells a settings grid may have: configs, runs and logs refuse
# more, and the records of any grid fit in int16.
_TABLE_CELLS = 1 << 16

# |z| above which a no-signalling row is flagged.
Z_THRESHOLD = 5.0


def atomic_write(path, pieces: Iterable[bytes]) -> None:
    """Write the byte pieces to a temp file, then rename it to ``path``;
    a failure part way removes the temp file and leaves ``path`` as it was.
    The file gets the mode ``open`` would give a new one, not mkstemp's 0600."""
    path = Path(path)
    try:
        handle, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    except OSError as error:
        # Name the artifact, not the temp file that was never made.
        error.filename = str(path)
        raise
    try:
        with os.fdopen(handle, "wb") as fh:
            fh.writelines(pieces)
            # Reading the umask sets it for the process a moment; no other
            # thread of this program creates a file meanwhile.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp_name, path)
    except BaseException:
        os.unlink(tmp_name)
        raise


def check_grid_size(n_alice: int, n_bob: int, prefix: str = "") -> None:
    """Refuse a grid of more than ``_TABLE_CELLS`` cells with ValueError."""
    if 4 * n_alice * n_bob > _TABLE_CELLS:
        raise ValueError(f"{prefix}grid {n_alice}x{n_bob} has {4 * n_alice * n_bob} cells, "
                         f"more than {_TABLE_CELLS}")


def _cell_index(x, y, a, b, n_bob: int) -> np.ndarray:
    """The linear cell index ((x * n_bob + y) * 2 + ia) * 2 + ib of trials
    (x, y, a, b) with outcomes +/-1, ia and ib 0 for +1 and 1 for -1: the
    cell order of the counts table and of the log writer's lines."""
    return ((x.astype(np.intp) * n_bob + y) * 2 + (a < 0)) * 2 + (b < 0)


def _cell_counts(x, y, a, b, n_alice: int, n_bob: int, weights=None) -> np.ndarray:
    """Trials (x, y, a, b), each counted ``weights`` times (default once), in
    an (n_alice, n_bob, 2, 2) int64 array by :func:`_cell_index`. Refuses a
    setting off the grid or an outcome other than +/-1, which the index
    would count into another cell."""
    if x.size and (x.min() < 0 or x.max() >= n_alice or y.min() < 0 or y.max() >= n_bob):
        raise ValueError(f"setting index outside the {n_alice}x{n_bob} settings grid")
    if not (np.all(np.abs(a) == 1) and np.all(np.abs(b) == 1)):
        raise ValueError("outcomes must be +/-1")
    counts = np.zeros(n_alice * n_bob * 4, dtype=np.int64)
    np.add.at(counts, _cell_index(x, y, a, b, n_bob), 1 if weights is None else weights)
    return counts.reshape(n_alice, n_bob, 2, 2)


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
        """Counts of an ``(n, 4)`` integer trial array, widened a block at a time."""
        records = np.asarray(records)
        if records.ndim != 2 or records.shape[1] != len(EVENT_FIELDS):
            raise ValueError(f"records must have shape (n, {len(EVENT_FIELDS)}), "
                             f"got {records.shape}")
        if records.dtype.kind not in "iu" or not np.can_cast(records.dtype, np.int64):
            raise ValueError(f"records must be an integer array, got dtype {records.dtype}")
        blocks = np.split(records, range(_COUNT_ROWS, len(records), _COUNT_ROWS))
        return cls(sum(_cell_counts(*block.T, n_alice, n_bob) for block in blocks))

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
        except (ValueError, OverflowError):
            rows = None
        if rows is None or rows.ndim != 2 or rows.shape[1] != 5:
            raise ValueError("counts CSV needs at least one row and five integers in every row")
        x, y, a, b, count = rows.T
        n_alice, n_bob = int(x.max()) + 1, int(y.max()) + 1
        if n_alice * n_bob * 4 > len(rows):
            raise ValueError(f"counts CSV has {len(rows)} row(s) for a {n_alice}x{n_bob} "
                             f"settings grid; it needs one row per cell")
        return cls(_cell_counts(x, y, a, b, n_alice, n_bob, weights=count))


def _cell_cumulatives(p: np.ndarray) -> np.ndarray:
    """Per-context cumulative outcome distributions [x, y, 4] of a behaviour,
    made non-decreasing so that entries a hair below zero draw as zero."""
    cum = np.maximum.accumulate(np.cumsum(p.reshape(p.shape[0], p.shape[1], 4), axis=-1),
                                axis=-1)
    return cum / cum[..., -1:]


def _sample_cells(
    out: np.ndarray,
    uniforms: np.ndarray,
    cell_cums: np.ndarray,
    alice_cum: np.ndarray,
    bob_cum: np.ndarray,
    master_seed: int,
    chunk_size: int,
    n_trials: int,
    start: int,
) -> np.ndarray:
    """Fill ``out`` with the cells of trials ``start`` on (whole chunks of
    ``chunk_size`` or part of one) of an ``n_trials`` run, drawn into the
    buffer ``uniforms`` of shape (3, >= len(out)); return their ``bincount``.

    Each chunk's stream draws three uniforms per trial in a fixed order: all
    of Alice's setting uniforms, then Bob's, then the outcome uniforms, so
    row r of a chunk of m rows draws at r, m + r and 2m + r, which a part
    of a chunk reaches with ``advance``. Each becomes an index, the number
    of thresholds at or below it among all but the last entry of its
    cumulative distribution; an outcome's thresholds are its context's.
    """
    ux, uy, uo = uniforms[:, :len(out)]
    for first in range(start, start + len(out), chunk_size):
        chunk, row = divmod(first, chunk_size)
        rows = min(chunk_size, n_trials - chunk * chunk_size)
        size = min(start + len(out) - first, rows - row)
        rng = chunk_generator(master_seed, chunk)
        for skip, column in zip((row, rows - size, rows - size), (ux, uy, uo)):
            if skip:
                rng.bit_generator.advance(skip)
            rng.random(out=column[first - start:first - start + size])
    context = np.zeros(len(out), dtype=out.dtype)
    for threshold in alice_cum[:-1]:
        context += ux >= threshold
    context *= cell_cums.shape[1]
    for threshold in bob_cum[:-1]:
        context += uy >= threshold
    np.multiply(context, 4, out=out)
    for thresholds in cell_cums.reshape(-1, 4)[:, :-1].T:
        # ux is spent: take the thresholds into it ("clip" copies no buffer).
        out += uo >= thresholds.take(context, out=ux, mode="clip")
    # bincount holds its input as intp: count in blocks, not the whole slice.
    return sum(np.bincount(out[k:k + _COUNT_ROWS], minlength=cell_cums.size)
               for k in range(0, len(out), _COUNT_ROWS))


def _grid_cells(n_alice: int, n_bob: int) -> list[tuple[int, int, int, int]]:
    """Every cell (x, y, a, b) of the settings grid, in :func:`_cell_index` order."""
    return list(itertools.product(range(n_alice), range(n_bob), (1, -1), (1, -1)))


def _field_widths(n_alice: int, n_bob: int) -> tuple[int, int, int, int]:
    """The columns each of ``EVENT_FIELDS`` takes in a line of the grid's log."""
    return len(str(n_alice - 1)), len(str(n_bob - 1)), 2, 2


def _cell_lines(n_alice: int, n_bob: int) -> np.ndarray:
    """The log line of each cell, as an (n_cells, width) byte matrix, one
    row per cell in :func:`_cell_index` order; the lines have one width."""
    wx, wy, _, _ = _field_widths(n_alice, n_bob)
    text = "".join(_EVENT_LINE % (wx, x, wy, y, a, b)
                   for x, y, a, b in _grid_cells(n_alice, n_bob))
    return np.frombuffer(text.encode(), dtype=np.uint8).reshape(4 * n_alice * n_bob, -1)


def _cell_decoder(n_alice: int, n_bob: int) -> list[tuple[int, np.ndarray]]:
    """(column, table) pairs that read the cell index of a line of the grid's
    log as the sum of ``table[line[column]]``: a setting's digits times their
    place, an outcome's sign column 1 for a minus, each times the field's
    stride in :func:`_cell_index`. Spaces and other bytes read as 0, so any
    line gives some number and a writer's line gives its cell."""
    byte = np.arange(256)
    digit = np.where((byte >= ord("0")) & (byte <= ord("9")), byte - ord("0"), 0)
    decoder, end = [], 0
    for name, width, stride in zip(EVENT_FIELDS, _field_widths(n_alice, n_bob),
                                   (4 * n_bob, 4, 2, 1)):
        # Each field follows "{" or ",", its quoted name and ":".
        end += len(name) + 4 + width
        if name in ("a", "b"):
            decoder.append((end - width, (byte == ord("-")) * stride))
        else:
            decoder += [(end - k - 1, digit * stride * 10 ** k) for k in range(width)]
    return decoder


def _encode(cells: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """The log lines of trials with the given cells: their rows of
    :func:`_cell_lines`, as one byte matrix."""
    return lines.take(cells, axis=0)


@dataclass(frozen=True)
class ExperimentResult:
    """Counts plus the cell of every trial of one run."""

    counts: CountsTable
    # Read-only, one per trial, each its counts-table cell index (see
    # _cell_index) in the smallest unsigned dtype that holds them all.
    cells: np.ndarray
    n_trials: int
    master_seed: int
    chunk_size: int
    model_hash: str
    settings: SettingsSpec
    # Threads that generated the chunks; the log is encoded on the caller's.
    n_threads: int

    @property
    def chunks(self) -> range:
        """The chunks' first trial ids; trial t is in chunk t // chunk_size."""
        return range(0, self.n_trials, self.chunk_size)

    def write_event_log(self, path) -> None:
        """Line-delimited JSON: one header line, then one line per trial,
        encoded in slices of _ENCODE_ROWS trials."""
        header = json.dumps({
            "schema_version": EVENT_LOG_SCHEMA_VERSION,
            "master_seed": self.master_seed,
            "model_hash": self.model_hash,
            "n_trials": self.n_trials,
            "chunk_size": self.chunk_size,
            "n_alice": self.settings.n_alice,
            "n_bob": self.settings.n_bob,
        })
        lines = _cell_lines(self.settings.n_alice, self.settings.n_bob)
        atomic_write(path, itertools.chain([(header + "\n").encode()], (
            _encode(self.cells[start:start + _ENCODE_ROWS], lines)
            for start in range(0, self.n_trials, _ENCODE_ROWS))))


def read_event_log(path) -> tuple[dict, np.ndarray]:
    """Parse an event log into its header and a read-only array, one row per
    trial in the grid's narrowest signed dtype (int8 up to 128 settings a
    side, 4 bytes per trial) and columns in ``EVENT_FIELDS`` order. ValueError
    names the field, the line or the counts at fault: a header with a repeated
    key, a schema_version other than the int ``EVENT_LOG_SCHEMA_VERSION``, a
    field of ``_HEADER_FIELDS`` missing or not what it must be, a grid of more
    than ``_TABLE_CELLS`` cells (checked before its lines are built), the
    first line that is not what the writer writes for that grid, or a number
    of trial lines other than n_trials, for which no more records are
    allocated than the file has lines. A block of whole lines, viewed as a
    matrix of one row per line, is taken iff it equals the lines of the cells
    decoded from its fixed columns.
    """
    with open(path, "rb") as fh:
        try:
            header = strict_json_loads(fh.readline())
            version = header["schema_version"]
        except (ValueError, TypeError, KeyError):
            raise ValueError(f"{path}: line 1 is not an event log header") from None
        if type(version) is not int or version != EVENT_LOG_SCHEMA_VERSION:
            raise ValueError(f"{path}: event log schema_version {version!r} is not "
                             f"{EVENT_LOG_SCHEMA_VERSION}")
        for name, kind, least, what in _HEADER_FIELDS:
            value = header.get(name)
            if type(value) is not kind or least is not None and value < least:
                raise ValueError(f"{path}: event log {name} {value!r} is not {what}")
        n_trials, n_alice, n_bob = header["n_trials"], header["n_alice"], header["n_bob"]
        check_grid_size(n_alice, n_bob, f"{path}: event log ")
        start = fh.tell()
        left = os.fstat(fh.fileno()).st_size - start
        wx, wy, _, _ = _field_widths(n_alice, n_bob)
        width = len(_EVENT_LINE % (wx, 0, wy, 0, 1, 1))
        rows, dtype = left // width, np.min_scalar_type(-max(n_alice, n_bob))
        lines, decoder = _cell_lines(n_alice, n_bob), _cell_decoder(n_alice, n_bob)
        cell_records = np.array(_grid_cells(n_alice, n_bob), dtype=dtype)
        records = np.empty((min(n_trials, rows), len(EVENT_FIELDS)), dtype=dtype)
        step = max(1, _READ_BYTES // width)
        # A part line after the whole ones is the first bad line if they are good.
        bad = rows if left % width else None
        for first in range(0, rows, step):
            block = fh.read(min(step, rows - first) * width)
            matrix = np.frombuffer(block, dtype=np.uint8).reshape(-1, width)
            cells = sum(table.take(matrix[:, column]) for column, table in decoder)
            expected = lines.take(cells, axis=0, mode="clip")
            if expected.tobytes() != block:
                bad = first + int(np.argmax((expected != matrix).any(axis=1)))
                break
            # Past n_trials the lines are only checked and counted. The cells
            # are on the grid here; "clip" spares take a buffered copy.
            kept = records[first:first + len(matrix)]
            cell_records.take(cells[:len(kept)], axis=0, out=kept, mode="clip")
        if bad is not None:
            fh.seek(start + bad * width)
            raise ValueError(f"{path}: line {bad + 2} is not an event record: "
                             f"{fh.readline(200)!r}")
    if rows != n_trials:
        raise ValueError(f"{path}: event log has {rows} trial lines, but its header's "
                         f"n_trials is {n_trials}")
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
    check_grid_size(settings.n_alice, settings.n_bob, "settings ")
    if model.n_alice != settings.n_alice or model.n_bob != settings.n_bob:
        raise ValueError(
            f"model declares {model.n_alice}x{model.n_bob} settings but the "
            f"settings spec has {settings.n_alice}x{settings.n_bob}")
    cell_cums = _cell_cumulatives(model.behaviour())
    alice_cum = np.cumsum(settings.alice_probs)
    alice_cum /= alice_cum[-1]
    bob_cum = np.cumsum(settings.bob_probs)
    bob_cum /= bob_cum[-1]

    cells = np.empty(n_trials, dtype=np.min_scalar_type(cell_cums.size - 1))
    # Slices of whole chunks, or of at most _DRAW_ROWS rows of one chunk.
    span = max(chunk_size, _DRAW_ROWS // chunk_size * chunk_size)
    slices = [(first, min(first + _DRAW_ROWS, group + span, n_trials))
              for group in range(0, n_trials, span)
              for first in range(group, min(group + span, n_trials), _DRAW_ROWS)]

    def sample(task: list[tuple[int, int]]) -> np.ndarray:
        uniforms = np.empty((3, min(n_trials, _DRAW_ROWS)))
        return sum(_sample_cells(cells[start:stop], uniforms, cell_cums, alice_cum, bob_cum,
                                 master_seed, chunk_size, n_trials, start)
                   for start, stop in task)

    # Never more threads than chunks; a task draws every n_threads-th slice.
    n_threads = min(n_workers, -(-n_trials // chunk_size))
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        total = sum(pool.map(sample, [slices[k::n_threads] for k in range(n_threads)]))
    cells.setflags(write=False)
    return ExperimentResult(
        counts=CountsTable(total.reshape(settings.n_alice, settings.n_bob, 2, 2)),
        cells=cells,
        n_trials=n_trials,
        master_seed=master_seed,
        chunk_size=chunk_size,
        model_hash=model_description_hash(model),
        settings=settings,
        n_threads=n_threads,
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


def exact_estimates(
    model: OutcomeModel,
    settings: SettingsSpec,
    combination: ChshCombination = DEFAULT_COMBINATION,
) -> ExactEstimates:
    """E and S a run would converge to, from the behaviour. Both are
    conditional on the context, so ``settings`` does not enter; the exact
    S', which does depend on it, is the kc audit's ``szabo_chsh``."""
    e = correlations(model.behaviour())
    return ExactEstimates(correlations=e, s=chsh_value(e, combination))
