"""Event-level Monte Carlo of a randomly switched two-party experiment.

Trials are generated in fixed-size chunks. Each chunk owns an RNG stream
derived from (master_seed, chunk_id) by the counter-based scheme in
:mod:`bellctx.rng`, so the full run is reproducible byte for byte no
matter how many workers generate chunks or in which order they finish.
Aggregation is a cellwise sum of counts (a commutative monoid), and the
event-log sink writes chunks in chunk order.

Estimators are the plug-in ones: E(x,y) from the per-context counts with
a binomial standard error, the CHSH S under a declared sign pattern, the
globally normalized S' where correlations are divided by the total count
over all settings, and a no-signalling audit comparing each wing's
outcome marginal across the remote setting with a pooled z-score.

Simulated spacelike separation is bookkeeping only: setting draws never
feed the model's hidden state (the superdeterministic kind conditions on
them by design, which is its point).
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .chsh import CELLS, ChshCombination, DEFAULT_COMBINATION, chsh_value, correlations, \
    max_abs_chsh
from .kolmogorov import SettingsSpec
from .models import OutcomeModel, marginals, model_description_hash
from .rng import chunk_generator, stream_label

EVENT_LOG_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TrialRecord:
    """One trial: settings drawn, outcomes observed, provenance tags."""

    trial_id: int
    x_index: int
    y_index: int
    a: int
    b: int
    chunk_id: int
    rng_label: str = ""

    def __post_init__(self) -> None:
        if self.a not in (-1, 1) or self.b not in (-1, 1):
            raise ValueError(f"outcomes must be +/-1, got a={self.a}, b={self.b}")


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
    def zeros(cls, n_alice: int, n_bob: int) -> "CountsTable":
        return cls(np.zeros((n_alice, n_bob, 2, 2), dtype=np.int64))

    @classmethod
    def from_records(cls, records, n_alice: int, n_bob: int) -> "CountsTable":
        counts = np.zeros((n_alice, n_bob, 2, 2), dtype=np.int64)
        for record in records:
            counts[record.x_index, record.y_index,
                   (1 - record.a) // 2, (1 - record.b) // 2] += 1
        return cls(counts)

    @property
    def n_total(self) -> int:
        return int(self.counts.sum())

    @property
    def n_alice(self) -> int:
        return self.counts.shape[0]

    @property
    def n_bob(self) -> int:
        return self.counts.shape[1]

    def cell(self, x_index: int, y_index: int, a: int, b: int) -> int:
        return int(self.counts[x_index, y_index, (1 - a) // 2, (1 - b) // 2])

    def context_total(self, x_index: int, y_index: int) -> int:
        return int(self.counts[x_index, y_index].sum())

    def add(self, other: "CountsTable") -> "CountsTable":
        return CountsTable(self.counts + other.counts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CountsTable) and bool(np.array_equal(self.counts, other.counts))

    def to_csv(self) -> str:
        lines = ["x_index,y_index,a,b,count"]
        for ix in range(self.n_alice):
            for iy in range(self.n_bob):
                for a in (1, -1):
                    for b in (1, -1):
                        lines.append(f"{ix},{iy},{a},{b},{self.cell(ix, iy, a, b)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "CountsTable":
        rows = []
        lines = [line for line in text.strip().splitlines() if line]
        if lines[0] != "x_index,y_index,a,b,count":
            raise ValueError("unexpected counts CSV header")
        for line in lines[1:]:
            ix, iy, a, b, count = (int(f) for f in line.split(","))
            rows.append((ix, iy, a, b, count))
        n_alice = max(r[0] for r in rows) + 1
        n_bob = max(r[1] for r in rows) + 1
        counts = np.zeros((n_alice, n_bob, 2, 2), dtype=np.int64)
        for ix, iy, a, b, count in rows:
            counts[ix, iy, (1 - a) // 2, (1 - b) // 2] = count
        return cls(counts)


@dataclass(frozen=True)
class ChunkData:
    """Raw per-chunk trial arrays (int8 outcome/setting codes)."""

    chunk_id: int
    start_trial: int
    x_index: np.ndarray
    y_index: np.ndarray
    a: np.ndarray
    b: np.ndarray
    rng_label: str


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
    return ChunkData(
        chunk_id=chunk_id,
        start_trial=start_trial,
        x_index=xs,
        y_index=ys,
        a=a,
        b=b,
        rng_label=stream_label(master_seed, chunk_id),
    )


def _chunk_counts(chunk: ChunkData, n_alice: int, n_bob: int) -> np.ndarray:
    a_idx = ((1 - chunk.a.astype(np.int64)) // 2)
    b_idx = ((1 - chunk.b.astype(np.int64)) // 2)
    flat = ((chunk.x_index.astype(np.int64) * n_bob + chunk.y_index) * 2 + a_idx) * 2 + b_idx
    return np.bincount(flat, minlength=n_alice * n_bob * 4).reshape(n_alice, n_bob, 2, 2)


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

    def iter_records(self) -> Iterator[TrialRecord]:
        for chunk in self.chunks:
            for offset in range(len(chunk.x_index)):
                yield TrialRecord(
                    trial_id=chunk.start_trial + offset,
                    x_index=int(chunk.x_index[offset]),
                    y_index=int(chunk.y_index[offset]),
                    a=int(chunk.a[offset]),
                    b=int(chunk.b[offset]),
                    chunk_id=chunk.chunk_id,
                    rng_label=chunk.rng_label,
                )

    def event_log_lines(self) -> Iterator[str]:
        """Line-delimited JSON: one header line, then one line per trial."""
        yield json.dumps({
            "schema_version": EVENT_LOG_SCHEMA_VERSION,
            "master_seed": self.master_seed,
            "model_hash": self.model_hash,
        })
        for chunk in self.chunks:
            start = chunk.start_trial
            cid = chunk.chunk_id
            for offset in range(len(chunk.x_index)):
                yield (f'{{"trial_id":{start + offset},'
                       f'"x_index":{chunk.x_index[offset]},'
                       f'"y_index":{chunk.y_index[offset]},'
                       f'"a":{chunk.a[offset]},"b":{chunk.b[offset]},'
                       f'"chunk_id":{cid}}}')

    def write_event_log(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in self.event_log_lines():
                fh.write(line)
                fh.write("\n")


def read_event_log(path) -> tuple[dict, list[TrialRecord]]:
    """Parse an event log back into its header and trial records."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        records = []
        for line in fh:
            data = json.loads(line)
            records.append(TrialRecord(
                trial_id=data["trial_id"],
                x_index=data["x_index"],
                y_index=data["y_index"],
                a=data["a"],
                b=data["b"],
                chunk_id=data["chunk_id"],
            ))
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

    jobs = []
    start = 0
    chunk_id = 0
    while start < n_trials:
        size = min(chunk_size, n_trials - start)
        jobs.append((chunk_id, start, size))
        start += size
        chunk_id += 1

    def generate(job):
        cid, start_trial, size = job
        return _generate_chunk(cell_cums, alice_cum, bob_cum,
                               master_seed, cid, start_trial, size)

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            chunks = list(pool.map(generate, jobs))
    else:
        chunks = [generate(job) for job in jobs]

    total = np.zeros((settings.n_alice, settings.n_bob, 2, 2), dtype=np.int64)
    for chunk in chunks:
        total += _chunk_counts(chunk, settings.n_alice, settings.n_bob)
    return ExperimentResult(
        counts=CountsTable(total),
        chunks=tuple(chunks),
        n_trials=n_trials,
        master_seed=master_seed,
        chunk_size=chunk_size,
        model_hash=model_description_hash(model),
        settings=settings,
    )


@dataclass(frozen=True)
class CorrelationEstimate:
    """Sample correlation of one context with its binomial standard error."""

    e: float
    se: float
    n: int


def estimate_correlations(counts: CountsTable) -> dict[tuple[int, int], CorrelationEstimate]:
    """E(x,y) = (n++ + n-- - n+- - n-+)/n per context; empty contexts absent."""
    n = counts.counts.sum(axis=(2, 3))
    signed = correlations(counts.counts)
    estimates = {}
    for ix, iy in zip(*np.nonzero(n)):
        e = signed[ix, iy] / n[ix, iy]
        se = float(np.sqrt(max(0.0, 1.0 - e * e) / n[ix, iy]))
        estimates[(int(ix), int(iy))] = CorrelationEstimate(e=float(e), se=se, n=int(n[ix, iy]))
    return estimates


def _estimate_array(estimates: Mapping[tuple[int, int], CorrelationEstimate]) -> np.ndarray:
    return np.array([[estimates[(ix, iy)].e for iy in (0, 1)] for ix in (0, 1)])


def chsh_estimate(
    estimates: Mapping[tuple[int, int], CorrelationEstimate],
    combination: ChshCombination = DEFAULT_COMBINATION,
) -> tuple[float, float]:
    """(S, SE) from per-context estimates; refuses on a missing context."""
    missing = [cell for cell in CELLS if cell not in estimates]
    if missing:
        raise ValueError(f"cannot form S: no trials observed for contexts {missing}")
    s = chsh_value(_estimate_array(estimates), combination)
    se = float(np.sqrt(sum(estimates[cell].se ** 2 for cell in CELLS)))
    return float(s), se


def global_normalized_chsh(
    counts: CountsTable,
    combination: ChshCombination = DEFAULT_COMBINATION,
) -> tuple[float, float]:
    """(S', SE) with correlations normalized by the total count.

    E'(x,y) = sum_ab ab n(x,y,a,b) / n_total, so each context's
    correlation is scaled by its selection frequency; with uniform
    binary settings S' sits at one quarter of the conditional S.
    """
    n_total = counts.n_total
    if n_total < 1:
        raise ValueError("counts table is empty")
    e_prime = correlations(counts.counts) / n_total
    context_share = counts.counts.sum(axis=(2, 3)) / n_total
    variance = sum((np.maximum(0.0, context_share - e_prime * e_prime) / n_total).ravel().tolist())
    s_global = chsh_value(e_prime, combination)
    return float(s_global), float(np.sqrt(variance))


@dataclass(frozen=True)
class MarginalAudit:
    """One wing's +1 marginal compared across two remote settings."""

    side: str
    setting_index: int
    remote_pair: tuple[int, int]
    delta: float
    z: float
    flagged: bool


def no_signalling_audit(counts: CountsTable, z_threshold: float = 5.0) -> list[MarginalAudit]:
    """Pooled-binomial z test of parameter independence on the counts.

    For each side and local setting, the empirical P(outcome = +1) is
    compared across every pair of remote settings.
    """

    alice, bob = marginals(counts.counts)
    # Per side: [local setting, remote setting, outcome] counts.
    sides = (("alice", alice), ("bob", bob.transpose(1, 0, 2)))

    audits = []
    for side, wing in sides:
        for local in range(wing.shape[0]):
            for r1, r2 in itertools.combinations(range(wing.shape[1]), 2):
                k1, n1 = int(wing[local, r1, 0]), int(wing[local, r1].sum())
                k2, n2 = int(wing[local, r2, 0]), int(wing[local, r2].sum())
                if n1 == 0 or n2 == 0:
                    continue
                p1, p2 = k1 / n1, k2 / n2
                delta = p1 - p2
                pooled = (k1 + k2) / (n1 + n2)
                denom = np.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
                if denom == 0.0:
                    z = 0.0 if delta == 0.0 else float("inf")
                else:
                    z = float(delta / denom)
                audits.append(MarginalAudit(
                    side=side, setting_index=local, remote_pair=(r1, r2),
                    delta=float(delta), z=z, flagged=abs(z) > z_threshold))
    return audits


@dataclass(frozen=True)
class EstimateReport:
    """All estimators of one run under a declared sign pattern."""

    correlations: dict[tuple[int, int], CorrelationEstimate]
    missing_cells: tuple[tuple[int, int], ...]
    combination: ChshCombination
    s: float | None
    s_se: float | None
    s_global: float | None
    s_global_se: float | None
    s_best_value: float | None
    s_best_pattern: str | None
    audits: tuple[MarginalAudit, ...]
    n_per_context: dict[tuple[int, int], int]
    n_total: int

    def to_json_dict(self) -> dict:
        return {
            "combination": self.combination.to_string(),
            "correlations": {
                f"{ix},{iy}": {"e": est.e, "se": est.se, "n": est.n}
                for (ix, iy), est in sorted(self.correlations.items())
            },
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
            "no_signalling": [
                {"side": audit.side, "setting_index": audit.setting_index,
                 "remote_pair": list(audit.remote_pair), "delta": audit.delta,
                 "z": audit.z, "flagged": audit.flagged}
                for audit in self.audits
            ],
            "n_per_context": {
                f"{ix},{iy}": n for (ix, iy), n in sorted(self.n_per_context.items())
            },
            "n_total": self.n_total,
        }


def estimate_report(
    counts: CountsTable,
    combination: ChshCombination = DEFAULT_COMBINATION,
    z_threshold: float = 5.0,
) -> EstimateReport:
    """Assemble every estimator; S is absent if any context is empty."""
    estimates = estimate_correlations(counts)
    is_two_by_two = counts.n_alice == 2 and counts.n_bob == 2
    missing = tuple(cell for cell in CELLS if cell not in estimates) if is_two_by_two else ()
    s = s_se = None
    s_best_value = None
    s_best_pattern = None
    s_global = s_global_se = None
    if is_two_by_two:
        s_global, s_global_se = global_normalized_chsh(counts, combination)
        if not missing:
            s, s_se = chsh_estimate(estimates, combination)
            s_best_value, best = max_abs_chsh(_estimate_array(estimates))
            s_best_pattern = best.to_string()
    n_per_context = {
        (ix, iy): counts.context_total(ix, iy)
        for ix in range(counts.n_alice) for iy in range(counts.n_bob)
    }
    return EstimateReport(
        correlations=estimates,
        missing_cells=missing,
        combination=combination,
        s=s,
        s_se=s_se,
        s_global=s_global,
        s_global_se=s_global_se,
        s_best_value=s_best_value,
        s_best_pattern=s_best_pattern,
        audits=tuple(no_signalling_audit(counts, z_threshold)),
        n_per_context=n_per_context,
        n_total=counts.n_total,
    )


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
