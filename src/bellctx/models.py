"""Outcome models for a two-party, two-setting, two-outcome experiment.

Each model answers one question: given settings (x, y), what is the
joint distribution of the +/-1 outcomes (a, b)? The answer is one
read-only behaviour array p[x, y, a, b] (outcome index 0 is +1), built
and validated once per model. Five mechanisms are implemented:

- ``QuantumModel``: trace-rule tables from a shared state and analyzer
  angles. Tables exist only per settings pair; no joint distribution
  over all four pairs at once is ever formed.
- ``DeterministicStrategy`` / ``MixedLhvModel``: local hidden variables,
  i.e. convex mixtures of the 16 deterministic assignments.
- ``SuperdeterministicModel``: the hidden variable's distribution is
  allowed to depend on the settings (measurement independence dropped).
- ``PrBoxModel``: perfectly correlated/anticorrelated no-signalling
  tables that reach S = 4 (parameter independence dropped at the
  mechanism level: one wing's outcome rule references the remote
  setting).
- ``SignallingModel``: deliberate negative control whose Bob marginal
  depends on Alice's setting; its tables are signalling.

Models are immutable value objects; they never own RNG state.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .chsh import (
    CELLS,
    ChshCombination,
    DEFAULT_COMBINATION,
    all_combinations,
    chsh_value,
    correlations,
    max_abs_chsh,
)
from .quantum import (
    DensityOperator,
    context_distribution,
    joint_context,
    operator_to_json,
    polarization_observable,
)

TABLE_TOL = 1e-12
BEHAVIOUR_TOL = 1e-9
# Slack on the no-signalling shift and on |S| <= 2 in the polytope test.
POLYTOPE_TOL = 1e-9

# Keys of the four outcome pairs in a tables file, in p[x, y].ravel() order.
PAIR_KEYS = ("++", "+-", "-+", "--")


class SignallingTablesError(ValueError):
    """Tables whose marginals depend on the remote setting: the hidden
    variable membership question is ill-posed for them."""


def outcome_index(value: int) -> int:
    """Array index of a +/-1 outcome: +1 -> 0, -1 -> 1."""
    return (1 - value) // 2


def validate_behaviour(p) -> np.ndarray:
    """Read-only float copy of p[x, y, a, b] after checking it is a behaviour:
    shape (nx, ny, 2, 2), no negative entry, every cell summing to 1."""
    p = np.array(p, dtype=float)
    if p.ndim != 4 or p.shape[2:] != (2, 2) or 0 in p.shape:
        raise ValueError(f"behaviour must have shape (nx, ny, 2, 2), got {p.shape}")
    if not np.isfinite(p).all() or float(p.min()) < -BEHAVIOUR_TOL:
        raise ValueError(f"behaviour has a negative or non-finite entry {p.min()}")
    sums = p.sum(axis=(2, 3))
    bad = np.argwhere(np.abs(sums - 1.0) > BEHAVIOUR_TOL)
    if len(bad):
        ix, iy = bad[0]
        raise ValueError(f"cell ({ix}, {iy}) sums to {sums[ix, iy]}, not 1")
    p.setflags(write=False)
    return p


def marginals(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alice's [x, y, a] and Bob's [x, y, b] marginals of a behaviour or counts."""
    return p.sum(axis=3), p.sum(axis=2)


def no_signalling_deltas(p: np.ndarray) -> float:
    """Worst shift of a wing's +1 marginal across remote settings, over both wings."""
    alice, bob = marginals(p)
    return float(max(np.ptp(alice[..., 0], axis=1).max(), np.ptp(bob[..., 0], axis=0).max()))


class OutcomeModel(ABC):
    """Generator of (a, b) outcome statistics given settings (x, y)."""

    kind: str = "abstract"

    # Which Bell-theorem assumption the model's mechanism breaks, if any.
    violates_parameter_independence: bool = False
    violates_measurement_independence: bool = False

    @abstractmethod
    def _behaviour(self) -> np.ndarray:
        """p[x, y, a, b] as the mechanism produces it."""

    @abstractmethod
    def to_json_dict(self) -> dict: ...

    @cached_property
    def _validated_behaviour(self) -> np.ndarray:
        return validate_behaviour(self._behaviour())

    def behaviour(self) -> np.ndarray:
        """Read-only p(a, b | x, y) as p[x, y, a, b], built and validated once."""
        return self._validated_behaviour

    @property
    def n_alice(self) -> int:
        return self.behaviour().shape[0]

    @property
    def n_bob(self) -> int:
        return self.behaviour().shape[1]


@dataclass(frozen=True)
class DeterministicStrategy(OutcomeModel):
    """Fixed local assignment: a(x) and b(y) in {-1, +1} for every setting."""

    a_of_x: tuple[int, ...]
    b_of_y: tuple[int, ...]

    kind = "deterministic"

    def __post_init__(self) -> None:
        for name, values in (("a_of_x", self.a_of_x), ("b_of_y", self.b_of_y)):
            values = tuple(int(v) for v in values)
            if not values or any(v not in (-1, 1) for v in values):
                raise ValueError(f"{name} must be non-empty with values in {{-1, +1}}")
            object.__setattr__(self, name, values)

    def _behaviour(self) -> np.ndarray:
        one_hot = np.eye(2)
        return np.einsum("xa,yb->xyab", one_hot[[outcome_index(a) for a in self.a_of_x]],
                         one_hot[[outcome_index(b) for b in self.b_of_y]])

    def chsh(self, combination: ChshCombination = DEFAULT_COMBINATION) -> int:
        """Exact integer S of the strategy (two settings per side only)."""
        return chsh_value(np.outer(self.a_of_x, self.b_of_y), combination)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "a_of_x": list(self.a_of_x), "b_of_y": list(self.b_of_y)}


def enumerate_deterministic_strategies():
    """All 16 deterministic strategies of the two-setting scenario.

    Ordered lexicographically by (a(x), a(x'), b(y), b(y')) with +1
    before -1, so witnesses and reports are reproducible.
    """
    return [
        DeterministicStrategy((a0, a1), (b0, b1))
        for a0, a1, b0, b1 in itertools.product((1, -1), repeat=4)
    ]


def lhv_max_chsh() -> int:
    """Exhaustive max |S| over all strategies and all eight sign patterns.

    Pure integer arithmetic; the answer is the exact local bound 2.
    """
    return max(
        abs(strategy.chsh(combination))
        for strategy in enumerate_deterministic_strategies()
        for combination in all_combinations()
    )


def maximizing_strategies(combination: ChshCombination = DEFAULT_COMBINATION):
    """Strategies reaching the signed maximum S = +2 at the combination."""
    strategies = enumerate_deterministic_strategies()
    best = max(s.chsh(combination) for s in strategies)
    return [s for s in strategies if s.chsh(combination) == best]


@dataclass(frozen=True)
class MixedLhvModel(OutcomeModel):
    """Convex mixture of deterministic strategies (a shared hidden variable)."""

    strategies: tuple[DeterministicStrategy, ...]
    weights: tuple[float, ...]

    kind = "mixed_lhv"

    def __post_init__(self) -> None:
        strategies = tuple(self.strategies)
        weights = np.asarray(self.weights, dtype=float)
        if len(strategies) == 0 or len(strategies) != len(weights):
            raise ValueError("strategies and weights must align and be non-empty")
        shape = (strategies[0].n_alice, strategies[0].n_bob)
        if any((s.n_alice, s.n_bob) != shape for s in strategies):
            raise ValueError("strategies declare inconsistent setting counts")
        if float(weights.min()) < 0.0:
            raise ValueError("negative mixture weight")
        total = float(weights.sum())
        if abs(total - 1.0) > TABLE_TOL:
            raise ValueError(f"mixture weights sum to {total}, not 1")
        object.__setattr__(self, "strategies", strategies)
        object.__setattr__(self, "weights", tuple(float(w) for w in weights / total))

    @classmethod
    def uniform_over_all(cls) -> "MixedLhvModel":
        strategies = enumerate_deterministic_strategies()
        return cls(tuple(strategies), (1.0 / len(strategies),) * len(strategies))

    def _behaviour(self) -> np.ndarray:
        return sum(w * s.behaviour() for s, w in zip(self.strategies, self.weights))

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "strategies": [s.to_json_dict() for s in self.strategies],
            "weights": list(self.weights),
        }


@dataclass(frozen=True)
class QuantumModel(OutcomeModel):
    """Shared state plus per-side analyzer angles.

    Each cell p[x, y] is the trace-rule distribution of its own joint
    context; no joint distribution over incompatible pairs is formed:
    the state alone does not carry outcome statistics until a context is
    named.
    """

    rho: DensityOperator
    alice_angles: tuple[float, ...]
    bob_angles: tuple[float, ...]

    kind = "quantum"

    def __post_init__(self) -> None:
        object.__setattr__(self, "alice_angles", tuple(float(t) for t in self.alice_angles))
        object.__setattr__(self, "bob_angles", tuple(float(t) for t in self.bob_angles))
        if not self.alice_angles or not self.bob_angles:
            raise ValueError("each side needs at least one analyzer angle")
        if self.rho.dim != 4:
            raise ValueError(f"two-qubit state required (dim 4), got dim {self.rho.dim}")

    def _behaviour(self) -> np.ndarray:
        alice = [polarization_observable(t) for t in self.alice_angles]
        bob = [polarization_observable(t) for t in self.bob_angles]
        return np.array([[context_distribution(self.rho, joint_context(a, b)).reshape(2, 2)
                          for b in bob] for a in alice])

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "state": operator_to_json(self.rho.matrix),
            "alice_angles": list(self.alice_angles),
            "bob_angles": list(self.bob_angles),
        }


@dataclass(frozen=True)
class PrBoxModel(OutcomeModel):
    """Extremal no-signalling box: outcomes agree except on one cell.

    Marginals are uniform on both wings for every settings pair, yet the
    correlations are +/-1 arranged to hit S = 4 on the combination whose
    negative cell matches ``negative_cell``. Mechanistically b is a
    function of (x, y, a), so parameter independence is the assumption
    being dropped.
    """

    negative_cell: tuple[int, int] = (0, 1)

    kind = "pr_box"
    violates_parameter_independence = True

    def __post_init__(self) -> None:
        cell = (int(self.negative_cell[0]), int(self.negative_cell[1]))
        if cell not in CELLS:
            raise ValueError(f"negative_cell must be one of {CELLS}, got {cell}")
        object.__setattr__(self, "negative_cell", cell)

    def _behaviour(self) -> np.ndarray:
        p = np.tile(np.eye(2) / 2, (2, 2, 1, 1))
        p[self.negative_cell] = np.fliplr(np.eye(2)) / 2
        return p

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "negative_cell": list(self.negative_cell)}


@dataclass(frozen=True)
class SuperdeterministicModel(OutcomeModel):
    """Hidden-variable model whose lambda distribution depends on (x, y).

    ``conditional`` maps each settings cell to a weighted list of
    deterministic strategies. Outcomes given lambda are purely local
    (a from x alone, b from y alone), so parameter independence holds at
    the mechanism level; what is given up is the independence of the
    hidden variable from the settings.
    """

    conditional: Mapping[tuple[int, int], tuple[tuple[DeterministicStrategy, float], ...]]

    kind = "superdeterministic"

    def __post_init__(self) -> None:
        conditional = {}
        for cell in CELLS:
            if cell not in self.conditional:
                raise ValueError(f"conditional lambda distribution missing for cell {cell}")
            entries = tuple((s, float(w)) for s, w in self.conditional[cell])
            weights = np.array([w for _, w in entries])
            if float(weights.min()) < 0.0 or abs(float(weights.sum()) - 1.0) > TABLE_TOL:
                raise ValueError(f"conditional weights for cell {cell} are not a distribution")
            conditional[cell] = entries
        object.__setattr__(self, "conditional", conditional)

    @property
    def violates_measurement_independence(self) -> bool:  # type: ignore[override]
        """True when the lambda marginal actually varies with the settings."""
        reference = self.conditional[CELLS[0]]
        return any(self.conditional[cell] != reference for cell in CELLS[1:])

    def _behaviour(self) -> np.ndarray:
        p = np.zeros((2, 2, 2, 2))
        for (ix, iy), entries in self.conditional.items():
            p[ix, iy] = sum(w * s.behaviour()[ix, iy] for s, w in entries)
        return p

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "conditional": {
                f"{ix},{iy}": [[s.to_json_dict(), w] for s, w in entries]
                for (ix, iy), entries in sorted(self.conditional.items())
            },
        }


def superdeterministic_s4_example(
    combination: ChshCombination = DEFAULT_COMBINATION,
) -> SuperdeterministicModel:
    """Settings-dependent hidden variable reaching S = 4.

    Per settings cell the conditional is an even mixture of two
    strategies: one answers (+1, sign), the other (-1, -sign), where
    sign is the combination's sign for that cell. Each cell's
    correlation is exactly the sign, so S = 4, while both wings'
    marginals stay uniform and the observable tables are identical to
    the extremal box's tables. A point mass per cell cannot do this: a
    deterministic no-signalling table set is a product strategy and
    therefore bounded by |S| <= 2.
    """
    conditional = {}
    for ix, iy in CELLS:
        sign = combination.sign(ix, iy)
        b_plus = tuple(sign if j == iy else 1 for j in range(2))
        b_minus = tuple(-sign if j == iy else -1 for j in range(2))
        conditional[(ix, iy)] = (
            (DeterministicStrategy((1, 1), b_plus), 0.5),
            (DeterministicStrategy((-1, -1), b_minus), 0.5),
        )
    return SuperdeterministicModel(conditional)


@dataclass(frozen=True)
class SignallingModel(OutcomeModel):
    """Negative control: Bob's outcome is a function of Alice's setting."""

    b_of_x: tuple[int, int] = (1, -1)

    kind = "signalling"
    violates_parameter_independence = True

    def __post_init__(self) -> None:
        values = tuple(int(v) for v in self.b_of_x)
        if len(values) != 2 or any(v not in (-1, 1) for v in values):
            raise ValueError("b_of_x must be two values in {-1, +1}")
        object.__setattr__(self, "b_of_x", values)

    def _behaviour(self) -> np.ndarray:
        p = np.zeros((2, 2, 2, 2))
        for ix, b in enumerate(self.b_of_x):
            p[ix, :, :, outcome_index(b)] = 0.5
        return p

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "b_of_x": list(self.b_of_x)}


@dataclass(frozen=True)
class PolytopeResult:
    """Verdict of the local-model membership test for a behaviour."""

    is_local: bool
    max_abs_s: float
    witness_combination: ChshCombination | None
    witness_s: float | None

    def describe(self) -> str:
        if self.is_local:
            return f"local: a strategy mixture reproduces all tables (max |S| = {self.max_abs_s:.6g})"
        return (f"nonlocal: violates CHSH, S = {self.witness_s:.4f} "
                f"at pattern {self.witness_combination.to_string()}")


def local_polytope_membership(p: np.ndarray) -> PolytopeResult:
    """Decide whether one strategy mixture reproduces the behaviour p[x, y, a, b].

    For no-signalling tables in the two-setting/two-outcome scenario the
    eight CHSH inequalities (with positivity and normalization) cut out
    exactly the mixtures of the 16 deterministic strategies, so checking
    them is a complete decision procedure and no solver is needed.
    Signalling tables are rejected up front: asking for a shared local
    variable behind them is ill-posed.
    """
    delta = no_signalling_deltas(p)
    if delta > POLYTOPE_TOL:
        raise SignallingTablesError(
            f"tables are signalling (worst marginal shift {delta:.3g}); "
            "local-model membership is ill-posed")
    worst_s, worst_combination = max_abs_chsh(correlations(p))
    if abs(worst_s) <= 2.0 + POLYTOPE_TOL:
        return PolytopeResult(True, abs(worst_s), None, None)
    return PolytopeResult(False, abs(worst_s), worst_combination, worst_s)


def model_description_hash(model: OutcomeModel) -> str:
    """Stable hash of the model's JSON description, for log headers."""
    return hashlib.sha256(json.dumps(model.to_json_dict(), sort_keys=True).encode()).hexdigest()


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key, _ = collections.Counter(key for key, _ in pairs).most_common(1)[0]
        raise ValueError(f"duplicate key {key!r}")
    return obj


def strict_json_loads(text: str):
    """``json.loads`` that refuses an object with a repeated key, where
    ``json.loads`` would keep the last value without a word."""
    return json.loads(text, object_pairs_hook=_unique_keys)


# A tables key: two setting indices in plain ASCII decimal, so each cell has one key.
_TABLES_KEY = re.compile(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)")


def tables_from_json(text: str) -> np.ndarray:
    """Parse {"x,y": {"++": p, "+-": p, "-+": p, "--": p}} into a validated p[x, y, a, b].

    Every cell of the nx-by-ny layout must be present with all four
    outcome pairs; malformed input, a repeated key included, raises
    ValueError.
    """
    data = strict_json_loads(text)
    if not isinstance(data, dict) or not data:
        raise ValueError("tables must be a non-empty JSON object keyed by 'x,y'")
    cells = {}
    for key, cell in data.items():
        match = _TABLES_KEY.fullmatch(key)
        if match is None:
            raise ValueError(f"cell key {key!r} is not two setting indices 'x,y' in "
                             f"plain decimal")
        ix, iy = map(int, match.groups())
        if not isinstance(cell, dict) or sorted(cell) != sorted(PAIR_KEYS):
            raise ValueError(f"cell {key!r} must give exactly the outcome pairs {PAIR_KEYS}")
        if not all(isinstance(cell[k], (int, float)) for k in PAIR_KEYS):
            raise ValueError(f"cell {key!r} has a non-numeric probability")
        cells[(ix, iy)] = [cell[k] for k in PAIR_KEYS]
    shape = (1 + max(ix for ix, _ in cells), 1 + max(iy for _, iy in cells))
    n_missing = shape[0] * shape[1] - len(cells)
    if n_missing:  # name the first few only: two keys can span a grid of any size
        first = list(itertools.islice((cell for cell in itertools.product(*map(range, shape))
                                       if cell not in cells), 3))
        raise ValueError(f"tables missing settings cells {first}{' ...' * (n_missing > 3)} "
                         f"({n_missing} of the {shape[0]}x{shape[1]} grid)")
    return validate_behaviour(np.reshape([cells[cell] for cell in np.ndindex(shape)],
                                         shape + (2, 2)))
