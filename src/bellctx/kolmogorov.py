"""Classical probability spaces built from quantum data, and their audit.

A fixed measurement context induces an ordinary finite probability space
(one atom per projector). A randomly switched two-party experiment with
setting distributions P(x), P(y) induces the larger product space whose
atoms are (x, a, y, b) tuples with

    prob(x, a, y, b) = P(x) * P(y) * P(ab|xy),

which for uniform binary settings has 16 atoms each carrying a factor
1/4. Both constructions are verified against the probability axioms
(positivity, normalization, additivity on disjoint events). The spaces
here are finite, so countable additivity coincides with the finite
additivity that is actually checked; the report says so explicitly.

The mixed space is built from a behaviour p[x, y, a, b] (see
:mod:`bellctx.models`); its atoms are labelled by index alone,
``x{x}:a{+-1}|y{y}:b{+-1}``, in (x, a, y, b) order. ``szabo_chsh`` reads
the globally normalized S' off its probability vector reshaped to
[x, a, y, b], via the unconditioned correlations E'(x,y); the per-context
S comes from the conditional correlations E(x,y) of p. For
uniform binary settings S' = S/4 identically, which moves the quantum
2*sqrt(2) down to sqrt(2)/2 without changing the physics -- only the
normalization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .chsh import ChshCombination, DEFAULT_COMBINATION, chsh_value
from .quantum import Context, DensityOperator, context_distribution

SPACE_TOL = 1e-12

# The sampled additivity audit's pair count and generator seed.
SAMPLED_PAIRS = 10_000
SAMPLED_SEED = 0

ADDITIVITY_NOTE = (
    "finite additivity checked; on a finite sample space this coincides "
    "with countable additivity"
)


@dataclass(frozen=True)
class ClassicalProbabilitySpace:
    """Finite sample space with the full power set as event algebra.

    ``atoms`` are string labels; ``probs`` is the aligned probability
    vector, validated (>= 0, sums to 1 within SPACE_TOL) and then
    renormalized exactly. Use :meth:`unchecked` to carry deliberately
    invalid tables into the verifier.
    """

    atoms: tuple[str, ...]
    probs: np.ndarray
    validated: bool = True

    def __post_init__(self) -> None:
        atoms = tuple(str(a) for a in self.atoms)
        probs = np.asarray(self.probs, dtype=float).reshape(-1).copy()
        if len(atoms) != len(probs):
            raise ValueError("atoms and probabilities have different lengths")
        if len(atoms) == 0:
            raise ValueError("sample space must have at least one atom")
        if len(set(atoms)) != len(atoms):
            raise ValueError("atom labels must be unique")
        if self.validated:
            if not np.isfinite(probs).all():
                raise ValueError("probabilities must be finite")
            if float(probs.min(initial=0.0)) < 0.0:
                raise ValueError(f"negative probability {probs.min()}")
            total = float(probs.sum())
            if abs(total - 1.0) > SPACE_TOL:
                raise ValueError(f"probabilities sum to {total}, not 1")
            probs /= total
        probs.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def unchecked(cls, atoms, probs) -> "ClassicalProbabilitySpace":
        """Build without validation or renormalization (verifier fodder)."""
        return cls(tuple(atoms), np.asarray(probs, dtype=float), validated=False)

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class SettingsSpec:
    """Angles and selection probabilities for the two analyzer sides."""

    alice_angles: tuple[float, ...]
    alice_probs: tuple[float, ...]
    bob_angles: tuple[float, ...]
    bob_probs: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("alice", "bob"):
            angles = tuple(float(t) for t in getattr(self, f"{name}_angles"))
            probs = np.asarray(getattr(self, f"{name}_probs"), dtype=float)
            if len(angles) != len(probs) or len(angles) == 0:
                raise ValueError(f"{name}: angles and probabilities must align and be non-empty")
            if not np.isfinite(probs).all():
                raise ValueError(f"{name}: setting probabilities must be finite")
            if float(probs.min()) < 0.0:
                raise ValueError(f"{name}: negative setting probability")
            total = float(probs.sum())
            if abs(total - 1.0) > SPACE_TOL:
                raise ValueError(f"{name}: setting probabilities sum to {total}, not 1")
            object.__setattr__(self, f"{name}_angles", angles)
            object.__setattr__(self, f"{name}_probs", tuple(float(p) for p in probs / total))

    @classmethod
    def uniform(cls, alice_angles, bob_angles) -> "SettingsSpec":
        na, nb = len(alice_angles), len(bob_angles)
        return cls(tuple(alice_angles), (1.0 / na,) * na,
                   tuple(bob_angles), (1.0 / nb,) * nb)

    @property
    def n_alice(self) -> int:
        return len(self.alice_angles)

    @property
    def n_bob(self) -> int:
        return len(self.bob_angles)

    @property
    def joint_probs(self) -> np.ndarray:
        """P(x) P(y) as an (nx, ny) array."""
        return np.multiply.outer(self.alice_probs, self.bob_probs)


# The standard angle set at which the pair state reaches S = 2*sqrt(2).
OPTIMAL_ALICE_ANGLES = (0.0, np.pi / 4)
OPTIMAL_BOB_ANGLES = (np.pi / 8, 3 * np.pi / 8)


def optimal_settings() -> SettingsSpec:
    return SettingsSpec.uniform(OPTIMAL_ALICE_ANGLES, OPTIMAL_BOB_ANGLES)


@dataclass(frozen=True)
class KolmogorovReport:
    """Outcome of the axiom audit of one probability space."""

    positivity_ok: bool
    normalization_ok: bool
    additivity_ok: bool
    worst_violation: float
    n_additivity_checks: int
    n_atoms: int
    additivity_mode: str  # "exhaustive" | "sampled"
    note: str = ADDITIVITY_NOTE

    @property
    def all_ok(self) -> bool:
        return self.positivity_ok and self.normalization_ok and self.additivity_ok


def build_single_context_space(rho: DensityOperator, c: Context) -> ClassicalProbabilitySpace:
    """One atom per projector of the context; trace-rule probabilities."""
    probs = context_distribution(rho, c)
    atoms = tuple(f"P{k}" for k in range(len(c)))
    return ClassicalProbabilitySpace(atoms, probs)


def _mixed_atoms(n_alice: int, n_bob: int) -> tuple[str, ...]:
    """Mixed-space atom labels, in the [x, a, y, b] order of its probabilities."""
    return tuple(f"x{ix}:a{a:+d}|y{iy}:b{b:+d}"
                 for ix, a, iy, b in itertools.product(range(n_alice), (1, -1),
                                                       range(n_bob), (1, -1)))


def build_mixed_context_space_from_tables(
    p: np.ndarray, spec: SettingsSpec,
) -> ClassicalProbabilitySpace:
    """Product space over settings and outcomes from a behaviour p[x, y, a, b].

    Atoms are (x, a, y, b) tuples with prob = P(x) P(y) p(ab|xy); for a
    2x2 uniform-setting experiment that is 16 atoms at p(ab|xy)/4.
    """
    weighted = spec.joint_probs[:, :, None, None] * p
    return ClassicalProbabilitySpace(_mixed_atoms(spec.n_alice, spec.n_bob),
                                     weighted.transpose(0, 2, 1, 3).ravel())


def _subset_probabilities(probs: np.ndarray) -> np.ndarray:
    """P(A) for every subset A of atoms, indexed by bitmask."""
    n = len(probs)
    table = np.zeros(1 << n)
    for k in range(n):
        size = 1 << k
        table[size:2 * size] = table[:size] + probs[k]
    return table


def _ternary_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks (A, B) of every disjoint ordered pair over n atoms.

    Code digit per atom: 0 (in neither), 1 (in A), 2 (in B); 3^n codes.
    """
    a = np.zeros(1, dtype=np.uint32)
    b = np.zeros(1, dtype=np.uint32)
    for k in range(n):
        bit = np.uint32(1 << k)
        a = np.concatenate([a, a | bit, a])
        b = np.concatenate([b, b, b | bit])
    return a, b


def _worst_difference(diff: np.ndarray, cases) -> float:
    """Worst |(union - a) - b| over the low pairs of each (union, a, b) case,
    evaluated in the rows of ``diff``."""
    block = diff[:len(cases)]
    for row, (union, a, b) in zip(block, cases):
        np.subtract(union, a, out=row)
        np.subtract(row, b, out=row)
    return float(np.abs(block, out=block).max())


def _worst_extension(levels, diff: np.ndarray, union, a, b) -> float:
    """Worst violation over the pairs that extend the low pairs' sums
    (union, a, b) by one digit per high atom, depth first. ``levels`` holds
    each high atom's probability and a (3, 3^8) buffer, in atom order.
    Not a closure: one that calls itself is a reference cycle, and its
    buffers would stay resident until the cyclic collector runs."""
    (p, (union_p, a_p, b_p)), rest = levels[0], levels[1:]
    np.add(union, p, out=union_p)
    np.add(a, p, out=a_p)
    np.add(b, p, out=b_p)
    cases = (union, a, b), (union_p, a_p, b), (union_p, a, b_p)
    if not rest:
        return _worst_difference(diff, cases)
    return max(_worst_extension(rest, diff, *case) for case in cases)


def _exhaustive_additivity(probs: np.ndarray) -> tuple[float, int]:
    """Worst |P(A u B) - P(A) - P(B)| over all disjoint ordered pairs.

    The subset table adds atoms in ascending order, so a subset's sum is
    its low (first 8) atoms' sum plus its high atoms one by one. The low
    pairs' sums for A u B, A and B are gathered once; a depth-first walk
    over the high atoms' digits then adds each high atom to them, and the
    last high atom's three digits are evaluated as one (3, 3^8) block.
    Every sum and difference is the float the full subset table gives.
    """
    n = len(probs)
    n_low = min(n, 8)
    table = _subset_probabilities(probs[:n_low])
    a_low, b_low = _ternary_masks(n_low)
    low = table[a_low | b_low], table[a_low], table[b_low]
    diff = np.empty((3, len(a_low)))
    if n == n_low:
        return _worst_difference(diff, (low,)), 3 ** n
    levels = tuple(zip(probs[n_low:], np.empty((n - n_low, 3, len(a_low)))))
    return _worst_extension(levels, diff, *low), 3 ** n


def _sampled_additivity(probs: np.ndarray) -> tuple[float, int]:
    """Worst violation over a fixed random sample of disjoint pairs."""
    rng = np.random.default_rng(SAMPLED_SEED)
    digits = rng.integers(0, 3, size=(SAMPLED_PAIRS, len(probs)))
    in_a = digits == 1
    in_b = digits == 2
    p_a = in_a @ probs
    p_b = in_b @ probs
    p_union = (in_a | in_b) @ probs
    worst = float(np.max(np.abs(p_union - p_a - p_b), initial=0.0))
    return worst, SAMPLED_PAIRS


def verify_kolmogorov(
    space: ClassicalProbabilitySpace, exhaustive_limit: int = 16,
) -> KolmogorovReport:
    """Audit positivity, normalization, and disjoint-event additivity.

    Additivity is checked exhaustively (all 3^n ordered disjoint pairs,
    via subset coding) while the space has at most ``exhaustive_limit``
    atoms, else on SAMPLED_PAIRS random pairs drawn from SAMPLED_SEED.
    A space with a non-finite probability fails all three checks with an
    infinite worst violation, and no pair is checked.
    """
    probs = space.probs
    mode = "exhaustive" if len(space) <= exhaustive_limit else "sampled"
    if not np.isfinite(probs).all():
        return KolmogorovReport(False, False, False, float("inf"), 0, len(space), mode)
    positivity_deficit = max(0.0, -float(probs.min()))
    normalization_dev = abs(float(probs.sum()) - 1.0)
    audit = _exhaustive_additivity if mode == "exhaustive" else _sampled_additivity
    additivity_worst, n_checks = audit(probs)
    return KolmogorovReport(
        positivity_ok=positivity_deficit == 0.0,
        normalization_ok=normalization_dev <= SPACE_TOL,
        additivity_ok=additivity_worst <= SPACE_TOL,
        worst_violation=max(positivity_deficit, normalization_dev, additivity_worst),
        n_additivity_checks=n_checks,
        n_atoms=len(space),
        additivity_mode=mode,
    )


def szabo_chsh(
    space: ClassicalProbabilitySpace,
    combination: ChshCombination = DEFAULT_COMBINATION,
) -> float:
    """S' from unconditioned correlations E'(x,y) = sum_ab ab * P(x,a,y,b).

    The space must be the 16-atom (x, a, y, b) space that
    build_mixed_context_space_from_tables makes with two settings per
    side, atoms in its order.
    """
    if space.atoms != _mixed_atoms(2, 2):
        raise ValueError(f"expected the 16-atom mixed-context structure in "
                         f"[x, a, y, b] order, got {len(space)} atoms")
    w = space.probs.reshape(2, 2, 2, 2)
    e_prime = w[:, 0, :, 0] - w[:, 0, :, 1] - w[:, 1, :, 0] + w[:, 1, :, 1]
    return float(chsh_value(e_prime, combination))
