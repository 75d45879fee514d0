"""Classical probability spaces built from quantum data, and their audit.

A fixed measurement context induces an ordinary finite probability space
(one atom per projector). A randomly switched two-party experiment with
setting distributions P(x), P(y) induces the larger product space whose
atoms are (x, a, y, b) tuples with

    prob(x, a, y, b) = P(x) * P(y) * P(ab|xy),

which for uniform binary settings has 16 atoms each carrying a factor
1/4. Both constructions are audited against the probability axioms: each
atom must be finite and non-negative and the atoms must sum to 1.
Additivity on disjoint events holds by construction, since P(A) is the
sum of A's atoms; the spaces here are finite, so it is countable
additivity too, and the report says so explicitly.

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
import math
from dataclasses import dataclass

import numpy as np

from .chsh import ChshCombination, DEFAULT_COMBINATION, chsh_value

SPACE_TOL = 1e-12

ADDITIVITY_NOTE = (
    "finite additivity holds by construction: P(A) is the sum of A's atoms, "
    "a measure on the atoms; on a finite sample space it coincides with "
    "countable additivity"
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
    n_additivity_checks: int  # 0: additivity holds by construction
    n_atoms: int
    note: str = ADDITIVITY_NOTE

    @property
    def all_ok(self) -> bool:
        return self.positivity_ok and self.normalization_ok and self.additivity_ok


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


def verify_kolmogorov(space: ClassicalProbabilitySpace) -> KolmogorovReport:
    """Audit finiteness and positivity per atom, and normalization.

    P(A) is the sum of A's atoms, so P is a measure defined on the atoms
    and additive on disjoint events by construction; no pair of events is
    enumerated. Normalization compares ``math.fsum`` of the atoms with 1.
    A space with a non-finite probability fails all three checks with an
    infinite worst violation.
    """
    probs = space.probs
    if not np.isfinite(probs).all():
        return KolmogorovReport(False, False, False, float("inf"), 0, len(space))
    positivity_deficit = max(0.0, -float(probs.min()))
    normalization_dev = abs(math.fsum(probs) - 1.0)
    return KolmogorovReport(
        positivity_ok=positivity_deficit == 0.0,
        normalization_ok=normalization_dev <= SPACE_TOL,
        additivity_ok=True,
        worst_violation=max(positivity_deficit, normalization_dev),
        n_additivity_checks=0,
        n_atoms=len(space),
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
