"""Exact finite-dimensional quantum probability engine.

States are density operators, measurements are complete families of
mutually orthogonal projectors ("contexts"), and probabilities come from
the trace rule p = Re Tr(rho P). Everything is dense complex linear
algebra at dimensions small enough (d <= 16) that double precision is
comfortably exact at the 1e-10 tolerance used throughout.

Conventions
-----------
- Polarization analyzers are real qubit projectors onto
  |theta> = (cos theta, sin theta); the orthogonal outcome is
  |theta + pi/2>. Outcomes are labelled +1 / -1.
- The two-photon source state is |Phi+> = (|HH> + |VV>)/sqrt(2), for
  which the correlation of two analyzers depends only on the angle
  difference: E(ta, tb) = cos 2(ta - tb).
- All types are immutable after construction and all operations are
  pure functions, so everything is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-10

# Fixed ordering of dichotomic outcome pairs in a joint context; it is the
# row-major order of a behaviour cell p[x, y, a, b] (outcome index 0 is +1).
OUTCOME_PAIRS: tuple[tuple[int, int], ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def as_operator(entries: object) -> np.ndarray:
    """Validate and return a square complex matrix (read-only)."""
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {mat.shape}")
    if mat.shape[0] < 1:
        raise ValueError("operator dimension must be at least 1")
    mat = mat.copy()
    mat.setflags(write=False)
    return mat


def _max_abs(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat)))


@dataclass(frozen=True)
class DensityOperator:
    """Quantum state rho: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = as_operator(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if _max_abs(mat - mat.conj().T) > TOL:
            raise ValueError("density operator is not Hermitian")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > TOL:
            raise ValueError(f"density operator trace {trace} is not 1")
        eigenvalues = np.linalg.eigvalsh(mat)
        if float(eigenvalues.min()) < -TOL:
            raise ValueError(f"density operator has negative eigenvalue {eigenvalues.min()}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector: Hermitian, idempotent, integer trace = rank."""

    matrix: np.ndarray
    rank: int = field(init=False)

    def __post_init__(self) -> None:
        mat = as_operator(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if _max_abs(mat - mat.conj().T) > TOL:
            raise ValueError("projector is not Hermitian")
        if _max_abs(mat @ mat - mat) > TOL:
            raise ValueError("projector is not idempotent")
        trace = float(np.trace(mat).real)
        rank = round(trace)
        if abs(trace - rank) > TOL:
            raise ValueError(f"projector trace {trace} is not near an integer")
        object.__setattr__(self, "rank", rank)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Context:
    """Complete family of mutually orthogonal projectors (sums to identity)."""

    projectors: tuple[Projector, ...]

    def __post_init__(self) -> None:
        projs = tuple(self.projectors)
        object.__setattr__(self, "projectors", projs)
        if not projs:
            raise ValueError("context needs at least one projector")
        dim = projs[0].dim
        if any(p.dim != dim for p in projs):
            raise ValueError("context projectors have mixed dimensions")
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if _max_abs(projs[i].matrix @ projs[j].matrix) > TOL:
                    raise ValueError(f"projectors {i} and {j} are not orthogonal")
        total = sum(p.matrix for p in projs)
        if _max_abs(total - np.eye(dim)) > TOL:
            raise ValueError("context is incomplete: projectors do not sum to identity")

    @property
    def dim(self) -> int:
        return self.projectors[0].dim

    def __len__(self) -> int:
        return len(self.projectors)


@dataclass(frozen=True)
class DichotomicObservable:
    """Two-outcome observable with outcomes labelled +1 (plus) and -1 (minus)."""

    plus: Projector
    minus: Projector

    def __post_init__(self) -> None:
        if self.plus.dim != self.minus.dim:
            raise ValueError("plus/minus projectors have different dimensions")
        if _max_abs(self.plus.matrix + self.minus.matrix - np.eye(self.plus.dim)) > TOL:
            raise ValueError("outcome projectors do not sum to identity")
        if _max_abs(self.plus.matrix @ self.minus.matrix) > TOL:
            raise ValueError("outcome projectors are not orthogonal")

    @property
    def dim(self) -> int:
        return self.plus.dim

    def projector(self, outcome: int) -> Projector:
        if outcome == 1:
            return self.plus
        if outcome == -1:
            return self.minus
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")


def born_probability(rho: DensityOperator, p: Projector) -> float:
    """Trace-rule probability Re Tr(rho p), clamped to [0, 1] within TOL."""
    if rho.dim != p.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, projector {p.dim}")
    value = float(np.trace(rho.matrix @ p.matrix).real)
    if value < -TOL or value > 1.0 + TOL:
        raise ValueError(f"trace-rule value {value} outside [0, 1] tolerance band; "
                         "an upstream invariant is broken")
    return min(max(value, 0.0), 1.0)


def context_distribution(rho: DensityOperator, c: Context) -> np.ndarray:
    """Outcome distribution of a context: one probability per projector.

    The raw trace-rule values must sum to 1 within TOL; the returned
    vector is then renormalized exactly so downstream samplers see a
    distribution that sums to 1.
    """
    if rho.dim != c.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, context {c.dim}")
    probs = np.array([born_probability(rho, p) for p in c.projectors])
    total = float(probs.sum())
    if abs(total - 1.0) > TOL:
        raise ValueError(f"context probabilities sum to {total}, not 1")
    return probs / total


def pure_state(ket: object) -> DensityOperator:
    """Density operator |psi><psi| of a (normalized) state vector."""
    vec = np.asarray(ket, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    vec = vec / norm
    return DensityOperator(np.outer(vec, vec.conj()))


def maximally_mixed(dim: int) -> DensityOperator:
    """The state I/d."""
    return DensityOperator(np.eye(dim) / dim)


def basis_projector(dim: int, index: int) -> Projector:
    """Rank-1 projector onto computational basis vector |index>."""
    mat = np.zeros((dim, dim), dtype=complex)
    mat[index, index] = 1.0
    return Projector(mat)


def computational_context(dim: int) -> Context:
    """Context of all computational-basis rank-1 projectors."""
    return Context(tuple(basis_projector(dim, k) for k in range(dim)))


def polarization_observable(theta: float) -> DichotomicObservable:
    """Analyzer at angle theta: +1 projects onto (cos theta, sin theta)."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta}")
    c, s = math.cos(theta), math.sin(theta)
    plus = Projector(np.outer([c, s], [c, s]))
    minus = Projector(np.outer([-s, c], [-s, c]))
    return DichotomicObservable(plus, minus)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; preserves Hermiticity and idempotence of inputs."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def tensor_projector(a: Projector, b: Projector) -> Projector:
    return Projector(tensor(a.matrix, b.matrix))


def photon_pair_state() -> DensityOperator:
    """Maximally entangled pair (|HH> + |VV>)/sqrt(2) as a density operator."""
    ket = np.zeros(4, dtype=complex)
    ket[0] = ket[3] = 1.0 / math.sqrt(2.0)
    return pure_state(ket)


def joint_context(a: DichotomicObservable, b: DichotomicObservable) -> Context:
    """Four-projector context {Pa (x) Pb} ordered per OUTCOME_PAIRS."""
    return Context(tuple(
        tensor_projector(a.projector(oa), b.projector(ob)) for oa, ob in OUTCOME_PAIRS
    ))


def operator_to_json(mat: np.ndarray) -> list[list[list[float]]]:
    """Nested-array form with [real, imag] entry pairs (JSON-compatible)."""
    arr = np.asarray(mat, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def operator_from_json(data: object) -> np.ndarray:
    """Inverse of operator_to_json."""
    rows = [[complex(entry[0], entry[1]) for entry in row] for row in data]  # type: ignore[union-attr]
    return as_operator(rows)
