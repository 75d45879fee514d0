"""Exact finite-dimensional quantum probability engine.

States are density operators. A measurement context is a stack
``(k, d, d)`` of k mutually orthogonal projectors that sum to the
identity, and probabilities come from the trace rule p = Re Tr(rho P):
``context_distribution`` validates a context and returns its outcome
distribution. Everything is dense complex linear algebra at dimensions
small enough (d <= 16) that double precision is comfortably exact at the
1e-10 tolerance used throughout.

Conventions
-----------
- A polarization analyzer is the stack [plus, minus] of real qubit
  projectors onto |theta> = (cos theta, sin theta) and |theta + pi/2>;
  the outcomes are labelled +1 / -1. The joint context of two analyzers
  holds their four Kronecker products in OUTCOME_PAIRS order.
- The two-photon source state is |Phi+> = (|HH> + |VV>)/sqrt(2), for
  which the correlation of two analyzers depends only on the angle
  difference: E(ta, tb) = cos 2(ta - tb).
- ``DensityOperator`` and ``Projector`` are immutable after construction.
  Functions return fresh arrays and never modify their inputs, so
  everything is safe to share across threads.
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


def projector_ranks(stack: np.ndarray) -> np.ndarray:
    """Ranks of a stack ``(..., d, d)`` of projectors; ValueError unless every
    matrix is Hermitian, idempotent and of integer trace within TOL."""
    if _max_abs(stack - stack.conj().swapaxes(-1, -2)) > TOL:
        raise ValueError("projector is not Hermitian")
    if _max_abs(stack @ stack - stack) > TOL:
        raise ValueError("projector is not idempotent")
    traces = np.trace(stack, axis1=-2, axis2=-1).real
    ranks = np.round(traces)
    off = np.abs(traces - ranks) > TOL
    if off.any():
        raise ValueError(f"projector trace {traces[off][0]} is not near an integer")
    return ranks.astype(int)


def check_contexts(stack: np.ndarray) -> None:
    """Raise ValueError unless each context of a stack ``(..., k, d, d)``
    of projectors is pairwise orthogonal and sums to the identity within TOL."""
    parts = [stack[..., i, :, :] for i in range(stack.shape[-3])]
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if _max_abs(parts[i] @ parts[j]) > TOL:
                raise ValueError(f"projectors {i} and {j} are not orthogonal")
    if _max_abs(sum(parts) - np.eye(stack.shape[-1])) > TOL:
        raise ValueError("context is incomplete: projectors do not sum to identity")


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector: Hermitian, idempotent, integer trace = rank."""

    matrix: np.ndarray
    rank: int = field(init=False)

    def __post_init__(self) -> None:
        mat = as_operator(self.matrix)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "rank", int(projector_ranks(mat[None])[0]))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def born_probabilities(rho: DensityOperator, stack: np.ndarray) -> np.ndarray:
    """Trace-rule values Re Tr(rho P) of a stack ``(m, d, d)`` of projectors,
    clamped to [0, 1] within TOL."""
    values = np.trace(rho.matrix @ stack, axis1=-2, axis2=-1).real
    outside = (values < -TOL) | (values > 1.0 + TOL)
    if outside.any():
        raise ValueError(f"trace-rule value {values[outside][0]} outside [0, 1] tolerance "
                         "band; an upstream invariant is broken")
    # Python's min(max(v, 0.0), 1.0), signed zeros included.
    values[values < 0.0] = 0.0
    values[values > 1.0] = 1.0
    return values


def born_probability(rho: DensityOperator, p: Projector) -> float:
    """Trace-rule probability Re Tr(rho p), clamped to [0, 1] within TOL."""
    if rho.dim != p.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, projector {p.dim}")
    return float(born_probabilities(rho, p.matrix[None])[0])


def context_distribution(rho: DensityOperator, context: np.ndarray) -> np.ndarray:
    """Outcome distribution of a context ``(k, d, d)``, validated here: one
    probability per projector. The raw trace-rule values must sum to 1
    within TOL; the returned vector is then renormalized exactly so
    downstream samplers see a distribution that sums to 1.
    """
    if context.ndim != 3 or context.shape[1:] != rho.matrix.shape:
        raise ValueError(f"dimension mismatch: state {rho.dim}, context of shape {context.shape}")
    projector_ranks(context)
    check_contexts(context)
    probs = born_probabilities(rho, context)
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


def polarization_observable(theta: float) -> np.ndarray:
    """Analyzer at angle theta as the stack [plus, minus]: +1 projects onto
    (cos theta, sin theta), -1 onto the orthogonal direction."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta}")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([np.outer([c, s], [c, s]), np.outer([-s, c], [-s, c])], dtype=complex)


def photon_pair_state() -> DensityOperator:
    """Maximally entangled pair (|HH> + |VV>)/sqrt(2) as a density operator."""
    ket = np.zeros(4, dtype=complex)
    ket[0] = ket[3] = 1.0 / math.sqrt(2.0)
    return pure_state(ket)


def joint_context(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Context ``(4, 4, 4)`` of the Kronecker products Pa (x) Pb of two
    analyzers' projectors, ordered per OUTCOME_PAIRS."""
    ia, ib = (1 - np.array(OUTCOME_PAIRS).T) // 2  # outcome +1 is index 0, -1 is index 1
    return (a[ia][:, :, None, :, None] * b[ib][:, None, :, None, :]).reshape(4, 4, 4)


def operator_to_json(mat: np.ndarray) -> list[list[list[float]]]:
    """Nested-array form with [real, imag] entry pairs (JSON-compatible)."""
    arr = np.asarray(mat, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def operator_from_json(data: object) -> np.ndarray:
    """Inverse of operator_to_json; anything but a square nested array of
    finite ``[re, im]`` number pairs is a ValueError."""
    pairs = np.array(data)  # a ragged nesting is already a ValueError
    if (pairs.dtype.kind not in "iuf" or pairs.ndim != 3 or pairs.shape[2] != 2
            or pairs.shape[0] != pairs.shape[1] or not np.isfinite(pairs).all()):
        raise ValueError("operator must be a square nested array of finite [re, im] "
                         "number pairs")
    return as_operator(np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0])
