"""Frame functions on the projector lattice, exercised numerically.

A frame function assigns m(P) in [0, 1] to every projector with
m(identity) = 1 and additivity over mutually orthogonal projectors.
This module samples random contexts, as stacks ``(k, d, d)`` of
projectors, to stress that additivity, fits the trace form
m(P) = Tr(rho P) back out of sampled values (the inverse problem), and
exhibits the dimension-2 loophole: a cubic function of the Bloch vector
that is additive on every two-outcome context yet is not of trace form.
In dimension >= 3 a projector sits inside infinitely many contexts;
``extravalence_check`` samples such embeddings and confirms the assigned
value does not depend on the embedding.

Random objects are drawn from explicit seeds and are deterministic given
the seed. Haar sampling uses QR of a complex Gaussian matrix with the
standard phase fix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quantum import DensityOperator, TOL, born_probabilities, check_contexts, projector_ranks

ADDITIVITY_TOL = 1e-10
# Contexts checked as one stack: bounds memory whatever n_contexts is.
CONTEXT_BLOCK = 128


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)


def _haar_unitaries(ginibre: np.ndarray) -> np.ndarray:
    """QR of a stack ``(n, d, d)`` of complex Gaussians with the phase fix."""
    q, r = np.linalg.qr(ginibre)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[:, None, :]


def random_density(dim: int, rng: np.random.Generator) -> DensityOperator:
    """Random full-rank state from the Ginibre ensemble."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return DensityOperator(rho / np.trace(rho).real)


def _ginibres(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Stack ``(n, d, d)`` of n successive ``_ginibre`` draws."""
    ginibre = np.empty((n, dim, dim), dtype=complex)
    for i in range(n):
        ginibre[i] = _ginibre(dim, rng)
    return ginibre


def random_rank_ones(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Stack ``(n, d, d)`` of Haar-random rank-1 projectors from n successive
    ``_ginibre`` draws: each is the outer product of the first column of
    its draw's Haar unitary, formed elementwise."""
    columns = _haar_unitaries(_ginibres(n, dim, rng))[:, :, 0]
    return columns[:, :, None] * columns.conj()[:, None, :]


def _context_stack(unitaries: np.ndarray, profile: tuple[int, ...]) -> np.ndarray:
    """Projectors ``(n, k, d, d)``: B B^dagger for consecutive column blocks B
    of each unitary, one block per rank of the profile."""
    stack = np.empty((len(unitaries), len(profile)) + unitaries.shape[1:], dtype=complex)
    for j, (rank, start) in enumerate(zip(profile, itertools.accumulate(profile, initial=0))):
        block = unitaries[:, :, start:start + rank]
        np.matmul(block, block.conj().swapaxes(-1, -2), out=stack[:, j])
    return stack


def random_rank_profile(dim: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniformly random composition of dim (cut each of the dim-1 gaps w.p. 1/2)."""
    cuts = (rng.random(dim - 1) < 0.5).tolist()
    bounds = [0] + [gap + 1 for gap, cut in enumerate(cuts) if cut] + [dim]
    return tuple(end - start for start, end in zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class FrameFunction:
    """Total map from projectors of one dimension to [0, 1].

    ``rule`` maps a stack ``(m, d, d)`` of projectors and their ranks
    ``(m,)`` to values ``(m,)``.
    """

    dim: int
    rule: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str

    def __post_init__(self) -> None:
        zero, identity = self.values(np.multiply.outer([0.0, 1.0], np.eye(self.dim, dtype=complex)),
                                     np.array([0, self.dim]))
        if abs(zero) > TOL:
            raise ValueError(f"frame function must vanish on the zero projector ({self.label})")
        if abs(identity - 1.0) > TOL:
            raise ValueError(f"frame function must be 1 on the identity ({self.label})")

    def values(self, stack: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """The rule on a stack ``(m, d, d)`` of projectors; a value outside
        [0, 1] (or NaN) is an error."""
        if stack.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"dimension mismatch: frame function {self.dim}, "
                             f"projectors of shape {stack.shape}")
        values = np.asarray(self.rule(stack, ranks), dtype=float)
        outside = ~((values >= -TOL) & (values <= 1.0 + TOL))
        if outside.any():
            raise ValueError(f"frame function value {values[outside][0]} outside [0, 1] "
                             f"({self.label})")
        return values

    @classmethod
    def trace_form(cls, rho: DensityOperator) -> "FrameFunction":
        return cls(rho.dim, lambda stack, ranks: born_probabilities(rho, stack), "trace_form")


def dim2_counterexample() -> FrameFunction:
    """Additive-but-not-linear frame function on qubit projectors.

    On a rank-1 projector with Bloch z-component n_z the value is
    (1 + n_z^3)/2. The only additivity constraint a qubit context can
    impose is m(P) + m(I - P) = 1, which the odd cubic satisfies
    identically, yet no state reproduces the cubic through the trace
    rule. This is the structural reason trace-form uniqueness needs
    dimension >= 3.
    """

    def rule(stack: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        n_z = (stack[:, 0, 0] - stack[:, 1, 1]).real
        # Python's float pow: numpy's vectorised cube differs in the last bit on some inputs.
        return np.where(ranks == 1, [0.5 * (1.0 + v ** 3) for v in n_z.tolist()], ranks / 2)

    return FrameFunction(2, rule, "bloch_cubic")


@dataclass(frozen=True)
class AdditivityReport:
    """Worst additivity defect of a frame function over sampled contexts."""

    n_contexts_tested: int
    worst_violation: float
    passed: bool
    dim: int


def _worst_defect(m: FrameFunction, parts: np.ndarray) -> float:
    """Worst |m(sum of subset) - sum of m| over the subsets (size two and up)
    of each context in a stack ``(n, k, d, d)``, validated first. Sums run
    from 0 in ``itertools.combinations`` order, as Python's ``sum`` would."""
    n, k, dim, _ = parts.shape
    ranks = projector_ranks(parts)
    check_contexts(parts)
    values = m.values(parts.reshape(-1, dim, dim), ranks.ravel()).reshape(n, k)
    worst = 0.0
    for size in range(2, k + 1):
        merged, mass, merged_ranks = 0, 0, 0
        for column in np.array(list(itertools.combinations(range(k), size))).T:
            merged = merged + parts[:, column]
            mass = mass + values[:, column]
            merged_ranks = merged_ranks + ranks[:, column]
        merged_values = m.values(merged.reshape(-1, dim, dim), merged_ranks.ravel())
        worst = max(worst, float(np.max(np.abs(merged_values - mass.ravel()))))
    return worst


def check_orthogonal_additivity(m: FrameFunction, n_contexts: int, dim: int,
                                seed) -> AdditivityReport:
    """Check m(sum of subset) = sum of m over random contexts.

    Contexts are Haar-random with random rank profiles; every subset of
    each context's projectors (size two and up) is tested. Each context
    draws its rank profile, then its Gaussian matrix; CONTEXT_BLOCK of
    them are checked as stacks, one per number of projectors.
    """
    if dim != m.dim:
        raise ValueError(f"dimension mismatch: frame function {m.dim}, requested {dim}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for start in range(0, n_contexts, CONTEXT_BLOCK):
        ginibre = np.empty((min(CONTEXT_BLOCK, n_contexts - start), dim, dim), dtype=complex)
        profiles = []
        for i in range(len(ginibre)):
            profiles.append(random_rank_profile(dim, rng))
            ginibre[i] = _ginibre(dim, rng)
        unitaries = _haar_unitaries(ginibre)
        for k in sorted({len(profile) for profile in profiles}):
            parts = np.concatenate([
                _context_stack(unitaries[[i for i, p in enumerate(profiles) if p == profile]], profile)
                for profile in dict.fromkeys(profiles) if len(profile) == k])
            worst = max(worst, _worst_defect(m, parts))
    return AdditivityReport(n_contexts_tested=n_contexts, worst_violation=worst,
                            passed=worst <= ADDITIVITY_TOL, dim=dim)


def traceless_hermitian_basis(dim: int) -> list[np.ndarray]:
    """Generalized Gell-Mann generators: a real basis of traceless Hermitians."""
    basis: list[np.ndarray] = []
    for j in range(dim):
        for k in range(j + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            basis.append(sym)
            anti = np.zeros((dim, dim), dtype=complex)
            anti[j, k] = -1.0j
            anti[k, j] = 1.0j
            basis.append(anti)
    for level in range(1, dim):
        diag = np.zeros((dim, dim), dtype=complex)
        diag[np.arange(level), np.arange(level)] = 1.0
        diag[level, level] = -float(level)
        basis.append(diag)
    return basis


@dataclass(frozen=True)
class TraceFormFit:
    """Least-squares reconstruction of the state behind sampled values."""

    rho_estimate: DensityOperator
    residual: float
    n_samples: int


def fit_trace_form(stack: np.ndarray, values, dim: int) -> TraceFormFit:
    """Fit a unit-trace Hermitian rho to the values of a stack ``(n, d, d)``
    of projectors, one value per projector.

    The state is parameterized as I/dim plus a real combination of
    traceless Hermitian generators, keeping the least-squares problem
    real. The sample set must have full rank dim^2 over the Hermitian
    operator space; otherwise the fit is underdetermined and the caller
    should sample more projectors. If the solution dips below -TOL it is
    projected back onto the state set by eigenvalue clipping and trace
    renormalization.
    """
    values = np.asarray(values, dtype=float)
    if stack.shape[1:] != (dim, dim) or values.shape != stack.shape[:1]:
        raise ValueError(f"need a stack (n, {dim}, {dim}) of projectors and n values, "
                         f"got shapes {stack.shape} and {values.shape}")
    if len(stack) < dim * dim:
        raise ValueError(
            f"need at least dim^2 = {dim * dim} samples, got {len(stack)}")
    ranks = projector_ranks(stack)
    generators = traceless_hermitian_basis(dim)
    # design[i, j] = tr(G_j P_i), one stacked product per generator: a product
    # for every pair at once would hold n * dim^6 complex numbers.
    design = np.stack([np.trace(g @ stack, axis1=1, axis2=2).real for g in generators],
                      axis=1)
    full_design = np.column_stack([np.trace(stack, axis1=1, axis2=2).real, design])
    rank = np.linalg.matrix_rank(full_design, tol=1e-8)
    if rank < dim * dim:
        raise ValueError(
            f"sample design has rank {rank} < dim^2 = {dim * dim}; "
            "sample more (or more varied) projectors")
    targets = values - ranks / dim
    coeffs, *_ = np.linalg.lstsq(design, targets, rcond=None)
    rho = np.eye(dim, dtype=complex) / dim
    for c, g in zip(coeffs, generators):
        rho = rho + c * g
    rho = (rho + rho.conj().T) / 2.0
    eigenvalues, vectors = np.linalg.eigh(rho)
    if float(eigenvalues.min()) < -TOL:
        clipped = np.clip(eigenvalues, 0.0, None)
        clipped /= clipped.sum()
        rho = (vectors * clipped) @ vectors.conj().T
    estimate = DensityOperator(rho)
    residual = np.max(np.abs(np.trace(estimate.matrix @ stack, axis1=1, axis2=2).real - values))
    return TraceFormFit(rho_estimate=estimate, residual=float(residual), n_samples=len(stack))


def _embedding_pieces(p: np.ndarray, rank: int, n: int, seed) -> np.ndarray:
    """Stack ``(n, k, d, d)`` of rank-1 pieces, one context's worth per
    embedding of the projector ``p`` of the given rank: Haar-random splits
    of its complement, of dimension k >= 2, from n successive ``_ginibre``
    draws as :func:`random_rank_ones` makes them."""
    complement_dim = len(p) - rank
    if complement_dim < 2:
        raise ValueError(
            f"projector of rank {rank} in dimension {len(p)} has a unique completion; "
            "intertwining needs a complement of dimension >= 2")
    rng = np.random.default_rng(seed)
    eigenvalues, vectors = np.linalg.eigh(p)
    complement_basis = vectors[:, eigenvalues < 0.5]
    unitaries = _haar_unitaries(_ginibres(n, complement_dim, rng))
    columns = (complement_basis @ unitaries).swapaxes(1, 2)
    return columns[..., :, None] * columns.conj()[..., None, :]


@dataclass(frozen=True)
class ExtravalenceReport:
    """Consistency of a frame function across embeddings of one projector."""

    passed: bool
    spread: float
    target_deviation: float
    n_contexts: int
    value: float


def extravalence_check(
    m: FrameFunction,
    p: np.ndarray,
    n_contexts: int,
    seed,
) -> ExtravalenceReport:
    """Verify the value of the projector ``p`` ``(d, d)`` is embedding-independent.

    m is a function of the projector alone, so m(p) cannot vary across
    contexts by construction; what can vary is the rest of the context.
    For each sampled embedding the residual mass sum(m(q), q != p) must
    land on 1 - m(p): ``spread`` is its variation across embeddings and
    ``target_deviation`` its worst distance from the target. Both must
    stay within ADDITIVITY_TOL to pass.
    """
    rank = projector_ranks(p[None])
    value = float(m.values(p[None], rank)[0])
    target = 1.0 - value
    pieces = _embedding_pieces(p, int(rank[0]), n_contexts, seed)
    ranks = projector_ranks(pieces)
    check_contexts(np.concatenate([np.broadcast_to(p, pieces[:, :1].shape), pieces], axis=1))
    values = m.values(pieces.reshape(-1, *p.shape), ranks.ravel()).reshape(ranks.shape)
    residuals = [sum(row) for row in values.tolist()]  # Python's left-to-right sum
    spread = max(residuals) - min(residuals)
    target_deviation = max(abs(r - target) for r in residuals)
    return ExtravalenceReport(passed=spread <= ADDITIVITY_TOL
                              and target_deviation <= ADDITIVITY_TOL,
                              spread=spread, target_deviation=target_deviation,
                              n_contexts=n_contexts, value=value)
