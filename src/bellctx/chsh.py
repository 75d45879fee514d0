"""CHSH sign patterns and the S value they induce on a correlation array.

A CHSH combination assigns a sign to each of the four settings cells
(x_index, y_index) with the product of the four signs equal to -1; there
are exactly eight such patterns. The default is the widely used
S = E(0,0) + E(1,0) + E(1,1) - E(0,1).

Correlations are read off a behaviour p[x, y, a, b] or a counts array in
the same layout (outcome index 0 is +1, 1 is -1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

CELLS: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class ChshCombination:
    """Signs per settings cell, row-major ((0,0), (0,1), (1,0), (1,1))."""

    signs: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.signs) != 4 or any(s not in (-1, 1) for s in self.signs):
            raise ValueError(f"signs must be four values in {{-1, +1}}, got {self.signs}")
        if self.signs[0] * self.signs[1] * self.signs[2] * self.signs[3] != -1:
            raise ValueError("CHSH signs must have product -1")

    def sign(self, x_index: int, y_index: int) -> int:
        return self.signs[CELLS.index((x_index, y_index))]

    @classmethod
    def from_string(cls, text: str) -> "ChshCombination":
        """Parse e.g. '+-++' (row-major cell order)."""
        cleaned = text.strip().replace(" ", "").replace(",", "")
        if len(cleaned) != 4 or any(ch not in "+-" for ch in cleaned):
            raise ValueError(f"combination string must be four of '+'/'-', got {text!r}")
        return cls(tuple(1 if ch == "+" else -1 for ch in cleaned))  # type: ignore[arg-type]

    def to_string(self) -> str:
        return "".join("+" if s == 1 else "-" for s in self.signs)


# S = E(0,0) - E(0,1) + E(1,0) + E(1,1): minus on the (first Alice,
# second Bob) cell.
DEFAULT_COMBINATION = ChshCombination((1, -1, 1, 1))


def all_combinations() -> tuple[ChshCombination, ...]:
    """All eight valid sign patterns, in lexicographic sign order."""
    out = []
    for signs in itertools.product((1, -1), repeat=4):
        if signs[0] * signs[1] * signs[2] * signs[3] == -1:
            out.append(ChshCombination(signs))
    return tuple(out)


def correlations(p: np.ndarray) -> np.ndarray:
    """E[x, y] = p(++) + p(--) - p(+-) - p(-+) of a behaviour or counts array."""
    return p[..., 0, 0] + p[..., 1, 1] - p[..., 0, 1] - p[..., 1, 0]


def is_two_by_two(p: np.ndarray) -> bool:
    """True when the first two axes (the settings x, y) of a behaviour,
    counts or correlation array have two settings each: the CHSH scenario."""
    return np.shape(p)[:2] == (2, 2)


def chsh_value(e: np.ndarray, combination: ChshCombination = DEFAULT_COMBINATION):
    """Signed sum of the four cell correlations of a (2, 2) array E[x, y].

    Summed left to right in CELLS order; integer arrays stay integer so
    exhaustive bounds can be exact.
    """
    e = np.asarray(e)
    if e.shape != (2, 2):
        raise ValueError(
            f"CHSH needs exactly two settings per side, got correlations of shape {e.shape}")
    return sum(sign * e[cell].item() for sign, cell in zip(combination.signs, CELLS))


def max_abs_chsh(e: np.ndarray) -> tuple[float, ChshCombination]:
    """(S, pattern) of the first of the eight patterns with the largest |S|."""
    return max(((chsh_value(e, c), c) for c in all_combinations()),
               key=lambda pair: abs(pair[0]))
