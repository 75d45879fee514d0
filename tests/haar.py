"""Haar-random unitaries for the tests.

``haar_unitary`` is the oracle for ``gleason.random_rank_ones`` (n of its
draws in succession, first columns only) and the source of the random
contexts several tests and pins build.
"""

import numpy as np


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: the QR of a complex Gaussian matrix, real
    and imaginary parts drawn in that order and scaled by 1/sqrt(2), with
    each column's phase fixed by R's diagonal."""
    ginibre = (rng.standard_normal((dim, dim))
               + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases
