"""Virtual two-party image of a covariance matrix and its geometric discord.

A valid 2m x 2m covariance matrix, divided by its trace, is a unit-trace
positive matrix and can be read as a qubit-times-m-level density matrix whose
qubit blocks are the position/momentum blocks.  The squared Frobenius norm of
the off-diagonal block then ties the position-momentum correlation measure to
the geometric discord of that virtual state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gaussian_core import CovMat, require_valid

CQ_TOL = 1e-10


@dataclass(frozen=True)
class DiscordImage:
    """Unit-trace virtual density matrix obtained from a covariance matrix.

    Attributes:
        m: mode count of the source covariance matrix.
        rho: 2m x 2m real symmetric unit-trace matrix (V / Tr V).
        c_scale: the source trace; ``c_scale * rho`` is again a valid
            covariance matrix, as is any larger multiple.
    """

    m: int
    rho: np.ndarray
    c_scale: float

    def __post_init__(self):
        rho = np.array(self.rho, dtype=float)  # private copy: the caller's array stays writeable
        if rho.shape != (2 * self.m, 2 * self.m):
            raise ValueError(f"expected shape {(2 * self.m,) * 2}, got {rho.shape}")
        if not np.isfinite(rho).all():
            raise ValueError("matrix contains non-finite entries")
        if abs(np.trace(rho) - 1.0) > 1e-9:
            raise ValueError("virtual density matrix must have unit trace")
        object.__setattr__(self, "rho", rho)
        rho.setflags(write=False)

    @property
    def off_block(self) -> np.ndarray:
        """Top-right m x m block of the virtual state."""
        return self.rho[: self.m, self.m :]


def to_density(cov: CovMat) -> DiscordImage:
    """Normalize a valid covariance matrix into its virtual density matrix."""
    require_valid(cov)
    scale = float(np.trace(cov.matrix))
    return DiscordImage(m=cov.m, rho=cov.matrix / scale, c_scale=scale)


def from_density(image: DiscordImage, scale: float) -> CovMat:
    """Rescale a virtual density matrix back into a covariance matrix.

    Any ``scale >= image.c_scale`` produces a valid covariance matrix; the
    result is fully revalidated rather than trusting that inequality, so a
    hand-built image that never came from a covariance matrix is rejected too.

    Raises:
        ValidationError: if ``scale * rho`` fails any covariance check.
    """
    cov = CovMat(scale * image.rho)
    require_valid(cov)
    return cov


def geometric_discord(image: DiscordImage) -> float:
    """Geometric discord of the virtual state under qubit measurements.

    Twice the squared Frobenius norm of the off-diagonal block; never
    exceeds 1/2.
    """
    off = image.off_block
    return float(2.0 * np.sum(off * off))


def is_classical_quantum(image: DiscordImage, tol: float = CQ_TOL) -> bool:
    """Whether the virtual state is block-diagonal (zero discord) within tol."""
    return bool(np.max(np.abs(image.off_block)) <= tol) if image.m else True


class RelationCheck(NamedTuple):
    """Coherence, geometric discord, and the residual of their exact relation."""

    coherence: float
    discord: float
    residual: float


def coherence_discord_relation_check(cov: CovMat) -> RelationCheck:
    """Verify ``coherence = (Tr V)^2 / 2 * discord`` on one covariance matrix.

    The identity holds by construction; the residual guards against
    implementation drift between the two code paths.
    """
    m = cov.m
    v_xp = cov.matrix[:m, m:]
    coherence = float(np.sum(v_xp * v_xp))
    image = to_density(cov)
    discord = geometric_discord(image)
    residual = abs(coherence - image.c_scale**2 * discord / 2.0)
    return RelationCheck(coherence, discord, residual)
