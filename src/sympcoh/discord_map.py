"""Virtual two-party image of a covariance matrix and its geometric discord.

A valid 2m x 2m covariance matrix, divided by its trace, is a unit-trace
positive matrix and can be read as a qubit-times-m-level density matrix whose
qubit blocks are the position/momentum blocks.  The squared Frobenius norm of
the off-diagonal block then ties the position-momentum correlation measure to
the geometric discord of that virtual state.

The image of a ``CovMat`` is built once: :func:`to_density` keeps it in the
matrix's instance dict beside its cached properties, and every later call,
such as the one inside :func:`coherence_discord_relation_check`, reads it
back.  Sharing it is sound because an image is frozen and its ``rho`` read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .gaussian_core import (
    CovMat, _as_cm_array, _cached_property, _frobenius_sq, is_free, require_valid, rounding_floor,
)


@dataclass(frozen=True, eq=False)
class DiscordImage:
    """Unit-trace virtual density matrix obtained from a covariance matrix.

    Attributes:
        rho: 2m x 2m unit-trace matrix V / Tr V, read-only: a copy checked by
            ``_as_cm_array``, or the array :func:`to_density` computed.
        c_scale: the source trace; ``c_scale * rho`` is again a valid
            covariance matrix, as is any larger multiple.
        m: mode count of the source covariance matrix, set from rho's shape.
    """

    rho: np.ndarray
    c_scale: float
    m: int = field(init=False)

    def __post_init__(self):
        rho, _ = _as_cm_array(self.rho, "virtual state")  # a copy: the caller's array stays writeable
        self._take(rho)

    def _take(self, rho: np.ndarray) -> None:
        if abs(np.trace(rho) - 1.0) > rounding_floor(rho.shape[0], 1.0):
            raise ValueError("virtual density matrix must have unit trace")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "m", rho.shape[0] // 2)

    @classmethod
    def _adopt(cls, rho: np.ndarray, c_scale: float) -> DiscordImage:
        """An image that takes the fresh float 2m x 2m ``rho`` as its matrix, with no copy.

        For a maker that has just computed ``rho``, holds no other reference
        to it, and proves its entries finite; only the unit trace is checked.
        """
        rho.flags.writeable = False
        image = object.__new__(cls)
        object.__setattr__(image, "c_scale", c_scale)
        image._take(rho)
        return image

    @property
    def off_block(self) -> np.ndarray:
        """Top-right m x m block of the virtual state."""
        return self.rho[: self.m, self.m :]

    @_cached_property
    def geometric_discord(self) -> float:
        """``2 sum rho_xp^2``, computed once per image (see :func:`geometric_discord`)."""
        off = self.off_block
        return float(2.0 * (off * off).sum())


def to_density(cov: CovMat) -> DiscordImage:
    """Normalize a valid covariance matrix into its virtual density matrix.

    Built once per ``CovMat`` and kept on it: every call returns the same image.
    It adopts ``V / Tr V`` with no copy or scan: a valid ``V`` has
    ``|V_ij| <= Tr V``, so every entry is finite.
    """
    image = cov.__dict__.get("_image")
    if image is None:
        require_valid(cov)
        image = DiscordImage._adopt(cov.matrix / cov.trace, cov.trace)
        cov.__dict__["_image"] = image  # beside the instance's cached properties
    return image


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
    exceeds 1/2.  Cached on the image, so every call after the first reads it back.
    """
    return image.geometric_discord


def is_classical_quantum(image: DiscordImage) -> bool:
    """Whether the virtual state is classical-quantum (zero discord).

    The free verdict :func:`sympcoh.gaussian_core.is_free` of ``rho`` read as
    a covariance matrix: a state is free iff its image is classical-quantum,
    up to the rounding of ``V / Tr V``.
    """
    return is_free(CovMat(image.rho))


class RelationCheck(NamedTuple):
    """Coherence, geometric discord, and the residual of their exact relation."""

    coherence: float
    discord: float
    residual: float


def coherence_discord_relation_check(cov: CovMat) -> RelationCheck:
    """Verify ``coherence = (Tr V)^2 / 2 * discord`` on one covariance matrix.

    The identity holds by construction; the residual guards against
    implementation drift between the two code paths.  Its right-hand side is
    ``|Tr V * off_block|^2``: no ``(Tr V)^2`` to overflow, no discord to underflow.

    Raises:
        NumericError: if either side overflows float64.
    """
    coherence = cov.xp_norm_sq
    image = to_density(cov)
    rescaled = _frobenius_sq(
        image.c_scale * image.off_block, cov._peak, "rescaled discord |Tr V * rho_xp|^2"
    )
    return RelationCheck(coherence, image.geometric_discord, abs(coherence - rescaled))
