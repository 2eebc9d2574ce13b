"""Deterministic, seedable variate generation for all mechanism families.

Each family's sampler (``draw``) is an inverse transform driven by uniforms
from a counter-based generator (Philox keyed by ``(seed, stream_id)``), so a
given stream always reproduces the same sequence and distinct stream ids are
independent.  Uniforms are drawn from the open interval (0, 1) — midpoints
of a 2**53 lattice, the top one capped below 1 — so logarithms of both u and
1-u are always finite.  Every family takes exactly one uniform per draw, so a
stream read in pieces gives the same draws as read in one call.  Every family
shares one sampler, the inverse of its grid law's CDF
(``mechanisms._Lattice.inverse``), scaled by its grid's cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mechanisms import MechanismSpec

__all__ = ["SeededStream", "lattice_uniforms", "sample"]

_MASK64 = (1 << 64) - 1
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _mix64(*values: int) -> int:
    """Stable splitmix64-style hash of a tuple of integers onto 64 bits."""
    acc = 0x9E3779B97F4A7C15
    for v in values:
        acc = (acc + (v & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
        acc = ((acc ^ (acc >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        acc = ((acc ^ (acc >> 27)) * 0x94D049BB133111EB) & _MASK64
        acc = acc ^ (acc >> 31)
    return acc


@dataclass
class SeededStream:
    """A consuming stream of randomness identified by (seed, stream_id).

    The stream is exclusively owned by one execution context; hand derived
    streams (``derive``) to parallel workers instead of sharing one.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.seed = int(self.seed) & _MASK64
        self.stream_id = int(self.stream_id) & _MASK64

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
            self._gen = np.random.Generator(np.random.Philox(seq))
        return self._gen

    def derive(self, *indices: int) -> "SeededStream":
        """Independent child stream keyed by the given index tuple."""
        return SeededStream(self.seed, _mix64(self.stream_id, *indices))

    def lattice(self, size: int) -> np.ndarray:
        """``size`` int64 values uniform on [0, 2^53): the lattice under ``uniforms``.

        The top 53 bits of each raw Philox word.  These are the values of
        ``generator.integers(0, 2**53)``: for a power-of-two range, Lemire's
        method never rejects and returns the word shifted right by 11.
        """
        raw = self.generator.bit_generator.random_raw(int(size))
        raw >>= 11
        return raw.view(np.int64)

    def uniforms(self, size: int | None = None):
        """Uniform draws from the open interval (0, 1)."""
        u = lattice_uniforms(self.lattice(1 if size is None else size))
        return float(u[0]) if size is None else u


def lattice_uniforms(lattice: np.ndarray) -> np.ndarray:
    """The uniform of each lattice value L in [0, 2^53): the midpoint (L + 1/2) 2^-53.

    Non-decreasing in L.  The top midpoint, 1 - 2^-54, rounds to 1.0 and is
    capped at the largest double below 1.
    """
    u = (lattice.astype(np.float64) + 0.5) * 2.0**-53
    np.minimum(u, _BELOW_ONE, out=u)
    return u


def sample(spec: MechanismSpec, stream: SeededStream, size: int | None = None):
    """Draw noise from any mechanism spec.

    ``size=None`` gives one draw as an int (integer families) or a float;
    otherwise an ndarray of ``size`` draws.
    """
    y = spec.draw(stream, 1 if size is None else int(size))
    if size is None:
        return int(y[0]) if spec.cell == 1 else float(y[0])
    return y
