"""Reproducible named random-number streams.

Every stochastic component of the simulation (each traffic source, the
channel error model, the call generator, ...) draws from its *own*
stream, derived deterministically from a single master seed and the
stream's name.  This gives two properties the experiments rely on:

* **bit-for-bit reproducibility** of a whole run from one integer seed;
* **variance isolation** — adding a new random component does not shift
  the draws seen by existing ones, so paired comparisons between the
  proposed scheme and the baseline use identical arrival sequences
  (common random numbers).

A stream is handed out either raw, as the :class:`numpy.random.Generator`
itself (:meth:`RandomStreams.get`), or as a :class:`BlockStream`
(:meth:`RandomStreams.blocks`) that serves the same scalar draws from
blocks numpy fills in one vectorized call.  The per-frame and
per-packet streams (``phy/errors``, ``dcf/<sid>``, ``traffic/<sid>``,
``faults/channel``, ``faults/frames``) are block streams, because a
numpy scalar call costs several times a list read.  The discipline
above holds unchanged: a block stream returns exactly the numbers the
generator's scalar calls would, in the same order, so a run draws the
same values whichever way its streams are handed out.
"""

from __future__ import annotations

import hashlib
import typing

import numpy as np

__all__ = ["BLOCK_SIZE", "BlockStream", "RandomStreams"]

#: draws one refill of a :class:`BlockStream` takes from numpy: enough
#: to amortize the vectorized call, few enough that a scenario's streams
#: (two per station) stay small next to the rest of its state
BLOCK_SIZE = 32

_MASK32 = 0xFFFFFFFF


def _empty() -> float:
    """The draw source of a stream kind not yet filled: always exhausted."""
    raise StopIteration


class BlockStream:
    """Scalar draws of one generator, served from blocks, equal to numpy's.

    Each method returns what the same call on the wrapped
    :class:`numpy.random.Generator` returns, as a Python number:

    * ``random()`` is the next value of a ``random(BLOCK_SIZE)`` block;
    * ``exponential(s)`` is ``s`` times the next value of a
      ``standard_exponential`` block, and ``normal(m, s)`` is
      ``m + s`` times the next value of a ``standard_normal`` block —
      numpy computes its scalar draws the same way, from the same
      per-value algorithms its block fills loop over;
    * ``integers(low, high)`` applies numpy's bounded-integer rule to a
      block of ``bit_generator.random_raw`` values: for a bound
      (``high - low``) up to ``2**32``, Lemire's method on 32-bit draws,
      which PCG64 serves as the two halves of one 64-bit draw, low half
      first, keeping the high half for the next 32-bit draw.  A bound of
      1 draws nothing.  No per-frame stream draws a wider bound (a
      backoff window spans thousands of slots at most), so a bound above
      ``2**32``, where numpy switches to 64-bit draws, raises
      ``ValueError``, as does an empty range.

    A stream serves one kind of draw (``random``, ``exponential``,
    ``normal`` or ``integers``): a block drawn ahead for one kind holds
    values the other kinds' scalar calls would not have produced, so
    asking a stream for a second kind raises ``ValueError``.  Scales are
    taken as given, not checked as numpy checks them.
    """

    __slots__ = ("_generator", "_kind", "_uniform", "_exponential", "_normal",
                 "_raw", "_half")

    def __init__(self, generator: np.random.Generator) -> None:
        self._generator = generator
        #: the method this stream serves, fixed by its first draw
        self._kind: str | None = None
        self._uniform = self._exponential = self._normal = self._raw = _empty
        #: the high half of a 64-bit draw that served one 32-bit draw
        self._half: int | None = None

    def _refill(
        self, kind: str, fill: typing.Callable[[int], np.ndarray]
    ) -> typing.Callable[[], typing.Any]:
        if self._kind != kind:
            if self._kind is not None:
                raise ValueError(
                    f"this stream serves {self._kind} draws, not {kind} draws: "
                    "its block is drawn ahead for one kind"
                )
            self._kind = kind
        return iter(fill(BLOCK_SIZE).tolist()).__next__

    def random(self) -> float:
        """``generator.random()``: uniform on ``[0, 1)``."""
        try:
            return self._uniform()
        except StopIteration:
            self._uniform = self._refill("random", self._generator.random)
            return self._uniform()

    def exponential(self, scale: float = 1.0) -> float:
        """``generator.exponential(scale)``."""
        try:
            return scale * self._exponential()
        except StopIteration:
            self._exponential = self._refill(
                "exponential", self._generator.standard_exponential
            )
            return scale * self._exponential()

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """``generator.normal(loc, scale)``."""
        try:
            return loc + scale * self._normal()
        except StopIteration:
            self._normal = self._refill(
                "normal", self._generator.standard_normal
            )
            return loc + scale * self._normal()

    def integers(self, low: int, high: int) -> int:
        """``int(generator.integers(low, high))``: uniform on ``[low, high)``."""
        bound = high - low
        if not 1 < bound <= 0x100000000:
            if bound == 1:
                return low
            raise ValueError(
                f"integers({low}, {high}): a block stream serves bounds "
                "from 1 to 2**32"
            )
        product = self._next32() * bound
        if product & _MASK32 < bound:
            # Lemire's rejection, entered with probability bound / 2**32
            threshold = (0x100000000 - bound) % bound
            while product & _MASK32 < threshold:
                product = self._next32() * bound
        return low + (product >> 32)

    def _next32(self) -> int:
        """The kept high half, else the low half of a fresh 64-bit draw."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        try:
            raw = self._raw()
        except StopIteration:
            self._raw = self._refill(
                "integers", self._generator.bit_generator.random_raw
            )
            raw = self._raw()
        self._half = raw >> 32
        return raw & _MASK32


class RandomStreams:
    """Factory of independent, name-keyed :class:`numpy.random.Generator` s.

    Parameters
    ----------
    master_seed:
        Non-negative integer seeding the whole family.

    A name is handed out raw (:meth:`get`) or as a block stream
    (:meth:`blocks`), never both: the block stream draws ahead of the
    generator it wraps, so a raw user of the same generator would see a
    shifted sequence.

    Examples
    --------
    >>> streams = RandomStreams(7)
    >>> a = streams.get("voice/3")
    >>> b = streams.get("voice/3")
    >>> a is b
    True
    >>> float(a.random()) == float(RandomStreams(7).get("voice/3").random())
    True
    >>> streams.blocks("dcf/1").random() == RandomStreams(7).get("dcf/1").random()
    True
    """

    def __init__(self, master_seed: int = 0) -> None:
        if master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {master_seed}")
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}
        self._blocks: dict[str, BlockStream] = {}

    def _seed_for(self, name: str) -> int:
        digest = hashlib.sha256(
            f"{self.master_seed}:{name}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "little")

    def _generator(self, name: str) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self._seed_for(name)))

    def get(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            if name in self._blocks:
                raise ValueError(f"stream {name!r} was handed out as blocks")
            gen = self._streams[name] = self._generator(name)
        return gen

    def blocks(self, name: str) -> BlockStream:
        """Return the (cached) block stream for ``name``."""
        stream = self._blocks.get(name)
        if stream is None:
            if name in self._streams:
                raise ValueError(f"stream {name!r} was handed out raw")
            stream = self._blocks[name] = BlockStream(self._generator(name))
        return stream

    def fork(self, sub_seed: int) -> "RandomStreams":
        """Derive a related but independent family (for replications)."""
        return RandomStreams(self._seed_for(f"fork/{sub_seed}") % (2**63))

    def __contains__(self, name: str) -> bool:
        return name in self._streams or name in self._blocks
