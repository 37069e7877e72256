"""Counter-keyed RNG with per-column stream identity.

The exact engine gives every station its own ``numpy.Generator``
(:class:`repro.sim.rng.RandomStreams`), drawn from one at a time.  The
batched fast path instead gives every station — and each auxiliary
channel it draws from — a *column* whose draws are served from
vectorized prefetch blocks.  For the blocks to change nothing, a
column's values must not depend on when, or alongside which other
columns, they are mixed; a naive "one generator, n draws" scheme would
make station *i*'s sequence depend on who else happened to draw.  That
breaks both reproducibility (adding a station perturbs everyone) and
the common-random-number pairing the sweeps rely on.

The fix is a counter-based construction: every column owns a key and a
draw counter, and draw ``k`` of column ``i`` is a pure function of
``(seed, i, k)``:

    ``PHI        = 0x9E3779B97F4A7C15``  (the 64-bit golden ratio)
    ``key(i)     = mix64(seed + (i + 1) * PHI)``
    ``raw(i, k)  = mix64(key(i) + (k + 1) * PHI)``
    ``u(i, k)    = (raw(i, k) >> 11) * 2**-53``

with ``mix64`` the splitmix64 finalizer (Steele et al.), all in
``uint64`` arithmetic modulo ``2**64``.  Because column *i*'s sequence
``u(i, 0), u(i, 1), ...`` depends only on its **own** counter, any
interleaving of draws across columns, at any block size, yields
exactly the per-column sequences the scalar recurrence defines.  That
invariant is the contract, pinned against the pure-integer oracle
:meth:`BatchedRngAdapter.reference_uniform` by the property test in
``tests/accel/test_rng.py``; it is what makes batched runs
seed-deterministic while remaining statistically equivalent to
independent per-station streams.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PHI", "mix64", "BatchedRngAdapter", "ColumnStream"]

#: 2**64 / golden ratio, the splitmix64 stream increment
PHI = np.uint64(0x9E3779B97F4A7C15)

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
#: 53-bit mantissa scaling, the standard uint64 -> [0, 1) double map
_U53 = np.uint64(11)
_INV53 = float(2.0**-53)


_MASK64 = (1 << 64) - 1
_PHI_PY = 0x9E3779B97F4A7C15


def _mix64_py(x: int) -> int:
    """The splitmix64 finalizer on plain Python ints (mod 2**64)."""
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, vectorized over uint64 arrays.

    All arithmetic wraps modulo ``2**64`` (numpy unsigned semantics),
    which is exactly the reference recurrence.
    """
    x = (x ^ (x >> _S30)) * _M1
    x = (x ^ (x >> _S27)) * _M2
    return x ^ (x >> _S31)


class BatchedRngAdapter:
    """The column keys of one seed; hands out per-column streams.

    Parameters
    ----------
    seed:
        Master seed; folded into every column key.
    columns:
        Number of independent streams (stations, plus any auxiliary
        channels the engine allocates — BER, traffic, ...).
    """

    def __init__(self, seed: int, columns: int) -> None:
        if columns < 1:
            raise ValueError(f"columns must be >= 1, got {columns}")
        self.seed = int(seed)
        self.columns = int(columns)
        self._keys = [
            _mix64_py((self.seed + (i + 1) * _PHI_PY) & _MASK64)
            for i in range(columns)
        ]

    # -- scalar reference recurrence (documentation + property test) -------
    def reference_uniform(self, column: int, k: int) -> float:
        """Draw ``k`` of ``column`` per the documented scalar recurrence.

        This is the adapter's ground truth: every :class:`ColumnStream`
        must reproduce these values under every draw interleaving and
        block size.  Implemented in pure Python integers (masked to 64
        bits) so it is an oracle independent of the vectorized path.
        """
        key = _mix64_py((self.seed + (column + 1) * _PHI_PY) & _MASK64)
        raw = _mix64_py((key + (k + 1) * _PHI_PY) & _MASK64)
        return (raw >> 11) * _INV53

    def stream(self, column: int, block: int) -> "ColumnStream":
        """Column ``column``'s draws, mixed ``block`` values at a time."""
        return ColumnStream(self, column, block)


class ColumnStream:
    """One column's uniforms, served from vectorized prefetch blocks.

    One ``mix64`` array call fills a block of ``block`` values; they
    are **identical** to the scalar recurrence (same counter-keyed
    math, batched), so the block size only changes when the mixing
    happens.  The stream owns its column's draw counter: build one
    stream per column.
    """

    __slots__ = ("_key", "_block", "_next_k", "_buf", "_buf_i")

    def __init__(self, adapter: BatchedRngAdapter, column: int, block: int) -> None:
        if not 0 <= column < adapter.columns:
            raise ValueError(f"column {column} out of range")
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self._key = adapter._keys[column]
        self._block = int(block)
        #: counter value of the first draw the next block serves
        self._next_k = 0
        self._buf: list[float] = []
        self._buf_i = 0

    def _refill(self) -> list[float]:
        k0 = self._next_k
        self._next_k = k0 + self._block
        ks = np.arange(k0 + 1, k0 + 1 + self._block, dtype=np.uint64)
        raw = mix64(np.uint64(self._key) + ks * PHI)
        self._buf = buf = ((raw >> _U53).astype(np.float64) * _INV53).tolist()
        self._buf_i = 0
        return buf

    def random(self) -> float:
        """The column's next uniform in ``[0, 1)``."""
        buf = self._buf
        i = self._buf_i
        if i >= len(buf):
            buf = self._refill()
            i = 0
        self._buf_i = i + 1
        return buf[i]
