"""Counter-based per-shot random streams.

Every random draw is a pure function of (seed, shot index, draw index), so
sampling is reproducible regardless of how shots are split across workers.
The mixer is SplitMix64, which is cheap enough to run per draw in pure
Python and statistically solid at the shot counts used here.

A stream that :meth:`ShotRng.reset` moves to a shot mixes each draw; the
closure VM draws so. :class:`ShotStreams` holds a chunk of shots' streams
side by side, one draw counter per shot, for the frame table, which runs
shots in lock-step or draws a grid of each shot's next draws. A
:class:`ShotRng` seated at a slot of a :meth:`ShotStreams.table`
(:meth:`ShotRng._seat`) draws the first tabulated draws of that shot from
the table: a stratum's fault lists are drawn so, by the scalar code of
``StratumSpec.draw_forced``. :func:`_uniform_of` is the vector form of the
mixer: the floats the scalar mixer gives. A coin is a uniform's test ``u
>= 0.5``, which holds exactly when bit 63 of the draw is set.
"""
from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MAX_WIDTH = 64   # most draws per shot a stratum's table holds; later draws mix per draw
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MUL1_U64 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2_U64 = np.uint64(0x94D049BB133111EB)


def mix64(x: int) -> int:
    """SplitMix64 finalizer: one 64-bit integer in, one out."""
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _mix64_inplace(x: np.ndarray, tmp: np.ndarray) -> None:
    """:func:`mix64` of every entry of the uint64 array ``x`` (arithmetic
    wraps), in place; ``tmp`` is scratch of the same shape."""
    x += _GOLDEN_U64
    np.right_shift(x, 30, out=tmp)
    x ^= tmp
    x *= _MUL1_U64
    np.right_shift(x, 27, out=tmp)
    x ^= tmp
    x *= _MUL2_U64
    np.right_shift(x, 31, out=tmp)
    x ^= tmp


def _uniform_of(x: np.ndarray) -> np.ndarray:
    """:meth:`ShotRng.uniform` of the draws ``x`` (uint64, each ``key + c *
    golden``), mixed in place, so a grid of draws takes no second grid."""
    _mix64_inplace(x, np.empty_like(x))
    return np.right_shift(x, 11, out=x) * 2.0 ** -53


class ShotRng:
    """Deterministic stream keyed by (seed, shot); draws are counted.

    Draw c of a shot is ``mix64(key + c * golden)`` with
    ``key = mix64(mix64(seed) ^ shot)``. After :meth:`reset` the key is in
    ``_key`` and ``_avail`` is 0. A stream put on a chunk's table
    (:meth:`_put`) holds the shots' keys in ``_keys`` and the
    :meth:`uniform` values of their first draws in ``_uniforms`` (flat,
    ``_width`` per shot), a memoryview, whose index gives the Python float
    of ``ndarray.item`` in about two thirds of its time. Seated at entry
    ``_slot`` (:meth:`_seat`), its first uniform is at ``_row``, ``_avail``
    draws are tabulated, and its key is read from ``_keys`` past them.
    """

    __slots__ = ("_seed", "_key", "_count", "_keys", "_uniforms",
                 "_slot", "_row", "_width", "_avail")

    def __init__(self, seed: int, shot: int = 0):
        self._seed = seed
        self.reset(shot)

    def reset(self, shot: int) -> None:
        """Move to the first draw of shot ``shot``, mixed per draw."""
        self._count = self._avail = 0
        self._key = mix64(mix64(self._seed & _MASK) ^ (shot & _MASK))

    def _seat(self, slot: int) -> None:
        """Draw as entry ``slot`` of this stream's table from the counter on."""
        self._slot = slot
        self._row = slot * self._width
        self._avail = self._width
        self._key = None  # read from _keys only past the tabulated draws

    def _each_slot(self, draw, n: int) -> tuple[list, list]:
        """``draw(self)`` at slots 0 to ``n - 1`` of this stream's table, each
        from its first draw: the results and the draws each made. The frame
        table draws a chunk's stratum fault lists here."""
        out, counts = [], []
        for slot in range(n):
            self._seat(slot)
            self._count = 0
            out.append(draw(self))
            counts.append(self._count)
        return out, counts

    def _put(self, keys: np.ndarray, uniforms: memoryview, width: int) -> None:
        """Draw from the table ``(keys, uniforms, width)`` of
        :meth:`ShotStreams.table`, at the slot :meth:`_seat` gives."""
        self._keys, self._uniforms, self._width = keys, uniforms, width

    def next_u64(self) -> int:
        c = self._count
        self._count = c + 1
        if self._key is None:
            self._key = self._keys.item(self._slot)
        x = (self._key + c * _GOLDEN + _GOLDEN) & _MASK
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        return x ^ (x >> 31)

    def uniform(self) -> float:
        """Uniform float in [0, 1): the top 53 bits of a draw, scaled exactly.

        Scaling all 64 bits by 2**-64 would round the largest draws up to 1.0.
        """
        c = self._count
        if c < self._avail:  # tabulated with numpy
            self._count = c + 1
            return self._uniforms[self._row + c]
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def exponential(self) -> float:
        """Unit-rate exponential draw."""
        c = self._count
        if c < self._avail:  # uniform inlined for the tabulated case
            self._count = c + 1
            return -math.log1p(-self._uniforms[self._row + c])
        return -math.log1p(-self.uniform())

    @property
    def draws(self) -> int:
        return self._count


class ShotStreams:
    """The streams of shots [lo, hi) side by side, for lock-step sampling.

    ``keys[i]`` is the key of shot ``lo + i`` and ``counts[i]`` its draw
    counter, so ``uniform(rows)`` gives each listed shot the uniform its
    :class:`ShotRng` would draw next, from ``mix64(key + count * golden)``.
    """

    __slots__ = ("keys", "counts")

    def __init__(self, seed: int, lo: int, hi: int):
        keys = np.arange(lo, hi, dtype=np.uint64)
        keys ^= np.uint64(mix64(seed & _MASK))
        _mix64_inplace(keys, np.empty_like(keys))
        self.keys = keys
        self.counts = np.zeros(hi - lo, dtype=np.uint64)

    def uniform(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`ShotRng.uniform` of the next draw of each shot in ``rows``
        (distinct indices), the same floats; their counters move on."""
        x = self.counts[rows]
        self.counts[rows] = x + 1
        x *= _GOLDEN_U64  # wraps, as the scalar mixer masks
        x += self.keys[rows]
        return _uniform_of(x)

    def uniforms(self, rows: np.ndarray, start: np.ndarray, n: int) -> np.ndarray:
        """The uniforms of draws ``start[i]`` to ``start[i] + n - 1`` of shot
        ``rows[i]``, one row per shot, as :meth:`uniform` would give them;
        the counters do not move."""
        x = np.add.outer(start.astype(np.uint64), np.arange(n, dtype=np.uint64))
        x *= _GOLDEN_U64
        x += self.keys[rows][:, None]
        return _uniform_of(x)

    def table(self, rows: slice, width: int) -> tuple:
        """``(keys, uniforms, width)``: a table of shots ``rows`` for
        :meth:`ShotRng._put`, ``uniforms`` a flat memoryview of each shot's
        ``width`` draws from its counter."""
        uniforms = self.uniforms(rows, self.counts[rows], width).ravel()
        return self.keys[rows], memoryview(uniforms), width
