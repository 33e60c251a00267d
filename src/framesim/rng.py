"""Counter-based per-shot random streams.

Every random draw is a pure function of (seed, shot index, draw index), so
sampling is reproducible regardless of how shots are split across workers.
The mixer is SplitMix64, which is cheap enough to run per draw in pure
Python and statistically solid at the shot counts used here.

Sampling loops visit shots in order. When a stream is reset to the shot
after the previous one and that shot is not tabulated yet, it tabulates the
keys and leading draws of the next block of shots with numpy's wrapping
uint64 arithmetic, in buffers it reuses, as many draws per shot as the
shots before it made. A new stream's first shot is never tabulated, so the
first block already has that width. The tabulated values are the same
integers the scalar mixer computes; only the cost per draw changes.
:class:`ShotStreams` holds a chunk of shots' streams side by side, one draw
counter per shot, for samplers that run shots in lock-step or that draw a
grid of each shot's next draws at once.
"""
from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BLOCK = 128      # shots tabulated at a time
_MAX_WIDTH = 64   # most draws per shot tabulated; later draws mix per draw
_SHOTS = np.arange(_BLOCK, dtype=np.uint64)
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


class ShotRng:
    """Deterministic stream keyed by (seed, shot); draws are counted.

    Draw c of a shot is ``mix64(key + c * golden)`` with
    ``key = mix64(mix64(seed) ^ shot)``. For the shots in [``_lo``,
    ``_hi``), ``_keys`` holds the keys, ``_draws`` (flat, ``_width`` per
    shot) the first draws and ``_uniforms`` their :meth:`uniform` values.
    The current shot is entry ``_slot`` of the table with its first draw at
    ``_row`` and ``_avail`` draws tabulated; a shot outside the table has
    ``_avail`` 0 and its key in ``_key``.
    """

    __slots__ = ("_seed_mix", "_key", "_count", "_keys", "_draws", "_uniforms", "_tmp",
                 "_slot", "_row", "_width", "_avail", "_lo", "_hi", "_need", "_prev")

    def __init__(self, seed: int, shot: int = 0):
        self._seed_mix = mix64(seed & _MASK)
        self._key = 0
        self._count = 0
        self._keys = np.empty(_BLOCK, dtype=np.uint64)
        self._draws = self._uniforms = self._tmp = None
        self._slot = self._row = 0
        self._width = -1  # no table yet
        self._avail = 0
        self._lo = self._hi = 0
        self._need = 0  # most draws any shot has used; sets the next width
        # the first shot is not tabulated: it shows how many draws a shot makes
        self._prev = shot
        self.reset(shot)

    def reset(self, shot: int) -> None:
        if self._count > self._need:
            self._need = min(self._count, _MAX_WIDTH)
        self._count = 0
        inside = self._lo <= shot < self._hi
        if not inside and shot == self._prev + 1 and 0 <= shot <= _MASK - _BLOCK:
            self._tabulate(shot)
            inside = True
        self._prev = shot
        if inside:
            self._slot = shot - self._lo
            self._row = self._slot * self._width
            self._avail = self._width
            self._key = None  # read from _keys only past the tabulated draws
            return
        self._avail = 0
        self._key = mix64(self._seed_mix ^ (shot & _MASK))

    def _tabulate(self, lo: int) -> None:
        width = self._need
        if width != self._width:
            self._width = width
            self._draws = np.empty(_BLOCK * width, dtype=np.uint64)
            self._uniforms = np.empty(_BLOCK * width, dtype=np.float64)
            self._tmp = np.empty(_BLOCK * max(width, 1), dtype=np.uint64)
        keys, tmp = self._keys, self._tmp
        np.add(_SHOTS, np.uint64(lo), out=keys)
        keys ^= np.uint64(self._seed_mix)
        _mix64_inplace(keys, tmp[:_BLOCK])
        if width:
            steps = tmp[:width]
            np.multiply(_SHOTS[:width], _GOLDEN_U64, out=steps)  # c * golden, c < width
            np.add(keys[:, None], steps, out=self._draws.reshape(_BLOCK, width))
            _mix64_inplace(self._draws, tmp)
            np.right_shift(self._draws, 11, out=tmp)
            np.multiply(tmp, 2.0 ** -53, out=self._uniforms)  # exact, as in uniform()
        self._lo, self._hi = lo, lo + _BLOCK

    def next_u64(self) -> int:
        c = self._count
        self._count = c + 1
        if c < self._avail:
            return self._draws.item(self._row + c)
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
            return self._uniforms.item(self._row + c)
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def bit(self) -> int:
        return self.next_u64() >> 63

    def exponential(self) -> float:
        """Unit-rate exponential draw."""
        c = self._count
        if c < self._avail:  # uniform inlined for the tabulated case
            self._count = c + 1
            return -math.log1p(-self._uniforms.item(self._row + c))
        return -math.log1p(-self.uniform())

    @property
    def draws(self) -> int:
        return self._count


class ShotStreams:
    """The streams of shots [lo, hi) side by side, for lock-step sampling.

    ``keys[i]`` is the key of shot ``lo + i`` and ``counts[i]`` its draw
    counter, so ``next_u64(rows)`` gives each listed shot the draw its
    :class:`ShotRng` would make next: ``mix64(key + count * golden)``.
    """

    __slots__ = ("keys", "counts")

    def __init__(self, seed: int, lo: int, hi: int):
        keys = np.arange(lo, hi, dtype=np.uint64)
        keys ^= np.uint64(mix64(seed & _MASK))
        _mix64_inplace(keys, np.empty_like(keys))
        self.keys = keys
        self.counts = np.zeros(hi - lo, dtype=np.uint64)

    def next_u64(self, rows: np.ndarray) -> np.ndarray:
        """The next draw of each shot in ``rows`` (distinct indices)."""
        x = self.counts[rows]
        self.counts[rows] = x + 1
        x *= _GOLDEN_U64
        x += self.keys[rows]
        _mix64_inplace(x, np.empty_like(x))
        return x

    def uniform(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`ShotRng.uniform` of each shot in ``rows``, the same floats."""
        return np.right_shift(self.next_u64(rows), 11) * 2.0 ** -53

    def uniforms(self, rows: np.ndarray, start: np.ndarray, n: int) -> np.ndarray:
        """The uniforms of draws ``start[i]`` to ``start[i] + n - 1`` of shot
        ``rows[i]``, one row per shot, as :meth:`uniform` would give them;
        the counters do not move."""
        x = np.add.outer(start.astype(np.uint64), np.arange(n, dtype=np.uint64))
        x *= _GOLDEN_U64
        x += self.keys[rows][:, None]
        _mix64_inplace(x, np.empty_like(x))
        return np.right_shift(x, 11, out=x) * 2.0 ** -53
