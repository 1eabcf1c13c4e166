"""Multi-stage Feistel network with the paper's cubing round function.

Section IV-B / Fig. 7: each stage splits the ``B``-bit input into halves
``(L, R)`` and produces ``(L', R')`` with::

    L' = R XOR (L XOR K)^3      (mod 2**(B/2))
    R' = L

Decryption runs the stages with the key schedule reversed (each stage is
individually invertible: ``L = R'`` and ``R = L' XOR (R' XOR K)^3``).

Odd address widths are supported by *cycle-walking*: the permutation is built
on the next even width and re-applied until the output falls back inside the
domain.  This yields an exact permutation of ``[0, 2**B)`` for any ``B``
(expected <2 walk iterations per call) and keeps every caller oblivious to
the parity of the address width.

Both scalar ``int`` and vectorized :class:`numpy.ndarray` code paths are
provided; the vector path is what the round-granularity simulation engines
use to randomize whole windows of addresses per remapping round.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from repro.util.bitops import mask
from repro.util.rng import SeedLike, as_generator

IntOrArray = Union[int, np.ndarray]

_U64 = np.uint64

#: Addresses per block when :func:`translation_table` is filled, so the
#: cipher's ``uint64`` temporaries stay small next to the table itself.
TABLE_BLOCK = 1 << 14


def translation_table(
    translate: Callable[[np.ndarray], IntOrArray], table: np.ndarray
) -> np.ndarray:
    """Fill ``table[a] = translate(a)`` for every address ``a``; return it.

    ``translate`` maps a block of ``uint64`` addresses to their slots;
    the table is filled one :data:`TABLE_BLOCK` at a time, so filling
    it costs a few blocks of temporaries on top of the table.
    """
    n = table.size
    for lo in range(0, n, TABLE_BLOCK):
        block = np.arange(lo, min(n, lo + TABLE_BLOCK), dtype=_U64)
        table[lo : lo + block.size] = translate(block)
    return table


def _cube_mod(x: int, modmask: int) -> int:
    """``x**3 mod 2**h`` for scalar ``x`` (``modmask == 2**h - 1``)."""
    return (x * x * x) & modmask


def _cube_mod_vec(x: np.ndarray, modmask: int) -> np.ndarray:
    """Vectorized ``x**3 mod 2**h``; safe for half-widths up to 32 bits.

    Intermediate products are reduced after each multiply so values stay
    below 2**64 (h <= 32 ⇒ x < 2**32 ⇒ x*x < 2**64).
    """
    m = _U64(modmask)
    sq = (x * x) & m
    return (sq * x) & m


class FeistelNetwork:
    """An ``n_stages``-stage Feistel permutation of ``[0, 2**n_bits)``.

    Parameters
    ----------
    n_bits:
        Address width ``B``; the permuted domain is ``[0, 2**B)``.
    keys:
        One key per stage.  Keys are half-width values (``B//2`` bits for
        even ``B``; ``(B+1)//2`` bits internally for odd ``B`` due to
        cycle-walking) — wider values are masked down.

    Use :meth:`random` to draw a fresh key schedule, and :meth:`rekeyed`
    to derive a same-shape network with new keys (what the dynamic Feistel
    network does every remapping round).
    """

    def __init__(self, n_bits: int, keys: Sequence[int]):
        if n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {n_bits}")
        if len(keys) < 1:
            raise ValueError("at least one stage key is required")
        self.n_bits = n_bits
        self.domain = 1 << n_bits
        # Cycle-walking width: smallest even width >= n_bits.
        self._walk_bits = n_bits if n_bits % 2 == 0 else n_bits + 1
        self._half_bits = self._walk_bits // 2
        self._half_mask = mask(self._half_bits)
        self.keys = tuple(int(k) & self._half_mask for k in keys)
        self._keys_u64 = np.array(self.keys, dtype=_U64)

    # ------------------------------------------------------------- factory

    @classmethod
    def random(
        cls, n_bits: int, n_stages: int, rng: SeedLike = None
    ) -> "FeistelNetwork":
        """Draw a network with ``n_stages`` uniformly random stage keys."""
        gen = as_generator(rng)
        walk_bits = n_bits if n_bits % 2 == 0 else n_bits + 1
        high = 1 << (walk_bits // 2)
        keys = gen.integers(0, high, size=n_stages)
        return cls(n_bits, [int(k) for k in keys])

    def rekeyed(self, rng: SeedLike = None) -> "FeistelNetwork":
        """Return a new network of identical shape with fresh random keys."""
        return FeistelNetwork.random(self.n_bits, self.n_stages, rng)

    @property
    def n_stages(self) -> int:
        """Number of Feistel stages (the paper's security knob ``S``)."""
        return len(self.keys)

    # -------------------------------------------------------- scalar paths

    def _encrypt_once(self, x: int) -> int:
        left = x >> self._half_bits
        right = x & self._half_mask
        for key in self.keys:
            left, right = right ^ _cube_mod(left ^ key, self._half_mask), left
        return (left << self._half_bits) | right

    def _decrypt_once(self, y: int) -> int:
        left = y >> self._half_bits
        right = y & self._half_mask
        for key in reversed(self.keys):
            left, right = right, left ^ _cube_mod(right ^ key, self._half_mask)
        return (left << self._half_bits) | right

    def _encrypt_scalar(self, x: int) -> int:
        if not 0 <= x < self.domain:
            raise ValueError(f"address {x} outside domain [0, {self.domain})")
        y = self._encrypt_once(x)
        while y >= self.domain:  # cycle-walk back into the domain
            y = self._encrypt_once(y)
        return y

    def _decrypt_scalar(self, y: int) -> int:
        if not 0 <= y < self.domain:
            raise ValueError(f"address {y} outside domain [0, {self.domain})")
        x = self._decrypt_once(y)
        while x >= self.domain:
            x = self._decrypt_once(x)
        return x

    # -------------------------------------------------------- vector paths

    def _encrypt_vec(self, x: np.ndarray) -> np.ndarray:
        v = x.astype(_U64, copy=True)
        half = _U64(self._half_bits)
        hmask = _U64(self._half_mask)
        left = v >> half
        right = v & hmask
        for key in self._keys_u64:
            new_left = right ^ _cube_mod_vec(left ^ key, self._half_mask)
            right = left
            left = new_left
        return (left << half) | right

    def _decrypt_vec(self, y: np.ndarray) -> np.ndarray:
        v = y.astype(_U64, copy=True)
        half = _U64(self._half_bits)
        hmask = _U64(self._half_mask)
        left = v >> half
        right = v & hmask
        for key in self._keys_u64[::-1]:
            new_right = left ^ _cube_mod_vec(right ^ key, self._half_mask)
            left = right
            right = new_right
        return (left << half) | right

    def _walk_vec(self, values: np.ndarray, step) -> np.ndarray:
        out = step(values)
        outside = out >= _U64(self.domain)
        while outside.any():
            out[outside] = step(out[outside])
            outside = out >= _U64(self.domain)
        return out

    # ----------------------------------------------------------- public API

    def encrypt(self, x: IntOrArray) -> IntOrArray:
        """Permute address(es) forward: LA → IA in the paper's terms."""
        if isinstance(x, np.ndarray):
            if x.size and (x.min() < 0 or int(x.max()) >= self.domain):
                raise ValueError("addresses outside domain")
            return self._walk_vec(x, self._encrypt_vec)
        return self._encrypt_scalar(int(x))

    def decrypt(self, y: IntOrArray) -> IntOrArray:
        """Invert the permutation: IA → LA."""
        if isinstance(y, np.ndarray):
            if y.size and (y.min() < 0 or int(y.max()) >= self.domain):
                raise ValueError("addresses outside domain")
            return self._walk_vec(y, self._decrypt_vec)
        return self._decrypt_scalar(int(y))

    def permutation(self) -> np.ndarray:
        """Materialize the full permutation as an ``int32`` table."""
        return translation_table(
            self.encrypt, np.empty(self.domain, dtype=np.int32)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"FeistelNetwork(n_bits={self.n_bits}, n_stages={self.n_stages}, "
            f"keys={self.keys})"
        )
