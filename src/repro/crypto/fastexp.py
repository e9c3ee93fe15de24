"""Fast modular exponentiation for the Schnorr hot path.

Profiling shows most benchmark wall-clock inside 2048-bit modular
exponentiation for Schnorr sign/verify, and — since the market runtime
batches whole blocks of order signatures into one combined check —
inside :func:`multi_pow` specifically.  Three kinds of bases recur:

* the **generator** ``g`` — every sign computes ``g^k`` and every
  verify computes ``g^s``; the base never changes, so a process-wide
  fixed-base window table turns each exponentiation into ~``bits/w``
  modular multiplications with **no squarings at all**;
* a **public key** ``y`` — every verify computes ``y^e`` and every
  batched check computes ``y^{e·w}``.  A per-key table costs ~1,500
  multiplications to build and, next to the shared-squaring path
  below, saves at most a few dozen per use, so one exists only where
  a caller declares the key hot up front with
  :func:`prewarm_base` (a validator set's members).  Cached tables live
  in a bounded, honestly-LRU cache shared by :func:`base_pow` *and*
  :func:`multi_pow`; every other key is cold;
* **signature commitments** ``R`` — fresh every signature, weighted by
  short batch exponents; always cold.

:func:`multi_pow` merges duplicate bases by *summing their exponents*,
sends bases with a cached table — the generator included — through
that table, and computes the cold remainder with one interleaved
sliding-window Straus pass: every base gets a table of its odd powers,
sized from its own exponent length, and all bases share one squaring
chain.

The RFC 3526 group-14 constants live here (single source of truth);
:mod:`repro.crypto.schnorr` re-exports them, so existing imports keep
working.  Every function is an exact drop-in for ``pow(base, e, p)``
— signatures produced through these tables are byte-identical to the
seed implementation, which the test suite asserts.
"""

from __future__ import annotations

# RFC 3526, group 14 (2048-bit MODP).  p is a safe prime.
P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
    "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C"
    "180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFF"
    "FFFFFFFF",
    16,
)
Q = (P - 1) // 2
G = 4

# Exponents are always reduced mod Q by the callers.
_EXP_BITS = Q.bit_length()

# Honest exponents are far shorter than q: every scalar in the scheme
# (keys, nonces, challenges) is derived from a 256-bit hash, so g is
# raised to at most ~650 bits (a response s = k + e·x never wraps mod
# q, and batch sums Σw·s add a short weight) and a public key to at
# most ~320 bits (a challenge e times a 64-bit batch weight).  Tables
# are sized for those real exponents — an out-of-range exponent
# (possible only in forged inputs) transparently falls back to
# ``builtins.pow``.
GENERATOR_TABLE_BITS = 1024  # covers s (~513 bits) and batch Σw·s sums
BASE_TABLE_BITS = 384  # covers challenges e (256 bits) times batch weights

# The generator table is built once per process, so it affords a wide
# window.  Per-key tables use a narrow window by default and a wide one
# for keys a caller expects to stay hot for a whole long run.
GENERATOR_WINDOW = 7
BASE_WINDOW = 4
BASE_WINDOW_HOT = 6
_BASE_TABLE_MAXSIZE = 96  # per-key tables kept (LRU)


class LruDict:
    """A small bounded mapping with least-recently-used eviction.

    Plain ``dict`` preserves insertion order, so "touch" is delete +
    reinsert and the eviction victim is the first key.  Both
    :meth:`get` and :meth:`put` touch, so the first key really is the
    least-recently-*used* one, not merely the oldest-inserted.
    """

    __slots__ = ("maxsize", "_data", "hits", "misses")

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._data: dict = {}
        self.hits = 0
        self.misses = 0

    def get(self, key):
        """Return the cached value (touching it) or ``None``."""
        data = self._data
        if key in data:
            value = data.pop(key)
            data[key] = value
            self.hits += 1
            return value
        self.misses += 1
        return None

    def put(self, key, value) -> None:
        """Insert ``key`` (touching it), evicting the LRU entry."""
        data = self._data
        if key in data:
            del data[key]
        elif len(data) >= self.maxsize:
            del data[next(iter(data))]
        data[key] = value

    def pop(self, key, default=None):
        """Remove and return ``key``'s value (``default`` if absent)."""
        return self._data.pop(key, default)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data


class FixedBaseTable:
    """Windowed fixed-base exponentiation: ``base^e mod modulus``.

    Precomputes ``base^(d · 2^(w·i))`` for every window ``i`` and digit
    ``d``; an exponentiation is then one table lookup and one modular
    multiplication per non-zero window digit — no squarings.
    """

    __slots__ = ("base", "modulus", "window", "max_bits", "_rows", "_mask")

    def __init__(self, base: int, modulus: int, max_bits: int = _EXP_BITS, window: int = BASE_WINDOW):
        if not 1 <= window <= 16:
            raise ValueError("window size out of range")
        self.base = base % modulus
        self.modulus = modulus
        self.window = window
        self.max_bits = max_bits
        self._mask = (1 << window) - 1
        radix = 1 << window
        rows = []
        anchor = self.base
        for _ in range((max_bits + window - 1) // window):
            row = [1] * radix
            row[1] = anchor
            for digit in range(2, radix):
                row[digit] = row[digit - 1] * anchor % modulus
            rows.append(row)
            # The next window's anchor is base^(2^(w·(i+1))) = anchor^radix.
            anchor = row[radix - 1] * anchor % modulus
        self._rows = rows

    def pow(self, exponent: int) -> int:
        """Return ``base^exponent mod modulus`` (exponent >= 0)."""
        if exponent < 0:
            raise ValueError("negative exponent")
        if exponent.bit_length() > self.max_bits:
            return pow(self.base, exponent, self.modulus)
        acc = 1
        index = 0
        modulus = self.modulus
        rows = self._rows
        mask = self._mask
        window = self.window
        while exponent:
            digit = exponent & mask
            if digit:
                acc = acc * rows[index][digit] % modulus
            exponent >>= window
            index += 1
        return acc


# ----------------------------------------------------------------------
# Generator: one wide-window table per process, built lazily.
# ----------------------------------------------------------------------
_generator_table: FixedBaseTable | None = None


def generator_table() -> FixedBaseTable:
    """The process-wide fixed-base table for ``g`` (built on first use)."""
    global _generator_table
    if _generator_table is None:
        _generator_table = FixedBaseTable(G, P, GENERATOR_TABLE_BITS, GENERATOR_WINDOW)
    return _generator_table


def generator_pow(exponent: int) -> int:
    """``g^exponent mod p`` through the fixed-base table."""
    return generator_table().pow(exponent)


# ----------------------------------------------------------------------
# Arbitrary bases (public keys): tables only for keys declared hot.
# ----------------------------------------------------------------------
_base_tables = LruDict(_BASE_TABLE_MAXSIZE)


def _cached_table(base: int) -> FixedBaseTable | None:
    """The window table for ``base`` (reduced mod p), or ``None``."""
    if base == G:
        return generator_table()
    return _base_tables.get(base)


def base_pow(base: int, exponent: int) -> int:
    """``base^exponent mod p``: a cached table if any, else ``builtins.pow``."""
    if exponent < 0:
        raise ValueError("negative exponent")
    table = _cached_table(base % P)
    if table is None:
        return pow(base, exponent, P)
    return table.pow(exponent)


def prewarm_base(base: int, hot: bool = False) -> bool:
    """Build ``base``'s window table now, for a key known to recur.

    Only prewarmed keys ever get a table: a fresh validator set's
    public keys will verify certificates for the rest of the run, so
    :class:`repro.consensus.validators.ValidatorSet` prewarms them at
    generation time.  ``hot=True`` builds the wide-window tier, for
    keys that stay hot for a whole long run.  Returns True when a
    table was built (False: already warm at that width).
    """
    base %= P
    if base == G:
        return False
    window = BASE_WINDOW_HOT if hot else BASE_WINDOW
    existing = _base_tables.get(base)
    if existing is not None and existing.window >= window:
        return False
    _base_tables.put(base, FixedBaseTable(base, P, BASE_TABLE_BITS, window))
    return True


# ----------------------------------------------------------------------
# Multi-exponentiation: dedup -> cached tables -> sliding-window Straus.
# ----------------------------------------------------------------------
def _sliding_window(bits: int) -> int:
    """Window width minimizing one base's sliding-window cost.

    Odd powers ``b, b^3, ..., b^(2^w - 1)`` cost ``2^(w-1)``
    multiplications, and odd digits fall on average every ``w + 1``
    bits; the shared squarings do not depend on ``w``.
    """
    return min(range(1, 9), key=lambda w: (1 << (w - 1)) + bits / (w + 1))


def _sliding_straus(items: list[tuple[int, int]], modulus: int) -> int:
    """Interleaved sliding-window multi-exp with one shared squaring chain.

    Each exponent is recoded left to right into odd digits of at most
    its own window width; the digit ending at bit ``j`` is multiplied in
    right after the accumulator's squaring for bit ``j``.
    """
    top = max(exponent.bit_length() for _, exponent in items)
    slots: list[list[int]] = [[] for _ in range(top)]
    for base, exponent in items:
        bits = bin(exponent)[2:]
        length = len(bits)
        window = _sliding_window(length)
        odd = [base]
        if window > 1:
            square = base * base % modulus
            for _ in range((1 << (window - 1)) - 1):
                odd.append(odd[-1] * square % modulus)
        start = bits.find("1")
        while start >= 0:
            end = bits.rfind("1", start, start + window) + 1
            slots[length - end].append(odd[int(bits[start:end], 2) >> 1])
            start = bits.find("1", end)
    acc = 1
    for position in range(top - 1, -1, -1):
        if acc != 1:
            acc = acc * acc % modulus
        for value in slots[position]:
            acc = acc * value % modulus
    return acc


def multi_pow(pairs: list[tuple[int, int]], modulus: int = P) -> int:
    """``Π base_i^{exp_i} mod modulus``.

    Repeated bases are merged by summing their exponents (two
    signatures under one public key cost one pass, not two).  When
    ``modulus`` is the group prime ``p``, bases with a cached
    fixed-base table — the generator and every prewarmed key —
    contribute through their table with no squarings at all; the cold
    remainder shares one sliding-window Straus pass.
    """
    if not pairs:
        return 1 % modulus
    if modulus == 1:
        return 0
    merged: dict[int, int] = {}
    for base, exponent in pairs:
        if exponent < 0:
            raise ValueError("negative exponent")
        base %= modulus
        merged[base] = merged.get(base, 0) + exponent
    hot = 1
    cold: list[tuple[int, int]] = []
    use_tables = modulus == P
    for base, exponent in merged.items():
        if exponent == 0 or base == 1:
            continue
        if base == 0:
            return 0
        if use_tables:
            table = _cached_table(base)
            if table is not None and exponent.bit_length() <= table.max_bits:
                hot = hot * table.pow(exponent) % modulus
                continue
        cold.append((base, exponent))
    if not cold:
        return hot % modulus
    return _sliding_straus(cold, modulus) * hot % modulus


def cache_stats() -> dict:
    """Diagnostics for the table caches (used by perfsuite and tests)."""
    return {
        "generator_table_built": _generator_table is not None,
        "base_tables": len(_base_tables),
        "base_table_hits": _base_tables.hits,
        "base_table_misses": _base_tables.misses,
    }


def clear_caches() -> None:
    """Drop every per-base table (the generator table is kept)."""
    _base_tables.clear()
