"""Deterministic random-number helpers.

Every stochastic step in the package draws through these helpers so that a
run is reproducible bit-for-bit from its seed, independent of scheduling
and of library-version changes to distribution samplers: normals are built
from raw uniforms with Box-Muller rather than taken from the generator's
own (version-dependent) method.

Imputation draws with ``keyed_normals``: counter-based keyed draws in the
manner of Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3"
(SC'11). Each record id is hashed once per run (``id_keys``), each label
once per stream, and every cell's uniforms come from mixing the two keys
in numpy uint64 arithmetic, so a whole block is drawn in a few array
operations. A PCG64 generator per key (``rng_for`` with ``normals``) now
serves only the synthetic fixtures, whose pinned output depends on it.
"""

from __future__ import annotations

import hashlib

import numpy as np

_TWO_PI = 2.0 * np.pi

# SplitMix64 (Steele, Lea and Flood 2014): the Weyl increment and the
# multipliers of its output finaliser
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_UNIT = 2.0**-53


def _key_text(*parts) -> bytes:
    return "\x1f".join(map(str, parts)).encode()


def rng_for(seed: int, *key_parts) -> np.random.Generator:
    """A PCG64 generator keyed by the run seed plus arbitrary labels.

    Per-record generators are derived as ``rng_for(seed, record_id)``, so
    output does not depend on the order records are processed.
    """
    digest = hashlib.sha256(_key_text(int(seed), *key_parts)).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:16], "big")))


def normals(rng: np.random.Generator, n: int, mean: float = 0.0, sd: float = 1.0) -> np.ndarray:
    """n standard-normal deviates via Box-Muller on raw uniforms."""
    m = (n + 1) // 2
    u1 = rng.random(m)
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 avoids log(0)
    z = np.concatenate([r * np.cos(_TWO_PI * u2), r * np.sin(_TWO_PI * u2)])[:n]
    return mean + sd * z


def _hash64(keys) -> np.ndarray:
    """The first 8 bytes of each key's sha256, as a uint64 array."""
    digests = b"".join([hashlib.sha256(k).digest()[:8] for k in keys])
    return np.frombuffer(digests, dtype=">u8").astype(np.uint64)


def id_keys(ids) -> np.ndarray:
    """Each id's key for ``keyed_uniforms``: the sha256 of ``str(id)``, as uint64."""
    return _hash64(str(i).encode() for i in ids)  # one pass: no list of encoded ids


def _mix64(x: np.ndarray) -> np.ndarray:
    """The SplitMix64 output finaliser, applied to ``x`` in place and
    returned; uint64 arrays wrap without warning."""
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def keyed_uniforms(seed: int, stream: str, ids, labels, *, keys=None) -> tuple[np.ndarray, np.ndarray]:
    """Two (len(ids), len(labels)) blocks of uniforms on [0, 1).

    Cell (i, j) is keyed by the sha256 of ``ids[i]`` xor the sha256 of
    (``seed``, ``stream``, ``labels[j]``); its uniforms are the first two
    outputs of a SplitMix64 sequence started at that key, each taken as
    ``(x >> 11) * 2**-53``. A cell's draws depend on nothing but its key:
    not on the other ids or labels, nor on their order. ``keys``, when
    given, is ``id_keys(ids)`` taken once for several streams.
    """
    keys = id_keys(ids) if keys is None else keys
    label_keys = _hash64(_key_text(int(seed), stream, label) for label in labels)
    # the state steps and mixes in place: a fresh process pays a page fault
    # for each page that a new (ids, labels) temporary touches
    state = keys[:, np.newaxis] ^ label_keys[np.newaxis, :]
    state += _GAMMA
    first = _mix64(state.copy())
    state += _GAMMA
    second = _mix64(state)
    first >>= np.uint64(11)
    second >>= np.uint64(11)
    return first * _UNIT, second * _UNIT


def keyed_normals(seed: int, stream: str, ids, labels, *, keys=None) -> np.ndarray:
    """A (len(ids), len(labels)) block of standard normals, one per cell.

    Box-Muller on the cell's two ``keyed_uniforms``; see there for how a
    cell is keyed and for ``keys``.
    """
    u1, u2 = keyed_uniforms(seed, stream, ids, labels, keys=keys)
    # sqrt(-2 log1p(-u1)) * cos(2 pi u2), each step in place in its operand
    np.negative(u1, out=u1)
    np.log1p(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= _TWO_PI
    np.cos(u2, out=u2)
    u1 *= u2
    return u1
