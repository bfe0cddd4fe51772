"""GF(2^8) arithmetic and systematic Reed-Solomon erasure coding.

Field: GF(2^8) with reducing polynomial x^8 + x^4 + x^3 + x^2 + 1
(0x11D), generator 2.  Addition is XOR; multiplication goes through
log/antilog tables.

Code: systematic with a Cauchy parity matrix.  `build_matrix(k, m)`
produces a (k+m) x k generator whose top k rows are the identity and
whose parity row i, column j is 1 / ((k+i) XOR j).  Because the x-set
{k..k+m-1} and y-set {0..k-1} are disjoint, every square submatrix is
Cauchy (or a mix of identity and Cauchy rows) and hence invertible, so
any k of the k+m shards suffice to recover the data.

Bulk shard math stays in pure Python but off the bytes-at-a-time path:
multiplying a shard by a scalar is one `bytes.translate` with a
precomputed 256-byte table, and XOR of shards is one big-integer XOR.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

_POLY = 0x11D

_EXP = [0] * 510  # doubled so gf_mul needs no mod 255
_LOG = [0] * 256


def _build_tables() -> None:
    x = 1
    for i in range(255):
        _EXP[i] = x
        _LOG[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _POLY
    for i in range(255, 510):
        _EXP[i] = _EXP[i - 255]


_build_tables()


def gf_mul(a: int, b: int) -> int:
    """Product of two field elements (each 0..255)."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inv(a: int) -> int:
    """Multiplicative inverse of a nonzero field element.

    Raises:
        ZeroDivisionError: a == 0, which has no inverse.
    """
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(2^8)")
    return _EXP[255 - _LOG[a]]


# Scalar-multiplication translation tables: _MUL_TABLE[c][b] == gf_mul(c, b),
# so shard * c is a single bytes.translate call.  Row c maps each b >= 1
# through _LOG[b] into the 256 antilogs that start at _LOG[c]; row 0 and
# column 0 are zero.  Each row is itself one translate.
_LOGS_OF_NONZERO = bytes(_LOG[1:256])
_EXP_BYTES = bytes(_EXP)
_MUL_TABLE = [bytes(256)] + [
    b"\x00" + _LOGS_OF_NONZERO.translate(_EXP_BYTES[_LOG[c] : _LOG[c] + 256])
    for c in range(1, 256)
]


class EcError(Exception):
    """Base class for erasure-coding errors."""


class InvalidProfile(EcError):
    """k/m/shard_size outside the supported bounds."""


class InvalidLength(EcError):
    """Input or shard length inconsistent with the profile."""


class TooFewShards(EcError):
    """Fewer than k shards present; the data is unrecoverable."""


def code_fits(k: int, m: int) -> bool:
    """Whether k data plus m parity shards form a supported code.

    Bounds: 1 <= k, 0 <= m, k + m <= 32, so that a present-set fits a
    32-bit bitmap.  Every layer that accepts k and m checks them here.
    """
    return 1 <= k and 0 <= m and k + m <= 32


@dataclass(frozen=True)
class EcProfile:
    """Code parameters: k data shards, m parity shards, bytes per shard.

    Bounds: `code_fits(k, m)` and shard_size >= 1.
    """

    k: int
    m: int
    shard_size: int

    def __post_init__(self) -> None:
        if not code_fits(self.k, self.m):
            raise InvalidProfile(f"invalid k={self.k} m={self.m}")
        if self.shard_size < 1:
            raise InvalidProfile(f"invalid shard_size={self.shard_size}")


@dataclass
class ShardSet:
    """k+m shard slots, each either `bytes` (present) or None (erased).

    Slots 0..k-1 are data shards, k..k+m-1 parity.
    """

    profile: EcProfile
    shards: list[bytes | None]

    def erase(self, *indices: int) -> "ShardSet":
        """Copy with the given shard slots dropped."""
        shards: list[bytes | None] = list(self.shards)
        for i in indices:
            shards[i] = None
        return ShardSet(self.profile, shards)


@functools.lru_cache(maxsize=64)
def build_matrix(k: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The (k+m) x k systematic Cauchy generator matrix, built once per code.

    Args:
        k: Data shard count.
        m: Parity shard count.

    Returns:
        Rows as tuples of field elements; row r < k is identity row r,
        row k+i has entries gf_inv((k+i) XOR j) for column j.

    Raises:
        InvalidProfile: `code_fits(k, m)` does not hold.
    """
    if not code_fits(k, m):
        raise InvalidProfile(f"invalid k={k} m={m}")
    identity = [tuple(int(c == r) for c in range(k)) for r in range(k)]
    parity = [tuple(gf_inv((k + i) ^ j) for j in range(k)) for i in range(m)]
    return tuple(identity + parity)


@functools.lru_cache(maxsize=256)
def _decode_matrix(
    k: int, m: int, rows: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Inverse of the generator's `rows`, built once per present-set."""
    generator = build_matrix(k, m)
    return tuple(map(tuple, _invert([generator[r] for r in rows])))


def _combine(coeffs: Sequence[int], shards: list[bytes], size: int) -> bytes:
    """XOR-accumulate coef * shard over all terms, as one big integer."""
    acc = 0
    for coef, shard in zip(coeffs, shards):
        if coef == 0:
            continue
        term = shard if coef == 1 else shard.translate(_MUL_TABLE[coef])
        acc ^= int.from_bytes(term, "little")
    return acc.to_bytes(size, "little")


def ec_encode(data: bytes, profile: EcProfile) -> ShardSet:
    """Split data into k shards and append m Cauchy parity shards.

    Args:
        data: Exactly k * shard_size bytes (callers pad shorter input).
        profile: Code parameters.

    Returns:
        A ShardSet with all k+m shards present; shard j < k is the
        verbatim slice data[j*shard_size : (j+1)*shard_size].

    Raises:
        InvalidLength: len(data) != k * shard_size.
    """
    k, m, size = profile.k, profile.m, profile.shard_size
    if len(data) != k * size:
        raise InvalidLength(f"need {k * size} bytes for {k} shards, got {len(data)}")
    shards: list[bytes | None] = [
        data[j * size : (j + 1) * size] for j in range(k)
    ]
    matrix = build_matrix(k, m)
    data_shards = shards[:k]
    for i in range(m):
        shards.append(_combine(matrix[k + i], data_shards, size))  # type: ignore[arg-type]
    return ShardSet(profile, shards)


def ec_decode(shard_set: ShardSet) -> bytes:
    """Recover the original k * shard_size data bytes.

    Works for any present-set of size >= k: the k x k submatrix of the
    generator picked out by the k lowest present indices is inverted
    (Gauss-Jordan, once per code and present-set, then cached) and only
    the missing data shards are rebuilt; present data shards pass
    through verbatim.  Missing parity is not regenerated.

    Raises:
        TooFewShards: Fewer than k shards present.
        InvalidLength: Wrong slot count, or a present shard whose
            length is not shard_size.
    """
    profile = shard_set.profile
    k, m, size = profile.k, profile.m, profile.shard_size
    shards = shard_set.shards
    if len(shards) != k + m:
        raise InvalidLength(f"expected {k + m} shard slots, got {len(shards)}")
    for i, shard in enumerate(shards):
        if shard is not None and len(shard) != size:
            raise InvalidLength(f"shard {i} has {len(shard)} bytes, expected {size}")

    present = [i for i, shard in enumerate(shards) if shard is not None]
    if len(present) < k:
        raise TooFewShards(f"{len(present)} shards present, need {k}")

    rows = tuple(present[:k])
    inverse = _decode_matrix(k, m, rows)
    row_shards = [shards[r] for r in rows]
    out: list[bytes] = []
    for j in range(k):
        shard = shards[j]
        if shard is None:
            shard = _combine(inverse[j], row_shards, size)  # type: ignore[arg-type]
        out.append(shard)
    return b"".join(out)


def _invert(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Gauss-Jordan inverse of a square matrix over GF(2^8)."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            # Unreachable for submatrices of a Cauchy generator.
            raise EcError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = gf_inv(aug[col][col])
        aug[col] = [gf_mul(scale, v) for v in aug[col]]
        for r in range(n):
            factor = aug[r][col]
            if r != col and factor:
                table = _MUL_TABLE[factor]
                aug[r] = [v ^ table[p] for v, p in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
