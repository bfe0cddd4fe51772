"""Field arithmetic and erasure-coding tests.

The ground truth throughout is a schoolbook carry-less multiply reduced
mod 0x11D — no tables — so the table-driven kernels are checked against
an independent definition of the field.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfm import gfec
from msfm.bench import BenchSpec, InvalidSpec
from msfm.gfec import (
    EcProfile,
    InvalidLength,
    InvalidProfile,
    ShardSet,
    TooFewShards,
    build_matrix,
    ec_decode,
    ec_encode,
    gf_inv,
    gf_mul,
)
from msfm.miniobj import ObjectPolicy
from msfm.protocol import EcEncodeParams, MalformedParams, encode_params

PROFILE_GRID = [(1, 0), (1, 1), (2, 1), (4, 2), (6, 3), (10, 4)]


def schoolbook_mul(a: int, b: int) -> int:
    """Carry-less multiply then reduce mod x^8+x^4+x^3+x^2+1."""
    product = 0
    for bit in range(8):
        if b & (1 << bit):
            product ^= a << bit
    for bit in range(15, 7, -1):
        if product & (1 << bit):
            product ^= 0x11D << (bit - 8)
    return product


# --- field arithmetic -----------------------------------------------------

def test_gf_mul_matches_schoolbook_exhaustively():
    for a in range(256):
        for b in range(256):
            assert gf_mul(a, b) == schoolbook_mul(a, b), (a, b)


def test_scalar_multiplication_tables_match_gf_mul():
    for c in range(256):
        row = gfec._MUL_TABLE[c]
        assert len(row) == 256
        for b in range(256):
            assert row[b] == gf_mul(c, b), (c, b)


def test_gf_mul_frozen_examples():
    assert all(gf_mul(0, x) == 0 for x in range(256))
    assert all(gf_mul(1, x) == x for x in range(256))
    assert gf_mul(0x02, 0x87) == 0x13


def test_gf_inv_every_nonzero_element():
    for a in range(1, 256):
        assert gf_mul(a, gf_inv(a)) == 1, a


def test_gf_inv_frozen_examples():
    assert gf_inv(0x01) == 0x01
    assert gf_inv(0x02) == 0x8E


def test_gf_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


def test_gf_mul_commutative_full_table():
    for a in range(256):
        for b in range(a):
            assert gf_mul(a, b) == gf_mul(b, a)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_gf_mul_associative_and_distributive(a, b, c):
    assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))
    assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


# --- generator matrix -----------------------------------------------------

def test_build_matrix_1_1():
    assert build_matrix(1, 1) == ((1,), (1,))


def test_build_matrix_3_0_is_identity():
    assert build_matrix(3, 0) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def matrix_is_invertible(rows: list[list[int]]) -> bool:
    """Rank check by Gaussian elimination using only schoolbook_mul."""
    work = [row[:] for row in rows]
    n = len(work)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return False
        work[col], work[pivot] = work[pivot], work[col]
        # scale pivot row to 1 by multiplying with the brute-force inverse
        inv = next(x for x in range(1, 256) if schoolbook_mul(work[col][col], x) == 1)
        work[col] = [schoolbook_mul(inv, v) for v in work[col]]
        for r in range(col + 1, n):
            f = work[r][col]
            if f:
                work[r] = [
                    v ^ schoolbook_mul(f, p) for v, p in zip(work[r], work[col])
                ]
    return True


def test_every_k_submatrix_of_4_2_invertible():
    matrix = build_matrix(4, 2)
    for rows in itertools.combinations(range(6), 4):
        assert matrix_is_invertible([matrix[r] for r in rows]), rows


def test_every_k_submatrix_invertible_across_grid():
    for k, m in PROFILE_GRID:
        matrix = build_matrix(k, m)
        for rows in itertools.combinations(range(k + m), k):
            assert matrix_is_invertible([matrix[r] for r in rows]), (k, m, rows)


def test_build_matrix_is_built_once_per_code():
    assert build_matrix(4, 2) is build_matrix(4, 2)
    for _ in range(2):  # a bad code raises each time: no exception is cached
        with pytest.raises(InvalidProfile):
            build_matrix(0, 1)


def test_build_matrix_rejects_bad_profiles():
    for k, m in [(0, 1), (33, 0), (16, 17), (-1, 2)]:
        with pytest.raises(InvalidProfile):
            build_matrix(k, m)


# --- encode ---------------------------------------------------------------

def test_encode_identity_code():
    ss = ec_encode(b"abc", EcProfile(1, 0, 3))
    assert ss.shards == [b"abc"]


def test_encode_mirror_code():
    # k=1, m=1: the parity row is [1], so parity duplicates the data.
    ss = ec_encode(b"\x00\x07\xff", EcProfile(1, 1, 3))
    assert ss.shards == [b"\x00\x07\xff", b"\x00\x07\xff"]


def test_encode_shapes_and_systematic_slices():
    rng = random.Random(42)
    data = rng.randbytes(4096)
    ss = ec_encode(data, EcProfile(4, 2, 1024))
    assert len(ss.shards) == 6
    assert all(len(s) == 1024 for s in ss.shards)
    for j in range(4):
        assert ss.shards[j] == data[j * 1024 : (j + 1) * 1024]


def test_encode_parity_matches_schoolbook_combination():
    """Bulk translate/bigint kernel vs a per-byte schoolbook evaluation."""
    rng = random.Random(7)
    profile = EcProfile(3, 2, 17)
    data = rng.randbytes(51)
    ss = ec_encode(data, profile)
    matrix = build_matrix(3, 2)
    for i in range(2):
        row = matrix[3 + i]
        expected = bytes(
            schoolbook_mul(row[0], data[b])
            ^ schoolbook_mul(row[1], data[17 + b])
            ^ schoolbook_mul(row[2], data[34 + b])
            for b in range(17)
        )
        assert ss.shards[3 + i] == expected


def test_encode_rejects_wrong_length():
    with pytest.raises(InvalidLength):
        ec_encode(b"12345", EcProfile(2, 1, 3))


# --- decode ---------------------------------------------------------------

def test_decode_all_present_is_concat():
    data = random.Random(1).randbytes(64)
    ss = ec_encode(data, EcProfile(4, 2, 16))
    assert ec_decode(ss) == data


def test_roundtrip_every_erasure_pattern_across_grid():
    rng = random.Random(2024)
    for k, m in PROFILE_GRID:
        size = 64
        data = rng.randbytes(k * size)
        ss = ec_encode(data, EcProfile(k, m, size))
        for count in range(m + 1):
            for pattern in itertools.combinations(range(k + m), count):
                assert ec_decode(ss.erase(*pattern)) == data, (k, m, pattern)


def test_decode_below_threshold():
    ss = ec_encode(bytes(64), EcProfile(4, 2, 16))
    with pytest.raises(TooFewShards):
        ec_decode(ss.erase(0, 1, 2))


def test_decode_rejects_wrong_length_shard():
    ss = ec_encode(bytes(64), EcProfile(4, 2, 16))
    ss.shards[3] = b"short"
    with pytest.raises(InvalidLength):
        ec_decode(ss)


def test_decode_rejects_wrong_slot_count():
    ss = ec_encode(bytes(64), EcProfile(4, 2, 16))
    with pytest.raises(InvalidLength):
        ec_decode(ShardSet(ss.profile, ss.shards[:-1]))


@pytest.mark.parametrize("k, m", [(4, 2), (1, 1), (6, 3), (10, 4)])
def test_cached_decode_matrix_equals_a_fresh_inverse(k, m):
    # ec(4,2): all 15 present-sets of 4 of 6 shards; others: a sample.
    present_sets = list(itertools.combinations(range(k + m), k))
    if len(present_sets) > 15:
        present_sets = random.Random(k * 100 + m).sample(present_sets, 15)
    data = random.Random(k).randbytes(k * 8)
    ss = ec_encode(data, EcProfile(k, m, 8))
    generator = build_matrix(k, m)
    for rows in present_sets:
        fresh = gfec._invert([generator[r] for r in rows])
        for _ in range(2):  # the first call fills the cache, the second reads it
            cached = gfec._decode_matrix(k, m, rows)
            assert [list(row) for row in cached] == fresh, rows
        assert all(isinstance(row, tuple) for row in cached)
        missing = [i for i in range(k + m) if i not in rows]
        assert ec_decode(ss.erase(*missing)) == data, rows


def test_decode_is_deterministic():
    data = random.Random(3).randbytes(6 * 32)
    a = ec_encode(data, EcProfile(6, 3, 32))
    b = ec_encode(data, EcProfile(6, 3, 32))
    assert a.shards == b.shards
    assert ec_decode(a.erase(0, 4, 7)) == ec_decode(b.erase(0, 4, 7))


@settings(deadline=None)
@given(st.data())
def test_roundtrip_random_profiles_and_patterns(data):
    k = data.draw(st.integers(1, 12))
    m = data.draw(st.integers(0, min(6, 32 - k)))
    size = data.draw(st.integers(1, 96))
    raw = data.draw(st.binary(min_size=k * size, max_size=k * size))
    ss = ec_encode(raw, EcProfile(k, m, size))
    erasures = data.draw(
        st.lists(st.integers(0, k + m - 1), max_size=m, unique=True)
    )
    assert ec_decode(ss.erase(*erasures)) == raw


def test_profile_bounds():
    with pytest.raises(InvalidProfile):
        EcProfile(0, 1, 16)
    with pytest.raises(InvalidProfile):
        EcProfile(30, 3, 16)
    with pytest.raises(InvalidProfile):
        EcProfile(4, 2, 0)


def _accepts(build, error) -> bool:
    try:
        build()
    except error:
        return False
    return True


@pytest.mark.parametrize(
    "k, m, fits",
    [(0, 0, False), (1, -1, False), (1, 31, True), (16, 16, True), (17, 16, False)],
)
def test_every_layer_applies_the_same_code_bounds(k, m, fits):
    sites = {
        "protocol": (lambda: encode_params(EcEncodeParams(k, m)), MalformedParams),
        "EcProfile": (lambda: EcProfile(k, m, 1), InvalidProfile),
        "build_matrix": (lambda: build_matrix(k, m), InvalidProfile),
        "ObjectPolicy": (lambda: ObjectPolicy.ec(k, m), ValueError),
        "BenchSpec": (lambda: BenchSpec(transform="ec", k=k, m=m, ops=1), InvalidSpec),
    }
    assert gfec.code_fits(k, m) is fits
    assert {name: _accepts(*site) for name, site in sites.items()} == {
        name: fits for name in sites
    }
