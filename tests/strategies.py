"""Hypothesis strategies and hand-built factor files shared across the test modules."""

import math
import struct
from functools import lru_cache

import numpy as np
from hypothesis import strategies as st

from prolate.operators import FastFactorization, FastProjector, FastPseudoinverse, FastTikhonov, SlepianParams
from prolate.operators import operator_to_bytes

# bytes before the first array of a version-6 file of any kind: the 64-byte header and the spectral
# record's two u64 (lead parity, column count)
HEADER_LENGTH = 64 + 8 * 2


def with_version(blob, version):
    """blob with another format version in its version field."""
    return bytes(blob[:4]) + struct.pack("<I", version) + bytes(blob[8:])


def version_2_projector(params, error_bound):
    """A rank-0 projector as FSLT version 2 laid it out: its header, then a (weight count, width of V) record."""
    head = struct.pack("<QdddQB7xd", params.n, params.w, params.epsilon, 0.0, params.k, 1, error_bound)
    return b"FSLT" + struct.pack("<I", 2) + head + struct.pack("<QQ", 0, 0)


@st.composite
def build_requests(draw):
    """(n, w, eps, k, alpha) for SlepianParams.create and the four builds: each within its range (n up to 256, as
    an int or a numpy integer; k None or in [0, n]), or, for one field in two draws, beyond it (n not positive or a
    float, k outside [0, n] or a float; alpha also zero, negative, infinite, nan, near the least subnormal or near
    the largest float)."""
    n = draw(st.integers(1, 256))
    fields = [
        (st.just(n) | st.just(np.int64(n)), st.integers(-2, 0) | st.floats(0.5, 256.5)),
        (st.floats(1e-3, 0.499), st.sampled_from([0.0, 0.5, -0.25, 0.75, math.nan])),
        (st.floats(1e-12, 0.4), st.sampled_from([1e-50, 0.0, 0.5, 1.0, math.nan])),
        (st.none() | st.integers(0, n), st.sampled_from([-1, n + 1, 32.0, 12.5])),
        (st.floats(1e-12, 1e2) | st.sampled_from([5e-324, 1e-300, 1e300]), st.sampled_from([0.0, -1.0, math.inf,
                                                                                           math.nan])),
    ]
    beyond = draw(st.sampled_from([None, 0, 1, 2, 3, 4]) | st.none())
    return tuple(draw(bad if i == beyond else good) for i, (good, bad) in enumerate(fields))


def _window_thresholds():
    """A transition threshold: at or beyond 0 or 1, within 1e-12 of either but above the float noise floor at
    n <= 512 (at most 3.0e-14), or anywhere in [0, 1], the noise band included."""
    return (st.sampled_from([-0.5, 0.0, 1.0, 1.5]) | st.floats(1.0, 12.0).map(lambda x: 10.0**-x)
            | st.floats(1.0, 12.0).map(lambda x: 1.0 - 10.0**-x) | st.floats(0.0, 1.0))


@st.composite
def window_sequences(draw):
    """(n, w, held, windows) at n up to 512: held is None or (side, gap, length), length pairs solved before the
    first window that end gap indices before ("low") or start gap indices after ("high") its predicted range
    (gap 1 adjoins it, gap <= 0 overlaps it), and windows one to three (lo, hi) threshold pairs, mostly lo < hi."""
    n = draw(st.sampled_from([1, 2, 3, 64]) | st.integers(1, 512))
    w = draw(st.sampled_from([1e-3, 0.25, 0.499]) | st.floats(1e-3, 0.499))
    held = draw(st.none() | st.tuples(st.sampled_from(["low", "high"]), st.integers(-20, 40), st.integers(1, 60)))
    pair = st.tuples(_window_thresholds(), _window_thresholds())
    windows = draw(st.lists(pair.map(lambda t: tuple(sorted(t))) | pair, min_size=1, max_size=3))
    return n, w, held, windows


@lru_cache(maxsize=2)
def small_fslt_files(n=48):
    """FSLT files of every kind at n (w = 1/4, eps = 1e-3, alpha = 1e-2), in kind order."""
    params = SlepianParams.create(n, 0.25, 1e-3)
    built = [FastProjector.build(params), FastFactorization.build(params), FastPseudoinverse.build(params),
             FastTikhonov.build(params, 1e-2)]
    return tuple(bytes(operator_to_bytes(op)) for op in built)


def middle_row_offsets(blob):
    """Offsets of the middle-row entries of a version-6 block's odd columns: the one value the writer fixes in
    the arrays, +-0 at odd n (none at even n)."""
    (n,), (lead, count) = struct.unpack_from("<Q", blob, 8), struct.unpack_from("<2Q", blob, 64)
    h = (n + 1) // 2
    return [HEADER_LENGTH + 8 * (count + h * j + h - 1) for j in range(1 - lead, count, 2)] if n % 2 else []


@st.composite
def _mutated(draw):
    kind = draw(st.integers(1, 4))
    blob = bytearray(small_fslt_files(draw(st.sampled_from([48, 49])))[kind - 1])
    # the fixed-width fields from n on: the header's u64 and f64 fields, the error bound, the record header's
    # lead and count, and at odd n the middle row of the odd columns
    fields = list(range(8, HEADER_LENGTH, 8)) + middle_row_offsets(blob)
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["byte", "u64", "f64"]))
        if edit == "byte":
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
        else:
            at = draw(st.sampled_from(fields))
            value = draw(st.integers(0, 2**64 - 1)) if edit == "u64" else draw(st.floats())
            blob[at:at + 8] = struct.pack("<Q" if edit == "u64" else "<d", value)
    if draw(st.booleans()):
        blob = blob[:draw(st.integers(0, len(blob)))]
    return bytes(blob)


def fslt_bytes():
    """Byte strings a factor-file loader may be handed: valid small files with a few edits
    (a byte, or an integer or float over a fixed-width field) and possibly truncated, an FSLT
    magic and version followed by noise, and plain noise."""
    versioned = st.builds(lambda v, rest: b"FSLT" + struct.pack("<I", v) + rest, st.sampled_from([1, 2, 3, 4, 5, 6]),
                          st.binary(max_size=256))
    return st.one_of(_mutated(), versioned, st.binary(max_size=256))
