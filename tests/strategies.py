"""Hypothesis strategies shared across the test modules."""

import struct
from functools import lru_cache

from hypothesis import strategies as st

from prolate.operators import FastFactorization, FastProjector, FastPseudoinverse, FastTikhonov, SlepianParams
from prolate.operators import operator_to_bytes

# the fixed-width fields from n on: the header's u64 and f64 fields, the error bound and the record headers
_FIELDS = range(8, 96)


@lru_cache(maxsize=1)
def small_fslt_files():
    """FSLT files of every kind at n = 48 (w = 1/4, eps = 1e-3, alpha = 1e-2)."""
    params = SlepianParams.create(48, 0.25, 1e-3)
    built = [FastProjector.build(params), FastFactorization.build(params), FastPseudoinverse.build(params),
             FastTikhonov.build(params, 1e-2)]
    return tuple(bytes(operator_to_bytes(op)) for op in built)


@st.composite
def _mutated(draw):
    blob = bytearray(draw(st.sampled_from(small_fslt_files())))
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["byte", "u64", "f64"]))
        if edit == "byte":
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
        else:
            at = draw(st.sampled_from(_FIELDS))
            value = draw(st.integers(0, 2**64 - 1)) if edit == "u64" else draw(st.floats())
            blob[at:at + 8] = struct.pack("<Q" if edit == "u64" else "<d", value)
    if draw(st.booleans()):
        blob = blob[:draw(st.integers(0, len(blob)))]
    return bytes(blob)


def fslt_bytes():
    """Byte strings a factor-file loader may be handed: valid small files with a few edits
    (a byte, or an integer or float over a fixed-width field) and possibly truncated, an FSLT
    magic and version followed by noise, and plain noise."""
    versioned = st.builds(lambda v, rest: b"FSLT" + struct.pack("<I", v) + rest, st.sampled_from([1, 2]),
                          st.binary(max_size=256))
    return st.one_of(_mutated(), versioned, st.binary(max_size=256))
