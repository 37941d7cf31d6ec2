"""``Token.payload_nbytes()``: the size estimate cost models read.

The literals pin the sizes for one value of each supported kind, so a
faster dispatch cannot change what any cost model charges.
"""

import enum

import numpy as np
import pytest

from repro.serial import Buffer, ComplexToken, Vector


class _Color(enum.IntEnum):
    RED = 3


class _Field(ComplexToken):
    """One field named ``value``: its size is 5 bytes of key plus the value."""

    def __init__(self, value=None):
        self.value = value


SIZES = {
    "none": (None, 6),
    "bool": (True, 6),
    "int": (12345, 13),
    "intenum": (_Color.RED, 13),
    "np_int32": (np.int32(7), 13),
    "float": (2.5, 13),
    "np_float32": (np.float32(1.5), 13),
    "non_ascii_str": ("héllo wörld ✓", 22),
    "bytes": (b"abcdef", 11),
    "bytearray": (bytearray(b"xyz"), 8),
    "memoryview": (memoryview(b"0123456789"), 15),
    "buffer": (Buffer(np.zeros(100, np.uint8)), 105),
    "ndarray": (np.ones((3, 4), dtype=np.float64), 101),
    "vector": (Vector([1, "ab", 2.0]), 23),
    "list": ([1, 2.0, "é", None], 24),
    "tuple": ((True, b"xy"), 8),
    "dict": ({"k": 1, 2: "vv"}, 24),
    "nested_token": (_Field(_Field([1, 2])), 31),
}


@pytest.mark.parametrize("value, nbytes", list(SIZES.values()), ids=list(SIZES))
def test_payload_nbytes_is_pinned(value, nbytes):
    assert _Field(value).payload_nbytes() == nbytes


def test_unsupported_type_still_raises():
    with pytest.raises(TypeError, match="unserializable value of type set"):
        _Field({1, 2}).payload_nbytes()
