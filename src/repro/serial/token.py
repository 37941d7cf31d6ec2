"""Token base classes — the data objects circulating through flow graphs.

A token is a plain Python class whose instance attributes form the payload.
Subclassing :class:`Token` (directly or via :class:`SimpleToken` /
:class:`ComplexToken`) auto-registers the class for deserialization — the
analog of the C++ ``IDENTIFY`` macro.

- :class:`SimpleToken` — scalars only (numbers, bools, short strings);
  serialized field-by-field, the analog of memcpy-serializable C++ tokens.
- :class:`ComplexToken` — may additionally contain :class:`Buffer`,
  :class:`Vector`, nested tokens, lists, dicts.

The distinction is advisory in Python (the codec handles both identically)
but :class:`SimpleToken` *enforces* its restriction so that tests and users
catch accidentally-heavy payloads on hot control paths.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .containers import Buffer, Vector
from .registry import registry

__all__ = ["Token", "SimpleToken", "ComplexToken", "TokenMeta"]

_SIMPLE_SCALARS = (type(None), bool, int, float, str, bytes)


class TokenMeta(type):
    """Metaclass that registers every concrete token class by name.

    A class may pin its wire name with a ``_dps_name_`` attribute;
    otherwise ``__name__`` is used.  Classes whose name starts with an
    underscore are treated as abstract and not registered.
    """

    def __new__(mcls, name, bases, ns, register: bool = True, **kwargs):
        cls = super().__new__(mcls, name, bases, ns, **kwargs)
        if register and not name.startswith("_"):
            registry.register(cls, ns.get("_dps_name_"))
        return cls

    def __init__(cls, name, bases, ns, register: bool = True, **kwargs):
        super().__init__(name, bases, ns, **kwargs)


class Token(metaclass=TokenMeta):
    """Base class for all data objects exchanged between operations."""

    def fields(self) -> dict[str, Any]:
        """The serializable payload: the instance ``__dict__``."""
        return self.__dict__

    def validate(self) -> None:
        """Hook for payload constraints; raises on violation."""

    def payload_nbytes(self) -> int:
        """Approximate payload size in bytes (without wire headers).

        Used by cost models for quick size estimates; the authoritative
        size is the length of the encoded wire message.
        """
        return _approx_nbytes(self.fields())

    def __eq__(self, other: Any) -> bool:
        return type(self) is type(other) and _fields_equal(self.fields(), other.fields())

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in list(self.fields().items())[:4])
        return f"{type(self).__name__}({inner})"


class SimpleToken(Token):
    """A token restricted to scalar fields (memcpy-like serialization)."""

    def validate(self) -> None:
        for key, value in self.fields().items():
            if not isinstance(value, _SIMPLE_SCALARS) and not isinstance(
                value, (np.integer, np.floating, np.bool_)
            ):
                raise TypeError(
                    f"{type(self).__name__}.{key} = {type(value).__name__}; "
                    f"SimpleToken fields must be scalars — use ComplexToken "
                    f"for Buffer/Vector/nested payloads"
                )


class ComplexToken(Token):
    """A token that may carry containers and nested tokens."""


def _approx_nbytes(value: Any) -> int:
    # Exact types first: a token's fields dict, its str keys and its
    # scalars take a few identity tests; anything else (an IntEnum,
    # np.int32, a Token) falls through to the isinstance chain below.
    cls = type(value)
    if cls is dict:
        return (sum(map(_approx_nbytes, value))
                + sum(map(_approx_nbytes, value.values())))
    if cls is str:
        return len(value.encode("utf-8"))
    if cls is int or cls is float:
        return 8
    if cls is Buffer:
        return value.nbytes
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, Buffer):
        return value.nbytes
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, Vector):
        return sum(_approx_nbytes(v) for v in value.items)
    if isinstance(value, (list, tuple)):
        return sum(_approx_nbytes(v) for v in value)
    if isinstance(value, dict):
        return sum(
            _approx_nbytes(k) + _approx_nbytes(v) for k, v in value.items()
        )
    if isinstance(value, Token):
        return _approx_nbytes(value.fields())
    raise TypeError(f"unserializable value of type {type(value).__name__}")


def _fields_equal(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            if not (
                isinstance(va, np.ndarray)
                and isinstance(vb, np.ndarray)
                and va.shape == vb.shape
                and np.array_equal(va, vb)
            ):
                return False
        elif va != vb:
            return False
    return True
