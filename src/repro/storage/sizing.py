"""Wire-size accounting for simulated payloads.

Simulated transfer times are charged per byte, so every payload moved
through a storage service needs a size.  The rules, in order:

1. Objects exposing an integer ``nbytes`` attribute (numpy arrays, this
   repo's sparse updates and model snapshots) use it directly.
2. ``bytes``/``bytearray`` use their length.
3. Strings use their UTF-8 length.
4. Scalars use fixed widths (8 bytes for floats/ints, 1 for bools).
5. Containers add per-item overhead plus the sizes of their contents —
   a rough stand-in for serialization framing.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["payload_size"]

#: Serialization framing overhead charged per container element, bytes.
CONTAINER_ITEM_OVERHEAD = 8
#: Fixed envelope charged per top-level payload (headers, key, framing).
ENVELOPE_OVERHEAD = 64


def payload_size(obj: Any) -> int:
    """Estimated wire size of ``obj`` in bytes (envelope included)."""
    return ENVELOPE_OVERHEAD + _body_size(obj)


def _body_size(obj: Any) -> int:
    # Exact types first for the hot leaves (none has ``nbytes``); ``bool``
    # and the NumPy scalars are subclasses and take the generic ladder.
    kind = type(obj)
    if kind is float or kind is int:
        return 8
    if kind is str:
        return len(obj) if obj.isascii() else len(obj.encode("utf-8"))
    if kind is not dict:
        if obj is None:
            return 1
        nbytes = getattr(obj, "nbytes", None)
        if nbytes is not None and isinstance(nbytes, (int, np.integer)):
            return int(nbytes)
    if isinstance(obj, dict):
        size = CONTAINER_ITEM_OVERHEAD * len(obj)
        for key, value in obj.items():
            size += _body_size(key) + _body_size(value)
        return size
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(CONTAINER_ITEM_OVERHEAD + _body_size(v) for v in obj)
    raise TypeError(
        f"cannot size object of type {type(obj).__name__}; give it an "
        f"integer 'nbytes' attribute or use a supported container"
    )
