"""Gradient compression codecs.

The paper selects FP16 compression for peer-to-peer communication
(Section 3) and cites aggressive 8-bit quantization (Dettmers 2016) as
one of the techniques that makes low-bandwidth training possible. Both
are implemented for real on numpy arrays; the byte counts these codecs
produce are exactly what the averager ships through the fabric.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["compress", "decompress", "compressed_nbytes", "CODECS"]

CODECS = ("fp32", "fp16", "int8")

_INT8_LEVELS = 255.0


def compress(array: np.ndarray, codec: str = "fp16") -> bytes:
    """Encode a float array into the codec's wire format."""
    # Imported here: the analytical model needs only compressed_nbytes.
    import numpy as np

    array = np.ascontiguousarray(array, dtype=np.float64)
    if codec == "fp32":
        return array.astype(np.float32).tobytes()
    if codec == "fp16":
        return array.astype(np.float16).tobytes()
    if codec == "int8":
        low = float(array.min()) if array.size else 0.0
        high = float(array.max()) if array.size else 0.0
        scale = (high - low) / _INT8_LEVELS if high > low else 1.0
        quantized = np.round((array - low) / scale).astype(np.uint8)
        header = np.array([low, scale], dtype=np.float64).tobytes()
        return header + quantized.tobytes()
    raise ValueError(f"unknown codec {codec!r}; known: {CODECS}")


def decompress(payload: bytes, codec: str, size: int) -> np.ndarray:
    """Decode ``size`` values from a codec wire format (as float64)."""
    import numpy as np

    if codec == "fp32":
        return np.frombuffer(payload, dtype=np.float32, count=size).astype(
            np.float64
        )
    if codec == "fp16":
        return np.frombuffer(payload, dtype=np.float16, count=size).astype(
            np.float64
        )
    if codec == "int8":
        low, scale = np.frombuffer(payload[:16], dtype=np.float64)
        quantized = np.frombuffer(payload[16:], dtype=np.uint8, count=size)
        return quantized.astype(np.float64) * scale + low
    raise ValueError(f"unknown codec {codec!r}; known: {CODECS}")


def compressed_nbytes(size: int, codec: str) -> float:
    """Wire bytes for ``size`` values — what the fabric must carry."""
    per_value = {"fp32": 4.0, "fp16": 2.0, "int8": 1.0}
    if codec not in per_value:
        raise ValueError(f"unknown codec {codec!r}; known: {CODECS}")
    overhead = 16.0 if codec == "int8" else 0.0
    return size * per_value[codec] + overhead
