"""Bounds-checked reads of the little-endian binary inputs: WAV, MEL1, checkpoints.

Every length a reader is asked for is compared with the bytes left in the
file before anything is read, so a forged length in a header raises
FormatError instead of allocating memory or reading past the end.
"""

import math
import os
import struct

import numpy as np

from .errors import FormatError


class BinaryReader:
    """Sequential reads from a binary file opened by the caller."""

    def __init__(self, fh, path):
        self.fh = fh
        self.path = path
        self.size = os.fstat(fh.fileno()).st_size

    def left(self):
        """Bytes not read yet."""
        return self.size - self.fh.tell()

    def _need(self, n, what):
        left = self.left()
        if n > left:
            raise FormatError(f"{self.path}: {what} truncated: {n} bytes needed at offset "
                              f"{self.fh.tell()}, {left} left")

    def take(self, n, what="file"):
        """The next ``n`` bytes, or FormatError naming ``what`` as truncated."""
        self._need(n, what)
        return self.fh.read(n)

    def array(self, shape, dtype, what="file"):
        """The next ``shape`` items of ``dtype``, read straight into a new
        writable array (no intermediate bytes), or FormatError naming
        ``what`` as truncated before anything is allocated."""
        dtype = np.dtype(dtype)
        self._need(dtype.itemsize * math.prod(shape), what)
        arr = np.empty(shape, dtype=dtype)
        # a flat byte view of the new array: no cast, so a zero dimension reads nothing
        if self.fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
            raise FormatError(f"{self.path}: {what} truncated while reading")
        return arr

    def u32s(self, count, what="file"):
        return struct.unpack(f"<{count}I", self.take(4 * count, what))
