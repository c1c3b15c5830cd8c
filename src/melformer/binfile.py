"""Bounds-checked reads of the little-endian binary inputs: WAV, MEL1, checkpoints.

Every length a reader is asked for is compared with the bytes left in the
file before anything is read, so a forged length in a header raises
FormatError instead of allocating memory or reading past the end.
"""

import os
import struct

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

    def take(self, n, what="file"):
        """The next ``n`` bytes, or FormatError naming ``what`` as truncated."""
        left = self.left()
        if n > left:
            raise FormatError(f"{self.path}: {what} truncated: {n} bytes needed at offset "
                              f"{self.fh.tell()}, {left} left")
        return self.fh.read(n)

    def u32s(self, count, what="file"):
        return struct.unpack(f"<{count}I", self.take(4 * count, what))
