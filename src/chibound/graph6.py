"""graph6 text encoding (one graph per line, printable bytes 63..126).

A line is a vertex-count header and a body: Graph.code padded with zeros
to a multiple of six bits, six bits per byte, each byte 63 plus its bits.
Bytes 63..126 are the base64 alphabet shifted, so the body is converted by
bytes.translate and binascii's base64 codec, and the bits themselves are
packed and unpacked only by chibound.graph.
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64

from .graph import MAX_VERTICES, Graph, from_code

_DIGITS = bytes(range(63, 127))
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(_DIGITS, _BASE64)
_FROM_BASE64 = bytes.maketrans(_BASE64, _DIGITS)


class Graph6Error(ValueError):
    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _read_n(data: bytes):
    """Decode the leading vertex-count field; returns (n, bytes consumed)."""
    if not data:
        raise Graph6Error("empty graph6 line", 0)
    b0 = data[0]
    if b0 != 126:
        return b0 - 63, 1
    if len(data) >= 2 and data[1] == 126:
        if len(data) < 8:
            raise Graph6Error("truncated 8-byte length header", len(data))
        n = 0
        for i in range(2, 8):
            n = (n << 6) | (data[i] - 63)
        return n, 8
    if len(data) < 4:
        raise Graph6Error("truncated 4-byte length header", len(data))
    n = 0
    for i in range(1, 4):
        n = (n << 6) | (data[i] - 63)
    return n, 4


def parse_graph6(line: str) -> Graph:
    if line.startswith(">>graph6<<"):
        line = line[10:]
    text = line.rstrip("\r\n")
    if not text.isascii():
        i = next(i for i, ch in enumerate(text) if not ch.isascii())
        ch = text[i]
        # read_graph6_file passes an undecodable byte b as chr(0xDC00 + b)
        what = (f"byte {ord(ch) - 0xDC00:#x}" if "\udc80" <= ch <= "\udcff"
                else f"character {ch!r}")
        raise Graph6Error(f"non-ASCII {what}", i)
    data = text.encode("ascii")
    if data.translate(None, _DIGITS):
        i, b = next((i, b) for i, b in enumerate(data) if b < 63 or b > 126)
        raise Graph6Error(f"non-printable or out-of-range byte {b}", i)
    n, start = _read_n(data)
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph6 vertex count {n} exceeds supported maximum {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - start != nbytes:
        raise Graph6Error(
            f"bad length: expected {nbytes} adjacency bytes for n={n}, got {len(data) - start}",
            start,
        )
    # Whole base64 quads of 24 bits, the last filled out with "A" (zeros).
    fill = -nbytes % 4
    raw = a2b_base64(data[start:].translate(_TO_BASE64) + b"A" * fill)
    body = int.from_bytes(raw, "big") >> 6 * fill
    pad = 6 * nbytes - nbits
    if body & ((1 << pad) - 1):
        raise Graph6Error("trailing padding bits set", len(data) - 1)
    return from_code(body >> pad, n)


def write_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    else:
        raise Graph6Error(f"vertex count {n} too large for this writer")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    quads = (nbytes + 3) // 4
    raw = (g.code << 24 * quads - nbits).to_bytes(3 * quads, "big")
    body = b2a_base64(raw, newline=False)[:nbytes].translate(_FROM_BASE64)
    return (head + body).decode("ascii")


def read_graph6_file(path):
    """Yield graphs from a file with one graph6 line each; skips blank lines.

    A byte that is not UTF-8 is read as a lone surrogate, so it fails on
    its own line as a non-ASCII byte, after the lines before it.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield parse_graph6(line)
            except Graph6Error as exc:
                raise Graph6Error(f"line {lineno}: {exc}") from exc
