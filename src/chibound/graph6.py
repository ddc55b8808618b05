"""graph6 text encoding (one graph per line, printable bytes 63..126)."""

from __future__ import annotations

from .graph import Graph, MAX_VERTICES


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
        raise Graph6Error(f"non-ASCII character {text[i]!r}", i)
    data = text.encode("ascii")
    for i, b in enumerate(data):
        if b < 63 or b > 126:
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
    adj = [0] * n
    bit = 0
    for k in range(start, len(data)):
        chunk = data[k] - 63
        for shift in range(5, -1, -1):
            if bit >= nbits:
                if (chunk >> shift) & 1:
                    raise Graph6Error("trailing padding bits set", k)
                continue
            if (chunk >> shift) & 1:
                i, j = _pair_of_bit(bit)
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            bit += 1
    return Graph(n, adj)


def _pair_of_bit(bit: int):
    # Bits run column-wise over the upper triangle: (0,1),(0,2),(1,2),(0,3),...
    j = 1
    while j * (j - 1) // 2 <= bit:
        j += 1
    j -= 1
    return bit - j * (j - 1) // 2, j


def write_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    else:
        raise Graph6Error(f"vertex count {n} too large for this writer")
    out = bytearray(head)
    chunk = 0
    width = 0
    for j in range(1, n):
        for i in range(j):
            chunk = (chunk << 1) | (g.adj[i] >> j & 1)
            width += 1
            if width == 6:
                out.append(chunk + 63)
                chunk = 0
                width = 0
    if width:
        out.append((chunk << (6 - width)) + 63)
    return out.decode("ascii")


def read_graph6_file(path):
    """Yield graphs from a file with one graph6 line each; skips blank lines."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield parse_graph6(line)
            except Graph6Error as exc:
                raise Graph6Error(f"line {lineno}: {exc}") from exc
