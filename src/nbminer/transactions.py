"""Transaction databases: loading, writing, and co-occurrence counting.

A transaction is a set of non-negative integer item ids. The basket file
format holds one transaction per line, item ids as runs of ASCII digits
separated by whitespace; duplicate ids within a line are collapsed. It
shares its line rules with every text file the package reads (see
``_read_lines``): UTF-8, lines ending in LF, CRLF or CR, and blank lines
and lines whose first non-blank character is ``#`` skipped.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import chain, repeat
from typing import Iterable, Iterator

import numpy as np


class BasketFormatError(ValueError):
    """A basket file line could not be parsed."""


class TransactionDatabase:
    """Immutable sequence of transactions with cached item statistics.

    Transactions keep their input order and are stored as sorted tuples of
    distinct ids. ``item_freq`` maps each observed item to the number of
    transactions containing it; ``incidence_total`` is the sum of all
    transaction sizes.
    """

    __slots__ = ("transactions", "item_freq", "incidence_total")

    def __init__(self, transactions: Iterable[Iterable[int]]):
        rows = []
        for t in transactions:
            try:
                items = sorted({operator.index(i) for i in t})
            except TypeError:
                raise ValueError(f"non-integer item id in transaction {t!r}") from None
            if items and items[0] < 0:
                raise ValueError(f"negative item id in transaction {t!r}")
            rows.append(tuple(items))
        self._init_from_rows(tuple(rows))

    def _init_from_rows(self, rows: tuple[tuple[int, ...], ...]) -> None:
        self.transactions = rows
        self.item_freq = dict(Counter(chain.from_iterable(rows)))
        self.incidence_total = sum(map(len, rows))

    @classmethod
    def _from_rows(cls, rows: Iterable[tuple[int, ...]]) -> "TransactionDatabase":
        # fast path for already-normalized rows
        db = cls.__new__(cls)
        db._init_from_rows(tuple(rows))
        return db

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.transactions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransactionDatabase):
            return NotImplemented
        return self.transactions == other.transactions

    def __hash__(self):
        return hash(self.transactions)

    def __repr__(self) -> str:
        return (f"TransactionDatabase({len(self)} transactions, "
                f"{len(self.item_freq)} items, {self.incidence_total} incidences)")


def load_basket(path) -> TransactionDatabase:
    """Read a basket file into a TransactionDatabase.

    Raises BasketFormatError (with the offending line number) on any token
    that is not a run of ASCII digits and on any line that is not UTF-8.
    """
    with open(path, "rb") as fh:
        rows = _parse_plain(fh)
    if rows is None:
        rows = _parse_lines(path)
    return TransactionDatabase._from_rows(rows)


# A plain basket holds only ASCII digits, spaces, tabs, CRs and LFs, with no
# id longer than _MAX_DIGITS digits, which always fits in an int64. Such a
# file holds no bad token, so it is parsed in bulk, in blocks of whole lines
# read _BLOCK bytes at a time, which keeps the transient arrays small.
_PLAIN = np.zeros(256, bool)
_PLAIN[list(b"0123456789 \t\r\n")] = True
_MAX_DIGITS = 18
_BLOCK = 1 << 16


def _parse_plain(fh) -> list | None:
    """The rows of a plain basket file open in binary mode, or None if it
    is not plain."""
    rows, pending = [], b""
    while True:
        chunk = fh.read(_BLOCK)
        block = pending + chunk
        # parse up to the last line break; the rest waits for the next chunk
        cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1 if chunk else len(block)
        pending = block[cut:]
        found = _plain_rows(np.frombuffer(block, np.uint8, cut))
        if found is None:
            return None
        rows += found
        if not chunk:
            return rows


def _plain_rows(buf: np.ndarray) -> list | None:
    """The rows of one block of whole lines, or None if it is not plain."""
    if not _PLAIN[buf].all():
        return None
    # in a plain block the digits are the bytes from b"0" up; the edges of
    # their runs alternate start, end
    edges = np.flatnonzero(np.diff(buf >= 48, prepend=False, append=False))
    starts, ends = edges[::2], edges[1::2]
    lengths = ends - starts
    if not len(lengths):
        return []
    if lengths.max() > _MAX_DIGITS:
        return None
    values = np.zeros(len(starts), np.int64)
    for j in range(lengths.max()):
        live = lengths > j
        values[live] = values[live] * 10 + (buf[starts[live] + j] - 48)
    # the first id after a line break starts a row, and so does the block's
    # first id; a CRLF, or a line with no id, makes no row
    first = np.zeros(len(starts) + 1, bool)
    first[0] = True
    first[np.searchsorted(starts, np.flatnonzero((buf == 10) | (buf == 13)))] = True
    vals = values.tolist()
    bounds = np.flatnonzero(first[:-1]).tolist()
    rows = [tuple(vals[a:b]) for a, b in zip(bounds, bounds[1:] + [len(vals)])]
    # sort and dedupe the rows whose ids do not strictly rise
    falls = np.flatnonzero((values[1:] <= values[:-1]) & ~first[1:-1])
    for r in set(np.searchsorted(bounds, falls, "right").tolist()):
        rows[r - 1] = tuple(sorted(set(rows[r - 1])))
    return rows


def _parse_lines(path) -> list:
    """The rows of any basket file, one line at a time."""
    return _read_lines(path, lambda text: tuple(sorted(set(map(_digits, text.split())))),
                       BasketFormatError)


def _digits(token: str, what: str = "item id") -> int:
    """An item id or a count in a text file: a run of ASCII digits."""
    if token.isascii() and token.isdigit():
        return int(token)
    raise ValueError(f"invalid {what} {token!r}")


def _real(token: str, what: str) -> float:
    """A real number in a text file: Python's float syntax in ASCII, with no
    blank around it and no underscore."""
    if token.isascii() and "_" not in token and token.strip() == token:
        try:
            return float(token)
        except ValueError:
            pass
    raise ValueError(f"invalid {what} {token!r}")


def _read_lines(path, parse, error=ValueError) -> list:
    """``parse(text)`` for each line of the UTF-8 text file ``path``, text
    being the line without its end (LF, CRLF or CR). A line that is blank or
    whose first non-blank character is ``#`` is skipped. A line that is not
    UTF-8, or a ValueError from ``parse``, raises ``error`` naming
    ``path:lineno``."""
    out = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                if not line.isascii():
                    # each byte that is not UTF-8 was read as a lone
                    # surrogate, which does not encode
                    line.encode("utf-8")
                text = line.rstrip("\n")
                head = text.lstrip()
                if head and head[0] != "#":
                    out.append(parse(text))
            except UnicodeEncodeError:
                raise error(f"{path}:{lineno}: not UTF-8") from None
            except ValueError as exc:
                raise error(f"{path}:{lineno}: {exc}") from None
    return out


def write_basket(db: TransactionDatabase, path) -> None:
    """Write a TransactionDatabase in basket format (one line per transaction)."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in db.transactions:
            fh.write(" ".join(map(str, t)))
            fh.write("\n")


class _PairCounts:
    """The item co-occurrence counts X.T @ X, one row at a time, X being the
    transaction-by-column incidence matrix of ``db`` over the item ids
    ``cols``, column j holding ``cols[j]``; ``pos`` maps each of those ids
    to its column. Counting is vertical, as in Eclat (Zaki, "Scalable
    algorithms for association mining", IEEE TKDE 2000): ``tids[j]`` holds
    the transactions that contain column j, in ascending order, and
    ``count(t)`` counts the columns of any set of transactions ``t``, so
    ``count(tids[j])`` is row j of X.T @ X, whose entry j is column j's own
    frequency.

    Nothing is sized by the item ids: the column of every incidence is kept
    in one array, transaction after transaction, with m standing for any
    item not in ``cols``.
    """

    __slots__ = ("pos", "tids", "_cols", "_starts", "_sizes", "_m")

    def __init__(self, db: TransactionDatabase, cols):
        self.pos = pos = {i: j for j, i in enumerate(cols)}
        m, rows = len(pos), db.transactions
        self._m = m
        self._cols = col = np.fromiter(
            map(pos.get, chain.from_iterable(rows), repeat(m)),
            np.min_scalar_type(m), db.incidence_total)
        self._sizes = sizes = np.fromiter(map(len, rows), np.int64, len(rows))
        self._starts = np.cumsum(sizes) - sizes
        # the transaction of every incidence, grouped by column; the stable
        # sort keeps each group in transaction order
        tids = np.repeat(np.arange(len(rows)), sizes)[np.argsort(col, kind="stable")]
        self.tids = np.split(tids, np.cumsum(np.bincount(col, minlength=m + 1)[:m]))[:m]

    def count(self, t: np.ndarray) -> np.ndarray:
        """For each column, how many of the transactions ``t`` hold it;
        ``t`` is an ascending array of transaction numbers."""
        lens = self._sizes[t]
        ends = np.cumsum(lens)
        # where in the column array the incidences of those transactions lie
        at = np.repeat(self._starts[t] - ends + lens, lens) + np.arange(ends[-1] if len(t) else 0)
        return np.bincount(self._cols[at], minlength=self._m + 1)[:self._m]


def _bitset(bits, n: int) -> int:
    """The Python int with bit b set for each b in ``bits`` (each below ``n``),
    built in one step rather than one OR per bit."""
    row = np.zeros(n, bool)
    row[bits] = True
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
