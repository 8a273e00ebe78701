"""Transaction databases: loading, writing, and co-occurrence counting.

A transaction is a set of non-negative integer item ids. The basket file
format is one transaction per line, item ids separated by whitespace;
blank lines and lines starting with ``#`` are skipped, and duplicate ids
within a line are collapsed.
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
        self.incidence_total = sum(len(t) for t in rows)

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
    that is not a non-negative decimal integer.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            items = set()
            for tok in s.split():
                if not (tok.isascii() and tok.isdigit()):
                    raise BasketFormatError(
                        f"{path}:{lineno}: invalid item id {tok!r}")
                items.add(int(tok))
            rows.append(tuple(sorted(items)))
    return TransactionDatabase._from_rows(rows)


def write_basket(db: TransactionDatabase, path) -> None:
    """Write a TransactionDatabase in basket format (one line per transaction)."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in db.transactions:
            fh.write(" ".join(map(str, t)))
            fh.write("\n")


class _PairCounts:
    """The item co-occurrence counts X.T @ X, one row at a time, X being the
    transaction-by-column incidence matrix of ``db`` over the columns in
    ``pos`` (item id -> column number 0..m-1). Counting is vertical, as in
    Eclat (Zaki, "Scalable algorithms for association mining", IEEE TKDE
    2000): ``tids[j]`` holds the transactions that contain column j, in
    ascending order, and row j counts the columns of those transactions.
    Entry j of row j is column j's own frequency. Any set of transactions
    is counted the same way: ``count(gather(t))``.

    Nothing is sized by the item ids: the column of every incidence is kept
    in one array, transaction after transaction, with m standing for any
    item not in ``pos``.
    """

    __slots__ = ("tids", "_cols", "_starts", "_sizes", "_m")

    def __init__(self, db: TransactionDatabase, pos: dict):
        m, rows = len(pos), db.transactions
        self._m = m
        self._cols = cols = np.fromiter(
            map(pos.get, chain.from_iterable(rows), repeat(m)),
            np.min_scalar_type(m), db.incidence_total)
        self._sizes = sizes = np.fromiter(map(len, rows), np.int64, len(rows))
        self._starts = np.cumsum(sizes) - sizes
        # the transaction of every incidence, grouped by column; the stable
        # sort keeps each group in transaction order
        tids = np.repeat(np.arange(len(rows)), sizes)[np.argsort(cols, kind="stable")]
        self.tids = np.split(tids, np.cumsum(np.bincount(cols, minlength=m + 1)[:m]))[:m]

    def gather(self, t: np.ndarray) -> np.ndarray:
        """The column of every incidence of the transactions ``t`` (a
        non-empty tid array), transaction after transaction."""
        lens = self._sizes[t]
        ends = np.cumsum(lens)
        # where in the column array the incidences of those transactions lie
        at = np.repeat(self._starts[t] - ends + lens, lens) + np.arange(ends[-1])
        return self._cols[at]

    def owners(self, t: np.ndarray) -> np.ndarray:
        """The transaction of every incidence that ``gather(t)`` returns."""
        return np.repeat(t, self._sizes[t])

    def count(self, g: np.ndarray) -> np.ndarray:
        """For each column, how many of the incidences ``g`` fall in it:
        with g = gather(t), how many of the transactions t hold it."""
        return np.bincount(g, minlength=self._m + 1)[:self._m]

    def row(self, j: int) -> np.ndarray:
        """Row j of X.T @ X: for each column, how many transactions hold it
        together with column j. Column j must occur in some transaction."""
        return self.count(self.gather(self.tids[j]))


def _bitset(bits, n: int) -> int:
    """The Python int with bit b set for each b in ``bits`` (each below ``n``),
    built in one step rather than one OR per bit."""
    row = np.zeros(n, bool)
    row[bits] = True
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
