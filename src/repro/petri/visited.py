"""Spill-to-disk visited sets for state-space exploration.

An explicit-state exploration is memory-bound long before it is
CPU-bound: the visited set must hold every reachable state for the
whole run, while the frontier stays comparatively small.  The packed
states of :mod:`repro.petri.compiled` (one int per marking under the
``bits`` codec, a tuple of counts under ``wide``) make membership
testing cheap — but a 10^7-state space at tens of bytes per state still
wants gigabytes of RAM for the set alone.

:class:`VisitedStore` bounds that: it behaves like a ``set`` of
``bytes`` keys, keeps everything in an ordinary in-memory set up to a
configurable byte budget, and past the budget *spills* to an SQLite
table on disk (a B-tree keyed by the state bytes), after which new
inserts stream through a small in-memory write buffer that is flushed
in batched transactions.  Membership stays exact at every moment —
the store never drops or double-counts a key, spilled or not.

Design notes:

* **Keys are opaque bytes.**  Callers pack their states (a ``bits``
  state as its little-endian bytes, a 1-safe bitmask state likewise, a
  wide tuple state with :func:`pack_wide_key`).  The store never
  interprets them.
* **SQLite over a hand-rolled mmap table.**  The stdlib ``sqlite3``
  module gives a crash-safe, reopenable, zero-dependency B-tree with
  batched ``INSERT``; an open-addressing mmap table would save a few
  microseconds per probe but needs its own resize/recovery story.
  The store's API hides the engine, so swapping it later is local.
* **Durability is opt-in.**  With an explicit ``path`` the on-disk
  table survives :meth:`close` and a later store can reopen it (used
  by restartable sweeps and the reopen-consistency tests);  without
  one, a temporary file is created lazily on first spill and deleted
  on close.
"""

from __future__ import annotations

import os
import sqlite3
import struct
import tempfile
from collections.abc import Iterable

#: Default in-memory budget (bytes) before spilling: generous enough
#: that ordinary verification runs never touch the disk path.
DEFAULT_MEMORY_BUDGET = 256 * 1024 * 1024

#: Estimated per-key bookkeeping overhead of a CPython set entry
#: (hash slot + object header), added to ``len(key)`` when accounting
#: against the budget.  An estimate is fine: the budget bounds order of
#: magnitude, not exact bytes.
_KEY_OVERHEAD = 64

#: Inserts buffered in memory after a spill before a batched
#: transaction writes them out.
_WRITE_BATCH = 4096


def pack_wide_key(state: "tuple[int, ...]") -> bytes:
    """A canonical bytes key for a wide (tuple) packed state.

    Little-endian signed 64-bit per place: injective, order-preserving
    per component, and cheap (one ``struct.pack`` call).
    """
    return struct.pack(f"<{len(state)}q", *state)


class VisitedStore:
    """An exact membership set of ``bytes`` keys with a byte budget.

    Parameters
    ----------
    memory_budget:
        Approximate bytes of key material (plus bookkeeping overhead)
        to hold in memory before spilling to disk.  ``0`` forces the
        very first insert to spill.  ``None`` uses
        :data:`DEFAULT_MEMORY_BUDGET`.
    path:
        Optional SQLite file backing the spilled table.  When given,
        :meth:`close` flushes *everything* (even keys that never
        exceeded the budget) into the file, so a new store opened on
        the same path sees every key ever added — the
        reopen-after-close contract.  When omitted, a temporary file is
        created on first spill and removed on close.
    """

    __slots__ = (
        "memory_budget",
        "path",
        "_own_tempfile",
        "_memory",
        "_memory_bytes",
        "_pending",
        "_connection",
        "_count",
        "spill_count",
        "spilled_keys",
    )

    def __init__(
        self,
        memory_budget: int | None = None,
        path: str | os.PathLike | None = None,
    ):
        if memory_budget is not None and memory_budget < 0:
            raise ValueError(
                f"memory budget must be >= 0, got {memory_budget}"
            )
        self.memory_budget = (
            DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
        )
        self.path = os.fspath(path) if path is not None else None
        self._own_tempfile = False
        self._memory: set[bytes] = set()
        self._memory_bytes = 0
        #: Post-spill write buffer: keys inserted but not yet committed.
        self._pending: set[bytes] = set()
        self._connection: sqlite3.Connection | None = None
        self._count = 0
        #: Number of spill events (batched transactions written).
        self.spill_count = 0
        #: Keys that have been moved to (or inserted straight into) disk.
        self.spilled_keys = 0
        if self.path is not None and os.path.exists(self.path):
            self._open_table()
            self._count = self._connection.execute(
                "SELECT COUNT(*) FROM visited"
            ).fetchone()[0]

    # -- membership --------------------------------------------------------

    def add(self, key: bytes) -> bool:
        """Insert ``key``; returns ``True`` iff it was not present."""
        if key in self._memory or key in self._pending:
            return False
        if self._connection is not None:
            if self._probe_disk(key):
                return False
            self._pending.add(key)
            self._count += 1
            if len(self._pending) >= _WRITE_BATCH:
                self._flush_pending()
            return True
        self._memory.add(key)
        self._memory_bytes += len(key) + _KEY_OVERHEAD
        self._count += 1
        if self._memory_bytes > self.memory_budget:
            self._spill_memory()
        return True

    def __contains__(self, key: bytes) -> bool:
        if key in self._memory or key in self._pending:
            return True
        if self._connection is not None:
            return self._probe_disk(key)
        return False

    def __len__(self) -> int:
        return self._count

    def update(self, keys: Iterable[bytes]) -> int:
        """Bulk :meth:`add`; returns how many keys were new."""
        added = 0
        for key in keys:
            if self.add(key):
                added += 1
        return added

    # -- introspection -----------------------------------------------------

    @property
    def spilled(self) -> bool:
        """``True`` once the store has written anything to disk."""
        return self._connection is not None

    @property
    def memory_keys(self) -> int:
        """Keys currently held in memory (set + write buffer)."""
        return len(self._memory) + len(self._pending)

    @property
    def memory_bytes(self) -> int:
        """Approximate bytes of in-memory key material."""
        return self._memory_bytes + sum(
            len(key) + _KEY_OVERHEAD for key in self._pending
        )

    # -- lifecycle ---------------------------------------------------------

    def flush(self) -> None:
        """Commit the post-spill write buffer (no-op before any spill)."""
        if self._connection is not None and self._pending:
            self._flush_pending()

    def close(self) -> None:
        """Release resources.

        With an explicit ``path`` every key (in-memory ones included)
        is persisted first, so reopening the path sees the full set;
        an implicit temporary spill file is deleted instead.
        """
        if self.path is not None and not self._own_tempfile:
            if self._memory or self._pending or self._connection is not None:
                if self._connection is None:
                    self._open_table()
                self._write_batch(self._memory | self._pending)
                self._memory.clear()
                self._pending.clear()
                self._memory_bytes = 0
        if self._connection is not None:
            self._connection.commit()
            self._connection.close()
            self._connection = None
            if self._own_tempfile:
                try:
                    os.unlink(self.path)
                except OSError:
                    pass
                self.path = None
                self._own_tempfile = False

    def __enter__(self) -> "VisitedStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _open_table(self) -> None:
        if self.path is None:
            handle, self.path = tempfile.mkstemp(
                prefix="cip-visited-", suffix=".sqlite"
            )
            os.close(handle)
            self._own_tempfile = True
        self._connection = sqlite3.connect(self.path)
        # The table is a pure membership set; every durability knob is
        # turned down — on a crash the whole exploration restarts anyway.
        self._connection.executescript(
            "PRAGMA journal_mode=OFF;"
            "PRAGMA synchronous=OFF;"
            "CREATE TABLE IF NOT EXISTS visited"
            " (key BLOB PRIMARY KEY) WITHOUT ROWID;"
        )

    def _probe_disk(self, key: bytes) -> bool:
        row = self._connection.execute(
            "SELECT 1 FROM visited WHERE key = ? LIMIT 1", (key,)
        ).fetchone()
        return row is not None

    def _write_batch(self, keys: Iterable[bytes]) -> None:
        self._connection.executemany(
            "INSERT OR IGNORE INTO visited(key) VALUES (?)",
            ((key,) for key in keys),
        )
        self._connection.commit()
        self.spill_count += 1

    def _spill_memory(self) -> None:
        if self._connection is None:
            self._open_table()
        self.spilled_keys += len(self._memory)
        self._write_batch(self._memory)
        self._memory.clear()
        self._memory_bytes = 0

    def _flush_pending(self) -> None:
        self.spilled_keys += len(self._pending)
        self._write_batch(self._pending)
        self._pending.clear()
