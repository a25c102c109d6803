"""One SQLite file for the persistent caches: measured results and the
SMARTS timing memo, one ``key -> JSON value`` table each.

Callers keep their own in-memory dict as the read cache; a miss reads
through with one indexed ``SELECT`` (:meth:`Store.get`), and a save
writes only the keys added since the last one, in one transaction
(:meth:`Store.write`; ``INSERT OR REPLACE``, so the saver's value wins).
SQLite serializes concurrent writers (WAL journal, busy timeout), so
there is no lock file, merge or whole-file rewrite, and no ``fcntl``.

The connection opens lazily, once per process and file: a forked pool
worker opens its own.  Reads never create the file.  A file whose
``PRAGMA user_version`` is not :data:`SCHEMA_VERSION` is ignored by
reads and reset by the first write.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

#: File name of the store inside a cache directory.
STORE_FILE = "store.sqlite"

#: Bump when the table layout changes.
SCHEMA_VERSION = 1

#: Every table: measured results, then the memo's runs and units.
TABLES = ("results", "memo_runs", "memo_units")

#: Seconds a writer waits for another writer's transaction.
BUSY_TIMEOUT_S = 60.0

_CONNECTIONS: Dict[str, sqlite3.Connection] = {}
_CONNECTIONS_PID = os.getpid()
#: Connections inherited through ``fork``.  SQLite forbids a child from
#: using them -- closing included -- so they stay referenced, untouched.
_INHERITED: List[sqlite3.Connection] = []


def default_cache_dir() -> Optional[str]:
    """``REPRO_CACHE_DIR`` (default ``.repro_cache``); None when it is
    ``0``, ``off``, ``none`` or empty, which disables persistence."""
    cache_dir = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    return None if cache_dir.lower() in ("0", "off", "none", "") else cache_dir


def md5_hex(data: bytes) -> str:
    """md5 hexdigest of ``data``, for cache keys and content digests.

    Declared not-for-security so it also works on FIPS-enabled Pythons.
    """
    return hashlib.md5(data, usedforsecurity=False).hexdigest()


def _connect(path: Path, create: bool) -> Optional[sqlite3.Connection]:
    """This process's connection to ``path`` (None if the file is missing
    and ``create`` is false)."""
    global _CONNECTIONS_PID
    if _CONNECTIONS_PID != os.getpid():
        _INHERITED.extend(_CONNECTIONS.values())
        _CONNECTIONS.clear()
        _CONNECTIONS_PID = os.getpid()
    conn = _CONNECTIONS.get(str(path))
    if conn is None:
        if not create and not path.exists():
            return None
        path.parent.mkdir(parents=True, exist_ok=True)
        # Autocommit mode: transactions are explicit in Store.write.
        conn = sqlite3.connect(
            str(path),
            timeout=BUSY_TIMEOUT_S,
            isolation_level=None,
            check_same_thread=False,
        )
        _CONNECTIONS[str(path)] = conn
    return conn


class Store:
    """Key -> JSON-value tables in one SQLite file at ``path``."""

    def __init__(self, path: os.PathLike):
        self.path = Path(path)
        #: The file is known to carry this schema version.
        self._current = False

    def _reader(self) -> Optional[sqlite3.Connection]:
        conn = _connect(self.path, create=False)
        if conn is None or self._current:
            return conn
        try:
            version = conn.execute("PRAGMA user_version").fetchone()[0]
        except sqlite3.DatabaseError:  # not a database: ignore it
            return None
        self._current = version == SCHEMA_VERSION
        return conn if self._current else None

    def get(self, table: str, key: str) -> Any:
        """The stored value for ``key`` (None if absent)."""
        conn = self._reader()
        if conn is None:
            return None
        row = conn.execute(
            f"SELECT value FROM {table} WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else json.loads(row[0])

    def write(
        self,
        tables: Mapping[str, Mapping[str, Any]],
        keep_last: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Insert-or-replace the rows of ``tables`` in one transaction,
        then cut the tables named in ``keep_last`` to their newest N
        rowids.  No rows: no write, and no file is created."""
        if not any(tables.values()):
            return
        conn = _connect(self.path, create=True)
        if not self._current:
            # Persistent, and cannot change inside a transaction.
            conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("BEGIN IMMEDIATE")
        with conn:  # commits, or rolls back and re-raises
            if conn.execute("PRAGMA user_version").fetchone()[0] != SCHEMA_VERSION:
                for table in TABLES:
                    conn.execute(f"DROP TABLE IF EXISTS {table}")
                    conn.execute(
                        f"CREATE TABLE {table} "
                        "(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
                    )
                conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
            for table, rows in tables.items():
                conn.executemany(
                    f"INSERT OR REPLACE INTO {table} (key, value) VALUES (?, ?)",
                    [(k, json.dumps(v)) for k, v in rows.items()],
                )
            for table, n in (keep_last or {}).items():
                conn.execute(
                    f"DELETE FROM {table} "
                    f"WHERE rowid <= (SELECT MAX(rowid) FROM {table}) - ?",
                    (n,),
                )
        self._current = True
