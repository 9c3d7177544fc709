"""Pluggable storage backends for the sweep result cache.

:class:`~repro.engine.cache.ResultCache` historically *was* a layout:
sharded JSON files under a directory.  That layout is now one
implementation of the :class:`StoreBackend` protocol —
:class:`FileBackend`, byte-compatible with every existing cache — and
a second implementation, :class:`SqlBackend`, keeps one row per cell
in a single SQLite database so reports over million-cell sweeps
compile to SQL instead of loading every entry into Python (see
:mod:`repro.engine.sqlreport`), and whole caches merge across hosts
with one ``ATTACH`` + ``INSERT OR IGNORE``.

Backends are addressed by URI::

    file:/path/to/dir      sharded-JSON directory (the default)
    sqlite:/path/to/db     single-file SQLite database
    duckdb:/path/to/db     DuckDB database (only when the optional
                           ``duckdb`` package is importable)
    /bare/path             shorthand for file:/bare/path (back-compat)

``parse_store`` resolves any of these (or a ``Path``, or an existing
backend instance) to a backend; ``backend.uri`` round-trips, so worker
processes can rebuild their parent's store from a string.

The SQLite schema stores the full entry payload in ``cells``
(``params``/``result``/``raw``/``attempts`` as JSON text) *plus* the
report axes as real columns and a precomputed ``grid_order`` sort key,
so ``--where`` filters, pivots, and overhead series run as indexed SQL
over columns while ``load()`` still reproduces exactly what the file
backend returns.  Every numeric metric additionally lands in the
``cell_values`` side table twice: as a bound REAL (for ad-hoc SQL,
which can be off in the last ulp — SQLite's text↔float conversions
are not correctly rounded) and as Python's shortest round-trip
``repr`` text, which the compiled report path aggregates so its
floats are bit-identical to the in-memory path's (see
:mod:`repro.engine.sqlreport`).  The artifact-bundle slot is a blob
*reference*: the
bundle itself lives in a ``<db>.artifacts/<fp>/`` sidecar directory
(bundles are directory trees with their own manifest/checksums) and
the row's ``artifact`` column points at it.
"""

from __future__ import annotations

import abc
import dataclasses
import json
import sqlite3
from pathlib import Path

from .. import obs
from ..pipeline.store import (ResultStore, result_from_dict,
                              result_to_dict)
from .spec import JOB_AXES

__all__ = ["StoreBackend", "FileBackend", "SqlBackend", "DuckDbBackend",
           "parse_store", "grid_order_key"]

#: Schema version of the SQL cell table (``meta.store_version``).
SQL_STORE_VERSION = 1

#: Report axes materialized as real columns on the ``cells`` table, in
#: declaration order.
AXIS_COLUMNS = tuple(JOB_AXES)


def grid_order_key(job) -> str:
    """Serialize a job's grid-sort tuple into one binary-sortable
    string.

    ``ResultCache.outcomes`` orders cells with a Python tuple key
    (``cache._grid_order``); the SQL backend needs the identical order
    from a plain ``ORDER BY``, so this encodes the same fields —
    dataset, rows, n_features, error, imputer, model, baseline-first
    approach, metric, seed — into a ``\\x1f``-separated string whose
    bytewise (BINARY collation) order matches the tuple's: integers
    are zero-padded, optional fields carry a ``0``/``1`` none-first
    prefix, and the separator sorts below every printable character so
    prefix ordering is preserved.  Assumes non-negative rows/seed
    (true of every grid the engine expands).
    """
    def none_first(value) -> str:
        return "0" if value is None else "1" + str(value)

    parts = (job.dataset, f"{job.rows:012d}",
             none_first(job.n_features), none_first(job.error),
             none_first(job.imputer), job.model,
             "1" if job.approach is not None else "0",
             job.approach_label, none_first(job.metric),
             f"{job.seed:012d}")
    return "\x1f".join(parts)


def _axis_values(params: dict) -> tuple[dict | None, str | None]:
    """Reconstruct a stored entry's report-axis column values and grid
    sort key, or ``(None, None)`` when the params no longer parse (a
    component since removed from the registry) — such rows keep their
    payload but are excluded from SQL-compiled reports, exactly as the
    in-memory path skips them."""
    from .report import _axis_value
    from .spec import job_from_params

    try:
        job = job_from_params(params)
    except (KeyError, TypeError, ValueError):
        return None, None
    return ({axis: _axis_value(job, axis) for axis in AXIS_COLUMNS},
            grid_order_key(job))


class StoreBackend(abc.ABC):
    """Where the result cache keeps its entries.

    One entry per cell, addressed by the job's content fingerprint;
    each entry is the ``(results, params)`` pair the original file
    layout stored, plus optional execution ``attempts`` provenance and
    an artifact-bundle slot.  ``load`` raises ``FileNotFoundError`` on
    a missing entry and ``ValueError``/``KeyError`` on a corrupt one —
    the cache maps those to miss/corrupt-miss exactly as before.
    """

    kind: str

    # -- identity ------------------------------------------------------
    @property
    @abc.abstractmethod
    def uri(self) -> str:
        """Round-trippable address (``parse_store(uri)`` rebuilds)."""

    @property
    @abc.abstractmethod
    def location(self) -> str:
        """Human-readable place name for messages."""

    @abc.abstractmethod
    def exists(self) -> bool:
        """Whether the store exists on disk (never creates it)."""

    # -- entries -------------------------------------------------------
    @abc.abstractmethod
    def save(self, fingerprint: str, results, params: dict,
             attempts=()) -> Path:
        """Write one entry (replacing any previous one); returns the
        path holding it (the shard file, or the database)."""

    @abc.abstractmethod
    def load(self, fingerprint: str):
        """Read one entry back as ``(results, params)``."""

    @abc.abstractmethod
    def delete(self, fingerprint: str) -> None:
        """Drop one entry (no-op if absent)."""

    @abc.abstractmethod
    def fingerprints(self) -> list[str]:
        """Fingerprints of every stored entry, sorted."""

    @abc.abstractmethod
    def entry_path(self, fingerprint: str) -> Path:
        """The file a problem report should name for this entry."""

    # -- artifact slots ------------------------------------------------
    @abc.abstractmethod
    def artifact_dir(self, fingerprint: str) -> Path:
        """Directory slot for the cell's artifact bundle."""

    def note_artifact(self, fingerprint: str) -> None:
        """Record that the cell's artifact slot was (re)written."""

    def artifact_fingerprints(self) -> list[str]:
        """Fingerprints that have an artifact slot on disk (intact or
        torn), sorted."""
        return []

    # -- maintenance ---------------------------------------------------
    @abc.abstractmethod
    def corrupt(self, fingerprint: str) -> None:
        """Chaos hook: damage one stored entry in place so reads see a
        corrupt (not missing) entry."""

    def vacuum(self) -> None:
        """Reclaim space after deletions (best-effort no-op default)."""

    def spec_versions(self) -> list[int]:
        """Distinct ``spec_version`` values across stored entries."""
        versions = set()
        for fingerprint in self.fingerprints():
            try:
                _, params = self.load(fingerprint)
            except (FileNotFoundError, ValueError, KeyError):
                continue
            versions.add(int(params.get("spec_version", 0)))
        return sorted(versions)

    def close(self) -> None:
        """Release any held handles (no-op for file stores)."""


class FileBackend(StoreBackend):
    """The original sharded-JSON directory layout, byte-for-byte.

    ``<root>/<fp[:2]>/<fp>.json`` entries written atomically through
    :class:`~repro.pipeline.store.ResultStore`, with artifact bundles
    as ``<fp>.artifacts`` sibling directories.  Existing caches load
    unchanged; ``attempts`` provenance is accepted but not persisted
    (adding it would change entry bytes under old caches' diffs).
    """

    kind = "file"

    def __init__(self, root: str | Path):
        self.root = Path(root)

    @property
    def uri(self) -> str:
        return f"file:{self.root}"

    @property
    def location(self) -> str:
        return str(self.root)

    def exists(self) -> bool:
        return self.root.is_dir()

    def _store(self, fingerprint: str) -> ResultStore:
        return ResultStore(self.root / fingerprint[:2])

    def entry_path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def save(self, fingerprint: str, results, params: dict,
             attempts=()) -> Path:
        path = self._store(fingerprint).save(fingerprint, results,
                                             params=params)
        obs.add("store.rows")
        obs.add("cache.bytes_written", path.stat().st_size)
        return path

    def load(self, fingerprint: str):
        return self._store(fingerprint).load(fingerprint)

    def delete(self, fingerprint: str) -> None:
        self._store(fingerprint).delete(fingerprint)

    def fingerprints(self) -> list[str]:
        if not self.root.exists():
            return []
        return sorted(p.stem for p in self.root.glob("??/*.json"))

    def artifact_dir(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.artifacts"

    def artifact_fingerprints(self) -> list[str]:
        if not self.root.exists():
            return []
        return sorted(p.name[:-len(".artifacts")]
                      for p in self.root.glob("??/*.artifacts")
                      if p.is_dir())

    def corrupt(self, fingerprint: str) -> None:
        from .chaos import corrupt_entry
        corrupt_entry(self.entry_path(fingerprint))

    def vacuum(self) -> None:
        """Drop shard directories emptied by deletions."""
        if not self.root.exists():
            return
        for shard in self.root.iterdir():
            if shard.is_dir() and not any(shard.iterdir()):
                shard.rmdir()


class SqlBackend(StoreBackend):
    """One-file SQLite store: a row per cell, reports compiled to SQL.

    WAL journaling with a generous busy timeout, so sweep workers
    noting artifacts and the driver inserting results coexist.  The
    payload columns (``params``/``result``/``raw``/``attempts``) hold
    the exact JSON the file layout stores, so ``load`` is lossless;
    the axis columns and ``grid_order`` are derived at save time for
    the SQL report path.
    """

    kind = "sqlite"

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._conn: sqlite3.Connection | None = None

    @property
    def uri(self) -> str:
        return f"sqlite:{self.path}"

    @property
    def location(self) -> str:
        return str(self.path)

    def exists(self) -> bool:
        return self.path.is_file()

    def entry_path(self, fingerprint: str) -> Path:
        return self.path

    # ------------------------------------------------------------------
    def connection(self) -> sqlite3.Connection:
        """The (lazily opened) database handle, schema ready.

        A path that exists but is not a SQLite result store raises
        ``ValueError`` — callers treat that like any other corrupt
        store rather than crashing with a driver-specific error.
        """
        if self._conn is not None:
            return self._conn
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=30.0)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            self._init_schema(conn)
        except sqlite3.DatabaseError as exc:
            conn.close()
            raise ValueError(
                f"{self.path} is not a sqlite result store "
                f"({type(exc).__name__}: {exc})") from None
        self._conn = conn
        return conn

    def _init_schema(self, conn: sqlite3.Connection) -> None:
        axis_cols = ", ".join(
            f'"{axis}" {"INTEGER" if kind == "int" else "TEXT"}'
            for axis, kind in JOB_AXES.items())
        conn.execute(f"""
            CREATE TABLE IF NOT EXISTS cells (
                fingerprint TEXT PRIMARY KEY,
                spec_version INTEGER NOT NULL,
                {axis_cols},
                grid_order TEXT,
                params TEXT NOT NULL,
                result TEXT NOT NULL,
                raw TEXT NOT NULL,
                attempts TEXT NOT NULL DEFAULT '[]',
                artifact TEXT
            )""")
        conn.execute("""
            CREATE TABLE IF NOT EXISTS cell_values (
                fingerprint TEXT NOT NULL,
                key TEXT NOT NULL,
                value REAL,
                repr TEXT NOT NULL,
                PRIMARY KEY (fingerprint, key)
            )""")
        conn.execute("CREATE INDEX IF NOT EXISTS cell_values_key "
                     "ON cell_values (key, fingerprint)")
        conn.execute("CREATE TABLE IF NOT EXISTS meta "
                     "(key TEXT PRIMARY KEY, value TEXT)")
        conn.execute(
            "INSERT OR IGNORE INTO meta VALUES ('store_version', ?)",
            (str(SQL_STORE_VERSION),))
        conn.execute("CREATE INDEX IF NOT EXISTS cells_grid_order "
                     "ON cells (grid_order, fingerprint)")
        conn.commit()
        stored = conn.execute(
            "SELECT value FROM meta WHERE key = 'store_version'"
        ).fetchone()[0]
        if int(stored) != SQL_STORE_VERSION:
            raise ValueError(
                f"{self.path} has store version {stored}, expected "
                f"{SQL_STORE_VERSION}")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # ------------------------------------------------------------------
    def row_values(self, fingerprint: str, results, params: dict,
                   attempts=()) -> tuple:
        """The full ``cells`` row for one entry, in column order."""
        if len(results) != 1:
            raise ValueError(
                f"SQL stores keep one result per cell, got "
                f"{len(results)} for {fingerprint[:12]}…")
        axes, order = _axis_values(params)
        axes = axes or {}
        result = result_to_dict(results[0])
        artifact = self.artifact_dir(fingerprint)
        return (fingerprint, int(params.get("spec_version", 0)),
                *(axes.get(c) for c in AXIS_COLUMNS), order,
                json.dumps(params, sort_keys=True),
                json.dumps(result, sort_keys=True),
                json.dumps(result.get("raw", {}), sort_keys=True),
                json.dumps([dataclasses.asdict(a) for a in attempts]),
                str(artifact)
                if (artifact / "manifest.json").is_file() else None)

    _INSERT = ("INSERT OR REPLACE INTO cells ("
               "fingerprint, spec_version, "
               + ", ".join(f'"{c}"' for c in AXIS_COLUMNS)
               + ", grid_order, params, result, raw, attempts, artifact"
               ") VALUES (" + ", ".join(["?"] * (len(AXIS_COLUMNS) + 8))
               + ")")

    def value_rows(self, fingerprint: str, result: dict) -> list[tuple]:
        """``cell_values`` rows for one entry: every numeric metric
        field and raw key, each carried both as a bound REAL (exact
        IEEE double — never converted through text by SQLite) and as
        Python's shortest round-trip ``repr``, which the compiled
        report path aggregates for bit-parity with the in-memory
        reports."""
        from .report import _METRIC_FIELDS

        values = {name: result.get(name) for name in _METRIC_FIELDS}
        values.update(dict(result.get("raw", {})))
        rows = []
        for key, value in values.items():
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                continue
            value = float(value)
            rows.append((fingerprint, key, value, repr(value)))
        return rows

    def save(self, fingerprint: str, results, params: dict,
             attempts=()) -> Path:
        conn = self.connection()
        row = self.row_values(fingerprint, results, params, attempts)
        conn.execute(self._INSERT, row)
        conn.execute("DELETE FROM cell_values WHERE fingerprint = ?",
                     (fingerprint,))
        conn.executemany(
            "INSERT INTO cell_values VALUES (?, ?, ?, ?)",
            self.value_rows(fingerprint,
                            result_to_dict(results[0])))
        conn.commit()
        obs.add("store.rows")
        return self.path

    def load(self, fingerprint: str):
        row = self.connection().execute(
            "SELECT result, params FROM cells WHERE fingerprint = ?",
            (fingerprint,)).fetchone()
        if row is None:
            raise FileNotFoundError(
                f"no entry {fingerprint!r} in {self.path}")
        results = [result_from_dict(json.loads(row[0]))]
        return results, dict(json.loads(row[1]))

    def load_attempts(self, fingerprint: str) -> list[dict]:
        """Stored execution provenance for one cell (``[]`` for cells
        written by the file backend or merged from one)."""
        row = self.connection().execute(
            "SELECT attempts FROM cells WHERE fingerprint = ?",
            (fingerprint,)).fetchone()
        if row is None:
            return []
        try:
            return list(json.loads(row[0]))
        except (ValueError, TypeError):
            return []

    def delete(self, fingerprint: str) -> None:
        conn = self.connection()
        conn.execute("DELETE FROM cells WHERE fingerprint = ?",
                     (fingerprint,))
        conn.execute("DELETE FROM cell_values WHERE fingerprint = ?",
                     (fingerprint,))
        conn.commit()

    def fingerprints(self) -> list[str]:
        if not self.exists():
            return []
        return [row[0] for row in self.connection().execute(
            "SELECT fingerprint FROM cells ORDER BY fingerprint")]

    # ------------------------------------------------------------------
    def artifact_root(self) -> Path:
        return self.path.with_name(self.path.name + ".artifacts")

    def artifact_dir(self, fingerprint: str) -> Path:
        return self.artifact_root() / fingerprint

    def note_artifact(self, fingerprint: str) -> None:
        conn = self.connection()
        conn.execute(
            "UPDATE cells SET artifact = ? WHERE fingerprint = ?",
            (str(self.artifact_dir(fingerprint)), fingerprint))
        conn.commit()

    def artifact_fingerprints(self) -> list[str]:
        root = self.artifact_root()
        if not root.is_dir():
            return []
        return sorted(p.name for p in root.iterdir() if p.is_dir())

    # ------------------------------------------------------------------
    def corrupt(self, fingerprint: str) -> None:
        """Chaos hook: tear the row's result payload (mirrors the file
        backend's truncated-shard fault) so reads flag it corrupt.
        The tear covers the cell's report values too, so compiled
        reports drop the cell exactly as the in-memory path skips an
        unreadable entry."""
        conn = self.connection()
        conn.execute(
            "UPDATE cells SET result = substr(result, 1, "
            "max(1, length(result) / 2)) || 'CHAOS' "
            "WHERE fingerprint = ?", (fingerprint,))
        conn.execute("DELETE FROM cell_values WHERE fingerprint = ?",
                     (fingerprint,))
        conn.commit()

    def vacuum(self) -> None:
        conn = self.connection()
        conn.commit()
        conn.execute("VACUUM")

    def spec_versions(self) -> list[int]:
        if not self.exists():
            return []
        return [row[0] for row in self.connection().execute(
            "SELECT DISTINCT spec_version FROM cells "
            "ORDER BY spec_version")]

    def sql_ready(self) -> bool:
        """Whether SQL-compiled reports are exact for this store: every
        row's axis columns parsed, and a single ``spec_version`` (mixed
        versions need the in-memory stale-duplicate collapse; ``repro
        cache compact`` restores the fast path)."""
        conn = self.connection()
        unparsed = conn.execute("SELECT COUNT(*) FROM cells "
                                "WHERE grid_order IS NULL").fetchone()[0]
        if unparsed:
            return False
        versions = conn.execute(
            "SELECT COUNT(DISTINCT spec_version) FROM cells"
        ).fetchone()[0]
        return versions <= 1


class DuckDbBackend(SqlBackend):
    """DuckDB variant of the SQL store (optional dependency).

    Available only when the ``duckdb`` package is importable; the
    schema and queries are shared with :class:`SqlBackend` through
    DuckDB's sqlite-compatible SQL surface.  The constructor fails
    with a clear error otherwise — the stdlib SQLite backend covers
    every environment.
    """

    kind = "duckdb"

    def __init__(self, path: str | Path):
        import importlib.util
        if importlib.util.find_spec("duckdb") is None:
            raise RuntimeError(
                "duckdb: store URIs need the optional 'duckdb' package, "
                "which is not installed; use sqlite:PATH (stdlib) "
                "instead")
        super().__init__(path)

    @property
    def uri(self) -> str:
        return f"duckdb:{self.path}"

    def connection(self):  # pragma: no cover - needs optional duckdb
        if self._conn is not None:
            return self._conn
        import duckdb
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = duckdb.connect(str(self.path))
        self._init_schema(conn)
        self._conn = conn
        return conn


def parse_store(store) -> StoreBackend:
    """Resolve a store address to a backend.

    Accepts a backend instance (returned as-is), a ``Path`` (file
    layout), or a string: ``file:DIR``, ``sqlite:PATH``,
    ``duckdb:PATH``, or a bare directory path (file layout, the
    historical spelling every existing call site uses).
    """
    if isinstance(store, StoreBackend):
        return store
    if isinstance(store, Path):
        return FileBackend(store)
    if not isinstance(store, str):
        raise TypeError(f"expected a store URI, path, or backend, "
                        f"got {store!r}")
    scheme, sep, rest = store.partition(":")
    if sep and scheme in ("file", "sqlite", "duckdb"):
        if not rest:
            raise ValueError(f"store URI {store!r} names no path")
        if scheme == "sqlite":
            return SqlBackend(rest)
        if scheme == "duckdb":
            return DuckDbBackend(rest)
        return FileBackend(rest)
    return FileBackend(store)
