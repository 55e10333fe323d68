"""Content-addressed artifact store for analysis pipeline stages.

Programs are addressed by content, not identity: the key of every cached
artifact starts with the SHA-256 of the program's *canonical text*
(:func:`repro.lang.printer.canonical_program`), so a program re-parsed in
another process — or next week — maps to the same artifacts.  The rest of
the key is the stage name plus the stage's option tuple (the same tuples
:class:`~repro.analysis.pipeline.AnalysisOptions` already defines for the
in-pipeline caches), so any option that influences an artifact changes its
address and stale hits are impossible by construction.

Two layers, checked in order:

1. an in-memory LRU (``memory_entries`` artifacts, shared by every pipeline
   holding the cache instance, thread-safe);
2. an optional on-disk pickle cache under ``cache_dir`` (default
   ``~/.cache/repro``, override with ``$REPRO_CACHE_DIR`` or ``--cache-dir``)
   laid out as ``v<format>/<hash[:2]>/<hash>/<stage>-<digest>.pkl``.

Disk entries are written atomically (temp file + ``os.replace``) so
concurrent writers — the process-pool executor's workers share one
directory — can never expose a torn pickle.  Reads treat the disk as
untrusted: any unpicklable, truncated, or wrong-version entry is silently
discarded (and deleted) rather than crashing the analysis; the worst case
is always "recompute".
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults
from repro.lang.ast import Program
from repro.lang.printer import canonical_program

#: Bump to invalidate every existing disk entry (artifact layout changes).
#: 2: the LP reduction layer — LPProblem carries certificate spans and
#: protected columns, StageSolution carries cut margins and reduction
#: stats, and solve keys include the reduction option.
#: 3: stacked same-shape block solves — the live partition concatenates
#: small same-shape blocks, which moves solution vertices on degenerate
#: optimal faces (bounds agree to solver tolerance, bytes differ); results
#: also carry ``restart_bound``.
#: 4: no wall-clock warm-start rule — every block re-solves warm until a
#: warm attempt fails, which moves the optimal vertex of a few degenerate
#: stages (``rdwalk_chain(2)`` at m=4 among them); the keys are unchanged,
#: so old entries would still serve the old bounds.  Context maps are keyed
#: by AST node objects, so a ``base`` bundle read back from disk finds its
#: contexts (older bundles found none).
#: 5: results hold plain Python floats, not numpy scalars, so reading one
#: back loads no numpy; a v4 result would still load numpy and print the
#: coefficients numpy rounded.
#: 6: ``lp_reduction`` stats lose ``block_merges`` and a cached
#: ``LPProblem`` loses its certificate spans; direct solves report the
#: objective at the vertex, not HiGHS's value with the ridge included.
#: 7: every reduced block is its own live model and solves at every stage
#: (no same-shape stacking, no clean-block skip): ``lp_reduction`` stats
#: lose the two stacking keys, and stage pins split the cut margin per
#: block, not per stacked group, which moves a stage optimum by one ulp
#: on some inputs (``generate_corpus(1000, seed=0)``'s fuzz00754).
CACHE_FORMAT = 7

_ENV_DIR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro`` (XDG-aware)."""
    env = os.environ.get(_ENV_DIR)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def program_key(program: Program | str) -> str:
    """SHA-256 hex digest of the program's canonical text."""
    text = program if isinstance(program, str) else canonical_program(program)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters; exposed by ``GET /cache/stats`` and in tests."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    #: Disk entries that failed to load (corrupt/truncated/wrong version)
    #: and were discarded.
    discarded: int = 0
    #: The subset of ``discarded`` whose *bytes* were bad — unpicklable or
    #: integrity-mismatched blobs, as opposed to cleanly-readable entries
    #: from an older cache format.  A nonzero value means the disk (or a
    #: writer) is actively corrupting data, not just aging out.
    corrupt_discarded: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
            "discarded": self.discarded,
            "corrupt_discarded": self.corrupt_discarded,
        }


@dataclass
class _Entry:
    """What actually goes through pickle: payload plus integrity metadata."""

    format: int
    stage: str
    key: str
    payload: object


class ArtifactCache:
    """In-memory LRU over an optional shared on-disk store.

    ``cache_dir=None`` with ``disk=True`` uses :func:`default_cache_dir`;
    ``disk=False`` keeps the cache purely in-memory (the pipeline then
    behaves like PR 1, just with a bounded shared cache).
    """

    def __init__(
        self,
        cache_dir: "str | os.PathLike | None" = None,
        *,
        disk: bool = True,
        memory_entries: int = 256,
    ) -> None:
        self.directory: Path | None = None
        if disk:
            self.directory = (
                Path(cache_dir).expanduser() if cache_dir else default_cache_dir()
            ) / f"v{CACHE_FORMAT}"
        self.memory_entries = memory_entries
        self.stats = CacheStats()
        self._memory: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.Lock()

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def artifact_key(program_hash: str, stage: str, options_key: tuple) -> str:
        digest = hashlib.sha256(
            f"{stage}|{program_hash}|{options_key!r}".encode()
        ).hexdigest()
        return f"{program_hash}/{stage}-{digest[:20]}"

    def _path(self, key: str) -> Path:
        program_hash, name = key.split("/", 1)
        assert self.directory is not None
        return self.directory / program_hash[:2] / program_hash / f"{name}.pkl"

    # -- lookup -------------------------------------------------------------

    def get(self, program_hash: str, stage: str, options_key: tuple = ()) -> object | None:
        key = self.artifact_key(program_hash, stage, options_key)
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                return self._memory[key]
        payload = self._read_disk(key, stage)
        with self._lock:
            if payload is not None:
                self.stats.disk_hits += 1
                self._remember(key, payload)
            else:
                self.stats.misses += 1
        return payload

    def put(
        self, program_hash: str, stage: str, options_key: tuple, payload: object
    ) -> None:
        key = self.artifact_key(program_hash, stage, options_key)
        # Pickle before publishing: once in memory, another thread may start
        # solving a constraint system, and its cut rows must not be pickled.
        self._write_disk(key, stage, payload)
        with self._lock:
            self.stats.writes += 1
            self._remember(key, payload)

    def _remember(self, key: str, payload: object) -> None:
        # Caller holds self._lock.
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    # -- disk layer ---------------------------------------------------------

    def _read_disk(self, key: str, stage: str) -> object | None:
        if self.directory is None:
            return None
        path = self._path(key)
        try:
            # An injected read fault degrades exactly like a real disk
            # error: the lookup becomes a miss and the stage recomputes.
            faults.check("cache.read")
            blob = path.read_bytes()
        except (faults.FaultInjected, OSError):
            return None
        blob = faults.corrupt("cache.read", blob)
        corrupt = True
        try:
            entry = pickle.loads(blob)
            corrupt = not (
                isinstance(entry, _Entry) and entry.key == key
            )
            if (
                not corrupt
                and entry.format == CACHE_FORMAT
                and entry.stage == stage
            ):
                return entry.payload
        except Exception:
            pass
        # Corrupt, truncated, or from an incompatible layout: drop it so the
        # slot is rewritten cleanly after the recompute.
        with self._lock:
            self.stats.discarded += 1
            if corrupt:
                self.stats.corrupt_discarded += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None

    def _write_disk(self, key: str, stage: str, payload: object) -> None:
        if self.directory is None:
            return
        path = self._path(key)
        entry = _Entry(format=CACHE_FORMAT, stage=stage, key=key, payload=payload)
        try:
            blob = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return  # unpicklable payload: memory-only artifact
        try:
            # Injected write faults mirror a full/read-only disk; injected
            # byte corruption is caught (and the entry discarded) by the
            # integrity checks on the next read.
            faults.check("cache.write")
        except faults.FaultInjected:
            return
        blob = faults.corrupt("cache.write", blob)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass  # read-only/full disk: cache silently degrades to memory

    # -- maintenance --------------------------------------------------------

    def entry_count(self) -> tuple[int, int]:
        """(memory entries, disk entries) — disk is a directory walk."""
        with self._lock:
            mem = len(self._memory)
        if self.directory is None or not self.directory.exists():
            return mem, 0
        disk = sum(1 for _ in self.directory.rglob("*.pkl"))
        return mem, disk

    def clear_memory(self) -> None:
        with self._lock:
            self._memory.clear()

    def describe(self) -> dict:
        mem, disk = self.entry_count()
        return {
            "directory": str(self.directory) if self.directory else None,
            "format": CACHE_FORMAT,
            "memory_entries": mem,
            "memory_capacity": self.memory_entries,
            "disk_entries": disk,
            **self.stats.snapshot(),
        }


__all__ = [
    "ArtifactCache",
    "CacheStats",
    "CACHE_FORMAT",
    "default_cache_dir",
    "program_key",
]
