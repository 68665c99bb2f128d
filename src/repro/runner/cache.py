"""Content-addressed memoization of simulation results.

:class:`ResultCache` maps a :class:`~repro.runner.job.SimJob` digest to
its :class:`~repro.results.SimResult`.  The in-memory layer is always
active; pass ``cache_dir`` to additionally persist results across
processes using the lossless state round-trip in
:mod:`repro.serialization`.

Disk layout (one JSON file per result, sharded on the first two digest
hex characters to keep directories small)::

    <cache_dir>/<v>/<ab>/<digest>.json

where ``<v>`` is the serialization schema version, so bumping
``RESULT_STATE_VERSION`` orphans stale entries instead of mis-reading
them.  Wiping a stale cache is therefore just ``rm -rf <cache_dir>``.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Union

from repro.results import SimResult
from repro.serialization import (
    RESULT_STATE_VERSION,
    result_from_state,
    result_to_state,
)

#: Environment override for the default on-disk location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


class ResultCache:
    """Two-layer (memory, optional disk) result memoizer."""

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None) -> None:
        self._memory: Dict[str, SimResult] = {}
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        # instrumentation (reported by the experiments CLI / benchmarks)
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------
    @property
    def persistent(self) -> bool:
        return self.cache_dir is not None

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, digest: str) -> bool:
        return digest in self._memory or self._path(digest).is_file()

    def _path(self, digest: str) -> Path:
        if self.cache_dir is None:
            return Path(os.devnull)
        return (
            self.cache_dir
            / f"v{RESULT_STATE_VERSION}"
            / digest[:2]
            / f"{digest}.json"
        )

    # ------------------------------------------------------------------
    def get(self, digest: str) -> Optional[SimResult]:
        """Look up a result; promotes disk hits into the memory layer."""
        result = self._memory.get(digest)
        if result is not None:
            self.memory_hits += 1
            return result
        if self.cache_dir is not None:
            path = self._path(digest)
            try:
                state = json.loads(path.read_text())
                result = result_from_state(state)
            except FileNotFoundError:
                pass
            except (ValueError, KeyError, TypeError, OSError):
                # Corrupt or stale entry: drop it and re-simulate.
                try:
                    path.unlink()
                except OSError:
                    pass
            else:
                self._memory[digest] = result
                self.disk_hits += 1
                return result
        self.misses += 1
        return None

    def put(self, digest: str, result: SimResult) -> None:
        """Store a result in memory and (if configured) on disk."""
        self._memory[digest] = result
        self.stores += 1
        if self.cache_dir is None:
            return
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(result_to_state(result), separators=(",", ":"))
        # Atomic write so a crashed run never leaves a truncated entry.
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # ------------------------------------------------------------------
    def clear_memory(self) -> None:
        self._memory.clear()

    def drop_memory(self, digest: str) -> None:
        """Evict one entry from the memory layer.

        Streaming folds (:meth:`repro.runner.ParallelRunner.run_fold`)
        call this right after consuming a result so fleet-scale batches
        never accumulate per-shard detail in memory; with a disk layer
        configured the entry stays warm on disk.
        """
        self._memory.pop(digest, None)

    def stats(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
        }

    def describe(self, stats: Dict[str, int]) -> str:
        """Render ``stats`` — a :meth:`stats` dict, or the difference of
        two — with this cache's location."""
        where = str(self.cache_dir) if self.persistent else "memory only"
        return (
            f"cache[{where}]: {stats['memory_hits']} memory hits, "
            f"{stats['disk_hits']} disk hits, {stats['misses']} misses"
        )
