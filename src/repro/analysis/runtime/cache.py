"""On-disk result caching for experiment runs.

Home of :class:`ResultCache`.  The cache digest doubles as the checkpoint journal's params-hash, which is why it
lives in the runtime package: journal and cache must agree on task
identity byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from repro.analysis.registry import ExperimentResult
from repro.networks.generators.streams import TOPOLOGY_STREAM
from repro.obs.logger import get_logger
from repro.obs.metrics import counter

_log = get_logger("analysis.runtime.cache")

__all__ = ["ResultCache", "read_entry"]

#: The cache-file field naming the topology stream a result was drawn
#: from.  It lives only in the file: the result itself never carries it.
STREAM_FIELD = "topology_stream"


def read_entry(path: str | Path) -> ExperimentResult | None:
    """The result a cache file holds, or ``None`` if the file is
    unreadable, corrupt, or was written under another topology stream
    (its seeded rounds would no longer match a fresh run's)."""
    try:
        payload = json.loads(Path(path).read_text())
        if payload[STREAM_FIELD] != TOPOLOGY_STREAM:
            return None
        return ExperimentResult.from_dict(payload)
    except (OSError, ValueError, KeyError, TypeError):
        return None


class ResultCache:
    """A directory of cached :class:`ExperimentResult` JSON files.

    Keys are ``(experiment, params)``: the file name embeds the
    experiment id plus a digest of the sorted parameter items, so
    different parameterisations never collide and the cache directory
    stays human-navigable.  Corrupt or unreadable entries are treated
    as misses, never raised, and so are entries written under another
    :data:`~repro.networks.generators.streams.TOPOLOGY_STREAM` (each
    file records the stream its seeded topologies were drawn from, so
    a change of stream invalidates every old entry at once without
    changing a key).  Hits and misses increment the
    ``cache.hits`` / ``cache.misses`` counters on the current metrics
    registry.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    @staticmethod
    def key(experiment: str, params: dict[str, Any]) -> str:
        """Digest of ``(experiment, params)`` (stable across processes).

        Raises:
            TypeError: A parameter value is not JSON-serialisable.  Such
                a value used to be hashed through its ``repr`` -- which
                for plain objects embeds the memory address, so cache
                and journal identity silently changed on every run.
                Failing loudly (naming the offending key) is the only
                stable behaviour.
        """
        try:
            blob = json.dumps(
                [experiment, sorted(params.items())], sort_keys=True
            )
        except TypeError:
            for name, value in sorted(params.items()):
                try:
                    json.dumps(value)
                except TypeError:
                    raise TypeError(
                        f"experiment {experiment!r}: parameter {name!r} "
                        f"= {value!r} ({type(value).__name__}) is not "
                        f"JSON-serialisable, so it cannot form a stable "
                        f"cache/journal identity; pass a JSON-clean "
                        f"value (numbers, strings, lists, dicts)"
                    ) from None
            raise
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def path(self, experiment: str, params: dict[str, Any]) -> Path:
        return self.root / f"{experiment}-{self.key(experiment, params)}.json"

    def load(
        self, experiment: str, params: dict[str, Any]
    ) -> ExperimentResult | None:
        """The cached result, or ``None`` on a miss."""
        path = self.path(experiment, params)
        result = read_entry(path)
        if result is None:
            counter("cache.misses")
            return None
        counter("cache.hits")
        _log.debug(
            "cache hit", extra={"experiment": experiment, "path": str(path)}
        )
        # Idempotent: a result stored after being loaded (or loaded
        # repeatedly) must not accumulate duplicate hit notes.
        note = f"cache: hit ({path.name})"
        if note not in result.notes:
            result.notes.append(note)
        return result

    def store(
        self, result: ExperimentResult, params: dict[str, Any]
    ) -> Path:
        """Persist ``result`` under its ``(experiment, params)`` key,
        tagged with the current topology stream."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(result.experiment, params)
        payload = {**result.to_dict(), STREAM_FIELD: TOPOLOGY_STREAM}
        path.write_text(json.dumps(payload, indent=1) + "\n")
        return path
