"""A Git-model repository (the Table VI/VII comparison system).

Models the parts of Git's object store the paper discusses in
Section VI:

* loose objects: every committed file version is a zlib-compressed,
  content-addressed blob;
* ``git repack``: "In order to build an efficient delta tree, Git
  considers a variety of file characteristics, such as file size and
  type ... It then sorts files by similarity, and differences each file
  with several of its nearest neighbors to try to find the optimal
  match."  The repack pass sorts blobs by (path, size descending),
  slides a ``window`` over the sorted list, delta-encodes each object
  against the windowed candidates keeping the best result, bounds chain
  depth, and writes a single pack file (consecutive deltas co-located,
  which is Git's read-locality trick the paper also mentions);
* a memory budget: repack keeps the window's blobs plus the candidate
  in memory.  With 1 GB arrays and a 10-object default window this is
  what made "Git run out of memory on our test machine" in Table VI —
  reproduced via ``memory_limit_bytes``.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path

from repro.baselines.base import BaselineVCS
from repro.baselines.xdelta import xdelta_decode, xdelta_encode
from repro.core.errors import StorageError


class GitOutOfMemoryError(MemoryError):
    """Raised when repack exceeds the configured memory budget."""


class GitLikeRepository(BaselineVCS):
    """Content-addressed object store with similarity-window packing."""

    def __init__(self, root: str | Path, *,
                 window: int = 10,
                 max_chain_depth: int = 50,
                 memory_limit_bytes: int | None = None):
        super().__init__(root)
        self.window = window
        self.max_chain_depth = max_chain_depth
        self.memory_limit_bytes = memory_limit_bytes
        #: name -> list of object ids, one per revision.
        self._history: dict[str, list[str]] = {}
        self._packed: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # Commits (loose objects)
    # ------------------------------------------------------------------
    def commit(self, files: dict[str, bytes]) -> int:
        revision = 0
        for name, contents in files.items():
            object_id = hashlib.sha1(
                b"blob %d\0" % len(contents) + contents).hexdigest()
            history = self._history.setdefault(name, [])
            history.append(object_id)
            revision = len(history)
            path = self._loose_path(object_id)
            if not path.exists():
                path.parent.mkdir(parents=True, exist_ok=True)
                payload = zlib.compress(contents, 6)
                path.write_bytes(payload)
                self.stats.add(chunks_written=1, bytes_written=len(payload))
        return revision

    def read(self, name: str, revision: int) -> bytes:
        history = self._history.get(name, [])
        if revision < 1 or revision > len(history):
            raise StorageError(f"{name!r} has no revision {revision}")
        return self._read_object(history[revision - 1])

    # ------------------------------------------------------------------
    # git repack
    # ------------------------------------------------------------------
    def pack(self) -> None:
        # Gather every loose object with its path hint and size.
        entries = []
        seen: set[str] = set()
        for name, history in self._history.items():
            for object_id in history:
                if object_id in seen:
                    continue
                seen.add(object_id)
                contents = self._read_object(object_id)
                entries.append((name, len(contents), object_id, contents))

        if self.memory_limit_bytes is not None:
            window_entries = sorted(
                (size for _, size, _, _ in entries), reverse=True)
            peak = sum(window_entries[:self.window + 1])
            if peak > self.memory_limit_bytes:
                raise GitOutOfMemoryError(
                    f"repack window needs ~{peak} bytes, limit is "
                    f"{self.memory_limit_bytes}")

        # Git's similarity sort: path, then size descending.
        entries.sort(key=lambda entry: (entry[0], -entry[1]))

        index: dict[str, dict] = {}
        depth: dict[str, int] = {}
        pack_path = self.root / "objects.pack"
        with open(pack_path, "wb") as pack:
            recent: list[tuple[str, bytes]] = []
            for name, size, object_id, contents in entries:
                best_payload = zlib.compress(contents, 6)
                best_base: str | None = None
                for base_id, base_contents in recent:
                    if depth.get(base_id, 0) + 1 > self.max_chain_depth:
                        continue
                    delta = zlib.compress(
                        xdelta_encode(contents, base_contents), 6)
                    if len(delta) < len(best_payload):
                        best_payload = delta
                        best_base = base_id
                offset = pack.tell()
                pack.write(best_payload)
                self.stats.add(chunks_written=1,
                               bytes_written=len(best_payload))
                index[object_id] = {
                    "offset": offset,
                    "length": len(best_payload),
                    "base": best_base,
                }
                depth[object_id] = 0 if best_base is None else \
                    depth[best_base] + 1
                recent.append((object_id, contents))
                if len(recent) > self.window:
                    recent.pop(0)
        (self.root / "objects.pack.idx").write_text(json.dumps(index))
        self._packed = index
        # Loose objects are superseded by the pack.
        for _, _, object_id, _ in entries:
            loose = self._loose_path(object_id)
            if loose.exists():
                loose.unlink()

    # ------------------------------------------------------------------
    def _loose_path(self, object_id: str) -> Path:
        return self.root / "objects" / object_id[:2] / object_id[2:]

    def _read_object(self, object_id: str) -> bytes:
        if self._packed and object_id in self._packed:
            entry = self._packed[object_id]
            with open(self.root / "objects.pack", "rb") as pack:
                pack.seek(entry["offset"])
                payload = pack.read(entry["length"])
            self.stats.add(chunks_read=1, bytes_read=len(payload))
            raw = zlib.decompress(payload)
            if entry["base"] is None:
                return raw
            return xdelta_decode(raw, self._read_object(entry["base"]))
        path = self._loose_path(object_id)
        if not path.exists():
            raise StorageError(f"missing object {object_id}")
        payload = path.read_bytes()
        self.stats.add(chunks_read=1, bytes_read=len(payload))
        return zlib.decompress(payload)
