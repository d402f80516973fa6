"""An SVN-model repository (the Table VI/VII comparison system).

Models the aspects of Subversion that drive the paper's measurements:

* per-file revision storage: each committed revision of each file is a
  separate rev container, delta-encoded (xdelta-style, as FSFS does)
  against the file's previous revision, with periodic full texts
  (skip-delta anchors) bounding reconstruction chains;
* *no array awareness*: a matrix is an opaque byte string, so deltas
  cannot exploit cell structure and subselects reconstruct entire files;
* a large-file cutoff: revisions of files above ``max_delta_bytes`` are
  stored as full texts.  This models the behaviour behind Table VI,
  where SVN achieved *no* compression on the 1 GB OSM arrays (16 GB for
  16 revisions) while compressing the small NOAA matrices ~2.3x in
  Table VII.  Benchmarks scale this cutoff together with the scaled
  array sizes (see EXPERIMENTS.md);
* :meth:`pack` — ``svnadmin pack``: coalesces per-revision files into
  pack files (fewer inodes, same bytes), as the paper ran before
  measuring.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.baselines.base import BaselineVCS
from repro.baselines.xdelta import xdelta_decode, xdelta_encode
from repro.core.errors import StorageError


class SvnLikeRepository(BaselineVCS):
    """File-per-revision store with backward-bounded delta chains."""

    def __init__(self, root: str | Path, *,
                 fulltext_interval: int = 16,
                 max_delta_bytes: int | None = None):
        super().__init__(root)
        self.fulltext_interval = fulltext_interval
        self.max_delta_bytes = max_delta_bytes
        self._revisions: dict[str, int] = {}
        self._packed = False

    # ------------------------------------------------------------------
    def commit(self, files: dict[str, bytes]) -> int:
        revision = 0
        for name, contents in files.items():
            revision = self._revisions.get(name, 0) + 1
            self._revisions[name] = revision
            path = self._rev_path(name, revision)
            path.parent.mkdir(parents=True, exist_ok=True)

            too_large = (self.max_delta_bytes is not None
                         and len(contents) > self.max_delta_bytes)
            anchor = (revision - 1) % self.fulltext_interval == 0
            if revision == 1 or anchor:
                payload = b"F" + contents
            else:
                # SVN always runs its deltification pass; on files past
                # the cutoff the result is discarded and the revision
                # stored fulltext — the work is paid either way, which
                # is what made the paper's SVN import so slow.
                base = self.read(name, revision - 1)
                delta = xdelta_encode(contents, base)
                if too_large or len(delta) + 1 >= len(contents):
                    payload = b"F" + contents
                else:
                    payload = b"D" + delta
            path.write_bytes(payload)
            self.stats.add(chunks_written=1, bytes_written=len(payload))
        return revision

    def read(self, name: str, revision: int) -> bytes:
        if revision < 1 or revision > self._revisions.get(name, 0):
            raise StorageError(
                f"{name!r} has no revision {revision}")
        payload = self._read_rev(name, revision)
        if payload[:1] == b"F":
            return payload[1:]
        base = self.read(name, revision - 1)
        return xdelta_decode(payload[1:], base)

    def pack(self) -> None:
        """``svnadmin pack``: concatenate rev files into one pack/file."""
        for name, latest in self._revisions.items():
            pack_path = self.root / f"{name}.pack"
            index = {}
            with open(pack_path, "wb") as pack:
                for revision in range(1, latest + 1):
                    payload = self._read_rev(name, revision)
                    index[str(revision)] = (pack.tell(), len(payload))
                    pack.write(payload)
            (self.root / f"{name}.pack.idx").write_text(json.dumps(index))
            for revision in range(1, latest + 1):
                self._rev_path(name, revision).unlink()
        self._packed = True

    # ------------------------------------------------------------------
    def _rev_path(self, name: str, revision: int) -> Path:
        return self.root / name / f"r{revision:06d}"

    def _read_rev(self, name: str, revision: int) -> bytes:
        if self._packed:
            index = json.loads(
                (self.root / f"{name}.pack.idx").read_text())
            offset, length = index[str(revision)]
            with open(self.root / f"{name}.pack", "rb") as pack:
                pack.seek(offset)
                payload = pack.read(length)
        else:
            payload = self._rev_path(name, revision).read_bytes()
        self.stats.add(chunks_read=1, bytes_read=len(payload))
        return payload
