"""Figure-level resume manifests for interrupted sweeps.

The cell cache (:mod:`repro.store.cells`) already makes a restarted sweep
cheap — every completed cell is a hit.  The orchestrator adds the layer
above: it records, per (figure, scale, seed), the path and sha256 of the
CSV a finished figure produced, so ``repro-experiments run --resume`` can
skip completed figures entirely and only re-enter the generator for the
missing ones.  A manifest is only trusted when the recorded file still
exists *and* its checksum still matches — a truncated or hand-edited CSV
re-runs the figure rather than being silently believed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Optional

from repro.store.cache import ResultStore
from repro.store.fingerprint import ENGINE_VERSION, fingerprint, seed_token
from repro.utils.rng import SeedLike

__all__ = ["MANIFEST_SCHEMA", "SweepOrchestrator", "file_sha256"]

#: Schema tag inside every figure manifest; bump on key-shape changes.
MANIFEST_SCHEMA = "repro.store.sweep/1"


def file_sha256(path: str) -> str:
    """sha256 hex digest of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class SweepOrchestrator:
    """Track which figures of a sweep already produced their CSV.

    One orchestrator serves one ``(scale, seed)`` configuration; each
    figure's manifest lives at ``<store root>/manifests/<fp>.json`` where
    ``fp`` fingerprints (schema, engine version, figure id, scale, seed).
    Seeds that cannot be tokenized (fresh entropy, live generators) make
    :attr:`resumable` false and every query a miss — the sweep still runs,
    it just cannot be resumed.
    """

    def __init__(self, store: ResultStore, *, scale: str, seed: SeedLike) -> None:
        self.store = store
        self.scale = str(scale)
        self._seed_tok = seed_token(seed)
        os.makedirs(self._manifests_dir(), exist_ok=True)

    def _manifests_dir(self) -> str:
        return os.path.join(self.store.root, "manifests")

    @property
    def resumable(self) -> bool:
        """Whether this sweep's configuration can be identified across runs."""
        return self._seed_tok is not None

    def figure_key(self, figure_id: str) -> Optional[Dict[str, Any]]:
        """The manifest key for *figure_id*, or ``None`` when unresumable."""
        if self._seed_tok is None:
            return None
        return {
            "schema": MANIFEST_SCHEMA,
            "engine": ENGINE_VERSION,
            "figure": str(figure_id),
            "scale": self.scale,
            "seed": self._seed_tok,
        }

    def _manifest_path(self, figure_id: str) -> Optional[str]:
        key = self.figure_key(figure_id)
        if key is None:
            return None
        return os.path.join(self._manifests_dir(), f"{fingerprint(key)}.json")

    def completed_csv(self, figure_id: str, csv_path: str) -> bool:
        """True iff *figure_id* already produced exactly the file *csv_path*.

        Checks that a manifest exists for this (figure, scale, seed), that
        it points at the same path, and that the file's bytes still hash to
        the recorded digest.  Any mismatch — including a missing or edited
        CSV — returns False so the caller regenerates.
        """
        path = self._manifest_path(figure_id)
        if path is None:
            return False
        try:
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError):
            return False
        if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_SCHEMA:
            return False
        recorded = manifest.get("csv_path")
        digest = manifest.get("csv_sha256")
        if not isinstance(recorded, str) or not isinstance(digest, str):
            return False
        if os.path.abspath(recorded) != os.path.abspath(csv_path):
            return False
        try:
            return file_sha256(csv_path) == digest
        except OSError:
            return False

    def mark_done(self, figure_id: str, csv_path: str) -> Optional[str]:
        """Record that *figure_id* produced *csv_path*; returns the manifest path.

        A no-op returning ``None`` when the sweep is unresumable.  The
        manifest write is atomic and serialized on the store's lock, so
        concurrent sweeps sharing one cache never interleave halves.
        """
        path = self._manifest_path(figure_id)
        if path is None:
            return None
        key = self.figure_key(figure_id)
        manifest = {
            "format": MANIFEST_SCHEMA,
            "figure": str(figure_id),
            "key": key,
            "csv_path": os.path.abspath(csv_path),
            "csv_sha256": file_sha256(csv_path),
        }
        text = json.dumps(manifest, sort_keys=True, indent=2)
        with self.store.lock():
            fd, tmp = tempfile.mkstemp(dir=self._manifests_dir(), suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(text)
                    fh.write("\n")
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        return path
