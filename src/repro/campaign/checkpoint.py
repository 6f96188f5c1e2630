"""The run directory: incremental, crash-safe campaign checkpoints.

A campaign run owns one directory with a fixed layout (documented for
users in ``docs/CAMPAIGNS.md``)::

    <run_dir>/
        manifest.json        grid + provenance, written once at start
        shards/<id>.json     one file per finished shard (raw points)
        status.json          live progress snapshot, rewritten as we go
        result.json          final assembled campaign (save_campaign format)

Every write goes through :func:`repro.analysis.persistence.
atomic_write_text`, so a crash at any instant leaves either the previous
version of a file or a complete new one — never a torn file.  A shard
checkpoint stores the *raw* :class:`~repro.analysis.schedulability.
SchedulabilityPoint` fields rather than aggregated statistics: JSON
round-trips Python floats exactly, so re-aggregating restored points
with the historical row code yields campaign rows byte-identical to an
uninterrupted run — the engine's resume guarantee reduces to "same
points in, same rows out".

The store itself is deterministic machinery: it never reads a clock —
timestamps in the manifest and status are data supplied by the caller
(the runner, which is staticcheck R002's one clock-exempt campaign
module).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Union

from ..analysis.persistence import atomic_write_text
from ..analysis.schedulability import SchedulabilityPoint
from .spec import CampaignGrid, GridLike, ShardSpec

__all__ = ["CheckpointStore", "RunDirError",
           "point_to_dict", "point_from_dict"]

#: Format tags, checked on every read so stale or foreign directories
#: fail loudly instead of merging garbage into a resumed run.
MANIFEST_FORMAT = "repro-campaign-run-v1"
SHARD_FORMAT = "repro-campaign-shard-v1"

_POINT_FIELDS = ("n_tasks", "utilization", "m_pd2", "m_ff",
                 "inflated_u_pd2", "inflated_u_edf", "pd2_iterations_max")


class RunDirError(ValueError):
    """A run directory is missing, foreign, or inconsistent with the
    requested campaign (wrong format tag, mismatched grid on resume)."""


def point_to_dict(point: SchedulabilityPoint) -> Dict[str, Any]:
    """The point's stored fields (loss metrics are derived properties and
    are recomputed, not persisted)."""
    return {f: getattr(point, f) for f in _POINT_FIELDS}


def point_from_dict(data: Dict[str, Any]) -> SchedulabilityPoint:
    """Rebuild a point from its checkpoint form — exact, because JSON
    round-trips ints and IEEE-754 doubles losslessly."""
    return SchedulabilityPoint(**{f: data[f] for f in _POINT_FIELDS})


class CheckpointStore:
    """Reader/writer for one campaign run directory.

    Single-writer by design: exactly one runner owns a run directory at
    a time (the CLI enforces nothing — two concurrent runners on the
    same directory would interleave status writes, though shard files
    would still land atomically).  Readers (``repro campaign status``)
    may poll concurrently from other processes; atomicity of
    ``os.replace`` guarantees they always see complete JSON.
    """

    MANIFEST = "manifest.json"
    SHARD_DIR = "shards"
    STATUS = "status.json"
    RESULT = "result.json"

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)

    # -- manifest -----------------------------------------------------

    def initialize(self, grid: GridLike, *,
                   model_fingerprint: Optional[str],
                   created: str, note: str = "") -> None:
        """Create the run directory and write its manifest.

        Refuses a directory that already holds a *different* campaign;
        re-initialising with an identical grid is a no-op (the resume
        path), so interrupted runs can be reopened with the same call.
        """
        self.run_dir.mkdir(parents=True, exist_ok=True)
        (self.run_dir / self.SHARD_DIR).mkdir(exist_ok=True)
        manifest_path = self.run_dir / self.MANIFEST
        if manifest_path.exists():
            existing = self.load_manifest()
            if existing["grid"] != grid.to_dict():
                raise RunDirError(
                    f"{self.run_dir}: manifest holds a different campaign "
                    f"grid; refusing to mix runs (use a fresh directory)")
            if existing.get("model") != model_fingerprint:
                raise RunDirError(
                    f"{self.run_dir}: manifest was written with a different "
                    f"overhead model; results would not be comparable")
            return
        manifest = {
            "format": MANIFEST_FORMAT,
            "grid": grid.to_dict(),
            "model": model_fingerprint,
            "created": created,
            "note": note,
        }
        # Canonical bytes: sort_keys so the on-disk form is a function
        # of the *content*, not of dict insertion order surviving
        # refactors.  Format compatibility: json.loads never cared
        # about key order, so v1 readers accept the sorted form and
        # pre-sort files remain loadable — only byte-compares of files
        # written by different code versions are affected, and those
        # were never promised.  (Same note covers write_shard and
        # write_status below.)
        atomic_write_text(manifest_path,
                          json.dumps(manifest, indent=2,
                                     sort_keys=True) + "\n")

    def load_manifest(self) -> Dict[str, Any]:
        """The manifest dict; raises :class:`RunDirError` when absent or
        not a campaign run directory."""
        path = self.run_dir / self.MANIFEST
        if not path.exists():
            raise RunDirError(f"{self.run_dir}: no {self.MANIFEST} — not a "
                              f"campaign run directory")
        data = json.loads(path.read_text())
        if not isinstance(data, dict) or data.get("format") != MANIFEST_FORMAT:
            raise RunDirError(f"{path}: not a {MANIFEST_FORMAT} manifest")
        return data

    def load_grid(self) -> CampaignGrid:
        """The synthetic campaign grid recorded in the manifest.

        Trace-replay manifests (grid dicts carrying a ``"kind"`` tag)
        are not plain :class:`CampaignGrid`\\ s — resuming one needs the
        trace file back, which only the trace-aware CLI path can
        supply, so this raises :class:`RunDirError` with that hint
        instead of mis-parsing the dict.
        """
        grid = self.load_manifest()["grid"]
        if isinstance(grid, dict) and "kind" in grid:
            raise RunDirError(
                f"{self.run_dir}: manifest holds a {grid['kind']!r} "
                f"campaign, not a synthetic grid — resume it with "
                f"--trace PATH so the trace payloads can be rebuilt")
        return CampaignGrid.from_dict(grid)

    # -- shards -------------------------------------------------------

    def _shard_path(self, shard_id: str) -> Path:
        return self.run_dir / self.SHARD_DIR / f"{shard_id}.json"

    def _load_shard(self, shard_id: str) -> Dict[str, Any]:
        """The decoded checkpoint of ``shard_id``.

        Raises :class:`RunDirError` unless the file is JSON carrying the
        :data:`SHARD_FORMAT` tag and a shard spec recording ``shard_id``;
        a missing file raises ``OSError``.
        """
        path = self._shard_path(shard_id)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise RunDirError(f"{path}: not JSON ({exc})") from exc
        shard = data.get("shard") if isinstance(data, dict) else None
        if not isinstance(data, dict) or data.get("format") != SHARD_FORMAT \
                or not isinstance(shard, dict) \
                or shard.get("shard_id") != shard_id:
            raise RunDirError(f"{path}: not a {SHARD_FORMAT} checkpoint "
                              f"of shard {shard_id}")
        return data

    def completed_shards(self) -> Set[str]:
        """Ids of shards with a complete, well-formed checkpoint file.

        Malformed files (e.g. from a foreign process) are ignored rather
        than trusted — the runner will simply re-run those shards.
        ``.tmp`` spool files never appear here because
        :func:`atomic_write_text` renames only complete writes into place.
        """
        shard_dir = self.run_dir / self.SHARD_DIR
        if not shard_dir.is_dir():
            return set()
        done: Set[str] = set()
        for path in shard_dir.glob("*.json"):
            try:
                self._load_shard(path.stem)
            except (OSError, RunDirError):
                continue
            done.add(path.stem)
        return done

    def write_shard(self, spec: ShardSpec,
                    points: Sequence[SchedulabilityPoint], *,
                    attempts: int, elapsed_seconds: float,
                    worker: Optional[str] = None) -> None:
        """Spool one finished shard atomically into the run directory.

        ``attempts``, ``elapsed_seconds``, and ``worker`` (the node that
        produced the points, for distributed runs) are provenance only —
        they record how and where the shard was produced, and are
        excluded from the determinism contract (a resumed run may
        legitimately differ there while the ``points`` stay identical).
        """
        payload: Dict[str, Any] = {
            "format": SHARD_FORMAT,
            "shard": spec.to_dict(),
            "attempts": attempts,
            "elapsed_seconds": elapsed_seconds,
        }
        if worker is not None:
            payload["worker"] = worker
        payload["points"] = [point_to_dict(p) for p in points]
        atomic_write_text(self._shard_path(spec.shard_id),
                          json.dumps(payload, sort_keys=True,
                                     separators=(",", ":")) + "\n")

    def read_shard_meta(self, shard_id: str) -> Dict[str, Any]:
        """A shard checkpoint's provenance fields (``attempts``,
        ``elapsed_seconds``, optional ``worker``) without the points —
        what ``repro campaign status --shards`` renders."""
        data = self._load_shard(shard_id)
        return {k: data[k] for k in ("attempts", "elapsed_seconds", "worker")
                if k in data}

    def read_shard(self, shard_id: str) -> List[SchedulabilityPoint]:
        """Restore a shard's evaluated points, verifying the format tag."""
        return [point_from_dict(pd)
                for pd in self._load_shard(shard_id)["points"]]

    def read_shard_spec(self, shard_id: str) -> ShardSpec:
        """The :class:`ShardSpec` recorded in a shard checkpoint."""
        return ShardSpec.from_dict(self._load_shard(shard_id)["shard"])

    # -- status and result --------------------------------------------

    def write_status(self, status: Dict[str, Any]) -> None:
        """Rewrite the live progress snapshot (see
        :meth:`repro.campaign.progress.ProgressTracker.snapshot`)."""
        atomic_write_text(self.run_dir / self.STATUS,
                          json.dumps(status, indent=2,
                                     sort_keys=True) + "\n")

    def read_status(self) -> Optional[Dict[str, Any]]:
        """The last status snapshot, or ``None`` before the first write."""
        path = self.run_dir / self.STATUS
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def result_path(self) -> Path:
        """Where the final assembled campaign lands (``result.json``)."""
        return self.run_dir / self.RESULT
