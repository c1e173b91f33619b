"""Content-addressed persistence for experiment runs.

Layout (everything JSON, everything human-inspectable)::

    <root>/
    ├── index.json            digest -> {name, workload, scheme, created_at}
    └── runs/
        └── <sha256>.json     one envelope per stored run

A run's address (:class:`RunKey`) is the SHA-256 of the canonical JSON
of ``(store schema version, scenario canonical key, SystemConfig
digest)`` — fully determined by *what would be simulated*, never by when
or where it ran.  Re-running the same scenario under the same config is
therefore a store hit; changing any config field (or bumping
:data:`SCHEMA_VERSION`) changes the address and never aliases old
results.

Durability rules:

- **Atomic writes** — artifacts land via write-temp-then-``os.replace``,
  so readers (and a killed writer's next invocation) only ever see
  whole files.
- **Corruption detection** — every envelope carries a checksum over its
  canonical payload plus its own digest; truncation, bit flips, renamed
  files, and payload/key mismatches all raise
  :class:`StoreCorruptionError` at read time.
- **Schema refusal** — an envelope written by a different store schema
  raises :class:`SchemaMismatchError` instead of being silently
  misread.
- **Index is a cache** — ``runs/`` is the source of truth;
  ``index.json`` only accelerates listings.  Concurrent writers may
  race its read-modify-write, but :meth:`RunStore.get` and
  :meth:`RunStore.digests` never consult it, and :meth:`RunStore.reindex`
  rebuilds it from the files.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Union

import repro
from repro.store.artifact import RunArtifact, _canonical

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemConfig
    from repro.scenario.spec import ScenarioSpec

__all__ = [
    "SCHEMA_VERSION",
    "RunKey",
    "RunStore",
    "StoreError",
    "StoreCorruptionError",
    "SchemaMismatchError",
    "StoreMissError",
    "provenance",
]

#: Bump when the artifact payload layout changes incompatibly; old
#: artifacts then stop matching new keys and explicit reads are refused.
SCHEMA_VERSION = 1


class StoreError(Exception):
    """Base class for run-store failures."""


class StoreMissError(StoreError, KeyError):
    """The requested key/digest is not in the store."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return Exception.__str__(self)


class StoreCorruptionError(StoreError):
    """A stored artifact is truncated, altered, or internally inconsistent."""


class SchemaMismatchError(StoreError):
    """A stored artifact was written under a different store schema."""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=1)
def _git_commit() -> Optional[str]:
    """The current git commit hash, or ``None`` outside a work tree.

    Memoized: the answer cannot change within one process, and
    provenance is stamped once per stored artifact — a 200-scenario
    campaign must not pay 200 subprocess spawns for it.
    """
    for cwd in (Path.cwd(), Path(__file__).resolve().parents[3]):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=cwd,
                capture_output=True,
                text=True,
                timeout=5,
            )
        except (OSError, subprocess.SubprocessError):
            continue
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    return None


def provenance() -> dict[str, Optional[str]]:
    """Who/what produced an artifact: repro version, git commit, time."""
    return {
        "repro_version": repro.__version__,
        "git_commit": _git_commit(),
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


@dataclass(frozen=True)
class RunKey:
    """The content address of one stored run.

    Attributes:
        spec_key: Canonical JSON of the scenario spec dict
            (:meth:`ScenarioSpec.key`).
        config_digest: SHA-256 of the canonical JSON of the exact
            :class:`~repro.config.SystemConfig` dict the run used.
        schema_version: Store schema the artifact is written under.
    """

    spec_key: str
    config_digest: str
    schema_version: int = SCHEMA_VERSION

    @property
    def digest(self) -> str:
        """The SHA-256 hex address (``runs/<digest>.json``)."""
        return _sha256(
            _canonical(
                {
                    "schema_version": self.schema_version,
                    "spec_key": self.spec_key,
                    "config_digest": self.config_digest,
                }
            )
        )

    @classmethod
    def from_payload(cls, spec: dict[str, Any], config: dict[str, Any]) -> "RunKey":
        """The key of an artifact payload's ``spec``/``config`` dicts."""
        return cls(
            spec_key=_canonical(spec),
            config_digest=_sha256(_canonical(config)),
        )

    @classmethod
    def for_spec(
        cls, spec: "ScenarioSpec", config: Optional["SystemConfig"] = None
    ) -> "RunKey":
        """The key a :class:`~repro.scenario.ScenarioSpec` run stores under.

        Args:
            spec: The scenario (sweeps must be expanded first — a sweep
                spec never runs, so it has no run key).
            config: The :class:`~repro.config.SystemConfig` actually
                driving the run when it differs from the spec's own
                ``base`` + ``system`` (an injected quick or seed config,
                as ``spec.run(config=...)`` takes); defaults to
                ``spec.to_config()``.
        """
        cfg = config if config is not None else spec.to_config()
        return cls.from_payload(spec.to_dict(), dataclasses.asdict(cfg))

    @classmethod
    def for_artifact(cls, artifact: RunArtifact) -> "RunKey":
        """The key a stored artifact addresses to (recomputed, not read)."""
        return cls.from_payload(artifact.spec, artifact.config)


class RunStore:
    """On-disk, content-addressed store of :class:`RunArtifact` documents."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.runs_dir = self.root / "runs"
        self.index_path = self.root / "index.json"
        self.runs_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    @staticmethod
    def _digest_of(key: Union[RunKey, str]) -> str:
        return key.digest if isinstance(key, RunKey) else str(key)

    def path_for(self, key: Union[RunKey, str]) -> Path:
        """The artifact file a key/digest addresses."""
        return self.runs_dir / f"{self._digest_of(key)}.json"

    def contains(self, key: Union[RunKey, str]) -> bool:
        """Whether an artifact file exists for this key/digest."""
        return self.path_for(key).is_file()

    def digests(self) -> list[str]:
        """Every stored digest, sorted (scans ``runs/`` — never the index)."""
        return sorted(p.stem for p in self.runs_dir.glob("*.json"))

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, key: Union[RunKey, str]) -> RunArtifact:
        """Load and verify one stored artifact.

        Raises:
            StoreMissError: No artifact for this key/digest.
            SchemaMismatchError: Written under a different store schema.
            StoreCorruptionError: Truncated/altered/mismatched content.
        """
        digest = self._digest_of(key)
        path = self.path_for(digest)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise StoreMissError(f"no stored run {digest}") from None
        try:
            envelope = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise StoreCorruptionError(
                f"{path.name}: invalid JSON (truncated write?): {exc}"
            ) from None
        if not isinstance(envelope, dict) or not {
            "schema_version",
            "digest",
            "checksum",
            "payload",
        } <= set(envelope):
            raise StoreCorruptionError(f"{path.name}: not a run-store envelope")
        if envelope["schema_version"] != SCHEMA_VERSION:
            raise SchemaMismatchError(
                f"{path.name}: written under store schema "
                f"{envelope['schema_version']!r}, this build reads "
                f"{SCHEMA_VERSION} — refusing to reinterpret it"
            )
        payload = envelope["payload"]
        if envelope["checksum"] != _sha256(_canonical(payload)):
            raise StoreCorruptionError(
                f"{path.name}: checksum mismatch (content altered on disk)"
            )
        if envelope["digest"] != digest:
            raise StoreCorruptionError(
                f"{path.name}: envelope addresses {envelope['digest'][:12]}… "
                f"but was read as {digest[:12]}… (file renamed?)"
            )
        try:
            artifact = RunArtifact.from_dict(payload)
        except ValueError as exc:
            raise StoreCorruptionError(f"{path.name}: {exc}") from None
        if RunKey.for_artifact(artifact).digest != digest:
            raise StoreCorruptionError(
                f"{path.name}: payload does not hash to its own address"
            )
        return artifact

    def load_all(self, on_error: str = "raise") -> dict[str, RunArtifact]:
        """Every stored artifact by digest.

        Args:
            on_error: ``"raise"`` propagates the first corrupt file;
                ``"skip"`` silently drops unreadable artifacts (campaign
                status enumerates them separately).
        """
        if on_error not in ("raise", "skip"):
            raise ValueError("on_error must be 'raise' or 'skip'")
        out: dict[str, RunArtifact] = {}
        for digest in self.digests():
            try:
                out[digest] = self.get(digest)
            except StoreError:
                if on_error == "raise":
                    raise
        return out

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(
        self, artifact: RunArtifact, key: Optional[RunKey] = None
    ) -> str:
        """Store an artifact atomically; returns its digest.

        The key is recomputed from the artifact's own ``spec``/``config``
        payload unless given, so an artifact can never be filed under an
        address its content does not hash to.  Re-putting the same key
        overwrites (same content address = same run).
        """
        derived = RunKey.for_artifact(artifact)
        if key is not None and key.digest != derived.digest:
            raise StoreError(
                "artifact content does not hash to the given key "
                f"({derived.digest[:12]}… vs {key.digest[:12]}…)"
            )
        digest = derived.digest
        payload = artifact.to_dict()
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "digest": digest,
            "checksum": _sha256(_canonical(payload)),
            "payload": payload,
        }
        self._atomic_write(
            self.path_for(digest),
            json.dumps(envelope, indent=1, sort_keys=True) + "\n",
        )
        self._index_add(digest, artifact)
        return digest

    def _atomic_write(self, path: Path, text: str) -> None:
        tmp = path.parent / f".tmp-{os.getpid()}-{path.name}"
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # Index (an acceleration cache over runs/)
    # ------------------------------------------------------------------
    @staticmethod
    def _index_entry(artifact: RunArtifact) -> dict[str, Any]:
        return {
            "name": artifact.name,
            "workload": artifact.workload,
            "scheme": artifact.scheme,
            "created_at": artifact.provenance.get("created_at"),
        }

    def _load_index(self) -> dict[str, dict[str, Any]]:
        try:
            index = json.loads(self.index_path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            return {}
        entries = index.get("entries") if isinstance(index, dict) else None
        return entries if isinstance(entries, dict) else {}

    def _write_index(self, entries: dict[str, dict[str, Any]]) -> None:
        self._atomic_write(
            self.index_path,
            json.dumps(
                {"schema_version": SCHEMA_VERSION, "entries": entries},
                indent=1,
                sort_keys=True,
            )
            + "\n",
        )

    def _index_add(self, digest: str, artifact: RunArtifact) -> None:
        entries = self._load_index()
        entries[digest] = self._index_entry(artifact)
        self._write_index(entries)

    def entries(self) -> dict[str, dict[str, Any]]:
        """The index view (digest → name/workload/scheme/created_at).

        Self-healing: any stored digest missing from the index (lost to
        a concurrent-writer race or a deleted index file) triggers a
        rebuild from the artifact files.
        """
        entries = self._load_index()
        if set(entries) != set(self.digests()):
            entries, _ = self.reindex()
        return entries

    def reindex(self) -> tuple[dict[str, dict[str, Any]], dict[str, str]]:
        """Rebuild ``index.json`` from the artifact files.

        Returns:
            ``(entries, problems)`` — the rebuilt index plus
            ``{digest: error}`` for artifacts that failed verification
            (corrupt/foreign-schema files are reported, never indexed).
        """
        entries: dict[str, dict[str, Any]] = {}
        problems: dict[str, str] = {}
        for digest in self.digests():
            try:
                entries[digest] = self._index_entry(self.get(digest))
            except StoreError as exc:
                problems[digest] = str(exc)
        self._write_index(entries)
        return entries, problems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunStore({str(self.root)!r}, {len(self.digests())} runs)"
