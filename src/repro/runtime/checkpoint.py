"""Round-level checkpoints for the MR clustering drivers.

The paper's algorithms target MapReduce runtimes whose defining
operational property is surviving failure mid-job; this module is that
property for the reproduction.  A :class:`CheckpointPolicy`
(``REPRO_CHECKPOINT_EVERY=<rounds|seconds>``, off by default) arms a
:class:`RunCheckpointer` that atomically snapshots the growing state —
the global ``ClusterState`` arrays, the changed mask, the driver's
stage/Δ cursor, the RNG bit-generator state, and the ``Counters``
snapshot — to ``<dir>/round-<r>/`` with a manifest + sha256.  A killed
driver resumes from the last durable round (``repro run --resume``) and
finishes bit-identical (clusterings AND counters) to an uninterrupted
run, because every snapshot is taken at a *safe point*.

Safe points
-----------
Checkpoints are written only at growing-step boundaries where no
candidates are in flight: the start of a stage, the start of each
Δ-growth phase (after a doubling), and the start of each CLUSTER2
iteration.  At those points the drivers guarantee ``pending`` is empty,
the ``changed`` mask is clear, and the last round's emission count is
zero — so the snapshot is just the five state arrays plus scalars, and
it restores onto *any* backend (vector arrays, sharded workers)
without serializing in-flight emission batches.  The policy's
round/second cadence *arms* a save; the write happens at the next safe
point.

Layout
------
``<dir>/round-<r>/state.bin``  — the global arrays (center, dist,
dist_acc, frozen, frozen_iter, changed) as raw concatenated bytes, with
each array's dtype/shape recorded in the manifest;
``<dir>/round-<r>/manifest.json`` — run key, store signature, cursor,
counters snapshot, RNG state, sha256 of ``state.bin``.

``<dir>`` defaults to ``<store>.ckpt/<run-key>/`` next to the graph's
``.rcsr`` store (override: ``REPRO_CHECKPOINT_DIR``); the run key hashes
(algorithm, canonical config) so concurrent runs with different
parameters never collide.  Writes go to a ``tmp-`` sibling directory and
are published with one atomic rename; a reader validates the manifest
and the state digest, skipping partial or stale rounds.  Snapshots are
published *write-behind* on a single background thread so a safe point
pays only the array copy; readers drain the writer before scanning.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import CheckpointError
from repro.integrity import (
    preflight_free_space,
    quarantine_artifact,
    sweep_orphan_tmps,
)
from repro.runtime import CHECKPOINT_EVERY_ENV

__all__ = [
    "CHECKPOINT_EVERY_ENV",
    "CHECKPOINT_DIR_ENV",
    "CKPT_RETAIN_ENV",
    "CheckpointPolicy",
    "RetentionPolicy",
    "RunCheckpointer",
    "checkpoint_dir_for",
    "collect_garbage",
    "latest_metadata",
    "list_checkpoints",
    "run_key",
]

#: Directory override for checkpoint trees (default: ``<store>.ckpt``).
CHECKPOINT_DIR_ENV = "REPRO_CHECKPOINT_DIR"
#: Retention policy for published rounds: ``<count>`` newest rounds,
#: ``<age>[smhd]`` by round mtime, or ``<bytes>[KMG]B`` total budget.
CKPT_RETAIN_ENV = "REPRO_CKPT_RETAIN"

#: Floor on retained rounds: whatever the policy says, the newest 3
#: survive — a resume always has a durable round plus two fallbacks.
_KEEP_ROUNDS = 3

_ARRAY_FIELDS = ("center", "dist", "dist_acc", "frozen", "frozen_iter", "changed")


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to arm a checkpoint: every N rounds, every S seconds, or never."""

    every_rounds: Optional[int] = None
    every_seconds: Optional[float] = None

    @property
    def enabled(self) -> bool:
        return self.every_rounds is not None or self.every_seconds is not None

    @classmethod
    def parse(cls, raw: Optional[str]) -> "CheckpointPolicy":
        """Parse the ``REPRO_CHECKPOINT_EVERY`` syntax.

        ``"5"`` = every 5 rounds, ``"2.5s"`` = every 2.5 seconds,
        ``None``/``""`` = disabled.
        """
        if raw is None:
            return cls()
        raw = str(raw).strip()
        if not raw:
            return cls()
        try:
            if raw.endswith("s"):
                seconds = float(raw[:-1])
                if seconds <= 0:
                    raise ValueError
                return cls(every_seconds=seconds)
            rounds = int(raw)
            if rounds < 1:
                raise ValueError
            return cls(every_rounds=rounds)
        except ValueError:
            raise CheckpointError(
                f"invalid checkpoint cadence {raw!r}: "
                "expected an integer round count or '<seconds>s'"
            ) from None

    @classmethod
    def from_env(cls) -> "CheckpointPolicy":
        return cls.parse(os.environ.get(CHECKPOINT_EVERY_ENV))


_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
_BYTE_UNITS = {"kb": 1024, "mb": 1024**2, "gb": 1024**3, "tb": 1024**4}


@dataclass(frozen=True)
class RetentionPolicy:
    """How many published rounds to keep (``REPRO_CKPT_RETAIN``).

    Exactly one of the three axes is set:

    * ``count`` — keep the newest N rounds (``"5"``);
    * ``max_age_s`` — keep rounds whose directory mtime is within the
      window (``"36h"``, ``"90m"``, ``"7d"``);
    * ``max_bytes`` — keep the newest rounds whose cumulative size fits
      the budget (``"500MB"``, ``"2GB"``).

    Whatever the policy, the newest :data:`_KEEP_ROUNDS` rounds are
    never deleted — a resume must always find a durable round plus
    fallbacks, even under an aggressive age/byte budget.
    """

    count: Optional[int] = None
    max_age_s: Optional[float] = None
    max_bytes: Optional[int] = None

    @classmethod
    def parse(cls, raw: Optional[str]) -> "RetentionPolicy":
        if raw is None or not str(raw).strip():
            return cls(count=_KEEP_ROUNDS)
        text = str(raw).strip().lower()
        try:
            for suffix, scale in _BYTE_UNITS.items():
                if text.endswith(suffix):
                    value = float(text[: -len(suffix)])
                    if value <= 0:
                        raise ValueError
                    return cls(max_bytes=int(value * scale))
            if text[-1] in _AGE_UNITS:
                value = float(text[:-1])
                if value <= 0:
                    raise ValueError
                return cls(max_age_s=value * _AGE_UNITS[text[-1]])
            count = int(text)
            if count < 1:
                raise ValueError
            return cls(count=max(count, _KEEP_ROUNDS))
        except (ValueError, IndexError):
            raise CheckpointError(
                f"invalid {CKPT_RETAIN_ENV} value {raw!r}: expected a round "
                "count ('5'), an age ('36h', '90m', '7d'), or a byte budget "
                "('500MB', '2GB')"
            ) from None

    @classmethod
    def from_env(cls) -> "RetentionPolicy":
        return cls.parse(os.environ.get(CKPT_RETAIN_ENV))

    def survivors(self, rounds_info) -> set:
        """Which round numbers to keep, given ``(round, mtime, bytes)`` rows.

        The newest :data:`_KEEP_ROUNDS` always survive; beyond those the
        configured axis decides.
        """
        ordered = sorted(rounds_info, key=lambda row: row[0], reverse=True)
        keep = {row[0] for row in ordered[:_KEEP_ROUNDS]}
        if self.count is not None:
            keep.update(row[0] for row in ordered[: self.count])
            return keep
        if self.max_age_s is not None:
            cutoff = time.time() - self.max_age_s
            keep.update(row[0] for row in ordered if row[1] >= cutoff)
            return keep
        if self.max_bytes is not None:
            total = 0
            for rnd, _, size in ordered:
                total += size
                if total <= self.max_bytes:
                    keep.add(rnd)
                else:
                    break
            return keep
        return keep  # pragma: no cover - one axis is always set


#: Config fields that select an execution platform, not a result.  All
#: backends/tiers are bit-identical, so two configs differing only here
#: share checkpoints — which is what makes cross-backend resume work.
_BACKEND_FIELDS = frozenset({"executor", "shards", "kernel_impl"})


def _canonical_config(config) -> str:
    """Deterministic string form of a ClusterConfig (dataclass).

    Backend-only fields are dropped: a snapshot taken under
    ``executor="sharded"`` must validate (and resume) under ``vector``.
    """
    import dataclasses

    if dataclasses.is_dataclass(config):
        items = dataclasses.asdict(config).items()
    else:  # pragma: no cover - configs are dataclasses today
        items = vars(config).items()
    return repr(sorted((k, v) for k, v in items if k not in _BACKEND_FIELDS))


def run_key(algorithm: str, config) -> str:
    """Short stable id for (algorithm, config) — the checkpoint leaf name.

    Deliberately excludes the executor: snapshots are backend-portable,
    so a run interrupted under ``--executor sharded`` may resume under
    ``vector`` (and the tests do exactly that).
    """
    blob = f"{algorithm}\n{_canonical_config(config)}".encode()
    return f"{algorithm}-{hashlib.sha256(blob).hexdigest()[:12]}"


def checkpoint_dir_for(
    algorithm: str,
    config,
    *,
    store_path: Optional[os.PathLike] = None,
    directory: Optional[os.PathLike] = None,
) -> Optional[Path]:
    """Resolve the checkpoint directory for one (algorithm, config, graph).

    Explicit ``directory`` wins, then ``REPRO_CHECKPOINT_DIR``, then a
    ``<store>.ckpt`` sibling of the graph's on-disk store.  Returns
    ``None`` when no location is derivable (in-memory graph, no
    override) — the caller decides whether that is an error.
    """
    base: Optional[Path] = None
    if directory is not None:
        base = Path(directory)
    elif os.environ.get(CHECKPOINT_DIR_ENV):
        base = Path(os.environ[CHECKPOINT_DIR_ENV])
    elif store_path is not None:
        base = Path(str(store_path) + ".ckpt")
    if base is None:
        return None
    return base / run_key(algorithm, config)


class RunCheckpointer:
    """Writer/reader of one run's checkpoint tree.

    One instance per ``runtime.run`` invocation; the drivers call
    :meth:`maybe_save` at every safe point, and ``--resume`` calls
    :meth:`load_latest` to restart from the newest durable round.
    """

    def __init__(
        self,
        directory: os.PathLike,
        *,
        algorithm: str,
        config,
        signature: Tuple,
        policy: Optional[CheckpointPolicy] = None,
    ):
        self.directory = Path(directory)
        self.algorithm = algorithm
        self.config_key = _canonical_config(config)
        self.signature = list(signature)
        self.policy = policy or CheckpointPolicy()
        self.retention = RetentionPolicy.from_env()
        self._last_save_rounds = 0
        self._last_save_time = time.monotonic()
        #: Round of the snapshot this run resumed from (reporting only).
        self.resumed_round: Optional[int] = None
        #: Rounds saved by this instance (tests / bench accounting).
        self.saved_rounds: list = []
        #: Corrupt rounds this instance moved into quarantine.
        self.quarantined_rounds: list = []
        # Orphaned tmp- dirs from an earlier crash mid-publish; the
        # grace window keeps a concurrently-publishing sibling safe.
        sweep_orphan_tmps(
            self.directory, ("*.tmp*",), dir_patterns=("tmp-*",)
        )
        #: Write-behind state: at most one in-flight publish thread.
        #: ``maybe_save`` hands the (already copied) snapshot to it so
        #: the safe point pays only the array copy, not the bytes + digest
        #: + rename — without this the save cost dominates short rounds.
        self._writer: Optional[threading.Thread] = None
        self._writer_error: Optional[BaseException] = None

    # -- policy ---------------------------------------------------------- #

    def due(self, rounds: int) -> bool:
        """Whether the policy has come due since the last save."""
        policy = self.policy
        if policy.every_rounds is not None:
            return rounds - self._last_save_rounds >= policy.every_rounds
        if policy.every_seconds is not None:
            return (
                time.monotonic() - self._last_save_time >= policy.every_seconds
            )
        return False

    def note_restored(self, rounds: int) -> None:
        """Reset the cadence after a restore (the restored round is durable)."""
        self._last_save_rounds = rounds
        self._last_save_time = time.monotonic()

    # -- writing --------------------------------------------------------- #

    def maybe_save(self, state, engine, rng, cursor: Dict[str, Any]) -> bool:
        """Save a snapshot at a safe point if the policy is due.

        ``state`` is any growing state exposing ``snapshot_arrays()``;
        ``cursor`` is the driver's JSON-able loop position.  Returns
        whether a snapshot was scheduled.

        The snapshot itself (bytes + digest + atomic rename) is published
        *write-behind* on a background thread: ``snapshot_arrays()``
        copies the state at the safe point, so compute continues while
        the previous copy hits disk.  Readers (:meth:`load_latest`)
        drain the writer first, and a publish failure re-raises at the
        next safe point or :meth:`flush`.
        """
        if not self.policy.enabled:
            return False
        rounds = engine.counters.rounds
        if not self.due(rounds):
            return False
        arrays = state.snapshot_arrays()
        kwargs = dict(
            arrays=arrays,
            cursor=cursor,
            counters=engine.counters.snapshot(),
            simulated_time=int(engine.simulated_time),
            rng_state=rng.bit_generator.state if rng is not None else None,
        )
        self.flush()  # one in-flight write at a time; surface old errors
        self._note_saved(rounds)
        self._writer = threading.Thread(
            target=self._publish_quietly,
            args=(int(rounds),),
            kwargs=kwargs,
            name="repro-checkpoint-writer",
        )
        self._writer.start()
        return True

    def flush(self) -> None:
        """Block until the in-flight write-behind snapshot is published.

        Re-raises the writer's exception, if any — checkpoint failures
        are the caller's to see, just delayed by one safe point.
        """
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.join()
        if self._writer_error is not None:
            error, self._writer_error = self._writer_error, None
            raise error

    def _publish_quietly(self, rounds: int, **kwargs) -> None:
        try:
            self._publish(rounds, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - re-raised at flush
            self._writer_error = exc

    def _note_saved(self, rounds: int) -> None:
        self._last_save_rounds = int(rounds)
        self._last_save_time = time.monotonic()
        if int(rounds) not in self.saved_rounds:
            self.saved_rounds.append(int(rounds))

    def save(
        self,
        rounds: int,
        *,
        arrays: Dict[str, np.ndarray],
        cursor: Dict[str, Any],
        counters: Dict[str, Any],
        simulated_time: int,
        rng_state: Optional[dict],
    ) -> Path:
        """Synchronously publish ``round-<rounds>/`` (idempotent per round)."""
        self.flush()
        final, wrote = self._publish(
            rounds,
            arrays=arrays,
            cursor=cursor,
            counters=counters,
            simulated_time=simulated_time,
            rng_state=rng_state,
        )
        if wrote:
            self._note_saved(rounds)
        return final

    def _publish(
        self,
        rounds: int,
        *,
        arrays: Dict[str, np.ndarray],
        cursor: Dict[str, Any],
        counters: Dict[str, Any],
        simulated_time: int,
        rng_state: Optional[dict],
    ) -> Tuple[Path, bool]:
        """Atomically publish ``round-<rounds>/`` (idempotent per round).

        The tmp directory + single ``os.rename`` sequence means a
        mid-write kill leaves at worst a ``tmp-*`` orphan that no reader
        ever considers; a published round directory is always complete.
        """
        final = self.directory / f"round-{rounds}"
        if final.exists():
            # Deterministic replay re-reaches the same safe point with
            # the same state; the existing snapshot is already it.
            return final, False
        self.directory.mkdir(parents=True, exist_ok=True)
        self._checkpoint_fault("pre", rounds)
        tmp = self.directory / f"tmp-{os.getpid()}-{rounds}"
        if tmp.exists():  # pragma: no cover - stale orphan from a crash
            shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        try:
            # Raw concatenated array bytes, dtype/shape in the manifest.
            # Chosen over np.savez because the write-behind thread
            # shares the GIL with the compute thread: tobytes + sha256 +
            # a single write are nearly all GIL-releasing C, where the
            # zipfile layer under savez is milliseconds of held-GIL
            # Python per snapshot — measurable on sub-100 ms rounds.
            blocks = [
                np.ascontiguousarray(arrays[k]) for k in _ARRAY_FIELDS
            ]
            payload = b"".join(b.tobytes() for b in blocks)
            digest = hashlib.sha256(payload).hexdigest()
            preflight_free_space(
                self.directory, len(payload) + 4096,
                label=f"checkpoint round-{rounds}",
            )
            with open(tmp / "state.bin", "wb") as fh:
                fh.write(payload)
            manifest = {
                "format": 2,
                "arrays": {
                    k: {"dtype": b.dtype.str, "shape": list(b.shape)}
                    for k, b in zip(_ARRAY_FIELDS, blocks)
                },
                "algorithm": self.algorithm,
                "config_key": self.config_key,
                "signature": self.signature,
                "round": int(rounds),
                "cursor": cursor,
                "counters": counters,
                "simulated_time": int(simulated_time),
                "rng_state": rng_state,
                "state_sha256": digest,
                "meta": {
                    "frontier": int(np.count_nonzero(arrays["changed"])),
                    "uncovered": int(np.count_nonzero(~arrays["frozen"])),
                },
            }
            with open(tmp / "manifest.json", "w") as fh:
                json.dump(manifest, fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.rename(tmp, final)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        if self._checkpoint_fault("post", rounds):
            _flip_round_byte(final)
        self._prune()
        return final, True

    def _checkpoint_fault(self, kind: str, rounds: int) -> bool:
        """Consult the fault plan for a scheduled checkpoint fault.

        ``"pre"`` may raise the scheduled ``enospc``/``ioerror`` before
        any byte lands; ``"post"`` reports whether a ``corrupt`` entry
        should flip a byte in the just-published round.
        """
        from repro.mr.faults import get_fault_plan

        plan = get_fault_plan()
        if plan is None:
            return False
        if kind == "pre":
            import errno

            action = plan.io_fault("ckpt", rounds)
            if action == "enospc":
                raise OSError(
                    errno.ENOSPC,
                    f"fault plan: enospc publishing round-{rounds}",
                )
            if action == "ioerror":
                raise OSError(
                    errno.EIO, f"fault plan: ioerror publishing round-{rounds}"
                )
            return False
        return plan.corrupt_fault("ckpt", rounds)

    def _prune(self) -> None:
        removed = collect_garbage(self.directory, self.retention)
        del removed  # accounting lives on the CLI path

    def _round_dirs(self):
        if not self.directory.is_dir():
            return []
        out = []
        for entry in self.directory.iterdir():
            name = entry.name
            if name.startswith("round-"):
                try:
                    out.append(int(name[len("round-"):]))
                except ValueError:
                    continue
        return out

    # -- reading --------------------------------------------------------- #

    def load_latest(self) -> Optional[Dict[str, Any]]:
        """Load the newest valid, non-stale snapshot (or ``None``).

        Partial/corrupt rounds (bad manifest, digest mismatch) and stale
        rounds (store signature or config changed) are skipped — the
        next older round is tried, so one torn write never strands a
        run.  Drains the write-behind thread first so the newest
        scheduled snapshot is on disk before the scan.
        """
        try:
            self.flush()
        except Exception:
            pass  # a failed publish falls back to the older rounds
        for rounds in sorted(self._round_dirs(), reverse=True):
            payload = self._load_round(rounds)
            if payload is not None:
                return payload
        return None

    def _quarantine_round(self, root: Path, rounds: int, detail: str) -> None:
        """Move a corrupt round aside so no later scan re-reads it.

        Stale rounds (config/signature drift) are *not* quarantined —
        they are valid data for a different run.  Only structural damage
        (unreadable manifest, digest/length mismatch) lands here.
        """
        moved = quarantine_artifact(root, reason=detail)
        if moved is not None and int(rounds) not in self.quarantined_rounds:
            self.quarantined_rounds.append(int(rounds))

    def _load_round(self, rounds: int) -> Optional[Dict[str, Any]]:
        try:
            self.flush()
        except Exception:
            pass  # a failed publish falls back to the older rounds
        root = self.directory / f"round-{rounds}"
        try:
            with open(root / "manifest.json") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:
            self._quarantine_round(
                root, rounds, f"unreadable manifest: {exc}"
            )
            return None
        if manifest.get("format") != 2:
            return None
        if manifest.get("algorithm") != self.algorithm:
            return None
        if manifest.get("config_key") != self.config_key:
            return None
        if list(manifest.get("signature", ())) != self.signature:
            return None  # stale: the store changed under the checkpoint
        try:
            payload = (root / "state.bin").read_bytes()
            if hashlib.sha256(payload).hexdigest() != manifest.get(
                "state_sha256"
            ):
                self._quarantine_round(root, rounds, "state digest mismatch")
                return None
            arrays = {}
            offset = 0
            for k in _ARRAY_FIELDS:
                spec = manifest["arrays"][k]
                dtype = np.dtype(spec["dtype"])
                count = int(np.prod(spec["shape"], dtype=np.int64))
                nbytes = count * dtype.itemsize
                arrays[k] = (
                    np.frombuffer(payload, dtype=dtype, count=count,
                                  offset=offset)
                    .reshape(spec["shape"])
                    .copy()
                )
                offset += nbytes
            if offset != len(payload):
                self._quarantine_round(root, rounds, "state length mismatch")
                return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self._quarantine_round(root, rounds, f"unreadable state: {exc}")
            return None
        return {
            "round": int(manifest["round"]),
            "arrays": arrays,
            "cursor": manifest["cursor"],
            "counters": manifest["counters"],
            "simulated_time": int(manifest["simulated_time"]),
            "rng_state": manifest.get("rng_state"),
            "meta": manifest.get("meta", {}),
        }


def _flip_round_byte(round_dir: Path) -> None:
    """Flip one byte in the middle of a round's ``state.bin`` (fault plan).

    The deterministic stand-in for silent media corruption: the manifest
    digest no longer matches, so a later ``--resume`` must skip (and
    quarantine) the round instead of restoring garbage state.
    """
    path = Path(round_dir) / "state.bin"
    try:
        size = path.stat().st_size
    except OSError:  # pragma: no cover - round vanished underneath us
        return
    if size == 0:
        return
    offset = size // 2
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes((byte[0] ^ 0xFF,)))


def _round_sizes(run_dir: Path):
    """``(round, mtime, bytes)`` rows for every published round dir."""
    rows = []
    if not run_dir.is_dir():
        return rows
    for entry in run_dir.iterdir():
        if not entry.name.startswith("round-") or not entry.is_dir():
            continue
        try:
            rounds = int(entry.name[len("round-"):])
        except ValueError:
            continue
        size = 0
        try:
            mtime = entry.stat().st_mtime
            for child in entry.iterdir():
                try:
                    size += child.stat().st_size
                except OSError:
                    continue
        except OSError:
            continue
        rows.append((rounds, mtime, size))
    return rows


def list_checkpoints(base_dir: os.PathLike):
    """Inventory a checkpoint tree for ``repro ckpt list``.

    ``base_dir`` may be a ``<store>.ckpt`` root (one subdirectory per
    run key) or a single run directory; either way the result is a list
    of ``{run_key, directory, rounds: [{round, mtime, bytes}]}`` dicts,
    newest round first.
    """
    base = Path(base_dir)
    if not base.is_dir():
        return []
    run_dirs = []
    if any(child.name.startswith("round-") for child in base.iterdir()):
        run_dirs.append(base)
    else:
        run_dirs.extend(sorted(d for d in base.iterdir() if d.is_dir()))
    out = []
    for run_dir in run_dirs:
        rows = sorted(_round_sizes(run_dir), reverse=True)
        if not rows and run_dir is not base:
            continue
        out.append(
            {
                "run_key": run_dir.name,
                "directory": str(run_dir),
                "rounds": [
                    {"round": r, "mtime": m, "bytes": b} for r, m, b in rows
                ],
            }
        )
    return out


def collect_garbage(
    run_dir: os.PathLike,
    policy: Optional[RetentionPolicy] = None,
    *,
    dry_run: bool = False,
):
    """Delete rounds the retention policy no longer keeps.

    Returns the list of round numbers removed (or, under ``dry_run``,
    the rounds that *would* be removed).  The newest ``_KEEP_ROUNDS``
    always survive regardless of policy.
    """
    run_dir = Path(run_dir)
    policy = policy or RetentionPolicy.from_env()
    rows = _round_sizes(run_dir)
    keep = policy.survivors(rows)
    doomed = sorted(r for r, _, _ in rows if r not in keep)
    if not dry_run:
        for rounds in doomed:
            shutil.rmtree(run_dir / f"round-{rounds}", ignore_errors=True)
    return doomed


def latest_metadata(directory: os.PathLike) -> Optional[Dict[str, Any]]:
    """Manifest metadata of the newest published round under ``directory``.

    Used by the serve degradation path: a deadline-expired query reports
    the round reached and frontier size of the in-progress run's last
    durable checkpoint instead of failing with a 500.  Only the manifest
    is read (no array load, no digest check — metadata, not state).
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    best = None
    for entry in directory.iterdir():
        if not entry.name.startswith("round-"):
            continue
        try:
            rounds = int(entry.name[len("round-"):])
        except ValueError:
            continue
        if best is not None and rounds <= best:
            continue
        try:
            with open(entry / "manifest.json") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError):
            continue
        best = rounds
        meta = dict(manifest.get("meta", {}))
        meta["round"] = int(manifest.get("round", rounds))
        result = meta
    return result if best is not None else None


def restore_run_state(state, engine, rng, payload: Dict[str, Any]) -> None:
    """Rehydrate a growing state + engine counters + RNG from a payload.

    Shared by the drivers' resume paths: the arrays go to the backend's
    ``restore_arrays``, the counters snapshot replaces the engine's
    counts, and the RNG bit-generator state is reinstalled so the center
    sampling stream continues exactly where the snapshot left it.
    """
    from repro.mr.metrics import Counters

    state.restore_arrays(payload["arrays"])
    Counters.restore_into(engine.counters, payload["counters"])
    engine.simulated_time = int(payload["simulated_time"])
    if rng is not None and payload.get("rng_state") is not None:
        rng.bit_generator.state = _rng_state_from_json(payload["rng_state"])


def _rng_state_from_json(state):
    """Undo JSON's stringification quirks in a bit-generator state dict."""
    if isinstance(state, dict):
        return {k: _rng_state_from_json(v) for k, v in state.items()}
    if isinstance(state, list):  # pragma: no cover - SFC64-style states
        return np.array(state, dtype=np.uint64)
    return state
