"""The persistent fuzzing corpus: JSON-on-disk seeds with provenance.

Layout of a corpus directory::

    <dir>/entries/<id>.json    one file per corpus entry
    <dir>/journal.jsonl        write-ahead checkpoint journal

The journal's last valid record is the corpus's only checkpoint.  After
the bootstrap, every mutation round and finalize the campaign driver
appends one **self-contained checkpoint record** — the admission-ordered
entry-id list, the power-schedule pick counts, the full coverage map,
findings, meta and result counters — so a campaign restarts or resumes
from the journal alone; :meth:`~repro.resilience.Journal.truncate_to_valid`
handles a torn tail.  Entry files are written atomically (tmp + fsync +
``os.replace``), so a file never tears, but the *set* of files can
disagree with the journal after a crash.  Entry files written by a crashed
round are *orphans* (absent from every checkpoint's admission list); the
resumed round re-runs deterministically and rewrites them byte-identically,
so they are never deleted, only superseded.  The converse window — a
journal *ahead* of the entry files — closes too: each checkpoint embeds
its newly admitted entries' full records (``entry_records``), and
:meth:`CorpusStore.roll_forward` replays those committed frames to rebuild
a lost or torn ``entries/<id>.json`` byte-identically on resume or repair.
Files a corpus directory of an older layout holds besides these two
(``coverage.json``, ``findings.json``, ``meta.json``) are ignored.

Every entry records *provenance*, not just its artifact: generated roots
carry their ``(campaign seed, index)`` derivation, mutants their parent id,
operator name, operator seed and optional crossover mate — the **mutation
trail**.  :func:`rebuild_candidate` re-derives any entry's source from seed +
trail alone, which is what makes corpora replayable and auditable.  Nothing
in any artifact depends on wall-clock time or process identity.

Dedup is by coverage fingerprint: an entry whose run's full feature set
matches an existing entry's is not admitted, so one behaviour cannot flood
the corpus however many mutants re-discover it.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.fuzz.generate import (
    derive_seed,
    random_monitor,
    roles_from_json,
    roles_to_json,
)
from repro.record import record
from repro.fuzz.mutate import Candidate, apply_operator
from repro.resilience import Journal, atomic_write_text
from repro.resilience.atomic import json_text


class CorruptCorpusError(RuntimeError):
    """A corpus directory is in a state the campaign refuses to build on.

    Raised instead of a traceback deep in the loader, with the offending
    path and a one-line diagnosis; ``expresso fuzz`` maps it to exit code 2
    and points at ``--resume`` / ``--repair``.
    """

    def __init__(self, root, detail: str):
        self.root = Path(root) if root is not None else None
        self.detail = detail
        super().__init__(f"corrupt corpus at {self.root}: {detail}")


@record
class CorpusEntry:
    """One corpus seed: a monitor candidate plus provenance and coverage."""

    entry_id: str
    name: str
    source: str
    roles: Tuple
    threads: int
    ops: int
    #: Provenance: generated roots have (gen_seed, gen_index); mutants have
    #: parent/op/op_seed (+ mate for crossover).
    gen_seed: Optional[int] = None
    gen_index: Optional[int] = None
    parent: Optional[str] = None
    op: Optional[str] = None
    op_seed: Optional[int] = None
    mate: Optional[str] = None
    #: Coverage bookkeeping (all deterministic; no timing anywhere).
    fingerprint: Optional[str] = None
    features: Optional[dict] = None
    gain: int = 0                  # new features this entry's run added
    schedules_run: int = 0
    #: Power-schedule state (not persisted: rebuilt per campaign).
    picks: int = dataclasses.field(default=0, compare=False)

    def candidate(self) -> Candidate:
        return Candidate(self.name, self.source, roles_from_json(self.roles),
                         self.threads, self.ops)

    def to_dict(self) -> dict:
        record = {
            "entry_id": self.entry_id,
            "name": self.name,
            "source": self.source,
            "roles": roles_to_json(roles_from_json(self.roles)),
            "threads": self.threads,
            "ops": self.ops,
            "gen_seed": self.gen_seed,
            "gen_index": self.gen_index,
            "parent": self.parent,
            "op": self.op,
            "op_seed": self.op_seed,
            "mate": self.mate,
            "fingerprint": self.fingerprint,
            "features": ({axis: sorted(values)
                          for axis, values in sorted(self.features.items())}
                         if self.features is not None else None),
            "gain": self.gain,
            "schedules_run": self.schedules_run,
        }
        return record

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusEntry":
        return cls(
            entry_id=data["entry_id"], name=data["name"], source=data["source"],
            roles=tuple(roles_from_json(data["roles"])),
            threads=data["threads"], ops=data["ops"],
            gen_seed=data.get("gen_seed"), gen_index=data.get("gen_index"),
            parent=data.get("parent"), op=data.get("op"),
            op_seed=data.get("op_seed"), mate=data.get("mate"),
            fingerprint=data.get("fingerprint"),
            features=data.get("features"), gain=data.get("gain", 0),
            schedules_run=data.get("schedules_run", 0))


def entry_from_generated(seed: int, index: int) -> CorpusEntry:
    """A corpus root: monitor *index* of the generated corpus for *seed*."""
    generated = random_monitor(seed, index)
    return CorpusEntry(
        entry_id=f"gen-{seed}-{index}".replace("--", "-n"),
        name=generated.name, source=generated.source,
        roles=generated.roles,
        threads=3, ops=2, gen_seed=seed, gen_index=index)


def rebuild_candidate(entry: CorpusEntry,
                      lookup: Dict[str, CorpusEntry]) -> Optional[Candidate]:
    """Re-derive an entry's candidate from provenance alone (seed + trail).

    Generated roots regenerate from ``(gen_seed, gen_index)``; mutants
    rebuild their parent (and mate) recursively, then re-apply the recorded
    operator with its recorded seed.  Returns ``None`` when the trail is
    broken (missing parent) — corpora imported from elsewhere may legally
    carry source-only entries.
    """
    if entry.gen_seed is not None and entry.gen_index is not None:
        generated = random_monitor(entry.gen_seed, entry.gen_index)
        return Candidate(generated.name, generated.source, generated.roles,
                         entry.threads, entry.ops)
    if entry.parent is None or entry.op is None:
        return None
    parent = lookup.get(entry.parent)
    if parent is None:
        return None
    parent_candidate = rebuild_candidate(parent, lookup)
    if parent_candidate is None:
        return None
    # A mutated root keeps the *parent's* stored bounds (resize-bounds is the
    # only operator that changes them, and it does so deterministically).
    parent_candidate = dataclasses.replace(
        parent_candidate, threads=parent.threads, ops=parent.ops)
    mate_candidate = None
    if entry.mate is not None:
        mate_entry = lookup.get(entry.mate)
        if mate_entry is None:
            return None
        mate_candidate = rebuild_candidate(mate_entry, lookup)
        if mate_candidate is None:
            return None
    return apply_operator(entry.op, parent_candidate, entry.op_seed,
                          mate_candidate)


class CorpusStore:
    """Load/save the corpus directory (or run fully in memory with ``None``)."""

    JOURNAL_NAME = "journal.jsonl"

    def __init__(self, root: Optional[str] = None):
        self.root = Path(root) if root is not None else None

    def journal(self) -> Optional[Journal]:
        """The corpus's write-ahead checkpoint journal (``None`` in-memory)."""
        if self.root is None:
            return None
        return Journal(self.root / self.JOURNAL_NAME)

    # -- loading --------------------------------------------------------------

    def load_entries(self, ids: Optional[Sequence[str]] = None) -> List[CorpusEntry]:
        """Load corpus entries: all of them (id-sorted), or exactly *ids*.

        With *ids* — a checkpoint's admission-ordered list — entries come
        back in that order (the power schedule's tie-break order), orphan
        files from crashed rounds are skipped, and a *missing* admitted
        entry raises :class:`CorruptCorpusError`: the journal says it was
        admitted, so its absence means the directory was tampered with or
        lost writes the journal fsync'd.
        """
        if self.root is None:
            return []
        entries_dir = self.root / "entries"
        if ids is not None:
            entries = []
            for entry_id in ids:
                path = entries_dir / f"{entry_id}.json"
                try:
                    entries.append(CorpusEntry.from_dict(
                        json.loads(path.read_text())))
                except (OSError, ValueError, KeyError) as exc:
                    raise CorruptCorpusError(
                        self.root, f"admitted entry {entry_id!r} unreadable "
                        f"({type(exc).__name__}); run --repair") from exc
            return entries
        if not entries_dir.is_dir():
            return []
        entries = []
        for path in sorted(entries_dir.glob("*.json")):
            try:
                entries.append(CorpusEntry.from_dict(
                    json.loads(path.read_text())))
            except (ValueError, KeyError):
                continue  # a torn cache file must not kill the campaign
        return entries

    # -- saving ---------------------------------------------------------------

    def save_entry(self, entry: CorpusEntry) -> None:
        if self.root is None:
            return
        entries_dir = self.root / "entries"
        entries_dir.mkdir(parents=True, exist_ok=True)
        self._write_json(entries_dir / f"{entry.entry_id}.json", entry.to_dict())

    @staticmethod
    def _write_json(path: Path, payload) -> None:
        # Atomic: a kill mid-write must leave the previous version intact,
        # never a torn file.  A resumed round re-saves the orphan entries
        # its crashed run already wrote; a file that already reads back
        # identical was itself written atomically, so it is skipped: no
        # second write and fsync of the same bytes.
        text = json_text(payload)
        try:
            if path.read_text(encoding="utf-8") == text:
                return
        except (OSError, ValueError):
            pass
        atomic_write_text(path, text)

    # -- crash recovery -------------------------------------------------------

    def rollback_uncommitted(self) -> List[str]:
        """Roll a store whose journal has *no* records back to empty.

        A crash before the first checkpoint append leaves entry files the
        journal never committed; a resume must not let them seed the fresh
        start (they may even belong to a different configuration — without
        a checkpoint record there is no fingerprint to compare).  Returns
        the removed paths (relative to the root).
        """
        removed = self.clean_stale_tmp()
        if self.root is None or not self.root.is_dir():
            return removed
        for path in sorted((self.root / "entries").glob("*.json")):
            try:
                path.unlink()
                removed.append(str(path.relative_to(self.root)))
            except OSError:
                pass
        return removed

    def _unreadable(self, ids: Iterable[str]) -> List[str]:
        """The ids among *ids* whose entry file is missing or unparseable."""
        entries_dir = self.root / "entries"
        broken = []
        for entry_id in ids:
            try:
                CorpusEntry.from_dict(json.loads(
                    (entries_dir / f"{entry_id}.json").read_text()))
            except (OSError, ValueError, KeyError):
                broken.append(entry_id)
        return broken

    def roll_forward(self, records: Sequence[dict]) -> List[str]:
        """Rebuild admitted entry files the journal committed but the
        directory lost.

        Checkpoint records embed each newly admitted entry's full record
        (``entry_records``), so when the journal is *ahead* of the entry
        files — a missing or torn ``entries/<id>.json`` the journal fsync'd
        an admission for — the committed frames are replayed instead of
        giving up: the file is rewritten through the same canonical atomic
        JSON writer ``save_entry`` used, hence byte-identically.  Entries
        admitted by journals that predate ``entry_records`` stay
        unrecoverable and are left for :meth:`load_entries`/:meth:`repair`
        to report.  Returns the restored entry ids (sorted).
        """
        if self.root is None:
            return []
        committed: Dict[str, dict] = {}
        for record in records:
            committed.update(record.get("entry_records") or {})
        entries_dir = self.root / "entries"
        restored = self._unreadable(committed)
        for entry_id in restored:
            entries_dir.mkdir(parents=True, exist_ok=True)
            self._write_json(entries_dir / f"{entry_id}.json",
                             committed[entry_id])
        return sorted(restored)

    def clean_stale_tmp(self) -> List[str]:
        """Remove ``*.tmp`` siblings left by writes a crash interrupted."""
        removed = []
        if self.root is None or not self.root.is_dir():
            return removed
        for directory in (self.root, self.root / "entries"):
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.tmp")):
                try:
                    path.unlink()
                    removed.append(str(path.relative_to(self.root)))
                except OSError:
                    pass
        return removed

    def validate(self) -> List[str]:
        """Diagnose the directory; one human-readable line per problem.

        Checks journal integrity (torn tail), then that every entry the
        last checkpoint admitted has a readable file.
        """
        problems: List[str] = []
        if self.root is None:
            return problems
        if not self.root.is_dir():
            return [f"{self.root} is not a directory"]
        replay = self.journal().replay()
        if replay.torn:
            problems.append(
                f"journal has a torn tail after {len(replay.records)} "
                f"valid record(s)")
        if replay.last is not None:
            problems += [f"admitted entry {entry_id} is missing or unreadable"
                         for entry_id in self._unreadable(replay.last["entries"])]
        return problems

    def repair(self) -> dict:
        """Roll the directory back to its last valid journaled state.

        Truncates a torn journal tail, deletes stale ``*.tmp`` files, and
        rolls missing or torn admitted entry files *forward* from the
        committed checkpoint frames (:meth:`roll_forward`).  Returns a
        summary dict (what was truncated/removed/restored).  Raises
        :class:`CorruptCorpusError` only when an admitted entry file is
        unreadable *and* no journal frame carries its record
        (pre-``entry_records`` journals) — that state is unrecoverable
        without re-running the campaign.
        """
        summary = {"journal_records": 0, "journal_truncated": False,
                   "tmp_removed": [], "entries_restored": []}
        if self.root is None or not self.root.is_dir():
            return summary
        replay = self.journal().truncate_to_valid()
        summary["journal_records"] = len(replay.records)
        summary["journal_truncated"] = replay.torn
        summary["tmp_removed"] = self.clean_stale_tmp()
        if replay.last is not None:
            summary["entries_restored"] = self.roll_forward(replay.records)
            lost = self._unreadable(replay.last["entries"])
            if lost:
                raise CorruptCorpusError(
                    self.root, f"admitted entries lost: {', '.join(lost)}")
        else:
            # No committed record at all: everything on disk is uncommitted.
            summary["tmp_removed"] += self.rollback_uncommitted()
        return summary
