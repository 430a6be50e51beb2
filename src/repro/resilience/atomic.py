"""Atomic, fsync'd file writes (corpus entries, journal rollback, reports).

``path.write_text`` can tear: a crash between the truncate and the final
flush leaves a half-written file, such as a corpus entry the next campaign
cannot read.  :func:`atomic_write_text` writes to a temporary sibling,
flushes it to disk, then ``os.replace``\\ s it over the target — POSIX
rename atomicity guarantees every reader sees either the complete old
content or the complete new content, never a mixture.  The containing
directory is fsync'd afterwards (:func:`fsync_dir`) so the rename itself
survives power loss.

Fault sites (see :mod:`repro.resilience.faults`):

* ``disk.write`` (token = file name) — checked *before* the temporary file
  is created: an ``error`` action models a full/broken disk, a ``crash``
  models dying before any bytes reach the target;
* ``disk.replace`` (token = file name) — checked between writing the
  temporary file and renaming it: a ``crash`` here leaves a stale ``.tmp``
  sibling and the *old* target intact, the exact torn-window the atomic
  protocol exists to close.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

from repro.resilience.faults import fault_check


def atomic_write_text(path: Path, text: str) -> None:
    """Write *text* to *path* atomically (tmp + fsync + ``os.replace``)."""
    path = Path(path)
    fault_check("disk.write", token=path.name)
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        fault_check("disk.replace", token=path.name)
        os.replace(tmp, path)
    except BaseException:
        # Best-effort cleanup; an InjectedCrash deliberately skips it so the
        # stale .tmp survives like it would after a real kill.
        if not _crashing():
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise
    fsync_dir(path.parent)


def json_text(payload: Any) -> str:
    """The on-disk form of a JSON file (sorted keys, trailing newline)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def atomic_write_json(path: Path, payload: Any) -> None:
    """Serialize *payload* with :func:`json_text` atomically."""
    atomic_write_text(Path(path), json_text(payload))


def checksum_text(text: str) -> str:
    """Stable 128-bit content checksum (journal records, state validation)."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def checksum_payload(payload: Any) -> str:
    """Checksum of a JSON payload's canonical serialization."""
    return checksum_text(json.dumps(payload, sort_keys=True))


def _crashing() -> bool:
    """True while an InjectedCrash is unwinding (keep the crash faithful)."""
    import sys

    from repro.resilience.faults import InjectedCrash

    return isinstance(sys.exc_info()[1], InjectedCrash)


def fsync_dir(directory: Path) -> None:
    """Make the renames into *directory* durable (best effort)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return                     # e.g. platforms without dir fds
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
