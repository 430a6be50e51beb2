"""Chrome-trace-event schema validation for emitted trace artifacts.

``python -m repro.obs.validate TRACE.json [...]`` exits non-zero if any file
fails the checks.  This is the PR-time CI smoke: it pins the contract that
every trace the pipeline emits loads in Perfetto / ``chrome://tracing``.

Checks (the object-format subset of the trace-event spec we emit):

* top level is an object with a ``traceEvents`` array;
* every event has ``name``/``cat`` strings, a known ``ph``, numeric ``ts``,
  integer ``pid``/``tid``, and an object ``args``;
* B/E events balance per (pid, tid) with matching names (LIFO nesting);
* every ``prune``-named event carries exactly one ``provenance`` arg;
* ``M`` metadata events are ``process_name``/``thread_name`` and carry a
  string ``args.name``;
* a **stitched** document (``otherData.stitched``, see
  :mod:`repro.obs.stitch`) must announce a ``process_name`` for every
  distinct pid its events use — that is what keys the merged timeline.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

#: Phases this repo emits (a subset of the full trace-event alphabet).
_KNOWN_PHASES = frozenset({"B", "E", "i", "X", "M", "C"})

#: The prune-provenance vocabulary (exploration skip mechanisms).
PROVENANCE_TAGS = frozenset({
    "sleep_set", "backtrack", "symmetry", "merge", "visited",
})

#: Metadata-event names this repo emits (the stitcher's lane labels).
_METADATA_NAMES = frozenset({"process_name", "thread_name"})


def validate_trace(document: object) -> List[str]:
    """Return a list of schema violations (empty = valid)."""
    errors: List[str] = []
    if not isinstance(document, dict):
        return ["top level must be an object (Chrome object format)"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["missing 'traceEvents' array"]
    other = document.get("otherData")
    stitched = isinstance(other, dict) and bool(other.get("stitched"))
    named_pids: set = set()
    used_pids: set = set()
    stacks: Dict[Tuple[object, object], List[str]] = {}
    for index, event in enumerate(events):
        where = f"event[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _KNOWN_PHASES:
            errors.append(f"{where}: unknown ph {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            errors.append(f"{where}: 'name' must be a string")
        if not isinstance(event.get("cat"), str):
            errors.append(f"{where}: 'cat' must be a string")
        if not isinstance(event.get("ts"), (int, float)):
            errors.append(f"{where}: 'ts' must be a number")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(f"{where}: '{key}' must be an integer")
        args = event.get("args")
        if not isinstance(args, dict):
            errors.append(f"{where}: 'args' must be an object")
            args = {}
        if ph == "M":
            # Metadata events label lanes; they never open/close spans.
            name = event.get("name")
            if name not in _METADATA_NAMES:
                errors.append(f"{where}: metadata name {name!r} not in "
                              f"{sorted(_METADATA_NAMES)}")
            if not isinstance(args.get("name"), str):
                errors.append(f"{where}: metadata event needs a string "
                              f"'args.name'")
            elif name == "process_name":
                named_pids.add(event.get("pid"))
            continue
        used_pids.add(event.get("pid"))
        lane = (event.get("pid"), event.get("tid"))
        stack = stacks.setdefault(lane, [])
        if ph == "B":
            stack.append(str(event.get("name")))
        elif ph == "E":
            if not stack:
                errors.append(f"{where}: 'E' without matching 'B'")
            elif stack[-1] != event.get("name"):
                errors.append(f"{where}: 'E' for {event.get('name')!r} but "
                              f"open span is {stack[-1]!r}")
                stack.pop()
            else:
                stack.pop()
        if str(event.get("name")) == "prune":
            provenance = args.get("provenance")
            if provenance not in PROVENANCE_TAGS:
                errors.append(f"{where}: prune event provenance "
                              f"{provenance!r} not in {sorted(PROVENANCE_TAGS)}")
    for lane, stack in sorted(stacks.items(), key=repr):
        if stack:
            errors.append(f"lane {lane}: {len(stack)} unclosed span(s): "
                          f"{stack[-1]!r}")
    if stitched:
        for pid in sorted(used_pids - named_pids, key=repr):
            errors.append(f"stitched document: pid {pid} has events but no "
                          f"'process_name' metadata")
    return errors


def validate_file(path: str) -> List[str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as error:
        return [f"cannot load {path}: {error}"]
    return validate_trace(document)


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: python -m repro.obs.validate TRACE.json [...]",
              file=sys.stderr)
        return 2
    status = 0
    for path in argv:
        errors = validate_file(path)
        if errors:
            status = 1
            print(f"{path}: INVALID")
            for error in errors:
                print(f"  - {error}")
        else:
            with open(path, "r", encoding="utf-8") as handle:
                count = len(json.load(handle).get("traceEvents", []))
            print(f"{path}: ok ({count} events)")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
