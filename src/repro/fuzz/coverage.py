"""The multi-signal coverage map: what an exploration run *discovered*.

Every fuzzing run is fingerprinted along five axes, all derived from
artifacts the pipeline and engine already produce (and previously threw
away between runs):

* ``state``     — abstracted scheduler-state shapes (:func:`state_shape`
  applied to every fingerprint the run visited);
* ``matrix``    — the shape of the SMT-proven semantic-independence matrix
  (method-index pairs proven independent, names abstracted away);
* ``dpor``      — per-run DPOR/symmetry class counts, log-bucketed so noise
  does not masquerade as coverage;
* ``placement`` — the decision pattern :mod:`repro.placement.algorithm`
  chose (signal/broadcast, conditional, §4.3 usage) as a multiset;
* ``verdict``   — the oracle verdict kinds the run produced.

Features are canonical *strings* (so maps serialize byte-identically),
grouped per axis.  :class:`CoverageMap` unions features deterministically,
reports how many were new — the power-schedule signal — and fingerprints a
run's full feature set (the corpus/finding dedup key).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

#: The canonical axis order (serialization and reporting follow it).
COVERAGE_AXES: Tuple[str, ...] = (
    "state", "matrix", "dpor", "placement", "verdict")


# ---------------------------------------------------------------------------
# The scheduler-state shape abstraction
# ---------------------------------------------------------------------------


def _abstract_value(value) -> str:
    """Abstract one shared-field value: exact small ints, clamped large ones."""
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, int):
        return str(value) if -4 <= value <= 4 else ("big" if value > 0 else "neg")
    if value is None:
        return "?"
    if isinstance(value, tuple):
        return f"t{len(value)}"
    return "o"


def state_shape(fingerprint: tuple) -> tuple:
    """Abstract a raw scheduler fingerprint into a name-free *shape*.

    Field and method identifiers are dropped (values keep their name-sorted
    order, so structure survives) and thread entries reduce to
    ``(status, sleeping?, op index)``; a mutant that merely renames a method
    therefore discovers nothing, while one that adds a field, another waiter
    or a new reachable value combination genuinely does.  Used identically
    for the coverage-guided campaign and ``TestFuzzGain``'s blind-generation
    baseline, so coverage-per-schedule comparisons are apples to apples.
    """
    if not fingerprint:
        return ()
    shared = fingerprint[0]
    threads = fingerprint[1] if len(fingerprint) > 1 else ()
    values = tuple(_abstract_value(value) for _name, value in shared)
    entries = []
    for entry in threads:
        if entry and isinstance(entry[0], tuple):
            entries.extend(entry)  # symmetry-canonicalized group
        else:
            entries.append(entry)
    thread_part = tuple(sorted(
        (entry[0], entry[1] is not None, entry[2] if len(entry) > 2 else 0)
        for entry in entries if isinstance(entry, tuple) and len(entry) >= 2))
    return (values, thread_part)


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------


def _bucket(count: int) -> int:
    """Log-bucket a counter (0, 1, 2, 3-4, 5-8, ...)."""
    return count if count <= 2 else count.bit_length() + 1


def matrix_features(explicit, matrix) -> Set[str]:
    """The semantic-independence-matrix shape as features.

    Method names are mapped to their declaration index, so two monitors
    whose matrices have the same *shape* share the feature regardless of
    naming; the method count itself is a feature too.
    """
    order = {method.name: index for index, method in enumerate(explicit.methods)}
    features = {f"methods:{len(order)}"}
    if not matrix:
        return features
    pairs = sorted(
        tuple(sorted((order.get(a, -1), order.get(b, -1))))
        for (a, b), independent in matrix.items() if independent)
    digest = hashlib.blake2b(repr(pairs).encode(), digest_size=8).hexdigest()
    features.add(f"shape:{digest}")
    features.add(f"independent:{_bucket(len(pairs))}")
    return features


def placement_features(signature: Sequence[Tuple]) -> Set[str]:
    """The placement-decision pattern as a multiset of decision kinds."""
    counts: Dict[str, int] = {}
    for _label, needs, conditional, broadcast, used_comm in signature:
        if not needs:
            kind = "none"
        else:
            kind = "broadcast" if broadcast else "signal"
            kind += "?" if conditional else "!"
            if used_comm:
                kind += "+4.3"
        counts[kind] = counts.get(kind, 0) + 1
    return {f"{kind}:{_bucket(count)}" for kind, count in counts.items()}


def dpor_features(result) -> Set[str]:
    """Log-bucketed reduction statistics of one exploration run."""
    return {
        f"judged:{_bucket(result.schedules_run)}",
        f"states:{_bucket(result.distinct_states)}",
        f"por:{_bucket(result.por_skipped)}",
        f"sym:{_bucket(result.symmetry_skipped)}",
        f"exhausted:{result.exhausted}",
    }


def verdict_features(result) -> Set[str]:
    features = set()
    if result.completed:
        features.add("completed")
    if result.stalls:
        features.add("stall")
    for failure in result.failures:
        features.add(f"failure:{failure.kind}")
    return features or {"empty"}


def run_features(result, explicit=None, matrix=None,
                 placement_signature=None) -> Dict[str, Set[str]]:
    """All coverage features of one exploration run, grouped by axis."""
    features: Dict[str, Set[str]] = {
        "state": {format(shape, "x") for shape in (result.state_shapes or ())},
        "dpor": dpor_features(result),
        "verdict": verdict_features(result),
        "matrix": (matrix_features(explicit, matrix)
                   if explicit is not None else set()),
        "placement": (placement_features(placement_signature)
                      if placement_signature else set()),
    }
    return features


# ---------------------------------------------------------------------------
# The map
# ---------------------------------------------------------------------------


def coverage_fingerprint(features: Mapping[str, Iterable[str]]) -> str:
    """A stable hex fingerprint of one run's full feature set."""
    canonical = [(axis, sorted(set(features.get(axis, ()))))
                 for axis in COVERAGE_AXES]
    digest = hashlib.blake2b(repr(canonical).encode(), digest_size=16)
    return digest.hexdigest()


class CoverageMap:
    """The campaign-global union of discovered features, per axis.

    Merging is pure set union applied in a deterministic order (the campaign
    folds worker results by batch-slot index), so the serialized map is
    byte-identical across runs and worker counts.
    """

    def __init__(self, axes: Mapping[str, Iterable[str]] = ()):
        self.axes: Dict[str, Set[str]] = {axis: set() for axis in COVERAGE_AXES}
        if axes:
            for axis, values in dict(axes).items():
                self.axes.setdefault(axis, set()).update(values)

    def add(self, features: Mapping[str, Iterable[str]]) -> int:
        """Union one run's features in; returns how many were new."""
        new = 0
        for axis, values in features.items():
            bucket = self.axes.setdefault(axis, set())
            for value in values:
                if value not in bucket:
                    bucket.add(value)
                    new += 1
        return new

    def preview(self, features: Mapping[str, Iterable[str]]) -> int:
        """How many of *features* would be new, without adding them."""
        new = 0
        for axis, values in features.items():
            bucket = self.axes.get(axis, set())
            new += sum(1 for value in set(values) if value not in bucket)
        return new

    def total(self) -> int:
        return sum(len(values) for values in self.axes.values())

    def counts(self) -> Dict[str, int]:
        return {axis: len(self.axes.get(axis, ())) for axis in COVERAGE_AXES}

    def to_dict(self) -> dict:
        return {axis: sorted(self.axes.get(axis, ()))
                for axis in COVERAGE_AXES}

    @classmethod
    def from_dict(cls, data: Mapping[str, Iterable[str]]) -> "CoverageMap":
        return cls(data)
