"""Deterministic fault injection at named sites (``FaultPlan``).

Every robustness mechanism in this repository — dispatcher crash and hang
recovery, journaled campaign state, solver degradation — is tested
byte-for-byte by replaying the *same* faults at the *same* points.
Wall-clock chaos (kill a random worker, pull the plug mid-write) cannot do
that, so instrumented code declares **named fault sites** instead::

    fault_check("journal.append", token=record_type)
    fault_check("fuzz.candidate", token=entry_id)
    fault_check("disk.write", token=path.name)

The distributed campaign fabric (:mod:`repro.distrib`) adds four sites:
``store.read`` and ``store.write`` fire before every shared-store read /
write transaction (token = the operation, e.g. ``"claim"``,
``"enqueue:boot"``; additionally ``store.write`` fires with token
``"claim:<unit id>"`` right *after* a lease commits — a crash there is a
worker dying while holding a live lease), ``lease.renew`` and
``worker.heartbeat`` fire in the lease-renewal path (token = unit id), so
every failure mode of the lease protocol — torn store, mid-lease death,
missed heartbeat — is deterministically injectable.  During claim-boundary
checks and unit evaluation the plan's ``attempt`` context is the unit's
prior lease count, so default ``attempt=0`` rules kill only the first
claimant and steals/retries converge to the fault-free result.

and a :class:`FaultPlan` — a list of :class:`FaultRule` — decides, purely
from the site name, the token, and a per-site occurrence counter, whether
anything fires there.  With no plan installed every check is one module
attribute read; production code never pays for the machinery.

Actions
-------

``crash``
    Raise :class:`InjectedCrash` (a ``BaseException``, so ordinary
    ``except Exception`` recovery code cannot accidentally swallow it — the
    process state is exactly what a ``kill -9`` at that point would leave,
    minus already-flushed writes).  In pool workers the crash is escalated
    to ``os._exit`` so the driver sees a genuine ``BrokenProcessPool``.
``hang``
    Sleep for ``seconds`` (default far past any deadline) — exercises the
    dispatcher's lease deadline (``--job-deadline``).
``error``
    Raise :class:`InjectedFault` (an ``OSError`` subclass) — a recoverable
    I/O failure at disk-write sites.
``unknown``
    Only meaningful at ``solver.query``: the solver returns UNKNOWN as if
    the per-query budget had expired, driving the degradation paths.

Determinism
-----------

Occurrence counters are **per process**.  A rule with ``at=(k, ...)`` fires
at the k-th check of its site in the process that reaches it — exact for
driver-side sites and for ``workers=1`` campaigns.  For pool workers,
prefer ``match`` (substring of the token, e.g. an entry id): firing is then
decided by *what* is being processed, never by scheduling.  ``attempt``
restricts a rule to the n-th lease of a work unit (default: first attempt
only — a retried job is not re-killed, which is what lets chaos campaigns
converge to the fault-free result).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Environment variable naming a JSON fault-plan file, read by a process
#: that has no plan installed explicitly (``--fault-plan`` installs one, and
#: the dispatcher ships it to its pool workers).
PLAN_ENV = "EXPRESSO_FAULT_PLAN"

_ACTIONS = ("crash", "hang", "error", "unknown")


class InjectedFault(OSError):
    """A recoverable injected failure (disk write refused, etc.)."""


class InjectedCrash(BaseException):
    """An injected process death.

    Derives from ``BaseException`` so recovery code written for real
    failures (``except Exception``) cannot swallow it: everything between
    the fault site and the test harness unwinds, exactly like a kill.
    """


@dataclass(frozen=True)
class FaultRule:
    """One deterministic trigger: fire *action* at *site*.

    ``at`` — per-site occurrence indices (0-based) at which to fire; empty
    means every occurrence.  ``match`` — substring the site token must
    contain (the occurrence counter then counts matching checks only).
    ``attempt`` — work-unit attempt number this rule is armed for
    (``None`` = any attempt; default 0 = first attempt only for crash/hang,
    so retries succeed).
    """

    site: str
    action: str = "crash"
    at: Tuple[int, ...] = ()
    match: Optional[str] = None
    attempt: Optional[int] = 0
    seconds: float = 3600.0        # hang duration

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; "
                             f"expected one of {_ACTIONS}")

    def to_dict(self) -> dict:
        return {"site": self.site, "action": self.action,
                "at": list(self.at), "match": self.match,
                "attempt": self.attempt, "seconds": self.seconds}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        return cls(site=data["site"], action=data.get("action", "crash"),
                   at=tuple(data.get("at", ())), match=data.get("match"),
                   attempt=data.get("attempt", 0),
                   seconds=data.get("seconds", 3600.0))


@dataclass
class FaultPlan:
    """A deterministic set of fault rules plus per-site occurrence state."""

    rules: Tuple[FaultRule, ...] = ()
    #: Occurrence counters, keyed by (site, rule index) so two rules on one
    #: site with different ``match`` filters count independently.
    _counters: Dict[Tuple[str, int], int] = field(default_factory=dict)
    #: The work-unit attempt context (set around each claimed unit).
    attempt: int = 0
    #: Fired-rule log (site, token, action) — inspectable by tests.
    fired: List[Tuple[str, Optional[str], str]] = field(default_factory=list)

    def __init__(self, rules: Sequence[FaultRule] = ()):  # keep ctor simple
        self.rules = tuple(rules)
        self._counters = {}
        self.attempt = 0
        self.fired = []

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {"rules": [rule.to_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls([FaultRule.from_dict(rule) for rule in data.get("rules", ())])

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # -- the hot check -------------------------------------------------------

    def check(self, site: str, token: Optional[str] = None) -> Optional[str]:
        """Fire any armed rule for *site*; return a non-raising action name.

        Raises :class:`InjectedCrash` / :class:`InjectedFault`, sleeps for
        hangs, and returns ``"unknown"`` for solver-budget injection (the
        only action the *call site* must act on).
        """
        for index, rule in enumerate(self.rules):
            if rule.site != site:
                continue
            if rule.match is not None and (token is None
                                           or rule.match not in token):
                continue
            key = (site, index)
            occurrence = self._counters.get(key, 0)
            self._counters[key] = occurrence + 1
            if rule.at and occurrence not in rule.at:
                continue
            if rule.attempt is not None and rule.attempt != self.attempt:
                continue
            self.fired.append((site, token, rule.action))
            if rule.action == "crash":
                if os.environ.get(_IN_WORKER_ENV):
                    os._exit(83)   # a genuine worker death: no unwinding
                raise InjectedCrash(f"injected crash at {site}"
                                    + (f" [{token}]" if token else ""))
            if rule.action == "hang":
                time.sleep(rule.seconds)
                return None
            if rule.action == "error":
                raise InjectedFault(f"injected I/O failure at {site}"
                                    + (f" [{token}]" if token else ""))
            return rule.action    # "unknown"
        return None


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------

_PLAN: Optional[FaultPlan] = None
_ENV_CHECKED = False
#: Set in dispatcher pool workers so ``crash`` becomes ``os._exit``.
_IN_WORKER_ENV = "EXPRESSO_FAULT_IN_WORKER"


def install_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install *plan* process-wide; returns the previously installed plan."""
    global _PLAN, _ENV_CHECKED
    previous = _PLAN
    _PLAN = plan
    _ENV_CHECKED = True           # an explicit install overrides the env var
    return previous


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, lazily loading ``$EXPRESSO_FAULT_PLAN`` once."""
    global _PLAN, _ENV_CHECKED
    if _PLAN is None and not _ENV_CHECKED:
        _ENV_CHECKED = True
        path = os.environ.get(PLAN_ENV)
        if path:
            try:
                _PLAN = FaultPlan.from_file(path)
            except (OSError, ValueError):
                _PLAN = None      # a broken plan file must not break the run
    return _PLAN


def fault_check(site: str, token: Optional[str] = None) -> Optional[str]:
    """The one-line hook instrumented code calls at a named fault site."""
    plan = active_plan()
    if plan is None:
        return None
    return plan.check(site, token)


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install *plan* for the duration of a ``with`` block (tests)."""
    previous = install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)
