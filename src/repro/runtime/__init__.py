"""Executable monitor runtimes.

The evaluation compares three signalling disciplines on the same monitor
logic (paper §7):

* **Explicit** — condition variables with statically placed signals; both the
  Expresso-generated and the hand-written monitors use this runtime.  The
  support classes here provide the waiter-snapshot table of §6 for guards
  that mention thread-local variables.
* **AutoSynch-style** — :class:`~repro.runtime.autosynch.AutoSynchRuntime`,
  a predicate-tagging automatic-signal runtime: no spurious wake-ups, but the
  exiting thread evaluates the waiting predicates at run time.
* **Naive implicit** — :class:`~repro.runtime.implicit.ImplicitRuntime`,
  broadcast-everything automatic signalling (the classic baseline the paper
  cites as 10-50x slower than explicit signals).

All three wait and notify through one condition variable,
:class:`~repro.runtime.explicit_support.Condvar`: a FIFO queue of per-waiter
locks whose ``notify`` on an empty queue costs one test, like Java's
``Condition.signal()`` on an empty wait set, so the disciplines are compared
on their signalling decisions rather than on ``threading.Condition``'s
bookkeeping.  The cooperative twins in :mod:`repro.runtime.coop` yield
scheduler operations instead and use no OS primitive.

Names resolve on first use (:func:`repro.lazy_exports`): a generated
explicit-signal class loads only :mod:`repro.runtime.explicit_support`.
"""

from repro import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "explicit_support": "Condvar GuardWaiters MonitorMetrics",
    "autosynch": "AutoSynchRuntime",
    "coop": "CoopAutoSynchRuntime CoopImplicitRuntime",
    "implicit": "ImplicitRuntime"})

__all__ = [
    "Condvar", "GuardWaiters", "MonitorMetrics", "AutoSynchRuntime", "ImplicitRuntime",
    "CoopAutoSynchRuntime", "CoopImplicitRuntime",
]
