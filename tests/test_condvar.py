"""The threaded runtimes' condition variable, under real OS threads.

:class:`repro.runtime.Condvar` replaces ``threading.Condition`` in every
threaded discipline (the generated explicit-signal monitors and both
automatic runtimes).  These tests drive it with real threads: FIFO wake-up
order, broadcast, waits that leave by exception, and a lost-wake-up sweep
over every suite monitor and discipline.  The cooperative emission used by
exploration must not change at all, so its source text is pinned.
"""

import hashlib
import signal
import sys
import threading
import time

import pytest

from repro.benchmarks_lib import ALL_BENCHMARKS
from repro.benchmarks_lib.spec import shuffle_workload
from repro.explore.engine import coop_monitor_and_class
from repro.harness.saturation import (
    DISCIPLINES,
    build_monitor_class,
    run_saturation,
)
from repro.runtime import AutoSynchRuntime, Condvar


def _until(predicate, seconds=5.0):
    """Poll *predicate* until it holds; fail the test after *seconds*."""
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.001)


def _parked(lock, cond, count):
    def check():
        with lock:
            return len(cond) == count
    return check


def _start_waiter(lock, cond, woken, name):
    """Start a thread that parks on *cond* and records *name* once woken."""
    def body():
        with lock:
            cond.wait()
            woken.append(name)
    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread


class TestCondvar:
    def test_notify_without_waiter_is_a_no_op(self):
        lock = threading.Lock()
        cond = Condvar(lock)
        with lock:
            cond.notify()
            cond.notify_all()
            assert len(cond) == 0
        assert not lock.locked()

    def test_notify_wakes_waiters_in_park_order(self):
        lock = threading.Lock()
        cond = Condvar(lock)
        woken = []
        threads = []
        for name in range(3):
            threads.append(_start_waiter(lock, cond, woken, name))
            _until(_parked(lock, cond, name + 1))
        for count in range(1, 4):
            with lock:
                cond.notify()
            _until(lambda: len(woken) == count)
        for thread in threads:
            thread.join(5.0)
        assert woken == [0, 1, 2]
        assert len(cond) == 0

    def test_notify_all_wakes_every_waiter(self):
        lock = threading.Lock()
        cond = Condvar(lock)
        woken = []
        threads = [_start_waiter(lock, cond, woken, name) for name in range(4)]
        _until(_parked(lock, cond, 4))
        with lock:
            cond.notify_all()
            assert len(cond) == 0
        for thread in threads:
            thread.join(5.0)
            assert not thread.is_alive()
        assert sorted(woken) == [0, 1, 2, 3]

    def test_wait_without_the_lock_leaves_no_entry(self):
        cond = Condvar(threading.Lock())
        with pytest.raises(RuntimeError):
            cond.wait()
        assert len(cond) == 0

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"),
                        reason="needs POSIX signals")
    def test_interrupted_wait_leaves_no_stale_entry(self):
        """A parked wait that a signal handler interrupts re-acquires the
        lock, drops its entry, and the next notify reaches a real waiter.

        A signal that lands after the waiter has released the GIL but
        before it blocks runs its handler only once the blocking acquire
        returns, which never happens here.  So the interrupter re-sends
        the signal until the handler has run, and the handler raises on
        its first delivery only."""

        class Interrupted(Exception):
            pass

        delivered = threading.Event()

        def raise_interrupted(_signum, _frame):
            if not delivered.is_set():
                delivered.set()
                raise Interrupted()

        lock = threading.Lock()
        cond = Condvar(lock)
        main = threading.get_ident()

        def interrupt_once_parked():
            _until(_parked(lock, cond, 1))
            while not delivered.is_set():
                signal.pthread_kill(main, signal.SIGUSR1)
                delivered.wait(0.01)

        previous = signal.signal(signal.SIGUSR1, raise_interrupted)
        try:
            interrupter = threading.Thread(target=interrupt_once_parked, daemon=True)
            with lock:
                interrupter.start()
                with pytest.raises(Interrupted):
                    cond.wait()
                assert lock.locked()
                assert len(cond) == 0
            interrupter.join(5.0)
        finally:
            signal.signal(signal.SIGUSR1, previous)

        woken = []
        waiter = _start_waiter(lock, cond, woken, "real")
        _until(_parked(lock, cond, 1))
        with lock:
            cond.notify()
        waiter.join(5.0)
        assert woken == ["real"]

    def test_autosynch_waiters_park_on_condvars(self):
        runtime = AutoSynchRuntime()
        state = {"go": False}
        waiter = threading.Thread(
            target=lambda: runtime.execute(lambda: state["go"], lambda: None),
            daemon=True)
        waiter.start()

        def parked():
            with runtime.lock:
                return runtime.metrics.waits == 1

        _until(parked)
        with runtime.lock:
            assert isinstance(runtime._waiters[0].condition, Condvar)
        runtime.execute(lambda: True, lambda: state.update(go=True))
        waiter.join(5.0)
        assert not waiter.is_alive()


#: SHA-256 over the cooperative (exploration) sources of the 14 suite
#: monitors in all four disciplines: the threaded runtime must not change a
#: byte of what exploration runs.
COOP_SOURCES_SHA256 = "6a6aecbb6579c2090f50f52518437a427e6c5f2496b43b2c2e4b7fa4b839537a"


class TestDisciplines:
    def test_no_discipline_holds_a_threading_condition(self):
        for spec in ALL_BENCHMARKS.values():
            for discipline in DISCIPLINES:
                instance = build_monitor_class(spec, discipline)()
                holders = [instance] + ([instance._rt] if hasattr(instance, "_rt") else [])
                for holder in holders:
                    for name, value in vars(holder).items():
                        assert not isinstance(value, threading.Condition), (
                            f"{spec.name}/{discipline}: {name}")
                if discipline in ("expresso", "explicit"):
                    assert any(isinstance(value, Condvar)
                               for value in vars(instance).values()), spec.name

    def test_coop_sources_are_unchanged(self):
        digest = hashlib.sha256()
        for name in sorted(ALL_BENCHMARKS):
            for discipline in DISCIPLINES:
                _, cls = coop_monitor_and_class(ALL_BENCHMARKS[name], discipline)
                digest.update(f"{name}/{discipline}\0".encode())
                digest.update(cls._coop_source.encode())
        assert digest.hexdigest() == COOP_SOURCES_SHA256


def _expected_operations(spec, discipline, workload):
    """What ``metrics.operations`` counts: one per explicit-signal method
    call, one per CCR an automatic runtime executes."""
    if discipline in ("expresso", "explicit"):
        return sum(len(ops) for ops in workload)
    monitor = spec.monitor()
    return sum(len(monitor.method(name).ccrs) for ops in workload for name, _ in ops)


@pytest.fixture
def frequent_thread_switches():
    """Hand the interpreter lock over every microsecond instead of every
    5 ms, so that small workloads interleave and block: at the default
    interval seven of the 14 monitors never wait at 40 operations per
    thread."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


@pytest.mark.usefixtures("frequent_thread_switches")
@pytest.mark.parametrize("discipline", DISCIPLINES)
@pytest.mark.parametrize("spec", ALL_BENCHMARKS.values(), ids=lambda s: s.name)
def test_no_lost_wakeup_under_real_threads(spec, discipline):
    """Every monitor and discipline finishes small shuffled workloads at 2
    and 3 threads; a lost wake-up would hang a run into SaturationTimeout."""
    ops_per_thread = 40
    for threads in (2, 3):
        for seed in (1, 2, 3):
            run = run_saturation(spec, discipline, threads, ops_per_thread,
                                 timeout_seconds=10.0, seed=seed)
            workload = shuffle_workload(spec.workload(threads, ops_per_thread), seed)
            assert run.operations == sum(len(ops) for ops in workload)
            assert run.metrics["operations"] == _expected_operations(
                spec, discipline, workload)
