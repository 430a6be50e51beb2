"""Seeded monitor generation: the fuzzing campaign's corpus bootstrap.

``random_monitor(seed, index)`` builds the monitors ``expresso fuzz``
bootstraps its corpus from (and injects when every mutation operator
refuses).  The campaign depends on two properties of the generators:

* **independent derived seeds** — every corpus entry draws from its own RNG
  seeded by ``derive_seed(campaign_seed, index)`` (a stable blake2b digest,
  not Python's salted ``hash``), and every family *slot* inside a monitor
  draws its parameters from its own sub-seed.  Previously one shared RNG
  served all of a monitor's families, so teaching one generator a new knob
  (an extra draw) silently reshuffled every later family and corpus index;
  now a generator's internal draw count is isolated.  Family *selection* uses
  rendezvous hashing (highest derived digest wins), so growing the generator
  set only changes the slots the new family actually wins — existing corpora
  stay stable instead of reshuffling wholesale.
* **serializable roles** — a workload role is data, not a closure: a tuple of
  ``(method, args, per_op)`` op specs (``per_op=False`` ops run once as
  setup).  Corpus entries persist roles as JSON and mutation operators edit
  them alongside the monitor AST.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence, Tuple

from repro.benchmarks_lib.spec import ThreadOps, Workload
from repro.record import record

#: One role op spec: (method name, call args, repeated per workload op?).
OpSpec = Tuple[str, Tuple, bool]
#: One role: the op specs a thread of that role runs.
RoleSpec = Tuple[OpSpec, ...]


def derive_seed(*parts) -> int:
    """A stable 64-bit seed derived from *parts* (process/run independent)."""
    text = ":".join(str(part) for part in parts)
    digest = hashlib.blake2b(text.encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def expand_role(role: RoleSpec, ops: int) -> ThreadOps:
    """Expand a role spec into one thread's operation sequence."""
    program: ThreadOps = []
    for method, args, per_op in role:
        repeat = ops if per_op else 1
        program.extend((method, tuple(args)) for _ in range(repeat))
    return program


def balanced_workload(roles: Sequence[RoleSpec], threads: int, ops: int) -> Workload:
    """A balanced workload: every role gets the same number of threads.

    Balancing (plus idle leftovers) keeps complementary roles — producer and
    consumer, raise and lower — in matching op counts, so schedules can run
    to completion; when *threads* < number of roles the workload degrades to
    benign stalls, which the oracle classifies as such.
    """
    if not roles:
        return [[] for _ in range(threads)]
    per_role = threads // len(roles)
    if per_role == 0:
        return [expand_role(roles[index], ops) for index in range(threads)]
    workload: Workload = []
    for index in range(threads):
        role = index // per_role
        workload.append(expand_role(roles[role], ops) if role < len(roles) else [])
    return workload


def roles_to_json(roles: Sequence[RoleSpec]) -> list:
    return [[[method, list(args), per_op] for method, args, per_op in role]
            for role in roles]


def roles_from_json(data: Sequence) -> Tuple[RoleSpec, ...]:
    return tuple(
        tuple((method, tuple(args), bool(per_op)) for method, args, per_op in role)
        for role in data)


@record(frozen=True)
class GeneratedMonitor:
    """A generated monitor plus its balanced workload roles (all data)."""

    name: str
    source: str
    families: Tuple[str, ...]
    roles: Tuple[RoleSpec, ...] = ()

    def workload(self, threads: int, ops: int) -> Workload:
        return balanced_workload(self.roles, threads, ops)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def _counter_family(rng: random.Random, tag: int):
    cap = rng.randint(1, 4)
    fname = f"c{tag}"
    lines = [
        f"    unsigned int {fname} = 0;",
        f"    atomic void put{tag}() {{ waituntil ({fname} < {cap}) {{ {fname}++; }} }}",
        f"    atomic void take{tag}() {{ waituntil ({fname} > 0) {{ {fname}--; }} }}",
    ]
    roles = (((f"put{tag}", (), True),),
             ((f"take{tag}", (), True),))
    return f"counter(cap={cap})", lines, roles


def _flag_family(rng: random.Random, tag: int):
    fname = f"flag{tag}"
    lines = [
        f"    boolean {fname} = false;",
        f"    atomic void raise{tag}() {{ waituntil (!{fname}) {{ {fname} = true; }} }}",
        f"    atomic void lower{tag}() {{ waituntil ({fname}) {{ {fname} = false; }} }}",
    ]
    roles = (((f"raise{tag}", (), True),),
             ((f"lower{tag}", (), True),))
    return "flag", lines, roles


def _ticket_family(rng: random.Random, tag: int):
    # Thread-local guard (serving == t) + a two-CCR method: exercises the §6
    # waiter-snapshot tables and cross-CCR locals through the whole pipeline.
    lines = [
        f"    int next{tag} = 0;",
        f"    int serving{tag} = 0;",
        f"    atomic void ticket{tag}() {{",
        f"        int t = next{tag};",
        f"        next{tag}++;",
        f"        waituntil (serving{tag} == t) {{ serving{tag}++; }}",
        f"    }}",
    ]
    roles = (((f"ticket{tag}", (), True),),)
    return "ticket", lines, roles


def _gate_family(rng: random.Random, tag: int):
    lines = [
        f"    boolean open{tag} = false;",
        f"    int entered{tag} = 0;",
        f"    atomic void open{tag}_() {{ open{tag} = true; }}",
        f"    atomic void enter{tag}() {{ waituntil (open{tag}) {{ entered{tag}++; }} }}",
    ]
    roles = (((f"open{tag}_", (), False), (f"enter{tag}", (), True)),
             ((f"enter{tag}", (), True),))
    return "gate", lines, roles


def _branchy_family(rng: random.Random, tag: int):
    # Conditional body over an auxiliary unguarded field: exercises If
    # statements through wp/placement/codegen.
    cap = rng.randint(2, 4)
    pivot = rng.randint(1, cap - 1)
    lines = [
        f"    unsigned int b{tag} = 0;",
        f"    int aux{tag} = 0;",
        f"    atomic void push{tag}() {{",
        f"        waituntil (b{tag} < {cap}) {{",
        f"            b{tag}++;",
        f"            if (b{tag} > {pivot}) {{ aux{tag} = aux{tag} + 1; }} else {{ aux{tag} = 0; }}",
        f"        }}",
        f"    }}",
        f"    atomic void pop{tag}() {{ waituntil (b{tag} > 0) {{ b{tag}--; }} }}",
    ]
    roles = (((f"push{tag}", (), True),),
             ((f"pop{tag}", (), True),))
    return f"branchy(cap={cap},pivot={pivot})", lines, roles


_FAMILIES = (_counter_family, _flag_family, _ticket_family, _gate_family,
             _branchy_family)
_FAMILY_NAMES = tuple(family.__name__.strip("_") for family in _FAMILIES)


def family_lines(family_name: str, rng: random.Random, tag: int):
    """Instantiate one family by name (the mutation layer's add-method source)."""
    family = _FAMILIES[_FAMILY_NAMES.index(family_name)]
    return family(rng, tag)


def _pick_family(seed: int, index: int, tag: int):
    """Rendezvous-hash the family for one slot: adding a new generator only
    changes the slots the newcomer wins, never reshuffles the others."""
    return max(_FAMILIES,
               key=lambda family: derive_seed(seed, index, tag, family.__name__))


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def random_monitor(seed: int, index: int = 0) -> GeneratedMonitor:
    """Generate monitor *index* of the corpus seeded by *seed*.

    Every (monitor, family slot) pair draws from its own derived seed, so
    generated corpora are stable under generator-set growth: adding draws to
    one family, or a whole new family, leaves unrelated entries untouched.
    """
    master = random.Random(derive_seed(seed, index))
    count = master.randint(1, 3)
    names: List[str] = []
    body_lines: List[str] = []
    roles: List[RoleSpec] = []
    for tag in range(count):
        family = _pick_family(seed, index, tag)
        rng = random.Random(derive_seed(seed, index, tag, family.__name__, "params"))
        name, lines, family_roles = family(rng, tag)
        names.append(name)
        body_lines.extend(lines)
        roles.extend(family_roles)
    # Negative seeds are legal CLI input; '-' is not a legal identifier char.
    monitor_name = f"Fuzz{seed}x{index}".replace("-", "n")
    source = "\n".join([f"monitor {monitor_name} {{", *body_lines, "}"])
    return GeneratedMonitor(monitor_name, source, tuple(names), tuple(roles))
