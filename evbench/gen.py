"""Seeded EVL program generators for the `chain` and `wide` workloads.

Each workload has a fixed pool of program *structures*: which globals
every statement reads and writes, which globals start initialized, and
how handlers register and emit each other.  The structures alone decide
the analysis work and the diagnostics, so the reference digests in
`reference.json` are keyed by pool index.  The run seed draws the
*surface* of every program (integer constants, arithmetic and
comparison operators), which the uninitialized-variables analysis does
not look at, and the order in which the deck is run.

Keeping the structures fixed is what makes two runs with different
seeds comparable: the cost of a chain program moves by a factor of 10
with its index strides alone, so a deck of structures drawn from the
seed would measure the draw, not evflow.

The `oracle` deck is the first ORACLE_DECK `randgen` programs of the
seed that do not run away (see `runs_away`); the ones passed over are
returned with the deck and printed in the workload's row.
"""

from __future__ import annotations

import random

# chain: handler h_i does L assignments g[(a*i+j) % G] = g[(b*i+j) % G] op c,
# an if/print on two globals, then registers and emits h_{i+1}.
CHAIN_HANDLERS = 6
CHAIN_GLOBALS = 12
CHAIN_ASSIGNS = 4
CHAIN_POOL = 16

# wide: 2-4 handlers over 80-120 globals with long straight-line bodies.
WIDE_POOL = 12
WIDE_STATEMENTS = 16

ORACLE_DECK = 1000
ORACLE_BOUND = 6          # schedule bound of `cli.check_program`

# About 1 in 5000 `randgen` programs square an integer in a loop without
# bound, so `check_program` runs until any deadline or raises ValueError
# printing a number of over 4300 digits: a defect of evflow, not of the
# benchmark.  The healthy programs of seeds 0 to 30 stay below 1024
# bits; the runaway ones pass it within a few squarings.
RUNAWAY_BITS = 1024

_ARITH = ("+", "-", "*")
_CMP = ("<", "<=", ">", ">=", "==", "!=")


def chain_strides() -> list[tuple[int, int]]:
    """The pool's (a, b) stride pairs: ROADMAP's (7, 3) first, then a
    fixed draw of distinct pairs with a != b."""
    rng = random.Random("evbench chain pool")
    pairs = [(7, 3)]
    while len(pairs) < CHAIN_POOL:
        pair = (rng.randrange(1, CHAIN_GLOBALS), rng.randrange(1, CHAIN_GLOBALS))
        if pair[0] != pair[1] and pair not in pairs:
            pairs.append(pair)
    return pairs


def chain_program(k: int, surface: random.Random) -> str:
    a, b = chain_strides()[k]
    n, g_count, steps = CHAIN_HANDLERS, CHAIN_GLOBALS, CHAIN_ASSIGNS
    lines: list[str] = []
    for i in range(n):
        lines.append(f"fn h{i}() {{")
        for j in range(steps):
            dst, src = (a * i + j) % g_count, (b * i + j) % g_count
            lines.append(f"  g{dst} = g{src} {surface.choice(_ARITH)} "
                         f"{surface.randint(0, 9)};")
        p, q = (a * i + steps) % g_count, (b * i + steps) % g_count
        lines.append(f"  if (g{p} {surface.choice(_CMP)} g{q}) {{ print(g{p}); }}")
        if i + 1 < n:
            lines.append(f'  register("e{i + 1}", h{i + 1});')
            lines.append(f'  emit("e{i + 1}");')
        lines.append("}")
    lines.extend(f"var g{g};" for g in range(g_count))
    lines += ['register("e0", h0);', 'emit("e0");']
    return "\n".join(lines) + "\n"


def _wide_structure(k: int) -> tuple[int, int, list[list[tuple]], list[bool]]:
    """Handler count, global count, per-handler statement skeletons and
    which globals are initialized, all fixed by the pool index."""
    rng = random.Random(f"evbench wide pool {k}")
    n_handlers = 2 + k % 3
    n_globals = 80 + 10 * (k % 5)
    per_handler = WIDE_STATEMENTS // n_handlers
    bodies = []
    for _ in range(n_handlers):
        body = []
        for _ in range(per_handler):
            x, y, z = (rng.randrange(n_globals) for _ in range(3))
            body.append(("assign" if rng.random() < 0.7 else "check", x, y, z))
        bodies.append(body)
    initialized = [rng.random() < 0.25 for _ in range(n_globals)]
    return n_handlers, n_globals, bodies, initialized


def wide_program(k: int, surface: random.Random) -> str:
    n_handlers, n_globals, bodies, initialized = _wide_structure(k)
    lines: list[str] = []
    for i, body in enumerate(bodies):
        lines.append(f"fn h{i}() {{")
        for kind, x, y, z in body:
            if kind == "assign":
                lines.append(f"  g{x} = g{y} {surface.choice(_ARITH)} g{z};")
            else:
                lines.append(f"  if (g{y} {surface.choice(_CMP)} g{z}) "
                             f"{{ print(g{x}); }}")
        if i + 1 < n_handlers:
            lines.append(f'  register("e{i + 1}", h{i + 1});')
            lines.append(f'  emit("e{i + 1}");')
        lines.append("}")
    for g, init in enumerate(initialized):
        lines.append(f"var g{g} = {surface.randint(0, 9)};" if init
                     else f"var g{g};")
    lines += ['register("e0", h0);', 'emit("e0");']
    return "\n".join(lines) + "\n"


class _Runaway(Exception):
    pass


def runs_away(source: str) -> bool:
    """Whether interpreting the program under the schedules that
    `check_program` explores makes an integer wider than RUNAWAY_BITS."""
    from evflow.eventmodel import EventModel
    from evflow.lang import interp
    from evflow.lang.parser import parse

    binop = interp._Interp._binop

    def bounded(self, op, a, b, line):
        value = binop(self, op, a, b, line)
        if type(value) is int and value.bit_length() > RUNAWAY_BITS:
            raise _Runaway
        return value

    model = EventModel.default()
    interp._Interp._binop = bounded
    try:
        interp.explore_schedules(parse(source, model=model), model, ORACLE_BOUND)
    except _Runaway:
        return True
    finally:
        interp._Interp._binop = binop
    return False


def oracle_deck(seed: int) -> tuple[list[tuple[str, str]], list[str]]:
    """The oracle deck and the ids of the runaway programs passed over."""
    from evflow.randgen import GenParams, gen_source
    params = GenParams(allow_while=True)
    programs, passed_over = [], []
    i = 0
    while len(programs) < ORACLE_DECK:
        pid = f"{seed}:{i}"
        source = gen_source(pid, params)
        (passed_over if runs_away(source) else programs).append((pid, source))
        i += 1
    return programs, [pid for pid, _ in passed_over]


def deck(workload: str, seed: int) -> list[tuple[str, str]]:
    """(program id, source) pairs in run order; byte-identical per seed.

    `chain` and `wide` ids are `<workload>-<pool index>`; `oracle` ids are
    the `evflow oracle --seed` program names `<seed>:<i>`.
    """
    if workload == "oracle":
        return oracle_deck(seed)[0]
    make, pool = {"chain": (chain_program, CHAIN_POOL),
                  "wide": (wide_program, WIDE_POOL)}[workload]
    surface = random.Random(f"evbench {workload} surface {seed}")
    programs = [(f"{workload}-{k:02d}", make(k, surface)) for k in range(pool)]
    surface.shuffle(programs)
    return programs
