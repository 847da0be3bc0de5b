"""Seeded random EVL program generator for the property suites.

Generates source text directly so every program goes through the real
parser.  All generated expressions are integer-valued, so no run of a
generated program can hit a type error; uninitialized reads still occur
and are the interesting signal.
"""

from __future__ import annotations

import random

from .record import record


@record(frozen=True)
class GenParams:
    max_handlers: int = 3
    max_events: int = 2
    max_stmts: int = 20
    allow_while: bool = False


SMALL = GenParams(max_handlers=2, max_events=1, max_stmts=8)
DEFAULT = GenParams()


class _Gen:
    def __init__(self, rng: random.Random, params: GenParams):
        self.rng = rng
        self.params = params
        self.globals = [f"g{i}" for i in range(rng.randint(1, 3))]
        self.handlers = [f"h{i}" for i in range(rng.randint(0, params.max_handlers))]
        self.events = [f"ev{i}" for i in range(1, rng.randint(1, params.max_events) + 1)]
        self.helper = rng.random() < 0.5
        self._loop_count = 0

    def expr(self, depth: int = 0) -> str:
        r = self.rng
        if depth >= 2 or r.random() < 0.5:
            if r.random() < 0.5:
                return str(r.randint(0, 9))
            return r.choice(self.globals)
        op = r.choice(["+", "-", "*"])
        return f"{self.expr(depth + 1)} {op} {self.expr(depth + 1)}"

    def cond(self) -> str:
        r = self.rng
        op = r.choice(["<", "<=", ">", ">=", "==", "!="])
        return f"{self.expr(1)} {op} {self.expr(1)}"

    def event_stmt(self) -> str:
        r = self.rng
        kind = r.random()
        handler = r.choice(self.handlers)
        if kind < 0.45:
            return f'register("{r.choice(self.events)}", {handler});'
        if kind < 0.7:
            return f'emit("{r.choice(self.events)}");'
        return f"register_async({handler});"

    def plain_stmt(self) -> str:
        r = self.rng
        kind = r.random()
        if kind < 0.45:
            return f"{r.choice(self.globals)} = {self.expr()};"
        if kind < 0.75:
            return f"print({self.expr(1)});"
        if self.helper and kind < 0.85:
            return f"bump({self.expr(1)});"
        return f"print({r.choice(self.globals)});"

    def stmt(self, budget: int, depth: int) -> list[str]:
        r = self.rng
        pad = "  " * depth
        roll = r.random()
        if roll < 0.35 and self.handlers:
            return [pad + self.event_stmt()]
        if roll < 0.5 and budget >= 3 and depth < 2:
            inner = self.body(r.randint(1, 2), depth + 1)
            lines = [f"{pad}if ({self.cond()}) {{", *inner]
            if r.random() < 0.4:
                lines.append(f"{pad}}} else {{")
                lines.extend(self.body(r.randint(1, 2), depth + 1))
            lines.append(pad + "}")
            return lines
        if roll < 0.56 and self.params.allow_while and budget >= 4 and depth < 2:
            self._loop_count += 1
            counter = f"w{self._loop_count}"
            body = self.body(r.randint(1, 2), depth + 1)
            return [
                f"{pad}var {counter} = {r.randint(1, 3)};",
                f"{pad}while ({counter} > 0) {{",
                f"{pad}  {counter} = {counter} - 1;",
                *body,
                pad + "}",
            ]
        return [pad + self.plain_stmt()]

    def body(self, n_stmts: int, depth: int) -> list[str]:
        lines: list[str] = []
        budget = n_stmts
        while budget > 0:
            chunk = self.stmt(budget, depth)
            lines.extend(chunk)
            budget -= max(1, len(chunk) - 1)
        return lines

    def generate(self) -> str:
        r = self.rng
        lines: list[str] = []
        if self.helper:
            target = r.choice(self.globals)
            lines += [f"fn bump(amount) {{ {target} = amount + 1; }}", ""]
        for h in self.handlers:
            lines.append(f"fn {h}() {{")
            lines.extend(self.body(r.randint(1, 3), 1))
            lines.append("}")
            lines.append("")
        for g in self.globals:
            if r.random() < 0.4:
                lines.append(f"var {g} = {r.randint(0, 9)};")
            else:
                lines.append(f"var {g};")
        top_budget = r.randint(2, max(2, self.params.max_stmts - 4))
        lines.extend(self.body(top_budget, 0))
        return "\n".join(lines) + "\n"


def gen_source(seed, params: GenParams = DEFAULT) -> str:
    """Deterministic program text for a seed (any hashable-to-str value)."""
    return _Gen(random.Random(str(seed)), params).generate()
