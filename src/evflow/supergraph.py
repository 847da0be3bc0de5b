"""Interprocedural control-flow supergraph with an event-loop node.

Each function contributes a start node, an end node and one node per
statement; calls split into a call-site/return-site pair.  A single
event-loop node acts as a zero-length procedure of its own: explicit
emissions call into it and return to the emitter, the end of top-level
calls into it with no return site, and dispatch calls leave it for every
statically registered handler, whose end returns to it.

A node holds structure only: its id, kind, procedure and the sid of its
statement, by which a reader takes the statement's line, file or DOT
text from the program.

The event operations of each edge are read off the program's record of
classified calls (`Program.events`) and kept per edge id; most edges
have none.
"""

from __future__ import annotations

from enum import Enum

from .lang.ast import (
    Assign,
    Call,
    If,
    Program,
    Return,
    Stmt,
    TOP_LEVEL,
    VarDecl,
    While,
)
from .record import record

EVENT_LOOP = "loop"
LOOP_PROC = "@loop"


class NodeKind(Enum):
    START = "start"
    END = "end"
    STMT = "stmt"
    CALL_SITE = "call"
    RETURN_SITE = "ret"
    EVENT_LOOP = "loop"


class EdgeKind(Enum):
    INTRA = "intra"
    CALL = "call"
    RETURN = "return"
    CALL_TO_RETURN = "call-to-return"


@record(frozen=True)
class Node:
    id: str
    kind: NodeKind
    func: str                 # owning procedure; LOOP_PROC for the loop node
    sid: int | None = None    # the statement it stands for, if any


@record(frozen=True)
class Edge:
    eid: int
    src: str
    dst: str
    kind: EdgeKind
    ret_site: str | None = None  # for call edges; None means no return


@record(frozen=True)
class EventOp:
    kind: str      # "register" | "emit" | "invoke" | "emit_register"
    handler: str


class Supergraph:
    def __init__(self):
        self.nodes: dict[str, Node] = {}
        self.edges: list[Edge] = []
        self._out: dict[str, list[Edge]] = {}
        self.funcs: dict[str, tuple[str, str]] = {}  # proc -> (start, end)

    def add_node(self, node: Node) -> str:
        self.nodes[node.id] = node
        self._out.setdefault(node.id, [])
        return node.id

    def add_edge(self, src: str, dst: str, kind: EdgeKind,
                 ret_site: str | None = None) -> Edge:
        edge = Edge(len(self.edges), src, dst, kind, ret_site)
        self.edges.append(edge)
        self._out[src].append(edge)
        return edge

    def out_edges(self, node_id: str) -> list[Edge]:
        return self._out[node_id]

    def proc_of(self, node_id: str) -> str:
        return self.nodes[node_id].func

    def start_of(self, proc: str) -> str:
        return self.funcs[proc][0]

    def end_of(self, proc: str) -> str:
        return self.funcs[proc][1]

    def entry(self) -> str:
        return self.start_of(TOP_LEVEL)


@record
class BuildResult:
    graph: Supergraph
    ops: dict[int, tuple[EventOp, ...]]  # edge id -> its event operations
    handlers: tuple[str, ...]
    warnings: list[str]


def handler_registry(program: Program) -> dict[str, frozenset[str]]:
    """Flow-insensitive map from each event to every handler ever
    registered for it anywhere in the program."""
    out: dict[str, set[str]] = {}
    for op, _ in program.events.values():
        if op[0] == "reg":
            out.setdefault(op[1], set()).add(op[2])
    return {e: frozenset(hs) for e, hs in out.items()}


class _Builder:
    def __init__(self, program: Program):
        self.program = program
        self.g = Supergraph()
        self.registry = handler_registry(program)
        self.handlers = tuple(sorted({h for hs in self.registry.values()
                                      for h in hs}))
        self.pending_ops: dict[str, tuple[EventOp, ...]] = {}  # node -> ops
        self.ops: dict[int, tuple[EventOp, ...]] = {}
        self.warnings: list[str] = []

    def build(self) -> BuildResult:
        self.g.add_node(Node(EVENT_LOOP, NodeKind.EVENT_LOOP, LOOP_PROC))
        self.g.funcs[LOOP_PROC] = (EVENT_LOOP, EVENT_LOOP)
        for f in self.program.functions:
            start = self.g.add_node(Node(f"start:{f.name}", NodeKind.START,
                                         f.name))
            end = self.g.add_node(Node(f"end:{f.name}", NodeKind.END, f.name))
            self.g.funcs[f.name] = (start, end)
        for f in self.program.functions:
            self._lower_function(f)
        self._wire_event_loop()
        self._attach_stmt_ops()
        return BuildResult(self.g, self.ops, self.handlers, self.warnings)

    # -- function lowering --

    def _lower_function(self, f) -> None:
        start, end = self.g.funcs[f.name]
        entry, exits = self._lower_body(f.body, f.name)
        if entry is None:
            self.g.add_edge(start, end, EdgeKind.INTRA)
        else:
            self.g.add_edge(start, entry, EdgeKind.INTRA)
            for node in exits:
                self.g.add_edge(node, end, EdgeKind.INTRA)

    def _lower_body(self, body, func: str):
        entry: str | None = None
        exits: list[str] = []
        for s in body:
            s_entry, s_exits = self._lower_stmt(s, func)
            if entry is None:
                entry = s_entry
            for node in exits:
                self.g.add_edge(node, s_entry, EdgeKind.INTRA)
            exits = s_exits
        return entry, exits

    def _stmt_node(self, s: Stmt, func: str) -> str:
        return self.g.add_node(Node(f"stmt:{func}:{s.sid}", NodeKind.STMT,
                                    func, s.sid))

    def _call(self, s: Stmt, func: str, callee_proc: str):
        """Lower `s` to a call-site/return-site pair that calls
        `callee_proc` (LOOP_PROC for an emit) and returns
        `(call site, return site, call edge, call-to-return edge)`."""
        c = self.g.add_node(Node(f"call:{func}:{s.sid}", NodeKind.CALL_SITE,
                                 func, s.sid))
        r = self.g.add_node(Node(f"ret:{func}:{s.sid}", NodeKind.RETURN_SITE,
                                 func, s.sid))
        callee_start, callee_end = self.g.funcs[callee_proc]
        call_edge = self.g.add_edge(c, callee_start, EdgeKind.CALL, ret_site=r)
        self.g.add_edge(callee_end, r, EdgeKind.RETURN)
        c2r = self.g.add_edge(c, r, EdgeKind.CALL_TO_RETURN)
        return c, r, call_edge, c2r

    def _lower_stmt(self, s: Stmt, func: str):
        if isinstance(s, If):
            cond = self._stmt_node(s, func)
            exits: list[str] = []
            for body in (s.then_body, s.else_body):
                entry, body_exits = self._lower_body(body, func)
                if entry is None:
                    if cond not in exits:
                        exits.append(cond)
                else:
                    self.g.add_edge(cond, entry, EdgeKind.INTRA)
                    exits.extend(body_exits)
            return cond, exits
        if isinstance(s, While):
            cond = self._stmt_node(s, func)
            entry, body_exits = self._lower_body(s.body, func)
            if entry is not None:
                self.g.add_edge(cond, entry, EdgeKind.INTRA)
                for node in body_exits:
                    self.g.add_edge(node, cond, EdgeKind.INTRA)
            return cond, [cond]
        if isinstance(s, Return):
            node = self._stmt_node(s, func)
            self.g.add_edge(node, self.g.end_of(func), EdgeKind.INTRA)
            return node, []
        if isinstance(s, Call) and self.program.has_function(s.callee):
            c, r, _, _ = self._call(s, func, s.callee)
            return c, [r]
        op = self.program.events[s.sid][0] if isinstance(s, Call) else None
        if op is not None and op[0] == "emit":
            return self._lower_emit(s, func, op[1])
        node = self._stmt_node(s, func)
        if op is not None:
            kind = "emit_register" if op[3] else "register"
            self.pending_ops[node] = (EventOp(kind, op[2]),)
        return node, [node]

    def _lower_emit(self, s: Stmt, func: str, event: str):
        ops = tuple(EventOp("emit", h) for h in sorted(self.registry.get(event, ())))
        if not ops:
            where = f"{s.file}:" if s.file else ""
            self.warnings.append(f"{where}{s.line}: event '{event}' is "
                                 f"emitted but has no registered handler "
                                 f"anywhere")
        c, r, call_edge, c2r = self._call(s, func, LOOP_PROC)
        if ops:
            self.ops[call_edge.eid] = ops
            self.ops[c2r.eid] = ops
        return c, [r]

    # -- event loop wiring --

    def _wire_event_loop(self) -> None:
        # the end of top-level calls into the loop and never returns
        self.g.add_edge(self.g.end_of(TOP_LEVEL), EVENT_LOOP, EdgeKind.CALL)
        for h in self.handlers:
            dispatch = self.g.add_edge(EVENT_LOOP, self.g.start_of(h),
                                       EdgeKind.CALL, ret_site=EVENT_LOOP)
            self.ops[dispatch.eid] = (EventOp("invoke", h),)
            self.g.add_edge(self.g.end_of(h), EVENT_LOOP, EdgeKind.RETURN)

    def _attach_stmt_ops(self) -> None:
        for node_id, ops in self.pending_ops.items():
            out = [e for e in self.g.out_edges(node_id)
                   if e.kind is EdgeKind.INTRA]
            assert len(out) == 1, f"event statement {node_id} must have one exit"
            self.ops[out[0].eid] = ops


def build_supergraph(program: Program) -> BuildResult:
    """Construct the supergraph, its per-edge event operations and the
    handler set."""
    return _Builder(program).build()


def node_for_sid(graph: Supergraph, program: Program, sid: int) -> str:
    """The supergraph node where the statement with this sid executes
    (its call-site node for statements lowered to call/return pairs)."""
    func = program.func_of_stmt(sid)
    for prefix in ("stmt", "call"):
        node_id = f"{prefix}:{func}:{sid}"
        if node_id in graph.nodes:
            return node_id
    raise KeyError(f"no supergraph node for statement {sid}")


# --- DOT export -------------------------------------------------------------

_DOT_STYLES = {
    EdgeKind.CALL: "dashed",
    EdgeKind.RETURN: "dashed",
    EdgeKind.CALL_TO_RETURN: "dotted",
    EdgeKind.INTRA: "",
}


def supergraph_dot(graph: Supergraph, ops: dict[int, tuple[EventOp, ...]],
                   program: Program) -> str:
    """Render the supergraph in DOT: one cluster per function, each node
    labelled with the text of its statement in `program`, dashed
    interprocedural edges, each edge labelled with its event operations."""
    lines = ["digraph supergraph {", '  node [shape=box fontsize=10];']
    funcs: dict[str, list[Node]] = {}
    for node in graph.nodes.values():
        funcs.setdefault(node.func, []).append(node)
    for i, (func, nodes) in enumerate(sorted(funcs.items())):
        if func == LOOP_PROC:
            for node in nodes:
                lines.append(f'  "{node.id}" [label="event loop" shape=ellipse];')
            continue
        lines.append(f'  subgraph cluster_{i} {{')
        lines.append(f'    label="{func}";')
        for node in nodes:
            label = _dot_escape(_node_text(node, program))
            lines.append(f'    "{node.id}" [label="{label}"];')
        lines.append("  }")
    for edge in graph.edges:
        style = _DOT_STYLES[edge.kind]
        attrs = [f'style="{style}"'] if style else []
        if edge.eid in ops:
            text = ", ".join(f"{op.kind} {op.handler}" for op in ops[edge.eid])
            attrs.append(f'label="{_dot_escape(text)}"')
        attr_text = f' [{" ".join(attrs)}]' if attrs else ""
        lines.append(f'  "{edge.src}" -> "{edge.dst}"{attr_text};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _node_text(node: Node, program: Program) -> str:
    """The DOT label of a node in a procedure's cluster."""
    if node.sid is None:
        return f"{node.kind.value} {node.func}"
    s = program.stmt(node.sid)
    event = program.events.get(node.sid)
    if event is not None and event[0][0] == "emit":
        text = f'emit "{event[0][1]}"'
    elif isinstance(s, VarDecl):
        text = f"var {s.name}"
    elif isinstance(s, Assign):
        text = f"{s.name} = ..."
    elif isinstance(s, Call):
        text = f"{s.callee}(...)"
    else:
        text = type(s).__name__.lower()     # print, if, while, return
    return f"after {text}" if node.kind is NodeKind.RETURN_SITE else text


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
