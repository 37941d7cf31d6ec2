"""Flow graphs: construction operators and build-time validation (paper §2–3).

A flow graph is a directed acyclic graph of operation nodes built with the
``>>`` operator (sequence) and ``+=`` (add an alternative path)::

    node_split = FlowgraphNode(MySplit, main_threads, ConstantRoute)
    node_op1   = FlowgraphNode(MyOpOne, workers, RoundRobinRoute)
    node_op2   = FlowgraphNode(MyOpTwo, workers, RoundRobinRoute)
    node_merge = FlowgraphNode(MyMerge, main_threads, ConstantRoute)

    builder  = node_split >> node_op1 >> node_merge
    builder += node_split >> node_op2 >> node_merge
    graph = Flowgraph(builder, "two-paths")

Freezing the builder into a :class:`Flowgraph` performs the validation the
C++ library does at compile time:

- the graph is a DAG with a unique entry and exit;
- adjacent operations have compatible token types, and every posted token
  type dispatches to exactly one successor (multiple paths are selected by
  token type, as in the paper's Figure 3);
- split/merge constructs nest properly: every merge/stream pops the
  split/stream that opened the enclosing group, consistently across all
  paths, and each split reconverges to a single matching merge.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..serial.token import Token
from .ops import Operation, OpKind
from .routing import ConstantRoute, Route
from .threads import ThreadCollection

__all__ = ["FlowgraphNode", "FlowgraphBuilder", "Flowgraph", "GraphError"]


class GraphError(ValueError):
    """Raised when a flow graph is structurally invalid."""


class FlowgraphNode:
    """One operation placement: (operation class, collection, route).

    The same node object may appear in several paths; object identity
    defines graph-node identity.
    """

    def __init__(
        self,
        op_class: Type[Operation],
        collection: ThreadCollection,
        route_class: Type[Route] = ConstantRoute,
        name: str = "",
    ):
        if not (isinstance(op_class, type) and issubclass(op_class, Operation)):
            raise TypeError(f"op_class must be an Operation subclass, got {op_class!r}")
        if not isinstance(collection, ThreadCollection):
            raise TypeError("collection must be a ThreadCollection")
        if not (isinstance(route_class, type) and issubclass(route_class, Route)):
            raise TypeError("route_class must be a Route subclass")
        op_class.check_signature()
        self.op_class = op_class
        self.collection = collection
        self.route_class = route_class
        self.name = name or op_class.__name__
        #: execute() is a generator yielding effect requests (vs a plain
        #: function run atomically); fixed per class, read per token.
        self.generator_body = inspect.isgeneratorfunction(op_class.execute)
        #: the class overrides cost(); a plain body of one that does not
        #: charges nothing, so the scheduler skips the call
        self.declares_cost = op_class.cost is not Operation.cost

    @property
    def kind(self) -> str:
        return self.op_class.kind

    def __rshift__(self, other: "FlowgraphNode") -> "FlowgraphBuilder":
        return FlowgraphBuilder._from_edge(self, other)

    def as_builder(self) -> "FlowgraphBuilder":
        """A builder containing just this node (single-operation graph)."""
        b = FlowgraphBuilder()
        b._note_node(self)
        b._tail = self
        return b

    def __repr__(self) -> str:
        return f"<FlowgraphNode {self.name} kind={self.kind}>"


class FlowgraphBuilder:
    """Accumulates nodes and edges; supports ``>>`` chaining and ``+=``."""

    def __init__(self) -> None:
        self._nodes: List[FlowgraphNode] = []  # insertion order
        self._edges: List[Tuple[FlowgraphNode, FlowgraphNode]] = []
        self._tail: Optional[FlowgraphNode] = None

    @classmethod
    def _from_edge(cls, a: FlowgraphNode, b: FlowgraphNode) -> "FlowgraphBuilder":
        builder = cls()
        builder._note_node(a)
        builder._add_edge(a, b)
        return builder

    def _note_node(self, node: FlowgraphNode) -> None:
        if node not in self._nodes:
            self._nodes.append(node)

    def _add_edge(self, a: FlowgraphNode, b: FlowgraphNode) -> None:
        if a is b:
            raise GraphError(f"self-loop on {a.name}")
        self._note_node(a)
        self._note_node(b)
        if (a, b) not in self._edges:
            self._edges.append((a, b))
        self._tail = b

    def __rshift__(self, other: FlowgraphNode) -> "FlowgraphBuilder":
        if self._tail is None:
            raise GraphError("cannot chain >> on an empty builder")
        self._add_edge(self._tail, other)
        return self

    def __iadd__(self, other: "FlowgraphBuilder | FlowgraphNode") -> "FlowgraphBuilder":
        if isinstance(other, FlowgraphNode):
            other = other.as_builder()
        if not isinstance(other, FlowgraphBuilder):
            raise TypeError("+= expects a FlowgraphBuilder or FlowgraphNode")
        for node in other._nodes:
            self._note_node(node)
        for a, b in other._edges:
            if (a, b) not in self._edges:
                self._edges.append((a, b))
        self._tail = other._tail or self._tail
        return self

    @property
    def nodes(self) -> List[FlowgraphNode]:
        return list(self._nodes)

    @property
    def edges(self) -> List[Tuple[FlowgraphNode, FlowgraphNode]]:
        return list(self._edges)


class Flowgraph:
    """A validated, frozen flow graph, ready to execute.

    Node ids are dense ints in insertion order; :attr:`entry` / :attr:`exit`
    are node ids.  :meth:`dispatch` resolves the successor for a posted
    token type; :meth:`matching_merge` gives the merge/stream node closing
    the group opened by a split/stream node.
    """

    def __init__(self, builder: "FlowgraphBuilder | FlowgraphNode", name: str = "",
                 scatter: bool = False):
        if isinstance(builder, FlowgraphNode):
            builder = builder.as_builder()
        if not builder.nodes:
            raise GraphError("empty flow graph")
        self.name = name or "graph"
        #: A *scatter graph* ends inside one open split-merge group: its
        #: exit emits multiple depth-1 tokens that are merged by the
        #: *calling* application (the paper's future-work
        #: "inter-application split and merge operations", §6).
        self.scatter = scatter
        #: node id of the opener whose group leaves the graph (scatter only)
        self.scatter_opener: Optional[int] = None
        self._nodes: List[FlowgraphNode] = builder.nodes
        self._ids: Dict[FlowgraphNode, int] = {
            n: i for i, n in enumerate(self._nodes)
        }
        self._succ: Dict[int, List[int]] = {i: [] for i in range(len(self._nodes))}
        self._pred: Dict[int, List[int]] = {i: [] for i in range(len(self._nodes))}
        for a, b in builder.edges:
            self._succ[self._ids[a]].append(self._ids[b])
            self._pred[self._ids[b]].append(self._ids[a])
        self.entry = self._find_entry()
        self.exit = self._find_exit()
        self._dispatch: Dict[Tuple[int, Type[Token]], Optional[int]] = {}
        self._matching: Dict[int, int] = {}
        self._depth_in: Dict[int, int] = {}
        self._check_acyclic()
        self._check_types()
        self._check_structure()

    # -- accessors ---------------------------------------------------------
    def node(self, node_id: int) -> FlowgraphNode:
        return self._nodes[node_id]

    @property
    def node_ids(self) -> List[int]:
        return list(range(len(self._nodes)))

    def successors(self, node_id: int) -> List[int]:
        return list(self._succ[node_id])

    def predecessors(self, node_id: int) -> List[int]:
        return list(self._pred[node_id])

    def collections(self) -> List[ThreadCollection]:
        """All thread collections used, in node order, deduplicated."""
        seen: List[ThreadCollection] = []
        for n in self._nodes:
            if n.collection not in seen:
                seen.append(n.collection)
        return seen

    def dispatch(self, node_id: int, token_type: Type[Token]) -> Optional[int]:
        """Successor node id receiving a *token_type* posted by *node_id*.

        ``None`` when *node_id* is the exit (the token is a graph result).
        """
        key = (node_id, token_type)
        if key in self._dispatch:
            return self._dispatch[key]
        candidates = [
            s for s in self._succ[node_id]
            if self._nodes[s].op_class.accepts(token_type)
        ]
        if not candidates:
            if node_id == self.exit:
                self._dispatch[key] = None
                return None
            raise GraphError(
                f"{self._nodes[node_id].name} posted {token_type.__name__} "
                f"but no successor accepts it"
            )
        if len(candidates) > 1:
            names = [self._nodes[c].name for c in candidates]
            raise GraphError(
                f"{token_type.__name__} from {self._nodes[node_id].name} is "
                f"ambiguous: accepted by {names}"
            )
        self._dispatch[key] = candidates[0]
        return candidates[0]

    def matching_merge(self, opener_id: int) -> int:
        """The merge/stream node closing the group opened by *opener_id*."""
        try:
            return self._matching[opener_id]
        except KeyError:
            raise GraphError(
                f"{self._nodes[opener_id].name} does not open a group"
            ) from None

    def group_depth(self, node_id: int) -> int:
        """Split-nesting depth of tokens *entering* this node."""
        return self._depth_in[node_id]

    # -- validation ----------------------------------------------------------
    def _find_entry(self) -> int:
        entries = [i for i in self._succ if not self._pred[i]]
        if len(entries) != 1:
            names = [self._nodes[i].name for i in entries]
            raise GraphError(f"graph must have exactly one entry, found {names}")
        return entries[0]

    def _find_exit(self) -> int:
        exits = [i for i in self._succ if not self._succ[i]]
        if len(exits) != 1:
            names = [self._nodes[i].name for i in exits]
            raise GraphError(f"graph must have exactly one exit, found {names}")
        return exits[0]

    def _check_acyclic(self) -> None:
        state: Dict[int, int] = {}

        def visit(u: int, stack: Tuple[int, ...]) -> None:
            if state.get(u) == 1:
                names = [self._nodes[i].name for i in stack + (u,)]
                raise GraphError(f"cycle in flow graph: {' -> '.join(names)}")
            if state.get(u) == 2:
                return
            state[u] = 1
            for v in self._succ[u]:
                visit(v, stack + (u,))
            state[u] = 2

        visit(self.entry, ())
        unreached = [
            self._nodes[i].name for i in self._succ if state.get(i) != 2
        ]
        if unreached:
            raise GraphError(f"nodes unreachable from entry: {unreached}")

    def _check_types(self) -> None:
        for u, succs in self._succ.items():
            for v in succs:
                out = self._nodes[u].op_class.out_types
                if not any(self._nodes[v].op_class.accepts(t) for t in out):
                    raise GraphError(
                        f"type mismatch on edge {self._nodes[u].name} >> "
                        f"{self._nodes[v].name}: outputs "
                        f"{[t.__name__ for t in out]} not accepted by "
                        f"{self._nodes[v].op_class.__name__}"
                    )
            # every declared out type must go somewhere (unless exit)
            if u != self.exit:
                for t in self._nodes[u].op_class.out_types:
                    self.dispatch(u, t)

    def _check_structure(self) -> None:
        """Propagate group stacks; record split→merge matching."""
        stacks: Dict[int, Tuple[int, ...]] = {}
        order = self._topo_order()
        stacks[self.entry] = ()
        for u in order:
            stack_in = stacks[u]
            node = self._nodes[u]
            self._depth_in[u] = len(stack_in)
            if node.kind == OpKind.LEAF:
                stack_out = stack_in
            elif node.kind == OpKind.SPLIT:
                stack_out = stack_in + (u,)
            elif node.kind in (OpKind.MERGE, OpKind.STREAM):
                if not stack_in:
                    raise GraphError(
                        f"{node.name} ({node.kind}) has no enclosing split"
                    )
                opener = stack_in[-1]
                prev = self._matching.get(opener)
                if prev is not None and prev != u:
                    raise GraphError(
                        f"split {self._nodes[opener].name} matches two "
                        f"different closers: {self._nodes[prev].name} and "
                        f"{node.name}; all paths of a split-merge construct "
                        f"must reconverge to a single merge/stream"
                    )
                self._matching[opener] = u
                stack_out = stack_in[:-1]
                if node.kind == OpKind.STREAM:
                    stack_out = stack_out + (u,)
            else:  # pragma: no cover - defensive
                raise GraphError(f"unknown op kind {node.kind!r}")
            if u == self.exit:
                if self.scatter:
                    if len(stack_out) != 1:
                        raise GraphError(
                            f"a scatter graph must end inside exactly one "
                            f"open group; exit is at depth {len(stack_out)}"
                        )
                    self.scatter_opener = stack_out[-1]
                elif stack_out:
                    names = [self._nodes[i].name for i in stack_out]
                    raise GraphError(
                        f"unbalanced split-merge constructs: groups opened "
                        f"by {names} are never merged"
                    )
                continue
            for v in self._succ[u]:
                if v in stacks and stacks[v] != stack_out:
                    raise GraphError(
                        f"inconsistent split nesting at {self._nodes[v].name}: "
                        f"paths disagree about enclosing split-merge constructs"
                    )
                stacks[v] = stack_out

    # -- visualization ---------------------------------------------------
    def to_dot(self) -> str:
        """Graphviz source for the flow graph.

        The paper (§6): the flow graph "can be easily visualized and
        represents therefore a valuable tool for thinking and
        experimenting with different parallelization strategies".
        Node shapes encode the operation kind (trapezium split, inverted
        trapezium merge, hexagon stream, box leaf); labels carry the
        thread collection.
        """
        shapes = {
            OpKind.LEAF: "box",
            OpKind.SPLIT: "trapezium",
            OpKind.MERGE: "invtrapezium",
            OpKind.STREAM: "hexagon",
        }
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;"]
        for i, node in enumerate(self._nodes):
            label = f"{node.name}\\n[{node.collection.name}]"
            lines.append(
                f'  n{i} [label="{label}" shape={shapes[node.kind]}];'
            )
        for u, succs in sorted(self._succ.items()):
            for v in succs:
                lines.append(f"  n{u} -> n{v};")
        lines.append("}")
        return "\n".join(lines)

    def describe(self) -> str:
        """A terminal-friendly structural summary of the graph."""
        kind_marks = {
            OpKind.LEAF: "[leaf  ]",
            OpKind.SPLIT: "[split ]",
            OpKind.MERGE: "[merge ]",
            OpKind.STREAM: "[stream]",
        }
        lines = [
            f"flow graph {self.name!r}: {len(self._nodes)} operations, "
            f"entry={self._nodes[self.entry].name}, "
            f"exit={self._nodes[self.exit].name}"
        ]
        for u in self._topo_order():
            node = self._nodes[u]
            succs = ", ".join(self._nodes[v].name for v in self._succ[u])
            arrow = f" >> {succs}" if succs else "  (exit)"
            depth = "  " * self._depth_in[u]
            lines.append(
                f"  {kind_marks[node.kind]} {depth}{node.name} "
                f"@ {node.collection.name}/{node.route_class.__name__}{arrow}"
            )
        for opener, closer in sorted(self._matching.items()):
            lines.append(
                f"  group: {self._nodes[opener].name} ... closed by "
                f"{self._nodes[closer].name}"
            )
        return "\n".join(lines)

    def _topo_order(self) -> List[int]:
        indeg = {i: len(self._pred[i]) for i in self._succ}
        ready = [i for i, d in sorted(indeg.items()) if d == 0]
        order: List[int] = []
        while ready:
            u = ready.pop(0)
            order.append(u)
            for v in self._succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
        return order

    def __repr__(self) -> str:
        return f"<Flowgraph {self.name!r} nodes={len(self._nodes)}>"
