"""Dependence-graph algorithms for the DSWP partitioner.

Implemented from scratch (no external graph library): adjacency structures,
an iterative Tarjan strongly-connected-components pass, condensation of the
dependence graph into a DAG of SCCs, and topological sorting.  These are the
algorithmic core of Decoupled Software Pipelining (Ottoni et al., MICRO
2005): cycles in the dependence graph (recurrences) must stay within one
thread; the acyclic condensation is what gets pipelined across threads.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, KeysView, List, Set, Tuple

Node = Hashable


class DiGraph:
    """A minimal directed graph over hashable node ids.

    Adjacency is kept in insertion-ordered dicts (used as ordered sets), so
    every traversal — and with it :func:`tarjan_scc`'s component order and
    the partitioner's first-found tie-breaks — follows edge insertion order,
    never string-hash order: results do not depend on ``PYTHONHASHSEED``.
    """

    def __init__(self) -> None:
        self._succ: Dict[Node, Dict[Node, None]] = {}
        self._pred: Dict[Node, Dict[Node, None]] = {}

    def add_node(self, node: Node) -> None:
        self._succ.setdefault(node, {})
        self._pred.setdefault(node, {})

    def add_edge(self, src: Node, dst: Node) -> None:
        self.add_node(src)
        self.add_node(dst)
        self._succ[src][dst] = None
        self._pred[dst][src] = None

    @property
    def nodes(self) -> List[Node]:
        return list(self._succ)

    def successors(self, node: Node) -> KeysView[Node]:
        """Set-like view of ``node``'s successors, in insertion order."""
        return self._succ[node].keys()

    def predecessors(self, node: Node) -> KeysView[Node]:
        """Set-like view of ``node``'s predecessors, in insertion order."""
        return self._pred[node].keys()

    def edges(self) -> Iterable[Tuple[Node, Node]]:
        for src, dsts in self._succ.items():
            for dst in dsts:
                yield (src, dst)

    def n_edges(self) -> int:
        return sum(len(d) for d in self._succ.values())

    def has_edge(self, src: Node, dst: Node) -> bool:
        return src in self._succ and dst in self._succ[src]


def tarjan_scc(graph: DiGraph) -> List[List[Node]]:
    """Strongly connected components, iteratively (no recursion limits).

    Returns components in *reverse topological order* (Tarjan's natural
    output): every edge between components goes from a later list entry to
    an earlier one.
    """
    index_of: Dict[Node, int] = {}
    low: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    components: List[List[Node]] = []
    counter = 0

    for root in graph.nodes:
        if root in index_of:
            continue
        # Each work item is (node, iterator over successors).
        work = [(root, iter(graph.successors(root)))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succ_iter = work[-1]
            advanced = False
            for succ in succ_iter:
                if succ not in index_of:
                    index_of[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph.successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def condense(graph: DiGraph) -> Tuple[DiGraph, Dict[Node, int], List[List[Node]]]:
    """Condense ``graph`` into its DAG of SCCs.

    Returns ``(dag, node_to_scc, sccs)`` where SCC ids index ``sccs`` and the
    DAG's nodes are those ids.
    """
    sccs = tarjan_scc(graph)
    node_to_scc: Dict[Node, int] = {}
    for scc_id, members in enumerate(sccs):
        for node in members:
            node_to_scc[node] = scc_id
    dag = DiGraph()
    for scc_id in range(len(sccs)):
        dag.add_node(scc_id)
    for src, dst in graph.edges():
        a, b = node_to_scc[src], node_to_scc[dst]
        if a != b:
            dag.add_edge(a, b)
    return dag, node_to_scc, sccs


def topological_order(graph: DiGraph) -> List[Node]:
    """Kahn's algorithm; raises on cycles."""
    in_deg = {node: len(graph.predecessors(node)) for node in graph.nodes}
    ready = sorted([n for n, d in in_deg.items() if d == 0], key=repr)
    order: List[Node] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for succ in sorted(graph.successors(node), key=repr):
            in_deg[succ] -= 1
            if in_deg[succ] == 0:
                ready.append(succ)
    if len(order) != len(graph.nodes):
        raise ValueError("graph has a cycle; topological order undefined")
    return order


def is_acyclic(graph: DiGraph) -> bool:
    try:
        topological_order(graph)
        return True
    except ValueError:
        return False
