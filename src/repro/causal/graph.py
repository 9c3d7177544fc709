"""Causal graphs: directed acyclic graphs over attribute names.

``CausalGraph`` wraps a :mod:`networkx` DiGraph and exposes the graph
queries the fairness layer needs: parents/ancestors, directed paths,
d-separation, and the mediator sets used by the mediation formulas of
the natural direct/indirect effects.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

# networkx is imported by the methods that use it, so importing the
# package (every CLI command) does not pay for it.
if TYPE_CHECKING:
    import networkx as nx


class CausalGraph:
    """A DAG over named attributes.

    Parameters
    ----------
    edges:
        Iterable of ``(cause, effect)`` pairs.
    nodes:
        Optional extra isolated nodes.

    Raises
    ------
    ValueError
        If the resulting directed graph has a cycle.
    """

    def __init__(self, edges: Iterable[tuple[str, str]],
                 nodes: Iterable[str] = ()):
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(nodes)
        g.add_edges_from(edges)
        if not nx.is_directed_acyclic_graph(g):
            cycle = nx.find_cycle(g)
            raise ValueError(f"causal graph must be acyclic; found cycle {cycle}")
        self._g = g
        # The graph is immutable after construction, so structural
        # queries memoise; the SCM hot paths (evaluate/abduct) ask for
        # the same parent and descendant sets on every call.
        self._parents: dict[str, tuple[str, ...]] = {}
        self._descendants: dict[str, frozenset[str]] = {}

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[str]:
        return list(self._g.nodes)

    @property
    def edges(self) -> list[tuple[str, str]]:
        return list(self._g.edges)

    def __contains__(self, node: str) -> bool:
        return node in self._g

    def parents(self, node: str) -> list[str]:
        cached = self._parents.get(node)
        if cached is None:
            cached = tuple(sorted(self._g.predecessors(node)))
            self._parents[node] = cached
        return list(cached)

    def children(self, node: str) -> list[str]:
        return sorted(self._g.successors(node))

    def ancestors(self, node: str) -> set[str]:
        import networkx as nx

        return set(nx.ancestors(self._g, node))

    def descendants(self, node: str) -> set[str]:
        cached = self._descendants.get(node)
        if cached is None:
            import networkx as nx

            cached = frozenset(nx.descendants(self._g, node))
            self._descendants[node] = cached
        return set(cached)

    def topological_order(self) -> list[str]:
        """Nodes in an order where every cause precedes its effects."""
        import networkx as nx

        return list(nx.topological_sort(self._g))

    # ------------------------------------------------------------------
    # Path queries
    # ------------------------------------------------------------------
    def directed_paths(self, source: str, target: str) -> list[list[str]]:
        """All directed paths from ``source`` to ``target``."""
        import networkx as nx

        return [list(p) for p in nx.all_simple_paths(self._g, source, target)]

    def has_directed_path(self, source: str, target: str) -> bool:
        import networkx as nx

        return nx.has_path(self._g, source, target)

    def mediators(self, source: str, target: str) -> set[str]:
        """Nodes on some directed path from source to target (exclusive).

        These are the ``Z`` of the paper's NDE/NIE definitions: the
        attributes carrying indirect causal influence of ``S`` on the
        outcome.
        """
        out: set[str] = set()
        for path in self.directed_paths(source, target):
            out.update(path[1:-1])
        return out

    def confounders(self, a: str, b: str) -> set[str]:
        """Common ancestors of ``a`` and ``b`` (potential confounders)."""
        return self.ancestors(a) & self.ancestors(b)

    # ------------------------------------------------------------------
    # d-separation
    # ------------------------------------------------------------------
    def d_separated(self, x: Iterable[str] | str, y: Iterable[str] | str,
                    given: Iterable[str] = ()) -> bool:
        """True if every path between ``x`` and ``y`` is blocked by ``given``."""
        import networkx as nx

        xs = {x} if isinstance(x, str) else set(x)
        ys = {y} if isinstance(y, str) else set(y)
        return nx.is_d_separator(self._g, xs, ys, set(given))

    def blocking_parents(self, source: str, target: str) -> list[str]:
        """Parents of ``target`` that block all *indirect* directed paths
        from ``source`` to ``target``.

        This is the set ``Q`` used by Zha-Wu's direct-causal-effect
        repair: every directed path ``source → … → target`` of length
        at least 2 must pass through one of the returned parents.
        """
        parents = set(self.parents(target)) - {source}
        needed: set[str] = set()
        for path in self.directed_paths(source, target):
            if len(path) <= 2:
                continue  # the direct edge, not an indirect path
            last_hop = path[-2]
            if last_hop in parents:
                needed.add(last_hop)
        return sorted(needed)

    def without_edges(self, edges: Iterable[tuple[str, str]]) -> "CausalGraph":
        """Return a copy with the given edges removed."""
        removed = set(edges)
        return CausalGraph(
            (e for e in self._g.edges if e not in removed), nodes=self._g.nodes
        )

    def to_networkx(self) -> nx.DiGraph:
        """Return a copy of the underlying networkx digraph."""
        return self._g.copy()

    # ------------------------------------------------------------------
    # Serialization (the artifact-bundle state protocol; the wrapped
    # DiGraph is not attribute-serializable, edges + nodes are)
    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        return {"edges": self.edges, "nodes": self.nodes}

    def set_state(self, state: dict) -> None:
        self.__init__(state["edges"], nodes=state["nodes"])

    def __repr__(self) -> str:
        return f"CausalGraph({len(self._g)} nodes, {self._g.number_of_edges()} edges)"
