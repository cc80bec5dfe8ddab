"""Edge-path presentations of fundamental groups.

A connected complex with a basepoint gets a deterministic BFS spanning
tree (ascending-id tie-breaking); the oriented non-tree edges are the
generators and every 2-simplex contributes one relator word obtained by
collapsing tree edges.
"""
from __future__ import annotations

from collections import deque

from .errors import InputError
from .simplicial import SimplicialComplex

# a letter is (generator index, +1 or -1); a relator is a tuple of letters
Letter = tuple[int, int]


class EdgePathPresentation:
    """Spanning tree, ordered generators and relators for a complex."""

    __slots__ = ("complex", "basepoint", "parent", "tree_edges", "generators",
                 "gen_index", "relators")

    def __init__(self, complex: SimplicialComplex, basepoint: int):
        if basepoint not in set(complex.vertices):
            raise InputError(f"basepoint {basepoint} is not a vertex")
        adj: dict[int, list[int]] = {v: [] for v in complex.vertices}
        for (u, v) in complex.simplices_of_dim(1):
            adj[u].append(v)
            adj[v].append(u)
        # the edges come in lexicographic order, so every list in adj ascends
        parent: dict[int, int] = {basepoint: basepoint}
        order = deque([basepoint])
        while order:
            u = order.popleft()
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    order.append(w)
        missing = [v for v in complex.vertices if v not in parent]
        if missing:
            raise InputError(
                f"complex is not connected: vertex {missing[0]} unreachable from {basepoint}")

        self.complex = complex
        self.basepoint = basepoint
        self.parent = parent
        self.tree_edges = frozenset(
            (u, v) if u < v else (v, u) for v, u in parent.items() if v != basepoint)
        self.generators = tuple(
            e for e in complex.simplices_of_dim(1) if e not in self.tree_edges)
        self.gen_index = {e: i for i, e in enumerate(self.generators)}
        # the letter of each oriented non-tree edge; a tree edge has none
        letter: dict[tuple[int, int], Letter] = {}
        for i, (u, v) in enumerate(self.generators):
            letter[(u, v)] = (i, 1)
            letter[(v, u)] = (i, -1)
        get = letter.get
        self.relators = tuple(tuple(filter(None, (get((a, b)), get((b, c)), get((c, a)))))
                              for a, b, c in complex.simplices_of_dim(2))

    def tree_path(self, v: int) -> tuple[int, ...]:
        """Vertices of the unique tree path basepoint -> v."""
        path = [v]
        while path[-1] != self.basepoint:
            path.append(self.parent[path[-1]])
        return tuple(reversed(path))

    def __eq__(self, other) -> bool:
        return (isinstance(other, EdgePathPresentation)
                and self.complex == other.complex and self.basepoint == other.basepoint)


def edge_path_presentation(complex: SimplicialComplex, basepoint: int) -> EdgePathPresentation:
    """Deterministic presentation of the edge-path group of a complex."""
    return EdgePathPresentation(complex, basepoint)
