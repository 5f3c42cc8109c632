"""Brute-force enumeration oracles over the problem families, for tests only."""

import itertools

import numpy as np

from dro.errors import DroError


class TooLarge(DroError):
    """Exhaustive enumeration would exceed the configured limit."""


def enumerate_feasible(feasible, limit: int = 1 << 22):
    """All feasible binary decisions by exhaustive search."""
    if feasible.n_cont != 0:
        raise ValueError("enumeration requires a purely integer decision set")
    if np.any(feasible.upper > 1.0 + 1e-12):
        raise ValueError("enumeration requires binary variables")
    n = feasible.n_int
    if 2**n > limit:
        raise TooLarge(f"2^{n} assignments exceed the limit {limit}")
    out = []
    g = feasible.g2
    for bits in itertools.product((0.0, 1.0), repeat=n):
        x = np.array(bits)
        if feasible.num_rows == 0 or np.all(g @ x <= feasible.rhs + 1e-9):
            out.append(x)
    return out


def num_paths(graph) -> int:
    """Number of source-destination paths of a ``LayeredGraph``."""
    return graph.r ** (graph.h - 1)


def all_paths(graph):
    """Every path of a ``LayeredGraph`` as its intermediate-node tuple,
    lexicographic order."""
    return itertools.product(range(graph.r), repeat=graph.h - 1)


def path_arcs(graph, nodes) -> list[int]:
    """Arc indices, source to destination, of the ``LayeredGraph`` path
    through the given intermediate nodes."""
    stops = [0, *nodes, 0]  # arc_index ignores the source's tail and the last head
    assert len(stops) == graph.h + 1, "one node per intermediate layer"
    return [graph.arc_index(layer, stops[layer], stops[layer + 1]) for layer in range(graph.h)]


def path_vector(graph, nodes) -> np.ndarray:
    """The 0/1 arc vector of :func:`path_arcs`."""
    x = np.zeros(graph.num_arcs)
    x[path_arcs(graph, nodes)] = 1.0
    return x


def covered_items(system, chosen) -> np.ndarray:
    """Item-coverage flags of the chosen subsets of a ``CoverageSystem``."""
    x = np.zeros(system.n_items)
    for i in chosen:
        x[list(system.subsets[i])] = 1.0
    return x
