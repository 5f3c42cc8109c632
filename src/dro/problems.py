"""Benchmark problem families: item selection, layered-graph routing, and
maximum coverage, plus exact combinatorial solvers (routing DP, stable selection).

Each generator returns a :class:`ProblemSkeleton` (feasible set, loss,
support) that becomes a full instance once scenarios and a radius are
attached.  Structural indices are deterministic and documented so that
observation masks align across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadCardinality, DimensionMismatch
from .model import BiaffineLoss, FeasibleSet, Polytope, ProblemInstance


@dataclass(eq=False)
class ProblemSkeleton:
    """A problem minus its data: attach scenarios and a radius to solve."""

    feasible: FeasibleSet
    loss: BiaffineLoss
    support: Polytope
    sense: str = "min"
    meta: dict = field(default_factory=dict)

    def instance(self, scenarios, epsilon: float) -> ProblemInstance:
        return ProblemInstance(
            self.feasible, self.loss, self.support, tuple(scenarios), epsilon, self.sense
        )


def _cardinality_rows(n: int, h: int):
    """sum(x) = h as a <= / >= pair."""
    return np.vstack([np.ones(n), -np.ones(n)]), np.array([float(h), -float(h)])


def gen_sorting(n: int, h: int) -> ProblemSkeleton:
    """Pick ``h`` of ``n`` items at minimal total cost; unit-box cost support."""
    if not (1 <= h <= n):
        raise BadCardinality(f"need 1 <= h <= n, got h={h}, n={n}")
    g2, rhs = _cardinality_rows(n, h)
    feasible = FeasibleSet(0, n, [], g2, rhs, np.ones(n))
    return ProblemSkeleton(
        feasible,
        BiaffineLoss.bilinear(n),
        Polytope.box(np.zeros(n), np.ones(n)),
        "min",
        {"family": "sorting", "n": n, "h": h},
    )


@dataclass(eq=False)
class LayeredGraph:
    """Fully connected acyclic layered graph.

    ``h`` arcs per source-destination path, ``r`` nodes per intermediate
    layer; there are ``h - 1`` intermediate layers and ``r**(h-1)`` distinct
    paths.  Arcs are indexed layer-major and tail-minor: first the source
    fan-out (by head), then each intermediate block ordered by (tail, head),
    then the destination fan-in (by tail).
    """

    h: int
    r: int

    def __post_init__(self):
        if self.h < 2 or self.r < 1:
            raise BadCardinality("need h >= 2 and r >= 1")

    @property
    def num_arcs(self) -> int:
        return 2 * self.r + (self.h - 2) * self.r**2

    def arc_index(self, layer: int, tail: int, head: int) -> int:
        """Arc from node ``tail`` of ``layer`` to node ``head`` of ``layer+1``.

        The source layer is 0 and has a single node, as does layer ``h``.
        """
        r, h = self.r, self.h
        if layer == 0:
            return head
        if layer == h - 1:
            return r + (h - 2) * r * r + tail
        return r + (layer - 1) * r * r + tail * r + head

    def path_arcs(self, nodes) -> list[int]:
        """Arc indices of the path visiting the given intermediate nodes."""
        nodes = list(nodes)
        if len(nodes) != self.h - 1:
            raise DimensionMismatch("one node per intermediate layer required")
        arcs = [self.arc_index(0, 0, nodes[0])]
        for layer in range(1, self.h - 1):
            arcs.append(self.arc_index(layer, nodes[layer - 1], nodes[layer]))
        arcs.append(self.arc_index(self.h - 1, nodes[-1], 0))
        return arcs

    def path_vector(self, nodes) -> np.ndarray:
        x = np.zeros(self.num_arcs)
        x[self.path_arcs(nodes)] = 1.0
        return x


def gen_layered_spp(h: int, r: int):
    """Routing skeleton on the layered graph; flow conservation as row pairs.

    Returns ``(skeleton, graph)``.
    """
    graph = LayeredGraph(h, r)
    n = graph.num_arcs
    rows, rhs = [], []

    def add_eq(coeffs, value):
        rows.append(coeffs)
        rhs.append(value)
        rows.append(-coeffs)
        rhs.append(-value)

    out = np.zeros(n)
    for head in range(r):
        out[graph.arc_index(0, 0, head)] = 1.0
    add_eq(out, 1.0)
    inc = np.zeros(n)
    for tail in range(r):
        inc[graph.arc_index(h - 1, tail, 0)] = 1.0
    add_eq(inc, 1.0)
    for layer in range(1, h):
        for node in range(r):
            bal = np.zeros(n)
            if layer == 1:
                bal[graph.arc_index(0, 0, node)] = 1.0
            else:
                for tail in range(r):
                    bal[graph.arc_index(layer - 1, tail, node)] = 1.0
            if layer == h - 1:
                bal[graph.arc_index(h - 1, node, 0)] -= 1.0
            else:
                for head in range(r):
                    bal[graph.arc_index(layer, node, head)] -= 1.0
            add_eq(bal, 0.0)
    feasible = FeasibleSet(0, n, [], np.array(rows), np.array(rhs), np.ones(n))
    skeleton = ProblemSkeleton(
        feasible,
        BiaffineLoss.bilinear(n),
        Polytope.box(np.zeros(n), np.ones(n)),
        "min",
        {"family": "spp", "h": h, "r": r},
    )
    return skeleton, graph


@dataclass(eq=False)
class CoverageSystem:
    """Items 1..n_items and candidate subsets with a selection budget."""

    n_items: int
    subsets: tuple  # of frozen index tuples
    budget: int

    def __post_init__(self):
        self.subsets = tuple(tuple(int(i) for i in s) for s in self.subsets)
        for s in self.subsets:
            if not s:
                raise ValueError("every subset must be nonempty")
            if any(i < 0 or i >= self.n_items for i in s):
                raise DimensionMismatch("subset item out of range")

    @property
    def n_subsets(self) -> int:
        return len(self.subsets)


def gen_mcp(n_items: int, n_subsets: int, subset_size: int, budget: int, seed):
    """Maximum-coverage skeleton with uniformly random fixed-size subsets.

    Decision variables are item-coverage flags followed by subset-selection
    flags; the random cost vector lives on the item block and the selection
    block is pinned to zero in the support.  Returns ``(skeleton, system)``.
    """
    if subset_size > n_items:
        raise BadCardinality("subset_size cannot exceed the number of items")
    rng = np.random.default_rng(seed)
    subsets = tuple(
        tuple(sorted(rng.choice(n_items, size=subset_size, replace=False).tolist()))
        for _ in range(n_subsets)
    )
    system = CoverageSystem(n_items, subsets, budget)
    n = n_items + n_subsets
    rows, rhs = [], []
    budget_row = np.zeros(n)
    budget_row[n_items:] = 1.0
    rows.append(budget_row)
    rhs.append(float(budget))
    for a in range(n_items):
        row = np.zeros(n)
        row[a] = 1.0
        for i, s in enumerate(subsets):
            if a in s:
                row[n_items + i] = -1.0
        rows.append(row)  # x_a <= sum of selected subsets covering a
        rhs.append(0.0)
    feasible = FeasibleSet(0, n, [], np.array(rows), np.array(rhs), np.ones(n))
    support = Polytope.box(np.zeros(n), np.concatenate([np.ones(n_items), np.zeros(n_subsets)]))
    skeleton = ProblemSkeleton(
        feasible,
        BiaffineLoss.bilinear(n),
        support,
        "max",
        {
            "family": "mcp",
            "n1": n_items,
            "n2": n_subsets,
            "subset_size": subset_size,
            "budget": budget,
            "subsets": [list(s) for s in subsets],
        },
    )
    return skeleton, system


def shortest_path_dp(graph: LayeredGraph, arc_costs):
    """Exact layer-by-layer dynamic program; returns ``(cost, path_vector)``.

    Cost ties resolve to the lowest-index predecessor, so an all-equal cost
    vector yields the path through the first node of every layer.
    """
    costs = np.asarray(arc_costs, dtype=float)
    if costs.shape != (graph.num_arcs,):
        raise DimensionMismatch("one cost per arc required")
    h, r = graph.h, graph.r
    dist = np.array([costs[graph.arc_index(0, 0, head)] for head in range(r)])
    pred = np.zeros((h - 2, r), dtype=int) if h > 2 else None
    for layer in range(1, h - 1):
        new = np.empty(r)
        for head in range(r):
            step = dist + np.array(
                [costs[graph.arc_index(layer, tail, head)] for tail in range(r)]
            )
            best = int(np.argmin(step))
            new[head] = step[best]
            pred[layer - 1, head] = best
        dist = new
    final = dist + np.array(
        [costs[graph.arc_index(h - 1, tail, 0)] for tail in range(r)]
    )
    last = int(np.argmin(final))
    nodes = [last]
    for layer in range(h - 2, 0, -1):
        nodes.append(int(pred[layer - 1, nodes[-1]]))
    nodes.reverse()
    return float(final[last]), graph.path_vector(nodes)


def spp_cop(graph: LayeredGraph):
    """Combinatorial-solver handle backed by the routing DP (min only)."""

    def solve(costs, sense="min"):
        if sense != "min":
            raise ValueError("the routing DP only minimizes")
        return shortest_path_dp(graph, costs)

    return solve


def sorting_cop(n: int, h: int):
    """Combinatorial-solver handle: stable selection of the h best items."""

    def solve(costs, sense="min"):
        costs = np.asarray(costs, dtype=float)
        if costs.shape != (n,):
            raise DimensionMismatch("one cost per item required")
        order = np.argsort(costs if sense == "min" else -costs, kind="stable")
        x = np.zeros(n)
        x[order[:h]] = 1.0
        return float(costs @ x), x

    return solve
