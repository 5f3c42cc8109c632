"""Benchmark problem families: item selection, layered-graph routing, and
maximum coverage, plus exact combinatorial solvers (routing DP, stable
selection, budgeted coverage search).

Each generator returns a :class:`ProblemSkeleton` (feasible set, loss,
support, and the family's exact combinatorial solver) that becomes a full
instance once scenarios and a radius are attached.  Structural indices are
deterministic and documented so that observation masks align across runs.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import BadCardinality, DimensionMismatch
from .model import BiaffineLoss, FeasibleSet, Polytope, ProblemInstance


@dataclass(eq=False)
class ProblemSkeleton:
    """A problem minus its data: attach scenarios and a radius to solve.

    ``cop`` is the family's exact combinatorial solver over ``feasible``,
    ``cop(costs, sense) -> (value, x)``, which :meth:`instance` passes on;
    None leaves an instance's COPs to a MILP on ``feasible``.  A skeleton or
    instance whose feasible set is swapped must drop it.
    """

    feasible: FeasibleSet
    loss: BiaffineLoss
    support: Polytope
    sense: str = "min"
    meta: dict = field(default_factory=dict)
    cop: Callable | None = None

    def instance(self, scenarios, epsilon: float) -> ProblemInstance:
        return ProblemInstance(
            self.feasible, self.loss, self.support, tuple(scenarios), epsilon, self.sense, self.cop
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
        sorting_cop(n, h),
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

    @functools.cached_property
    def arc_table(self) -> np.ndarray:
        """Read-only (h, r, r) table of :meth:`arc_index` over (layer, tail,
        head); the source layer ignores the tail and the last layer the head."""
        shape = (self.h, self.r, self.r)
        table = np.array([self.arc_index(*i) for i in np.ndindex(shape)]).reshape(shape)
        table.setflags(write=False)
        return table


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
        spp_cop(graph),
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
        if self.n_items < 1 or not self.subsets:
            raise BadCardinality(
                f"need at least one item and one subset, got {self.n_items} and {len(self.subsets)}"
            )
        for s in self.subsets:
            if not s:
                raise BadCardinality("every subset must be nonempty")
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
    if not 1 <= subset_size <= n_items:
        raise BadCardinality(f"need 1 <= subset_size <= n_items, got {subset_size} and {n_items}")
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
        mcp_cop(system),
    )
    return skeleton, system


def shortest_path_dp(graph: LayeredGraph, arc_costs):
    """Exact layer-by-layer dynamic program over ``(..., num_arcs)`` costs,
    one shortest path per cost vector; returns ``(cost, path_vectors)``,
    with ``cost`` a float for a single cost vector.

    Cost ties resolve to the lowest-index predecessor, so an all-equal cost
    vector yields the path through the first node of every layer.  Every
    cost vector goes through the same additions and comparisons as it would
    alone, so a batch returns the bits of its rows' separate solves.
    """
    costs = np.asarray(arc_costs, dtype=float)
    if costs.shape[-1:] != (graph.num_arcs,):
        raise DimensionMismatch("one cost per arc required")
    flat = costs.reshape(-1, graph.num_arcs)
    arcs, at = graph.arc_table, np.arange(flat.shape[0])[:, None]
    dist = flat[:, arcs[0, 0]]  # (batch, head) from the source
    preds = []
    for layer in range(1, graph.h - 1):
        step = dist[:, :, None] + flat[:, arcs[layer]]  # (batch, tail, head)
        best = step.argmin(axis=1)
        dist = step[at, best, np.arange(graph.r)]
        preds.append(best)
    final = dist + flat[:, arcs[-1, :, 0]]
    node = final.argmin(axis=1)[:, None]
    cost = final[at, node][:, 0]
    path = [arcs[-1, node, 0]]
    for pred, layer in zip(reversed(preds), range(graph.h - 2, 0, -1)):
        tail = pred[at, node]
        path.append(arcs[layer, tail, node])
        node = tail
    path.append(arcs[0, 0, node])
    x = np.zeros(flat.shape)
    x[at, np.hstack(path)] = 1.0
    if costs.ndim == 1:
        return float(cost[0]), x[0]
    return cost.reshape(costs.shape[:-1]), x.reshape(costs.shape)


def spp_cop(graph: LayeredGraph):
    """Combinatorial-solver handle backed by the routing DP (min only)."""

    def solve(costs, sense="min"):
        if sense != "min":
            raise ValueError("the routing DP only minimizes")
        if np.shape(costs) != (graph.num_arcs,):
            raise DimensionMismatch("one cost per arc required")
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


# a coverage search node with at most this many completions is finished in
# one vectorized pass over all of them
_BLOCK = 1 << 15
# _BYTE_BITS[v, t] is bit t of the byte value v
_BYTE_BITS = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(float)


@functools.lru_cache(maxsize=None)
def _colex_combinations(k: int) -> np.ndarray:
    """Read-only (k, C(m, k)) table, one column per k-subset of ``range(m)``,
    for the largest ``m`` with C(m, k) <= ``_BLOCK``.  Colex order lists the
    subsets of ``range(m')`` first, so the first C(m', k) columns serve every
    smaller ``m'`` and one table per ``k`` serves every search node."""
    m = k
    while k and math.comb(m + 1, k) <= _BLOCK:
        m += 1
    rows = sorted(itertools.combinations(range(m), k), key=lambda c: c[::-1])
    table = np.array(rows, dtype=np.intp).reshape(len(rows), k).T.copy()
    table.setflags(write=False)
    return table


def mcp_cop(system: CoverageSystem):
    """Combinatorial-solver handle: exact budgeted maximum coverage (max only).

    Costs follow the :func:`gen_mcp` layout, item flags then selection flags,
    and the selection block must be zero, as a coverage skeleton's support
    pins it.  The optimum selects ``min(budget, n_subsets)`` subsets and flags
    every covered item whose cost is nonnegative, so an item of cost 0 counts
    as covered.  The search ranks subsets heaviest first (equal weights by
    index), starts from the greedy selection, and prunes depth first with the
    sum of the largest marginal gains still open (coverage is submodular, so
    no completion gains more).  A node with at most ``_BLOCK`` completions
    scores all of them at once: each subset is a row of ``uint64`` item
    masks, and covered weight is summed from one lookup table per mask byte.
    A system with at most ``_BLOCK`` selections is finished at the root: the
    handle ORs the cover of every selection once, and each call only scores
    those bytes.

    Ties: the greedy selection stands unless another scores strictly more.
    When C(n_subsets, picks) <= ``_BLOCK``, the answer among the selections
    of the best score is the first in colex order of their weight ranks
    (compare the rank of each one's lightest subset first, the heavier
    first, then its next lightest, and so on); a larger system returns the
    first best selection its depth-first search meets.
    """
    n1, n2 = system.n_items, system.n_subsets
    if system.budget < 0:
        raise BadCardinality(f"need a nonnegative budget, got {system.budget}")
    picks = min(system.budget, n2)
    words = (n1 + 63) // 64
    nbytes = (n1 + 7) // 8
    rows = []
    for s in system.subsets:
        row = [0] * words
        for a in s:
            row[a >> 6] |= 1 << (a & 63)
        rows.append(row)
    masks = np.array(rows, dtype="<u8").reshape(n2, words)
    selections = root_octets = None
    if math.comb(n2, picks) <= _BLOCK:
        # every selection, colex over subset indices, and its cover's bytes
        selections = _colex_combinations(picks)[:, : math.comb(n2, picks)]
        covers = np.zeros((selections.shape[1], words), dtype="<u8")
        for row in selections:
            covers |= masks[row]
        root_octets = np.ascontiguousarray(covers.view(np.uint8)[:, :nbytes].T)

    def solve(costs, sense="max"):
        if sense != "max":
            raise ValueError("the coverage search only maximizes")
        costs = np.asarray(costs, dtype=float)
        if costs.shape != (n1 + n2,):
            raise DimensionMismatch("one cost per item and per subset required")
        if np.any(costs[n1:] != 0.0):
            raise ValueError("the coverage search needs zero selection costs")
        weights = np.zeros(8 * nbytes)
        weights[:n1] = np.maximum(costs[:n1], 0.0)
        lut = weights.reshape(nbytes, 8) @ _BYTE_BITS.T  # (byte, byte value)

        def weigh_octets(octets):
            """Covered weight of each column of (byte, cover) mask bytes."""
            total = lut[0].take(octets[0])
            for b in range(1, nbytes):
                total += lut[b].take(octets[b])
            return total

        def weigh(covers):
            """Covered weight of each row of item masks, summed byte by byte."""
            return weigh_octets(np.ascontiguousarray(covers.view(np.uint8)[:, :nbytes].T))

        own = weigh(masks)
        order = np.argsort(-own, kind="stable")
        ranked = masks[order]
        # each subset's own weight is its gain on an empty cover: the first
        # greedy step and the root of the search read it
        ranked_own = own[order]
        # greedy incumbent: the largest marginal gain, ties to the heavier subset
        cover = np.zeros(words, dtype="<u8")
        taken = np.zeros(n2, dtype=bool)
        for step in range(picks):
            gains = ranked_own if step == 0 else weigh(ranked & ~cover)
            i = int(np.argmax(np.where(taken, -1.0, gains)))
            taken[i] = True
            cover |= ranked[i]
        best_value, best_chosen = float(weigh(cover[None])[0]), np.flatnonzero(taken).tolist()

        def score_root(cand):
            """Best score of the handle's selections with every subset in
            ``cand``, and the ranks of the selection that has it."""
            scores = weigh_octets(root_octets)
            tied = np.flatnonzero(scores == scores.max())
            kept = np.zeros(n2, dtype=bool)
            kept[order[cand]] = True
            if not kept[selections[:, tied]].all():
                # a best selection has a pruned subset: score only the others
                scores[~kept[selections].all(axis=0)] = -np.inf
                tied = np.flatnonzero(scores == scores.max())
            rank = np.empty(n2, dtype=np.intp)
            rank[order] = np.arange(n2)
            # lexsort's last key, the largest rank, decides first: colex order
            first = tied[np.lexsort(np.sort(rank[selections[:, tied]], axis=0))[0]]
            return scores[first], rank[selections[:, first]]

        def search(cover, value, cand, k, chosen, gains=None):
            """Improve on the best selection by completing ``chosen`` (covering
            ``cover`` with weight ``value``) with ``k`` of the ranked subsets
            ``cand``, whose marginal ``gains`` are weighed here unless given."""
            nonlocal best_value, best_chosen
            open_ = ranked[cand]
            if gains is None:
                gains = weigh(open_ & ~cover)
            desc = -np.sort(-gains)
            if value + desc[:k].sum() <= best_value:
                return
            # a subset in an improving completion gains more than this
            keep = gains > best_value - value - desc[: max(k - 1, 0)].sum()
            cand, open_, gains = cand[keep], open_[keep], gains[keep]
            m = cand.shape[0]
            if m < k:
                return
            if math.comb(m, k) <= _BLOCK:
                if chosen or selections is None:
                    table = _colex_combinations(k)[:, : math.comb(m, k)]
                    covers = np.tile(cover, (table.shape[1], 1))
                    for row in table:
                        covers |= open_[row]
                    scores = weigh(covers)
                    i = int(np.argmax(scores))
                    score, pick = scores[i], cand[table[:, i]]
                else:
                    score, pick = score_root(cand)
                if score > best_value:
                    best_value, best_chosen = float(score), chosen + pick.tolist()
                return
            # rest[i]: the k - 1 largest gains among the subsets after i
            rest, top = np.zeros(m), []
            for i in range(m - 1, -1, -1):
                rest[i] = sum(top)
                if len(top) < k - 1:
                    heapq.heappush(top, float(gains[i]))
                elif top and gains[i] > top[0]:
                    heapq.heapreplace(top, float(gains[i]))
            for i in range(m - k + 1):
                if value + gains[i] + rest[i] > best_value:
                    search(cover | open_[i], value + gains[i], cand[i + 1 :], k - 1, chosen + [int(cand[i])])

        search(np.zeros(words, dtype="<u8"), 0.0, np.arange(n2), picks, [], ranked_own)
        x = np.zeros(n1 + n2)
        chosen = order[best_chosen]
        x[n1 + chosen] = 1.0
        cover = np.bitwise_or.reduce(masks[chosen], axis=0)
        covered = np.unpackbits(cover.view(np.uint8), bitorder="little")[:n1].astype(bool)
        x[:n1] = covered & (costs[:n1] >= 0.0)
        return float(costs @ x), x

    return solve
