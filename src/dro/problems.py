"""Benchmark problem families: item selection, layered-graph routing, and
maximum coverage, plus exact combinatorial solvers (routing DP, stable
selection, budgeted coverage search) and sample-average decision tables.

Each generator returns the :class:`~dro.model.ProblemInstance` that ``dro
gen`` writes, with no scenarios at radius 0: feasible set, loss, support,
the family's structure (:class:`Cardinality`, :class:`LayeredGraph`,
:class:`CoverageSystem`), whose ``cop`` is its exact combinatorial solver
and ``saa`` its sample-average table (None above ``_BLOCK`` decisions, or
``_SAA_CAP`` coverage selections), and its parameters as ``meta``, from
which :func:`family_problem` builds it again.  A structure holds only its
parameters and cached tables, so a generated problem pickles.  Structural
indices are deterministic and documented so observation masks align.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadCardinality, DimensionMismatch, StructureMisfit
from .model import BiaffineLoss, FeasibleSet, Polytope, ProblemInstance, SampleBoxes, _whole


def gen_sorting(n: int, h: int) -> ProblemInstance:
    """Pick ``h`` of ``n`` items at minimal total cost; unit-box cost support."""
    cardinality = Cardinality(n, h)
    n, h = cardinality.n, cardinality.h
    # sum(x) = h as a <= / >= pair
    g2, rhs = np.vstack([np.ones(n), -np.ones(n)]), np.array([float(h), -float(h)])
    feasible = FeasibleSet(0, n, [], g2, rhs, np.ones(n))
    support, meta = Polytope.box(np.zeros(n), np.ones(n)), {"family": "sorting", "n": n, "h": h}
    return ProblemInstance(feasible, BiaffineLoss.bilinear(n), support, (), 0.0, "min", cardinality, meta)


@dataclass(eq=False)
class Cardinality:
    """Selections of ``h`` of ``n`` items, checked once here: integer counts
    (numpy's too) with 1 <= h <= n."""

    n: int
    h: int

    def __post_init__(self):
        self.n, self.h = _whole(self.n, "n"), _whole(self.h, "h")
        if not 1 <= self.h <= self.n:
            raise BadCardinality(f"need 1 <= h <= n, got h={self.h}, n={self.n}")

    def cop(self, costs, sense="min"):
        """Exact combinatorial solver, either sense: stable selection of the h best items."""
        costs = np.asarray(costs, dtype=float)
        if costs.shape != (self.n,):
            raise DimensionMismatch("one cost per item required")
        order = np.argsort(costs if sense == "min" else -costs, kind="stable")
        x = np.zeros(self.n)
        x[order[: self.h]] = 1.0
        return float(costs @ x), x

    @functools.cached_property
    def selections(self) -> np.ndarray:
        """Read-only (h, C(n, h)) table of the selections in colex order,
        built for ``range(n)`` alone: ``_colex_combinations(h)`` would list
        up to ``_BLOCK`` subsets of a larger range."""
        table = _colex(self.n, self.h)
        table.setflags(write=False)
        return table

    @property
    def saa(self):
        """:func:`_score_table` over :attr:`selections`; None above ``_BLOCK``."""
        return self._score if math.comb(self.n, self.h) <= _BLOCK else None

    def _score(self, boxes: SampleBoxes, sense="min"):
        return _score_table(self.selections, self.n, boxes, sense)


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
        self.h, self.r = _whole(self.h, "h"), _whole(self.r, "r")
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

    def cop(self, costs, sense="min"):
        """Exact combinatorial solver, min only: the routing DP (:func:`shortest_path_dp`)."""
        if sense != "min":
            raise ValueError("the routing DP only minimizes")
        if np.shape(costs) != (self.num_arcs,):
            raise DimensionMismatch("one cost per arc required")
        return shortest_path_dp(self, costs)

    @functools.cached_property
    def paths(self) -> np.ndarray:
        """:func:`_path_arcs` of this graph, built once."""
        return _path_arcs(self)

    @property
    def saa(self):
        """:func:`_score_table` over :attr:`paths`; None above ``_BLOCK``."""
        return self._score if self.r ** (self.h - 1) <= _BLOCK else None

    def _score(self, boxes: SampleBoxes, sense="min"):
        return _score_table(self.paths, self.num_arcs, boxes, sense)


def gen_layered_spp(h: int, r: int):
    """Routing problem on the layered graph; flow conservation as row pairs.

    Returns ``(problem, graph)``.
    """
    graph = LayeredGraph(h, r)
    # the arcs in index order: the source fan-out, the (tail, head) blocks
    # between intermediate layers, the destination fan-in
    h, r, n = graph.h, graph.r, graph.num_arcs
    src, inner, dst = np.arange(r), r + np.arange(n - 2 * r).reshape(h - 2, r, r), np.arange(n - r, n)
    # equations: out of the source, into the destination, then the balance
    # (in minus out) of each intermediate node, layer by layer
    eq = np.zeros((2 + (h - 1) * r, n))
    eq[0, src] = eq[1, dst] = 1.0
    node = 2 + np.arange((h - 1) * r).reshape(h - 1, r)
    eq[node[0], src] = 1.0
    eq[node[1:, :, None], inner.transpose(0, 2, 1)] = 1.0
    eq[node[:-1, :, None], inner] = -1.0
    eq[node[-1], dst] = -1.0
    # each equation as the row pair eq <= rhs, -eq <= -rhs
    g, rhs = np.empty((2 * eq.shape[0], n)), np.zeros(2 * eq.shape[0])
    g[0::2], g[1::2] = eq, -eq
    rhs[:4:2] = 1.0
    rhs[1::2] = -rhs[0::2]
    feasible = FeasibleSet(0, n, [], g, rhs, np.ones(n))
    support, meta = Polytope.box(np.zeros(n), np.ones(n)), {"family": "spp", "h": h, "r": r}
    return ProblemInstance(feasible, BiaffineLoss.bilinear(n), support, (), 0.0, "min", graph, meta), graph


@dataclass(eq=False)
class CoverageSystem:
    """Items ``0 .. n_items - 1``, candidate subsets of them and a selection
    budget, checked once here: integer counts and items (numpy's too), each
    item kept once at its first place in its subset, a nonnegative budget."""

    n_items: int
    subsets: tuple  # of frozen index tuples
    budget: int

    def __post_init__(self):
        self.n_items = _whole(self.n_items, "n1")
        self.subsets = tuple(tuple(dict.fromkeys([_whole(i, "a subset item") for i in s])) for s in self.subsets)
        self.budget = _whole(self.budget, "budget")
        if self.n_items < 1 or not self.subsets:
            raise BadCardinality(
                f"need at least one item and one subset, got {self.n_items} and {len(self.subsets)}"
            )
        if self.budget < 0:
            raise BadCardinality(f"need a nonnegative budget, got {self.budget}")
        for s in self.subsets:
            if not s:
                raise BadCardinality("every subset must be nonempty")
            if min(s) < 0 or max(s) >= self.n_items:
                raise DimensionMismatch("subset item out of range")

    @property
    def n_subsets(self) -> int:
        return len(self.subsets)

    @property
    def picks(self) -> int:
        """The subsets a selection takes: ``min(budget, n_subsets)``."""
        return min(self.budget, self.n_subsets)

    @functools.cached_property
    def members(self) -> np.ndarray:
        """Read-only (3, members) rows of subset, item and place in subset,
        in member order, which the cover rows, masks and collector read."""
        sizes = [len(s) for s in self.subsets]
        table = np.empty((3, sum(sizes)), dtype=np.intp)
        table[0] = np.repeat(np.arange(self.n_subsets), sizes)
        table[1] = np.fromiter(itertools.chain.from_iterable(self.subsets), np.intp, table.shape[1])
        table[2] = np.fromiter(itertools.chain.from_iterable(map(range, sizes)), np.intp, table.shape[1])
        table.setflags(write=False)
        return table

    @functools.cached_property
    def subset_masks(self) -> np.ndarray:
        """:func:`_subset_masks` of this system, built once."""
        return _subset_masks(self)

    @functools.cached_property
    def selection_covers(self):
        """``(selections, octets)`` of :func:`_selection_covers`, built once
        per system and shared by :meth:`cop` and :attr:`saa`, which read it
        only for at most ``_BLOCK`` selections; both arrays are read-only."""
        return _selection_covers(self, self.subset_masks)

    def cop(self, costs, sense="max"):
        """Exact combinatorial solver: budgeted maximum coverage (max only).

        Costs follow the :func:`gen_mcp` layout, item flags then selection
        flags, and the selection block must be zero, as a coverage problem's
        support pins it.  The optimum selects :attr:`picks` subsets and flags
        every covered item whose cost is nonnegative, so an item of cost 0
        counts as covered.  The search ranks subsets heaviest first (equal
        weights by index), starts from the greedy selection, and prunes depth
        first with the sum of the largest marginal gains still open (coverage
        is submodular, so no completion gains more).  A node with at most
        ``_BLOCK`` completions scores all of them at once: each subset is a
        row of ``uint64`` item masks, and covered weight is summed from one
        lookup table per mask byte (:func:`_octet_weights`).  A system with
        at most ``_BLOCK`` selections is finished at the root: the cover of
        every selection is ORed once per system (:attr:`selection_covers`,
        shared with :attr:`saa`), and each call only scores those bytes.

        Ties: the greedy selection stands unless another scores strictly
        more.  When C(n_subsets, picks) <= ``_BLOCK``, the answer among the
        selections of the best score is the first in colex order of their
        weight ranks (compare the rank of each one's lightest subset first,
        the heavier first, then its next lightest, and so on); a larger
        system returns the first best selection its depth-first search meets.
        """
        if sense != "max":
            raise ValueError("the coverage search only maximizes")
        n1, n2, picks = self.n_items, self.n_subsets, self.picks
        costs = np.asarray(costs, dtype=float)
        if costs.shape != (n1 + n2,):
            raise DimensionMismatch("one cost per item and per subset required")
        if np.any(costs[n1:] != 0.0):
            raise ValueError("the coverage search needs zero selection costs")
        words, nbytes, masks = (n1 + 63) // 64, (n1 + 7) // 8, self.subset_masks
        selections, root_octets = self.selection_covers if math.comb(n2, picks) <= _BLOCK else (None, None)
        lut = _octet_weights(np.maximum(costs[:n1], 0.0), nbytes)  # (byte, byte value)

        def weigh(covers):
            """Covered weight of each row of item masks, summed byte by byte."""
            return _covered_weight(lut, np.ascontiguousarray(covers.view(np.uint8)[:, :nbytes].T))

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
            """Best score of the system's selections with every subset in
            ``cand``, and the ranks of the selection that has it."""
            scores = _covered_weight(lut, root_octets)
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

    @property
    def saa(self):
        """The sample-average handle over the C(n_subsets, picks) selections
        in colex order (max only), each flagging the items it covers; None
        above ``_SAA_CAP`` selections.  Flagging the whole cover is optimal
        only because the score cannot fall as an item flag rises: the
        support's item lower bounds must be >= 0, and its selection block
        pinned to zero, as a coverage problem's support has them.  Covers are
        scored from their bytes, one lookup table per byte and sample
        (:func:`_octet_weights`), and the first best selection in colex order
        wins; its subsets are read off its colex rank (:func:`_colex_subset`).
        Up to ``_BLOCK`` selections the bytes are built once per system
        (:attr:`selection_covers`, shared with :meth:`cop`); above it each
        call builds them (:func:`_cover_octets`) and keeps none, so a sweep
        over many such systems holds one system's bytes at a time."""
        return self._score if math.comb(self.n_subsets, self.picks) <= _SAA_CAP else None

    def _score(self, boxes: SampleBoxes, sense="max"):
        n1, n2, picks = self.n_items, self.n_subsets, self.picks
        if sense != "max":
            raise ValueError("the coverage table only maximizes")
        if np.any(boxes.l[:n1] < 0.0) or np.any(boxes.l[n1:] != 0.0) or np.any(boxes.u[n1:] != 0.0):
            raise ValueError("the coverage table needs nonnegative item and zero selection bounds")
        if boxes.lo.shape[1:] != (n1 + n2,):
            raise DimensionMismatch("one box per decision coordinate required")
        at_root = math.comb(n2, picks) <= _BLOCK
        octets = self.selection_covers[1] if at_root else _cover_octets(self.subset_masks, n1, picks)
        gather = lambda w: _covered_weight(_octet_weights(w[:, :n1], octets.shape[0]), octets)
        value, p = _best_saa_row(boxes, sense, gather)
        x = np.zeros(n1 + n2)
        x[:n1] = np.unpackbits(octets[:, p], bitorder="little")[:n1]
        x[[n1 + i for i in _colex_subset(p, picks)]] = 1.0
        return value, x


def gen_mcp(n_items: int, n_subsets: int, subset_size: int, budget: int, seed):
    """Maximum-coverage problem with uniformly random fixed-size subsets.

    Decision variables are item-coverage flags followed by subset-selection
    flags; the random cost vector lives on the item block and the selection
    block is pinned to zero in the support.  Returns ``(problem, system)``.
    """
    if not 1 <= subset_size <= n_items:
        raise BadCardinality(f"need 1 <= subset_size <= n_items, got {subset_size} and {n_items}")
    rng = np.random.default_rng(seed)
    subsets = tuple(
        tuple(sorted(rng.choice(n_items, size=subset_size, replace=False).tolist()))
        for _ in range(n_subsets)
    )
    system = CoverageSystem(n_items, subsets, budget)
    meta = {"family": "mcp", "n1": n_items, "n2": n_subsets, "subset_size": subset_size, "budget": budget,
            "subsets": [list(s) for s in subsets]}
    return _mcp_problem(system, meta), system


def _mcp_problem(system: CoverageSystem, meta: dict) -> ProblemInstance:
    """:func:`gen_mcp`'s problem on ``system``, carrying ``meta``."""
    n1, n2 = system.n_items, system.n_subsets
    n = n1 + n2
    # row 0: the budget; row 1 + a: x_a <= sum of the selected subsets covering a
    g = np.zeros((1 + n1, n))
    g[0, n1:] = 1.0
    g[1 + np.arange(n1), np.arange(n1)] = 1.0
    owner, items, _ = system.members
    g[1 + items, n1 + owner] = -1.0
    rhs = np.zeros(1 + n1)
    rhs[0] = float(system.budget)
    feasible = FeasibleSet(0, n, [], g, rhs, np.ones(n))
    support = Polytope.box(np.zeros(n), np.concatenate([np.ones(n1), np.zeros(n2)]))
    return ProblemInstance(feasible, BiaffineLoss.bilinear(n), support, (), 0.0, "max", system, meta)


def family_problem(meta, n: int, family: str | None = None, **given):
    """The generated problem of ``family`` (by default meta's own) that
    ``meta``, updated by the ``given`` fields not None, describes: sorting
    from n and h, spp from h and r, mcp from n1, subsets and budget; None
    for another family, or when a field other than n1 or budget is missing
    or empty.  Its structure is built first, and checks its fields (one not
    an int raises ``TypeError``); one without ``n`` coordinates raises
    :class:`~dro.errors.StructureMisfit` before the problem is built."""
    given = {k: v for k, v in given.items() if v is not None}
    meta = {**meta, **given} if given else meta
    family = family or meta.get("family")
    if family == "sorting" and meta.get("n") and meta.get("h"):
        s = Cardinality(meta["n"], meta["h"])
        size, shape, build = s.n, f"{s.n} items", lambda: gen_sorting(s.n, s.h)
    elif family == "spp" and meta.get("h") and meta.get("r"):
        s = LayeredGraph(meta["h"], meta["r"])
        size, shape = s.num_arcs, f"a ({s.h}, {s.r}) graph has {s.num_arcs} arcs"
        build = lambda: gen_layered_spp(s.h, s.r)[0]
    elif family == "mcp" and meta.get("subsets"):
        s = CoverageSystem(meta["n1"], meta["subsets"], meta["budget"])
        size, shape = s.n_items + s.n_subsets, f"{s.n_items} items plus {s.n_subsets} subsets"
        build = lambda: _mcp_problem(s, meta)
    else:
        return None
    if size != n:
        raise StructureMisfit(f"structure does not fit the instance: {shape}, but the instance has dimension {n}")
    return build()


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
    """``graph``'s bound :meth:`LayeredGraph.cop`, as the sweeps build it."""
    return graph.cop


def sorting_cop(n: int, h: int):
    """The bound :meth:`Cardinality.cop` of ``h`` of ``n`` items, as the sweeps build it."""
    return Cardinality(n, h).cop


# a coverage search node with at most this many completions is finished in
# one vectorized pass over all of them
_BLOCK = 1 << 15
# the most selections a coverage system's sample-average handle scores; above
# _BLOCK it builds their cover bytes on each call and keeps none
_SAA_CAP = 1 << 22


@functools.lru_cache(maxsize=None)
def _colex_combinations(k: int) -> np.ndarray:
    """Read-only (k, C(m, k)) table, one column per k-subset of ``range(m)``,
    for the largest ``m`` with C(m, k) <= ``_BLOCK``.  Colex order lists the
    subsets of ``range(m')`` first, so the first C(m', k) columns serve every
    smaller ``m'`` and one table per ``k`` serves every search node."""
    m = k
    while k and math.comb(m + 1, k) <= _BLOCK:
        m += 1
    table = _colex(m, k)
    table.setflags(write=False)
    return table


def _colex_blocks(m: int, j: int):
    """``(t, start, stop)`` for t = j - 1 ... m - 1, j >= 1: the columns
    ``start:stop`` of the colex j-subsets of ``range(m)`` are those whose
    largest element is t, the first ``stop - start`` = C(t, j - 1) colex
    (j - 1)-subsets (those of ``range(t)``) with t added."""
    start = 0
    for t in range(j - 1, m):
        stop = start + math.comb(t, j - 1)
        yield t, start, stop
        start = stop


def _colex(m: int, k: int) -> np.ndarray:
    """(k, C(m, k)) table, one column per k-subset of ``range(m)``, elements
    ascending down a column, in colex order: by largest element, then next
    largest, and so on.  Built level by level from the 1-subsets
    (:func:`_colex_blocks`), so column p is the subset of colex rank p,
    whose j-th smallest element c_j gives p = sum_j C(c_j, j).  Level j
    lists the j-subsets of ``range(m - k + j)``, all that level j + 1
    reads, so no level outgrows the last."""
    if k == 0 or k > m:
        return np.zeros((k, math.comb(m, k)), dtype=np.intp)
    table = np.arange(m - k + 1, dtype=np.intp)[None]
    for j in range(2, k + 1):
        level = np.empty((j, math.comb(m - k + j, j)), dtype=np.intp)
        for t, start, stop in _colex_blocks(m - k + j, j):
            level[:-1, start:stop] = table[:, : stop - start]
            level[-1, start:stop] = t
        table = level
    return table


def _colex_subset(rank: int, k: int) -> list:
    """The k-subset of colex rank ``rank``, ascending: column ``rank`` of
    :func:`_colex` for any large enough range, built without the table."""
    out = []
    for j in range(k, 0, -1):
        t = j - 1
        while math.comb(t + 1, j) <= rank:
            t += 1
        out.append(t)
        rank -= math.comb(t, j)
    return out[::-1]


def _subset_masks(system: CoverageSystem) -> np.ndarray:
    """Read-only (n_subsets, words) ``uint64`` item masks, item ``a`` at bit
    ``a % 64`` of word ``a // 64``."""
    words = (system.n_items + 63) // 64
    bits = np.zeros((system.n_subsets, 64 * words), dtype=bool)
    owner, items, _ = system.members
    bits[owner, items] = True
    masks = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    masks.setflags(write=False)
    return masks


def _cover_octets(masks: np.ndarray, n_items: int, picks: int) -> np.ndarray:
    """(byte, C(n_subsets, picks)) bytes of the cover of every selection of
    ``picks`` of the subsets ``masks`` ((n_subsets, words) ``uint64``), in
    colex order, item ``a`` at bit ``a % 8`` of byte ``a // 8``.  Built by
    :func:`_colex`'s recursion: each level ORs subset t's bytes into the
    first C(t, j - 1) covers of the level below."""
    subset_octets = masks.view(np.uint8)[:, : (n_items + 7) // 8].T
    if picks == 0:
        return np.zeros((subset_octets.shape[0], 1), dtype=np.uint8)
    rest = masks.shape[0] - picks  # level j covers the first rest + j subsets
    covers = subset_octets[:, : rest + 1].copy()
    for j in range(2, picks + 1):
        level = np.empty((covers.shape[0], math.comb(rest + j, j)), dtype=np.uint8)
        for t, start, stop in _colex_blocks(rest + j, j):
            np.bitwise_or(covers[:, : stop - start], subset_octets[:, t, None], out=level[:, start:stop])
        covers = level
    return covers


def _selection_covers(system: CoverageSystem, masks: np.ndarray):
    """Every selection of ``min(budget, n_subsets)`` subsets, colex over
    subset indices, as a read-only (picks, P) index table (a view of
    :func:`_colex_combinations`), and the read-only (byte, P) bytes of each
    one's cover (:func:`_cover_octets`)."""
    picks = system.picks
    selections = _colex_combinations(picks)[:, : math.comb(system.n_subsets, picks)]
    octets = _cover_octets(masks, system.n_items, picks)
    octets.setflags(write=False)
    return selections, octets


# -- sample-average tables ---------------------------------------------------


def _octet_weights(weights: np.ndarray, nbytes: int) -> np.ndarray:
    """(..., byte, byte value) table of the weight that each value's set
    bits carry, over (..., items) ``weights``, item ``a`` at bit ``a % 8`` of
    byte ``a // 8``, items past the last of weight 0.  Built by doubling
    (entry v + 2**b = entry v + bit b's weight, v < 2**b), so every entry
    sums its bits bit 0 first and no BLAS product sets a bit: the coverage
    COP and decision table read one table on every machine."""
    w = np.zeros(weights.shape[:-1] + (8 * nbytes,))
    w[..., : weights.shape[-1]] = weights
    w = w.reshape(weights.shape[:-1] + (nbytes, 8))
    table = np.zeros(w.shape[:-1] + (256,))
    for b in range(8):
        table[..., 1 << b : 2 << b] = table[..., : 1 << b] + w[..., b, None]
    return table


def _covered_weight(lut: np.ndarray, octets: np.ndarray) -> np.ndarray:
    """Covered weight of each column of the (byte, cover) mask ``octets``,
    summed byte by byte from the :func:`_octet_weights` table ``lut``."""
    total = lut[..., 0, :].take(octets[0], axis=-1)
    for b in range(1, octets.shape[0]):
        total += lut[..., b, :].take(octets[b], axis=-1)
    return total


# the most (sample, decision) scores a sample-average table holds at once
_SAMPLE_CHUNK = 1 << 18


def _best_saa_row(boxes: SampleBoxes, sense: str, gather):
    """``(value, row)``: the first row of a decision table with the best
    sample-average score, radius left out, by exact comparison.

    ``gather(weights)`` sums each row of ``weights`` over each decision of
    the table, one coordinate after another, (k, n) -> (k, P).  Take sample
    k's box [L, U], its masked widths D (U - L on its mask where positive,
    else 0) and s = t - m.L: it scores ``sum_{i not in m} U_i x_i +
    sum_{i in m} L_i x_i + min(s, D.x)`` (min) or ``L.x + max(0, s - D.(1 -
    x))`` (max), where ``s - D.(1 - x)`` is taken as ``(s - fsum(D)) +
    D.x``; a sample without an equality scores ``U.x`` (``L.x``).  The
    linear terms of all samples are summed per coordinate, sample by
    sample, before the gather; the nonlinear terms are added to the scores
    one sample after another, by one reduction per chunk of samples, and
    the value is the best score over K.
    """
    lo, hi, m, eq = boxes.lo, boxes.hi, boxes.m, boxes.eq
    scores = gather((np.where(m != 0, lo, hi) if sense == "min" else lo).sum(axis=0)[None])[0]
    width, me = (hi - lo)[eq], m[eq]
    masked = np.where((me != 0) & (width > 0), width, 0.0)
    offsets = boxes.t[eq] - (me * lo[eq]).sum(axis=1)
    if sense == "max":
        offsets -= [math.fsum(d) for d in masked]
    step = max(1, _SAMPLE_CHUNK // scores.size)
    for i in range(0, masked.shape[0], step):
        covered, s = gather(masked[i : i + step]), offsets[i : i + step, None]
        if sense == "min":
            terms = np.minimum(s, covered, out=covered)
        else:
            terms = np.maximum(0.0, np.add(s, covered, out=covered), out=covered)
        # one sum down the samples from the running score, ((s + t0) + t1) + ...:
        # numpy adds a C-ordered block's rows one after another unless they
        # are its fast axis, as in a one-decision table, where it pairs them
        terms[0] += scores
        if terms.shape[1] > 1:
            np.add.reduce(terms, axis=0, out=scores)
        else:
            scores[:] = np.add.accumulate(terms[:, 0])[-1]
    row = int(scores.argmin() if sense == "min" else scores.argmax())
    return float(scores[row]) / lo.shape[0], row


def _score_table(rows: np.ndarray, n: int, boxes: SampleBoxes, sense: str):
    """``(value, x)`` of the best decision of the (h, P) table ``rows`` (column
    p lists where decision p of ``n`` coordinates is 1) by :func:`_best_saa_row`,
    both senses, the value without the radius as in ``closedform._saa_milp``."""
    if boxes.lo.shape[1:] != (n,):
        raise DimensionMismatch("one box per decision coordinate required")

    def gather(weights):
        # rows of the (n, k) transpose added one table row after another:
        # one (h, P, k) gather would cost 466 KB a call at (6, 3) paths and
        # 40 samples, and numpy would pair its terms in a one-decision table
        wt = np.ascontiguousarray(weights.T)
        total = wt.take(rows[0], axis=0)
        for r in rows[1:]:
            total += wt.take(r, axis=0)
        return np.ascontiguousarray(total.T)

    value, p = _best_saa_row(boxes, sense, gather)
    x = np.zeros(n)
    x[rows[:, p]] = 1.0
    return value, x


def _path_arcs(graph: LayeredGraph) -> np.ndarray:
    """Read-only (h, r**(h-1)) table whose column p lists the arcs of path p,
    layer by layer; paths run in lexicographic order of their nodes, the
    node of the first intermediate layer first (:attr:`LayeredGraph.arc_table`)."""
    h, arcs = graph.h, graph.arc_table
    nodes = np.indices((graph.r,) * (h - 1)).reshape(h - 1, -1)  # (layer, path)
    inner = [arcs[layer, nodes[layer - 1], nodes[layer]] for layer in range(1, h - 1)]
    table = np.vstack([arcs[0, 0, nodes[0]], *inner, arcs[h - 1, nodes[-1], 0]])
    table.setflags(write=False)
    return table
