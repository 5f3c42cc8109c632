"""The budgeted maximum-coverage search as ``dro.problems.mcp_cop`` ran it
before each handle kept the covers of every selection, for tests only: the
reference that ``mcp_cop`` must match bit for bit.  Every node, the root
included, ORs its ranked subset masks into the covers it scores."""

import functools
import heapq
import itertools
import math

import numpy as np

from dro.errors import BadCardinality, DimensionMismatch
from dro.problems import _BLOCK

_BYTE_BITS = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(float)


@functools.lru_cache(maxsize=None)
def _colex_combinations(k: int) -> np.ndarray:
    """(k, C(m, k)) k-subsets of ``range(m)`` in colex order, for the largest
    ``m`` with C(m, k) <= ``_BLOCK``."""
    m = k
    while k and math.comb(m + 1, k) <= _BLOCK:
        m += 1
    rows = sorted(itertools.combinations(range(m), k), key=lambda c: c[::-1])
    return np.array(rows, dtype=np.intp).reshape(len(rows), k).T.copy()


def reference_mcp_cop(system):
    """Handle of the search: ``solve(costs)`` gives ``(value, x)``."""
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

        def weigh(covers):
            """Covered weight of each row of item masks, summed byte by byte."""
            octets = np.ascontiguousarray(covers.view(np.uint8)[:, :nbytes].T)
            total = lut[0].take(octets[0])
            for b in range(1, nbytes):
                total += lut[b].take(octets[b])
            return total

        order = np.argsort(-weigh(masks), kind="stable")
        ranked = masks[order]
        # greedy incumbent: the largest marginal gain, ties to the heavier subset
        cover = np.zeros(words, dtype="<u8")
        taken = np.zeros(n2, dtype=bool)
        for _ in range(picks):
            gains = np.where(taken, -1.0, weigh(ranked & ~cover))
            i = int(np.argmax(gains))
            taken[i] = True
            cover |= ranked[i]
        best_value, best_chosen = float(weigh(cover[None])[0]), np.flatnonzero(taken).tolist()

        def search(cover, value, cand, k, chosen):
            """Improve on the best selection by completing ``chosen`` (covering
            ``cover`` with weight ``value``) with ``k`` of the ranked subsets
            ``cand``."""
            nonlocal best_value, best_chosen
            open_ = ranked[cand]
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
                table = _colex_combinations(k)[:, : math.comb(m, k)]
                covers = np.tile(cover, (table.shape[1], 1))
                for row in table:
                    covers |= open_[row]
                scores = weigh(covers)
                i = int(np.argmax(scores))
                if scores[i] > best_value:
                    best_value, best_chosen = float(scores[i]), chosen + cand[table[:, i]].tolist()
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

        search(np.zeros(words, dtype="<u8"), 0.0, np.arange(n2), picks, [])
        x = np.zeros(n1 + n2)
        chosen = order[best_chosen]
        x[n1 + chosen] = 1.0
        cover = np.bitwise_or.reduce(masks[chosen], axis=0)
        covered = np.unpackbits(cover.view(np.uint8), bitorder="little")[:n1].astype(bool)
        x[:n1] = covered & (costs[:n1] >= 0.0)
        return float(costs @ x), x

    return solve
