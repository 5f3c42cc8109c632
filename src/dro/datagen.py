"""Nominal cost model, sampling, and the three data-corruption channels.

The nominal distribution is a product of per-component beta laws on [0, 1].
Corruption turns exact samples into interval boxes, partial observations, or
total-cost records; the adaptive collector replays an optimism-driven
selection rule to produce realistic decision histories.

PRNG contract: every randomized routine consumes a ``numpy.random.Generator``
(PCG64).  Integer seeds are accepted and expanded with ``default_rng``;
derived streams and draw order are documented per routine, so runs replay
exactly for a fixed seed and numpy version.  The adaptive collectors draw
their whole (K, n) history of nominal samples in one call before choosing any
decision; their selection rules consume no randomness, so this is the stream
of K one-row draws.  A collector given a batch of histories draws each one's
samples from its own seed or generator, in batch order, then takes each
step of all of them at once; every history goes through the same
element-wise operations in the same order as alone, so its decisions,
samples and generator state are those of its own collection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MeanOutOfRange
from .model import Bandit, Interval, SemiBandit
from .problems import LayeredGraph, shortest_path_dp


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def mean_interval(sigma: float):
    """Open interval of means compatible with a beta law of the given std;
    raises :class:`~dro.errors.MeanOutOfRange` unless 0 < sigma < 1/2."""
    if not 0.0 < sigma < 0.5:  # NaN included
        raise MeanOutOfRange(f"no beta distribution has std {sigma}; need 0 < sigma < 1/2")
    half = np.sqrt(1.0 - 4.0 * sigma * sigma) / 2.0
    return 0.5 - half, 0.5 + half


def beta_params(m: float, sigma: float):
    """Shape parameters (alpha, beta) of the beta law with mean m and std sigma.

    alpha = m^2 (1 - m) / sigma^2 - m and beta = alpha (1/m - 1); both are
    positive exactly when m lies inside :func:`mean_interval`.
    """
    lo, hi = mean_interval(sigma)
    if not (lo < m < hi):
        raise MeanOutOfRange(f"mean {m} outside the feasible interval ({lo}, {hi})")
    alpha = m * m * (1.0 - m) / (sigma * sigma) - m
    beta = alpha * (1.0 / m - 1.0)
    return float(alpha), float(beta)


@dataclass(eq=False)
class BetaNominal:
    """Independent per-component beta laws on [0, 1]."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        if self.alpha.shape != self.beta.shape:
            raise DimensionMismatch("alpha and beta must match")
        if np.any(self.alpha <= 0) or np.any(self.beta <= 0):
            raise ValueError("shape parameters must be positive")

    @classmethod
    def from_mean_std(cls, means, sigma: float) -> "BetaNominal":
        means = np.asarray(means, dtype=float)
        pairs = [beta_params(m, sigma) for m in means]
        return cls(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))

    @classmethod
    def random(cls, n: int, sigma: float, seed_or_rng) -> "BetaNominal":
        """Means drawn uniformly from the feasible interval (one draw per
        component, in component order)."""
        rng = _rng(seed_or_rng)
        lo, hi = mean_interval(sigma)
        return cls.from_mean_std(rng.uniform(lo, hi, size=n), sigma)

    @property
    def n(self) -> int:
        return self.alpha.shape[0]

    @property
    def mean(self) -> np.ndarray:
        return self.alpha / (self.alpha + self.beta)


def sample_nominal(dist: BetaNominal, num_samples: int, seed_or_rng) -> np.ndarray:
    """(K, n) i.i.d. draws; a single vectorized beta draw in (K, n) order."""
    if num_samples == 0:
        return np.zeros((0, dist.n))
    rng = _rng(seed_or_rng)
    return rng.beta(dist.alpha, dist.beta, size=(num_samples, dist.n))


def corrupt_interval(data, delta, p, seed_or_rng):
    """Interval scenarios from exact samples.

    Each entry (k, a) is widened to [max(c-delta, 0), min(c+delta, 1)] with
    probability ``p[a]`` and kept zero-width otherwise.  ``delta`` may be a
    scalar or a (K, n) schedule.  RNG order: one uniform matrix of shape
    (K, n), row-major.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    num_k, n = data.shape
    p = np.broadcast_to(np.asarray(p, dtype=float), (n,))
    delta = np.broadcast_to(np.asarray(delta, dtype=float), (num_k, n))
    rng = _rng(seed_or_rng)
    hit = rng.random((num_k, n)) < p
    width = np.where(hit, delta, 0.0)
    lower = np.maximum(data - width, 0.0)
    upper = np.minimum(data + width, 1.0)
    return [Interval(lower[k], upper[k]) for k in range(num_k)]


def growing_delta(num_k: int, n: int, k_max: int) -> np.ndarray:
    """Noise schedule that scales with the sample index: (k-1)/k_max."""
    return np.repeat((np.arange(num_k) / float(k_max)).reshape(-1, 1), n, axis=1)


def observe_semibandit(data, decisions):
    """Scenario k exposes the exact sample values on decision k's support."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    decisions = np.atleast_2d(np.asarray(decisions, dtype=float))
    if data.shape != decisions.shape:
        raise DimensionMismatch("data and decisions must align")
    out = []
    for c, x in zip(data, decisions):
        idx = np.flatnonzero(x > 0.5)
        out.append(SemiBandit(tuple((int(a), float(c[a])) for a in idx)))
    return out


def observe_bandit(data, decisions):
    """Scenario k records only decision k's total cost: the index-order sum
    of the values :func:`observe_semibandit` records for sample k."""
    semi = observe_semibandit(data, decisions)
    decisions = np.atleast_2d(np.asarray(decisions, dtype=float))
    return [Bandit(x, float(sum(v for _, v in s.observed))) for x, s in zip(decisions, semi)]


_OBSERVERS = {"semibandit": observe_semibandit, "bandit": observe_bandit}


def observe(feedback: str, samples, decisions, n: int):
    """Scenarios of a collector history under ``feedback`` (``semibandit`` or
    ``bandit``), zero-padded up to the instance dimension ``n`` (the
    selection block of a coverage instance)."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    decisions = np.atleast_2d(np.asarray(decisions, dtype=float))
    if samples.shape[1] > n:
        raise DimensionMismatch(f"history has {samples.shape[1]} components, the instance {n}")
    pad = np.zeros((samples.shape[0], n - samples.shape[1]))
    return _OBSERVERS[feedback](np.hstack([samples, pad]), np.hstack([decisions, pad]))


@dataclass(eq=False)
class CucbState:
    """Observation counts and running mean costs, per component of one
    history, shape (n,), or of a batch of histories, shape (M, n); every
    operation acts element by element."""

    counts: np.ndarray
    means: np.ndarray

    @classmethod
    def fresh(cls, shape) -> "CucbState":
        return cls(np.zeros(shape, dtype=int), np.zeros(shape))

    def _bonus(self, step: int) -> np.ndarray:
        """Exploration bonus sqrt(3 ln(step) / (2 count)); infinite for
        unobserved components (this also covers step 1, where it is 0/0)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            bonus = np.sqrt(3.0 * np.log(step) / (2.0 * self.counts))
        return np.where(self.counts > 0, bonus, np.inf)

    def optimistic_costs(self, step: int) -> np.ndarray:
        """Mean minus the exploration bonus, clipped at zero (minimization)."""
        return np.maximum(self.means - self._bonus(step), 0.0)

    def pessimistic_values(self, step: int) -> np.ndarray:
        """Mean plus the exploration bonus, clipped at one (maximization)."""
        return np.minimum(self.means + self._bonus(step), 1.0)

    def update(self, mask, values):
        hit = mask > 0.5
        self.counts[hit] += 1
        self.means[hit] += (values[hit] - self.means[hit]) / self.counts[hit]


@dataclass(eq=False)
class CollectorRun:
    """Decisions and the hidden samples behind them, one row per step;
    :func:`observe` turns them into scenarios."""

    decisions: np.ndarray  # (K, n) binary
    samples: np.ndarray  # (K, n) hidden full samples
    selections: list | None = None  # coverage runs: chosen subset indices


def _as_batch(dist, seed_or_rng):
    """``(dists, seeds, single)``; one law and its seed are a batch of one."""
    if isinstance(dist, BetaNominal):
        return [dist], [seed_or_rng], True
    dists, seeds = list(dist), list(seed_or_rng)
    if len(dists) != len(seeds):
        raise DimensionMismatch("one seed or generator per nominal law required")
    return dists, seeds, False


def _collect(dists, num_k: int, seeds, width: int, choose):
    """The CUCB loop over a batch: each history's K nominal samples are
    drawn first, in one :func:`sample_nominal` call on its own seed (the
    only RNG consumption); then per step k (1-based) ``choose(state, k)``
    picks every history's decision, and each decision's components of its
    sample k are folded into the running means.  A history narrower than
    ``width`` is zero-padded, and no decision touches the padding.  Returns
    one ``(decisions, samples)`` pair per history."""
    samples = [sample_nominal(d, num_k, _rng(s)) for d, s in zip(dists, seeds)]
    padded = np.zeros((len(samples), num_k, width))
    for row, sample in zip(padded, samples):
        row[:, : sample.shape[1]] = sample
    state = CucbState.fresh((len(samples), width))
    decisions = np.zeros(padded.shape)
    for k in range(num_k):
        decisions[:, k] = choose(state, k + 1)
        state.update(decisions[:, k], padded[:, k])
    return [(np.ascontiguousarray(d[:, : s.shape[1]]), s) for d, s in zip(decisions, samples)]


def cucb_collect(graph: LayeredGraph, dist, num_k: int, seed_or_rng):
    """Adaptive path history on ``graph``: per step, route along the
    shortest path under the optimistic adjusted costs, then observe the arcs
    used.  With sequences of laws and seeds, one per history, a list of
    runs comes back, every step of the batch taken in one routing DP."""
    dists, seeds, single = _as_batch(dist, seed_or_rng)
    if any(d.n != graph.num_arcs for d in dists):
        raise DimensionMismatch("nominal dimension must equal the arc count")
    runs = [CollectorRun(*pair) for pair in _collect(
        dists, num_k, seeds, graph.num_arcs,
        lambda state, step: shortest_path_dp(graph, state.optimistic_costs(step))[1],
    )]
    return runs[0] if single else runs


def cucb_collect_mcp(system, dist, num_k: int, seed_or_rng):
    """Adaptive coverage histories via greedy optimistic subset selection.

    Per step: greedily pick ``budget`` subsets maximizing the marginal sum of
    the optimistic item values (ties to the lowest subset index), then
    observe the covered items.  Decisions and samples live on the item block
    only; ``selections`` records the chosen subsets of each step.

    With sequences of systems, laws and seeds, one per history, a list of
    runs comes back; the systems may differ in every size, and each greedy
    pick is taken for the whole batch at once.

    A gain sums its subset's uncovered values one by one in member order
    (numpy's ``sum`` over the uncovered values gives the same bits while at
    most seven remain); the zero-valued padding of shorter subsets and
    smaller systems adds exact zeros after them.
    """
    dists, seeds, single = _as_batch(dist, seed_or_rng)
    systems = [system] if single else list(system)
    if len(systems) != len(dists) or any(d.n != s.n_items for d, s in zip(dists, systems)):
        raise DimensionMismatch("nominal dimension must equal the item count")
    if not systems:
        return []
    # one row of member indices per subset, padded with the index of an
    # appended item that is never covered and worth zero; a system with
    # fewer subsets gets rows of that item alone, never picked
    n = max(s.n_items for s in systems)
    width = max(len(m) for s in systems for m in s.subsets)
    members = np.full((len(systems), max(s.n_subsets for s in systems), width), n)
    for row, s in zip(members, systems):
        for i, m in enumerate(s.subsets):
            row[i, : len(m)] = m
    absent = members[:, :, 0] == n
    picks = [max(0, min(s.budget, s.n_subsets)) for s in systems]
    # the histories still picking at each pick of a step
    lives = [np.flatnonzero(np.array(picks) > t) for t in range(max(picks))]
    # member indices into the flattened (batch, n + 1) item arrays
    members += (n + 1) * np.arange(len(systems))[:, None, None]
    selections = [[] for _ in systems]

    def choose(state, step):
        values = np.zeros((len(systems), n + 1))
        values[:, :n] = state.pessimistic_values(step)
        values = values.take(members)
        covered = np.zeros((len(systems), n + 1), dtype=bool)
        taken = absent.copy()
        chosen = np.zeros((len(systems), len(lives)), dtype=int)
        for t, live in enumerate(lives):
            terms = np.where(covered.take(members), 0.0, values)
            gains = np.cumsum(terms, axis=2)[:, :, -1]
            gains[taken] = -np.inf
            chosen[:, t] = best = gains.argmax(axis=1)
            taken[live, best[live]] = True
            covered.put(members[live, best[live]], True)
        for sel, row, p in zip(selections, chosen.tolist(), picks):
            sel.append(tuple(row[:p]))
        return covered[:, :-1]

    runs = [
        CollectorRun(*pair, sel)
        for pair, sel in zip(_collect(dists, num_k, seeds, n, choose), selections)
    ]
    return runs[0] if single else runs
