"""Reformulation builders versus a row-by-row reference, closed forms,
enumeration, and metric axioms."""

import dataclasses
import hashlib

import numpy as np
import pytest

from dro.closedform import solve_disjoint_bandit, solve_endpoints, worst_case_cost
from dro.datagen import (
    BetaNominal,
    cucb_collect,
    cucb_collect_mcp,
    observe_bandit,
    observe_semibandit,
)
from dro.model import (
    Bandit,
    BiaffineLoss,
    Exact,
    FeasibleSet,
    Interval,
    Polytope,
    ProblemInstance,
    SemiBandit,
    lower_scenario,
    validate_instance,
)
from dro.problems import gen_layered_spp, gen_mcp, gen_sorting
from dro.reformulate import (
    DiscreteDistribution,
    _negated_loss,
    build_dro_milp,
    build_full_dual_milp,
    build_wc_expectation_lp,
    discrete_w1,
    solve_dro,
    solve_dro_milp,
)
from dro.selfcheck import (
    check_bandit_oracle,
    check_interval_oracle,
    random_bandit_instance,
    random_box_instance,
    random_endpoint_instance,
    random_interval_instance,
    read_lowered_rows,
)
from dro.solver import (
    EQ,
    INFEASIBLE,
    ITERLIMIT,
    LE,
    OPTIMAL,
    LinearProgram,
    MixedIntegerProgram,
    ReferenceKernel,
    ScipyBackend,
    SolveResult,
    dump_program,
    solve_lp,
)
from enumeration import all_paths, path_vector


def unit_box(n):
    return Polytope.box(np.zeros(n), np.ones(n))


def reference_dro_milp(inst):
    """The full dual MILP assembled one dense row at a time: the builder the
    block assembly in ``build_full_dual_milp`` must reproduce bit for bit,
    and whose values the compact form must reach.  Its columns are x, lam,
    every sample's support multipliers nu, then every sample's scenario
    multipliers gamma."""
    validate_instance(inst)
    loss = inst.loss if inst.sense == "min" else _negated_loss(inst.loss)
    n = inst.n
    fs = inst.feasible
    support = inst.support
    lowered = [lower_scenario(s, support) for s in inst.scenarios]
    num_k = len(lowered)
    w0 = support.num_rows
    lam = n
    nu, gamma, start = [], [], n + 1 + num_k * w0
    for k, p in enumerate(lowered):
        nu.append(slice(n + 1 + k * w0, n + 1 + (k + 1) * w0))
        gamma.append(slice(start, start + p.num_rows))
        start += p.num_rows
    nvar = start
    int_mask = np.zeros(nvar, dtype=bool)
    int_mask[:n] = fs.integer_mask()

    c = np.zeros(nvar)
    c[:n] = loss.t_x
    c[lam] = inst.epsilon
    for k in range(num_k):
        c[nu[k]] = support.rows_b / num_k
        c[gamma[k]] = lowered[k].rows_b

    rows, rels, rhs = [], [], []

    def add(row, rel, b):
        rows.append(row)
        rels.append(rel)
        rhs.append(b)

    t_xx, t_c = loss.t_xx, loss.t_c
    b0t = support.rows_a.T
    for k in range(num_k):
        bkt = lowered[k].rows_a.T
        nu_sl, ga_sl = nu[k], gamma[k]
        for i in range(n):
            row = np.zeros(nvar)
            row[:n] = t_xx[i] / num_k
            row[nu_sl] = -b0t[i] / num_k
            row[ga_sl] = -bkt[i]
            add(row, EQ, -t_c[i] / num_k)
        for i in range(n):
            row = np.zeros(nvar)
            row[:n] = t_xx[i]
            row[nu_sl] = -b0t[i]
            row[lam] = -1.0
            add(row, LE, -t_c[i])
            row2 = np.zeros(nvar)
            row2[:n] = -t_xx[i]
            row2[nu_sl] = b0t[i]
            row2[lam] = -1.0
            add(row2, LE, t_c[i])
    gmat = fs.matrix()
    for i in range(fs.num_rows):
        row = np.zeros(nvar)
        row[:n] = gmat[i]
        add(row, LE, fs.rhs[i])

    up = np.full(nvar, np.inf)
    up[:n] = fs.upper
    lp = LinearProgram(
        c, np.array(rows), tuple(rels), np.array(rhs), np.zeros(nvar), up,
        sense="min", c0=loss.t_const,
    )
    return MixedIntegerProgram(lp, int_mask), "full"


def reference_compact_milp(inst):
    """The compact MILP for box data assembled one row at a time, looping
    over samples, coordinates and candidate points (c_hat, c), from each
    scenario's lowered polytope read row by row.  Coordinates outside the
    sample's equality share a column per (i, L, U), in order of first
    occurrence, and only the first of them emits rows.  Its columns are x,
    lam, the epigraph columns, then (mu+, mu-) per sample with an
    equality."""
    validate_instance(inst)
    loss = inst.loss if inst.sense == "min" else _negated_loss(inst.loss)
    n, fs = inst.n, inst.feasible
    num_k = inst.num_samples
    l, u = inst.support.box_bounds()
    samples = []
    for s in inst.scenarios:
        lo, hi, m, t = read_lowered_rows(lower_scenario(s, inst.support))
        if np.isnan(t):
            m = t = None
        samples.append((np.clip(lo, l, u), np.clip(hi, l, u), m, t))
    eq = tuple(k for k, s in enumerate(samples) if s[2] is not None)

    sigma = np.zeros((num_k, n), dtype=int)
    shared, count, emits = {}, [], set()
    for k, (lo, hi, m, t) in enumerate(samples):
        for i in range(n):
            if m is None or m[i] == 0:
                key = (i, float(lo[i]), float(hi[i]))
                if key in shared:
                    sigma[k, i] = shared[key]
                    count[shared[key] - n - 1] += 1
                    continue
                shared[key] = n + 1 + len(count)
            sigma[k, i] = n + 1 + len(count)
            count.append(1)
            emits.add((k, i))
    lam = n
    mu = {k: n + 1 + len(count) + 2 * j for j, k in enumerate(eq)}
    nvar = n + 1 + len(count) + 2 * len(eq)

    rows, rhs = [], []
    for k, (lo, hi, m, t) in enumerate(samples):
        for i in range(n):
            if (k, i) not in emits:
                continue
            big_l, big_u = lo[i], hi[i]
            mi = 0.0 if m is None else m[i]
            points = [(big_l, l[i]), (big_u, big_u), (big_u, u[i])]
            if mi != 0:
                points += [(big_l, u[i]), (big_u, l[i])]
            seen = {(big_l, big_l)}
            for c_hat, c in points:
                if (c_hat, c) in seen:
                    continue
                seen.add((c_hat, c))
                row = np.zeros(nvar)
                row[:n] = (c - big_l) * loss.t_xx[i]
                row[lam] = -abs(c - c_hat)
                b = -(c - big_l) * loss.t_c[i]
                if m is not None:
                    row[mu[k]] = -mi * (c_hat - big_l)
                    row[mu[k] + 1] = mi * (c_hat - big_l)
                if np.any(row != 0) or b != 0:  # else only -sigma <= 0
                    row[sigma[k, i]] = -1.0
                    rows.append(row)
                    rhs.append(b)
    gmat = fs.matrix()
    for i in range(fs.num_rows):
        row = np.zeros(nvar)
        row[:n] = gmat[i]
        rows.append(row)
        rhs.append(fs.rhs[i])

    c = np.zeros(nvar)
    c[:n] = loss.t_x
    c0 = loss.t_const
    c[lam] = inst.epsilon
    for j, size in enumerate(count):
        c[n + 1 + j] = size / num_k
    for k, (lo, hi, m, t) in enumerate(samples):
        c[:n] += loss.t_xx.T @ lo / num_k
        c0 += lo @ loss.t_c / num_k
        if m is not None:
            c[mu[k]] = (t - m @ lo) / num_k
            c[mu[k] + 1] = -(t - m @ lo) / num_k
    up = np.full(nvar, np.inf)
    up[:n] = fs.upper
    int_mask = np.zeros(nvar, dtype=bool)
    int_mask[:n] = fs.integer_mask()
    lp = LinearProgram(
        c, np.array(rows), (LE,) * len(rows), np.array(rhs), np.zeros(nvar), up,
        sense="min", c0=c0,
    )
    return MixedIntegerProgram(lp, int_mask), "compact"


def _spp_history(h, r, num_k, feedback, seed):
    ss = np.random.SeedSequence([seed, h, r, num_k])
    rng_means, rng_data = [np.random.default_rng(s) for s in ss.spawn(2)]
    skeleton, graph = gen_layered_spp(h, r)
    dist = BetaNominal.random(graph.num_arcs, 0.125, rng_means)
    run = cucb_collect(graph, dist, num_k, rng_data)
    return skeleton.instance(feedback(run.samples, run.decisions), h / 11.0)


def _mcp_bandit(seed):
    n1, n2 = 8, 6
    skeleton, system = gen_mcp(n1, n2, 3, 2, seed)
    rng = np.random.default_rng(seed)
    dist = BetaNominal.random(n1, 0.125, rng)
    run = cucb_collect_mcp(system, dist, 6, rng)
    pad = np.zeros((6, n2))
    scen = observe_bandit(np.hstack([run.samples, pad]), np.hstack([run.decisions, pad]))
    return skeleton.instance(scen, 0.4)


def _cut_box(n):
    # unit box cut by sum(c) <= n - 1.5, which is not a box system
    box = unit_box(n)
    return Polytope(n, np.vstack([box.rows_a, np.ones((1, n))]), np.append(box.rows_b, n - 1.5))


def _non_box_support(seed):
    # exact and semibandit samples inside the cut box
    rng = np.random.default_rng(seed)
    n = 5
    sk = gen_sorting(n, 2)
    data = rng.random((4, n)) * 0.6
    scen = (Exact(data[0]), SemiBandit(((0, data[1, 0]), (3, data[1, 3]))), Exact(data[2]))
    scen += tuple(observe_semibandit(data[3:], np.array([[1.0, 1.0, 0.0, 0.0, 1.0]])))
    return ProblemInstance(sk.feasible, sk.loss, _cut_box(n), scen, 0.3)


def _non_box_intervals(seed):
    # six noise boxes that stick out of the cut box, so clipping them matters
    rng = np.random.default_rng(seed)
    sk = gen_sorting(5, 2)
    data, width = rng.random((6, 5)) * 0.6, rng.random((6, 5)) * 0.5
    scen = tuple(Interval(d - w, d + w) for d, w in zip(data, width))
    return ProblemInstance(sk.feasible, sk.loss, _cut_box(5), scen, 0.3)


def _reference_cases():
    rng = np.random.default_rng(404)
    cases = [pytest.param(random_interval_instance(rng), id=f"interval-{i}") for i in range(8)]
    cases += [pytest.param(random_bandit_instance(rng)[0], id=f"bandit-{i}") for i in range(8)]
    cases += [
        pytest.param(_spp_history(5, 3, 25, observe_bandit, 0), id="spp-bandit-5-3-25"),
        pytest.param(_spp_history(4, 2, 6, observe_semibandit, 1), id="spp-semibandit-4-2-6"),
        pytest.param(_mcp_bandit(7), id="mcp-bandit-max"),
        pytest.param(_non_box_support(8), id="non-box-support"),
        pytest.param(_non_box_intervals(9), id="non-box-intervals"),
    ]
    return cases


def _close(got, want):
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize("inst", _reference_cases())
def test_block_builder_matches_row_builder(inst):
    mip, form = build_dro_milp(inst)
    ref, ref_form = reference_dro_milp(inst)
    if form == "compact":
        # box data: the compact form reaches the full dual's MILP and LP
        # relaxation values
        assert inst.support.is_box()
        sp = ScipyBackend()
        got, _, got_diag = solve_dro_milp(inst, mip, form, sp)
        want, _, want_diag = solve_dro_milp(inst, ref, ref_form, sp)
        assert (got_diag.form, want_diag.form) == ("compact", "full")
        assert _close(got, want)
        assert _close(got_diag.relaxation, want_diag.relaxation)
        # the vectorized assembly against the loop: the same rows in the
        # same columns, bit for bit; the objective sums over samples in
        # another order
        loop = reference_compact_milp(inst)[0].lp
        assert mip.lp.a.shape == loop.a.shape
        for got, want in ((mip.lp.a, loop.a), (mip.lp.b, loop.b), (mip.lp.upper, loop.upper)):
            assert got.tobytes() == want.tobytes()
        assert np.array_equal(mip.lp.rel, loop.rel)
        np.testing.assert_allclose(mip.lp.c, loop.c, rtol=0.0, atol=1e-12)
        assert mip.lp.c0 == pytest.approx(loop.c0, rel=0.0, abs=1e-12)
        mip, form = build_full_dual_milp(inst)
    else:
        assert not inst.support.is_box()
    assert form == "full"
    assert dump_program(mip) == dump_program(ref)
    lp, rlp = mip.lp, ref.lp
    for got, want in (
        (lp.a, rlp.a), (lp.b, rlp.b), (lp.c, rlp.c), (lp.lower, rlp.lower), (lp.upper, rlp.upper)
    ):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        # bit for bit, signed zeros included
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(lp.rel, rlp.rel)
    assert lp.c0 == rlp.c0 and lp.sense == rlp.sense
    assert np.array_equal(mip.integer, ref.integer)


@pytest.mark.parametrize(
    "build, want",
    [
        (build_dro_milp, "da8b74aec2911d6439187e1d0dd774b22ef3cfbca33afb6c5034e3e49f7c29b4"),
        (build_full_dual_milp, "9f5ac4f06abeb8aec040c1bd45b7460fddff9f1514e026ce79b4d6e2289e9f18"),
    ],
    ids=["build_dro_milp", "build_full_dual_milp"],
)
def test_dual_milp_bits_are_pinned(build, want):
    """Each builder's MILP of random box instances keeps its bits, column
    placement included: ``a``, ``b``, ``c``, ``c0`` and the bounds hash to
    the digest recorded before the builders computed their own column
    offsets (for the compact form, before it read the support's box off the
    validated boxes).  The digests were computed with numpy 2.4.6; a numpy
    release that changes a generator's output changes them, and then they
    are recomputed, not the code changed to match."""
    rng = np.random.default_rng(29)
    digest = hashlib.sha256()
    for _ in range(40):
        lp = build(random_box_instance(rng))[0].lp
        for arr in (lp.a, lp.b, lp.c, np.float64(lp.c0), lp.lower, lp.upper):
            digest.update(arr.tobytes())
    assert digest.hexdigest() == want


def test_compact_bandit_build_runs_no_lp(model_calls):
    # every lowered bandit sample is the unit box plus one equality: the
    # emptiness checks are structural and the compact form needs no bounds LP
    inst = _spp_history(5, 3, 25, observe_bandit, 0)
    mip, form = build_dro_milp(inst)
    assert form == "compact"
    assert model_calls == {"lowered": inst.num_samples, "solve_lp": 0}
    assert mip.lp.n == _bandit_columns(inst)
    assert _epigraph_columns(inst, mip) < inst.num_samples * inst.n


def _bandit_columns(inst):
    """Columns of the compact MILP of a bandit history whose totals each
    cover two or more coordinates: x, lam, one epigraph column per observed
    coordinate, one per coordinate that some sample leaves unobserved (the
    support box, shared), and (mu+, mu-) per sample."""
    observed = np.array([s.mask != 0 for s in inst.scenarios])
    shared = int((~observed).any(axis=0).sum())
    return inst.n + 1 + int(observed.sum()) + shared + 2 * inst.num_samples


def _epigraph_columns(inst, mip):
    """The epigraph columns of the compact MILP of a bandit history whose
    samples all carry an equality: all but x, lam and (mu+, mu-) per sample."""
    return mip.lp.n - inst.n - 1 - 2 * inst.num_samples


def test_paper_scale_bandit_program_is_merged():
    # the paper-scale (11, 5, 100) spp-k bandit cell, built but not solved:
    # one column per sample and coordinate would make a 94,104 x 23,936
    # dense matrix of about 18 GB
    inst = _spp_history(11, 5, 100, observe_bandit, 0)
    mip, form = build_dro_milp(inst)
    assert form == "compact"
    observed = np.array([s.mask != 0 for s in inst.scenarios])
    unobserved = int((~observed).any(axis=0).sum())
    # unit box: three rows per observed coordinate, one per shared column
    rows = 3 * int(observed.sum()) + unobserved + inst.feasible.num_rows
    assert mip.lp.a.shape == (rows, _bandit_columns(inst))
    assert mip.lp.a.nbytes < 64 * 2**20


@pytest.mark.parametrize("backend", [ReferenceKernel(), ScipyBackend()], ids=["reference", "scipy"])
def test_merged_bandit_history_matches_full_dual(backend):
    inst = _spp_history(3, 2, 6, observe_bandit, 2)
    mip, form = build_dro_milp(inst)
    full = build_full_dual_milp(inst)
    assert mip.lp.n == _bandit_columns(inst)
    assert _epigraph_columns(inst, mip) < inst.num_samples * inst.n
    got, _, got_diag = solve_dro_milp(inst, mip, form, backend)
    want, _, want_diag = solve_dro_milp(inst, *full, backend)
    assert (got_diag.form, want_diag.form) == ("compact", "full")
    assert _close(got, want)
    assert _close(got_diag.relaxation, want_diag.relaxation)


def test_build_validates_and_lowers_once(model_calls):
    # the support's bounds cost 2n LPs once, then one emptiness LP for the
    # support and one per scenario; nothing is lowered twice
    build_dro_milp(_non_box_intervals(9))  # n = 5, six scenarios
    assert model_calls == {"lowered": 6, "solve_lp": 2 * 5 + 6 + 1}


class TestWorstCaseExpectationLp:
    def test_zero_radius_collapses_to_sample(self):
        n = 4
        x = np.array([1.0, 0.0, 1.0, 1.0])
        chat = np.array([0.3, 0.6, 0.1, 0.9])
        lp = build_wc_expectation_lp(x, [chat], unit_box(n), BiaffineLoss.bilinear(n), 0.0)
        assert solve_lp(lp).value == pytest.approx(chat @ x, abs=1e-9)

    def test_large_radius_hits_cap(self):
        n = 5
        rng = np.random.default_rng(2)
        x = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
        data = rng.random((3, n))
        lp = build_wc_expectation_lp(x, data, unit_box(n), BiaffineLoss.bilinear(n), 50.0)
        assert solve_lp(lp).value == pytest.approx(x.sum(), abs=1e-8)

    def test_matches_capped_mean_on_random_triples(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, 5))
            x = rng.integers(0, 2, n).astype(float)
            data = rng.random((k, n))
            eps = float(rng.random() * 2)
            lp = build_wc_expectation_lp(x, data, unit_box(n), BiaffineLoss.bilinear(n), eps)
            want = worst_case_cost(x, data, np.ones(n), eps)
            assert solve_lp(lp).value == pytest.approx(want, abs=1e-7)

    def test_data_outside_support_rejected(self):
        with pytest.raises(ValueError):
            build_wc_expectation_lp(
                np.ones(2), [np.array([1.5, 0.0])], unit_box(2), BiaffineLoss.bilinear(2), 0.1
            )

    def test_general_box_support_cap_uses_upper(self):
        lo = np.array([0.1, 0.2])
        hi = np.array([0.7, 1.3])
        x = np.ones(2)
        data = np.array([[0.5, 0.6]])
        lp = build_wc_expectation_lp(x, data, Polytope.box(lo, hi), BiaffineLoss.bilinear(2), 10.0)
        assert solve_lp(lp).value == pytest.approx(hi.sum(), abs=1e-8)


class TestSolveDro:
    def test_exact_sample_zero_radius(self):
        inst = gen_sorting(3, 1).instance((Exact(np.array([0.2, 0.5, 0.9])),), 0.0)
        value, x, diag = solve_dro(inst)
        assert value == pytest.approx(0.2, abs=1e-9)
        np.testing.assert_allclose(x, [1, 0, 0], atol=1e-9)
        assert diag.node_count >= 1

    def test_radius_capped_at_one(self):
        inst = gen_sorting(3, 1).instance((Exact(np.array([0.2, 0.5, 0.9])),), 0.9)
        value, x, diag = solve_dro(inst)
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            inst = random_interval_instance(rng)
            values = []
            for eps in np.linspace(0.0, 1.0, 6):
                v, _, _ = solve_dro(
                    ProblemInstance(
                        inst.feasible, inst.loss, inst.support, inst.scenarios, float(eps)
                    )
                )
                values.append(v)
            diffs = np.diff(values)
            assert np.all(diffs >= -1e-8)

    def test_exact_equals_zero_width_interval_encoding(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            h = int(rng.integers(1, n + 1))
            k = int(rng.integers(1, 4))
            data = rng.random((k, n))
            eps = float(rng.random())
            sk = gen_sorting(n, h)
            v1, _, _ = solve_dro(sk.instance(tuple(Exact(d) for d in data), eps))
            v2, _, _ = solve_dro(sk.instance(tuple(Interval(d, d) for d in data), eps))
            assert v1 == pytest.approx(v2, abs=1e-6)

    def test_interval_scenarios_match_two_cop_solution(self):
        res = check_interval_oracle(10, 33)
        assert res.passed, res.detail

    def test_bandit_scenarios_match_grouped_solution(self):
        res = check_bandit_oracle(10, 34)
        assert res.passed, res.detail

    @pytest.mark.parametrize("h,r", [(3, 2), (3, 3)])
    def test_overlapping_bandit_matches_per_path_inner_lp(self, h, r):
        # routing history whose paths share arcs: outside the grouped closed
        # form, so compare against enumeration with one inner LP per decision
        rng = np.random.default_rng(55)
        skeleton, graph = gen_layered_spp(h, r)
        n = graph.num_arcs
        paths = [path_vector(graph, nodes) for nodes in all_paths(graph)]
        hidden = rng.random((2, n))
        decisions = [paths[0], paths[1]]  # overlap in the fan-in/fan-out arcs
        scen = tuple(Bandit(d, float(c @ d)) for d, c in zip(decisions, hidden))
        eps = 0.15
        inst = skeleton.instance(scen, eps)
        v_milp, _, _ = solve_dro(inst)

        support = unit_box(n)
        best = np.inf
        for x in paths:
            worst_sum = 0.0
            for s in scen:
                low = lower_scenario(s, support)
                res = solve_lp(
                    LinearProgram(
                        x, low.rows_a, tuple([LE] * low.num_rows), low.rows_b,
                        np.zeros(n), np.ones(n), sense="max",
                    )
                )
                assert res.status == OPTIMAL
                worst_sum += res.value
            value_x = min(worst_sum / len(scen) + eps, float(x.sum()))
            best = min(best, value_x)
        assert v_milp == pytest.approx(best, abs=1e-6)

    def test_maximization_sense_round_trip(self):
        # max c.x over pick-1-of-2 with a pinned exact sample
        sk = gen_sorting(2, 1)
        inst = ProblemInstance(
            sk.feasible, sk.loss, sk.support, (Exact(np.array([0.3, 0.8])),), 0.0, sense="max"
        )
        value, x, _ = solve_dro(inst)
        assert value == pytest.approx(0.8, abs=1e-8)
        np.testing.assert_allclose(x, [0, 1], atol=1e-8)


class TestSolveDroForms:
    """Which program ``solve_dro`` runs, and the statuses it reports."""

    def test_pure_interval_data_stay_compact(self):
        rng = np.random.default_rng(91)
        for _ in range(5):
            value, _, diag = solve_dro(random_interval_instance(rng))
            assert value is not None
            assert diag.form == "compact" and diag.relaxation is not None

    @pytest.mark.parametrize("backend", [ReferenceKernel(), ScipyBackend()], ids=["reference", "scipy"])
    def test_bandit_data_take_the_endpoint_form(self, backend):
        rng = np.random.default_rng(92)
        for inst in [random_endpoint_instance(rng) for _ in range(10)] + [_mcp_bandit(3)]:
            value, x, diag = solve_dro(inst, backend)
            assert diag.form == "endpoint" and diag.relaxation is None
            want, _, _ = solve_dro_milp(inst, *build_dro_milp(inst), backend)
            assert _close(value, want)
            assert inst.feasible.contains(x)

    def test_a_general_support_takes_the_full_dual(self):
        value, _, diag = solve_dro(_non_box_intervals(9))
        assert value is not None and diag.form == "full"

    @pytest.mark.parametrize("backend", [ReferenceKernel(), ScipyBackend()], ids=["reference", "scipy"])
    def test_empty_decision_set_is_infeasible(self, backend):
        # no decision satisfies x_0 + x_1 + x_2 <= -1: the ceiling COP is
        # infeasible, and solve_dro reports it as the compact dual does
        sk = gen_sorting(3, 1)
        fs = FeasibleSet(0, 3, [], np.ones((1, 3)), [-1.0], np.ones(3))
        scen = (Bandit(np.array([1.0, 1, 0]), 0.4), Interval(np.zeros(3), np.ones(3)))
        inst = ProblemInstance(fs, sk.loss, sk.support, scen, 0.1)
        value, x, diag = solve_dro(inst, backend)
        assert (value, x, diag.form, diag.status) == (None, None, "endpoint", INFEASIBLE)
        _, _, diag = solve_dro(ProblemInstance(fs, sk.loss, sk.support, scen[1:], 0.1), backend)
        assert (diag.form, diag.status) == ("compact", INFEASIBLE)

    @pytest.mark.parametrize("backend", [ReferenceKernel, ScipyBackend], ids=["reference", "scipy"])
    def test_generated_instances_route_the_ceiling_by_their_cop(self, backend):
        # a generated bandit instance solves its ceiling candidate by its
        # family's COP and its sample-average candidate by its family's
        # table, so no backend MILP runs; without the table the
        # sample-average MILP is the one backend MILP.  Either way the value
        # is the one MILPs on both candidates give
        calls = []

        class Counted(backend):
            def solve_milp(self, mip):
                calls.append(mip)
                return super().solve_milp(mip)

        rng = np.random.default_rng(93)
        spp = []
        for h, r in ((3, 2), (4, 3), (5, 3)):
            skeleton, graph = gen_layered_spp(h, r)
            run = cucb_collect(graph, BetaNominal.random(graph.num_arcs, 0.125, rng), 8, rng)
            spp.append(skeleton.instance(observe_bandit(run.samples, run.decisions), 0.0))
        families = {
            "sorting": [random_bandit_instance(rng)[0] for _ in range(3)],
            "spp": spp,
            "mcp": [_mcp_bandit(seed) for seed in (3, 4, 5)],
        }
        for family, instances in families.items():
            winners = set()
            for inst in instances:
                # a small radius lets the sample average win, a large one the ceiling
                for eps in (0.1 * rng.random(), 5.0 + 5.0 * rng.random()):
                    inst = dataclasses.replace(inst, epsilon=eps)
                    assert inst.cop is not None and inst.saa is not None
                    want, _, _ = solve_dro(dataclasses.replace(inst, cop=None, saa=None), backend())
                    for saa, milps in ((inst.saa, 0), (None, 1)):
                        calls.clear()
                        value, x, diag = solve_dro(dataclasses.replace(inst, saa=saa), Counted())
                        assert diag.form == "endpoint" and len(calls) == milps
                        assert (diag.node_count is None) == (saa is not None)
                        assert inst.feasible.contains(x)
                        assert _close(value, want)
                    lowered = validate_instance(inst)
                    winners.add(solve_endpoints(inst.feasible, lowered, eps, inst.cop, inst.sense,
                                                saa_oracle=inst.saa).winner)
            assert winners == {"saa", "ceiling"}, family

    @pytest.mark.parametrize("backend", [ReferenceKernel, ScipyBackend], ids=["reference", "scipy"])
    def test_families_above_the_table_cap_solve_the_sample_average_milp(self, backend):
        # more than _BLOCK decisions (coverage: more than _SAA_CAP
        # selections, here C(25, 12)): the generator attaches no table, and
        # the sample-average MILP is the one backend MILP
        calls = []

        class Counted(backend):
            def solve_milp(self, mip):
                calls.append(mip)
                return super().solve_milp(mip)

        rng = np.random.default_rng(94)
        big_spp, graph = gen_layered_spp(8, 5)
        run = cucb_collect(graph, BetaNominal.random(graph.num_arcs, 0.125, rng), 3, rng)
        big_mcp, system = gen_mcp(8, 25, 2, 12, 5)
        mcp_run = cucb_collect_mcp(system, BetaNominal.random(8, 0.125, rng), 3, rng)
        pad = np.zeros((3, 25))
        for skeleton, scen in (
            (big_spp, observe_bandit(run.samples, run.decisions)),
            (big_mcp, observe_bandit(np.hstack([mcp_run.samples, pad]), np.hstack([mcp_run.decisions, pad]))),
            (gen_sorting(20, 10), (Bandit(np.r_[np.ones(10), np.zeros(10)], 4.0),)),
        ):
            assert skeleton.saa is None and skeleton.cop is not None
            calls.clear()
            value, x, diag = solve_dro(skeleton.instance(scen, 0.1), Counted())
            assert diag.form == "endpoint" and len(calls) == 1 and diag.node_count is not None
            assert skeleton.feasible.contains(x)

    def test_paper_coverage_instance_runs_no_milp(self):
        # C(50, 5) selections fit under _SAA_CAP: the table answers the
        # sample-average candidate, the COP the ceiling, and the value is
        # the one the sample-average MILP gives
        calls = []

        class Counted(ScipyBackend):
            def solve_milp(self, mip):
                calls.append(mip)
                return super().solve_milp(mip)

        rng = np.random.default_rng(95)
        skeleton, system = gen_mcp(50, 50, 5, 5, rng)
        run = cucb_collect_mcp(system, BetaNominal.random(50, 0.125, rng), 4, rng)
        pad = np.zeros((4, 50))
        scen = observe_bandit(np.hstack([run.samples, pad]), np.hstack([run.decisions, pad]))
        inst = skeleton.instance(scen, 0.01)
        value, x, diag = solve_dro(inst, Counted())
        assert diag.form == "endpoint" and not calls and diag.node_count is None
        assert skeleton.feasible.contains(x)
        want, _, diag = solve_dro(dataclasses.replace(inst, saa=None), Counted())
        assert len(calls) == 1 and abs(value - want) <= 1e-9 * max(1.0, abs(want))

    def test_failed_sample_average_milp_reports_its_status(self):
        # a generated instance without its table solves its ceiling COP by
        # its own handle, so the sample-average MILP is the only backend
        # MILP; it ends without an optimum
        calls = []

        class MilpFails(ReferenceKernel):
            def solve_milp(self, mip):
                calls.append(mip)
                return SolveResult(ITERLIMIT)

        skeleton = dataclasses.replace(gen_sorting(3, 1), saa=None)
        inst = skeleton.instance((Bandit(np.array([1.0, 1, 0]), 0.4),), 0.1)
        value, x, diag = solve_dro(inst, MilpFails())
        assert (value, x, diag.form, diag.status) == (None, None, "endpoint", ITERLIMIT)
        assert len(calls) == 1

    def test_compact_dual_keeps_its_bandit_oracle(self):
        # solve_dro no longer runs the compact dual on bandit data: it is
        # checked here against the grouped closed form on criterion 2's
        # generator, values and argmin groups
        rng = np.random.default_rng(1002)
        for _ in range(40):
            inst, hist = random_bandit_instance(rng)
            value, x, diag = solve_dro_milp(inst, *build_dro_milp(inst))
            assert diag.form == "compact"
            want, _ = solve_disjoint_bandit(hist, inst.epsilon)
            assert abs(value - want) <= 1e-6
            scores = hist.scores
            argmin = np.flatnonzero(scores <= scores.min() + 1e-9)
            assert any(np.array_equal(np.round(x), hist.grouping.decisions[v]) for v in argmin)


class TestBallCertificate:
    def test_sampled_distributions_never_beat_lp_value(self):
        rng = np.random.default_rng(101)
        n, k = 4, 3
        data = rng.random((k, n))
        x = np.array([1.0, 0.0, 1.0, 1.0])
        eps = 0.2
        lp_val = solve_lp(
            build_wc_expectation_lp(x, data, unit_box(n), BiaffineLoss.bilinear(n), eps)
        ).value
        empirical = DiscreteDistribution.empirical(data)
        checked = 0
        for _ in range(500):
            pts = np.clip(data + rng.normal(scale=0.08, size=(k, n)), 0.0, 1.0)
            q = DiscreteDistribution.empirical(pts)
            if discrete_w1(empirical, q) <= eps:
                checked += 1
                assert float(pts.mean(axis=0) @ x) <= lp_val + 1e-7
        assert checked > 50


class TestDiscreteW1:
    def test_identical_distributions_zero(self):
        d = DiscreteDistribution.empirical(np.array([[0.1, 0.9], [0.4, 0.2]]))
        assert discrete_w1(d, d) == 0.0

    def test_dirac_pair_is_l1_distance(self):
        a = DiscreteDistribution.empirical([[0.0, 0.0]])
        b = DiscreteDistribution.empirical([[1.0, 1.0]])
        assert discrete_w1(a, b) == 2.0

    def test_split_mass_to_midpoint(self):
        u = DiscreteDistribution([[0.0], [1.0]], [0.5, 0.5])
        d = DiscreteDistribution.empirical([[0.5]])
        assert discrete_w1(u, d) == pytest.approx(0.5, abs=1e-9)

    def test_metric_axioms_random(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 4))

            def rand_dist():
                k = int(rng.integers(1, 5))
                w = rng.random(k) + 0.05
                return DiscreteDistribution(rng.random((k, n)), w / w.sum())

            p, q, r = rand_dist(), rand_dist(), rand_dist()
            assert discrete_w1(p, q) == discrete_w1(q, p)
            assert discrete_w1(p, q) >= 0.0
            assert discrete_w1(p, r) <= discrete_w1(p, q) + discrete_w1(q, r) + 1e-6

    def test_dimension_mismatch(self):
        a = DiscreteDistribution.empirical([[0.0, 0.0]])
        b = DiscreteDistribution.empirical([[1.0]])
        with pytest.raises(Exception):
            discrete_w1(a, b)
