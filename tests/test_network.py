import copy
import hashlib
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from multilogistic import (
    DiffusionKernelParams,
    InputDataError,
    Network,
    NumericsError,
    fit_kernel,
    generate_sfin,
    grow_cluster,
    kernel_density,
    y_inverse,
    y_transform,
)
from multilogistic import network
from multilogistic.network import (
    connected_component_sizes,
    degree_loglog_slope,
    growth_statistics,
    largest_component_nodes,
)

# reference kernel parameters for the 20000-node network experiment
REF = dict(drift=3.09, diff_coeff=0.245, total=20000.0)


def _reference_repair_simple(edges, rng):
    # network._repair_simple as written with np.unique and a Counter over
    # every key: the definition whose edges and RNG draws the kernel with one
    # argsort per scan must reproduce exactly.
    edges = np.array(edges, dtype=np.int64)
    n_edges = edges.shape[0]
    span = int(edges.max()) + 1

    def key(u, v):
        return min(u, v) * span + max(u, v)

    def scan():
        # keys of the non-loop edges, and the bad edges: self-loops and repeated keys
        lo, hi = np.sort(edges, axis=1).T
        keys = lo * span + hi
        repeat = np.ones(n_edges, dtype=bool)
        repeat[np.unique(keys, return_index=True)[1]] = False
        return keys[lo != hi], np.flatnonzero((lo == hi) | repeat).tolist()

    simple_keys, bad = scan()
    uniq, mult = np.unique(simple_keys, return_counts=True)
    # a Counter: a self-loop partner's absent key is decremented below
    counts = Counter(dict(zip(uniq.tolist(), mult.tolist())))
    cap = 100 * n_edges
    attempts = 0
    while bad:
        for i in bad:
            attempts += 1
            if attempts > cap:
                raise NumericsError(
                    f"random edge swaps left self-loops or repeated edges after "
                    f"{cap} repair attempts; draw another seed"
                )
            j = int(rng.integers(n_edges))
            if j == i:
                continue
            a, b = edges[i].tolist()
            c, d = edges[j].tolist()
            # swap to (a, d), (c, b)
            if a == d or c == b:
                continue
            k1 = key(a, d)
            k2 = key(c, b)
            if k1 == k2:
                continue
            old_i = key(a, b) if a != b else None
            old_j = key(c, d)
            if old_i is not None:
                counts[old_i] -= 1
            counts[old_j] -= 1
            if counts[k1] == 0 and counts[k2] == 0:
                counts[k1] += 1
                counts[k2] += 1
                edges[i] = a, d
                edges[j] = c, b
            else:  # roll back
                if old_i is not None:
                    counts[old_i] += 1
                counts[old_j] += 1
        bad = scan()[1]
    return edges


def _repair_outcome(repair, edges, rng):
    # the repaired edges (or the cap's message) and the generator's state after
    try:
        out = repair(edges, rng).tolist()
    except NumericsError as exc:
        out = str(exc)
    return out, json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


def _traced_peak(call):
    # call()'s result and the peak of the memory it allocated, in bytes
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _reference_erdos_gallai(deg):
    # the first k whose Erdos-Gallai inequality fails, term by term; None if graphical
    d = sorted(deg, reverse=True)
    for k in range(1, len(d) + 1):
        if sum(d[:k]) > k * (k - 1) + sum(min(x, k) for x in d[k:]):
            return k
    return None


def star_network(n):
    return Network.from_edges(n, [[0, i] for i in range(1, n)])


def path_network(n):
    return Network.from_edges(n, [[i, i + 1] for i in range(n - 1)])


class TestYTransform:
    def test_midpoint_is_zero(self):
        assert y_transform(50.0, 100.0) == pytest.approx(0.0, abs=1e-14)

    def test_hand_value(self):
        assert y_transform(100.0 / (1.0 + math.e), 100.0) == pytest.approx(-1.0, rel=1e-12)

    def test_round_trip(self):
        total = 2e4
        xs = np.geomspace(1e-9 * total, total * (1 - 1e-9), 200)
        np.testing.assert_allclose(y_inverse(y_transform(xs, total), total), xs, rtol=1e-12)

    def test_linearizes_logistic_growth(self):
        from multilogistic import LogisticParams, sigmoid

        p = LogisticParams(rate=1.7, capacity=500.0, x0=20.0)
        t = np.linspace(-3, 3, 25)
        ys = y_transform(sigmoid(p, t), 500.0)
        slopes = np.diff(ys) / np.diff(t)
        np.testing.assert_allclose(slopes, 1.7, rtol=1e-9)

    def test_domain_errors(self):
        with pytest.raises(InputDataError):
            y_transform(0.0, 100.0)
        with pytest.raises(InputDataError):
            y_transform(100.0, 100.0)


class TestGenerateSfin:
    def test_deterministic(self):
        a = generate_sfin(500, 30, seed=7)
        b = generate_sfin(500, 30, seed=7)
        assert np.array_equal(a.edge_array(), b.edge_array())

    def test_simple_graph_with_bounded_degrees(self):
        net = generate_sfin(800, 40, seed=3)
        edges = net.edge_array()
        assert np.all(edges[:, 0] < edges[:, 1])  # no self-loops
        keys = {tuple(e) for e in edges}
        assert len(keys) == edges.shape[0]  # no duplicates
        assert net.degrees.max() <= 40
        assert net.degrees.min() >= 1

    def test_cmax_two_degrees(self):
        net = generate_sfin(200, 2, seed=1)
        assert set(np.unique(net.degrees)) <= {1, 2}

    def test_degree_slope_near_minus_one(self):
        net = generate_sfin(20000, 100, seed=5)
        assert degree_loglog_slope(net) == pytest.approx(-1.0, abs=0.1)

    def test_bad_sizes(self):
        with pytest.raises(InputDataError):
            generate_sfin(10, 20, seed=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_repair_cap(self, seed):
        # two nodes of degree 2 can only be wired as loops or a double edge
        _, edges, rng = network._draw_stubs(2, 2, seed, c_min=2)
        with pytest.raises(NumericsError, match="left self-loops or repeated edges after "
                                               "200 repair attempts"):
            network._repair_simple(edges, rng)

    @pytest.mark.parametrize("seed", range(4))
    def test_not_graphical_fails_before_repair(self, monkeypatch, seed):
        def repair(edges, rng):
            raise AssertionError("the repair ran on a sequence that is not graphical")

        monkeypatch.setattr(network, "_repair_simple", repair)
        with pytest.raises(NumericsError, match=r"not graphical \(Erdos-Gallai fails at k=1: "
                                               r".*--max-degree.*--nodes"):
            generate_sfin(2, 2, seed, c_min=2)

    def test_graphical_check_matches_reference(self):
        rng = np.random.default_rng(3)
        cases = [network._draw_stubs(40, 39, seed, c_min=1)[0] for seed in range(20)]
        for _ in range(2000):
            n = int(rng.integers(1, 12))
            deg = rng.integers(0, n + 2, size=n)
            deg[0] += deg.sum() % 2
            cases.append(deg)
        fails = 0
        for deg in cases:
            k = _reference_erdos_gallai(deg.tolist())
            if k is None:
                network._check_graphical(deg)
            else:
                fails += 1
                with pytest.raises(NumericsError, match=f"fails at k={k}:"):
                    network._check_graphical(deg)
        assert 0 < fails < len(cases)

    def test_cap_on_graphical_sequence_says_so(self):
        # 40/39: seed 8 draws a graphical sequence that the swaps do not wire
        # within the cap, so the error must not call the sequence unrealizable
        deg = network._draw_stubs(40, 39, 8, c_min=1)[0]
        assert _reference_erdos_gallai(deg.tolist()) is None
        with pytest.raises(NumericsError, match="draw another seed") as err:
            generate_sfin(40, 39, 8)
        assert "graphical" not in str(err.value) and "realiz" not in str(err.value)

    # at 40/39 seeds 0..19 all end in an error: 17 sequences are not graphical
    # and the other three exhaust the cap, so there the draws up to the cap are
    # compared; 40/39 and 60/30 swap with self-loop partners
    @pytest.mark.parametrize("nodes, c_max, seeds", [
        (40, 39, range(20)), (60, 30, range(20)), (300, 20, range(20)), (20000, 100, range(2)),
    ])
    def test_repair_matches_reference(self, nodes, c_max, seeds):
        for seed in seeds:
            _, edges, rng = network._draw_stubs(nodes, c_max, seed, c_min=1)
            want = _repair_outcome(_reference_repair_simple, edges.copy(), copy.deepcopy(rng))
            assert _repair_outcome(network._repair_simple, edges.copy(), rng) == want

    # sha256 of edge_array().tobytes(): a change here is a change of the graph
    # stream and must be recorded as one. 40/39 and 60/30 are dense enough that
    # the repair swaps with self-loop partners.
    @pytest.mark.parametrize("nodes, c_max, seed, edges, digest", [
        (300, 20, 9, 807, "76fb6134f560f540132b8ebec064823218dca95ce7e99da3257b33244401f022"),
        (40, 39, 241, 128, "43c35c462e0b9799df4e4cf8c09e34d1ad69fec20e862e2002015b41adc8b755"),
        (60, 30, 0, 206, "859aba1593ec360d09c59de0b591f0f86e48c556460488e2b902f5beecb8a135"),
        (2000, 50, 13, 11495,
         "afb146d96f064dfa2a4a15f27f2e2022f2812b0be9efbdb402e3f3f921a2400a"),
        (20000, 100, 31, 190342,
         "7932952189dfe8b443635316dd84ed1b5cfafa9a80ce1c865aeef13f357c865e"),
    ])
    def test_graph_stream_pinned(self, nodes, c_max, seed, edges, digest):
        e = generate_sfin(nodes, c_max, seed).edge_array()
        assert e.shape == (edges, 2)
        assert hashlib.sha256(e.tobytes()).hexdigest() == digest

    def test_generate_in_bounded_memory(self):
        # graph 31 (190342 edges): the stubs are 3 MB of int64, repaired in
        # place. The repair keeps the distinct keys and their counts as arrays,
        # and from_edges builds the COO in int32: about 12 MB at peak (28 MB
        # with the keys as Python ints and an int64 COO)
        _, peak = _traced_peak(lambda: generate_sfin(20000, 100, 31))
        assert peak < 17 * 2**20

    def test_from_edges_in_bounded_memory(self):
        # the COO indices are built in int32, the dtype that scipy keeps: about
        # 5 MB at peak (11 MB with 6 MB of int64 indices for scipy to copy down)
        net = generate_sfin(20000, 100, 31)
        edges = net.edge_array()
        back, peak = _traced_peak(lambda: Network.from_edges(net.node_count, edges))
        assert peak < 8 * 2**20
        assert back.indices.dtype == np.int32
        assert np.array_equal(back.indptr, net.indptr)
        assert np.array_equal(back.indices, net.indices)


class TestGrowCluster:
    def test_star_from_hub(self):
        assert grow_cluster(star_network(50), [0]).tolist() == [[1, 50]]

    def test_path_from_end(self):
        assert grow_cluster(path_network(5), [0]).tolist() == [[1, 2, 3, 4, 5]]

    def test_matches_brute_force_distances(self):
        # the second graph has degree-0 nodes and components the seed cannot reach
        for net, starts in [(generate_sfin(300, 20, seed=9), [0, 17, 123]),
                        (Network.from_edges(7, [[0, 1], [1, 2], [4, 5]]), range(7))]:
            sizes = grow_cluster(net, starts)  # one batch, padded to its longest row
            assert sizes.shape[0] == len(starts)
            # independent oracle: set-based frontier expansion
            for start, row in zip(starts, sizes):
                reached = {start}
                frontier = {start}
                expected = [1]
                while frontier:
                    nxt = set()
                    for v in frontier:
                        nxt.update(net.indices[net.indptr[v]:net.indptr[v + 1]].tolist())
                    nxt -= reached
                    if not nxt:
                        break
                    reached |= nxt
                    frontier = nxt
                    expected.append(len(reached))
                # the row repeats its final size after the cluster stops growing
                padded = expected + expected[-1:] * (sizes.shape[1] - len(expected))
                assert row.tolist() == padded

    def test_matches_hop_distances_at_reference_size(self):
        # crit 6's graph and its first 50 seeds, then every node of crit 10's graph
        big = generate_sfin(20000, 100, seed=31)
        rng = np.random.Generator(np.random.Philox([31, 1]))
        small = generate_sfin(2000, 50, seed=13)
        for net, starts in [(big, rng.choice(largest_component_nodes(big), size=50)),
                        (small, range(small.node_count))]:
            n = net.node_count
            graph = csr_matrix((np.ones(net.indices.size), net.indices, net.indptr), shape=(n, n))
            sizes = grow_cluster(net, starts)
            for start, row in zip(starts, sizes):
                # independent oracle: hop distances, counted per distance and cumulated
                dist = dijkstra(graph, indices=int(start), unweighted=True)
                expected = np.bincount(dist[np.isfinite(dist)].astype(np.int64)).cumsum()
                assert np.array_equal(row[:expected.size], expected)
                assert np.all(row[expected.size:] == expected[-1])

    def test_strictly_increasing_required(self, tmp_path):
        from multilogistic import io

        # arrays: growth after a plateau, a shrinking row, a row not starting at 1
        for sizes in ([[1, 2, 2, 3]], [[1, 3, 2]], [[2, 3]]):
            with pytest.raises(InputDataError):
                growth_statistics(np.array(sizes), 100.0)
        # files: a process may not repeat a size (not even at its end), nor start above 1
        for rows in ("0,0,1\n0,1,2\n0,2,2\n", "0,0,1\n0,1,2\n1,0,2\n1,1,3\n"):
            p = tmp_path / "procs.csv"
            p.write_text("process_id,iteration,size\n" + rows)
            with pytest.raises(InputDataError):
                io.read_processes(p)

    def test_seed_out_of_range(self):
        with pytest.raises(InputDataError):
            grow_cluster(path_network(4), [0, 9])


class TestComponents:
    def test_sizes_and_largest(self):
        net = Network.from_edges(7, [[0, 1], [1, 2], [3, 4], [5, 6]])
        sizes = connected_component_sizes(net)
        assert sizes.tolist() == [3, 2, 2]
        assert set(largest_component_nodes(net).tolist()) == {0, 1, 2}


class TestKernelDensity:
    @pytest.fixture(scope="module")
    def params(self):
        return DiffusionKernelParams(
            REF["drift"], REF["diff_coeff"], y_transform(1.0, REF["total"]),
            REF["total"], dt=1.0,
        )

    @pytest.mark.parametrize("t", [1.0, 3.0, 6.0])
    def test_normalizes_to_one(self, params, t):
        val, err = quad(lambda x: kernel_density(params, x, t),
                        1e-12, params.total - 1e-9, limit=400)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_median_advances_on_logistic_path(self, params):
        t = 3.0
        x_med = y_inverse(params.y0 + params.drift * t, params.total)
        mass, _ = quad(lambda x: kernel_density(params, x, t), 1e-12, x_med, limit=400)
        assert mass == pytest.approx(0.5, abs=1e-6)

    def test_small_diffusion_concentrates_on_deterministic_path(self):
        p = DiffusionKernelParams(
            REF["drift"], 1e-4, y_transform(1.0, REF["total"]), REF["total"], dt=1.0
        )
        t = 3.0
        # a +-0.25 band in y is 10 sigma wide at this diffusion level
        x_med = y_inverse(p.y0 + p.drift * t, p.total)
        lo = y_inverse(p.y0 + p.drift * t - 0.25, p.total)
        hi = y_inverse(p.y0 + p.drift * t + 0.25, p.total)
        mass, _ = quad(lambda x: kernel_density(p, x, t), lo, hi,
                       points=[x_med], limit=400)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_sigma_diffusion_identity(self):
        p = DiffusionKernelParams(1.0, 0.245, 0.0, 100.0, dt=0.5)
        assert p.sigma == pytest.approx(math.sqrt(2 * 0.245 / 0.5), rel=1e-12)
        for diff_coeff, total, dt in [(-0.1, 100.0, 1.0), (0.2, 0.0, 1.0), (0.2, 100.0, 0.0)]:
            with pytest.raises(InputDataError):
                DiffusionKernelParams(1.0, diff_coeff, 0.0, total, dt)

    def test_boundary_rejected(self, params):
        with pytest.raises(InputDataError):
            kernel_density(params, 0.0, 1.0)
        with pytest.raises(InputDataError):
            kernel_density(params, params.total, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_extreme_times(self, params):
        # 4*D*t rounds to 0 for D < 1/8: there is no Gaussian to evaluate
        narrow = DiffusionKernelParams(params.drift, 0.1, params.y0, params.total)
        with pytest.raises(InputDataError, match="t=5e-324 is out of range"):
            kernel_density(narrow, np.array([10.0, 50.0]), 5e-324)
        # and overflows to inf for D > 1/4 at the largest doubles
        wide = DiffusionKernelParams(params.drift, 1.0, params.y0, params.total)
        with pytest.raises(InputDataError, match="t=1e[+]308 is out of range"):
            kernel_density(wide, np.array([10.0, 50.0]), 1e308)
        # the squared offset overflows: the Gaussian's limit, 0, and no warning
        assert kernel_density(params, np.array([10.0, 50.0]), 1e300).tolist() == [0.0, 0.0]


def synthetic_walk_processes(n_proc, drift, diff, total, steps, seed):
    """Generating-model oracle: drift-diffusion in y, discretized to sizes."""
    rng = np.random.default_rng(seed)
    y0 = y_transform(1.0, total)
    procs = []
    for _ in range(n_proc):
        y = y0 + drift * np.arange(steps + 1) + np.concatenate(
            [[0.0], np.cumsum(math.sqrt(2.0 * diff) * rng.standard_normal(steps))]
        )
        x = np.maximum.accumulate(np.round(y_inverse(y, total)))
        x = np.maximum(x, 1.0)
        x += np.arange(steps + 1)  # enforce strict growth after rounding
        procs.append(x.astype(np.int64))
    return np.array(procs)


class TestFitKernel:
    def test_recovers_generating_parameters(self):
        procs = synthetic_walk_processes(300, 3.0, 0.25, 20000.0, 5, seed=2)
        fit = fit_kernel(procs, 20000.0)
        assert fit.drift == pytest.approx(3.0, rel=0.05)
        assert fit.diff_coeff == pytest.approx(0.25, rel=0.15)
        assert fit.sigma == pytest.approx(math.sqrt(2 * fit.diff_coeff), rel=1e-12)

    def test_deterministic_trajectories_give_zero_diffusion(self):
        from multilogistic import LogisticParams, sigmoid

        p = LogisticParams(rate=3.0, capacity=20000.0, x0=1.0)
        t = np.arange(0, 6.0)
        x = np.round(sigmoid(p, t)).astype(np.int64)
        x = np.maximum(x, 1) + np.arange(6, dtype=np.int64)
        procs = np.tile(x, (40, 1))
        fit = fit_kernel(procs, 20000.0)
        assert fit.diff_coeff < 1e-6

    def test_too_few_processes_refused(self):
        procs = synthetic_walk_processes(5, 3.0, 0.25, 20000.0, 5, seed=3)
        with pytest.raises(InputDataError):
            fit_kernel(procs, 20000.0)

    def test_growth_statistics_shape(self):
        procs = synthetic_walk_processes(40, 3.0, 0.25, 20000.0, 5, seed=4)
        stats = growth_statistics(procs, 20000.0)
        assert stats["t"].shape == stats["count"].shape == stats["median_y"].shape
        assert stats["count"][0] == 40
        assert stats["var_y"][0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.slow
class TestFullNetworkRegime:
    def test_reference_experiment(self):
        net = generate_sfin(20000, 100, seed=5)
        pool = largest_component_nodes(net)
        rng = np.random.Generator(np.random.Philox([5, 1]))
        seeds = rng.choice(pool, size=500, replace=True)
        sizes = grow_cluster(net, seeds)
        fit = fit_kernel(sizes, 20000.0)
        assert degree_loglog_slope(net) == pytest.approx(-1.0, abs=0.1)
        assert fit.drift == pytest.approx(REF["drift"], rel=0.20)
        assert fit.diff_coeff == pytest.approx(REF["diff_coeff"], rel=0.20)
