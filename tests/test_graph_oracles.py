"""Every graph derivation against an independent pure-Python oracle.

RoundTopology holds sorted edge arrays, and neighbours, degrees, holder
sets, share pairs, Metropolis-Hastings weights, connectivity and benign
components are derived from them with numpy. The oracles below rebuild each
from the normalized edge set with dicts, sorted lists and BFS.

Surrounded benign sets are also enumerated from their definition
(literal_surrounded_sets, secrecy_cross_check); the privacy and acceptance
tests import those oracles from here.

Seeded random graphs are checked against their law: a uniform spanning
tree plus uniformly chosen extra pairs gives each connected graph G with
the target edge count probability proportional to its spanning-tree count.
Their two parts are checked against oracles too: the linear Pruefer decode
against the textbook heap decode, and the one-sort distinct draw against
a set-based loop over the same stream. Digests pin the seeded graphs of
three schedules, so any change to the generator's output shows.
"""

import hashlib
import heapq
import itertools
import json
import math
import pathlib
import random
import tracemalloc
from collections import deque

import numpy as np
import pytest

from ppdfl.privacy import AdversarySet, perfect_secrecy, surrounded_components
from ppdfl.protocol import ProtocolConfig
from ppdfl.topology import (
    BadParameters,
    RoundTopology,
    TopologySchedule,
    _distinct_draws,
    _prufer_tree,
    _random_connected_edges,
    component_labels,
    generate_topology,
    is_connected,
    mh_denominators,
    mh_edge_weights,
    share_pairs,
)


def normalized(pairs):
    return sorted({(min(i, j), max(i, j)) for i, j in pairs})


def adjacency(n, edges):
    nbrs = {i: [] for i in range(1, n + 1)}
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    return {i: sorted(v) for i, v in nbrs.items()}


def bfs_components(nodes, nbrs):
    """Components of the graph nbrs restricted to nodes, each a sorted list,
    ordered by smallest member."""
    nodes = set(nodes)
    seen, out = set(), []
    for start in sorted(nodes):
        if start in seen:
            continue
        comp, queue = {start}, deque([start])
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                if v in nodes and v not in comp:
                    comp.add(v)
                    queue.append(v)
        seen |= comp
        out.append(sorted(comp))
    return out


# Exhaustive subset enumeration is only sensible for small graphs.
_ENUM_LIMIT = 16


def _neighbor_masks(g: RoundTopology) -> list[int]:
    """masks[i] has bit j-1 set for each neighbour j of i; N <= 62."""
    masks = np.zeros(g.n_nodes + 1, dtype=np.int64)
    np.bitwise_or.at(masks, g.arc_tail, np.left_shift(1, g.arc_head - 1))
    return masks.tolist()


def _mask_connected(sub: int, masks: list[int]) -> bool:
    if sub == 0:
        return False
    start = sub & -sub
    reach = start
    while True:
        grow = reach
        m = reach
        while m:
            low = m & -m
            grow |= masks[low.bit_length()] & sub
            m ^= low
        if grow == reach:
            break
        reach = grow
    return reach == sub


def literal_surrounded_sets(
    g: RoundTopology, adversaries: AdversarySet
) -> set[frozenset[int]]:
    """Surrounded benign subsets by direct enumeration of the definition.

    A nonempty benign subset qualifies iff its induced subgraph is
    connected and none of its members has a benign neighbor outside it.
    Exponential; intended as a cross-check oracle for small graphs.
    """
    if g.n_nodes > _ENUM_LIMIT:
        raise ValueError(f"enumeration limited to {_ENUM_LIMIT} nodes")
    masks = _neighbor_masks(g)
    benign_mask = 0
    for i in adversaries.benign:
        benign_mask |= 1 << (i - 1)
    out = set()
    sub = benign_mask
    while True:
        if sub:
            closed = True
            m = sub
            while m:
                low = m & -m
                if masks[low.bit_length()] & benign_mask & ~sub:
                    closed = False
                    break
                m ^= low
            if closed and _mask_connected(sub, masks):
                members = frozenset(
                    i + 1 for i in range(g.n_nodes) if sub >> i & 1
                )
                out.add(members)
        if sub == 0:
            break
        sub = (sub - 1) & benign_mask
    return out


def secrecy_cross_check(g: RoundTopology, adversaries: AdversarySet) -> bool:
    """Tie the three formulations together on one small instance.

    Checks that (a) the literal enumerated surrounded subsets are exactly
    the benign-component decomposition, and (b) the secrecy verdict equals
    benign-subgraph connectivity.
    """
    decomp = surrounded_components(g, adversaries)
    literal = literal_surrounded_sets(g, adversaries)
    if set(decomp.components) != literal:
        return False
    benign_connected = len(decomp.components) == 1
    verdict = perfect_secrecy([g], adversaries)
    return verdict.ok == benign_connected


def random_pairs(rng, n, count):
    pairs = []
    while n > 1 and len(pairs) < count:
        i, j = rng.randint(1, n), rng.randint(1, n)
        if i != j:
            pairs.append((i, j))
    return pairs


def oracle_graphs():
    """(n, pairs as given) for the shapes the derivations must agree on."""
    for n in (2, 3, 17, 200):
        for kind in ("star", "line", "complete"):
            yield n, sorted(generate_topology(kind, n).edges)
    rng = random.Random(2024)
    for n in (2, 5, 30, 120, 200):
        for density in (0.5, 1.0, 3.0):
            yield n, random_pairs(rng, n, int(density * n))
    yield 1, []
    yield 6, []  # edgeless
    yield 7, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 7)]  # two components
    # repeated and reversed pairs
    yield 5, [(2, 1), (1, 2), (1, 2), (3, 2), (2, 3), (5, 4), (4, 5), (1, 5)]


def test_derivations_match_python_oracles():
    for n, given in oracle_graphs():
        edges = normalized(given)
        nbrs = adjacency(n, edges)
        deg = {i: len(v) for i, v in nbrs.items()}
        g = RoundTopology(n, given)
        assert g.edges == frozenset(edges)
        assert list(zip(g.src.tolist(), g.dst.tolist())) == edges
        for i in range(1, n + 1):
            assert g.neighbors(i) == tuple(nbrs[i])
            assert all(type(v) is int for v in g.neighbors(i))
            assert g.degree(i) == deg[i] and type(g.degree(i)) is int

        closed = {i: sorted([i, *nbrs[i]]) for i in nbrs}
        senders, receivers = share_pairs(g)
        assert list(zip(senders.tolist(), receivers.tolist())) == [
            (i, j) for i in range(1, n + 1) for j in closed[i]
        ]

        denominators = [(i, j, max(deg[i], deg[j]) + 1) for i, j in edges]
        assert list(zip(*(a.tolist() for a in mh_denominators(g)))) == denominators

        # Float weights, and each row residual summed in column order.
        weight = {}
        for i, j, d in denominators:
            weight[i, j] = weight[j, i] = 1.0 / d
        arcs = sorted(weight)
        diag = []
        for i in range(1, n + 1):
            total = 0.0
            for j in nbrs[i]:
                total += weight[i, j]
            diag.append(1.0 - total)
        rows, cols, weights, got_diag = mh_edge_weights(g)
        assert rows.tolist() == [i - 1 for i, _ in arcs]
        assert cols.tolist() == [j - 1 for _, j in arcs]
        assert weights.tolist() == [weight[a] for a in arcs]  # exact floats
        assert got_diag.tolist() == diag

        comps = bfs_components(range(1, n + 1), nbrs)
        assert is_connected(g) == (len(comps) == 1)
        labels = component_labels(n, g.src, g.dst)
        assert labels[0] == 0
        for comp in comps:
            assert labels[comp].tolist() == [comp[0]] * len(comp)


def test_surrounded_components_match_bfs_oracle_up_to_2000_learners():
    rng = random.Random(7)
    split = 0
    for n in (10, 60, 300, 1000, 2000):
        for avg_degree in (2.0, 3.0, 6.0):
            # A random spanning tree plus random extra edges.
            ids = list(range(1, n + 1))
            rng.shuffle(ids)
            pairs = [(ids[k], ids[rng.randrange(k)]) for k in range(1, n)]
            pairs += random_pairs(rng, n, int((avg_degree / 2 - 1) * n))
            g = RoundTopology(n, pairs)
            nbrs = adjacency(n, normalized(pairs))
            for _ in range(3):
                size = rng.randint(1, max(1, int(0.3 * n)))
                adv = AdversarySet(rng.sample(range(1, n + 1), size), n)
                comps = bfs_components(adv.benign, nbrs)
                decomp = surrounded_components(g, adv)
                assert [sorted(c) for c in decomp.components] == comps
                assert [sorted(b) for b in decomp.boundary] == [
                    [i for i in comp if any(j in adv.ids for j in nbrs[i])]
                    for comp in comps
                ]
                split += len(comps) > 1
    assert split >= 10  # most cases cut the benign learners apart


def test_surrounded_components_match_literal_enumeration_small():
    rng = random.Random(11)
    for trial in range(60):
        n = rng.randint(2, 12)
        g = RoundTopology(n, random_pairs(rng, n, rng.randint(0, 2 * n)))
        adv = AdversarySet(rng.sample(range(1, n + 1), rng.randint(0, n - 1)), n)
        assert set(surrounded_components(g, adv).components) == (
            literal_surrounded_sets(g, adv)
        )


@pytest.mark.parametrize("shuffle", [False, True])
def test_is_connected_on_a_line_of_10k_learners(shuffle):
    n = 10**4
    ids = list(range(1, n + 1))
    if shuffle:
        random.Random(3).shuffle(ids)
    pairs = list(zip(ids, ids[1:]))
    assert is_connected(RoundTopology(n, pairs))
    cut = random.Random(4).randrange(len(pairs))
    assert not is_connected(RoundTopology(n, pairs[:cut] + pairs[cut + 1:]))


def test_is_connected_one_edge_short():
    # Two dense halves and the one bridge that would join them.
    rng = random.Random(5)
    n = 400
    left, right = list(range(1, 201)), list(range(201, 401))
    rng.shuffle(left)
    rng.shuffle(right)
    pairs = [(a, b) for half in (left, right) for a, b in zip(half, half[1:])]
    pairs += [tuple(rng.sample(half, 2)) for half in (left, right) for _ in range(600)]
    assert not is_connected(RoundTopology(n, pairs))
    assert is_connected(RoundTopology(n, pairs + [(left[7], right[11])]))
    labels = component_labels(n, *np.array(normalized(pairs)).T)
    assert set(labels[1:].tolist()) == {1, 201}


def sampler_cases():
    """(n, avg_degree, seed): every degree at small n, spread degrees with
    both ends at larger n, the complete graph (every pair taken) and
    large_random's 87 of 99."""
    for n in (3, 5, 17):
        for degree in [d for d in (*range(2, n), 2.5, n - 1.5) if 2 <= d <= n - 1]:
            for seed in (0, 1, 11):
                yield n, degree, seed
    for n, seeds in ((100, (0, 7, 12345)), (200, (3, 4))):
        for degree in [*range(2, n, 23), 4.0, 87, n - 2, n - 1]:
            for seed in seeds:
                yield n, degree, seed
    yield 1000, 4.0, 11
    yield 1000, 2, 1
    yield 1000, 600, 2
    yield 1000, 999, 3


def test_random_connected_properties():
    for n, degree, seed in sampler_cases():
        target = min(max(round(degree * n / 2), n - 1), n * (n - 1) // 2)
        edges = _random_connected_edges(n, np.random.default_rng(seed), target)
        low, high = edges.min(axis=1), edges.max(axis=1)
        assert len(edges) == target and (low >= 1).all() and (high <= n).all()
        assert np.unique(low * (n + 1) + high).size == target and (low < high).all()
        g = generate_topology("random_connected", n, seed=seed, avg_degree=degree)
        assert len(g.src) == target and is_connected(g)
        again = generate_topology("random_connected", n, seed=seed, avg_degree=degree)
        assert np.array_equal(g.src, again.src) and np.array_equal(g.dst, again.dst)
    # Two nodes: the tree is the whole graph, and no pair is left.
    for degree in (1, 2):
        with pytest.raises(BadParameters):
            generate_topology("random_connected", 2, avg_degree=degree)
    for seed in (0, 5):
        got = _random_connected_edges(2, np.random.default_rng(seed), 1)
        assert got.tolist() == [[1, 2]]


def heap_prufer_tree(n, seq):
    """The textbook decode: a heap of the current leaves, and each step
    joins the smallest of them to the next entry of seq."""
    degree = [0] + [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(1, n + 1) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return normalized(edges)


class FixedSequence:
    """Stands in for the Generator: its one draw is the given sequence."""

    def __init__(self, n, seq):
        self.n, self.seq = n, seq

    def integers(self, low, high, size):
        assert (low, high, size) == (1, self.n + 1, self.n - 2)
        return np.array(self.seq, dtype=np.int64)


def test_prufer_decode_matches_heap_oracle_on_every_sequence_to_7_nodes():
    count = 0
    for n in range(2, 8):
        for seq in itertools.product(range(1, n + 1), repeat=n - 2):
            tree = _prufer_tree(n, FixedSequence(n, seq))
            assert (tree[:, 0] < tree[:, 1]).all()
            assert normalized(tree.tolist()) == heap_prufer_tree(n, seq)
            count += 1
    assert count == sum(n ** (n - 2) for n in range(2, 8))  # Cayley: 18 248


@pytest.mark.parametrize("n", [100, 1000, 10_000])
def test_prufer_decode_matches_heap_oracle_on_random_sequences(n):
    for seed in range(3):
        seq = np.random.default_rng(seed).integers(1, n + 1, size=n - 2).tolist()
        rng = np.random.default_rng(seed)
        tree = _prufer_tree(n, rng)
        assert normalized(tree.tolist()) == heap_prufer_tree(n, seq)
        # One draw of n - 2 ids, as the oracle made.
        twin = np.random.default_rng(seed)
        twin.integers(1, n + 1, size=n - 2)
        assert rng.bit_generator.state == twin.bit_generator.state


def reference_distinct_draws(rng, m, excluded, k):
    """(the first k distinct values outside excluded in draw order, the
    number of batches): batches of 2 * (k - found) + 16 draws, scanned one
    value at a time."""
    excluded, got, batches = set(excluded.tolist()), [], 0
    while len(got) < k:
        batches += 1
        for v in rng.integers(0, m, size=2 * (k - len(got)) + 16).tolist():
            if v not in excluded and v not in got and len(got) < k:
                got.append(v)
    return got, batches


def distinct_draw_cases():
    """(m, excluded, k): the draw and the leave-out mode of
    _random_connected_edges, from tree pairs of random graphs, and small
    ranges drawn empty, which take several batches."""
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(3, 40)
        pairs = n * (n - 1) // 2
        excluded = np.array(sorted(rng.sample(range(pairs), n - 1)), dtype=np.int64)
        free = pairs - (n - 1)
        need = rng.randint(0, free)
        yield pairs, excluded, free - need if 2 * need > free else need
    for m in (3, 10, 40, 200):
        for _ in range(10):
            excluded = np.array(sorted(rng.sample(range(m), rng.randint(1, m - 1))))
            yield m, excluded, m - len(excluded)


def test_distinct_draws_match_reference():
    several_batches = 0
    for seed, (m, excluded, k) in enumerate(distinct_draw_cases()):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _distinct_draws(rng, m, excluded, k)
        want, batches = reference_distinct_draws(twin, m, excluded, k)
        assert got.dtype == np.int64 and got.tolist() == want
        assert rng.bit_generator.state == twin.bit_generator.state
        several_batches += batches > 1
    assert several_batches >= 10


def schedule_digest(graphs):
    h = hashlib.sha256()
    for g in graphs:
        for a in (g.src, g.dst):
            h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


def pinned_graphs(name):
    if name == "sparse_1k":
        schedule = TopologySchedule.generated("random_connected", 1000, seed=11, avg_degree=4.0)
        return schedule.materialize(4)
    if name == "large_random":
        config = pathlib.Path(__file__).resolve().parents[1] / "configs" / "large_random.json"
        cfg = ProtocolConfig.from_dict(json.loads(config.read_text()))
        return cfg.schedule.materialize(cfg.rounds)
    return [generate_topology("random_connected", 10_000, seed=0, avg_degree=4)]


# sha256 of every round's src then dst, as little-endian int64, taken from
# the heap decoder: seeded graphs may not change within a version.
PINNED = {
    "sparse_1k": "c7366001f49c789ec8acdc597bf2bc0f1d54aaf90525586675dd2d022ec890f8",
    "large_random": "9410a67d89bccd0d255c68db1808a52f15cb76972c1dd2538e67e649d05fce58",
    "random_10k": "c01e819c9409b281905038f5d732d54447e38be4d66a5cd25470ed9a26883241",
}


@pytest.mark.parametrize("name", PINNED)
def test_seeded_schedules_are_pinned(name):
    assert schedule_digest(pinned_graphs(name)) == PINNED[name]


def spanning_tree_count(n, edges):
    """Kirchhoff: any cofactor of the graph Laplacian."""
    lap = np.zeros((n, n))
    for i, j in edges:
        lap[i - 1, j - 1] = lap[j - 1, i - 1] = -1
        lap[i - 1, i - 1] += 1
        lap[j - 1, j - 1] += 1
    return round(np.linalg.det(lap[1:, 1:]))


def chi2_quantile(dof, z):
    """Wilson-Hilferty approximation of the chi-square quantile at the
    normal quantile z."""
    c = 2 / (9 * dof)
    return dof * (1 - c + z * math.sqrt(c)) ** 3


# n=5 has 10 pairs, 4 of them tree pairs. Target 6 draws 2 of the 6
# non-tree pairs; target 8 draws the 2 of them to leave out.
@pytest.mark.parametrize("target", [6, 8])
def test_random_connected_follows_the_exact_law(target):
    n, samples = 5, 20000
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    weight = {}
    for edges in itertools.combinations(pairs, target):
        trees = spanning_tree_count(n, edges)
        if trees:
            weight[frozenset(edges)] = trees
    total = sum(weight.values())
    rng = np.random.default_rng(20260510 + target)
    seen = {}
    for _ in range(samples):
        edges = np.sort(_random_connected_edges(n, rng, target), axis=1)
        g = frozenset(map(tuple, edges.tolist()))
        seen[g] = seen.get(g, 0) + 1
    assert set(seen) <= set(weight)  # every draw has target distinct pairs
    expected = {g: samples * w / total for g, w in weight.items()}
    assert min(expected.values()) >= 5
    chi2 = sum((seen.get(g, 0) - e) ** 2 / e for g, e in expected.items())
    assert chi2 < chi2_quantile(len(weight) - 1, 3.09)  # the 0.999 quantile


def test_random_connected_at_10k_learners_stays_small():
    tracemalloc.start()
    try:
        g = generate_topology("random_connected", 10_000, avg_degree=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert len(g.src) == 20_000 and is_connected(g)
