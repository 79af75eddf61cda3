"""Communication graphs and their Metropolis-Hastings averaging weights.

Nodes carry 1-based ids. Edge weights are degree-based,

    a_ij = 1 / (max(deg_i, deg_j) + 1)       for neighbors i, j
    a_ii = 1 - sum_j a_ij,

which yields a symmetric doubly stochastic matrix on any connected
undirected graph, so repeated averaging contracts to the exact mean.

A graph is held once, as sorted edge arrays src < dst. Neighbours, degrees,
weights, share pairs and connectivity all derive from them with numpy.
"""

from __future__ import annotations

import json
import numbers
from functools import cached_property
from itertools import chain

import numpy as np

from .seeding import derive_rng, derive_seed


class DisconnectedGraph(ValueError):
    """The operation requires a connected graph."""


class NotSymmetric(ValueError):
    """The operation requires a symmetric matrix."""


class BadParameters(ValueError):
    """Invalid topology generation parameters."""


class RoundTopology:
    """Undirected simple graph on nodes 1..n_nodes for one round.

    edges is any iterable of (i, j) id pairs; (i, j) and (j, i) are one
    edge. The graph is stored as two read-only int64 arrays, src < dst,
    sorted by (src, dst) without repeats. From them the constructor lays
    out both directions of every edge once, sorted by (tail, head):
    arc_tail[k] -> arc_head[k] is arc k, the arcs of node i are
    indptr[i-1]:indptr[i], and arc_rev[k] is the index of arc k's reverse.
    The forward arcs (head > tail) run in src/dst order.
    """

    def __init__(self, n_nodes: int, edges):
        if not isinstance(n_nodes, numbers.Integral):
            raise ValueError(f"n_nodes must be an integer, not {n_nodes!r}")
        n_nodes = int(n_nodes)
        if n_nodes < 1:
            raise ValueError("need at least one node")
        # No id at or above 2**31 is a share point below a modulus of at
        # most 31 bits, and the keys i * (n + 1) + j below must fit int64.
        if n_nodes >= 2**31:
            raise ValueError(f"n_nodes must be an integer below 2**31, not {n_nodes}")
        if isinstance(edges, np.ndarray) and edges.ndim == 2:
            pairs = edges
        else:
            try:
                pairs = _pair_array(list(edges))
            except (TypeError, ValueError):  # not iterable, or ragged
                pairs = None
        if (pairs is None or pairs.ndim != 2 or pairs.shape[1] != 2
                or pairs.dtype.kind not in "iu"):
            raise ValueError("edges must be pairs of integer node ids")
        # Elementwise on the two columns: numpy's axis=1 reductions over
        # rows of two cost several times as much.
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        loops = np.flatnonzero(lo == hi)
        if loops.size:
            raise ValueError(f"self-loop at node {lo[loops[0]]}")
        outside = np.flatnonzero((lo < 1) | (hi > n_nodes))
        if outside.size:
            i, j = pairs[outside[0]]
            raise ValueError(f"edge ({i},{j}) outside 1..{n_nodes}")
        # Edge (i, j), i < j, is the key i * (n + 1) + j: one sort orders
        # the edges, and repeats sit next to each other. (numpy 2.4's
        # np.unique hashes first and takes 15-45x as long.)
        base = n_nodes + 1
        key = np.sort(lo.astype(np.int64) * base + hi.astype(np.int64))
        key = key[np.diff(key, prepend=-1) != 0]
        src, dst = np.divmod(key, base)
        # Node i's arcs are laid out by counting: first its backward arcs,
        # to the j < i of the edges (j, i), then its forward arcs, to the
        # j > i of the edges (i, j), each run in head order. The edges are
        # in forward order already; one sort of (dst, src) keys gives the
        # backward order. back[i] and ahead[i] count the backward and the
        # forward arcs of nodes 1..i.
        back = np.cumsum(np.bincount(dst, minlength=base))
        ahead = np.cumsum(np.bincount(src, minlength=base))
        edge = np.arange(len(src))
        fwd_at = edge + back[src]
        by_dst = np.argsort(dst * base + src)
        back_at = np.empty_like(edge)
        back_at[by_dst] = edge + ahead[dst[by_dst] - 1]
        self.n_nodes = n_nodes
        self.src, self.dst = src, dst
        self.indptr = back + ahead
        self.arc_tail = np.empty(2 * len(src), dtype=np.int64)
        self.arc_head = np.empty_like(self.arc_tail)
        self.arc_rev = np.empty_like(self.arc_tail)
        for at, other, tail, head in ((fwd_at, back_at, src, dst), (back_at, fwd_at, dst, src)):
            self.arc_tail[at], self.arc_head[at], self.arc_rev[at] = tail, head, other
        for arr in (self.src, self.dst, self.arc_tail, self.arc_head,
                    self.arc_rev, self.indptr):
            arr.setflags(write=False)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as (i, j) tuples with i < j; built on each access."""
        return frozenset(zip(self.src.tolist(), self.dst.tolist()))

    def neighbors(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.n_nodes:
            raise KeyError(i)
        return tuple(self.arc_head[self.indptr[i - 1]:self.indptr[i]].tolist())

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    @cached_property
    def pair_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(arc_row, own_row): the rows of share_pairs(g) that arc k and
        learner i's own pair (i, i) take, arc_row[k] and own_row[i-1];
        read-only, laid out on first use.

        Learner i's pairs follow those of the learners before it, one more
        row each than their arcs, and list its closed neighbourhood in id
        order: its backward arcs, then its own pair, at the count of its
        smaller neighbours, then its forward arcs."""
        tail, head, n = self.arc_tail, self.arc_head, self.n_nodes
        arc_row = np.arange(len(head)) + tail - 1 + (head > tail)
        below = np.bincount(self.dst, minlength=n + 1)[1:]
        own_row = self.indptr[:-1] + np.arange(n) + below
        arc_row.setflags(write=False)
        own_row.setflags(write=False)
        return arc_row, own_row


def _pair_array(edges: list) -> np.ndarray | None:
    """np.array(edges), an empty (0, 2) int64 array if there are none, or
    None for nested ids.

    When every item is a list or tuple of two, one np.array over the
    flattened ids finds the same dtype and values as over the nested pairs,
    in about two thirds of the time for a transcript's JSON edge lists.
    """
    if not edges:
        return np.empty((0, 2), dtype=np.int64)
    if set(map(type, edges)) <= {list, tuple} and set(map(len, edges)) == {2}:
        ids = np.array(list(chain.from_iterable(edges)))
        return ids.reshape(-1, 2) if ids.ndim == 1 else None
    return np.array(edges)


def component_labels(n_nodes: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """labels[v] = the smallest id in node v's component, for v in 1..n_nodes
    (labels[0] = 0), of the graph whose edges are (src[e], dst[e]).

    Hook and compress: each pass points every root that an edge joins to a
    smaller root at the smallest such root, then pointer-jumps every node
    to its root, and drops the edges inside one tree. A parent is never
    larger than its node, so each root is its tree's smallest member. A
    root with an edge to another tree is hooked, or hooked onto, within
    two passes, so the roots of a component at least halve every two
    passes.
    """
    parent = np.arange(n_nodes + 1)
    while True:
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        root_a, root_b = parent[src], parent[dst]
        cross = root_a != root_b
        if not cross.any():
            return parent
        src, dst = src[cross], dst[cross]
        root_a, root_b = root_a[cross], root_b[cross]
        np.minimum.at(parent, np.maximum(root_a, root_b), np.minimum(root_a, root_b))


def is_connected(g: RoundTopology) -> bool:
    """Every node carries the label of node 1."""
    return bool((component_labels(g.n_nodes, g.src, g.dst)[1:] == 1).all())


def mh_denominators(g: RoundTopology) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, d): each edge i < j, in g.src/g.dst order, with its integer
    weight denominator d = max(deg_i, deg_j) + 1.

    The one statement of the Metropolis-Hastings rule: the float weights
    and the analyzer's exact rational weights are both built from it.
    """
    deg = np.diff(g.indptr)
    return g.src, g.dst, np.maximum(deg[g.src - 1], deg[g.dst - 1]) + 1


def mh_edge_weights(
    g: RoundTopology,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Metropolis-Hastings weights as flat arrays (rows, cols, weights, diag).

    rows and cols are 0-based and hold both directions of every edge,
    sorted by (row, col); weights[e] = 1/d for the edge's denominator.
    diag[i] = 1 - sum_j a_ij is the row residual, its off-diagonal terms
    summed in column order. mh_weights places exactly these floats in the
    dense matrix, so the edge-list averaging operator and the matrix the
    eigensolve sees are one matrix.
    """
    # Forward arcs run in edge order; a backward arc takes its reverse's weight.
    forward = g.arc_head > g.arc_tail
    weights = np.empty(len(forward))
    weights[forward] = 1.0 / mh_denominators(g)[2]
    weights[~forward] = weights[g.arc_rev[~forward]]
    rows = g.arc_tail - 1
    diag = 1.0 - np.bincount(rows, weights=weights, minlength=g.n_nodes)
    return rows, g.arc_head - 1, weights, diag


def share_pairs(g: RoundTopology) -> tuple[np.ndarray, np.ndarray]:
    """(senders, receivers) of the round's share bundles, 1-based int64.

    Every learner sends one bundle to each member of its closed
    neighbourhood, so there are N + 2|E| pairs, sorted by (sender,
    receiver): the arcs and the self pairs (i, i), scattered to their rows
    (see RoundTopology.pair_rows). Row e of a round's share table is the
    bundle of pair e.
    """
    arc_row, own_row = g.pair_rows
    ids = np.arange(1, g.n_nodes + 1)
    receivers = np.empty(len(arc_row) + g.n_nodes, dtype=np.int64)
    receivers[arc_row], receivers[own_row] = g.arc_head, ids
    return np.repeat(ids, np.diff(g.indptr) + 1), receivers


def receiver_order(g: RoundTopology) -> np.ndarray:
    """The rows of share_pairs(g) in (receiver, sender) order: entry e is
    the row of the pair that reverses pair e. Learner i's entries thus sit
    where its own bundles do, and list the rows of the bundles it receives,
    from its closed neighbourhood in id order."""
    arc_row, own_row = g.pair_rows
    order = np.empty(len(arc_row) + g.n_nodes, dtype=np.int64)
    order[arc_row], order[own_row] = arc_row[g.arc_rev], own_row
    return order


def mh_weights(g: RoundTopology, edge_weights: tuple | None = None) -> np.ndarray:
    """Symmetric doubly stochastic weight matrix for a connected graph;
    DisconnectedGraph for any other.

    The dense form of mh_edge_weights(g), passed as ``edge_weights`` when
    the caller already holds it: the diagonal is the row residual 1 - sum
    of off-diagonal entries, which keeps row sums exactly 1 up to one
    rounding step.
    """
    if not is_connected(g):
        raise DisconnectedGraph("averaging weights need a connected graph")
    if edge_weights is None:
        edge_weights = mh_edge_weights(g)
    rows, cols, weights, diag = edge_weights
    a = np.zeros((g.n_nodes, g.n_nodes))
    a[rows, cols] = weights
    np.fill_diagonal(a, diag)
    return a


def _check_square_symmetric(a: np.ndarray) -> np.ndarray:
    # Exact compare: a bool temporary rather than allclose's float ones,
    # and eigvalsh reads only one triangle, so symmetry must be exact.
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric("expected a square matrix")
    if not np.array_equal(a, a.T):
        raise NotSymmetric("matrix is not symmetric")
    return a


def contraction_radius(a: np.ndarray) -> float:
    """Spectral radius of A - (1/N) 11^T for symmetric A."""
    a = _check_square_symmetric(a)
    n = a.shape[0]
    b = a - np.full((n, n), 1.0 / n)
    return float(np.max(np.abs(np.linalg.eigvalsh(b))))


def second_largest_eigenvalue(a: np.ndarray) -> float:
    """Eigenvalue with the second-largest magnitude (signed value).

    For a symmetric doubly stochastic A its magnitude is the contraction
    radius of A - (1/N) 11^T: that matrix has A's spectrum with the
    eigenvalue 1 of the all-ones vector replaced by 0.
    """
    a = _check_square_symmetric(a)
    if a.shape[0] < 2:
        raise ValueError("need at least a 2x2 matrix")
    vals = np.linalg.eigvalsh(a)
    order = np.argsort(-np.abs(vals), kind="stable")
    return float(vals[order[1]])


def _prufer_tree(n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform random labeled spanning tree on 1..n, decoded from a
    uniform Pruefer sequence: one (i, j) row per edge, i < j.

    The linear decode (Caminiti, Finocchi & Petreschi, "On coding labeled
    trees", 2007). count[v] is node v's degree among the nodes not yet
    joined, and step k joins the smallest leaf to seq[k]. A scan pointer
    starts at the smallest leaf and only moves up. When seq[k] falls to
    degree one below the pointer, it is the next smallest leaf; otherwise
    the pointer moves on to the next id of degree one. Each id is scanned
    once, so the decode is O(n). The last edge joins the final leaf to n,
    which is never the smaller of two leaves.
    """
    seq = rng.integers(1, n + 1, size=n - 2)
    count = (np.bincount(seq, minlength=n + 1) + 1).tolist()
    count[0] = 0
    ptr = leaf = count.index(1)
    leaves = []
    for x in seq.tolist():
        leaves.append(leaf)
        count[x] -= 1
        if count[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr = leaf = count.index(1, ptr + 1)
    leaves.append(leaf)
    leaves = np.array(leaves, dtype=np.int64)
    joined = np.append(seq, n)
    return np.stack([np.minimum(leaves, joined), np.maximum(leaves, joined)], axis=1)


def _distinct_draws(
    rng: np.random.Generator, m: int, excluded: np.ndarray, k: int
) -> np.ndarray:
    """k distinct values of 0..m-1 outside the sorted nonempty array
    excluded, every such k-set equally likely.

    They are the first k distinct values, in draw order, of a stream of
    uniform draws from 0..m-1 with the excluded values dropped. The stream
    is drawn in batches, each appended to the values already kept. One
    sort of a batch groups equal values; the smallest position in a group
    is that value's first draw, so the sort need not be stable. One
    searchsorted over the distinct values alone drops the excluded ones.
    """
    got = np.empty(0, dtype=np.int64)
    while len(got) < k:
        draws = np.concatenate([got, rng.integers(0, m, size=2 * (k - len(got)) + 16)])
        order = np.argsort(draws)
        ranked = draws[order]
        first = np.flatnonzero(np.diff(ranked, prepend=-1))
        order, values = np.minimum.reduceat(order, first), ranked[first]
        hit = excluded[np.minimum(np.searchsorted(excluded, values), len(excluded) - 1)]
        got = draws[np.sort(order[hit != values])[:k]]
    return got


def _random_connected_edges(
    n: int, rng: np.random.Generator, target: int
) -> np.ndarray:
    """A uniform spanning tree plus target - (n - 1) uniformly chosen other
    pairs, as an int64 array with one (i, j) row per edge.

    Pairs i < j are indexed 0..n(n-1)/2 - 1 in lexicographic order. The
    extra pairs are drawn by index; when they are more than half of the
    non-tree pairs, the pairs to leave out are drawn instead, so the work
    stays O(target) in both regimes.
    """
    tree = _prufer_tree(n, rng)
    a = np.arange(n, dtype=np.int64)
    starts = a * (n - 1) - a * (a - 1) // 2  # the index of pair (a+1, a+2)
    pairs = n * (n - 1) // 2
    tree_index = np.sort(starts[tree[:, 0] - 1] + tree[:, 1] - tree[:, 0] - 1)
    free, need = pairs - (n - 1), target - (n - 1)
    leave_out = 2 * need > free
    index = _distinct_draws(rng, pairs, tree_index, free - need if leave_out else need)
    if leave_out:
        keep = np.ones(pairs, dtype=bool)
        keep[tree_index] = keep[index] = False
        index = np.flatnonzero(keep)
    else:
        index = np.sort(index)  # sorted needles search several times faster
    row = np.searchsorted(starts, index, side="right") - 1
    extra = np.stack([row + 1, index - starts[row] + row + 2], axis=1)
    return np.concatenate([tree, extra])


def check_generator(kind: str, n_nodes: int, avg_degree: float | None = None) -> None:
    """Raise BadParameters unless generate_topology accepts these parameters.

    The one statement of the rule, checked without generating a graph: a
    known kind on at least 2 nodes, and for random_connected an average
    degree in [2, n_nodes - 1] (NaN is outside).
    """
    if n_nodes < 2:
        raise BadParameters("need at least 2 nodes")
    if kind not in ("complete", "star", "line", "random_connected"):
        raise BadParameters(f"unknown topology kind {kind!r}")
    if kind == "random_connected":
        if avg_degree is None:
            raise BadParameters("random_connected requires avg_degree")
        if not 2 <= avg_degree <= n_nodes - 1:
            raise BadParameters(
                f"avg_degree {avg_degree} outside [2, {n_nodes - 1}]"
            )


def generate_topology(
    kind: str,
    n_nodes: int,
    seed: int = 0,
    avg_degree: float | None = None,
) -> RoundTopology:
    """Named deterministic graph, or a seeded random connected graph.

    Random graphs are a uniform spanning tree plus uniformly chosen extra
    edges until the target average degree is met, so connectivity holds by
    construction. Both come from one numpy Generator derived from seed:
    a Pruefer sequence, then the extra pairs.
    """
    check_generator(kind, n_nodes, avg_degree)
    ids = np.arange(1, n_nodes + 1, dtype=np.int64)
    if kind == "complete":
        edges = np.stack(np.triu_indices(n_nodes, 1), axis=1).astype(np.int64) + 1
    elif kind == "star":
        edges = np.stack([np.ones(n_nodes - 1, dtype=np.int64), ids[1:]], axis=1)
    elif kind == "line":
        edges = np.stack([ids[:-1], ids[1:]], axis=1)
    else:  # random_connected
        target = round(avg_degree * n_nodes / 2)
        target = min(max(target, n_nodes - 1), n_nodes * (n_nodes - 1) // 2)
        edges = _random_connected_edges(n_nodes, derive_rng(seed), target)
    return RoundTopology(n_nodes, edges)


class TopologySchedule:
    """Per-round communication graphs: an explicit list or a seeded policy."""

    def __init__(self, graphs=None, policy=None):
        if (graphs is None) == (policy is None):
            raise ValueError("supply exactly one of graphs or policy")
        self._graphs = list(graphs) if graphs is not None else None
        self._policy = policy

    @classmethod
    def from_graphs(cls, graphs) -> "TopologySchedule":
        return cls(graphs=graphs)

    @classmethod
    def generated(
        cls,
        kind: str,
        n_nodes: int,
        seed: int = 0,
        avg_degree: float | None = None,
    ) -> "TopologySchedule":
        return cls(policy=(kind, n_nodes, seed, avg_degree))

    @property
    def generator(self) -> tuple | None:
        """(kind, n_nodes, seed, avg_degree) of a generated schedule; None
        for an explicit one."""
        return self._policy

    @property
    def length(self) -> int | None:
        """Number of rounds covered; None for unbounded generated schedules."""
        return len(self._graphs) if self._graphs is not None else None

    def round_graph(self, t: int) -> RoundTopology:
        """Graph for round t (1-based)."""
        if t < 1:
            raise ValueError("round index is 1-based")
        if self._graphs is not None:
            if t > len(self._graphs):
                raise ValueError(f"schedule has only {len(self._graphs)} rounds")
            return self._graphs[t - 1]
        kind, n_nodes, seed, avg_degree = self._policy
        return generate_topology(
            kind,
            n_nodes,
            seed=derive_seed(seed, "topology", t),
            avg_degree=avg_degree,
        )

    def materialize(self, rounds: int) -> list[RoundTopology]:
        return [self.round_graph(t) for t in range(1, rounds + 1)]

    @classmethod
    def from_file(cls, path: str, n_nodes: int | None = None) -> "TopologySchedule":
        """Load a JSON array of per-round edge lists."""
        with open(path) as fh:
            rounds = json.load(fh)
        if not isinstance(rounds, list) or not rounds:
            raise ValueError("schedule file must be a nonempty JSON array")
        graphs = []
        for t, edge_list in enumerate(rounds, start=1):
            try:
                n = n_nodes or int(np.max(edge_list, initial=1))
            except (TypeError, ValueError):  # ids that numpy cannot compare
                raise ValueError(
                    f"schedule round {t}: edges must be pairs of integer node ids"
                ) from None
            graphs.append(RoundTopology(n, edge_list))
        return cls.from_graphs(graphs)

    def to_json(self, rounds: int | None = None) -> list:
        count = rounds if rounds is not None else self.length
        if count is None:
            raise ValueError("unbounded schedule needs an explicit round count")
        graphs = (self.round_graph(t) for t in range(1, count + 1))
        return [np.stack([g.src, g.dst], axis=1).tolist() for g in graphs]
