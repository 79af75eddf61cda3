"""Communication graphs and their Metropolis-Hastings averaging weights.

Nodes carry 1-based ids. Edge weights are degree-based,

    a_ij = 1 / (max(deg_i, deg_j) + 1)       for neighbors i, j
    a_ii = 1 - sum_j a_ij,

which yields a symmetric doubly stochastic matrix on any connected
undirected graph, so repeated averaging contracts to the exact mean.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .seeding import derive_seed


class DisconnectedGraph(ValueError):
    """The operation requires a connected graph."""


class NotSymmetric(ValueError):
    """The operation requires a symmetric matrix."""


class BadParameters(ValueError):
    """Invalid topology generation parameters."""


@dataclass
class RoundTopology:
    """Undirected simple graph on nodes 1..n_nodes for one round."""

    n_nodes: int
    edges: frozenset[tuple[int, int]]
    round_index: int = 0
    _adjacency: dict[int, tuple[int, ...]] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        normalized = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (1 <= i <= self.n_nodes and 1 <= j <= self.n_nodes):
                raise ValueError(f"edge ({i},{j}) outside 1..{self.n_nodes}")
            normalized.add((min(i, j), max(i, j)))
        self.edges = frozenset(normalized)

    def _adj(self) -> dict[int, tuple[int, ...]]:
        if self._adjacency is None:
            nbrs: dict[int, list[int]] = {i: [] for i in range(1, self.n_nodes + 1)}
            for i, j in self.edges:
                nbrs[i].append(j)
                nbrs[j].append(i)
            self._adjacency = {i: tuple(sorted(v)) for i, v in nbrs.items()}
        return self._adjacency

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj()[i]

    def degree(self, i: int) -> int:
        return len(self._adj()[i])

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def is_connected(g: RoundTopology) -> bool:
    """BFS from node 1 reaches every node."""
    if g.n_nodes == 1:
        return True
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == g.n_nodes


def mh_denominators(g: RoundTopology) -> Iterator[tuple[int, int, int]]:
    """Each edge (i, j) with its integer weight denominator max(deg_i, deg_j) + 1.

    The one statement of the Metropolis-Hastings rule: the float weights
    and the analyzer's exact rational weights are both built from it.
    """
    deg = [0] + [g.degree(i) for i in range(1, g.n_nodes + 1)]
    for i, j in g.edges:
        yield i, j, max(deg[i], deg[j]) + 1


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
    triples = np.array(list(mh_denominators(g)), dtype=np.int64).reshape(-1, 3)
    i, j, d = triples.T
    rows = np.concatenate([i, j]) - 1
    cols = np.concatenate([j, i]) - 1
    weights = 1.0 / np.concatenate([d, d])
    order = np.argsort(rows * g.n_nodes + cols)
    rows, cols, weights = rows[order], cols[order], weights[order]
    diag = 1.0 - np.bincount(rows, weights=weights, minlength=g.n_nodes)
    return rows, cols, weights, diag


def holder_sets(g: RoundTopology) -> np.ndarray:
    """(N, 1 + max degree) int64: row i-1 is learner i's closed neighbourhood
    in increasing order, padded with zeros (0 is never a learner id)."""
    rows = [sorted((i, *g.neighbors(i))) for i in range(1, g.n_nodes + 1)]
    sizes = np.array([len(r) for r in rows])
    out = np.zeros((g.n_nodes, sizes.max()), dtype=np.int64)
    out[np.arange(sizes.max()) < sizes[:, None]] = np.concatenate(rows)
    return out


def share_pairs(g: RoundTopology) -> tuple[np.ndarray, np.ndarray]:
    """(senders, receivers) of the round's share bundles, 1-based int64.

    Every learner sends one bundle to each member of its closed
    neighbourhood, so there are N + 2|E| pairs, sorted by (sender,
    receiver): learner i's block lists row i-1 of holder_sets(g). Row e of
    a round's share table is the bundle of pair e.
    """
    holders = holder_sets(g)
    present = holders > 0
    return np.nonzero(present)[0] + 1, holders[present]


def mh_weights(g: RoundTopology, edge_weights: tuple | None = None) -> np.ndarray:
    """Symmetric doubly stochastic weight matrix for a connected graph.

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


@dataclass(frozen=True)
class ConsensusReport:
    """Stochasticity and contraction diagnostics for a weight matrix."""

    row_sum_err: float
    col_sum_err: float
    contraction_radius: float

    @property
    def passed(self) -> bool:
        return (
            self.row_sum_err < 1e-9
            and self.col_sum_err < 1e-9
            and self.contraction_radius < 1.0
        )


def verify_consensus_conditions(a: np.ndarray) -> ConsensusReport:
    """Check the conditions under which averaging converges to the mean."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric("expected a square matrix")
    return ConsensusReport(*stochasticity_errors(a), contraction_radius(a))


def stochasticity_errors(a: np.ndarray) -> tuple[float, float]:
    """Largest deviation of a row sum and of a column sum from 1."""
    row_err = float(np.max(np.abs(a.sum(axis=1) - 1.0)))
    col_err = float(np.max(np.abs(a.sum(axis=0) - 1.0)))
    return row_err, col_err


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


def _prufer_tree(n: int, rng: random.Random) -> set[tuple[int, int]]:
    # Uniform random labeled spanning tree on 1..n.
    if n == 2:
        return {(1, 2)}
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    import heapq

    leaves = [i for i in range(1, n + 1) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = set()
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.add((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.add((min(u, v), max(u, v)))
    return edges


def generate_topology(
    kind: str,
    n_nodes: int,
    seed: int = 0,
    avg_degree: float | None = None,
    round_index: int = 0,
) -> RoundTopology:
    """Named deterministic graph, or a seeded random connected graph.

    Random graphs are a uniform spanning tree plus uniformly chosen extra
    edges until the target average degree is met, so connectivity holds by
    construction.
    """
    if n_nodes < 2:
        raise BadParameters("need at least 2 nodes")
    if kind == "complete":
        edges = {
            (i, j)
            for i in range(1, n_nodes + 1)
            for j in range(i + 1, n_nodes + 1)
        }
    elif kind == "star":
        edges = {(1, j) for j in range(2, n_nodes + 1)}
    elif kind == "line":
        edges = {(i, i + 1) for i in range(1, n_nodes)}
    elif kind == "random_connected":
        if avg_degree is None:
            raise BadParameters("random_connected requires avg_degree")
        if not 2 <= avg_degree <= n_nodes - 1:
            raise BadParameters(
                f"avg_degree {avg_degree} outside [2, {n_nodes - 1}]"
            )
        rng = random.Random(seed)
        edges = _prufer_tree(n_nodes, rng)
        target = round(avg_degree * n_nodes / 2)
        target = min(max(target, n_nodes - 1), n_nodes * (n_nodes - 1) // 2)
        candidates = [
            (i, j)
            for i in range(1, n_nodes + 1)
            for j in range(i + 1, n_nodes + 1)
            if (i, j) not in edges
        ]
        rng.shuffle(candidates)
        for e in candidates[: max(0, target - len(edges))]:
            edges.add(e)
    else:
        raise BadParameters(f"unknown topology kind {kind!r}")
    return RoundTopology(n_nodes, frozenset(edges), round_index)


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
            g = self._graphs[t - 1]
            return RoundTopology(g.n_nodes, g.edges, t)
        kind, n_nodes, seed, avg_degree = self._policy
        return generate_topology(
            kind,
            n_nodes,
            seed=derive_seed(seed, "topology", t),
            avg_degree=avg_degree,
            round_index=t,
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
            edges = frozenset((int(i), int(j)) for i, j in edge_list)
            n = n_nodes or max((max(e) for e in edges), default=1)
            graphs.append(RoundTopology(n, edges, t))
        return cls.from_graphs(graphs)

    def to_json(self, rounds: int | None = None) -> list:
        count = rounds if rounds is not None else self.length
        if count is None:
            raise ValueError("unbounded schedule needs an explicit round count")
        return [
            [list(e) for e in self.round_graph(t).sorted_edges()]
            for t in range(1, count + 1)
        ]
