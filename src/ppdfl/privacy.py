"""Exactly what a semi-honest coalition learns from a run.

The coalition pools every message its members saw. Each observation is a
GF(p)-linear equation over the benign learners' share values -- learner
j's polynomial evaluated at each member of its closed neighbourhood --
and the question is which target functionals of the secrets fall inside
the row space, and with what value. A secret is the
interpolation-weighted sum of its learner's share values, and share
values are an invertible Vandermonde image of the secret and polynomial
coefficients, so the answers are those of the system over secrets and
coefficients (see _build_view). Both answers are proofs -- "inferable"
comes with the reconstructed value, and "not inferable" certifies that no
linear post-processing of the view reveals the functional.

A connected group of benign learners whose every outside contact is
adversarial ("surrounded") leaks exactly its summed model: the coalition
can peel its own contributions off the group's masked states, and the
remaining shares telescope to the group sum. Groups with a benign outside
contact leak nothing, because that contact's uninspected shares blind the
modular sum. The engine reproduces both directions constructively.

By default the coalition is over-credited with every benign learner's
masked initial state: broadcast states are public linear images of the
initial ones, so this is a safe upper bound on the averaging-layer view
and keeps the analysis purely linear over GF(p). In these unknowns a
handed share is a one-entry row and the masked-state rows have disjoint
supports, so the worst-case answer has a closed form: a functional leaks
exactly when its coefficients are constant on every benign component,
and its value is read off the share table (_ComponentView) with no
elimination. The "observed" mode restricts the credit to the state
functionals actually spanned by the coalition's seats, computed exactly
over the rationals, and row-reduces that system (_build_view, _LinearView).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .field import PrimeModulus, _reduce_vector, _rref
from .fixedpoint import signed_residue
from .sharing import interpolation_weights
from .topology import (
    RoundTopology,
    TopologySchedule,
    component_labels,
    holder_sets,
    mh_denominators,
    share_pairs,
)

# Exhaustive subset enumeration is only sensible for small graphs.
_ENUM_LIMIT = 16
# Rational span computation grows factorially in exact arithmetic.
_OBSERVED_MODE_LIMIT = 12


class TranscriptIncomplete(ValueError):
    """The transcript lacks records the analysis needs."""


@dataclass(frozen=True)
class AdversarySet:
    """A coalition of learner ids; the complement is benign."""

    ids: frozenset[int]
    n_nodes: int

    def __init__(self, ids: Iterable[int], n_nodes: int):
        ids = frozenset(int(i) for i in ids)
        if not all(1 <= i <= n_nodes for i in ids):
            raise ValueError("adversary ids outside 1..n_nodes")
        if len(ids) == n_nodes:
            raise ValueError("at least one learner must be benign")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "n_nodes", n_nodes)

    @property
    def benign(self) -> frozenset[int]:
        return frozenset(range(1, self.n_nodes + 1)) - self.ids


@dataclass(frozen=True)
class SurroundedDecomposition:
    """Benign groups cut off from the rest of the benign graph.

    components partition the benign set; each is a connected component of
    the benign-induced subgraph. boundary[k] holds the members of
    components[k] that have at least one adversarial neighbor.
    """

    components: tuple[frozenset[int], ...]
    boundary: tuple[frozenset[int], ...]


def _benign_labels(
    g: RoundTopology, adversaries: AdversarySet
) -> tuple[np.ndarray, np.ndarray]:
    """(benign, labels) over ids 0..N: benign[v] marks the benign learners,
    and labels[v] is the smallest id of v's connected component in the
    benign-induced subgraph (an adversary is its own label)."""
    benign = np.ones(g.n_nodes + 1, dtype=bool)
    benign[[0, *adversaries.ids]] = False
    inner = benign[g.src] & benign[g.dst]
    return benign, component_labels(g.n_nodes, g.src[inner], g.dst[inner])


def surrounded_components(
    g: RoundTopology, adversaries: AdversarySet
) -> SurroundedDecomposition:
    """Connected components of the graph restricted to benign learners,
    ordered by their smallest members."""
    benign, labels = _benign_labels(g, adversaries)
    # Benign members sorted by component, and by id within it.
    members = np.flatnonzero(benign)
    members = members[np.argsort(labels[members], kind="stable")]
    groups = np.split(members, np.flatnonzero(np.diff(labels[members])) + 1)
    # Benign endpoints of benign-adversary edges.
    src_benign, dst_benign = benign[g.src], benign[g.dst]
    mixed = src_benign != dst_benign
    touching = np.zeros(g.n_nodes + 1, dtype=bool)
    touching[np.where(src_benign[mixed], g.src[mixed], g.dst[mixed])] = True
    return SurroundedDecomposition(
        tuple(frozenset(m.tolist()) for m in groups),
        tuple(frozenset(m[touching[m]].tolist()) for m in groups),
    )


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


@dataclass(frozen=True)
class SecrecyVerdict:
    ok: bool
    failing_round: int | None = None
    witnesses: tuple[frozenset[int], ...] = ()


def perfect_secrecy(
    schedule: TopologySchedule | Sequence[RoundTopology],
    adversaries: AdversarySet,
    rounds: int | None = None,
) -> SecrecyVerdict:
    """True iff no proper benign subset is ever surrounded.

    Equivalently: the benign-induced subgraph is connected in every round.
    On failure, reports the earliest failing round and its surrounded
    proper subsets, each a leaked-partial-sum witness.
    """
    if isinstance(schedule, TopologySchedule):
        count = rounds if rounds is not None else schedule.length
        if count is None:
            raise ValueError("unbounded schedule needs an explicit round count")
        graphs = (schedule.round_graph(t) for t in range(1, count + 1))
    else:
        graphs = iter(schedule)
    for t, g in enumerate(graphs, start=1):
        decomp = surrounded_components(g, adversaries)
        if len(decomp.components) != 1:
            return SecrecyVerdict(False, t, decomp.components)
    return SecrecyVerdict(True)


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


def _round_shares(
    record, adversaries: AdversarySet, p: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(coalition, senders, receivers, table) of one round: coalition[v]
    marks the coalition's ids among 0..N, and row e of the share table is
    the weighted bundle senders[e] sends receivers[e], in share_pairs order.
    Refuses a modulus the int64 kernels cannot hold and a table that does
    not fit the round's graph."""
    PrimeModulus(p)  # a transcript's modulus must suit the int64 kernels
    g: RoundTopology = record.topology
    senders, receivers = share_pairs(g)
    table = record.bundles
    if len(table) != len(senders):
        raise TranscriptIncomplete(
            f"round {record.round_index} records {len(table)} share bundles, "
            f"its graph sends {len(senders)}"
        )
    coalition = np.zeros(g.n_nodes + 1, dtype=bool)
    coalition[list(adversaries.ids)] = True
    return coalition, senders, receivers, table


class _ComponentView:
    """Everything a worst-case coalition learns, in closed form.

    Let w[j, i] = delta_ji * f_j(i) be the weighted share that benign j
    sends to member i of its closed neighbourhood N[j]: a bundle. These
    unknowns are the share values of _build_view rescaled by nonzero
    constants, so they pose the same questions with the same answers. The
    worst-case view has three kinds of rows:

    - each share benign j handed to a coalition member a is a unit row,
      w[j, a] = bundle(j, a);
    - benign i's masked state less the coalition's bundles into i is the
      sum of w[j, i] over the benign j in N[i]. No two of these rows share
      an unknown, and with the handed rows they partition the unknowns;
    - the aggregate, sum_j x_j with x_j = sum_i w[j, i], is the sum of all
      the rows above, so it adds no information, only a consistency check:
      its right-hand side, the rounded output less the coalition's own
      secrets, must equal the sum of theirs.

    A target sum_j c_j x_j puts c_j on every w[j, i]. The rows are unit
    vectors and indicators of disjoint blocks that cover every unknown, so
    the target is a combination of them exactly when it is constant on
    each block: c_j must agree over the benign members j of every closed
    neighbourhood N[i]. Since i is one of them, that holds exactly when c
    is constant on each connected component C of the benign-induced
    subgraph, a member the functional omits counting as 0. The combination
    takes c_C times each state row in C and c_j times each share j handed
    out, so the value is sum_C c_C v_C, where v_C sums over i in C the
    balance

        b_i = s0_i - (coalition bundles into i) + (bundles i handed out).

    Otherwise some benign i has benign j, j' in N[i] with c_j != c_j', and
    z = e_(j,i)/delta_ji - e_(j',i)/delta_j'i over share values annihilates
    every row while the target gives c_j - c_j' != 0: no linear
    post-processing of the view reveals the functional. Both answers are
    therefore exact over GF(p), and nothing is eliminated.
    """

    def __init__(self, record, adversaries: AdversarySet, p: int,
                 coordinates: tuple[int, ...]):
        coalition, senders, receivers, table = _round_shares(record, adversaries, p)
        benign, labels = _benign_labels(record.topology, adversaries)
        coords = list(coordinates)
        shares = table[:, coords] % p
        balance = np.zeros((len(benign), len(coords)), dtype=np.int64)
        balance[benign] = record.initial_states[benign[1:]][:, coords] % p
        into = coalition[senders] & benign[receivers]
        np.subtract.at(balance, receivers[into], shares[into])
        handed = benign[senders] & coalition[receivers]
        np.add.at(balance, senders[handed], shares[handed])
        # Component C's value sits at row labels[C], its smallest id.
        values = np.zeros_like(balance)
        np.add.at(values, labels[benign], balance[benign] % p)
        values %= p
        own = record.encoded_secrets[coalition[1:]][:, coords].sum(axis=0)
        if ((values.sum(axis=0) - record.rounded[0][coords] + own) % p).any():
            raise TranscriptIncomplete(
                "observation system is inconsistent; transcript is corrupt"
            )
        self.p = p
        self.coordinates = coordinates
        members = np.flatnonzero(benign)
        self._label = dict(zip(members.tolist(), labels[members].tolist()))
        self._size = np.bincount(labels[members], minlength=len(benign)).tolist()
        self._values = values

    def infer(
        self, functional: Mapping[int, int]
    ) -> tuple[bool, dict[int, int] | None]:
        """Membership of sum_i functional[i] * secret_i, and its value at
        every audited coordinate; KeyError on a key that is not benign."""
        p = self.p
        coeff: dict[int, int] = {}  # component label -> c_C
        named: dict[int, int] = {}  # component label -> members named
        for i, c in functional.items():
            label = self._label[i]
            c %= p
            if coeff.setdefault(label, c) != c:
                return False, None
            named[label] = named.get(label, 0) + 1
        if any(c and named[label] < self._size[label] for label, c in coeff.items()):
            return False, None
        labels = list(coeff)
        c = np.array([coeff[label] for label in labels], dtype=np.int64)
        values = (c[:, None] * self._values[labels] % p).sum(axis=0) % p
        return True, dict(zip(self.coordinates, values.tolist()))


class _LinearView:
    """Reduced GF(p) system of what an observed-mode coalition saw.

    Unknown columns are the benign learners' share values: learner j's
    block holds y[j, i] = f_j(i) for each member i of its closed
    neighbourhood. One column of observed values per audited coordinate
    follows them. Only those last columns depend on the coordinate, so one
    reduction serves every coordinate. A secret is x_j = f_j(0) =
    sum_i delta_ji * y[j, i], with the interpolation weights delta of j's
    holder set; infer() maps a secret-space functional into share values
    that way, decides its membership in the row space and evaluates it at
    every coordinate when present.

    Only the pivot rows are kept, each as (nonzero columns, values): the
    dense system is dropped once reduced.
    """

    def __init__(self, p: int, blocks: dict[int, slice], delta: np.ndarray,
                 coordinates: tuple[int, ...], system: np.ndarray):
        self.p = p
        self.blocks = blocks
        self.delta = delta
        self.n_unknowns = len(delta)
        self.coordinates = coordinates
        rows, self._pivots = _rref(system, p)
        if any(c >= self.n_unknowns for c in self._pivots):
            raise TranscriptIncomplete(
                "observation system is inconsistent; transcript is corrupt"
            )
        self._rows = [
            (cols, row[cols])
            for row in rows[: len(self._pivots)]
            for cols in [np.flatnonzero(row)]
        ]

    def infer(
        self, functional: Mapping[int, int]
    ) -> tuple[bool, dict[int, int] | None]:
        """Membership of sum_i functional[i] * secret_i, and its value at
        every audited coordinate."""
        vec = np.zeros(self.n_unknowns + len(self.coordinates), dtype=np.int64)
        for i, coeff in functional.items():
            block = self.blocks[i]
            vec[block] = coeff % self.p * self.delta[block] % self.p
        residual = _reduce_vector(vec, self._rows, self._pivots, self.p)
        if residual[: self.n_unknowns].any():
            return False, None
        values = (-residual[self.n_unknowns:]) % self.p
        return True, dict(zip(self.coordinates, values.tolist()))


def _observed_restriction(
    g: RoundTopology, adversaries: AdversarySet, benign: list[int], p: int
) -> list[list[int]]:
    """Rows restricting the state-layer credit to what seats actually see.

    The coalition observes s_x(k) at its own seats and at benign neighbors
    of its seats, each a row e_x A^k of the exact rational weight matrix.
    Powers beyond N-1 add nothing (the Krylov span has stabilized), so the
    span is computed exactly with Fractions and mapped into GF(p); all
    denominators have prime factors below p, hence are invertible.
    """
    n = g.n_nodes
    if n > _OBSERVED_MODE_LIMIT:
        raise ValueError(f"observed mode limited to {_OBSERVED_MODE_LIMIT} nodes")
    a = _exact_weights(g)
    seats = set(adversaries.ids).union(*map(g.neighbors, adversaries.ids))
    rows: list[list[Fraction]] = []
    for x in sorted(seats):
        row = [Fraction(0)] * n
        row[x - 1] = Fraction(1)
        for _ in range(n):
            rows.append(row)
            row = [sum(row[i] * a[i][c] for i in range(n)) for c in range(n)]
    basis = _fraction_row_basis(rows)
    benign_idx = [i - 1 for i in benign]
    out = []
    for row in basis:
        restricted = [row[i] for i in benign_idx]
        if not any(restricted):
            continue
        lcm = math.lcm(*(f.denominator for f in restricted))
        out.append([int(f * lcm) % p for f in restricted])
    return out


def _exact_weights(g: RoundTopology) -> list[list[Fraction]]:
    """The Metropolis-Hastings weight matrix in exact rationals."""
    n = g.n_nodes
    a = [[Fraction(0)] * n for _ in range(n)]
    for i, j, d in zip(*(arr.tolist() for arr in mh_denominators(g))):
        a[i - 1][j - 1] = a[j - 1][i - 1] = Fraction(1, d)
    for i in range(n):
        a[i][i] = 1 - sum(a[i])
    return a


def _fraction_row_basis(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    basis: list[list[Fraction]] = []
    pivots: list[int] = []
    for row in rows:
        row = list(row)
        for b, c in zip(basis, pivots):
            if row[c]:
                f = row[c]
                row = [x - f * y for x, y in zip(row, b)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = row[lead]
        row = [x / inv for x in row]
        basis.append(row)
        pivots.append(lead)
    return basis


def _build_view(
    record,
    adversaries: AdversarySet,
    cfg,
    coordinates: tuple[int, ...],
) -> _LinearView:
    """The observed-mode coalition's view as one GF(p) system over share
    values.

    Each benign learner j contributes deg_j + 1 unknowns, its share values
    y[j, i] = f_j(i) at the members i of its closed neighbourhood (row j of
    topology.holder_sets), in share_pairs order. The rows are:

    - the aggregate, sum_j x_j, with x_j = sum_i delta_ji * y[j, i];
    - each weighted share a benign j handed to a coalition member a: one
      nonzero, delta_ja at y[j, a];
    - the combinations that the coalition's seats span of the benign masked
      states less the coalition's bundles into them. Benign i's such state
      has delta_ji at y[j, i] for every benign j in N[i].

    The answers are exactly those of the system over the secrets and
    polynomial coefficients. f_j has degree deg_j, and its deg_j + 1
    evaluation points are distinct ids in [1, N], all below p
    (interpolation_weights refuses any other holder set), so the map
    from (x_j, c_j1, ..., c_jdeg_j) to j's share values is an invertible
    Vandermonde matrix V_j; let V be the block diagonal of all V_j. A row b
    over share values is the row b V over coefficients, with the same
    right-hand side, and a target t is t V there. As V is invertible, t
    lies in the span of the rows b_r iff t V lies in the span of the b_r V,
    by the same combination and so with the same value, and a combination
    of rows vanishes in one basis iff it vanishes in the other, so the
    system is inconsistent in one iff in the other.
    """
    g: RoundTopology = record.topology
    p: int = cfg.prime
    coalition, senders, receivers, table = _round_shares(record, adversaries, p)
    benign = np.array(sorted(adversaries.benign), dtype=np.int64)
    coords = list(coordinates)

    # Every holder set's weights from one batched call, as the round took
    # them; flattened, they line up with share_pairs.
    holders = holder_sets(g)
    pair_delta = interpolation_weights(holders, p)[holders > 0]
    # Unknown k is the share value the k-th benign pair carries: owner[k]'s
    # polynomial evaluated at holder[k].
    benign_pairs = np.flatnonzero(~coalition[senders])
    owner, holder = senders[benign_pairs], receivers[benign_pairs]
    delta = pair_delta[benign_pairs]
    n_unknowns = len(delta)
    starts = np.searchsorted(owner, benign).tolist()
    stops = np.searchsorted(owner, benign, side="right").tolist()
    blocks = {j: slice(a, b) for j, a, b in zip(benign.tolist(), starts, stops)}

    handed = np.flatnonzero(coalition[holder])
    restriction = _observed_restriction(g, adversaries, benign.tolist(), p)
    first_s0 = 1 + len(handed)
    system = np.zeros(
        (first_s0 + len(restriction), n_unknowns + len(coords)), dtype=np.int64
    )
    rhs = system[:, n_unknowns:]

    # The aggregate output is known to every participant; the coalition
    # subtracts its own inputs.
    system[0, :n_unknowns] = delta
    own = record.encoded_secrets[coalition[1:]][:, coords].sum(axis=0)
    rhs[0] = (record.rounded[0][coords] - own) % p

    # Weighted shares handed directly to coalition members.
    system[np.arange(1, first_s0), handed] = delta[handed]
    rhs[1:first_s0] = table[np.ix_(benign_pairs[handed], coords)] % p

    # State-layer credit: each benign masked state, minus the coalition's
    # own bundles to it, is a sum of benign share evaluations; the seats
    # see the combinations the restriction lists.
    s0 = np.zeros((len(benign), system.shape[1]), dtype=np.int64)
    rank = np.zeros(g.n_nodes + 1, dtype=np.int64)  # benign i is s0 row rank[i]
    rank[benign] = np.arange(len(benign))
    kept = np.flatnonzero(~coalition[holder])
    s0[rank[holder[kept]], kept] = delta[kept]
    into = np.flatnonzero(coalition[senders] & ~coalition[receivers])
    known = np.zeros((len(benign), len(coords)), dtype=np.int64)
    np.add.at(known, rank[receivers[into]], table[np.ix_(into, coords)] % p)
    s0[:, n_unknowns:] = (record.initial_states[benign - 1][:, coords] - known) % p
    for row, comb in zip(system[first_s0:], restriction):
        for coeff, srow in zip(comb, s0):
            if coeff:
                # reduce each product before adding the next: a sum of two
                # products near 2**62 would overflow int64
                row += coeff * srow
                np.remainder(row, p, out=row)

    return _LinearView(p, blocks, delta, coordinates, system)


@dataclass
class LeakedFunctional:
    kind: str  # "component_sum" or "individual"
    members: tuple[int, ...]
    values: dict[int, int]  # coordinate -> residue
    reals: dict[int, float]  # coordinate -> signed decoded value


@dataclass
class RoundInference:
    """Per-round analysis output, plus the query surface for audits."""

    round_index: int
    secrecy_ok: bool
    surrounded_sets: tuple[frozenset[int], ...]
    component_inferable: dict[tuple[int, ...], bool]
    individual_inferable: dict[int, bool]
    leaked: list[LeakedFunctional]
    view: _ComponentView | _LinearView = field(repr=False)

    def infer_functional(
        self, functional: Mapping[int, int], coordinate: int = 0
    ) -> tuple[bool, int | None]:
        inferable, values = self.view.infer(functional)
        return inferable, values[coordinate] if inferable else None


@dataclass
class InferenceReport:
    adversaries: tuple[int, ...]
    mode: str
    rounds: list[RoundInference]

    @property
    def perfectly_secret(self) -> bool:
        return all(r.secrecy_ok for r in self.rounds)

    def to_json(self) -> list[dict]:
        out = []
        for r in self.rounds:
            out.append(
                {
                    "round": r.round_index,
                    "secrecy_verdict": r.secrecy_ok,
                    "surrounded_sets": [sorted(s) for s in r.surrounded_sets],
                    "leaked_functionals": [
                        {
                            "kind": f.kind,
                            "members": list(f.members),
                            "values_mod_p": {str(c): v for c, v in f.values.items()},
                            "values_real": {str(c): v for c, v in f.reals.items()},
                        }
                        for f in r.leaked
                    ],
                }
            )
        return out


def adversary_infer(
    transcript,
    adversaries: AdversarySet,
    cfg,
    mode: str = "worst_case",
    coordinates: Sequence[int] | None = None,
) -> InferenceReport:
    """Constructive coalition analysis over a recorded run.

    Coordinates default to (0,): share polynomials are independent across
    coordinates, so the inferable span is coordinate-invariant and one
    representative suffices; pass an explicit list for a full audit. In
    worst-case mode each round's view is a _ComponentView, read in closed
    form off the share table and the benign components in O(N * deg) time
    and memory. In observed mode each round's system is row-reduced once,
    with one right-hand side per coordinate (_build_view). Either view
    raises TranscriptIncomplete when the round's records contradict its
    aggregate output.
    """
    if mode not in ("worst_case", "observed"):
        raise ValueError(f"unknown mode {mode!r}")
    sigma = cfg.sigma if hasattr(cfg, "sigma") else int(transcript.meta["sigma"])
    scale = 10**sigma
    p = cfg.prime
    coords = tuple(coordinates) if coordinates is not None else (0,)
    rounds_out = []
    for record in transcript.rounds:
        decomp = surrounded_components(record.topology, adversaries)
        if mode == "worst_case":
            view = _ComponentView(record, adversaries, p, coords)
        else:
            view = _build_view(record, adversaries, cfg, coords)
        leaked: list[LeakedFunctional] = []

        def leaks(kind: str, members: tuple[int, ...]) -> bool:
            ok, values = view.infer({i: 1 for i in members})
            if ok:
                reals = {c: signed_residue(v, p) / scale for c, v in values.items()}
                leaked.append(LeakedFunctional(kind, members, values, reals))
            return ok

        component_inferable: dict[tuple[int, ...], bool] = {}
        for comp in decomp.components:
            members = tuple(sorted(comp))
            component_inferable[members] = leaks("component_sum", members)
        individual_inferable = {
            i: leaks("individual", (i,)) for i in sorted(adversaries.benign)
        }
        rounds_out.append(
            RoundInference(
                round_index=record.round_index,
                secrecy_ok=len(decomp.components) == 1,
                surrounded_sets=decomp.components,
                component_inferable=component_inferable,
                individual_inferable=individual_inferable,
                leaked=leaked,
                view=view,
            )
        )
    return InferenceReport(tuple(sorted(adversaries.ids)), mode, rounds_out)


def verify_inference(report: InferenceReport, transcript, cfg) -> bool:
    """Check every reconstructed value against recorded ground truth."""
    p = cfg.prime
    by_round = {rec.round_index: rec for rec in transcript.rounds}
    for r in report.rounds:
        rec = by_round[r.round_index]
        for f in r.leaked:
            for c, value in f.values.items():
                truth = sum(int(rec.encoded_secrets[i - 1][c]) for i in f.members) % p
                if value != truth:
                    return False
    return True


def report_to_json_file(report: InferenceReport, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(
            {
                "adversaries": list(report.adversaries),
                "mode": report.mode,
                "perfectly_secret": report.perfectly_secret,
                "rounds": report.to_json(),
            },
            fh,
            indent=2,
        )
