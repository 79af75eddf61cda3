"""Exactly what a semi-honest coalition learns from a run.

The coalition pools every message its members saw. Each observation is a
GF(p)-linear equation over the benign learners' share values -- learner
j's polynomial evaluated at each member of its closed neighbourhood --
and the question is which target functionals of the secrets fall inside
the row space, and with what value. The answers are those of the system
over secrets and polynomial coefficients (see _ComponentView), provided
the N learner ids are distinct and nonzero mod p, so a modulus p <= N is
refused. Both answers are proofs -- "inferable" comes with the
reconstructed value, and "not inferable" certifies that no linear
post-processing of the view reveals the functional.

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
elimination. The "observed" mode credits only the state functionals the
coalition's seats span (_observed_restriction): a functional leaks when
it passes the closed form's test and its per-learner coefficients lie in
the GF(p) row space of those functionals and the all-ones aggregate
(_LinearView).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .field import PrimeModulus, _reduce_vector, _rref
from .fixedpoint import signed_residue
from .sharing import interpolation_weights  # noqa: F401 -- the benchmark's tracer wraps it here
from .topology import (
    RoundTopology,
    TopologySchedule,
    component_labels,
    mh_denominators,
    share_pairs,
)

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


class _ComponentView:
    """Everything a worst-case coalition learns, in closed form.

    Let w[j, i] = delta_ji * f_j(i) be the weighted share that benign j
    sends to member i of its closed neighbourhood N[j]: a bundle. The
    interpolation weight delta_ji is nonzero, as the ids are distinct and
    nonzero mod p > N, and f_j's deg_j + 1 share values are an invertible
    Vandermonde image V_j of (x_j, c_j1, ..., c_jdeg_j); let V be the block
    diagonal of the V_j. A row b over the unknowns is the row b V over
    secrets and coefficients, with the same right-hand side, and a target t
    is t V there. As V is invertible, t lies in the span of rows b_r iff
    t V lies in the span of the b_r V, by the same combination and so with
    the same value, and a combination of rows vanishes in one basis iff in
    the other: the answers, and the system's consistency, are those over
    secrets and coefficients. The worst-case view has three kinds of rows:

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
        PrimeModulus(p)  # a transcript's modulus must suit the int64 kernels
        # Row e of the share table is the bundle senders[e] sends receivers[e].
        senders, receivers = share_pairs(record.topology)
        if len(record.bundles) != len(senders):
            raise TranscriptIncomplete(
                f"round {record.round_index} records {len(record.bundles)} share "
                f"bundles, its graph sends {len(senders)}"
            )
        benign, labels = _benign_labels(record.topology, adversaries)
        coalition = ~benign  # read at learner ids 1..N only
        coords = list(coordinates)
        shares = record.bundles[:, coords] % p
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


class _LinearView(_ComponentView):
    """Everything an observed-mode coalition learns: the closed form, less
    what the seats do not see.

    The seats see the benign masked states, less the coalition's bundles,
    only through the combinations rho in the rows R of the restriction, and
    the aggregate adds rho = 1. Benign i's such state is the indicator of
    the block B_i of weighted shares w[j, i], benign j in N[i], and modulo
    the handed units the aggregate is the sum of all B_i. So a target that
    puts c_j on every w[j, i] is credited exactly when c_j = rho_i for
    every benign j in N[i] and some rho in the row space of [R; 1]: c passes
    the closed form's test, and c over the benign learners lies in that row
    space over GF(p). The rows are combinations of the worst-case rows, so
    a value is the closed form's; only [R; 1] is reduced.
    """

    def __init__(self, record, adversaries: AdversarySet, p: int,
                 coordinates: tuple[int, ...], restriction: list[list[int]]):
        super().__init__(record, adversaries, p, coordinates)
        benign = sorted(adversaries.benign)
        self._column = {i: k for k, i in enumerate(benign)}
        self.n_unknowns = len(benign)
        rows, self._pivots = _rref(np.array([*restriction, [1] * len(benign)]), p)
        self._rows = [(np.flatnonzero(row), row[row != 0]) for row in rows[: len(self._pivots)]]

    def infer(
        self, functional: Mapping[int, int]
    ) -> tuple[bool, dict[int, int] | None]:
        """Membership of sum_i functional[i] * secret_i, and its value at
        every audited coordinate; KeyError on a key that is not benign."""
        inferable, values = super().infer(functional)
        if inferable:
            vec = np.zeros(self.n_unknowns, dtype=np.int64)
            for i, c in functional.items():
                vec[self._column[i]] = c % self.p
            if _reduce_vector(vec, self._rows, self._pivots, self.p).any():
                return False, None
        return inferable, values


def _observed_restriction(
    g: RoundTopology, adversaries: AdversarySet, benign: list[int], p: int
) -> list[list[int]]:
    """Rows restricting the state-layer credit to what seats actually see.

    The coalition observes s_x(k) at its own seats and at benign neighbors
    of its seats, each a row e_x A^k of the exact rational weight matrix,
    and knows its own masked states: it learns the span V of those rows
    projected onto the benign columns, and mod p the vectors of V whose
    denominators p does not divide. Powers beyond N-1 add nothing (the
    Krylov span has stabilized), so V is computed exactly with Fractions.
    Each row is reduced against the rows kept so far; a nonzero remainder
    is scaled by a power of p until no denominator has the factor p and some
    numerator lacks it, and is kept with that entry, a unit mod p, scaled to
    1 as its pivot. The kept rows are unitriangular on their pivots, so they
    span those vectors of V, and mod p they are independent, as many as
    V's rank.
    """
    n = g.n_nodes
    if n > _OBSERVED_MODE_LIMIT:
        raise ValueError(f"observed mode limited to {_OBSERVED_MODE_LIMIT} nodes")
    a = _exact_weights(g)
    seats = set(adversaries.ids).union(*map(g.neighbors, adversaries.ids))
    benign_idx = [i - 1 for i in benign]
    kept: list[tuple[list[Fraction], int]] = []  # (row of V, pivot column)
    for x in sorted(seats):
        row = [Fraction(int(c == x - 1)) for c in range(n)]
        for _ in range(n):
            r = [row[i] for i in benign_idx]
            row = [sum(row[i] * a[i][c] for i in range(n)) for c in range(n)]
            for k, c in kept:
                if r[c]:
                    f = r[c]
                    r = [y - f * z for y, z in zip(r, k)]
            if not any(r):
                continue
            while any(y.denominator % p == 0 for y in r):
                r = [y * p for y in r]
            while all(y.numerator % p == 0 for y in r):
                r = [y / p for y in r]
            c = next(c for c, y in enumerate(r) if y.numerator % p)
            kept.append(([y / r[c] for y in r], c))
    return [[y.numerator * pow(y.denominator, -1, p) % p for y in k] for k, _ in kept]


def _exact_weights(g: RoundTopology) -> list[list[Fraction]]:
    """The Metropolis-Hastings weight matrix in exact rationals."""
    n = g.n_nodes
    a = [[Fraction(0)] * n for _ in range(n)]
    for i, j, d in zip(*(arr.tolist() for arr in mh_denominators(g))):
        a[i - 1][j - 1] = a[j - 1][i - 1] = Fraction(1, d)
    for i in range(n):
        a[i][i] = 1 - sum(a[i])
    return a


def _build_view(
    record,
    adversaries: AdversarySet,
    cfg,
    coordinates: tuple[int, ...],
) -> _LinearView:
    """The observed-mode coalition's view: the worst-case closed form and
    the seats' restriction of the state credit, as rows over the benign
    learners in id order."""
    p: int = cfg.prime
    benign = sorted(adversaries.benign)
    restriction = _observed_restriction(record.topology, adversaries, benign, p)
    return _LinearView(record, adversaries, p, coordinates, restriction)


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
    and memory. In observed mode each round's view adds one reduction of the
    seats' restriction over the benign learners (_build_view). Either view
    raises TranscriptIncomplete when the round's records contradict its
    aggregate output. A modulus p <= N is refused with ValueError: the
    answers need N distinct nonzero ids mod p.
    """
    if mode not in ("worst_case", "observed"):
        raise ValueError(f"unknown mode {mode!r}")
    sigma = cfg.sigma if hasattr(cfg, "sigma") else int(transcript.meta["sigma"])
    scale = 10**sigma
    p = cfg.prime
    if p <= adversaries.n_nodes:
        raise ValueError(f"modulus {p} does not exceed the {adversaries.n_nodes} learner ids")
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
