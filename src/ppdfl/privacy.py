"""Exactly what a semi-honest coalition learns from a run.

The coalition pools every message its members saw. Each observation is a
GF(p)-linear equation over the benign learners' encoded secrets and their
share-polynomial coefficients, so the whole analysis reduces to exact rank
computations: assemble the observations as rows, reduce, and test which
target functionals of the secrets fall inside the row space. Both answers
are proofs -- "inferable" comes with the reconstructed value, and "not
inferable" certifies that no linear post-processing of the view reveals
the functional.

A connected group of benign learners whose every outside contact is
adversarial ("surrounded") leaks exactly its summed model: the coalition
can peel its own contributions off the group's masked states, and the
remaining shares telescope to the group sum. Groups with a benign outside
contact leak nothing, because that contact's uninspected shares blind the
modular sum. The engine reproduces both directions constructively.

By default the coalition is over-credited with every benign learner's
masked initial state: broadcast states are public linear images of the
initial ones, so this is a safe upper bound on the averaging-layer view
and keeps the analysis purely linear over GF(p). The "observed" mode
restricts the credit to the state functionals actually spanned by the
coalition's seats, computed exactly over the rationals.
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
from .sharing import ShareholderSet, interpolation_weights
from .topology import RoundTopology, TopologySchedule, mh_denominators, share_pairs

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


def surrounded_components(
    g: RoundTopology, adversaries: AdversarySet
) -> SurroundedDecomposition:
    """Connected components of the graph restricted to benign learners."""
    benign = adversaries.benign
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    for start in sorted(benign):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in g.neighbors(u):
                if v in benign and v not in comp:
                    comp.add(v)
                    frontier.append(v)
        seen |= comp
        comps.append(frozenset(comp))
    boundary = tuple(
        frozenset(
            i for i in comp if any(j in adversaries.ids for j in g.neighbors(i))
        )
        for comp in comps
    )
    return SurroundedDecomposition(tuple(comps), boundary)


def _neighbor_masks(g: RoundTopology) -> list[int]:
    masks = [0] * (g.n_nodes + 1)
    for i, j in g.edges:
        masks[i] |= 1 << (j - 1)
        masks[j] |= 1 << (i - 1)
    return masks


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


class _LinearView:
    """Reduced GF(p) system of everything the coalition observed.

    Unknown columns are the benign encoded secrets followed by every
    benign polynomial coefficient; one column of observed values per
    audited coordinate follows them. Only those last columns depend on the
    coordinate, so one reduction serves every coordinate. infer() decides
    membership of a secret-space functional in the row space and evaluates
    it at every coordinate when present.
    """

    def __init__(self, p: int, benign: list[int], n_unknowns: int,
                 coordinates: tuple[int, ...], system: np.ndarray):
        self.p = p
        self.benign = benign
        self.secret_col = {i: idx for idx, i in enumerate(benign)}
        self.n_unknowns = n_unknowns
        self.coordinates = coordinates
        rows, self._pivots = _rref(system, p)
        if any(c >= n_unknowns for c in self._pivots):
            raise TranscriptIncomplete(
                "observation system is inconsistent; transcript is corrupt"
            )
        self._rows = rows[: len(self._pivots)]

    def infer(
        self, functional: Mapping[int, int]
    ) -> tuple[bool, dict[int, int] | None]:
        """Membership of sum_i functional[i] * secret_i, and its value at
        every audited coordinate."""
        vec = np.zeros(self.n_unknowns + len(self.coordinates), dtype=np.int64)
        for i, coeff in functional.items():
            vec[self.secret_col[i]] = coeff % self.p
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
    seats = set(adversaries.ids)
    for s in adversaries.ids:
        seats.update(j for j in g.neighbors(s) if j in adversaries.benign)
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
    for i, j, d in mh_denominators(g):
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
    mode: str,
) -> _LinearView:
    g: RoundTopology = record.topology
    p: int = cfg.prime
    modulus = PrimeModulus(p)
    adv = adversaries.ids
    benign = sorted(adversaries.benign)
    coords = list(coordinates)
    if mode not in ("worst_case", "observed"):
        raise ValueError(f"unknown mode {mode!r}")

    senders, receivers = share_pairs(g)
    table = record.bundles
    if len(table) != len(senders):
        raise TranscriptIncomplete(
            f"round {record.round_index} records {len(table)} share bundles, "
            f"its graph sends {len(senders)}"
        )
    # share_pairs sorts by (sender, receiver), so these keys are sorted too.
    pair_keys = senders * (g.n_nodes + 1) + receivers

    def bundle(i: int, j: int) -> np.ndarray:
        return table[np.searchsorted(pair_keys, i * (g.n_nodes + 1) + j), coords]

    # Columns: every benign secret, then each benign learner's coefficients
    # of x^1..x^deg in one block.
    x_col = {i: k for k, i in enumerate(benign)}
    c_col: dict[int, int] = {}
    n_unknowns = len(benign)
    for i in benign:
        c_col[i] = n_unknowns
        n_unknowns += g.degree(i)

    # powers[x, m] = x^m mod p
    max_deg = max(g.degree(i) for i in benign)
    ids = np.arange(g.n_nodes + 1, dtype=np.int64) % p
    powers = np.ones((g.n_nodes + 1, max_deg + 1), dtype=np.int64)
    for m in range(1, max_deg + 1):
        powers[:, m] = powers[:, m - 1] * ids % p

    deltas: dict[int, dict[int, int]] = {}
    for i in benign:
        holders = ShareholderSet((i, *g.neighbors(i)))
        deltas[i] = dict(
            zip(holders.ids, interpolation_weights(holders, modulus).tolist())
        )

    def put_share(row: np.ndarray, sender: int, holder: int) -> None:
        """Coefficients of sender's weighted share evaluated at holder."""
        d = deltas[sender][holder]
        deg = g.degree(sender)
        row[x_col[sender]] = d
        row[c_col[sender] : c_col[sender] + deg] = d * powers[holder, 1 : deg + 1] % p

    handed = [(i, j) for i in benign for j in g.neighbors(i) if j in adv]
    if mode == "worst_case":
        n_state_rows = len(benign)
    else:
        restriction = _observed_restriction(g, adversaries, benign, p)
        n_state_rows = len(restriction)
    first_s0 = 1 + len(handed)
    system = np.zeros(
        (first_s0 + n_state_rows, n_unknowns + len(coords)), dtype=np.int64
    )
    rhs = system[:, n_unknowns:]

    # The aggregate output is known to every participant; the coalition
    # subtracts its own inputs.
    system[0, : len(benign)] = 1
    own = sum(record.encoded_secrets[a - 1][coords] for a in adv)
    rhs[0] = (record.rounded[0][coords] - own) % p

    # Weighted shares handed directly to coalition members.
    for r, (i, j) in enumerate(handed, start=1):
        put_share(system[r], i, j)
        rhs[r] = bundle(i, j) % p

    # State-layer credit: each benign masked state, minus the coalition's
    # own contributions, is a sum of benign share evaluations.
    if mode == "worst_case":
        s0 = system[first_s0:]
    else:
        s0 = np.zeros((len(benign), system.shape[1]), dtype=np.int64)
    for row, i in zip(s0, benign):
        known = np.zeros(len(coords), dtype=np.int64)
        for j in (i, *g.neighbors(i)):
            if j in adv:
                known += bundle(j, i)
            else:
                put_share(row, j, i)
        row[n_unknowns:] = (record.initial_states[i - 1][coords] - known) % p

    if mode == "observed":
        for row, comb in zip(system[first_s0:], restriction):
            for coeff, srow in zip(comb, s0):
                if coeff:
                    # reduce each product before adding the next: a sum
                    # of two products near 2**62 would overflow int64
                    row += coeff * srow
                    np.remainder(row, p, out=row)

    return _LinearView(p, benign, n_unknowns, coordinates, system)


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
    view: _LinearView = field(repr=False)

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
    representative suffices; pass an explicit list for a full audit. Each
    round is row-reduced once, with one right-hand side per coordinate.
    """
    sigma = cfg.sigma if hasattr(cfg, "sigma") else int(transcript.meta["sigma"])
    scale = 10**sigma
    p = cfg.prime
    coords = tuple(coordinates) if coordinates is not None else (0,)
    rounds_out = []
    for record in transcript.rounds:
        decomp = surrounded_components(record.topology, adversaries)
        view = _build_view(record, adversaries, cfg, coords, mode)
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
