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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .field import PrimeModulus, _reduce_vector, _rref
from .fixedpoint import signed_residue
from .sharing import ShareholderSet, interpolation_weights
from .topology import RoundTopology, TopologySchedule

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
    benign polynomial coefficient; the last column carries observed
    values. infer() decides membership of a secret-space functional in
    the row space and evaluates it when present.
    """

    def __init__(self, p: int, benign: list[int], n_unknowns: int,
                 rows: list[list[int]], rhs: list[int]):
        self.p = p
        self.benign = benign
        self.secret_col = {i: idx for idx, i in enumerate(benign)}
        self.n_unknowns = n_unknowns
        augmented = [row + [b % p] for row, b in zip(rows, rhs)]
        self._rows, self._pivots = _rref(augmented, p)
        if any(c == n_unknowns for c in self._pivots):
            raise TranscriptIncomplete(
                "observation system is inconsistent; transcript is corrupt"
            )
        self._rows = self._rows[: len(self._pivots)]

    def infer(self, functional: Mapping[int, int]) -> tuple[bool, int | None]:
        """Membership and value of sum_i functional[i] * secret_i."""
        vec = [0] * (self.n_unknowns + 1)
        for i, coeff in functional.items():
            vec[self.secret_col[i]] = coeff % self.p
        residual = _reduce_vector(vec, self._rows, self._pivots, self.p)
        if any(residual[: self.n_unknowns]):
            return False, None
        return True, (-residual[self.n_unknowns]) % self.p


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
    deg = [g.degree(i) for i in range(1, n + 1)]
    a = [[Fraction(0)] * n for _ in range(n)]
    for i, j in g.edges:
        w = Fraction(1, max(deg[i - 1], deg[j - 1]) + 1)
        a[i - 1][j - 1] = w
        a[j - 1][i - 1] = w
    for i in range(n):
        a[i][i] = 1 - sum(a[i])
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
        lcm = 1
        for f in restricted:
            lcm = lcm * f.denominator // _gcd(lcm, f.denominator)
        out.append([int(f * lcm) % p for f in restricted])
    return out


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
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
    coordinate: int,
    mode: str,
) -> _LinearView:
    g: RoundTopology = record.topology
    p: int = cfg.prime
    modulus = PrimeModulus(p)
    adv = adversaries.ids
    benign = sorted(adversaries.benign)

    bundle_vals: dict[tuple[int, int], tuple[int, ...]] = {}
    for b in record.bundles:
        bundle_vals[(b.sender, b.receiver)] = b.values
    if not bundle_vals:
        raise TranscriptIncomplete("no share bundles recorded")

    col: dict[tuple, int] = {}
    for i in benign:
        col[("x", i)] = len(col)
    for i in benign:
        for m in range(1, g.degree(i) + 1):
            col[("c", i, m)] = len(col)
    n_unknowns = len(col)

    deltas: dict[int, dict[int, int]] = {}
    for i in benign:
        holders = ShareholderSet((i, *g.neighbors(i)))
        deltas[i] = dict(
            zip(holders.ids, interpolation_weights(holders, modulus).tolist())
        )

    rows: list[list[int]] = []
    rhs: list[int] = []

    # The aggregate output is known to every participant; the coalition
    # subtracts its own inputs.
    out_row = [0] * n_unknowns
    for i in benign:
        out_row[col[("x", i)]] = 1
    z = int(record.rounded[0][coordinate])
    own = sum(int(record.encoded_secrets[a - 1][coordinate]) for a in adv) % p
    rows.append(out_row)
    rhs.append((z - own) % p)

    # Weighted shares handed directly to coalition members.
    for i in benign:
        for j in g.neighbors(i):
            if j not in adv:
                continue
            d = deltas[i][j]
            row = [0] * n_unknowns
            row[col[("x", i)]] = d
            for m in range(1, g.degree(i) + 1):
                row[col[("c", i, m)]] = d * pow(j, m, p) % p
            rows.append(row)
            try:
                rhs.append(bundle_vals[(i, j)][coordinate] % p)
            except KeyError:
                raise TranscriptIncomplete(f"bundle {i}->{j} missing") from None

    # State-layer credit: each benign masked state, minus the coalition's
    # own contributions, is a sum of benign share evaluations.
    s0_rows: list[list[int]] = []
    s0_rhs: list[int] = []
    for i in benign:
        row = [0] * n_unknowns
        for j in (i, *g.neighbors(i)):
            if j not in benign:
                continue
            d = deltas[j][i]
            row[col[("x", j)]] = (row[col[("x", j)]] + d) % p
            for m in range(1, g.degree(j) + 1):
                c = col[("c", j, m)]
                row[c] = (row[c] + d * pow(i, m, p)) % p
        known = 0
        for j in g.neighbors(i):
            if j in adv:
                try:
                    known += bundle_vals[(j, i)][coordinate]
                except KeyError:
                    raise TranscriptIncomplete(f"bundle {j}->{i} missing") from None
        s0_rows.append(row)
        s0_rhs.append((int(record.initial_states[i - 1][coordinate]) - known) % p)

    if mode == "worst_case":
        rows.extend(s0_rows)
        rhs.extend(s0_rhs)
    elif mode == "observed":
        for comb in _observed_restriction(g, adversaries, benign, p):
            row = [0] * n_unknowns
            val = 0
            for coeff, srow, srhs in zip(comb, s0_rows, s0_rhs):
                if coeff == 0:
                    continue
                row = [(x + coeff * y) % p for x, y in zip(row, srow)]
                val = (val + coeff * srhs) % p
            rows.append(row)
            rhs.append(val)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    return _LinearView(p, benign, n_unknowns, rows, rhs)


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
    views: dict[int, _LinearView] = field(default_factory=dict, repr=False)

    def infer_functional(
        self, functional: Mapping[int, int], coordinate: int = 0
    ) -> tuple[bool, int | None]:
        return self.views[coordinate].infer(functional)


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
    representative suffices; pass an explicit list for a full audit.
    """
    sigma = cfg.sigma if hasattr(cfg, "sigma") else int(transcript.meta["sigma"])
    scale = 10**sigma
    rounds_out = []
    for record in transcript.rounds:
        coords = tuple(coordinates) if coordinates is not None else (0,)
        decomp = surrounded_components(record.topology, adversaries)
        views = {
            c: _build_view(record, adversaries, cfg, c, mode) for c in coords
        }
        component_inferable: dict[tuple[int, ...], bool] = {}
        individual_inferable: dict[int, bool] = {}
        leaked: list[LeakedFunctional] = []
        p = cfg.prime
        for comp in decomp.components:
            members = tuple(sorted(comp))
            functional = {i: 1 for i in members}
            ok = True
            values: dict[int, int] = {}
            for c in coords:
                inferable, value = views[c].infer(functional)
                ok = ok and inferable
                if inferable:
                    values[c] = value
            component_inferable[members] = ok
            if ok:
                reals = {c: signed_residue(v, p) / scale for c, v in values.items()}
                leaked.append(LeakedFunctional("component_sum", members, values, reals))
        for i in sorted(adversaries.benign):
            ok = True
            values = {}
            for c in coords:
                inferable, value = views[c].infer({i: 1})
                ok = ok and inferable
                if inferable:
                    values[c] = value
            individual_inferable[i] = ok
            if ok:
                reals = {c: signed_residue(v, p) / scale for c, v in values.items()}
                leaked.append(LeakedFunctional("individual", (i,), values, reals))
        rounds_out.append(
            RoundInference(
                round_index=record.round_index,
                secrecy_ok=len(decomp.components) == 1,
                surrounded_sets=decomp.components,
                component_inferable=component_inferable,
                individual_inferable=individual_inferable,
                leaked=leaked,
                views=views,
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
