"""Round driver for secret-shared decentralized model averaging.

Each aggregation round runs five barrier-synchronized phases over the
current communication graph:

  weights     every learner derives the Metropolis-Hastings row for its
              neighborhood (public, degree-based).
  shares      learner i fixes w_i * theta_i into residues, splits every
              coordinate with a fresh random polynomial of degree |N_i|
              over the holder set N_i + {i}, pre-multiplies each share by
              its interpolation weight, and hands one bundle to each
              member of N_i + {i}.
  masking     each learner sums the bundles addressed to it mod p; those
              sums are the initial states of the averaging run.
  averaging   K synchronous steps s(k+1) = A s(k), states broadcast to
              neighbors after every step.
  readback    round(N * s(K)) mod p collapses to the integer sum of all
              masked states, which decodes to the weighted model average
              at sigma digits -- identical at every learner.

The round's bundles form one int64 share table of N + 2|E| rows: row e is
the bundle of the e-th (sender, receiver) pair of topology.share_pairs,
and the graph alone fixes who sends what to whom. Masking is one
reduction of that table by receiver. A transcript stores learner i's
block of the table as one shares record, and read back it must hold
exactly one bundle of n values for each of those pairs.

Delivery is in-process and lossless. All randomness is drawn from
substreams of the config seed: one numpy Generator per (round, learner)
for the models and one Philox key per round, on per-learner counters, for
the share coefficients. Results are reproducible and independent of
scheduling.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Mapping, Sequence

import numpy as np

from .consensus import (
    AveragingOperator,
    consensus_final,
    min_iterations,
    termination_inputs,
)
from .field import MAX_MODULUS_BITS, PrimeModulus
from .fixedpoint import (
    Precision,
    check_p_bound,
    decode_residues,
    scaled_trunc,
    scaled_trunc_array,
)
from .seeding import derive_rng
from .sharing import _coefficient_streams, _generate_share_values, interpolation_weights
from .topology import (
    DisconnectedGraph,
    RoundTopology,
    TopologySchedule,
    holder_sets,
    is_connected,
    mh_edge_weights,
    mh_weights,
    second_largest_eigenvalue,
    share_pairs,
)


class ConfigError(ValueError):
    """Structurally invalid configuration."""


class BoundViolation(ValueError):
    """Configuration violates the modulus or iteration-count bound."""


class RangeViolation(RuntimeError):
    """A model coordinate breached the admissible magnitude at runtime."""


class InvariantViolation(RuntimeError):
    """An internal exactness guarantee failed; indicates a bug."""


TrainerHook = Callable[[int, int, np.ndarray, np.random.Generator], np.ndarray]


@dataclass
class ProtocolConfig:
    """Static parameters of a simulation run.

    Learner ids are 1..n_learners and double as share evaluation points.
    k_policy is either "auto" (derive the iteration count per round from
    the round's weight matrix) or a fixed positive integer that is checked
    against the termination bound every round and rejected loudly when it
    falls short.
    """

    n_learners: int
    model_dim: int
    sigma: int
    prime: int
    rounds: int
    k_policy: str | int
    weights: tuple[float, ...]
    theta_max: float
    seed: int
    schedule: TopologySchedule

    def __post_init__(self):
        if self.n_learners < 2:
            raise ConfigError("need at least 2 learners")
        if self.model_dim < 1:
            raise ConfigError("model dimension must be positive")
        if self.sigma < 0:
            raise ConfigError("sigma must be non-negative")
        if self.rounds < 1:
            raise ConfigError("need at least one round")
        if isinstance(self.weights, str):
            if self.weights != "uniform":
                raise ConfigError(f"unknown weights spec {self.weights!r}")
            self.weights = tuple(1.0 / self.n_learners for _ in range(self.n_learners))
        self.weights = tuple(float(w) for w in self.weights)
        if len(self.weights) != self.n_learners:
            raise ConfigError("need one weight per learner")
        if any(w <= 0 for w in self.weights):
            raise ConfigError("weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ConfigError(f"weights sum to {sum(self.weights)}, expected 1")
        if self.k_policy != "auto":
            if not isinstance(self.k_policy, int) or self.k_policy < 1:
                raise ConfigError("k_policy must be 'auto' or a positive integer")
        if self.theta_max <= 0:
            raise ConfigError("theta_max must be positive")
        try:
            PrimeModulus(self.prime)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        ok, admissible = check_p_bound(
            self.prime, self.n_learners, Precision(self.sigma), self.theta_max
        )
        if not ok:
            raise BoundViolation(
                f"modulus {self.prime} does not cover {self.n_learners} learners "
                f"with |coordinate| <= {self.theta_max} at {self.sigma} digits "
                f"(largest admissible magnitude: {admissible})"
            )
        length = self.schedule.length
        if length is not None and length < self.rounds:
            raise ConfigError(
                f"schedule covers {length} rounds but {self.rounds} requested"
            )
        if length is not None:
            # Generated graphs are connected on n_learners nodes by
            # construction; explicit ones are checked before any round runs.
            for t in range(1, self.rounds + 1):
                g = self.schedule.round_graph(t)
                if g.n_nodes != self.n_learners:
                    raise ConfigError(
                        f"round {t} graph has {g.n_nodes} nodes, "
                        f"expected {self.n_learners} learners"
                    )
                if not is_connected(g):
                    raise ConfigError(f"round {t} graph is disconnected")

    @property
    def precision(self) -> Precision:
        return Precision(self.sigma)

    @classmethod
    def from_dict(cls, raw: Mapping, base_dir: str = ".") -> "ProtocolConfig":
        required = {
            "n_learners",
            "model_dim",
            "sigma",
            "prime",
            "rounds",
            "k_policy",
            "weights",
            "theta_max",
            "seed",
            "schedule",
        }
        missing = required - set(raw)
        if missing:
            raise ConfigError(f"missing config fields: {sorted(missing)}")
        schedule = _resolve_schedule(raw["schedule"], raw, base_dir)
        return cls(
            n_learners=int(raw["n_learners"]),
            model_dim=int(raw["model_dim"]),
            sigma=int(raw["sigma"]),
            prime=int(raw["prime"]),
            rounds=int(raw["rounds"]),
            k_policy=raw["k_policy"],
            weights=raw["weights"],
            theta_max=float(raw["theta_max"]),
            seed=int(raw["seed"]),
            schedule=schedule,
        )

    @classmethod
    def from_json_file(cls, path: str, base_dir: str | None = None) -> "ProtocolConfig":
        import os

        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, Mapping):
            raise ConfigError("config file must hold a JSON object")
        return cls.from_dict(raw, base_dir or os.path.dirname(path) or ".")

    def to_dict(self) -> dict:
        return {
            "n_learners": self.n_learners,
            "model_dim": self.model_dim,
            "sigma": self.sigma,
            "prime": self.prime,
            "rounds": self.rounds,
            "k_policy": self.k_policy,
            "weights": list(self.weights),
            "theta_max": self.theta_max,
            "seed": self.seed,
            "schedule": self.schedule.to_json(self.rounds),
        }


def _resolve_schedule(spec, raw: Mapping, base_dir: str) -> TopologySchedule:
    import os

    n = int(raw["n_learners"])
    if isinstance(spec, str):
        path = spec if os.path.isabs(spec) else os.path.join(base_dir, spec)
        return TopologySchedule.from_file(path, n_nodes=n)
    if isinstance(spec, Mapping):
        kind = spec.get("kind")
        if kind is None:
            raise ConfigError("schedule generator spec needs a 'kind'")
        return TopologySchedule.generated(
            kind,
            n,
            seed=int(spec.get("seed", raw["seed"])),
            avg_degree=spec.get("avg_degree"),
        )
    if isinstance(spec, list):
        graphs = [RoundTopology(n, edges) for edges in spec]
        return TopologySchedule.from_graphs(graphs)
    raise ConfigError("schedule must be a file path, generator spec, or edge lists")


@dataclass
class RoundRecord:
    """Everything one aggregation round produced, messages included."""

    round_index: int
    topology: RoundTopology
    k_used: int
    lambda2: float
    bundles: np.ndarray  # (N + 2|E|, n) int64 share table, share_pairs order
    initial_states: np.ndarray  # (N, n) int64 masked states
    encoded_secrets: np.ndarray  # (N, n) int64, for auditing only
    local_models: np.ndarray  # (N, n) float
    rounded: np.ndarray  # (N, n) int64 residues after readback
    decoded: np.ndarray  # (N, n) float, identical rows
    rounding_margin: float
    state_trajectory: np.ndarray | None = None
    timings: dict[str, float] = field(default_factory=dict)


# A round's records hold their payloads as JSON text, parsed in bulk once
# the round is complete. One regex reads a line in the writer's layout up
# to its phase, and the phase's own regex captures the payload texts from
# the rest; a line in any other layout goes through json.loads, and its
# payloads are dumped back to text. A consensus record is never parsed: its
# regex and the strict id-list check admit only valid JSON, so a line they
# admit is skipped.
_ID = r"(0|[1-9][0-9]*)"
# An id is digits not led by a zero unless it is 0: a lookahead per id,
# which the regex engine runs faster than an alternation.
_ID_LIST = r"\[(?:(?!0[0-9])[0-9]+(?:, (?!0[0-9])[0-9]+)*)?\]"
_INTS = r"(\[[0-9, ]*\])"
_NESTED = r"(\[[0-9, \[\]]*\])"
_FLOATS = r"(\[[-+.0-9eE, NaInfity]*\])"
_NUMBER = r"(?:-?(?:[1-9][0-9]*|0)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|NaN|-?Infinity)"
_NUMBER_LIST = r"\[(?:" + _NUMBER + r"(?:, " + _NUMBER + r")*)?\]"
_HEAD = re.compile(r'\{"round": ' + _ID + r', "phase": "([a-z0-9]+)", ')
_TAILS = {
    "topology": re.compile(r'"payload": \{"n_nodes": ' + _ID + r', "edges": '
                           + _NESTED + r', (".*)\}\}'),
    "shares": re.compile(r'"from": ' + _ID + r', "to": ' + _INTS + r', "payload": '
                         + _NESTED + r"\}"),
    "state0": re.compile(r'"from": ' + _ID + r', "to": (' + _ID_LIST + r'), "payload": '
                         + _INTS + r"\}"),
    "result": re.compile(r'"from": ' + _ID + r', "payload": ' + _FLOATS + r"\}"),
    "audit": re.compile(r'"from": ' + _ID + r', "payload": \{"secret": ' + _INTS
                        + r', "model": ' + _FLOATS + r"\}\}"),
    # The to list is taken up to the next quote; _admit_id_list then holds
    # it to _ID_LIST.
    "consensus": re.compile(r'"k": ' + _ID + r', "from": ' + _ID + r', "to": (\[[^"]*\]), '
                            r'"payload": ' + _NUMBER_LIST + r"\}"),
}
_STRICT_ID_LIST = re.compile(_ID_LIST)


def _admit_id_list(text: str, admitted: set[str]) -> bool:
    """Whether text is an id list as _ID_LIST reads it; admitted keeps the
    texts that are."""
    if _STRICT_ID_LIST.fullmatch(text):
        admitted.add(text)
        return True
    return False


_DIGITS = b"0123456789"
_TO_SPACES = bytes.maketrans(b"[],", b"   ")


def _list_layout(count: int, item: str) -> str:
    """A list of count items, each reading item, as json.dumps lays it out."""
    return "[" + ", ".join([item] * count) + "]"


class _ListLayouts(dict):
    """_list_layout(count, item) by (count, item), each built once."""

    def __missing__(self, key):
        layout = self[key] = _list_layout(*key)
        return layout


def _json_rows(block: np.ndarray) -> list[str]:
    """The rows of an (N, n) float block as json.dumps writes each row as a
    list, less its brackets: one json.dumps for the whole block."""
    return json.dumps(np.asarray(block, dtype=float).tolist())[2:-2].split("], [")


def _skeletons(counts: list[int], item: str = "") -> str:
    """Lists of counts[0], counts[1], ... items as json.dumps lays them out,
    back to back and less their digits, each item reading `item` less its
    digits."""
    lists = {k: _list_layout(k, item) for k in set(counts)}
    return "".join(map(lists.__getitem__, counts))


def _int_text(texts: list[str], skeleton: str, count: int) -> np.ndarray | None:
    """The integers of texts, JSON lists as json.dumps lays them out, as one
    int64 array in text order; None unless the texts less their digits read
    exactly skeleton and each of its count slots holds one integer of at
    most 18 digits without leading zeros.

    The skeleton fixes the brackets, separators and so the width of every
    list; a bounded number of array passes over the joined bytes checks the
    digits and converts them, with no work per text.
    """
    raw = "".join(texts).encode()
    if raw.translate(None, _DIGITS) != skeleton.encode():
        return None
    chars = np.frombuffer(raw, dtype=np.uint8)
    digit = (chars - 48) < 10  # uint8 wraps below "0"
    # A run of digits starts after "[" or " " and ends before "," or "]";
    # with the skeleton's separators in place, only a slot is such a gap.
    stray = digit[1:] & ((chars[:-1] == 93) | (chars[:-1] == 44))
    stray |= digit[:-1] & ((chars[1:] == 91) | (chars[1:] == 32))
    if stray.any():
        return None
    # The runs fill every slot when there are as many as slots.
    if np.count_nonzero(digit[1:] & ~digit[:-1]) != count:
        return None
    if not count:
        return np.empty(0, dtype=np.int64)
    leading_zero = (chars[1:-1] == 48) & ~digit[:-2] & digit[2:]
    if leading_zero.any():
        return None
    values = np.fromstring(raw.translate(_TO_SPACES), dtype=np.int64, sep=" ")
    # A run of more than 18 digits reads as at least 10**18, as fromstring
    # saturates beyond int64.
    if len(values) != count or values.max() >= 10**18:
        return None
    return values


def _json_int_lists(items: list, depth: int):
    """(values, sizes) of the JSON lists items, nested depth deep: values
    holds every integer as int64 in order, and sizes[l] the item counts of
    the lists at nesting level l+1, sizes[0] one per item. Where a list
    belongs but something else stands, it reads as a list of one value; a
    value that is not a JSON integer in [0, 2**63) reads as -1."""
    sizes = []
    for _ in range(depth):
        items = [x if type(x) is list else [None] for x in items]
        sizes.append(np.fromiter(map(len, items), dtype=np.int64, count=len(items)))
        items = list(chain.from_iterable(items))
    values = np.fromiter(
        (v if type(v) is int and 0 <= v < 2**63 else -1 for v in items),
        dtype=np.int64, count=len(items),
    )
    return values, sizes


def _float_rows(texts: list[str]) -> np.ndarray:
    """The result or audit model lists of learners 1..N as one float array.
    Each text is one JSON list or no JSON at all, so one json.loads reads
    them all or fails as it would on the text alone."""
    return np.array(json.loads("[" + ", ".join(texts) + "]"), dtype=float)


def _check_residues(t: int, phase: str, owners, counts: np.ndarray,
                    values: np.ndarray, p: int) -> None:
    """ValueError naming the learner whose record holds a value outside
    [0, p); record k is owners[k]'s and holds the next counts[k] values."""
    bad = (values < 0) | (values >= p)
    if bad.any():
        k = int(np.searchsorted(np.cumsum(counts), np.argmax(bad), side="right"))
        raise ValueError(
            f"transcript round {t} {phase} record of learner {owners[k]} holds a "
            f"value that is not an integer in [0, {p})"
        )


def _residue_rows(t: int, phase: str, texts: list[str], p: int) -> np.ndarray:
    """The state0 or audit secret lists of learners 1..N as one (N, n)
    int64 block; ValueError on a value outside [0, p) or unequal lists.
    Lists in the writer's layout are parsed in one _int_text call."""
    sizes = [text.count(",") + 1 for text in texts]
    values = _int_text(texts, _skeletons(sizes), sum(sizes))
    if values is None:
        values, (sizes,) = _json_int_lists(list(map(json.loads, texts)), 1)
    sizes = np.asarray(sizes)
    _check_residues(t, phase, range(1, len(texts) + 1), sizes, values, p)
    if (sizes != sizes[0]).any():
        raise ValueError(f"transcript round {t} has records of unequal length")
    return values.reshape(len(texts), sizes[0])


def _slot(per_round: dict, t) -> dict:
    """The records collected so far of round t."""
    slot = per_round.get(t)
    if slot is None:
        slot = per_round[t] = {
            "shares": [], "state0": {}, "result": {}, "audit": {}, "models": {},
            "topology": None, "k_used": 0, "lambda2": 0.0,
            "rounding_margin": float("nan"),
        }
    return slot


def _edge_pairs(text: str):
    """The edges of a topology record as an (E, 2) int64 array; edges in
    another layout, or not all pairs, as their JSON value."""
    pairs = text.count("[") - 1
    ids = _int_text([text], _skeletons([pairs], "[, ]"), 2 * pairs)
    return json.loads(text) if ids is None else ids.reshape(pairs, 2)


def _file_topology(slot: dict, t, payload: dict) -> None:
    """File a topology record; ValueError if it repeats the round's or
    holds no valid graph."""
    if slot["topology"] is not None:
        raise ValueError(f"transcript round {t} repeats its topology record")
    try:
        slot["topology"] = RoundTopology(payload["n_nodes"], payload["edges"])
    except ValueError as exc:
        raise ValueError(f"transcript round {t} topology record: {exc}") from None
    slot["k_used"] = payload["k_used"]
    slot["lambda2"] = payload.get("lambda2", 0.0)
    slot["rounding_margin"] = payload.get("rounding_margin", float("nan"))


def _file_record(slot: dict, t, phase: str, sender, payload, legacy: bool = False) -> None:
    """File a state0, result or audit record; ValueError if it repeats
    another of its learner's."""
    records = slot[phase]
    if sender in records:
        # Older transcripts repeat a learner's state0 broadcast once per
        # edge, each record naming one receiver.
        if legacy and json.loads(records[sender]) == json.loads(payload):
            return
        raise ValueError(f"transcript round {t} repeats the {phase} record of learner {sender}")
    if phase == "audit":
        slot["models"][sender] = payload["model"]
        payload = payload["secret"]
    records[sender] = payload


def _collect_fields(per_round: dict, t: int, phase: str, fields: tuple) -> None:
    """File a line in the writer's layout from its captured fields."""
    slot = _slot(per_round, t)
    if phase == "topology":
        n_nodes, edges, rest = fields
        # Keys repeated in the rest of the payload win, as in json.loads.
        payload = {"n_nodes": int(n_nodes), **json.loads("{" + rest + "}")}
        payload.setdefault("edges", _edge_pairs(edges))
        _file_topology(slot, t, payload)
    elif phase == "shares":
        slot["shares"].append((int(fields[0]), fields[1], fields[2]))
    elif phase == "state0":
        _file_record(slot, t, phase, int(fields[0]), fields[2])
    elif phase == "audit":
        _file_record(slot, t, phase, int(fields[0]), {"secret": fields[1], "model": fields[2]})
    else:
        _file_record(slot, t, phase, int(fields[0]), fields[1])


def _collect_message(per_round: dict, msg: dict) -> None:
    """File a transcript message json.loads read; KeyError on a missing
    field, ValueError on a record that repeats another."""
    t = msg["round"]
    slot = _slot(per_round, t)
    phase = msg["phase"]
    if phase == "topology":
        _file_topology(slot, t, msg["payload"])
    elif phase == "shares":
        to, rows = msg["to"], msg["payload"]
        # A per-pair record of an older transcript, whose "to" is one id, is
        # a one-row block.
        if isinstance(to, int):
            to, rows = [to], [rows]
        slot["shares"].append((msg["from"], json.dumps(to), json.dumps(rows)))
    elif phase in ("state0", "result", "audit"):
        payload = msg["payload"]
        if phase == "audit":
            payload = {"secret": json.dumps(payload["secret"]),
                       "model": json.dumps(payload["model"])}
        else:
            payload = json.dumps(payload)
        legacy = phase == "state0" and isinstance(msg.get("to"), int)
        _file_record(slot, t, phase, msg["from"], payload, legacy)


def _learner_ids(t: int, values: list) -> np.ndarray:
    """Senders or receivers of round t's bundles as int64; ValueError unless
    every one is an integer."""
    try:
        ids = np.array(values, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        ids = None
    if ids is None or ids.ndim != 1 or ids.tolist() != values:
        raise _id_error(t)
    return ids


def _id_error(t: int) -> ValueError:
    return ValueError(
        f"transcript round {t} has a share bundle whose sender or receiver "
        "is not an integer"
    )


def _share_records(t: int, records: list, width: int, p: int):
    """(senders, receivers, lengths, values) of round t's share bundles from
    its shares records: bundle e goes from senders[e] to receivers[e] and
    holds the next lengths[e] of values. ValueError on a record whose lists
    differ in length, an id that is not an integer, or a value outside
    [0, p).

    When every record is in the writer's layout with bundles of the given
    width, two _int_text calls read them all.
    """
    senders = [sender for sender, _, _ in records]
    tos = [to for _, to, _ in records]
    payloads = [rows for _, _, rows in records]
    counts = [to.count(",") + 1 for to in tos]
    receivers = _int_text(tos, _skeletons(counts), sum(counts))
    values = None if receivers is None else _int_text(
        payloads, _skeletons(counts, _skeletons([width])), sum(counts) * width
    )
    if values is not None:
        counts = np.array(counts, dtype=np.int64)
        lengths = np.full(len(receivers), width)
    else:
        tos = list(map(json.loads, tos))
        if any(type(to) is not list for to in tos):
            raise _id_error(t)
        values, (counts, lengths) = _json_int_lists(list(map(json.loads, payloads)), 2)
        for k, to in enumerate(tos):
            if len(to) != counts[k]:
                raise ValueError(
                    f"transcript round {t} shares record of learner {senders[k]} lists "
                    f"{len(to)} receivers but carries {counts[k]} bundles"
                )
        receivers = _learner_ids(t, list(chain.from_iterable(tos)))
    # Only records with bundles name a sender of one.
    sending = counts > 0
    ids = _learner_ids(t, [s for s, k in zip(senders, sending.tolist()) if k])
    value_ends = np.concatenate([[0], np.cumsum(lengths)])
    row_ends = np.concatenate([[0], np.cumsum(counts)])
    _check_residues(t, "shares", senders, np.diff(value_ends[row_ends]), values, p)
    return np.repeat(ids, counts[sending]), receivers, lengths, values


def _share_table(t: int, g: RoundTopology, senders: np.ndarray, receivers: np.ndarray,
                 lengths: np.ndarray, values: np.ndarray, width: int) -> np.ndarray:
    """The share table of round t from _share_records' bundles; ValueError
    names the first bundle that is repeated, missing, of the wrong length,
    or between learners that are not neighbours.

    Each bundle is keyed sender*(N+1) + receiver, which is unique for ids in
    1..N and increasing in share_pairs order.
    """
    n = g.n_nodes
    inside = (senders >= 1) & (senders <= n) & (receivers >= 1) & (receivers <= n)
    # An id outside 1..N gets a key of its own, so it can only be a stray.
    key = np.where(inside, senders * (n + 1) + receivers, -1 - np.arange(len(lengths)))
    order = np.argsort(key, kind="stable")
    repeats = order[1:][key[order[1:]] == key[order[:-1]]]
    if repeats.size:
        e = repeats.min()  # the first record to repeat an earlier one
        raise ValueError(
            f"transcript round {t} repeats share bundle {senders[e]}->{receivers[e]}"
        )
    want_s, want_r = share_pairs(g)
    wanted = want_s * (n + 1) + want_r
    slot_of = np.minimum(np.searchsorted(wanted, key), len(wanted) - 1)
    found = wanted[slot_of] == key
    source = np.full(len(wanted), -1)  # row of each wanted bundle, -1 if absent
    source[slot_of[found]] = np.flatnonzero(found)
    present = source >= 0
    bad = ~present
    bad[present] = lengths[source[present]] != width
    if bad.any():
        e = int(np.argmax(bad))
        i, j = want_s[e], want_r[e]
        if not present[e]:
            raise ValueError(f"transcript round {t} lacks share bundle {i}->{j}")
        raise ValueError(
            f"transcript round {t} share bundle {i}->{j} carries "
            f"{lengths[source[e]]} values, expected {width}"
        )
    if not found.all():
        stray = np.flatnonzero(~found)
        e = stray[np.lexsort((receivers[stray], senders[stray]))[0]]
        raise ValueError(
            f"transcript round {t} has share bundle {senders[e]}->{receivers[e]} "
            "between learners that are not neighbours"
        )
    # Every bundle is now a wanted one of the given width.
    return values.reshape(len(lengths), width)[source]


@dataclass
class Transcript:
    """All messages of a run, one record per (round, phase, sender); the "to"
    of a record sent to other learners lists them."""

    meta: dict
    rounds: list[RoundRecord] = field(default_factory=list)

    def _lines(self, include_consensus: bool):
        """The transcript's lines: the meta record, then per round its
        topology, shares, state0, (consensus,) result and audit records,
        each line byte for byte json.dumps of its message.

        Integer lists fill %-templates of their shapes, built once per
        length; float lists come from one json.dumps per (N, n) block,
        split into rows, so NaN, Infinity and float repr read as json.dumps
        writes them. Each round's neighbour lists are rendered once, and
        each record converts only its own rows.
        """
        yield json.dumps({"meta": self.meta}) + "\n"
        lists = _ListLayouts()
        for rec in self.rounds:
            t, g = rec.round_index, rec.topology
            edges = np.stack([g.src, g.dst], axis=1).ravel().tolist()
            yield (
                '{"round": %d, "phase": "topology", "payload": {"n_nodes": %d, "edges": %s, '
                '"k_used": %s, "lambda2": %s, "rounding_margin": %s}}\n'
            ) % (t, g.n_nodes, lists[len(edges) // 2, "[%d, %d]"] % tuple(edges),
                 json.dumps(rec.k_used), json.dumps(rec.lambda2),
                 json.dumps(rec.rounding_margin))
            # Learner i's block of the share table is one record: its closed
            # neighbourhood and one bundle per member.
            senders, receivers = share_pairs(g)
            bounds = [0, *(np.flatnonzero(np.diff(senders)) + 1).tolist(), len(senders)]
            row = lists[rec.bundles.shape[1], "%d"]
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]), start=1):
                yield (
                    '{"round": %d, "phase": "shares", "from": %d, "to": ' + lists[hi - lo, "%d"]
                    + ', "payload": ' + lists[hi - lo, row] + "}\n"
                ) % (t, i, *receivers[lo:hi].tolist(), *rec.bundles[lo:hi].ravel().tolist())
            # A learner broadcasts each state to all its neighbours: one
            # record lists them.
            ptr = g.indptr.tolist()
            nbrs = [lists[hi - lo, "%d"] % tuple(g.arc_head[lo:hi].tolist())
                    for lo, hi in zip(ptr, ptr[1:])]
            state0 = ('{"round": %d, "phase": "state0", "from": %d, "to": %s, "payload": '
                      + lists[rec.initial_states.shape[1], "%d"] + "}\n")
            for i, (to, states) in enumerate(zip(nbrs, rec.initial_states), start=1):
                yield state0 % (t, i, to, *states.tolist())
            if include_consensus and rec.state_trajectory is not None:
                for k in range(1, rec.state_trajectory.shape[0]):
                    rows = _json_rows(rec.state_trajectory[k])
                    for i, (to, states) in enumerate(zip(nbrs, rows), start=1):
                        yield ('{"round": %d, "phase": "consensus", "k": %d, "from": %d, '
                               '"to": %s, "payload": [%s]}\n') % (t, k, i, to, states)
            for i, model in enumerate(_json_rows(rec.decoded), start=1):
                yield '{"round": %d, "phase": "result", "from": %d, "payload": [%s]}\n' % (
                    t, i, model)
            # Audit records carry ground truth for verification tooling;
            # they are not part of any adversary's view.
            audit = ('{"round": %d, "phase": "audit", "from": %d, "payload": {"secret": '
                     + lists[rec.encoded_secrets.shape[1], "%d"] + ', "model": [%s]}}\n')
            models = _json_rows(rec.local_models)
            for i, (secret, model) in enumerate(zip(rec.encoded_secrets, models), start=1):
                yield audit % (t, i, *secret.tolist(), model)

    def to_jsonl(self, path: str, include_consensus: bool = True) -> None:
        """Write the transcript as JSON lines, one record at a time;
        consensus records only with include_consensus and a recorded
        trajectory."""
        with open(path, "w") as fh:
            fh.writelines(self._lines(include_consensus))

    @classmethod
    def from_jsonl(cls, path: str) -> "Transcript":
        """Read a transcript back; raises ValueError naming any record the
        rounds cannot be rebuilt without, and any share, state0 or audit
        secret value that is not an integer in [0, p).

        A line in the writer's layout is split by regex, and each round's
        integer payloads are parsed in bulk by _int_text; a consensus record
        in that layout is skipped unparsed. Any other line, and any payload
        the bulk parse refuses, goes through json.loads; both routes meet
        the same checks.
        """
        meta: dict | None = None
        per_round: dict[int, dict] = {}
        id_lists: set[str] = set()  # to lists _ID_LIST admits
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                head = _HEAD.match(line)
                tail = head and _TAILS.get(head[2])
                fields = tail and tail.fullmatch(line, head.end())
                if fields and head[2] == "consensus":
                    # A learner's to list repeats at every step, so each
                    # distinct text meets the strict pattern once. The
                    # record only opens its round.
                    if fields[3] in id_lists or _admit_id_list(fields[3], id_lists):
                        _slot(per_round, int(head[1]))
                        continue
                    fields = None
                try:
                    if fields:
                        if head[2] == "state0":
                            id_lists.add(fields[2])  # consensus records repeat it
                        _collect_fields(per_round, int(head[1]), head[2], fields.groups())
                        continue
                    msg = json.loads(line)
                    if not isinstance(msg, dict):
                        raise ValueError(f"transcript line {lineno} is not a JSON object")
                    if "meta" in msg and "round" not in msg:
                        meta = msg["meta"]
                        continue
                    _collect_message(per_round, msg)
                except KeyError as exc:
                    raise ValueError(f"transcript line {lineno} lacks field {exc}") from None
        p, scale = _checked_meta(meta)
        rounds = []
        for t in sorted(per_round):
            slot = per_round[t]
            g = slot["topology"]
            if g is None:
                raise ValueError(f"transcript round {t} lacks a topology record")
            n = g.n_nodes
            if n != meta["n_learners"]:
                raise ValueError(
                    f"transcript round {t} topology has {n} nodes but the meta "
                    f"record has n_learners={meta['n_learners']!r}"
                )
            for phase in ("state0", "result", "audit"):
                missing = sorted(set(range(1, n + 1)) - slot[phase].keys())
                if missing:
                    raise ValueError(
                        f"transcript round {t} lacks {phase} records of "
                        f"learners {', '.join(map(str, missing))}"
                    )
            learners = range(1, n + 1)
            s0 = _residue_rows(t, "state0", [slot["state0"][i] for i in learners], p)
            secrets = _residue_rows(t, "audit", [slot["audit"][i] for i in learners], p)
            models = _float_rows([slot["models"][i] for i in learners])
            decoded = _float_rows([slot["result"][i] for i in learners])
            if len({arr.shape for arr in (s0, secrets, models, decoded)}) > 1:
                raise ValueError(f"transcript round {t} has records of unequal length")
            width = s0.shape[1]
            bundles = _share_table(t, g, *_share_records(t, slot["shares"], width, p), width)
            rounded = np.round(decoded * scale).astype(np.int64) % p
            rounds.append(
                RoundRecord(
                    round_index=t,
                    topology=g,
                    k_used=slot["k_used"],
                    lambda2=slot["lambda2"],
                    bundles=bundles,
                    initial_states=s0,
                    encoded_secrets=secrets,
                    local_models=models,
                    rounded=rounded,
                    decoded=decoded,
                    rounding_margin=slot["rounding_margin"],
                )
            )
        return cls(meta=meta, rounds=rounds)


def _checked_meta(meta) -> tuple[int, int]:
    """(p, 10**sigma) of a transcript's meta record; ValueError unless it
    holds n_learners, prime and sigma as JSON integers, with p in the range
    a modulus may take and sigma not negative."""
    if meta is None:
        raise ValueError("transcript lacks its meta record")
    if not isinstance(meta, dict):
        raise ValueError("transcript meta record is not a JSON object")
    missing = [key for key in ("n_learners", "prime", "sigma") if key not in meta]
    if missing:
        raise ValueError(f"transcript meta record lacks {missing}")
    for key in ("n_learners", "prime", "sigma"):
        if type(meta[key]) is not int:
            raise ValueError(f"transcript meta record has {key}={meta[key]!r}, not an integer")
    p, sigma = meta["prime"], meta["sigma"]
    if not 2 <= p < 2**MAX_MODULUS_BITS:
        raise ValueError(f"transcript meta record has prime={p}, outside [2, 2**{MAX_MODULUS_BITS})")
    if sigma < 0:
        raise ValueError(f"transcript meta record has sigma={sigma}, below 0")
    return p, 10**sigma


def quantized_aggregate(
    models: np.ndarray, weights: Sequence[float], prec: Precision
) -> tuple[np.ndarray, list[int]]:
    """Direct weighted aggregate with the protocol's exact quantization.

    Returns (decoded reals, scaled integer sums). This is the oracle the
    protocol output must match bit for bit: each w_i * theta_il is
    truncated to sigma digits exactly as the share phase does, then summed
    as plain integers.
    """
    arr = np.asarray(models, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    sums = []
    for l in range(arr.shape[1]):
        total = 0
        for i in range(arr.shape[0]):
            total += scaled_trunc(weights[i] * arr[i, l], prec)
        sums.append(total)
    decoded = np.array(sums, dtype=np.int64) / prec.scale
    return decoded, sums


def build_initial_state(
    bundles: np.ndarray, receivers: np.ndarray, p: int
) -> np.ndarray:
    """Masked initial states: per receiver, the sum mod p of its bundles.

    bundles is a share table and receivers[e] the 1-based receiver of row
    e. Returns one row per receiver in increasing id order, so row i-1 is
    learner i's state when every learner receives a bundle (its own).
    """
    order = np.argsort(receivers, kind="stable")
    ordered = receivers[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    # Residues are below p < 2**31, so int64 holds the sum of fewer than 2**32 rows.
    return np.add.reduceat(bundles[order], starts, axis=0) % p


def _resolve_iterations(cfg: ProtocolConfig, a: np.ndarray, lambda2: float) -> int:
    k_min = min_iterations(a, cfg.prime, lambda2=lambda2)
    if cfg.k_policy == "auto":
        return k_min
    k = int(cfg.k_policy)
    # N lam_hat^k falls with k, so k meets the bound exactly when k >= k_min.
    if k < k_min:
        raise BoundViolation(
            f"fixed iteration count K={k} does not meet the termination bound "
            f"for this round's topology; rounding could miss the exact sum"
        )
    return k


def execute_round(
    models: np.ndarray,
    g: RoundTopology,
    cfg: ProtocolConfig,
    round_index: int = 1,
    record_trajectory: bool = False,
) -> RoundRecord:
    """Run one full aggregation round over graph g.

    models is (N, n): row i-1 holds learner i's local model. The returned
    record's decoded rows are identical across learners and equal the
    sigma-digit quantized weighted aggregate exactly. With
    record_trajectory, the record also holds every averaging step's states,
    a (K+1, N, n) float array.
    """
    p = cfg.prime
    prec = cfg.precision
    n_learners = cfg.n_learners
    arr = np.asarray(models, dtype=float)
    if arr.shape != (n_learners, cfg.model_dim):
        raise ValueError(
            f"models shape {arr.shape} != ({n_learners}, {cfg.model_dim})"
        )
    if g.n_nodes != n_learners:
        raise ValueError("graph size does not match learner count")
    if not is_connected(g):
        raise DisconnectedGraph(f"round {round_index} graph is disconnected")
    over = ~(np.abs(arr) <= cfg.theta_max)  # NaN is over too
    if np.any(over):
        i, l = np.argwhere(over)[0]
        raise RangeViolation(
            f"learner {i + 1} coordinate {l} magnitude {abs(arr[i, l])} exceeds "
            f"theta_max={cfg.theta_max}; aborting round {round_index}"
        )

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    edge_weights = mh_edge_weights(g)
    a = mh_weights(g, edge_weights)
    lam2 = second_largest_eigenvalue(a)  # the round's one eigensolve
    k_used = _resolve_iterations(cfg, a, lam2)
    del a  # only the eigensolve needs the dense matrix
    op = AveragingOperator(*edge_weights)
    timings["weights"] = time.perf_counter() - t0

    # Share phase, for the whole round at once: per coordinate, a fresh
    # polynomial of degree |N_i| over the closed neighborhood, weighted so
    # the holder-set sum equals the encoded secret. One round substream
    # gives a Philox key, and learner i's coefficients come from that key
    # on counters of its own, so they depend on (seed, round, i, n, |N_i|)
    # alone.
    t0 = time.perf_counter()
    holders = holder_sets(g)
    present = holders > 0
    receivers = holders[present]
    scaled = scaled_trunc_array(np.array(cfg.weights)[:, None] * arr, prec)
    outside = np.abs(scaled) > (p - 1) // 2
    if np.any(outside):
        i, l = np.argwhere(outside)[0]
        raise RangeViolation(
            f"encoded coordinate {l} of learner {i + 1} leaves the signed "
            f"range of modulus {p}"
        )
    encoded = scaled % p
    deltas = interpolation_weights(holders, p)
    degrees = present.sum(axis=1) - 1
    key = derive_rng(cfg.seed, "shares", round_index).bit_generator.random_raw(2)
    coeffs = _coefficient_streams(key, degrees, cfg.model_dim, p)
    bundles = _generate_share_values(encoded, coeffs, degrees, holders, p)
    bundles *= deltas[present][:, None]
    bundles %= p
    del holders, present, deltas, coeffs  # not held through averaging
    timings["shares"] = time.perf_counter() - t0

    # Masking phase.
    t0 = time.perf_counter()
    s0 = build_initial_state(bundles, receivers, p)
    timings["masking"] = time.perf_counter() - t0

    # Averaging phase.
    t0 = time.perf_counter()
    trajectory = None
    if record_trajectory:
        trajectory = np.empty((k_used + 1, *s0.shape))
    final = consensus_final(s0, op, k_used, trajectory)
    timings["averaging"] = time.perf_counter() - t0

    # Readback phase.
    t0 = time.perf_counter()
    column_sums = s0.sum(axis=0)  # exact integer sums of the masked states
    margin = float(np.max(np.abs(n_learners * final - column_sums)))
    rounded, decoded = read_back(final, cfg)
    timings["readback"] = time.perf_counter() - t0

    if margin >= 0.5:
        raise InvariantViolation(
            f"rounding margin {margin} >= 0.5 in round {round_index}; the "
            "iteration count failed to localize the integer sum"
        )
    if not (rounded == rounded[0]).all():
        raise InvariantViolation(f"learners disagree after round {round_index}")

    return RoundRecord(
        round_index=round_index,
        topology=g,
        k_used=k_used,
        lambda2=lam2,
        bundles=bundles,
        initial_states=s0,
        encoded_secrets=encoded,
        local_models=arr.copy(),
        rounded=rounded,
        decoded=decoded,
        rounding_margin=margin,
        state_trajectory=trajectory,
        timings=timings,
    )


def read_back(final: np.ndarray, cfg: ProtocolConfig) -> tuple[np.ndarray, np.ndarray]:
    """(rounded, decoded): floor(N s(K) + 0.5) mod p per learner, and its model."""
    rounded = np.floor(cfg.n_learners * final + 0.5).astype(np.int64) % cfg.prime
    return rounded, decode_residues(rounded, cfg.precision, cfg.prime)


def replay_round(record: RoundRecord, cfg: ProtocolConfig) -> np.ndarray:
    """Re-derive the decoded output from a recorded round; determinism audit."""
    op = AveragingOperator.from_graph(record.topology)
    final = consensus_final(record.initial_states, op, record.k_used)
    return read_back(final, cfg)[1]


def synthetic_trainer(theta_max: float, step: float = 0.25) -> TrainerHook:
    """Seeded bounded perturbation of the incoming model; no data needed."""

    def train(
        learner_id: int, round_index: int, model: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        noise = rng.uniform(-step, step, size=model.shape)
        return np.clip(model + noise, -theta_max, theta_max)

    return train


def constant_trainer() -> TrainerHook:
    """Returns the incoming model unchanged."""

    def train(learner_id, round_index, model, rng):
        return model.copy()

    return train


@dataclass
class TrainingResult:
    """Outcome of a multi-round run."""

    decoded_per_round: np.ndarray  # (T, n), the agreed model after each round
    transcript: Transcript
    summary: dict


def run_training(
    cfg: ProtocolConfig,
    trainer: TrainerHook | None = None,
    initial_models: np.ndarray | None = None,
    record_trajectory: bool = False,
) -> TrainingResult:
    """Run T rounds; each round's output seeds the next round's training.

    The summary reports, per round, the iteration count, the contraction
    factor, the inputs K was chosen from (inflated factor and threshold),
    the rounding margin, and the deviation from the directly computed
    quantized aggregate (always 0 when the bounds hold).
    """
    if trainer is None:
        trainer = synthetic_trainer(cfg.theta_max)
    n, dim = cfg.n_learners, cfg.model_dim
    if initial_models is None:
        current = np.empty((n, dim))
        for i in range(1, n + 1):
            gen = derive_rng(cfg.seed, "init", i)
            current[i - 1] = gen.uniform(-cfg.theta_max / 2, cfg.theta_max / 2, dim)
    else:
        current = np.asarray(initial_models, dtype=float).copy()
        if current.shape != (n, dim):
            raise ValueError(f"initial models shape {current.shape} != ({n}, {dim})")

    transcript = Transcript(
        meta={
            "n_learners": n,
            "model_dim": dim,
            "sigma": cfg.sigma,
            "prime": cfg.prime,
            "weights": list(cfg.weights),
            "seed": cfg.seed,
        }
    )
    per_round = []
    decoded_rows = np.empty((cfg.rounds, dim))
    for t in range(1, cfg.rounds + 1):
        local = np.empty((n, dim))
        for i in range(1, n + 1):
            gen = derive_rng(cfg.seed, "train", t, i)
            local[i - 1] = trainer(i, t, current[i - 1], gen)
        g = cfg.schedule.round_graph(t)
        record = execute_round(
            local, g, cfg, round_index=t, record_trajectory=record_trajectory
        )
        oracle, _ = quantized_aggregate(local, cfg.weights, cfg.precision)
        deviation = float(np.max(np.abs(record.decoded - oracle[None, :])))
        transcript.rounds.append(record)
        lam_hat, k_threshold = termination_inputs(record.lambda2, n, cfg.prime)
        per_round.append(
            {
                "round": t,
                "k_used": record.k_used,
                "lambda2": record.lambda2,
                "lambda_hat": lam_hat,
                "k_threshold": k_threshold,
                "max_deviation": deviation,
                "rounding_margin": record.rounding_margin,
                "timings": record.timings,
            }
        )
        decoded_rows[t - 1] = record.decoded[0]
        current = np.repeat(record.decoded[:1], n, axis=0)

    summary = {
        "rounds": per_round,
        "max_deviation": max(r["max_deviation"] for r in per_round),
        "min_rounding_margin_slack": 0.5
        - max(r["rounding_margin"] for r in per_round),
    }
    return TrainingResult(decoded_rows, transcript, summary)
