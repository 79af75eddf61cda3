"""Transcripts: every message of a run as JSON lines, written and read back.

A round's bundles form one int64 share table of N + 2|E| rows: row e is the
bundle of the e-th (sender, receiver) pair of topology.share_pairs, and the
graph alone fixes who sends what to whom. Masking is one reduction of that
table by receiver. A transcript stores learner i's block of the table as
one shares record, and read back it must hold exactly one bundle of n
values for each of those pairs.

Each record's layout is stated once, in _LAYOUTS: the writer's
%-templates, the zero texts the reader checks blocks of records against,
its consensus regex and the fields it takes from a message json.loads read
all derive from it.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

import numpy as np

from .field import MAX_MODULUS_BITS
from .fixedpoint import Precision
from .topology import RoundTopology, share_pairs


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


# An id is digits not led by a zero unless it is 0: a lookahead per id,
# which the regex engine runs faster than an alternation.
_ID_LIST = r"\[(?:(?!0[0-9])[0-9]+(?:, (?!0[0-9])[0-9]+)*)?\]"
_NUMBER = r"(?:-?(?:[1-9][0-9]*|0)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|NaN|-?Infinity)"
# Each kind of field: its %-template, None where the record's shape sets a
# list's layout; and the type json.loads must read for it, or None for any
# value. The graph checks n_nodes and edges, and the filer the scalars.
_KINDS = {
    "id": ("%d", int),
    "phase": (None, None),
    "nodes": ("%d", None),
    "edges": ("%s", None),
    "scalar": ("%s", None),
    "ints": (None, list),
    "rows": (None, list),
    "floats": ("[%s]", list),
    "neighbours": ("%s", None),
    "step_neighbours": ("%s", None),
    "states": ("[%s]", None),
}
# The regex of each kind a pattern reads, in the writer's layout, its group
# capturing its text: a record's head, and a consensus record, which is
# never parsed. Its to list is captured loosely and checked against _ID_LIST
# separately; its states are checked, not captured.
_PATTERNS = {
    "id": r"(0|[1-9][0-9]*)",
    "phase": r'"([a-z0-9]+)"',
    "step_neighbours": r'(\[[^"]*\])',
    "states": r"\[(?:" + _NUMBER + r"(?:, " + _NUMBER + r")*)?\]",
}

# Every record opens with its round and phase, and each phase's fields
# follow in the order the writer writes them: (key, kind), a nested payload
# listing its own fields, and a field the record may leave out with its
# default.
_HEAD_FIELDS = (("round", "id"), ("phase", "phase"))
_LAYOUTS = {
    "topology": (("payload", (("n_nodes", "nodes"), ("edges", "edges"), ("k_used", "scalar"),
                              ("lambda2", "scalar", 0.0),
                              ("rounding_margin", "scalar", float("nan")))),),
    "shares": (("from", "id"), ("to", "ints"), ("payload", "rows")),
    "state0": (("from", "id"), ("to", "neighbours", None), ("payload", "ints")),
    "consensus": (("k", "id"), ("from", "id"), ("to", "step_neighbours"), ("payload", "states")),
    "result": (("from", "id"), ("payload", "floats")),
    "audit": (("from", "id"), ("payload", (("secret", "ints"), ("model", "floats")))),
}
# Layouts of older transcripts, still read: one shares record per (sender,
# receiver) pair and one state0 record per directed edge, both naming one
# receiver. A field whose kind differs from the current layout's holds one
# item of its list.
_LEGACY_LAYOUTS = dict.fromkeys(("shares", "state0"),
                                (("from", "id"), ("to", "id"), ("payload", "ints")))
# The topology payload: the graph's arguments, then scalars that are
# RoundRecord fields of the same names.
_GRAPH = [key for key, kind, *_ in _LAYOUTS["topology"][0][1] if kind != "scalar"]
_SCALARS = [(key, default) for key, kind, *default in _LAYOUTS["topology"][0][1]
            if kind == "scalar"]
_JSON_NAMES = {int: "integer", list: "list", dict: "object"}
_SHAPED = "\0"  # where the record's shape sets a list's layout


def _pattern(fields) -> str:
    """The regex of fields in the writer's layout."""
    return ", ".join('"%s": %s' % (key, _PATTERNS[kind]) for key, kind, *_ in fields)


def _render(fields, phase: str) -> str:
    """fields as the writer lays them out in a record of phase."""
    parts = []
    for key, kind, *_ in fields:
        if type(kind) is tuple:
            text = "{%s}" % _render(kind, phase)
        else:
            text = '"%s"' % phase if kind == "phase" else _KINDS[kind][0] or _SHAPED
        parts.append('"%s": %s' % (key, text))
    return ", ".join(parts)


_HEAD = re.compile(r"\{" + _pattern(_HEAD_FIELDS) + ", ")
_CONSENSUS = re.compile(_pattern(_LAYOUTS["consensus"]) + r"\}")
_TEMPLATES = {phase: ("{" + _render(_HEAD_FIELDS + fields, phase) + "}\n").split(_SHAPED)
              for phase, fields in _LAYOUTS.items()}
_STRICT_ID_LIST = re.compile(_ID_LIST)


def _template(phase: str, *layouts: str) -> str:
    """The writer's %-template of a record of phase; layouts are the list
    layouts its shape sets, in field order."""
    pieces = _TEMPLATES[phase]
    return "".join(chain.from_iterable(zip(pieces, layouts))) + pieces[-1]


# A topology record up to its first scalar: the part the writer's layout
# fixes, for the edges' layout given.
_TOPOLOGY_HEAD = _template("topology").split('"%s"' % _SCALARS[0][0])[0]
# The integers a record's text holds between its round and its sender: the
# digits of its phase, as in state0.
_PHASE_INTS = {phase: [int(d) for d in re.findall("[0-9]+", phase)] for phase in _LAYOUTS}
_ZERO_DIGITS = bytes.maketrans(b"123456789", b"000000000")
_SPACE_NON_DIGITS = bytes(c if 48 <= c < 58 else 32 for c in range(256))


@lru_cache(maxsize=4096)
def _list_layout(count: int, item: str) -> str:
    """A list of count items, each reading item, as json.dumps lays it out;
    the writer's templates and the reader's zero texts share these."""
    return "[" + ", ".join([item] * count) + "]"


@lru_cache(maxsize=4096)
def _zero_record(phase: str, width: int, to_count: int) -> bytes:
    """A shares or state0 record as the writer lays it out, every integer
    written 0: to_count receivers (a shares record's bundles, of width
    values each) or neighbours (a state0 record's), and width states."""
    row = _list_layout(width, "0")
    if phase == "shares":
        text = _template(phase, _list_layout(to_count, "0"), _list_layout(to_count, row)) % (0, 0)
    else:
        text = _template(phase, row) % (0, 0, _list_layout(to_count, "0"))
    return text.encode()


def _json_rows(block: np.ndarray) -> list[str]:
    """The rows of an (N, n) float block as json.dumps writes each row as a
    list, less its brackets: one json.dumps for the whole block."""
    return json.dumps(np.asarray(block, dtype=float).tolist())[2:-2].split("], [")


def _int_text(raw: bytes, zeros: bytes) -> np.ndarray | None:
    """The integers of raw as one int64 array in text order; None unless raw
    reads exactly zeros once each run of its digits is written 0, and each
    run is an integer of at most 18 digits without a leading zero.

    zeros is the writer's text of raw's shapes with every integer 0: it
    fixes every key, bracket and separator and where each integer stands (a
    digit of the layout's own, such as state0's, is an integer the caller
    checks). A bounded number of array passes checks the digits and converts
    them, with no work per record or list.
    """
    chars = np.frombuffer(raw.translate(_ZERO_DIGITS), dtype=np.uint8)
    digit = chars == 48
    first = np.ones(len(chars), dtype=bool)  # every byte but a run's second digit on
    first[1:] = ~(digit[1:] & digit[:-1])
    if chars[first].tobytes() != zeros:
        return None
    if ((np.frombuffer(raw, dtype=np.uint8)[:-1] == 48) & first[:-1] & digit[1:]).any():
        return None
    values = np.fromstring(raw.translate(_SPACE_NON_DIGITS), dtype=np.int64, sep=" ")
    # A run of more than 18 digits reads as at least 10**18, as fromstring
    # saturates beyond int64.
    if values.size and values.max() >= 10**18:
        return None
    return values


def _block_payload(values: np.ndarray, t: int, phase: str, to: np.ndarray,
                   to_counts: np.ndarray, payload_counts: np.ndarray) -> np.ndarray | None:
    """The payload integers of a block of records of phase, one per learner
    1..N in order, from values, every integer of the block in text order;
    learner i's record lists to_counts[i-1] ids and holds payload_counts[i-1]
    integers. None unless every record names round t, its learner, and the
    next to_counts[i-1] ids of to as its to list."""
    head = [t, *_PHASE_INTS[phase], 0]  # the sender last
    lengths = len(head) + to_counts + payload_counts
    starts = np.cumsum(lengths) - lengths
    expected = np.full(len(values), -1)  # -1 at a payload integer
    at = starts[:, None] + np.arange(len(head))
    expected[at] = head
    expected[at[:, -1]] = np.arange(1, len(starts) + 1)
    firsts = np.cumsum(to_counts) - to_counts
    expected[np.arange(len(to)) + np.repeat(starts + len(head) - firsts, to_counts)] = to
    known = expected >= 0
    if not np.array_equal(values[known], expected[known]):
        return None
    return values[~known]


def _topology_fields(line: bytes):
    """(round, payload) of a topology record whose round, n_nodes and edges
    stand in the writer's layout: its edges an (E, 2) int64 array, and one
    json.loads reading n_nodes with the payload's other fields from its
    first scalar on; None for any other line."""
    body = line[:-1] if line.endswith(b"\n") else line
    at = body.find(b'"edges": ')
    cut = body.find(b'"', at + 9) if at >= 0 else -1
    if cut < 0 or not body.endswith(b"}}"):
        return None
    pairs = body.count(b"[", 0, cut) - 1
    ints = _int_text(body[:cut], (_TOPOLOGY_HEAD % (0, 0, _list_layout(pairs, "[0, 0]"))).encode())
    if ints is None:
        return None
    rest = body[cut:-2]
    try:
        # Keys repeated in the rest of the payload win, as in json.loads.
        payload = json.loads(b'{"%s": %d%s}' % (_GRAPH[0].encode(), ints[1], rest and b", " + rest))
    except ValueError:
        return None
    payload.setdefault(_GRAPH[1], ints[2:].reshape(pairs, 2))
    return int(ints[0]), payload


def _json_int_lists(items: list, depth: int):
    """(values, *sizes) of the JSON lists items, nested depth deep: values
    holds every integer as int64 in order, and the l-th of sizes the item
    counts of the lists at nesting level l, the first one per item. Where a list
    belongs but something else stands, it reads as a list of one value; a
    value that is not a JSON integer in [0, 2**63) reads as a negative
    number."""
    sizes = []
    for _ in range(depth):
        items = [x if type(x) is list else [None] for x in items]
        sizes.append(np.fromiter(map(len, items), dtype=np.int64, count=len(items)))
        items = list(chain.from_iterable(items))
    if set(map(type, items)) == {int}:
        try:
            return np.array(items, dtype=np.int64), *sizes
        except OverflowError:  # an integer beyond int64
            pass
    values = np.fromiter(
        (v if type(v) is int and 0 <= v < 2**63 else -1 for v in items),
        dtype=np.int64, count=len(items),
    )
    return values, *sizes


def _float_rows(t: int, phase: str, rows: list[list]) -> np.ndarray:
    """The result or audit model lists of learners 1..N as one float array;
    ValueError on an item that is not a JSON number in float range, or
    lists of unequal length."""
    if set(map(type, chain.from_iterable(rows))) <= {float, int}:
        if len(set(map(len, rows))) > 1:
            raise ValueError(f"transcript round {t} has records of unequal length")
        try:
            return np.array(rows, dtype=float)
        except OverflowError:  # an integer beyond float range
            pass
    raise ValueError(f"transcript round {t} has a {phase} value that is not a number")


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


def _residue_rows(t: int, phase: str, values: np.ndarray, sizes: np.ndarray,
                  p: int) -> np.ndarray:
    """The state0 or audit secret lists of learners 1..N, holding sizes[i-1]
    of values each, as one (N, n) int64 block; ValueError on a value
    outside [0, p) or unequal lists."""
    _check_residues(t, phase, range(1, len(sizes) + 1), sizes, values, p)
    if (sizes != sizes[0]).any():
        raise ValueError(f"transcript round {t} has records of unequal length")
    return values.reshape(len(sizes), sizes[0])


def _new_slot() -> dict:
    """A round's records as they are filed: from lines read alone, or what
    its blocks read."""
    return {"shares": [], "state0": {}, "result": {}, "audit": {}, "topology": None,
            "block": None}


def _collect_fields(per_round: dict, t: int, phase: str, fields: tuple | None,
                    legacy: bool = False) -> None:
    """File a record from its field values in table order; fields None only
    opens the round. A topology record's payload is one object, its edges
    perhaps an (E, 2) array. ValueError on a record that repeats another (a
    legacy state0 record may repeat its learner's payload), a graph that is
    not valid, or a scalar of another type than its RoundRecord field."""
    slot = per_round[t]
    if fields is None:
        return
    if phase == "topology":
        if slot["topology"] is not None:
            raise ValueError(f"transcript round {t} repeats its topology record")
        (payload,) = fields
        try:
            slot["topology"] = RoundTopology(*(payload[key] for key in _GRAPH))
        except ValueError as exc:
            raise ValueError(f"transcript round {t} topology record: {exc}") from None
        slot["scalars"] = scalars = {key: payload.get(key, *default) if default else payload[key]
                                     for key, default in _SCALARS}
        if type(scalars["k_used"]) is not int or scalars["k_used"] < 0:
            raise ValueError(f"transcript round {t} topology record has "
                             f"k_used={scalars['k_used']!r}, not a non-negative integer")
        for key, value in scalars.items():  # NaN is a number, as the writer writes it
            if type(value) not in (int, float):
                raise ValueError(f"transcript round {t} topology record has {key}={value!r}, "
                                 "not a number")
        return
    if phase == "shares":
        slot["shares"].append(fields)
        return
    # A state0, result or audit record keeps its payload.
    sender, payload = fields[0], fields[-1]
    records = slot[phase]
    if sender in records:
        # repr tells 1 from 1.0 or true, as the records' texts do.
        if legacy and repr(records[sender]) == repr(payload):
            return
        raise ValueError(f"transcript round {t} repeats the {phase} record of learner {sender}")
    records[sender] = payload


def _json_value(lineno: int, obj: dict, key: str, kind, *default):
    """obj[key], or default; ValueError naming the line unless it has the
    kind's type, and so do the fields of a nested payload."""
    value = obj.get(key, *default) if default else obj[key]
    want = dict if type(kind) is tuple else _KINDS[kind][1]
    if want is not None and type(value) is not want:
        raise ValueError(f"transcript line {lineno} field {key!r} is not a JSON "
                         f"{_JSON_NAMES[want]}")
    if want is dict:
        for field in kind:
            _json_value(lineno, value, *field)
    return value


def _message_fields(lineno: int, msg: dict):
    """(round, phase, field values, legacy) of a message json.loads read, the
    values None for a record that is not filed. A legacy record's values
    are turned into the current layout's: a field of another kind holds
    one item of its list."""
    t, phase = (_json_value(lineno, msg, *field) for field in _HEAD_FIELDS)
    if type(phase) is not str or phase not in _LAYOUTS or phase == "consensus":
        return t, phase, None, False
    layout, legacy = _LAYOUTS[phase], _LEGACY_LAYOUTS.get(phase, ())
    if not legacy or any(type(msg.get(key)) is not _KINDS[kind][1] for key, kind in legacy):
        return t, phase, tuple(_json_value(lineno, msg, *field) for field in layout), False
    return t, phase, tuple(msg[key] if kind == new[1] else [msg[key]]
                           for (key, kind), new in zip(legacy, layout)), True


def _learner_ids(t: int, values: list) -> np.ndarray:
    """Senders or receivers of round t's bundles as int64; ValueError unless
    every one is an integer."""
    try:
        ids = np.array(values, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        ids = None
    if ids is None or ids.ndim != 1 or ids.tolist() != values:
        raise ValueError(
            f"transcript round {t} has a share bundle whose sender or receiver "
            "is not an integer"
        )
    return ids


def _share_records(t: int, records: list, p: int):
    """(senders, receivers, lengths, values) of round t's share bundles from
    its shares records: bundle e goes from senders[e] to receivers[e] and
    holds the next lengths[e] of values. ValueError on a record whose lists
    differ in length, an id that is not an integer, or a value outside
    [0, p)."""
    senders = [sender for sender, _, _ in records]
    tos = [to for _, to, _ in records]
    values, counts, lengths = _json_int_lists([rows for _, _, rows in records], 2)
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


class _Reader:
    """One pass over a transcript's bytes, filing its records by round.

    A round whose topology record opens with the writer's layout is tried
    as blocks: its N shares and N state0 records, each block checked
    against the writer's zero text of the round's shapes and parsed by one
    _int_text call; consensus records skipped by regex; then its N result
    and N audit records, one json.loads per block. A round its blocks read
    holds what they read. Every other line is read alone, parsed once by
    json.loads and filed as values, and so is every line of a round whose
    blocks do not read: an edited, reordered or legacy line meets the
    refusals it always met. A line read alone that files a record into a round its blocks
    read turns those blocks back into lines first, so every record of that
    round meets the filer in file order.
    """

    def __init__(self, data: bytes):
        self.data = data
        ends = (np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 10) + 1).tolist()
        # Line k is data[bounds[k]:bounds[k + 1]], its newline included.
        self.bounds = [0, *ends] if data.endswith(b"\n") or not data else [0, *ends, len(data)]
        self.count = len(self.bounds) - 1
        self.meta = None
        self.per_round: dict[int, dict] = defaultdict(_new_slot)
        self.id_lists: set[str] = set()  # consensus to lists _ID_LIST admits

    def lines(self, k: int, n: int = 1) -> bytes:
        """Lines k to k + n - 1, with their newlines."""
        return self.data[self.bounds[k]:self.bounds[k + n]]

    def read(self) -> None:
        k = 0
        while k < self.count:
            topology = _topology_fields(self.lines(k))
            if topology is None:
                self.file_line(k)
                k += 1
                continue
            t, payload = topology
            fresh = not any(self.per_round.get(t, {}).values())
            self.file(k + 1, t, "topology", (payload,))
            k += 1
            if fresh:
                k = self.blocks(k, t)

    def file(self, lineno: int, t: int, phase, fields, legacy: bool = False) -> None:
        """File a record of line lineno; a round its blocks read turns back
        into lines first."""
        slot = self.per_round.get(t)
        if fields is not None and slot is not None and slot["block"] is not None:
            lines, slot["block"] = slot["block"][0], None
            for j in lines:
                self.file_line(j)
        try:
            _collect_fields(self.per_round, t, phase, fields, legacy)
        except KeyError as exc:
            raise ValueError(f"transcript line {lineno} lacks field {exc}") from None

    def file_line(self, k: int) -> None:
        """Read line k alone: skip it if blank or a consensus record the
        regex admits, else file its message."""
        line = self.lines(k).decode().strip()
        if not line or self.skips(line):
            return
        try:
            msg = json.loads(line)
            if not isinstance(msg, dict):
                raise ValueError(f"transcript line {k + 1} is not a JSON object")
            if "meta" in msg and "round" not in msg:
                self.meta = msg["meta"]
                return
            fields = _message_fields(k + 1, msg)
        except KeyError as exc:
            raise ValueError(f"transcript line {k + 1} lacks field {exc}") from None
        self.file(k + 1, *fields)

    def skips(self, line: str) -> bool:
        """Whether line is a consensus record in the writer's layout, which
        only opens its round."""
        head = _HEAD.match(line)
        fields = head and head[2] == "consensus" and _CONSENSUS.fullmatch(line, head.end())
        # A learner's to list repeats at every step, so each distinct text
        # meets the strict pattern once.
        if not fields or not (fields[3] in self.id_lists or _STRICT_ID_LIST.fullmatch(fields[3])):
            return False
        self.id_lists.add(fields[3])
        _collect_fields(self.per_round, int(head[1]), "consensus", None)
        return True

    def blocks(self, k: int, t: int) -> int:
        """The line after round t's blocks, which start at line k, with what
        they read filed; k if they do not read."""
        g = self.per_round[t]["topology"]
        n = g.n_nodes
        if k + 2 * n > self.count:
            return k
        # The bundle width, from learner 1's first bundle; the zero text
        # checks it with the rest.
        first = self.lines(k)
        at = first.find(b'"payload": [[') + 13
        width = first.count(b",", at, first.find(b"]", at)) + (first[at:at + 1] != b"]")
        degrees = np.diff(g.indptr)
        receivers = share_pairs(g)[1]
        bundles = self.int_block(k, t, "shares", width, receivers, degrees + 1,
                                 (degrees + 1) * width)
        states = self.int_block(k + n, t, "state0", width, g.arc_head, degrees,
                                np.full(n, width))
        if bundles is None or states is None:
            return k
        end = k + 2 * n
        while end < self.count and self.skips(self.lines(end).decode().strip()):
            end += 1
        results, audits = self.json_block(end, t, "result", n), self.json_block(end + n, t, "audit", n)
        # Types a line read alone is refused for, naming its line.
        if results is None or audits is None or set(map(type, audits)) != {dict}:
            return k
        if not all("secret" in a and "model" in a for a in audits):
            return k
        lists = chain(results, (a[key] for a in audits for key in ("secret", "model")))
        if set(map(type, lists)) != {list}:
            return k
        self.per_round[t]["block"] = (
            range(k, end + 2 * n), bundles.reshape(len(receivers), width), states, results, audits)
        return end + 2 * n

    def int_block(self, k: int, t: int, phase: str, width: int, to: np.ndarray,
                  to_counts: np.ndarray, payload_counts: np.ndarray) -> np.ndarray | None:
        """The payload integers of round t's shares or state0 records of
        learners 1..N on the N lines from k, in the writer's layout and
        order; None unless they are exactly that (_block_payload)."""
        n = len(to_counts)
        raw = self.lines(k, n)
        # Every integer takes a byte at least, so a zero text longer than
        # about three times the block is never built.
        if to_counts.sum() + payload_counts.sum() > len(raw):
            return None
        zeros = b"".join([_zero_record(phase, width, c) for c in to_counts.tolist()])
        values = _int_text(raw, zeros)
        if values is None:
            return None
        return _block_payload(values, t, phase, to, to_counts, payload_counts)

    def json_block(self, k: int, t: int, phase: str, n: int) -> list | None:
        """The payloads of round t's result or audit records of learners
        1..n on the n lines from k, by one json.loads; None unless each line
        holds one such record, its round and sender JSON integers."""
        if k + n > self.count:
            return None
        try:
            msgs = json.loads(b"[%s]" % self.lines(k, n).rstrip(b"\n").replace(b"\n", b","))
        except ValueError:
            return None
        if len(msgs) != n or set(map(type, msgs)) != {dict}:
            return None
        try:
            heads = [(m["round"], m["phase"], m["from"]) for m in msgs]
            payloads = [m["payload"] for m in msgs]
        except KeyError:
            return None
        if heads != [(t, phase, i) for i in range(1, n + 1)]:
            return None
        if set(map(type, chain.from_iterable(heads))) != {int, str}:  # a bool equals 0 or 1
            return None
        return payloads


@dataclass
class Transcript:
    """All messages of a run, one record per (round, phase, sender); the "to"
    of a record sent to other learners lists them."""

    meta: dict
    rounds: list[RoundRecord] = field(default_factory=list)

    def _lines(self, include_consensus: bool):
        """The transcript's lines, in _LAYOUTS order of phases per round,
        each byte for byte json.dumps of its message. Integer lists fill
        templates of their shapes; float lists come from one json.dumps per
        (N, n) block, split into rows, so NaN, Infinity and float repr read
        as json.dumps writes them."""
        yield json.dumps({"meta": self.meta}) + "\n"
        topology, consensus, result = map(_template, ("topology", "consensus", "result"))
        for rec in self.rounds:
            t, g = rec.round_index, rec.topology
            edges = np.stack([g.src, g.dst], axis=1).ravel().tolist()
            scalars = [json.dumps(getattr(rec, key)) for key, _ in _SCALARS]
            yield topology % (t, g.n_nodes, _list_layout(len(edges) // 2, "[%d, %d]")
                              % tuple(edges), *scalars)
            # Learner i's block of the share table is one record: its closed
            # neighbourhood and one bundle per member.
            senders, receivers = share_pairs(g)
            bounds = [0, *(np.flatnonzero(np.diff(senders)) + 1).tolist(), len(senders)]
            row = _list_layout(rec.bundles.shape[1], "%d")
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]), start=1):
                to = _list_layout(hi - lo, "%d")
                yield _template("shares", to, _list_layout(hi - lo, row)) % (
                    t, i, *receivers[lo:hi].tolist(), *rec.bundles[lo:hi].ravel().tolist())
            # A learner broadcasts each state to all its neighbours: one
            # record lists them.
            ptr = g.indptr.tolist()
            nbrs = [_list_layout(hi - lo, "%d") % tuple(g.arc_head[lo:hi].tolist())
                    for lo, hi in zip(ptr, ptr[1:])]
            state0 = _template("state0", _list_layout(rec.initial_states.shape[1], "%d"))
            for i, (to, states) in enumerate(zip(nbrs, rec.initial_states), start=1):
                yield state0 % (t, i, to, *states.tolist())
            if include_consensus and rec.state_trajectory is not None:
                for k in range(1, rec.state_trajectory.shape[0]):
                    rows = _json_rows(rec.state_trajectory[k])
                    for i, (to, states) in enumerate(zip(nbrs, rows), start=1):
                        yield consensus % (t, k, i, to, states)
            for i, model in enumerate(_json_rows(rec.decoded), start=1):
                yield result % (t, i, model)
            # Audit records carry ground truth for verification tooling;
            # they are not part of any adversary's view.
            audit = _template("audit", _list_layout(rec.encoded_secrets.shape[1], "%d"))
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
        rounds cannot be rebuilt without, any field json.loads reads as
        another type than its kind's, and any share, state0 or audit secret
        value that is not an integer in [0, p).

        The file is read once, as bytes. A round in the writer's layout and
        order is read as blocks of records (_Reader) as soon as they end;
        any other line is parsed once, by json.loads, and its values go to
        the one filer, as do the lines of a round whose blocks do not read.
        A consensus record in the writer's layout is skipped unparsed. One
        stage then builds and checks every round's arrays (_round_arrays).
        """
        with open(path, "rb") as fh:
            data = fh.read()
        if b"\r" in data:  # newlines as a file read as text splits lines
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        reader = _Reader(data)
        reader.read()
        meta = reader.meta
        p, scale = _checked_meta(meta)
        rounds = []
        for t in sorted(reader.per_round):
            slot = reader.per_round[t]
            g = slot["topology"]
            if g is None:
                raise ValueError(f"transcript round {t} lacks a topology record")
            n = g.n_nodes
            if n != meta["n_learners"]:
                raise ValueError(
                    f"transcript round {t} topology has {n} nodes but the meta "
                    f"record has n_learners={meta['n_learners']!r}"
                )
            bundles, s0, secrets, models, decoded = _round_arrays(t, g, p, slot)
            rounded = np.round(decoded * scale).astype(np.int64) % p
            rounds.append(
                RoundRecord(
                    round_index=t,
                    topology=g,
                    bundles=bundles,
                    initial_states=s0,
                    encoded_secrets=secrets,
                    local_models=models,
                    rounded=rounded,
                    decoded=decoded,
                    **slot["scalars"],
                )
            )
        return cls(meta=meta, rounds=rounds)


def _round_arrays(t: int, g: RoundTopology, p: int, slot: dict):
    """(bundles, initial states, secrets, models, decoded) of round t, from
    its blocks or from the records filed line by line; ValueError names the
    first record that is missing, repeated or malformed."""
    n = g.n_nodes
    learners = range(1, n + 1)
    if slot["block"] is None:
        for phase in ("state0", "result", "audit"):
            missing = sorted(set(learners) - slot[phase].keys())
            if missing:
                raise ValueError(
                    f"transcript round {t} lacks {phase} records of "
                    f"learners {', '.join(map(str, missing))}"
                )
        table = None
        states, results, audits = ([slot[phase][i] for i in learners]
                                   for phase in ("state0", "result", "audit"))
        states = _json_int_lists(states, 1)
    else:
        _, table, states, results, audits = slot["block"]
        states = states, np.full(n, table.shape[1])
    s0 = _residue_rows(t, "state0", *states, p)
    secrets = _residue_rows(t, "audit", *_json_int_lists([a["secret"] for a in audits], 1), p)
    models = _float_rows(t, "audit", [a["model"] for a in audits])
    decoded = _float_rows(t, "result", results)
    if len({arr.shape for arr in (s0, secrets, models, decoded)}) > 1:
        raise ValueError(f"transcript round {t} has records of unequal length")
    width = s0.shape[1]
    if table is None:
        table = _share_table(t, g, *_share_records(t, slot["shares"], p), width)
    else:  # a block's bundles are its share table, each of the width
        _check_residues(t, "shares", learners, (np.diff(g.indptr) + 1) * width, table.ravel(), p)
    return table, s0, secrets, models, decoded


def _checked_meta(meta) -> tuple[int, int]:
    """(p, 10**sigma) of a transcript's meta record; ValueError unless it
    holds n_learners, prime and sigma as JSON integers, with p in the range
    a modulus may take and sigma one Precision takes."""
    if meta is None:
        raise ValueError("transcript lacks its meta record")
    if not isinstance(meta, dict):
        raise ValueError("transcript meta record is not a JSON object")
    for key in ("n_learners", "prime", "sigma"):
        if key not in meta:
            raise ValueError(f"transcript meta record lacks {key}")
        if type(meta[key]) is not int:
            raise ValueError(f"transcript meta record has {key}={meta[key]!r}, not an integer")
    p, sigma = meta["prime"], meta["sigma"]
    if not 2 <= p < 2**MAX_MODULUS_BITS:
        raise ValueError(f"transcript meta record has prime={p}, outside [2, 2**{MAX_MODULUS_BITS})")
    try:
        return p, Precision(sigma).scale
    except ValueError as exc:
        raise ValueError(f"transcript meta record has {exc}") from None
