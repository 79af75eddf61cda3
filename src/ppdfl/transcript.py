"""Transcripts: every message of a run as JSON lines, written and read back.

A round's bundles form one int64 share table of N + 2|E| rows: row e is the
bundle of the e-th (sender, receiver) pair of topology.share_pairs, and the
graph alone fixes who sends what to whom. Masking is one reduction of that
table by receiver. A transcript stores learner i's block of the table as
one shares record, and read back it must hold exactly one bundle of n
values for each of those pairs.

Each record's layout is stated once, in _LAYOUTS: the writer's
%-templates, the reader's regexes and the fields it takes from a message
json.loads read all derive from it.
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
_NESTED = r"(\[[0-9, \[\]]*\])"
# Each kind of field: its regex in the writer's layout, whose group captures
# its text; its %-template, None where the record's shape sets a list's
# layout; and the type json.loads must read for it, or None for any value.
# The bulk parse holds integer lists to the writer's layout, the graph
# checks n_nodes and edges, and the first scalar takes the rest of its
# object. A consensus record is never parsed: its to list is checked
# against _ID_LIST separately, like the state0 list it repeats, and its
# states are checked, not captured.
_KINDS = {
    "id": (r"(0|[1-9][0-9]*)", "%d", int),
    "phase": (r'"([a-z0-9]+)"', None, None),
    "nodes": (r"(0|[1-9][0-9]*)", "%d", None),
    "edges": (_NESTED, "%s", None),
    "scalar": (r'(".*)', "%s", None),
    "ints": (r"(\[[0-9, ]*\])", None, list),
    "rows": (_NESTED, None, list),
    "floats": (r"(\[[-+.0-9eE, NaInfity]*\])", "[%s]", list),
    "neighbours": ("(" + _ID_LIST + ")", "%s", None),
    "step_neighbours": (r'(\[[^"]*\])', "%s", None),
    "states": (r"\[(?:" + _NUMBER + r"(?:, " + _NUMBER + r")*)?\]", "[%s]", None),
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
    parts = []
    for key, kind, *_ in fields:
        if kind == "scalar":
            return ", ".join([*parts, _KINDS[kind][0]])
        text = r"\{%s\}" % _pattern(kind) if type(kind) is tuple else _KINDS[kind][0]
        parts.append('"%s": %s' % (key, text))
    return ", ".join(parts)


def _render(fields, phase: str) -> str:
    """fields as the writer lays them out in a record of phase."""
    parts = []
    for key, kind, *_ in fields:
        if type(kind) is tuple:
            text = "{%s}" % _render(kind, phase)
        else:
            text = '"%s"' % phase if kind == "phase" else _KINDS[kind][1] or _SHAPED
        parts.append('"%s": %s' % (key, text))
    return ", ".join(parts)


_HEAD = re.compile(r"\{" + _pattern(_HEAD_FIELDS) + ", ")
_TAILS = {phase: re.compile(_pattern(fields) + r"\}") for phase, fields in _LAYOUTS.items()}
_TEMPLATES = {phase: ("{" + _render(_HEAD_FIELDS + fields, phase) + "}\n").split(_SHAPED)
              for phase, fields in _LAYOUTS.items()}
_STRICT_ID_LIST = re.compile(_ID_LIST)


def _template(phase: str, *layouts: str) -> str:
    """The writer's %-template of a record of phase; layouts are the list
    layouts its shape sets, in field order."""
    pieces = _TEMPLATES[phase]
    return "".join(chain.from_iterable(zip(pieces, layouts))) + pieces[-1]


_DIGITS = b"0123456789"
_TO_SPACES = bytes.maketrans(b"[],", b"   ")


@lru_cache(maxsize=4096)
def _list_layout(count: int, item: str) -> str:
    """A list of count items, each reading item, as json.dumps lays it out;
    the writer's templates and the reader's skeletons share these."""
    return "[" + ", ".join([item] * count) + "]"


def _json_rows(block: np.ndarray) -> list[str]:
    """The rows of an (N, n) float block as json.dumps writes each row as a
    list, less its brackets: one json.dumps for the whole block."""
    return json.dumps(np.asarray(block, dtype=float).tolist())[2:-2].split("], [")


def _skeletons(counts: list[int], item: str = "") -> str:
    """Lists of counts[0], counts[1], ... items as json.dumps lays them out,
    back to back and less their digits, each item reading `item` less its
    digits."""
    return "".join([_list_layout(k, item) for k in counts])


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


def _float_rows(t: int, phase: str, texts: list[str]) -> np.ndarray:
    """The result or audit model lists of learners 1..N as one float array.
    Each text is one JSON list or no JSON at all, so one json.loads reads
    them all or fails as it would on the text alone."""
    try:
        return np.array(json.loads("[" + ", ".join(texts) + "]"), dtype=float)
    except TypeError:  # a list or object among the values
        raise ValueError(f"transcript round {t} has a {phase} value that is not a number") from None


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


def _collect_fields(per_round: dict, t: int, phase: str, fields: tuple | None,
                    legacy: bool = False) -> None:
    """File a record from its field texts in table order, as the phase's
    regex captures them; fields None only opens the round. ValueError on a
    record that repeats another (a legacy state0 record may repeat its
    learner's payload) or a graph that is not valid."""
    slot = per_round[t]
    if fields is None:
        return
    if phase == "topology":
        if slot["topology"] is not None:
            raise ValueError(f"transcript round {t} repeats its topology record")
        n_nodes, edges, rest = fields
        nodes_key, edges_key = _GRAPH
        # One json.loads reads n_nodes and the scalars. Keys repeated in the
        # rest of the payload win, as in json.loads.
        payload = json.loads('{"%s": %s%s}' % (nodes_key, n_nodes, rest and ", " + rest))
        if edges_key not in payload:
            # An (E, 2) int64 array; edges in another layout, or not all
            # pairs, as their JSON value.
            pairs = edges.count("[") - 1
            ids = _int_text([edges], _skeletons([pairs], "[, ]"), 2 * pairs)
            payload[edges_key] = json.loads(edges) if ids is None else ids.reshape(pairs, 2)
        try:
            slot["topology"] = RoundTopology(*(payload[key] for key in _GRAPH))
        except ValueError as exc:
            raise ValueError(f"transcript round {t} topology record: {exc}") from None
        slot["scalars"] = {key: payload.get(key, *default) if default else payload[key]
                           for key, default in _SCALARS}
        return
    if phase == "shares":
        slot["shares"].append((int(fields[0]), fields[1], fields[2]))
        return
    # A state0, result or audit record keeps its texts after the sender,
    # a state0 record less its to list.
    sender, texts = int(fields[0]), fields[2:] if phase == "state0" else fields[1:]
    records = slot[phase]
    if sender in records:
        if legacy and records[sender] == texts:
            return
        raise ValueError(f"transcript round {t} repeats the {phase} record of learner {sender}")
    records[sender] = texts


def _json_value(lineno: int, obj: dict, key: str, kind, *default):
    """obj[key], or default; ValueError naming the line unless it has the
    kind's type."""
    value = obj.get(key, *default) if default else obj[key]
    want = dict if type(kind) is tuple else _KINDS[kind][2]
    if want is not None and type(value) is not want:
        raise ValueError(f"transcript line {lineno} field {key!r} is not a JSON "
                         f"{_JSON_NAMES[want]}")
    return value


def _json_texts(lineno: int, fields, obj: dict) -> list[str]:
    """The texts of obj's fields in table order, as their regex captures
    them in the writer's layout: each value dumped back to text, and the
    first scalar with the rest of its object."""
    texts = []
    for n, (key, kind, *default) in enumerate(fields):
        if kind == "scalar":
            before = {field[0] for field in fields[:n]}
            return texts + [json.dumps({k: v for k, v in obj.items() if k not in before})[1:-1]]
        value = _json_value(lineno, obj, key, kind, *default)
        texts += _json_texts(lineno, kind, value) if type(kind) is tuple else [json.dumps(value)]
    return texts


def _message_fields(lineno: int, msg: dict):
    """(round, phase, field texts, legacy) of a message json.loads read, the
    texts None for a record that is not filed. A legacy record's texts are
    turned into the current layout's: a per-pair shares record is a
    one-row block."""
    t, phase = (_json_value(lineno, msg, *field) for field in _HEAD_FIELDS)
    if type(phase) is not str or phase not in _LAYOUTS or phase == "consensus":
        return t, phase, None, False
    layout, legacy = _LAYOUTS[phase], _LEGACY_LAYOUTS.get(phase, ())
    if not legacy or any(type(msg.get(key)) is not _KINDS[kind][2] for key, kind in legacy):
        return t, phase, tuple(_json_texts(lineno, layout, msg)), False
    texts = _json_texts(lineno, legacy, msg)
    return t, phase, tuple(text if old[1] == new[1] else "[" + text + "]"
                           for text, old, new in zip(texts, legacy, layout)), True


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
        tos = list(map(json.loads, tos))  # lists, by their regex or the json.loads route
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

        A line in the writer's layout is split by regex; a consensus record
        in that layout is skipped unparsed. Any other line goes through
        json.loads, and its fields are dumped back to the texts the regex
        captures, so one filer takes both. Each round's integer payloads
        are parsed in bulk, and those the bulk parse refuses by json.loads.
        """
        meta: dict | None = None
        per_round: dict[int, dict] = defaultdict(lambda: {
            "shares": [], "state0": {}, "result": {}, "audit": {}, "topology": None})
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
                    if fields[3] in id_lists or _STRICT_ID_LIST.fullmatch(fields[3]):
                        id_lists.add(fields[3])
                        _collect_fields(per_round, int(head[1]), "consensus", None)
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
                    _collect_fields(per_round, *_message_fields(lineno, msg))
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
            s0 = _residue_rows(t, "state0", [slot["state0"][i][0] for i in learners], p)
            secrets = _residue_rows(t, "audit", [slot["audit"][i][0] for i in learners], p)
            models = _float_rows(t, "audit", [slot["audit"][i][1] for i in learners])
            decoded = _float_rows(t, "result", [slot["result"][i][0] for i in learners])
            if len({arr.shape for arr in (s0, secrets, models, decoded)}) > 1:
                raise ValueError(f"transcript round {t} has records of unequal length")
            width = s0.shape[1]
            bundles = _share_table(t, g, *_share_records(t, slot["shares"], width, p), width)
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


def _checked_meta(meta) -> tuple[int, int]:
    """(p, 10**sigma) of a transcript's meta record; ValueError unless it
    holds n_learners, prime and sigma as JSON integers, with p in the range
    a modulus may take and sigma not negative."""
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
    if sigma < 0:
        raise ValueError(f"transcript meta record has sigma={sigma}, below 0")
    return p, 10**sigma
