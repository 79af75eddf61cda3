"""Transcripts: every message of a run as JSON lines, written and read back.

A round's bundles form one int64 share table of N + 2|E| rows: row e is the
bundle of the e-th (sender, receiver) pair of topology.share_pairs, and the
graph alone fixes who sends what to whom. Masking is one reduction of that
table by receiver. A transcript stores learner i's block of the table as
one shares record, and read back it must hold exactly one bundle of n
values for each of those pairs.

Each record's layout is stated once, in _LAYOUTS: the writer's
%-templates, the zero texts the reader checks blocks of records against,
its consensus regex and the keys it checks in result and audit records all
derive from it. The reader reads exactly what the writer writes, in its
order, and refuses any other line.
"""

from __future__ import annotations

import json
import re
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
# Each kind of field's %-template, None where the record's shape sets a
# list's layout.
_KINDS = {
    "id": "%d",
    "phase": None,
    "nodes": "%d",
    "edges": "%s",
    "scalar": "%s",
    "ints": None,
    "rows": None,
    "floats": "[%s]",
    "neighbours": "%s",
    "step_neighbours": "%s",
    "states": "[%s]",
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
# listing its own fields.
_HEAD_FIELDS = (("round", "id"), ("phase", "phase"))
_LAYOUTS = {
    "topology": (("payload", (("n_nodes", "nodes"), ("edges", "edges"), ("k_used", "scalar"),
                              ("lambda2", "scalar"), ("rounding_margin", "scalar"))),),
    "shares": (("from", "id"), ("to", "ints"), ("payload", "rows")),
    "state0": (("from", "id"), ("to", "neighbours"), ("payload", "ints")),
    "consensus": (("k", "id"), ("from", "id"), ("to", "step_neighbours"), ("payload", "states")),
    "result": (("from", "id"), ("payload", "floats")),
    "audit": (("from", "id"), ("payload", (("secret", "ints"), ("model", "floats")))),
}
# The topology payload's scalars, RoundRecord fields of the same names.
_SCALARS = [key for key, kind in _LAYOUTS["topology"][0][1] if kind == "scalar"]
_SHAPED = "\0"  # where the record's shape sets a list's layout


def _pattern(fields) -> str:
    """The regex of fields in the writer's layout."""
    return ", ".join('"%s": %s' % (key, _PATTERNS[kind]) for key, kind in fields)


def _render(fields, phase: str) -> str:
    """fields as the writer lays them out in a record of phase."""
    parts = []
    for key, kind in fields:
        if type(kind) is tuple:
            text = "{%s}" % _render(kind, phase)
        else:
            text = '"%s"' % phase if kind == "phase" else _KINDS[kind] or _SHAPED
        parts.append('"%s": %s' % (key, text))
    return ", ".join(parts)


_HEAD = re.compile((r"\{" + _pattern(_HEAD_FIELDS) + ", ").encode())
_CONSENSUS = re.compile((_pattern(_LAYOUTS["consensus"]) + r"\}").encode())
_TEMPLATES = {phase: ("{" + _render(_HEAD_FIELDS + fields, phase) + "}\n").split(_SHAPED)
              for phase, fields in _LAYOUTS.items()}
_STRICT_ID_LIST = re.compile(_ID_LIST.encode())


def _template(phase: str, *layouts: str) -> str:
    """The writer's %-template of a record of phase; layouts are the list
    layouts its shape sets, in field order."""
    pieces = _TEMPLATES[phase]
    return "".join(chain.from_iterable(zip(pieces, layouts))) + pieces[-1]


# A topology record up to its first scalar: the part the writer's layout
# fixes, for the edges' layout given.
_TOPOLOGY_HEAD = _template("topology").split('"%s"' % _SCALARS[0])[0]
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


def _block_payload(values: np.ndarray, t: int, phase: str, first: int, to: np.ndarray,
                   to_counts: np.ndarray, payload_counts: np.ndarray) -> np.ndarray | None:
    """The payload integers of a block of records of phase, one per learner
    from first on, in order, from values, every integer of the block in
    text order; record j lists to_counts[j] ids and holds payload_counts[j]
    integers. None unless every record names round t, its learner, and the
    next to_counts[j] ids of to as its to list."""
    head = [t, *_PHASE_INTS[phase], 0]  # the sender last
    lengths = len(head) + to_counts + payload_counts
    starts = np.cumsum(lengths) - lengths
    expected = np.full(len(values), -1)  # -1 at a payload integer
    at = starts[:, None] + np.arange(len(head))
    expected[at] = head
    expected[at[:, -1]] = np.arange(first, first + len(starts))
    firsts = np.cumsum(to_counts) - to_counts
    expected[np.arange(len(to)) + np.repeat(starts + len(head) - firsts, to_counts)] = to
    known = expected >= 0
    if not np.array_equal(values[known], expected[known]):
        return None
    return values[~known]


def _int_records(raw: bytes, t: int, phase: str, first: int, width: int, to: np.ndarray,
                 to_counts: np.ndarray, payload_counts: np.ndarray) -> np.ndarray | None:
    """The payload integers of round t's shares or state0 records of
    learners first, first + 1, ..., one per line of raw, in the writer's
    layout of bundles or states of width values; None unless they are
    exactly that (_int_text, _block_payload)."""
    # Every integer takes a byte at least, so a zero text longer than
    # about three times the block is never built.
    if to_counts.sum() + payload_counts.sum() > len(raw):
        return None
    zeros = b"".join([_zero_record(phase, width, c) for c in to_counts.tolist()])
    values = _int_text(raw, zeros)
    if values is None:
        return None
    return _block_payload(values, t, phase, first, to, to_counts, payload_counts)


def _json(text: bytes):
    """json.loads of text; None where json.loads refuses it, also for
    lists or objects nested too deep for it."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        return None


def _json_records(raw: bytes, t: int, phase: str, first: int, count: int) -> list | None:
    """The payloads of round t's result or audit records of learners first
    to first + count - 1, one per line of raw, by one json.loads; None
    unless each line holds one such record with the writer's keys in its
    order, its round and sender JSON integers and lists where the writer
    writes lists."""
    msgs = _json(b"[%s]" % raw.rstrip(b"\n").replace(b"\n", b","))
    keys = [key for key, _ in _HEAD_FIELDS + _LAYOUTS[phase]]
    if msgs is None or len(msgs) != count or not _objects_of(msgs, keys):
        return None
    heads = [(m["round"], m["phase"], m["from"]) for m in msgs]
    if heads != [(t, phase, i) for i in range(first, first + count)]:
        return None
    if set(map(type, chain.from_iterable(heads))) != {int, str}:  # a bool equals 0 or 1
        return None
    payloads = lists = [m["payload"] for m in msgs]
    kind = _LAYOUTS[phase][-1][1]
    if type(kind) is tuple:  # an object of lists, as an audit payload
        names = [key for key, _ in kind]
        if not _objects_of(payloads, names):
            return None
        lists = [x[key] for x in payloads for key in names]
    return payloads if set(map(type, lists)) == {list} else None


def _objects_of(values: list, keys: list) -> bool:
    """Whether every value is a JSON object of keys, in that order."""
    return set(map(type, values)) == {dict} and all(map(keys.__eq__, map(list, values)))


def _topology_fields(line: bytes):
    """(round, n_nodes, edges, scalars) of a topology record in the writer's
    layout: its edges an (E, 2) int64 array, and one json.loads reading the
    scalars, which must stand as json.dumps writes them; None for any other
    line."""
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
    scalars = _json(b"{%s}" % rest)
    if scalars is None or rest != ", ".join('"%s": %s' % (key, json.dumps(scalars.get(key)))
                         for key in _SCALARS).encode():
        return None
    return int(ints[0]), int(ints[1]), ints[2:].reshape(pairs, 2), scalars


def _round_topology(t: int, n_nodes: int, edges: np.ndarray, scalars: dict,
                    n_learners) -> RoundTopology:
    """The graph of round t's topology record; ValueError unless it has the
    meta record's n_learners nodes, is a valid graph, and its scalars have
    the types of their RoundRecord fields."""
    if n_nodes != n_learners:
        raise ValueError(f"transcript round {t} topology has {n_nodes} nodes but the meta "
                         f"record has n_learners={n_learners!r}")
    try:
        g = RoundTopology(n_nodes, edges)
    except ValueError as exc:
        raise ValueError(f"transcript round {t} topology record: {exc}") from None
    if type(scalars["k_used"]) is not int or scalars["k_used"] < 0:
        raise ValueError(f"transcript round {t} topology record has "
                         f"k_used={scalars['k_used']!r}, not a non-negative integer")
    for key, value in scalars.items():  # NaN is a number, as the writer writes it
        if type(value) not in (int, float):
            raise ValueError(f"transcript round {t} topology record has {key}={value!r}, "
                             "not a number")
    return g


def _float_rows(t: int, phase: str, rows: list[list]) -> np.ndarray:
    """The result or audit model lists of learners 1..N, all of one length,
    as one float array; ValueError on an item that is not a JSON number in
    float range."""
    if set(map(type, chain.from_iterable(rows))) <= {float, int}:
        try:
            return np.array(rows, dtype=float)
        except OverflowError:  # an integer beyond float range
            pass
    raise ValueError(f"transcript round {t} has a {phase} value that is not a number")


def _check_residues(t: int, phase: str, counts: np.ndarray, values: np.ndarray, p: int) -> None:
    """ValueError naming the learner whose record holds a value outside
    [0, p); learner i's record holds the next counts[i-1] values."""
    bad = (values < 0) | (values >= p)
    if bad.any():
        i = int(np.searchsorted(np.cumsum(counts), np.argmax(bad), side="right")) + 1
        raise ValueError(
            f"transcript round {t} {phase} record of learner {i} holds a "
            f"value that is not an integer in [0, {p})"
        )


def _secret_rows(t: int, secrets: list[list], widths: np.ndarray, p: int) -> np.ndarray:
    """The audit secret lists of learners 1..N, widths[0] items each, as one
    (N, n) int64 block; ValueError on an item that is not a JSON integer in
    [0, p)."""
    items = list(chain.from_iterable(secrets))
    values = None
    if set(map(type, items)) == {int}:
        try:
            values = np.array(items, dtype=np.int64)
        except OverflowError:  # an integer beyond int64
            pass
    if values is None:  # any other item reads as a negative number
        values = np.fromiter((v if type(v) is int and 0 <= v < 2**63 else -1 for v in items),
                             dtype=np.int64, count=len(items))
    _check_residues(t, "audit", widths, values, p)
    return values.reshape(len(secrets), widths[0])


class _Reader:
    """One pass over a transcript's bytes, in the writer's order and layout.

    The meta line is parsed by json.loads. Each round follows as blocks:
    its topology record; its N shares and N state0 records, each block
    checked against the writer's zero text of the round's shapes and parsed
    by one _int_text call; its consensus records, skipped by regex; then
    its N result and N audit records, one json.loads per block. A line that
    does not read so is refused, naming its number and the record the
    writer writes there; a block that does not read is checked one record
    at a time to find that line.
    """

    def __init__(self, data: bytes):
        self.data = data
        ends = (np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 10) + 1).tolist()
        # Line k is data[bounds[k]:bounds[k + 1]], its newline included.
        self.bounds = [0, *ends] if data.endswith(b"\n") or not data else [0, *ends, len(data)]
        self.count = len(self.bounds) - 1
        self.id_lists: set[bytes] = set()  # consensus to lists _ID_LIST admits

    def lines(self, k: int, n: int = 1) -> bytes:
        """Lines k to k + n - 1, with their newlines."""
        return self.data[self.bounds[k]:self.bounds[k + n]]

    def refuse(self, k: int, what: str) -> ValueError:
        """The error for line k, where the writer writes what."""
        if k < self.count:
            return ValueError(f"transcript line {k + 1} is not {what} in the writer's layout")
        return ValueError(f"transcript ends after line {self.count}, before {what}")

    def read(self) -> tuple[dict, list[RoundRecord]]:
        """The meta record and the rounds, in round order."""
        head = _json(self.lines(0)) if self.count else None
        if type(head) is not dict or list(head) != ["meta"]:
            raise ValueError("transcript lacks its meta record on line 1")
        meta = head["meta"]
        p, scale = _checked_meta(meta)
        rounds: dict[int, RoundRecord] = {}
        k = 1
        while k < self.count:
            k = self.round(k, meta["n_learners"], p, scale, rounds)
        if not rounds:
            raise ValueError("transcript holds no round")
        return meta, [rounds[t] for t in sorted(rounds)]

    def round(self, k: int, n_learners: int, p: int, scale: int, rounds: dict) -> int:
        """The line after the round whose topology record is line k, the
        round filed in rounds."""
        fields = _topology_fields(self.lines(k))
        if fields is None:
            raise self.refuse(k, "a topology record")
        t, n_nodes = fields[:2]
        if t in rounds:
            raise ValueError(f"transcript round {t} repeats its topology record")
        # Each learner writes two records after it: a file too short for
        # them is refused before the graph's arrays are built.
        if k + 2 * n_nodes >= self.count:
            raise ValueError(f"transcript ends after line {self.count}, before the records "
                             f"of round {t}'s {n_nodes} learners")
        g = _round_topology(*fields, n_learners)
        scalars = fields[-1]
        n = g.n_nodes
        k += 1
        # The bundle width, from learner 1's first bundle; the zero text
        # checks it with the rest.
        first = self.lines(k)
        at = first.find(b'"payload": [[') + 13
        width = first.count(b",", at, first.find(b"]", at)) + (first[at:at + 1] != b"]")
        degrees = np.diff(g.indptr)
        widths = np.full(n, width)
        receivers = share_pairs(g)[1]
        bundles = self.int_block(k, t, "shares", width, receivers, degrees + 1,
                                 (degrees + 1) * width)
        states = self.int_block(k + n, t, "state0", width, g.arc_head, degrees, widths)
        _check_residues(t, "shares", (degrees + 1) * width, bundles, p)
        _check_residues(t, "state0", widths, states, p)
        k += 2 * n
        while k < self.count and self.skips(k, t):
            k += 1
        results, audits = self.json_block(k, t, "result", n), self.json_block(k + n, t, "audit", n)
        secrets, models = ([a[key] for a in audits] for key in ("secret", "model"))
        for at, phase, rows in ((k, "result", results), (k + n, "audit", secrets),
                                (k + n, "audit", models)):
            if set(map(len, rows)) != {width}:
                i = next(i for i, row in enumerate(rows) if len(row) != width)
                raise ValueError(
                    f"transcript round {t} has records of unequal length: the {phase} record "
                    f"of learner {i + 1} on line {at + i + 1} holds {len(rows[i])} values, "
                    f"its shares {width}")
        decoded = _float_rows(t, "result", results)
        rounds[t] = RoundRecord(
            round_index=t,
            topology=g,
            bundles=bundles.reshape(len(receivers), width),
            initial_states=states.reshape(n, width),
            encoded_secrets=_secret_rows(t, secrets, widths, p),
            local_models=_float_rows(t, "audit", models),
            rounded=np.round(decoded * scale).astype(np.int64) % p,
            decoded=decoded,
            **scalars,
        )
        return k + 2 * n

    def int_block(self, k: int, t: int, phase: str, width: int, to: np.ndarray,
                  to_counts: np.ndarray, payload_counts: np.ndarray) -> np.ndarray:
        """The payload integers of round t's shares or state0 records of
        learners 1..N on the N lines from k (_int_records); learner i's
        lists to_counts[i-1] ids of to and holds payload_counts[i-1]
        integers."""
        starts = np.concatenate([[0], np.cumsum(to_counts)])
        return self.block(k, len(to_counts), t, phase, lambda raw, lo, hi: _int_records(
            raw, t, phase, lo + 1, width, to[starts[lo]:starts[hi]], to_counts[lo:hi],
            payload_counts[lo:hi]))

    def json_block(self, k: int, t: int, phase: str, n: int) -> list:
        """The payloads of round t's result or audit records of learners
        1..n on the n lines from k (_json_records)."""
        return self.block(k, n, t, phase, lambda raw, lo, hi: _json_records(
            raw, t, phase, lo + 1, hi - lo))

    def block(self, k: int, n: int, t: int, phase: str, read):
        """read(lines, lo, hi) of the n lines from k, round t's phase records
        of learners 1..n, where lines hold those of learners lo + 1 to hi;
        ValueError naming the first line read refuses alone."""
        if k + n <= self.count:
            got = read(self.lines(k, n), 0, n)
            if got is not None:
                return got
        bad = next((i for i in range(n)
                    if k + i >= self.count or read(self.lines(k + i), i, i + 1) is None), 0)
        raise self.refuse(k + bad, f"round {t}'s {phase} record of learner {bad + 1}")

    def skips(self, k: int, t: int) -> bool:
        """Whether line k is a consensus record of round t in the writer's
        layout."""
        line = self.lines(k).rstrip(b"\n")
        head = _HEAD.match(line)
        fields = (head and head[2] == b"consensus" and int(head[1]) == t
                  and _CONSENSUS.fullmatch(line, head.end()))
        # A learner's to list repeats at every step, so each distinct text
        # meets the strict pattern once.
        if not fields or not (fields[3] in self.id_lists or _STRICT_ID_LIST.fullmatch(fields[3])):
            return False
        self.id_lists.add(fields[3])
        return True


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
            scalars = [json.dumps(getattr(rec, key)) for key in _SCALARS]
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
        """Read back a transcript the writer wrote; raises ValueError naming
        the first line that does not stand as the writer writes it there,
        any share, state0 or audit secret value that is not an integer in
        [0, p), and any record the rounds cannot be rebuilt from.

        The file is read once, as bytes, in the writer's order (_Reader):
        the meta line, then per round its topology record, its shares and
        state0 blocks, its consensus records, skipped unparsed, and its
        result and audit blocks.
        """
        with open(path, "rb") as fh:
            data = fh.read()
        if b"\r" in data:  # newlines as a file read as text splits lines
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        meta, rounds = _Reader(data).read()
        return cls(meta=meta, rounds=rounds)


def _checked_meta(meta) -> tuple[int, int]:
    """(p, 10**sigma) of a transcript's meta record; ValueError unless it
    holds n_learners, prime and sigma as JSON integers, with p in the range
    a modulus may take and sigma one Precision takes."""
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
