"""The transcript reader against the per-line reader it replaced.

Transcript.from_jsonl parses each round's integer payloads in bulk and
takes any line in another layout through json.loads. The oracle below is
the reader it replaced, kept here as the reference: json.loads on every
line, then np.array on each round's nested lists. On a corpus of written,
re-serialised, legacy and damaged transcripts, both readers must return
byte-identical rounds, or both refuse the transcript.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from ppdfl.protocol import (
    ProtocolConfig,
    RoundRecord,
    Transcript,
    _int_text,
    _skeletons,
    build_initial_state,
    execute_round,
    run_training,
)
from ppdfl.topology import RoundTopology, generate_topology, share_pairs

ROOT = pathlib.Path(__file__).resolve().parents[1]


# The reference reader, as it was before the bulk parse.


def _oracle_collect(per_round: dict[int, dict], msg: dict) -> None:
    """File one transcript message under its round; KeyError on a missing
    field, ValueError on a record that repeats another."""
    t = msg["round"]
    slot = per_round.setdefault(
        t,
        {"senders": [], "receivers": [], "rows": [], "state0": {},
         "result": {}, "audit": {}, "models": {}, "topology": None,
         "k_used": 0, "lambda2": 0.0, "rounding_margin": float("nan")},
    )
    phase = msg["phase"]
    if phase == "topology":
        if slot["topology"] is not None:
            raise ValueError(f"transcript round {t} repeats its topology record")
        try:
            slot["topology"] = RoundTopology(
                msg["payload"]["n_nodes"], msg["payload"]["edges"]
            )
        except ValueError as exc:
            raise ValueError(f"transcript round {t} topology record: {exc}") from None
        slot["k_used"] = msg["payload"]["k_used"]
        slot["lambda2"] = msg["payload"].get("lambda2", 0.0)
        slot["rounding_margin"] = msg["payload"].get("rounding_margin", float("nan"))
    elif phase == "shares":
        # A sender's block lists its receivers and one bundle per receiver;
        # a per-pair record of an older transcript, whose "to" is one id, is
        # a one-row block.
        sender, to, rows = msg["from"], msg["to"], msg["payload"]
        if isinstance(to, int):
            to, rows = [to], [rows]
        if len(to) != len(rows):
            raise ValueError(
                f"transcript round {t} shares record of learner {sender} lists "
                f"{len(to)} receivers but carries {len(rows)} bundles"
            )
        slot["senders"] += [sender] * len(to)
        slot["receivers"] += to
        slot["rows"] += rows
    elif phase in ("state0", "result", "audit"):
        sender, payload = msg["from"], msg["payload"]
        if sender in slot[phase]:
            # Older transcripts repeat a learner's state0 broadcast once per
            # edge, each record naming one receiver.
            legacy = phase == "state0" and isinstance(msg.get("to"), int)
            if legacy and slot[phase][sender] == payload:
                return
            raise ValueError(
                f"transcript round {t} repeats the {phase} record of learner {sender}"
            )
        if phase == "audit":
            slot["models"][sender] = payload["model"]
            payload = payload["secret"]
        slot[phase][sender] = payload


def _oracle_ids(t: int, values: list) -> np.ndarray:
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


def _oracle_share_table(t: int, g: RoundTopology, slot: dict, width: int) -> np.ndarray:
    """The share table of round t from its shares records; ValueError names
    the first bundle that is repeated, missing, of the wrong length, or
    between learners that are not neighbours.

    Each bundle is keyed sender*(N+1) + receiver, which is unique for ids in
    1..N and increasing in share_pairs order.
    """
    n = g.n_nodes
    senders = _oracle_ids(t, slot["senders"])
    receivers = _oracle_ids(t, slot["receivers"])
    rows = slot["rows"]
    inside = (senders >= 1) & (senders <= n) & (receivers >= 1) & (receivers <= n)
    # An id outside 1..N gets a key of its own, so it can only be a stray.
    key = np.where(inside, senders * (n + 1) + receivers, -1 - np.arange(len(rows)))
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
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
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
    return np.array(rows, dtype=np.int64)[source]


def oracle_read(path: str) -> Transcript:
    """The per-line reader: json.loads on every line, then np.array on the
    nested lists of each round."""
    meta: dict | None = None
    per_round: dict[int, dict] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            msg = json.loads(line)
            if "meta" in msg and "round" not in msg:
                meta = msg["meta"]
                continue
            try:
                _oracle_collect(per_round, msg)
            except KeyError as exc:
                raise ValueError(
                    f"transcript line {lineno} lacks field {exc}"
                ) from None
    if meta is None:
        raise ValueError("transcript lacks its meta record")
    missing = [key for key in ("n_learners", "prime", "sigma") if key not in meta]
    if missing:
        raise ValueError(f"transcript meta record lacks {missing}")
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
        s0 = np.array([slot["state0"][i] for i in learners], dtype=np.int64)
        secrets = np.array([slot["audit"][i] for i in learners], dtype=np.int64)
        models = np.array([slot["models"][i] for i in learners], dtype=float)
        decoded = np.array([slot["result"][i] for i in learners], dtype=float)
        shapes = {arr.shape for arr in (s0, secrets, models, decoded)}
        if s0.ndim != 2 or len(shapes) > 1:
            raise ValueError(f"transcript round {t} has records of unequal length")
        bundles = _oracle_share_table(t, g, slot, s0.shape[1])
        p = int(meta["prime"])
        scale = 10 ** int(meta["sigma"])
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
    return Transcript(meta=meta, rounds=rounds)


def _records(p, gen):
    """Three rounds over 9 learners with share values, masked states and
    secrets drawn below p."""
    graphs = [generate_topology("random_connected", 9, seed=3, avg_degree=3.0),
              generate_topology("star", 9), generate_topology("line", 9)]
    for t, g in enumerate(graphs, start=1):
        senders, receivers = share_pairs(g)
        table = gen.integers(0, p, (len(senders), 3))
        decoded = np.repeat(gen.integers(-300, 300, (1, 3)) / 100, 9, axis=0)
        yield RoundRecord(
            round_index=t, topology=g, k_used=int(gen.integers(1, 90)),
            lambda2=float(gen.uniform()), bundles=table,
            initial_states=build_initial_state(table, receivers, p),
            encoded_secrets=gen.integers(0, p, (9, 3)),
            local_models=gen.uniform(-4, 4, (9, 3)),
            rounded=np.zeros((9, 3), dtype=np.int64), decoded=decoded,
            rounding_margin=float(gen.uniform(0, 0.5)),
        )


def _written_lines(p, tmp_path):
    gen = np.random.default_rng(p)
    meta = {"n_learners": 9, "model_dim": 3, "sigma": 2, "prime": p,
            "weights": [1 / 9] * 9, "seed": 1}
    path = tmp_path / "written.jsonl"
    Transcript(meta, list(_records(p, gen))).to_jsonl(str(path))
    return path.read_text().splitlines()


def _messages(lines):
    return [json.loads(line) for line in lines]


def _dumped(msgs, **kwargs):
    return [json.dumps(m, **kwargs) for m in msgs]


def _reversed_keys(value):
    if isinstance(value, dict):
        return {k: _reversed_keys(v) for k, v in reversed(list(value.items()))}
    return value


def _per_pair(msgs, gen):
    """Every shares record split into one record per (sender, receiver)
    pair, the layout before version 0.3.0, in shuffled order."""
    out = [msgs[0]]
    for m in msgs[1:]:
        if m.get("phase") == "shares":
            out += [{**m, "to": j, "payload": row} for j, row in zip(m["to"], m["payload"])]
        else:
            out.append(m)
    body = out[1:]
    gen.shuffle(body)
    return [out[0], *body]


def _per_edge_state0(msgs):
    """Every state0 record repeated once per neighbour, each naming one."""
    out = []
    for m in msgs:
        if m.get("phase") == "state0":
            out += [{**m, "to": j} for j in m["to"]]
        else:
            out.append(m)
    return out


def _first(msgs, phase, sender=4):
    return next(m for m in msgs if m.get("phase") == phase and m.get("from") == sender)


def _edited(msgs, phase, edit):
    msgs = _messages(_dumped(msgs))
    edit(_first(msgs, phase))
    return _dumped(msgs)


def _trailing_comma(lines, phase, old, new):
    k = next(k for k, line in enumerate(lines) if f'"phase": "{phase}"' in line)
    assert old in lines[k]
    return [*lines[:k], lines[k].replace(old, new, 1), *lines[k + 1:]]


def _extra_empty_record(msgs):
    record = {"round": 1, "phase": "shares", "from": 3, "to": [], "payload": []}
    return _dumped([*msgs, record])


def _variants(lines, gen):
    """(name, lines, whether the oracle reads them) per corpus member."""
    msgs = _messages(lines)
    yield "as_written", lines, True
    yield "compact", _dumped(msgs, separators=(",", ":")), True
    yield "indented", [line.replace("\n", " ") for line in _dumped(msgs, indent=1)], True
    yield "reordered_keys", _dumped(map(_reversed_keys, msgs)), True
    yield "per_pair_shuffled", _dumped(_per_pair(msgs, gen)), True
    yield "per_edge_state0", _dumped(_per_edge_state0(msgs)), True
    yield "extra_empty_shares_record", _extra_empty_record(msgs), True
    yield "ragged_bundle", _edited(msgs, "shares", lambda m: m["payload"][1].pop()), False
    yield "ragged_state0", _edited(msgs, "state0", lambda m: m["payload"].pop()), False
    yield "ragged_secret", _edited(msgs, "audit", lambda m: m["payload"]["secret"].append(1)), False
    yield "nested_bundle_value", _edited(
        msgs, "shares", lambda m: m["payload"][0].__setitem__(1, [m["payload"][0][1]])), False
    yield "nested_state0_value", _edited(
        msgs, "state0", lambda m: m["payload"].__setitem__(0, [m["payload"][0]])), False
    yield "empty_to", _edited(msgs, "shares", lambda m: m.update(to=[], payload=[])), False
    yield "unequal_to_and_payload", _edited(msgs, "shares", lambda m: m["payload"].pop()), False
    yield "trailing_comma_in_payload", _trailing_comma(lines, "shares", "]]}", "],]}"), False
    yield "trailing_comma_in_to", _trailing_comma(lines, "shares", '], "payload"', ',], "payload"'), False
    yield "trailing_comma_in_state0", _trailing_comma(lines, "state0", "]}", ",]}"), False
    yield "trailing_comma_in_edges", _trailing_comma(lines, "topology", ']], "k_used"', '],], "k_used"'), False


def _read_or_none(reader, path):
    try:
        return reader(str(path))
    except (ValueError, TypeError, OverflowError):
        return None


def assert_same_rounds(a, b):
    assert a.meta == b.meta
    assert len(a.rounds) == len(b.rounds)
    for x, y in zip(a.rounds, b.rounds):
        assert (x.round_index, x.k_used, x.topology.n_nodes) == (
            y.round_index, y.k_used, y.topology.n_nodes)
        for u, v in ((x.lambda2, y.lambda2), (x.rounding_margin, y.rounding_margin)):
            assert u == v or (math.isnan(u) and math.isnan(v))
        for name in ("bundles", "initial_states", "encoded_secrets", "local_models",
                     "rounded", "decoded"):
            u, v = getattr(x, name), getattr(y, name)
            assert (u.dtype, u.shape) == (v.dtype, v.shape), name
            assert u.tobytes() == v.tobytes(), name
        for u, v in ((x.topology.src, y.topology.src), (x.topology.dst, y.topology.dst)):
            assert u.dtype == v.dtype and np.array_equal(u, v)


@pytest.mark.parametrize("p", [11, 2**31 - 1])
def test_reader_matches_per_line_reader_on_corpus(tmp_path, p):
    gen = np.random.default_rng(p + 1)
    path = tmp_path / "variant.jsonl"
    names = []
    for name, lines, readable in _variants(_written_lines(p, tmp_path), gen):
        path.write_text("\n".join(lines) + "\n")
        expected = _read_or_none(oracle_read, path)
        assert (expected is not None) == readable, name
        if expected is None:
            with pytest.raises(ValueError):
                Transcript.from_jsonl(str(path))
        else:
            assert_same_rounds(Transcript.from_jsonl(str(path)), expected)
        names.append(name)
    assert len(names) == len(set(names)) == 18


def _compare_with_per_pair(tmp_path, transcript):
    path = tmp_path / "written.jsonl"
    transcript.to_jsonl(str(path))
    lines = path.read_text().splitlines()
    gen = np.random.default_rng(5)
    for lines in (lines, _dumped(_per_pair(_messages(lines), gen))):
        path.write_text("\n".join(lines) + "\n")
        assert_same_rounds(Transcript.from_jsonl(str(path)), oracle_read(str(path)))


def test_reader_matches_per_line_reader_on_large_random(tmp_path):
    cfg = ProtocolConfig.from_json_file(str(ROOT / "configs" / "large_random.json"))
    _compare_with_per_pair(tmp_path, run_training(cfg).transcript)


def test_reader_matches_per_line_reader_on_1000_learners(tmp_path):
    raw = {"n_learners": 1000, "model_dim": 16, "sigma": 2, "prime": 2**31 - 1,
           "rounds": 1, "k_policy": "auto", "weights": "uniform", "theta_max": 50.0,
           "seed": 7, "schedule": {"kind": "random_connected", "avg_degree": 4.0,
                                   "seed": 11}}
    cfg = ProtocolConfig.from_dict(raw)
    models = np.random.default_rng(7).uniform(-25.0, 25.0, (1000, 16))
    rec = execute_round(models, cfg.schedule.round_graph(1), cfg)
    meta = {key: raw[key] for key in ("n_learners", "model_dim", "sigma", "prime", "seed")}
    _compare_with_per_pair(tmp_path, Transcript(meta, [rec]))


def _kernel_reference(texts, counts, width):
    """_int_text's answer by json.loads: the values of texts when each is
    json.dumps' layout of a list of counts[k] integers (width None) or of
    counts[k] lists of width integers, every one in [0, 10**18)."""
    try:
        lists = [json.loads(text) for text in texts]
    except ValueError:
        return None
    if any(json.dumps(value) != text for value, text in zip(lists, texts)):
        return None
    values = []
    for value, count in zip(lists, counts):
        rows = value if width is not None else [value]
        if len(value) != count or any(
                type(row) is not list or len(row) != (width or count) for row in rows):
            return None
        values += [v for row in rows for v in row]
    if not all(type(v) is int and 0 <= v < 10**18 for v in values):
        return None
    return values


@pytest.mark.parametrize("width", [None, 1, 3])
def test_bulk_integer_parse_matches_json(width):
    """Edited texts of lists are parsed as json.loads reads them, or
    refused whenever json.loads reads something else."""
    gen = np.random.default_rng(17 if width is None else width)
    alphabet = list("0123456789[], ") + ["10000000000000000000", "007", "-1", ".5"]
    accepted = refused = 0
    for _ in range(1500):
        counts = gen.integers(1, 4, gen.integers(1, 4)).tolist()
        texts = []
        for count in counts:
            shape = (count,) if width is None else (count, width)
            texts.append(json.dumps(gen.integers(0, 10**int(gen.integers(1, 19)), shape).tolist()))
        for _ in range(int(gen.integers(0, 3))):
            k = int(gen.integers(len(texts)))
            text = texts[k]
            at = int(gen.integers(len(text) + 1))
            cut = int(gen.integers(0, 2))
            texts[k] = text[:at] + alphabet[gen.integers(len(alphabet))] * int(gen.integers(0, 2)) + text[at + cut:]
        skeleton = _skeletons(counts) if width is None else _skeletons(counts, _skeletons([width]))
        got = _int_text(texts, skeleton, sum(counts) * (width or 1))
        want = _kernel_reference(texts, counts, width)
        if want is None:
            assert got is None, texts
            refused += 1
        else:
            assert got is not None and got.dtype == np.int64 and got.tolist() == want, texts
            accepted += 1
    assert accepted > 300 and refused > 300


def _counting_json_loads(monkeypatch):
    """Count json.loads calls from here on; returns the running count."""
    calls = [0]
    loads = json.loads

    def counted(*args, **kwargs):
        calls[0] += 1
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    return calls


def test_consensus_records_are_skipped_without_json(tmp_path, monkeypatch):
    # A --trajectories transcript reads back as the same transcript without
    # its consensus lines, with no json.loads call spent on them; states
    # include every float layout json.dumps writes.
    cfg = ProtocolConfig.from_json_file(str(ROOT / "configs" / "demo.json"))
    transcript = run_training(cfg, record_trajectory=True).transcript
    traj = transcript.rounds[0].state_trajectory
    traj[1, 0, :3] = [float("nan"), float("-inf"), -0.0]
    traj[1, 1, :3] = [1e-05, 1.5e300, float("inf")]
    with_path, without_path = tmp_path / "with.jsonl", tmp_path / "without.jsonl"
    transcript.to_jsonl(str(with_path))
    transcript.to_jsonl(str(without_path), include_consensus=False)
    assert with_path.read_text().count('"phase": "consensus"') > 0
    calls = _counting_json_loads(monkeypatch)
    without = Transcript.from_jsonl(str(without_path))
    bare = calls[0]
    assert_same_rounds(Transcript.from_jsonl(str(with_path)), without)
    assert calls[0] == 2 * bare


def test_consensus_records_in_other_layouts_meet_json(tmp_path):
    # Only a consensus line in the writer's layout is skipped unparsed: any
    # other goes through json.loads and meets the same refusals, and either
    # opens its round's slot, as the per-line reader does.
    lines = _written_lines(11, tmp_path)
    record = {"round": 1, "phase": "consensus", "k": 1, "from": 2, "to": [1, 3],
              "payload": [0.5, -1e-05, float("nan")]}
    written = json.dumps(record)
    path = tmp_path / "variant.jsonl"
    variants = {
        "as_written": (written, True),
        "compact": (json.dumps(record, separators=(",", ":")), True),
        "reordered_keys": (json.dumps(_reversed_keys(record)), True),
        "own_round": (written.replace('"round": 1', '"round": 4'), False),
        "malformed_number": (written.replace("0.5", "0.5.5"), False),
        "leading_zero": (written.replace("0.5", "05"), False),
        "trailing_comma": (written.replace("NaN]", "NaN,]"), False),
        "not_json": (written[:-1], False),
    }
    for name, (line, readable) in variants.items():
        path.write_text("\n".join([*lines, line]) + "\n")
        expected = _read_or_none(oracle_read, path)
        assert (expected is not None) == readable, name
        if expected is None:
            with pytest.raises(ValueError):
                Transcript.from_jsonl(str(path))
        else:
            assert_same_rounds(Transcript.from_jsonl(str(path)), expected)
