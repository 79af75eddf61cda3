"""The transcript reader against the per-line reader it replaced.

Transcript.from_jsonl reads exactly what the writer writes: each round in
the writer's order and layout, as blocks of records. The oracle below is the
per-line reader it replaced, kept here as the reference: json.loads on every
line, then np.array on each round's nested lists. Every transcript the
writer writes must read the same rounds as the oracle, byte for byte; every
other layout is refused with a ValueError that names a line, and the CLI
exits 2 on it.
"""

import contextlib
import json
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from ppdfl.cli import main
from ppdfl.protocol import ProtocolConfig, build_initial_state, execute_round, run_training
from ppdfl.topology import RoundTopology, generate_topology, share_pairs
from ppdfl.transcript import RoundRecord, Transcript, _int_text, _list_layout

ROOT = pathlib.Path(__file__).resolve().parents[1]


def oracle_read(path: str) -> Transcript:
    """The per-line reader: json.loads on every line, then np.array on the
    nested lists of each round; consensus records are not read. Assumes the
    writer's records, one per learner in order."""
    with open(path) as fh:
        first, *msgs = [json.loads(line) for line in fh]
    meta = first["meta"]
    per_round: dict[int, dict[str, list]] = {}
    for msg in msgs:
        per_round.setdefault(msg["round"], {}).setdefault(msg["phase"], []).append(msg)
    rounds = []
    for t in sorted(per_round):
        slot = per_round[t]
        (topology,) = slot["topology"]
        payload = topology["payload"]
        g = RoundTopology(payload["n_nodes"], payload["edges"])
        learners = list(range(1, g.n_nodes + 1))
        for phase in ("shares", "state0", "result", "audit"):
            assert [m["from"] for m in slot[phase]] == learners
        senders, receivers = share_pairs(g)
        assert [j for m in slot["shares"] for j in m["to"]] == receivers.tolist()
        audits = [m["payload"] for m in slot["audit"]]
        decoded = np.array([m["payload"] for m in slot["result"]], dtype=float)
        rounds.append(
            RoundRecord(
                round_index=t,
                topology=g,
                k_used=payload["k_used"],
                lambda2=payload["lambda2"],
                bundles=np.array([row for m in slot["shares"] for row in m["payload"]],
                                 dtype=np.int64).reshape(len(senders), -1),
                initial_states=np.array([m["payload"] for m in slot["state0"]], dtype=np.int64),
                encoded_secrets=np.array([a["secret"] for a in audits], dtype=np.int64),
                local_models=np.array([a["model"] for a in audits], dtype=float),
                rounded=np.round(decoded * 10 ** meta["sigma"]).astype(np.int64) % meta["prime"],
                decoded=decoded,
                rounding_margin=payload["rounding_margin"],
            )
        )
    return Transcript(meta=meta, rounds=rounds)


def _records(p, gen):
    """Three rounds over 9 learners with share values, masked states and
    secrets drawn below p."""
    graphs = [generate_topology("random_connected", 9, seed=3, avg_degree=3.0),
              generate_topology("star", 9), generate_topology("line", 9)]
    for t, g in enumerate(graphs, start=1):
        table = gen.integers(0, p, (len(share_pairs(g)[0]), 3))
        decoded = np.repeat(gen.integers(-300, 300, (1, 3)) / 100, 9, axis=0)
        yield RoundRecord(
            round_index=t, topology=g, k_used=int(gen.integers(1, 90)),
            lambda2=float(gen.uniform()), bundles=table,
            initial_states=build_initial_state(table, g, p),
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
    """(name, lines) per corpus member the writer does not write."""
    msgs = _messages(lines)
    yield "compact", _dumped(msgs, separators=(",", ":"))
    yield "indented", [line.replace("\n", " ") for line in _dumped(msgs, indent=1)]
    yield "reordered_keys", _dumped(map(_reversed_keys, msgs))
    yield "per_pair_shuffled", _dumped(_per_pair(msgs, gen))
    yield "per_edge_state0", _dumped(_per_edge_state0(msgs))
    yield "extra_empty_shares_record", _extra_empty_record(msgs)
    yield "ragged_bundle", _edited(msgs, "shares", lambda m: m["payload"][1].pop())
    yield "ragged_state0", _edited(msgs, "state0", lambda m: m["payload"].pop())
    yield "ragged_secret", _edited(msgs, "audit", lambda m: m["payload"]["secret"].append(1))
    yield "nested_bundle_value", _edited(
        msgs, "shares", lambda m: m["payload"][0].__setitem__(1, [m["payload"][0][1]]))
    yield "nested_state0_value", _edited(
        msgs, "state0", lambda m: m["payload"].__setitem__(0, [m["payload"][0]]))
    yield "empty_to", _edited(msgs, "shares", lambda m: m.update(to=[], payload=[]))
    yield "unequal_to_and_payload", _edited(msgs, "shares", lambda m: m["payload"].pop())
    yield "trailing_comma_in_payload", _trailing_comma(lines, "shares", "]]}", "],]}")
    yield "trailing_comma_in_to", _trailing_comma(lines, "shares", '], "payload"', ',], "payload"')
    yield "trailing_comma_in_state0", _trailing_comma(lines, "state0", "]}", ",]}")
    yield "trailing_comma_in_edges", _trailing_comma(lines, "topology", ']], "k_used"', '],], "k_used"')
    yield "blank_line", [*lines[:5], "", *lines[5:]]
    yield "swapped_records", [*lines[:3], lines[4], lines[3], *lines[5:]]


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


def assert_refused(path, message=r"\bline \d+\b"):
    """The reader refuses the transcript at path with a ValueError whose
    message matches, and the CLI exits 2 on it."""
    with pytest.raises(ValueError, match=message):
        Transcript.from_jsonl(str(path))
    assert main(["privacy", "--transcript", str(path), "--adversary", "1"]) == 2


def _read_as_oracle(path):
    assert_same_rounds(Transcript.from_jsonl(str(path)), oracle_read(str(path)))


@pytest.mark.parametrize("p", [11, 2**31 - 1])
def test_written_corpus_reads_as_the_oracle_reads_it(tmp_path, p):
    path = tmp_path / "written.jsonl"
    _written_lines(p, tmp_path)
    _read_as_oracle(path)


@pytest.mark.parametrize("p", [11, 2**31 - 1])
def test_every_other_layout_is_refused_naming_a_line(tmp_path, p):
    gen = np.random.default_rng(p + 1)
    path = tmp_path / "variant.jsonl"
    names = []
    for name, lines in _variants(_written_lines(p, tmp_path), gen):
        path.write_text("\n".join(lines) + "\n")
        assert_refused(path)
        names.append(name)
    assert len(names) == len(set(names)) == 19


def _read_back_as_oracle(tmp_path, transcript):
    path = tmp_path / "written.jsonl"
    transcript.to_jsonl(str(path))
    _read_as_oracle(path)


def test_large_random_reads_as_the_oracle_reads_it(tmp_path):
    cfg = ProtocolConfig.from_json_file(str(ROOT / "configs" / "large_random.json"))
    _read_back_as_oracle(tmp_path, run_training(cfg).transcript)


def test_1000_learners_read_as_the_oracle_reads_them(tmp_path):
    raw = {"n_learners": 1000, "model_dim": 16, "sigma": 2, "prime": 2**31 - 1,
           "rounds": 1, "k_policy": "auto", "weights": "uniform", "theta_max": 50.0,
           "seed": 7, "schedule": {"kind": "random_connected", "avg_degree": 4.0,
                                   "seed": 11}}
    cfg = ProtocolConfig.from_dict(raw)
    models = np.random.default_rng(7).uniform(-25.0, 25.0, (1000, 16))
    rec = execute_round(models, cfg.schedule.round_graph(1), cfg)
    meta = {key: raw[key] for key in ("n_learners", "model_dim", "sigma", "prime", "seed")}
    _read_back_as_oracle(tmp_path, Transcript(meta, [rec]))


def _zero_width_transcript(tmp_path):
    g = generate_topology("line", 4)
    rows = len(share_pairs(g)[0])
    empty = np.zeros((4, 0), dtype=np.int64)
    record = RoundRecord(round_index=1, topology=g, k_used=3, lambda2=0.5,
                         bundles=np.zeros((rows, 0), dtype=np.int64), initial_states=empty,
                         encoded_secrets=empty, local_models=np.zeros((4, 0)), rounded=empty,
                         decoded=np.zeros((4, 0)), rounding_margin=0.1)
    path = tmp_path / "written.jsonl"
    Transcript({"n_learners": 4, "prime": 11, "sigma": 0}, [record]).to_jsonl(str(path))
    return path


def test_zero_width_bundles_read_as_blocks(tmp_path):
    # Bundles, states and models of no values still form blocks of the
    # writer's layout, and read back as the oracle reads them.
    _read_as_oracle(_zero_width_transcript(tmp_path))


def test_zero_width_transcript_has_no_coordinate_to_audit(tmp_path, capsys):
    path = _zero_width_transcript(tmp_path)
    assert main(["privacy", "--transcript", str(path), "--adversary", "1"]) == 2
    assert "coordinate 0 is outside the model width 0" in capsys.readouterr().err


def test_transcript_without_a_round_is_refused(tmp_path, capsys):
    # A meta record alone is no run: no round's secrecy was shown.
    lines = _written_lines(2**31 - 1, tmp_path)
    path = tmp_path / "meta_only.jsonl"
    path.write_text(lines[0] + "\n")
    assert_refused(path, "transcript holds no round")
    assert "transcript holds no round" in capsys.readouterr().err


def _where(lines, t, phase, i):
    """The 1-based number of round t's phase record of learner i."""
    head = '{"round": %d, "phase": "%s", "from": %d,' % (t, phase, i)
    return next(k for k, line in enumerate(lines, start=1) if line.startswith(head))


def test_refusal_names_the_line_and_the_record_the_writer_writes_there(tmp_path):
    lines = _written_lines(2**31 - 1, tmp_path)
    path = tmp_path / "variant.jsonl"

    def refused(edited, message):
        path.write_text("\n".join(edited) + "\n")
        assert_refused(path, "^" + re.escape(message) + "$")

    def at(k, line):
        return [*lines[:k - 1], line, *lines[k:]]

    k = _where(lines, 2, "shares", 4)
    compact = json.dumps(json.loads(lines[k - 1]), separators=(",", ":"))
    refused(at(k, compact), f"transcript line {k} is not round 2's shares record of learner 4 "
                            "in the writer's layout")
    k, j = _where(lines, 2, "state0", 3), _where(lines, 2, "state0", 6)
    swapped = at(k, lines[j - 1])
    swapped[j - 1] = lines[k - 1]
    refused(swapped, f"transcript line {k} is not round 2's state0 record of learner 3 "
                     "in the writer's layout")
    k = _where(lines, 3, "result", 9)
    reordered = json.dumps(_reversed_keys(json.loads(lines[k - 1])))
    refused(at(k, reordered), f"transcript line {k} is not round 3's result record of learner 9 "
                              "in the writer's layout")
    k = _where(lines, 1, "audit", 1)
    extra = lines[k - 1][:-1] + ', "extra": 1}'
    refused(at(k, extra), f"transcript line {k} is not round 1's audit record of learner 1 "
                          "in the writer's layout")
    k = _where(lines, 1, "result", 1)
    refused(at(k, lines[k - 1].replace('"from": 1,', '"from": true,')),
            f"transcript line {k} is not round 1's result record of learner 1 "
            "in the writer's layout")
    k = _where(lines, 1, "result", 2)
    deep = lines[k - 1].replace("[", "[" * 10**5, 1).replace("]", "]" * 10**5, 1)
    refused(at(k, deep), f"transcript line {k} is not round 1's result record of learner 2 "
                         "in the writer's layout")
    k = _where(lines, 1, "audit", 9)
    refused([*lines[:k], "", *lines[k:]],
            f"transcript line {k + 1} is not a topology record in the writer's layout")
    k = _where(lines, 3, "audit", 5)
    refused(lines[:k], f"transcript ends after line {k}, before round 3's audit record "
                       "of learner 6")
    refused([lines[1], lines[0], *lines[2:]], "transcript lacks its meta record on line 1")
    k = _where(lines, 2, "audit", 4)
    ragged = json.loads(lines[k - 1])
    ragged["payload"]["model"].append(0.5)
    refused(at(k, json.dumps(ragged)),
            f"transcript round 2 has records of unequal length: the audit record of learner 4 "
            f"on line {k} holds 4 values, its shares 3")


def test_a_graph_larger_than_the_file_is_refused_before_it_is_built(tmp_path):
    # Two lines of 200 bytes must not make the reader build a graph of a
    # million nodes.
    n = 10**6
    path = tmp_path / "huge.jsonl"
    meta = json.dumps({"meta": {"n_learners": n, "prime": 2**31 - 1, "sigma": 2}})
    topology = ('{"round": 1, "phase": "topology", "payload": {"n_nodes": %d, "edges": [[1, 2]], '
                '"k_used": 1, "lambda2": 0.5, "rounding_margin": 0.1}}' % n)
    path.write_text(meta + "\n" + topology + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^transcript ends after line 2, before the records "
                                             "of round 1's 1000000 learners$"):
            Transcript.from_jsonl(str(path))
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def test_a_repeated_round_is_refused(tmp_path):
    lines = _written_lines(11, tmp_path)
    round1 = lines[1:_where(lines, 2, "shares", 1) - 1]
    path = tmp_path / "variant.jsonl"
    path.write_text("\n".join([*lines, *round1]) + "\n")
    assert_refused(path, "transcript round 1 repeats its topology record")


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
        item = "0" if width is None else _list_layout(width, "0")
        zeros = "".join(_list_layout(count, item) for count in counts)
        got = _int_text("".join(texts).encode(), zeros.encode())
        want = _kernel_reference(texts, counts, width)
        if want is None:
            assert got is None, texts
            refused += 1
        else:
            assert got is not None and got.dtype == np.int64 and got.tolist() == want, texts
            accepted += 1
    assert accepted > 300 and refused > 300


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
    # A --trajectories transcript reads back as the oracle reads it, and as
    # the same transcript without its consensus lines, with no json.loads
    # call spent on them; states include every float layout json.dumps
    # writes.
    cfg = ProtocolConfig.from_json_file(str(ROOT / "configs" / "demo.json"))
    transcript = run_training(cfg, record_trajectory=True).transcript
    traj = transcript.rounds[0].state_trajectory
    traj[1, 0, :3] = [float("nan"), float("-inf"), -0.0]
    traj[1, 1, :3] = [1e-05, 1.5e300, float("inf")]
    with_path, without_path = tmp_path / "with.jsonl", tmp_path / "without.jsonl"
    transcript.to_jsonl(str(with_path))
    transcript.to_jsonl(str(without_path), include_consensus=False)
    assert with_path.read_text().count('"phase": "consensus"') > 0
    _read_as_oracle(with_path)
    calls = _counting_json_loads(monkeypatch)
    without = Transcript.from_jsonl(str(without_path))
    bare = calls[0]
    assert_same_rounds(Transcript.from_jsonl(str(with_path)), without)
    assert calls[0] == 2 * bare


def _with_consensus(lines, record):
    """(lines with record after round 1's state0 block, the record's line
    number)."""
    k = _where(lines, 1, "state0", 9)
    return [*lines[:k], record, *lines[k:]], k + 1


def test_consensus_records_in_other_layouts_are_refused(tmp_path):
    # Only a consensus line of its round in the writer's layout is skipped:
    # any other stands where the round's first result record belongs.
    lines = _written_lines(11, tmp_path)
    record = {"round": 1, "phase": "consensus", "k": 1, "from": 2, "to": [1, 3],
              "payload": [0.5, -1e-05, float("nan")]}
    written = json.dumps(record)
    path = tmp_path / "variant.jsonl"
    variants = {
        "as_written": (written, True),
        "compact": (json.dumps(record, separators=(",", ":")), False),
        "reordered_keys": (json.dumps(_reversed_keys(record)), False),
        "other_round": (written.replace('"round": 1', '"round": 2'), False),
        "own_round": (written.replace('"round": 1', '"round": 4'), False),
        "malformed_number": (written.replace("0.5", "0.5.5"), False),
        "leading_zero": (written.replace("0.5", "05"), False),
        "trailing_comma": (written.replace("NaN]", "NaN,]"), False),
        "not_json": (written[:-1], False),
    }
    for name, (line, readable) in variants.items():
        edited, k = _with_consensus(lines, line)
        path.write_text("\n".join(edited) + "\n")
        if readable:
            _read_as_oracle(path)
        else:
            assert_refused(path, f"^transcript line {k} is not round 1's result record of "
                                 "learner 1 in the writer's layout$")


def test_consensus_to_lists_meet_the_strict_pattern(tmp_path):
    # A consensus to list is captured loosely and checked once per distinct
    # text. A list json.dumps would not write is refused, also after a
    # valid list of the same learner was admitted.
    lines = _written_lines(11, tmp_path)
    record = {"round": 1, "phase": "consensus", "k": 1, "from": 2, "to": [1, 3],
              "payload": [0.5, -1e-05]}
    written = json.dumps(record)
    path = tmp_path / "variant.jsonl"
    variants = {
        "as_written": ("[1, 3]", True),
        "empty": ("[]", True),
        "leading_zero": ("[01, 3]", False),
        "trailing_comma": ("[1, 3, ]", False),
        "empty_id": ("[1, , 3]", False),
        "unclosed": ("[1, 3", False),
        "compact": ("[1,3]", False),
        "spaced": ("[ 1, 3 ]", False),
        "negative_id": ("[-1, 3]", False),
        "nested": ("[[1], 3]", False),
    }
    for name, (to, readable) in variants.items():
        edited, k = _with_consensus(lines, "\n".join([written, written.replace("[1, 3]", to),
                                                      written]))
        path.write_text("\n".join(edited) + "\n")
        if readable:
            _read_as_oracle(path)
        else:
            assert_refused(path, f"^transcript line {k + 1} is not round 1's result record of "
                                 "learner 1 in the writer's layout$")


def test_no_shares_or_state0_line_meets_json_loads(tmp_path, monkeypatch):
    # json.loads reads the meta line and, per round, the topology scalars
    # and the result and audit blocks whole: no shares or state0 line, also
    # when one is refused.
    lines = _written_lines(2**31 - 1, tmp_path)
    seen = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, *a, **k: seen.append(s) or loads(s, *a, **k))

    def read(path):
        seen.clear()
        with contextlib.suppress(ValueError):
            Transcript.from_jsonl(str(path))
        return [s.decode() if isinstance(s, bytes) else s for s in seen]

    texts = read(tmp_path / "written.jsonl")
    kinds = []
    for text in texts:
        blocks = [phase for phase in ("result", "audit") if text.count(f'"phase": "{phase}"') == 9]
        kinds += blocks or ["meta" if text.startswith('{"meta"') else "scalars"]
    assert kinds == ["meta"] + ["scalars", "result", "audit"] * 3
    assert all(text.startswith('{"k_used": ') for text, kind in zip(texts, kinds)
               if kind == "scalars")
    path = tmp_path / "variant.jsonl"
    for phase in ("shares", "state0"):
        k = _where(lines, 2, phase, 4)
        compact = json.dumps(json.loads(lines[k - 1]), separators=(",", ":"))
        path.write_text("\n".join([*lines[:k - 1], compact, *lines[k:]]) + "\n")
        with pytest.raises(ValueError, match=f"line {k} is not round 2's {phase} record"):
            Transcript.from_jsonl(str(path))
        assert not any(re.search(r'"phase": ?"(shares|state0)"', text) for text in read(path))
