import csv
import json
import math
import pathlib

import pytest

from ppdfl.cli import main
from ppdfl.field import next_prime
from ppdfl.protocol import ProtocolConfig, run_training
from ppdfl.topology import contraction_radius, generate_topology, mh_weights
from ppdfl.transcript import Transcript


def write_config(tmp_path, **overrides):
    raw = {
        "n_learners": 6,
        "model_dim": 2,
        "sigma": 2,
        "prime": next_prime(1 + 2 * 100 * 6 * 4),
        "rounds": 2,
        "k_policy": "auto",
        "weights": "uniform",
        "theta_max": 4.0,
        "seed": 11,
        "schedule": {"kind": "random_connected", "avg_degree": 3.0},
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_simulate_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "decoded_models.csv").exists()
    assert (out / "transcript.jsonl").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_deviation"] == 0.0
    # Each round's share phase times the draw of its shares within it.
    for row in summary["rounds"]:
        timings = row["timings"]
        assert set(timings) == {"weights", "draw", "shares", "masking", "averaging", "readback"}
        assert 0.0 <= timings["draw"] <= timings["shares"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert len(manifest["schedule_digest"]) == 64
    with open(out / "decoded_models.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["round", "learner_id", "coordinate", "value"]
    assert len(rows) == 1 + 2 * 6 * 2


def test_simulate_manifest_digests_each_graph_once(tmp_path, monkeypatch):
    import hashlib

    from ppdfl import topology

    calls = []
    generate = topology.generate_topology

    def counting(*args, **kwargs):
        calls.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(topology, "generate_topology", counting)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert len(calls) == 2  # one per round, run and manifest together
    manifest = json.loads((out / "manifest.json").read_text())
    assert "schedule" not in manifest["config"]
    assert manifest["config"]["rounds"] == 2
    schedule = ProtocolConfig.from_json_file(cfg).schedule.to_json(2)
    blob = json.dumps(schedule, separators=(",", ":")).encode()
    assert manifest["schedule_digest"] == hashlib.sha256(blob).hexdigest()


def test_simulate_reproducible_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["simulate", "--config", cfg, "--out", str(out), "--trajectories"]) == 0
    for name in ("decoded_models.csv", "trajectories.csv", "transcript.jsonl"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_simulate_csv_cells_are_plain_float_reprs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--trajectories"]) == 0
    rounds = run_training(ProtocolConfig.from_json_file(cfg), record_trajectory=True)
    rounds = rounds.transcript.rounds
    with open(out / "decoded_models.csv", newline="") as fh:
        decoded = list(csv.reader(fh))
    assert len(decoded) == 1 + 2 * 6 * 2
    for t, i, l, value in decoded[1:]:
        recorded = rounds[int(t) - 1].decoded[int(i) - 1, int(l)]
        assert value == repr(float(value)) and float(value) == recorded
    with open(out / "trajectories.csv", newline="") as fh:
        states = list(csv.reader(fh))
    assert len(states) == 1 + sum(rec.state_trajectory.size for rec in rounds)
    for t, k, i, l, value in states[1:]:
        recorded = rounds[int(t) - 1].state_trajectory[int(k), int(i) - 1, int(l)]
        assert value == repr(float(value)) and float(value) == recorded
    # Every row ends in csv's terminator, as csv.writer writes it.
    for name, rows in (("decoded_models.csv", decoded), ("trajectories.csv", states)):
        data = (out / name).read_bytes()
        assert data.count(b"\r\n") == data.count(b"\n") == len(rows)


def test_simulate_manifest_reports_write_seconds(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    timings = json.loads((out / "manifest.json").read_text())["timings"]
    assert timings["write_seconds"] >= 0.0
    assert timings["total_seconds"] >= 0.0


def test_simulate_trajectories_flag(tmp_path):
    cfg = write_config(tmp_path, rounds=1, n_learners=4,
                       prime=next_prime(1 + 2 * 100 * 4 * 4))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--trajectories"]) == 0
    with open(out / "trajectories.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["round", "iteration", "learner_id", "coordinate", "value"]


def test_simulate_rejects_tiny_prime(tmp_path, capsys):
    cfg = write_config(tmp_path, prime=5)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    assert "bound violation" in capsys.readouterr().err


def test_simulate_rejects_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, weights=[0.5, 0.5])
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


RING6 = [[i, i % 6 + 1] for i in range(1, 7)]
TWO_TRIANGLES = [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]]


def test_simulate_refuses_disconnected_scheduled_round_up_front(tmp_path, capsys):
    cfg = write_config(tmp_path, rounds=3, schedule=[RING6, RING6, TWO_TRIANGLES])
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "round 3 graph is disconnected" in captured.err
    assert captured.out == ""
    assert not out.exists()
    # A disconnected graph past the last round is never run.
    cfg = write_config(tmp_path, rounds=2, schedule=[RING6, RING6, TWO_TRIANGLES])
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0


def test_bounds_refuses_disconnected_schedule_file_round_up_front(tmp_path, capsys):
    (tmp_path / "schedule.json").write_text(json.dumps([RING6, RING6, TWO_TRIANGLES]))
    cfg = write_config(tmp_path, rounds=3, schedule="schedule.json")
    assert main(["bounds", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no table rows
    assert "round 3 graph is disconnected" in captured.err


def test_spectral_reference_values(capsys):
    assert main(["spectral", "--topology", "complete", "--n", "100",
                 "--kmax", "3"]) == 0
    out = capsys.readouterr().out
    lam2 = float(out.splitlines()[0].split(",")[1])
    assert abs(lam2) < 1e-9

    assert main(["spectral", "--topology", "star", "--n", "100"]) == 0
    lam2 = float(capsys.readouterr().out.splitlines()[0].split(",")[1])
    assert abs(lam2 - 0.99) < 1e-6

    assert main(["spectral", "--topology", "line", "--n", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    lam2 = float(lines[0].split(",")[1])
    assert abs(lam2 - 0.9997) < 1e-4
    # decay table rows are (k, N * radius^k)
    assert lines[1] == "k,averaging_error_norm"
    k0 = float(lines[2].split(",")[1])
    assert abs(k0 - 100.0) < 1e-9
    # N * |lambda2|^k is N * radius^k: the contraction radius of a connected
    # MH matrix is |lambda2|
    radius = contraction_radius(mh_weights(generate_topology("line", 100)))
    k2 = float(lines[4].split(",")[1])
    assert k2 == 100 * abs(lam2) ** 2
    assert abs(k2 - 100 * radius ** 2) < 1e-9


def test_spectral_random_topology_flag(capsys):
    for seed in ("3", "-3"):
        assert main(["spectral", "--topology", "random:4", "--n", "20",
                     "--seed", seed, "--kmax", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("lambda2,")


def test_spectral_refuses_negative_kmax(capsys):
    assert main(["spectral", "--topology", "line", "--n", "10", "--kmax", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no table
    assert "--kmax" in captured.err
    # Depth 0 is a table of one row, k = 0.
    assert main(["spectral", "--topology", "line", "--n", "10", "--kmax", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["k,averaging_error_norm", "0,10.0"]


def test_bounds_pass_and_fail(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["bounds", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "verdict=pass" in out
    cfg_bad = write_config(tmp_path, theta_max=1e6)
    assert main(["bounds", "--config", cfg_bad]) == 3


def test_bounds_reports_admissible_theta(tmp_path, capsys):
    cfg = write_config(tmp_path, n_learners=100, prime=1020431, theta_max=51.02,
                       schedule={"kind": "complete"})
    assert main(["bounds", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "51.0215" in out
    assert out.splitlines()[2].endswith(",1")  # complete graph needs K=1


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("config", ["demo", "large_random", "random_200", "sparse_1k"])
def test_bounds_rows_are_the_run_rounds(tmp_path, capsys, config):
    # bounds prints the plans the run makes: every row must be what that
    # round of the run used.
    if config in ("demo", "large_random"):
        path = str(CONFIGS / f"{config}.json")
    elif config == "random_200":
        path = write_config(tmp_path, n_learners=200, prime=2**31 - 1, rounds=3,
                            schedule={"kind": "random_connected", "avg_degree": 4.0})
    else:  # the shape of the benchmark's sparse_1k workload
        path = write_config(tmp_path, n_learners=1000, model_dim=16, prime=2**31 - 1,
                            rounds=4, theta_max=50.0,
                            schedule={"kind": "random_connected", "avg_degree": 4.0,
                                      "seed": 11})
    assert main(["bounds", "--config", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = lines[lines.index("round,lambda2,min_iterations") + 1:]
    records = run_training(ProtocolConfig.from_json_file(path)).transcript.rounds
    assert rows == [f"{r.round_index},{r.lambda2!r},{r.k_used}" for r in records]


def test_simulate_refuses_short_fixed_k_before_round_1(tmp_path, capsys, monkeypatch):
    # large_random's round 6 needs K=12, rounds 1-5 need 11. The plans
    # are made before round 1, so no round runs and nothing is written.
    from ppdfl import protocol

    raw = json.loads((CONFIGS / "large_random.json").read_text())
    path = tmp_path / "k11.json"
    path.write_text(json.dumps({**raw, "k_policy": 11}))
    entered = []
    monkeypatch.setattr(protocol, "execute_round", lambda *a, **k: entered.append(a))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    assert entered == []
    assert "round 6: configured K=11 below required 12" in capsys.readouterr().err
    assert not (out / "transcript.jsonl").exists()
    assert not list(out.glob("*.csv"))
    # bounds prints every plan and names the same round.
    assert main(["bounds", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "round 6: configured K=11 below required 12\n"
    rows = captured.out.splitlines()[2:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["11"] * 5 + ["12"]  # what each round needs


def test_privacy_ring_single_adversary_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, schedule={"kind": "complete"})
    report = tmp_path / "report.json"
    assert main(["privacy", "--config", cfg, "--adversary", "1",
                 "--out", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["perfectly_secret"] is True
    assert all(r["secrecy_verdict"] for r in data["rounds"])


def test_privacy_star_hub_adversary_leaks(tmp_path, capsys):
    cfg = write_config(tmp_path, schedule={"kind": "star"})
    report = tmp_path / "report.json"
    assert main(["privacy", "--config", cfg, "--adversary", "1",
                 "--out", str(report)]) == 4
    data = json.loads(report.read_text())
    assert data["perfectly_secret"] is False
    leaf_singletons = [[i] for i in range(2, 7)]
    assert data["rounds"][0]["surrounded_sets"] == leaf_singletons
    leaked = data["rounds"][0]["leaked_functionals"]
    assert any(f["kind"] == "individual" for f in leaked)


def test_privacy_summary_line_does_not_list_members(tmp_path, capsys):
    # Each round's line counts the surrounded sets and gives their sizes;
    # the members stay in the --out report. On a complete graph, coalition
    # {1, 5} surrounds the other N - 2 learners, so only the digits of N - 2
    # tell two sizes of N apart.
    lines = {}
    for n in (10, 300):
        cfg = write_config(tmp_path, n_learners=n, rounds=1, prime=next_prime(1 + 2 * 100 * n * 4),
                           schedule={"kind": "complete"})
        report = tmp_path / "report.json"
        assert main(["privacy", "--config", cfg, "--adversary", "1,5", "--out", str(report)]) == 0
        (lines[n],) = [line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("round 1:")]
        (surrounded,) = json.loads(report.read_text())["rounds"][0]["surrounded_sets"]
        assert surrounded == [i for i in range(2, n + 1) if i != 5]
        assert f"surrounded=1 sizes=[{n - 2}] " in lines[n]
    assert len(lines[300]) - len(lines[10]) == len("298") - len("8")


def test_privacy_empty_adversary_ok(tmp_path):
    cfg = write_config(tmp_path, schedule={"kind": "line"})
    assert main(["privacy", "--config", cfg, "--adversary", ""]) == 0


def test_privacy_from_transcript_file(tmp_path):
    cfg = write_config(tmp_path, schedule={"kind": "star"})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["privacy", "--transcript", str(out / "transcript.jsonl"),
                 "--adversary", "1"]) == 4


def test_privacy_refuses_result_rows_that_differ(tmp_path, capsys):
    # Every learner of a run reads back the same result; a transcript in
    # which learner 5's round-1 result differs is refused, not audited.
    cfg = str(pathlib.Path(__file__).resolve().parents[1] / "configs" / "demo.json")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    path = out / "transcript.jsonl"
    assert main(["privacy", "--transcript", str(path), "--adversary", "1,5"]) == 4
    lines = path.read_text().splitlines()
    for k, line in enumerate(lines):
        record = json.loads(line)
        if (record.get("round"), record.get("phase"), record.get("from")) == (1, "result", 5):
            record["payload"][0] = 2.5
            lines[k] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["privacy", "--transcript", str(path), "--adversary", "1,5"]) == 2
    assert "round 1" in capsys.readouterr().err


def test_bench_single_point_slope_undefined(capsys):
    assert main(["bench", "--sweep", "iterations", "--points", "50",
                 "--reps", "1"]) == 0
    assert "slope undefined" in capsys.readouterr().out


def test_bench_iteration_sweep_fit(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sweep", "iterations",
                 "--points", "50,100,200,400", "--reps", "2",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "fit: slope=" in text
    assert out.exists()


# Run in a fresh interpreter: records the thread variables the moment
# numpy is first imported, which is when BLAS reads its thread count.
_NUMPY_IMPORT_PROBE = """
import json, os, sys
seen = {}
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((v, os.environ.get(v)) for v in sys.argv[1:])
sys.meta_path.insert(0, Probe())
from ppdfl.cli import main
assert main(["spectral", "--topology", "complete", "--n", "10", "--kmax", "1"]) == 0
print(json.dumps(seen))
"""


def test_thread_cap_env():
    import os
    import subprocess
    import sys

    import ppdfl

    names = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"]
    env = {k: v for k, v in os.environ.items() if k not in names}
    src = str(pathlib.Path(ppdfl.__file__).resolve().parents[1])
    env.update(PPDFL_THREADS="2", OMP_NUM_THREADS="3",
               PYTHONPATH=os.pathsep.join([src, env.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _NUMPY_IMPORT_PROBE, *names],
                         env=env, capture_output=True, text=True, check=True)
    seen = json.loads(run.stdout.splitlines()[-1])
    # Set before numpy loads; a thread variable already set is kept.
    assert seen == {"OMP_NUM_THREADS": "3", "OPENBLAS_NUM_THREADS": "2",
                    "MKL_NUM_THREADS": "2", "NUMEXPR_NUM_THREADS": "2"}


def _transcript_lines(tmp_path):
    cfg = write_config(tmp_path, rounds=1, schedule={"kind": "star"})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return (out / "transcript.jsonl").read_text().splitlines()


def test_privacy_transcript_without_meta_exits_config(tmp_path, capsys):
    lines = _transcript_lines(tmp_path)
    no_meta = tmp_path / "no_meta.jsonl"
    no_meta.write_text("\n".join(lines[1:]) + "\n")
    assert main(["privacy", "--transcript", str(no_meta), "--adversary", "1"]) == 2
    assert "meta" in capsys.readouterr().err
    meta = json.loads(lines[0])
    del meta["meta"]["sigma"]
    no_sigma = tmp_path / "no_sigma.jsonl"
    no_sigma.write_text("\n".join([json.dumps(meta), *lines[1:]]) + "\n")
    assert main(["privacy", "--transcript", str(no_sigma), "--adversary", "1"]) == 2
    assert "sigma" in capsys.readouterr().err


def test_privacy_transcript_meta_without_n_learners_exits_config(tmp_path, capsys):
    lines = _transcript_lines(tmp_path)
    meta = json.loads(lines[0])
    del meta["meta"]["n_learners"]
    path = tmp_path / "no_n_learners.jsonl"
    path.write_text("\n".join([json.dumps(meta), *lines[1:]]) + "\n")
    assert main(["privacy", "--transcript", str(path), "--adversary", "1"]) == 2
    assert "n_learners" in capsys.readouterr().err


def _not_record(line, phase=None, learner=None, t=1):
    """The reader's refusal of a line that does not stand as the writer
    writes round t's phase record of learner there (a topology record if
    phase is None)."""
    what = f"round {t}'s {phase} record of learner {learner}" if phase else "a topology record"
    return f"transcript line {line} is not {what} in the writer's layout"


def test_privacy_transcript_message_without_round_exits_config(tmp_path, capsys):
    lines = _transcript_lines(tmp_path)
    msg = json.loads(lines[1])
    del msg["round"]
    path = tmp_path / "no_round.jsonl"
    path.write_text("\n".join([lines[0], json.dumps(msg), *lines[2:]]) + "\n")
    assert main(["privacy", "--transcript", str(path), "--adversary", "1"]) == 2
    assert _not_record(2) in capsys.readouterr().err


def test_privacy_transcript_line_not_an_object_exits_config(tmp_path, capsys):
    lines = _transcript_lines(tmp_path)
    path = tmp_path / "list_line.jsonl"
    path.write_text("\n".join([*lines[:2], "[1, 2]", *lines[2:]]) + "\n")
    assert main(["privacy", "--transcript", str(path), "--adversary", "1"]) == 2
    assert _not_record(3, "shares", 1) in capsys.readouterr().err


def test_privacy_transcript_without_state0_exits_config(tmp_path, capsys):
    lines = _transcript_lines(tmp_path)
    msgs = [json.loads(ln) for ln in lines]
    kept = [ln for ln, m in zip(lines, msgs) if m.get("phase") != "state0"]
    path = tmp_path / "no_state0.jsonl"
    path.write_text("\n".join(kept) + "\n")
    assert main(["privacy", "--transcript", str(path), "--adversary", "1"]) == 2
    first = next(k for k, m in enumerate(msgs, start=1) if m.get("phase") == "state0")
    assert _not_record(first, "state0", 1) in capsys.readouterr().err
    # One learner's records missing must not read back as zeros.
    for phase in ("state0", "result", "audit"):
        k = next(k for k, m in enumerate(msgs) if (m.get("phase"), m.get("from")) == (phase, 3))
        path = tmp_path / f"no_{phase}_of_3.jsonl"
        path.write_text("\n".join(lines[:k] + lines[k + 1:]) + "\n")
        assert main(["privacy", "--transcript", str(path), "--adversary", "1"]) == 2
        assert _not_record(k + 1, phase, 3) in capsys.readouterr().err


def _demo_messages(tmp_path):
    """Messages of a configs/demo.json run; its round-1 graph has the edges
    1-7 and 2-3 and no edge 1-8."""
    config = pathlib.Path(__file__).resolve().parents[1] / "configs" / "demo.json"
    out = tmp_path / "demo"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "transcript.jsonl").read_text().splitlines()
    return [json.loads(ln) for ln in lines]


def _per_pair(msgs):
    """msgs with every shares record split into one record per (sender,
    receiver) pair, the layout of transcripts before version 0.3.0."""
    out = []
    for m in msgs:
        if m.get("phase") == "shares":
            out += [{**m, "to": j, "payload": list(row)}
                    for j, row in zip(m["to"], m["payload"])]
        else:
            out.append(m)
    return out


def _bundle_index(msgs, i, j):
    return next(k for k, m in enumerate(msgs)
                if (m.get("round"), m.get("phase"), m.get("from"), m.get("to"))
                == (1, "shares", i, j))


def _shares_record(msgs, i):
    """Learner i's round-1 shares record: its receivers and their bundles."""
    return next(m for m in msgs
                if (m.get("round"), m.get("phase"), m.get("from")) == (1, "shares", i))


def _line_of(msgs, msg):
    """The line number of msg in the transcript of msgs."""
    return next(k for k, m in enumerate(msgs, start=1) if m is msg)


def _privacy_error(tmp_path, capsys, msgs, separators=None):
    path = tmp_path / "edited.jsonl"
    path.write_text("".join(json.dumps(m, separators=separators) + "\n" for m in msgs))
    capsys.readouterr()
    assert main(["privacy", "--transcript", str(path), "--adversary", "1,5"]) == 2
    return capsys.readouterr().err


def test_privacy_transcript_without_share_bundle_exits_config(tmp_path, capsys):
    msgs = _demo_messages(tmp_path)
    legacy = _per_pair(msgs)
    del legacy[_bundle_index(legacy, 2, 3)]
    err = _privacy_error(tmp_path, capsys, legacy)
    assert _not_record(3, "shares", 1) in err
    block = _shares_record(msgs, 2)
    k = block["to"].index(3)
    del block["to"][k], block["payload"][k]
    err = _privacy_error(tmp_path, capsys, msgs)
    assert _not_record(_line_of(msgs, block), "shares", 2) in err


def test_privacy_transcript_duplicate_share_bundle_exits_config(tmp_path, capsys):
    msgs = _demo_messages(tmp_path)
    legacy = _per_pair(msgs)
    k = _bundle_index(legacy, 2, 3)
    legacy.insert(k + 1, {**legacy[k], "payload": [v + 1 for v in legacy[k]["payload"]]})
    err = _privacy_error(tmp_path, capsys, legacy)
    assert _not_record(3, "shares", 1) in err
    # Repeated within one block, and across two records of one sender.
    block = _shares_record(msgs, 2)
    row = block["payload"][block["to"].index(3)]
    repeat = {**block, "to": [3], "payload": [[v + 1 for v in row]]}
    within = {**block, "to": block["to"] + [3], "payload": block["payload"] + repeat["payload"]}
    line = _line_of(msgs, block)
    k = line - 1
    err = _privacy_error(tmp_path, capsys, msgs[:k] + [within] + msgs[k + 1:])
    assert _not_record(line, "shares", 2) in err
    err = _privacy_error(tmp_path, capsys, msgs[:k] + [block, repeat] + msgs[k + 1:])
    assert _not_record(line + 1, "shares", 3) in err


def test_privacy_transcript_bundle_between_non_neighbours_exits_config(tmp_path, capsys):
    msgs = _demo_messages(tmp_path)
    legacy = _per_pair(msgs)
    k = _bundle_index(legacy, 1, 7)
    legacy.insert(k + 1, {**legacy[k], "to": 8})
    err = _privacy_error(tmp_path, capsys, legacy)
    assert _not_record(3, "shares", 1) in err
    block = _shares_record(msgs, 1)
    block["to"].append(8)
    block["payload"].append(block["payload"][-1])
    err = _privacy_error(tmp_path, capsys, msgs)
    assert _not_record(_line_of(msgs, block), "shares", 1) in err


def test_privacy_transcript_share_bundle_of_wrong_length_exits_config(tmp_path, capsys):
    msgs = _demo_messages(tmp_path)
    legacy = _per_pair(msgs)
    k = _bundle_index(legacy, 2, 3)
    legacy[k]["payload"] = legacy[k]["payload"][:-1]
    err = _privacy_error(tmp_path, capsys, legacy)
    assert _not_record(3, "shares", 1) in err
    block = _shares_record(msgs, 2)
    k = block["to"].index(3)
    block["payload"][k] = block["payload"][k][:-1]
    err = _privacy_error(tmp_path, capsys, msgs)
    assert _not_record(_line_of(msgs, block), "shares", 2) in err


def test_privacy_transcript_shares_record_of_unequal_lists_exits_config(tmp_path, capsys):
    msgs = _demo_messages(tmp_path)
    block = _shares_record(msgs, 2)
    del block["payload"][0]
    err = _privacy_error(tmp_path, capsys, msgs)
    assert _not_record(_line_of(msgs, block), "shares", 2) in err


def test_privacy_transcript_share_receiver_not_an_integer_exits_config(tmp_path, capsys):
    msgs = _demo_messages(tmp_path)
    block = _shares_record(msgs, 2)
    k = block["to"].index(3)
    for bad in (3.5, "3", None, [3]):
        block["to"][k] = bad
        err = _privacy_error(tmp_path, capsys, msgs)
        assert _not_record(_line_of(msgs, block), "shares", 2) in err


def _changed(phase, payload):
    if phase == "audit":
        return {**payload, "secret": [v + 1 for v in payload["secret"]]}
    return [v + 1 for v in payload]


@pytest.mark.parametrize("phase", ["state0", "result", "audit"])
def test_privacy_transcript_repeated_record_exits_config(tmp_path, capsys, phase):
    msgs = _demo_messages(tmp_path)
    k, first = next((k, m) for k, m in enumerate(msgs)
                    if (m.get("round"), m.get("phase"), m.get("from")) == (1, phase, 3))
    repeats = [{**first, "payload": _changed(phase, first["payload"])}, first]
    if phase == "state0":
        # A per-edge state0 record of the layout before version 0.3.0.
        repeats.append({**first, "to": first["to"][0]})
    for repeat in repeats:
        err = _privacy_error(tmp_path, capsys, msgs[:k + 1] + [repeat] + msgs[k + 1:])
        assert _not_record(k + 2, phase, 4) in err


def test_privacy_transcript_repeated_topology_exits_config(tmp_path, capsys):
    msgs = _demo_messages(tmp_path)
    k, first = next((k, m) for k, m in enumerate(msgs)
                    if (m.get("round"), m.get("phase")) == (1, "topology"))
    repeat = {**first, "payload": {**first["payload"], "k_used": 1}}
    err = _privacy_error(tmp_path, capsys, msgs[:k + 1] + [repeat] + msgs[k + 1:])
    assert _not_record(k + 2, "shares", 1) in err
    # A whole round repeated, after the last.
    end = next(j for j, m in enumerate(msgs) if m.get("round") == 2)
    err = _privacy_error(tmp_path, capsys, msgs + msgs[k:end])
    assert "round 1 repeats its topology record" in err


def _record(msgs, phase, i):
    return next(m for m in msgs
                if (m.get("round"), m.get("phase"), m.get("from")) == (1, phase, i))


# A value that is not a JSON integer in [0, p): p=16007 in configs/demo.json.
_NON_RESIDUES = [2**70, 1.5, "7", True, 16007 + 3, -4]


def _written_as_digits(value):
    """Whether the writer's layout holds value: at most 18 digits."""
    return type(value) is int and 0 <= value < 10**18


@pytest.mark.parametrize("layout", ["block", "per_pair"])
@pytest.mark.parametrize("value", _NON_RESIDUES)
def test_privacy_transcript_share_value_not_a_residue_exits_config(
        tmp_path, capsys, value, layout):
    # Written digits outside [0, p) name the learner; any other value is
    # not in the writer's layout, and neither is a per-pair record.
    msgs = _demo_messages(tmp_path)
    block = _shares_record(msgs, 2)
    block["payload"][block["to"].index(3)][0] = value
    line = _line_of(msgs, block)
    if layout == "per_pair":
        msgs = _per_pair(msgs)
    err = _privacy_error(tmp_path, capsys, msgs)
    if layout == "per_pair":
        assert _not_record(3, "shares", 1) in err
    elif _written_as_digits(value):
        assert ("round 1 shares record of learner 2 holds a value that is not an "
                "integer in [0, 16007)") in err
    else:
        assert _not_record(line, "shares", 2) in err


@pytest.mark.parametrize("phase", ["state0", "audit"])
@pytest.mark.parametrize("value", [*_NON_RESIDUES, 16007])
def test_privacy_transcript_state_or_secret_not_a_residue_exits_config(
        tmp_path, capsys, phase, value):
    msgs = _demo_messages(tmp_path)
    record = _record(msgs, phase, 5)
    values = record["payload"]["secret"] if phase == "audit" else record["payload"]
    values[1] = value
    err = _privacy_error(tmp_path, capsys, msgs)
    if phase == "state0" and not _written_as_digits(value):
        assert _not_record(_line_of(msgs, record), "state0", 5) in err
    else:
        assert (f"round 1 {phase} record of learner 5 holds a value that is not an "
                "integer in [0, 16007)") in err


@pytest.mark.parametrize("key, value", [
    ("prime", 16007.0), ("prime", True), ("prime", "16007"), ("prime", 1.5),
    ("sigma", 2.0), ("sigma", False), ("n_learners", 8.0), ("n_learners", None),
])
def test_privacy_transcript_meta_field_not_an_integer_exits_config(
        tmp_path, capsys, key, value):
    msgs = _demo_messages(tmp_path)
    msgs[0]["meta"][key] = value
    err = _privacy_error(tmp_path, capsys, msgs)
    assert f"transcript meta record has {key}={value!r}, not an integer" in err


@pytest.mark.parametrize("key, value, error", [
    ("prime", 1, "prime=1, outside [2, 2**31)"),
    ("prime", 2**31 + 11, f"prime={2**31 + 11}, outside [2, 2**31)"),
    ("sigma", -1, "sigma=-1, below 0"),
    ("sigma", 309, "sigma=309, above 308"),
    ("sigma", 400, "sigma=400, above 308"),
])
def test_privacy_transcript_meta_field_out_of_range_exits_config(
        tmp_path, capsys, key, value, error):
    msgs = _demo_messages(tmp_path)
    msgs[0]["meta"][key] = value
    assert f"transcript meta record has {error}" in _privacy_error(tmp_path, capsys, msgs)


def _round1_topology(msgs):
    return next(m for m in msgs if (m.get("round"), m.get("phase")) == (1, "topology"))


@pytest.mark.parametrize("n_nodes", ["8", 8.0])
def test_privacy_transcript_topology_n_nodes_not_an_integer_exits_config(
        tmp_path, capsys, n_nodes):
    msgs = _demo_messages(tmp_path)
    _round1_topology(msgs)["payload"]["n_nodes"] = n_nodes
    err = _privacy_error(tmp_path, capsys, msgs)
    assert _not_record(2) in err


def test_privacy_transcript_topology_edges_null_exits_config(tmp_path, capsys):
    msgs = _demo_messages(tmp_path)
    _round1_topology(msgs)["payload"]["edges"] = None
    err = _privacy_error(tmp_path, capsys, msgs)
    assert _not_record(2) in err


@pytest.mark.parametrize("n_learners", [9, 7])
def test_privacy_transcript_meta_n_learners_differs_from_topology_exits_config(
        tmp_path, capsys, n_learners):
    msgs = _demo_messages(tmp_path)
    msgs[0]["meta"]["n_learners"] = n_learners
    err = _privacy_error(tmp_path, capsys, msgs)
    assert (f"round 1 topology has 8 nodes but the meta record has "
            f"n_learners={n_learners}") in err


# The writer's layout, and a compact one, refused at its topology line.
_LAYOUTS = {"written": None, "compact": (",", ":")}


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("phase", ["result", "audit"])
@pytest.mark.parametrize("value", [
    pytest.param("1.35", id="string"), pytest.param(True, id="boolean"),
    pytest.param(None, id="null"), pytest.param([1.5], id="list"),
    pytest.param({"x": 1.5}, id="object"), pytest.param(10**400, id="integer_beyond_float"),
])
def test_privacy_transcript_model_value_not_a_number_exits_config(
        tmp_path, capsys, value, phase, layout):
    msgs = _demo_messages(tmp_path)
    payload = _record(msgs, phase, 5)["payload"]
    (payload["model"] if phase == "audit" else payload)[1] = value
    err = _privacy_error(tmp_path, capsys, msgs, _LAYOUTS[layout])
    if layout == "compact":
        assert _not_record(2) in err
    else:
        assert f"transcript round 1 has a {phase} value that is not a number" in err


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("key, value, kind", [
    ("k_used", "12", "a non-negative integer"), ("k_used", 1.5, "a non-negative integer"),
    ("k_used", [1], "a non-negative integer"), ("k_used", True, "a non-negative integer"),
    ("k_used", -1, "a non-negative integer"), ("lambda2", "x", "a number"),
    ("lambda2", None, "a number"), ("rounding_margin", [0.5], "a number"),
    ("rounding_margin", False, "a number"),
])
def test_privacy_transcript_topology_scalar_of_wrong_type_exits_config(
        tmp_path, capsys, key, value, kind, layout):
    msgs = _demo_messages(tmp_path)
    _round1_topology(msgs)["payload"][key] = value
    err = _privacy_error(tmp_path, capsys, msgs, _LAYOUTS[layout])
    if layout == "compact":
        assert _not_record(2) in err
    else:
        assert f"transcript round 1 topology record has {key}={value!r}, not {kind}" in err


def test_privacy_transcript_topology_scalars_read_as_written(tmp_path):
    # An integer lambda2 and a NaN margin, as the writer writes an unknown
    # one, are numbers.
    msgs = _demo_messages(tmp_path)
    payload = _round1_topology(msgs)["payload"]
    payload.update(k_used=0, lambda2=1, rounding_margin=float("nan"))
    path = tmp_path / "edited.jsonl"
    path.write_text("".join(json.dumps(m) + "\n" for m in msgs))
    record = Transcript.from_jsonl(str(path)).rounds[0]
    assert record.k_used == 0
    assert record.lambda2 == 1
    assert math.isnan(record.rounding_margin)


@pytest.mark.parametrize("missing", ["lambda2", "rounding_margin"])
def test_privacy_transcript_topology_without_a_scalar_exits_config(tmp_path, capsys, missing):
    # Transcripts written before the margin was recorded lack it: refused.
    msgs = _demo_messages(tmp_path)
    del _round1_topology(msgs)["payload"][missing]
    assert _not_record(2) in _privacy_error(tmp_path, capsys, msgs)


@pytest.mark.parametrize("command", ["bounds", "simulate"])
def test_config_sigma_beyond_float_scale_exits_config(tmp_path, capsys, command):
    # The modulus bound holds, but 10**309 is not a finite float: refused
    # when the config loads, before any round runs.
    cfg = write_config(tmp_path, sigma=309, theta_max=1e-307, prime=16007)
    args = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    assert main([command, "--config", cfg, *args]) == 2
    assert "sigma=309, above 308" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("phase, edit", [
    pytest.param("result", {"round": "x"}, id="round_a_string"),
    pytest.param("result", {"round": [1]}, id="round_a_list"),
    pytest.param("result", {"from": [1]}, id="from_a_list"),
    pytest.param("topology", {"round": 99, "payload": 5}, id="topology_payload_a_number"),
    pytest.param("audit", {"payload": [1]}, id="audit_payload_a_list"),
    pytest.param("audit", {"payload": {"secret": 1, "model": [1.5]}}, id="audit_secret_a_number"),
    pytest.param("result", {"payload": 1.5}, id="result_payload_a_number"),
])
def test_privacy_transcript_field_of_wrong_type_exits_config(tmp_path, capsys, phase, edit):
    # A record whose fields lack the writer's types is refused at its line,
    # in place or appended where only a round's topology record may stand.
    msgs = _demo_messages(tmp_path)
    k, record = next((k, m) for k, m in enumerate(msgs) if m.get("phase") == phase)
    err = _privacy_error(tmp_path, capsys, [*msgs, {**record, **edit}])
    assert _not_record(len(msgs) + 1) in err
    msgs[k] = {**record, **edit}
    err = _privacy_error(tmp_path, capsys, msgs)
    assert _not_record(k + 1, *(() if phase == "topology" else (phase, 1))) in err


@pytest.mark.parametrize("raw, command", [
    pytest.param(5, "bounds", id="file_holds_a_number"),
    pytest.param([1, 2], "simulate", id="file_holds_a_list_with_seed"),
    pytest.param({"n_learners": None}, "bounds", id="n_learners_null"),
    pytest.param({"weights": 5}, "bounds", id="weights_a_number"),
    pytest.param({"theta_max": [1]}, "bounds", id="theta_max_a_list"),
])
def test_config_of_wrong_type_exits_config(tmp_path, capsys, raw, command):
    if isinstance(raw, dict):
        path = write_config(tmp_path, **raw)
        message = f"config field {next(iter(raw))!r}"
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        message = "config file must hold a JSON object"
    args = [command, "--config", str(path)]
    if command == "simulate":
        args += ["--out", str(tmp_path / "out"), "--seed", "3"]
    assert main(args) == 2
    assert message in capsys.readouterr().err


def _demo_config(tmp_path, **overrides):
    demo = pathlib.Path(__file__).resolve().parents[1] / "configs" / "demo.json"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**json.loads(demo.read_text()), **overrides}))
    return str(path)


@pytest.mark.parametrize("field, value", [
    pytest.param("model_dim", 3.7, id="model_dim_a_float"),
    pytest.param("model_dim", "5", id="model_dim_a_string"),
    pytest.param("rounds", True, id="rounds_a_boolean"),
    pytest.param("k_policy", True, id="k_policy_a_boolean"),
    pytest.param("theta_max", float("nan"), id="theta_max_nan"),
    pytest.param("weights", [float("nan")] + [0.125] * 7, id="weights_nan"),
])
def test_config_field_is_not_coerced(tmp_path, capsys, field, value):
    # Integer fields take JSON integers only, k_policy "auto" or a positive
    # integer, theta_max and weights finite positive numbers; none is
    # converted. Every comparison with NaN is false, so a NaN passes a
    # positivity test and a sum test alike.
    assert main(["bounds", "--config", _demo_config(tmp_path, **{field: value})]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("schedule, message", [
    pytest.param({"kind": "ring"}, "unknown topology kind 'ring'", id="unknown_kind"),
    pytest.param({"kind": "random_connected", "avg_degree": 1.0},
                 "avg_degree 1.0 outside [2, 7]", id="avg_degree_out_of_range"),
    pytest.param({"kind": "random_connected", "avg_degree": "4"},
                 "schedule field 'avg_degree': '4' is not a number", id="avg_degree_a_string"),
    pytest.param({"kind": "random_connected", "avg_degree": 3.0, "seed": 1.5},
                 "schedule field 'seed'", id="seed_a_float"),
    pytest.param({"kind": "random_connected", "avg_degree": 3.0, "seed": "7"},
                 "schedule field 'seed'", id="seed_a_string"),
])
def test_generator_schedule_spec_refused_at_load(tmp_path, capsys, schedule, message):
    # Refused when the config loads, before bounds prints its verdict or
    # any round's graph is generated.
    assert main(["bounds", "--config", _demo_config(tmp_path, schedule=schedule)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_readme_library_example_runs():
    import ppdfl

    for name in ppdfl.__all__:
        assert hasattr(ppdfl, name), name
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    section = text[text.index("## Library"):]
    start = section.index("```python\n") + len("```python\n")
    code = section[start:section.index("```", start)]
    exec(compile(code, "README.md", "exec"), {})
