"""The transcript writer against the json.dumps writer it replaced.

Transcript.to_jsonl renders each record's text directly: integer lists
through %-templates of their shapes, float lists through one json.dumps per
block. The oracle below is the writer it replaced, kept here as the
reference: one message dict per record, each line json.dumps(msg). Both
must write the same bytes, and the reader must read every written round as
blocks, as both derive from one table of record layouts.
"""

import json
import pathlib

import numpy as np
import pytest

from ppdfl.field import next_prime
from ppdfl.protocol import ProtocolConfig, build_initial_state, execute_round, run_training
from ppdfl.topology import TopologySchedule, generate_topology, share_pairs
from ppdfl.transcript import RoundRecord, Transcript

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _oracle_messages(transcript: Transcript, include_consensus: bool):
    """The transcript's messages as the replaced writer built them."""
    for rec in transcript.rounds:
        t, g = rec.round_index, rec.topology
        yield {
            "round": t,
            "phase": "topology",
            "payload": {
                "n_nodes": g.n_nodes,
                "edges": np.stack([g.src, g.dst], axis=1).tolist(),
                "k_used": rec.k_used,
                "lambda2": rec.lambda2,
                "rounding_margin": rec.rounding_margin,
            },
        }
        senders, receivers = share_pairs(g)
        cuts = np.flatnonzero(np.diff(senders)) + 1
        blocks = zip(np.split(receivers, cuts), np.split(rec.bundles, cuts))
        for i, (to, rows) in enumerate(blocks, start=1):
            yield {"round": t, "phase": "shares", "from": i, "to": to.tolist(),
                   "payload": rows.tolist()}
        nbrs = [heads.tolist() for heads in np.split(g.arc_head, g.indptr[1:-1])]
        for i in range(1, g.n_nodes + 1):
            yield {"round": t, "phase": "state0", "from": i, "to": nbrs[i - 1],
                   "payload": rec.initial_states[i - 1].tolist()}
        if include_consensus and rec.state_trajectory is not None:
            for k in range(1, rec.state_trajectory.shape[0]):
                for i in range(1, g.n_nodes + 1):
                    yield {"round": t, "phase": "consensus", "k": k, "from": i,
                           "to": nbrs[i - 1],
                           "payload": rec.state_trajectory[k, i - 1].tolist()}
        for i in range(1, g.n_nodes + 1):
            yield {"round": t, "phase": "result", "from": i,
                   "payload": [float(v) for v in rec.decoded[i - 1]]}
        for i in range(1, g.n_nodes + 1):
            yield {"round": t, "phase": "audit", "from": i,
                   "payload": {"secret": [int(v) for v in rec.encoded_secrets[i - 1]],
                               "model": [float(v) for v in rec.local_models[i - 1]]}}


def _oracle_bytes(transcript: Transcript, include_consensus: bool) -> bytes:
    lines = [json.dumps({"meta": transcript.meta})]
    lines += map(json.dumps, _oracle_messages(transcript, include_consensus))
    return "".join(line + "\n" for line in lines).encode()


def _json_loads_calls(path) -> int:
    """The json.loads calls of reading path back."""
    calls = [0]
    loads = json.loads

    def counted(*args, **kwargs):
        calls[0] += 1
        return loads(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(json, "loads", counted)
        Transcript.from_jsonl(str(path))
    return calls[0]


def assert_written_as_oracle(tmp_path, transcript: Transcript,
                             include_consensus=(True, False)) -> None:
    path = tmp_path / "transcript.jsonl"
    for include in include_consensus:
        transcript.to_jsonl(str(path), include_consensus=include)
        assert path.read_bytes() == _oracle_bytes(transcript, include)
        # Every written round reads as blocks: the only json.loads calls
        # read the meta record and, per round, the topology scalars, the
        # result block and the audit block.
        assert _json_loads_calls(path) == 1 + 3 * len(transcript.rounds)


def _config(n, dim, schedule, rounds=2, seed=5, theta_max=4.0, sigma=2, prime=None):
    prime = prime or next_prime(1 + 2 * 10**sigma * n * int(theta_max))
    return ProtocolConfig(
        n_learners=n, model_dim=dim, sigma=sigma, prime=prime, rounds=rounds,
        k_policy="auto", weights="uniform", theta_max=theta_max, seed=seed,
        schedule=schedule,
    )


SPECIALS = [float("nan"), float("inf"), float("-inf"), -0.0, 1e-05, 1.5e300]


# NaN decoded values have no residue: reading them back warns in the cast.
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
def test_writer_matches_oracle_on_demo_with_special_floats(tmp_path):
    cfg = ProtocolConfig.from_json_file(str(ROOT / "configs" / "demo.json"))
    transcript = run_training(cfg, record_trajectory=True).transcript
    rec = transcript.rounds[0]
    rec.state_trajectory[1, :2] = np.reshape(SPECIALS, (2, 3))
    rec.state_trajectory[-1, -1] = SPECIALS[3:]
    rec.decoded[0] = SPECIALS[:3]
    rec.local_models[-1] = SPECIALS[3:]
    rec.lambda2, rec.rounding_margin = float("nan"), -0.0
    assert_written_as_oracle(tmp_path, transcript)


def test_writer_matches_oracle_on_two_learner_line(tmp_path):
    schedule = TopologySchedule.from_graphs([generate_topology("line", 2)] * 2)
    transcript = run_training(_config(2, 3, schedule), record_trajectory=True).transcript
    assert transcript.rounds[0].topology.edges == {(1, 2)}
    assert_written_as_oracle(tmp_path, transcript)


def test_writer_matches_oracle_at_model_dim_one(tmp_path):
    schedule = TopologySchedule.generated("random_connected", 6, seed=3, avg_degree=3.0)
    transcript = run_training(_config(6, 1, schedule), record_trajectory=True).transcript
    assert transcript.rounds[0].bundles.shape[1] == 1
    assert_written_as_oracle(tmp_path, transcript)


def test_writer_matches_oracle_on_largest_residues(tmp_path):
    p = 2**31 - 1
    rounds = []
    for t, g in enumerate([generate_topology("random_connected", 7, seed=2, avg_degree=3.0),
                           generate_topology("star", 7)], start=1):
        table = np.full((len(share_pairs(g)[0]), 4), p - 1, dtype=np.int64)
        table[::3] = np.arange(len(table[::3]))[:, None]
        zeros = np.zeros((7, 4))
        rounds.append(RoundRecord(
            round_index=t, topology=g, k_used=3, lambda2=0.5, bundles=table,
            initial_states=build_initial_state(table, g, p),
            encoded_secrets=np.full((7, 4), p - 1, dtype=np.int64), local_models=zeros,
            rounded=zeros.astype(np.int64), decoded=zeros, rounding_margin=0.0,
        ))
    transcript = Transcript({"n_learners": 7, "prime": p, "sigma": 0}, rounds)
    assert_written_as_oracle(tmp_path, transcript)
    assert str(p - 1) in (tmp_path / "transcript.jsonl").read_text()


def test_writer_matches_oracle_on_sparse_large_round(tmp_path):
    n = 1000
    schedule = TopologySchedule.generated("random_connected", n, seed=11, avg_degree=4.0)
    cfg = _config(n, 16, schedule, rounds=1, theta_max=50.0, prime=2**31 - 1)
    models = np.random.default_rng(7).uniform(-25.0, 25.0, (n, 16))
    rec = execute_round(models, schedule.round_graph(1), cfg)
    assert rec.state_trajectory is None
    transcript = Transcript({"n_learners": n, "prime": cfg.prime, "sigma": 2}, [rec])
    assert_written_as_oracle(tmp_path, transcript, include_consensus=[False])
