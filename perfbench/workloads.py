"""Workloads: set-up, one operation, and the exactness check of its output.

Inputs come from the seed alone. Models are drawn here with numpy, and the
seed replaces the config's own seed, as ``ppdfl simulate --seed`` does; the
program only receives the generated inputs.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import numpy as np

import ppdfl
from ppdfl import consensus, privacy, protocol, sharing, topology
from ppdfl.protocol import ProtocolConfig, Transcript


class CheckFailed(Exception):
    """An operation returned an output that is not exactly right."""


# Errors that mean an output was not exact: the benchmark's own checks, and
# the program's check of its own exactness guarantees inside execute_round.
INEXACT = (CheckFailed, protocol.InvariantViolation)


# N=1000 learners on sparse random graphs with a 31-bit prime: the
# ROADMAP's large-N scale target. The schedule has a seed of its own, so
# every run meets the same four graphs (and the same rounds stuck in the
# K search) while the seed still draws models and share polynomials.
SPARSE_1K = {
    "n_learners": 1000,
    "model_dim": 16,
    "sigma": 2,
    "prime": 2147483647,
    "rounds": 4,
    "k_policy": "auto",
    "weights": "uniform",
    "theta_max": 50.0,
    "seed": 11,
    "schedule": {"kind": "random_connected", "avg_degree": 4.0, "seed": 11},
}
AUDIT_COALITION = (1, 5)


def _seeded_models(cfg: ProtocolConfig, seed: int, round_index: int) -> np.ndarray:
    rng = np.random.default_rng([seed, round_index])
    half = cfg.theta_max / 2
    return rng.uniform(-half, half, size=(cfg.n_learners, cfg.model_dim))


class Rounds:
    """One operation is one ``execute_round`` call on a prepared round.

    Set-up validates the config, materializes every round's graph and draws
    every round's models; operations run the rounds in order.
    """

    deadline_s = 10.0

    def __init__(self, raw: dict, seed: int | None, span):
        self.raw = dict(raw)
        if seed is not None:
            self.raw["seed"] = seed
        self.seed = int(self.raw["seed"])
        self.span = span

    def setup(self) -> dict:
        self.cfg = ProtocolConfig.from_dict(self.raw)
        self.graphs = self.cfg.schedule.materialize(self.cfg.rounds)
        self.models = [
            _seeded_models(self.cfg, self.seed, t) for t in range(1, self.cfg.rounds + 1)
        ]
        self.keys = list(range(1, self.cfg.rounds + 1))
        return {}

    def check_setup(self) -> None:
        pass

    def run(self, t: int):
        with self.span("protocol.round"):
            return protocol.execute_round(
                self.models[t - 1], self.graphs[t - 1], self.cfg,
                round_index=t, record_trajectory=False,
            )

    def check(self, t: int, rec) -> dict:
        """Exactness of one round, and its traffic counted from the graph."""
        cfg = self.cfg
        oracle, _ = protocol.quantized_aggregate(
            self.models[t - 1], cfg.weights, cfg.precision
        )
        deviation = float(np.max(np.abs(rec.decoded - oracle[None, :])))
        if deviation != 0.0:
            raise CheckFailed(f"round {t}: deviation {deviation!r} from the oracle")
        if not (rec.decoded == rec.decoded[0]).all():
            raise CheckFailed(f"round {t}: learners decoded different models")
        edges = len(self.graphs[t - 1].edges)
        share_msgs = cfg.n_learners + 2 * edges  # sum of (deg_i + 1)
        if len(rec.bundles) != share_msgs:
            raise CheckFailed(f"round {t}: {len(rec.bundles)} bundles, expected {share_msgs}")
        state_msgs = rec.k_used * 2 * edges
        return {
            "round": t,
            "k": rec.k_used,
            "lambda2": rec.lambda2,
            "rounding_margin": rec.rounding_margin,
            "share_msgs": share_msgs,
            "share_elems": share_msgs * cfg.model_dim,
            "state_msgs": state_msgs,
            "state_elems": state_msgs * cfg.model_dim,
            "timings": dict(rec.timings),
        }


class Audit(Rounds):
    """Worst-case audit of round 1 by a fixed coalition, one coordinate per operation.

    Set-up simulates the round and writes its transcript; each operation
    reads the transcript back and audits it, as ``ppdfl privacy
    --transcript`` does. The audited coordinate is drawn from the seed.
    """

    deadline_s = 120.0

    def __init__(self, raw: dict, seed: int | None, span, path):
        # The audited graph stays the config's own round-1 graph, so every
        # seed poses an equation system of the same size; the seed draws the
        # models and share polynomials.
        raw = {**raw, "rounds": 1, "schedule": {**raw["schedule"], "seed": raw["seed"]}}
        super().__init__(raw, seed, span)
        self.path = path

    def setup(self) -> dict:
        super().setup()
        cfg = self.cfg
        with self.span("protocol.round"):
            self.round = protocol.execute_round(
                self.models[0], self.graphs[0], cfg, round_index=1, record_trajectory=False
            )
        meta = {
            "n_learners": cfg.n_learners,
            "model_dim": cfg.model_dim,
            "sigma": cfg.sigma,
            "prime": cfg.prime,
            "weights": list(cfg.weights),
            "seed": cfg.seed,
        }
        with self.span("protocol.transcript_write"):
            Transcript(meta, [self.round]).to_jsonl(self.path, include_consensus=False)
        self.keys = [self.seed % cfg.model_dim]
        return {"transcript_bytes": os.path.getsize(self.path)}

    def check_setup(self) -> None:
        super().check(1, self.round)

    def run(self, coordinate: int):
        with self.span("protocol.transcript_read"):
            transcript = Transcript.from_jsonl(self.path)
        meta = transcript.meta
        view_cfg = SimpleNamespace(prime=int(meta["prime"]), sigma=int(meta["sigma"]))
        adversaries = privacy.AdversarySet(AUDIT_COALITION, int(meta["n_learners"]))
        with self.span("privacy.infer"):
            report = privacy.adversary_infer(
                transcript, adversaries, view_cfg, coordinates=[coordinate]
            )
        return transcript, view_cfg, adversaries, report

    def check(self, coordinate: int, out) -> dict:
        """Leaks exactly the surrounded component sums, with the true values."""
        transcript, view_cfg, adversaries, report = out
        if not privacy.verify_inference(report, transcript, view_cfg):
            raise CheckFailed("reconstructed values disagree with ground truth")
        (inference,) = report.rounds
        decomp = privacy.surrounded_components(transcript.rounds[0].topology, adversaries)
        predicted = {tuple(sorted(c)) for c in decomp.components}
        sums = {f.members for f in inference.leaked if f.kind == "component_sum"}
        if sums != predicted:
            raise CheckFailed(f"leaked component sums {sorted(sums)} != predicted {sorted(predicted)}")
        individuals = {f.members for f in inference.leaked if f.kind == "individual"}
        if not individuals <= {c for c in predicted if len(c) == 1}:
            raise CheckFailed(f"individuals leak beyond the surrounded sets: {sorted(individuals)}")
        return {"coordinate": coordinate, "leaked_component_sums": len(sums)}


def make(name: str, seed: int | None, root, workdir, span) -> Rounds:
    """The named workload; raises KeyError for an unknown name."""
    if name == "sparse_1k":
        return Rounds(SPARSE_1K, seed, span)
    # demo is the harness self-test's small config, not a measured workload.
    config = {"dense_ref": "large_random.json", "audit_ref": "large_random.json",
              "demo": "demo.json"}[name]
    with open(root / "configs" / config) as fh:
        raw = json.load(fh)
    if name == "audit_ref":
        return Audit(raw, seed, span, workdir / "transcript.jsonl")
    return Rounds(raw, seed, span)


def _count_rref(counts, args, result) -> None:
    rows = args[0]
    counts["privacy.rows"] += len(rows)
    counts["field.rref_cells"] += len(rows) * len(rows[0])


def _count_unknowns(counts, args, view) -> None:
    counts["privacy.unknowns"] += view.n_unknowns


def install_layers(tracer) -> None:
    """Wrap each layer function at the name its caller binds."""
    P, V = protocol, privacy
    tracer.wrap(P, "mh_weights", "topology.mh_weights")
    tracer.wrap(P, "second_largest_eigenvalue", "topology.lambda2")
    tracer.wrap(topology, "contraction_radius", "topology.lambda2")
    tracer.wrap(topology, "generate_topology", "topology.generate")
    tracer.wrap(P, "min_iterations", "consensus.k_select")
    tracer.wrap(consensus, "averaging_error_norm", "consensus.norm_probe",
                "consensus.norm_probes")
    tracer.wrap(np.linalg, "eigvalsh", count="consensus.eigensolves")
    tracer.wrap(P, "consensus_final", "consensus.averaging")
    tracer.wrap(P, "interpolation_weights", "sharing.interp_weights")
    tracer.wrap(V, "interpolation_weights", "sharing.interp_weights")
    tracer.wrap(sharing, "_inverse_int", count="sharing.inversions")
    tracer.wrap(P, "_generate_share_values", "sharing.share_gen", "sharing.share_gen_calls")
    tracer.wrap(P, "derive_rng", "seeding.derive", "seeding.derive_calls")
    tracer.wrap(P, "scaled_trunc", "fixedpoint")
    tracer.wrap(P, "decode_residues", "fixedpoint")
    tracer.wrap(P, "build_initial_state", "protocol.masking")
    tracer.wrap(V, "_build_view", "privacy.build_view", observe=_count_unknowns)
    tracer.wrap(V, "_rref", "field.rref", "field.rref_calls", observe=_count_rref)
    tracer.wrap(V, "_reduce_vector", "field.reduce", "field.reduce_calls")
    tracer.wrap(V._LinearView, "infer", count="privacy.infer_calls")

