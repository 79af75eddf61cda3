"""Round driver for secret-shared decentralized model averaging.

Each aggregation round runs five barrier-synchronized phases over the
current communication graph:

  weights     every learner derives the Metropolis-Hastings row for its
              neighborhood (public, degree-based).
  shares      learner i fixes w_i * theta_i into residues, splits every
              coordinate with a fresh random polynomial of degree |N_i|
              over the holder set N_i + {i}, pre-multiplies each share by
              its interpolation weight, and hands one bundle per neighbor.
  masking     each learner sums the bundles addressed to it mod p; those
              sums are the initial states of the averaging run.
  averaging   K synchronous steps s(k+1) = A s(k), states broadcast to
              neighbors after every step.
  readback    round(N * s(K)) mod p collapses to the integer sum of all
              masked states, which decodes to the weighted model average
              at sigma digits -- identical at every learner.

Delivery is in-process and lossless. All randomness is drawn from
per-(round, learner, coordinate) substreams of the config seed, so results
are reproducible and independent of scheduling.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .consensus import (
    consensus_final,
    min_iterations,
    run_consensus,
    termination_inputs,
)
from .field import PrimeModulus
from .fixedpoint import Precision, check_p_bound, decode_residues, scaled_trunc
from .seeding import derive_generator, derive_rng
from .sharing import (
    ShareholderSet,
    _draw_coefficients,
    _generate_share_values,
    interpolation_weights,
)
from .topology import (
    DisconnectedGraph,
    RoundTopology,
    TopologySchedule,
    is_connected,
    mh_weights,
    second_largest_eigenvalue,
)


class ConfigError(ValueError):
    """Structurally invalid configuration."""


class BoundViolation(ValueError):
    """Configuration violates the modulus or iteration-count bound."""


class MissingBundle(RuntimeError):
    """A learner did not receive a bundle from one of its neighbors."""


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
            modulus = PrimeModulus(self.prime)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        ok, admissible = check_p_bound(
            modulus, self.n_learners, Precision(self.sigma), self.theta_max
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

    @property
    def modulus(self) -> PrimeModulus:
        return PrimeModulus(self.prime)

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
        graphs = [
            RoundTopology(n, frozenset((int(i), int(j)) for i, j in edges), t)
            for t, edges in enumerate(spec, start=1)
        ]
        return TopologySchedule.from_graphs(graphs)
    raise ConfigError("schedule must be a file path, generator spec, or edge lists")


@dataclass(frozen=True)
class ShareBundle:
    """Everything one learner sends one holder in the share phase."""

    sender: int
    receiver: int
    round_index: int
    values: tuple[int, ...]  # one weighted-share residue per coordinate


@dataclass
class RoundRecord:
    """Everything one aggregation round produced, messages included."""

    round_index: int
    topology: RoundTopology
    k_used: int
    lambda2: float
    bundles: list[ShareBundle]
    initial_states: np.ndarray  # (N, n) int64 masked states
    encoded_secrets: np.ndarray  # (N, n) int64, for auditing only
    local_models: np.ndarray  # (N, n) float
    final_states: np.ndarray  # (N, n) float
    rounded: np.ndarray  # (N, n) int64 residues after readback
    decoded: np.ndarray  # (N, n) float, identical rows
    rounding_margin: float
    state_trajectory: np.ndarray | None = None
    timings: dict[str, float] = field(default_factory=dict)


@dataclass
class Transcript:
    """All messages of a run, keyed by (round, phase, sender, receiver)."""

    meta: dict
    rounds: list[RoundRecord] = field(default_factory=list)

    def iter_messages(self, include_consensus: bool = True):
        for rec in self.rounds:
            t = rec.round_index
            yield {
                "round": t,
                "phase": "topology",
                "payload": {
                    "n_nodes": rec.topology.n_nodes,
                    "edges": [list(e) for e in rec.topology.sorted_edges()],
                    "k_used": rec.k_used,
                    "lambda2": rec.lambda2,
                },
            }
            for b in rec.bundles:
                yield {
                    "round": t,
                    "phase": "shares",
                    "from": b.sender,
                    "to": b.receiver,
                    "payload": list(b.values),
                }
            for i in range(1, rec.topology.n_nodes + 1):
                payload = [int(v) for v in rec.initial_states[i - 1]]
                for j in rec.topology.neighbors(i):
                    yield {
                        "round": t,
                        "phase": "state0",
                        "from": i,
                        "to": j,
                        "payload": payload,
                    }
            if include_consensus and rec.state_trajectory is not None:
                for k in range(1, rec.state_trajectory.shape[0]):
                    for i in range(1, rec.topology.n_nodes + 1):
                        payload = [float(v) for v in rec.state_trajectory[k, i - 1]]
                        for j in rec.topology.neighbors(i):
                            yield {
                                "round": t,
                                "phase": "consensus",
                                "k": k,
                                "from": i,
                                "to": j,
                                "payload": payload,
                            }
            for i in range(1, rec.topology.n_nodes + 1):
                yield {
                    "round": t,
                    "phase": "result",
                    "from": i,
                    "payload": [float(v) for v in rec.decoded[i - 1]],
                }
            # Audit records carry ground truth for verification tooling;
            # they are not part of any adversary's view.
            for i in range(1, rec.topology.n_nodes + 1):
                yield {
                    "round": t,
                    "phase": "audit",
                    "from": i,
                    "payload": {
                        "secret": [int(v) for v in rec.encoded_secrets[i - 1]],
                        "model": [float(v) for v in rec.local_models[i - 1]],
                    },
                }

    def to_jsonl(self, path: str, include_consensus: bool = True) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": self.meta}) + "\n")
            for msg in self.iter_messages(include_consensus):
                fh.write(json.dumps(msg) + "\n")

    @classmethod
    def from_jsonl(cls, path: str) -> "Transcript":
        meta: dict = {}
        per_round: dict[int, dict] = {}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                msg = json.loads(line)
                if "meta" in msg and "round" not in msg:
                    meta = msg["meta"]
                    continue
                t = msg["round"]
                slot = per_round.setdefault(
                    t,
                    {"bundles": [], "state0": {}, "decoded": {}, "secrets": {},
                     "models": {}, "topology": None, "k_used": 0, "lambda2": 0.0},
                )
                phase = msg["phase"]
                if phase == "topology":
                    slot["topology"] = RoundTopology(
                        msg["payload"]["n_nodes"],
                        frozenset(tuple(e) for e in msg["payload"]["edges"]),
                        t,
                    )
                    slot["k_used"] = msg["payload"]["k_used"]
                    slot["lambda2"] = msg["payload"].get("lambda2", 0.0)
                elif phase == "shares":
                    slot["bundles"].append(
                        ShareBundle(msg["from"], msg["to"], t, tuple(msg["payload"]))
                    )
                elif phase == "state0":
                    slot["state0"][msg["from"]] = msg["payload"]
                elif phase == "result":
                    slot["decoded"][msg["from"]] = msg["payload"]
                elif phase == "audit":
                    slot["secrets"][msg["from"]] = msg["payload"]["secret"]
                    slot["models"][msg["from"]] = msg["payload"]["model"]
        rounds = []
        for t in sorted(per_round):
            slot = per_round[t]
            g = slot["topology"]
            if g is None:
                raise ValueError(f"transcript round {t} lacks a topology record")
            n = g.n_nodes
            dim = len(next(iter(slot["state0"].values())))
            s0 = np.zeros((n, dim), dtype=np.int64)
            secrets = np.zeros((n, dim), dtype=np.int64)
            models = np.zeros((n, dim))
            decoded = np.zeros((n, dim))
            for i in range(1, n + 1):
                s0[i - 1] = slot["state0"].get(i, [0] * dim)
                secrets[i - 1] = slot["secrets"].get(i, [0] * dim)
                models[i - 1] = slot["models"].get(i, [0.0] * dim)
                decoded[i - 1] = slot["decoded"].get(i, [0.0] * dim)
            p = int(meta["prime"])
            scale = 10 ** int(meta["sigma"])
            rounded = np.round(decoded * scale).astype(np.int64) % p
            rounds.append(
                RoundRecord(
                    round_index=t,
                    topology=g,
                    k_used=slot["k_used"],
                    lambda2=slot["lambda2"],
                    bundles=slot["bundles"],
                    initial_states=s0,
                    encoded_secrets=secrets,
                    local_models=models,
                    final_states=decoded * 0.0,
                    rounded=rounded,
                    decoded=decoded,
                    rounding_margin=float("nan"),
                )
            )
        return cls(meta=meta, rounds=rounds)


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
    received: Iterable[ShareBundle],
    receiver: int,
    expected_senders: Iterable[int],
    modulus: PrimeModulus,
) -> list[int]:
    """Coordinate-wise modular sum of all bundles addressed to a learner.

    Requires exactly one bundle from every expected sender (the learner's
    closed neighborhood).
    """
    expected = set(expected_senders)
    by_sender: dict[int, ShareBundle] = {}
    for b in received:
        if b.receiver != receiver:
            raise ValueError(f"bundle for {b.receiver} routed to {receiver}")
        if b.sender in by_sender:
            raise ValueError(f"duplicate bundle from {b.sender}")
        by_sender[b.sender] = b
    missing = expected - set(by_sender)
    if missing:
        raise MissingBundle(
            f"learner {receiver} missing bundles from {sorted(missing)}"
        )
    unexpected = set(by_sender) - expected
    if unexpected:
        raise ValueError(f"unexpected bundles from {sorted(unexpected)}")
    # Residues are below p < 2**31, so int64 holds the sum of fewer than 2**32 bundles.
    values = np.array([b.values for b in by_sender.values()], dtype=np.int64)
    return (values.sum(axis=0) % modulus.p).tolist()


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
    record_trajectory: bool = True,
) -> RoundRecord:
    """Run one full aggregation round over graph g.

    models is (N, n): row i-1 holds learner i's local model. The returned
    record's decoded rows are identical across learners and equal the
    sigma-digit quantized weighted aggregate exactly.
    """
    p = cfg.prime
    prec = cfg.precision
    modulus = cfg.modulus
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
    over = np.abs(arr) > cfg.theta_max
    if np.any(over):
        i, l = np.argwhere(over)[0]
        raise RangeViolation(
            f"learner {i + 1} coordinate {l} magnitude {abs(arr[i, l])} exceeds "
            f"theta_max={cfg.theta_max}; aborting round {round_index}"
        )

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    a = mh_weights(g)
    lam2 = second_largest_eigenvalue(a)  # the round's one eigensolve
    k_used = _resolve_iterations(cfg, a, lam2)
    timings["weights"] = time.perf_counter() - t0

    # Share phase: per coordinate, a fresh polynomial of degree |N_i| over
    # the closed neighborhood, weighted so the holder-set sum equals the
    # encoded secret.
    t0 = time.perf_counter()
    bundles: list[ShareBundle] = []
    inbox: dict[int, list[ShareBundle]] = {i: [] for i in range(1, n_learners + 1)}
    encoded = np.zeros((n_learners, cfg.model_dim), dtype=np.int64)
    half = (p - 1) // 2
    for i in range(1, n_learners + 1):
        nbrs = g.neighbors(i)
        holders = ShareholderSet((i, *nbrs))
        tau = len(nbrs)
        deltas = interpolation_weights(holders, modulus)
        for l in range(cfg.model_dim):
            s = scaled_trunc(cfg.weights[i - 1] * arr[i - 1, l], prec)
            if abs(s) > half:
                raise RangeViolation(
                    f"encoded coordinate {l} of learner {i} leaves the signed "
                    f"range of modulus {p}"
                )
            encoded[i - 1, l] = s % p
        coeffs = [
            _draw_coefficients(
                derive_rng(cfg.seed, "shares", round_index, i, l), tau, p
            )
            for l in range(cfg.model_dim)
        ]
        raw = _generate_share_values(encoded[i - 1], coeffs, holders.ids, p)
        weighted = (raw * deltas % p).T.tolist()  # one row per holder
        for j, values in zip(holders.ids, weighted):
            b = ShareBundle(i, j, round_index, tuple(values))
            bundles.append(b)
            inbox[j].append(b)
    timings["shares"] = time.perf_counter() - t0

    # Masking phase.
    t0 = time.perf_counter()
    s0 = np.zeros((n_learners, cfg.model_dim), dtype=np.int64)
    for i in range(1, n_learners + 1):
        expected = (i, *g.neighbors(i))
        s0[i - 1] = build_initial_state(inbox[i], i, expected, modulus)
    timings["masking"] = time.perf_counter() - t0

    # Averaging phase.
    t0 = time.perf_counter()
    initial = s0.astype(float)
    trajectory = None
    if record_trajectory:
        traj = run_consensus(initial, a, k_used)
        trajectory = traj.states
        final = traj.final
    else:
        final = consensus_final(initial, a, k_used)
    timings["averaging"] = time.perf_counter() - t0

    # Readback phase.
    t0 = time.perf_counter()
    column_sums = s0.sum(axis=0)  # exact integer sums of the masked states
    margin = float(np.max(np.abs(n_learners * final - column_sums)))
    rounded = np.floor(n_learners * final + 0.5).astype(np.int64) % p
    decoded = decode_residues(rounded, prec, p)
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
        final_states=final,
        rounded=rounded,
        decoded=decoded,
        rounding_margin=margin,
        state_trajectory=trajectory,
        timings=timings,
    )


def replay_round(record: RoundRecord, cfg: ProtocolConfig) -> np.ndarray:
    """Re-derive the decoded output from a recorded round; determinism audit."""
    a = mh_weights(record.topology)
    final = consensus_final(record.initial_states.astype(float), a, record.k_used)
    rounded = np.floor(cfg.n_learners * final + 0.5).astype(np.int64) % cfg.prime
    return decode_residues(rounded, cfg.precision, cfg.prime)


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
            gen = derive_generator(cfg.seed, "init", i)
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
            gen = derive_generator(cfg.seed, "train", t, i)
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
