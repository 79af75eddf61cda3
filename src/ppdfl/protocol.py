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
reduction of that table by receiver. A transcript read back must hold
exactly one bundle of n values for each of those pairs.

Delivery is in-process and lossless. All randomness is drawn from
per-(round, learner) numpy Generator substreams of the config seed, so
results are reproducible and independent of scheduling.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .consensus import (
    AveragingOperator,
    consensus_final,
    min_iterations,
    termination_inputs,
)
from .field import PrimeModulus
from .fixedpoint import (
    Precision,
    check_p_bound,
    decode_residues,
    scaled_trunc,
    scaled_trunc_array,
)
from .seeding import derive_rng
from .sharing import _draw_coefficients, _generate_share_values, interpolation_weights
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


def _collect_message(per_round: dict[int, dict], msg: dict) -> None:
    """File one transcript message under its round; KeyError on a missing field."""
    t = msg["round"]
    slot = per_round.setdefault(
        t,
        {"shares": {}, "state0": {}, "decoded": {}, "secrets": {},
         "models": {}, "topology": None, "k_used": 0, "lambda2": 0.0,
         "rounding_margin": float("nan")},
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
        slot["rounding_margin"] = msg["payload"].get("rounding_margin", float("nan"))
    elif phase == "shares":
        pair = (msg["from"], msg["to"])
        if pair in slot["shares"]:
            raise ValueError(
                f"transcript round {t} repeats share bundle {pair[0]}->{pair[1]}"
            )
        slot["shares"][pair] = msg["payload"]
    elif phase == "state0":
        slot["state0"][msg["from"]] = msg["payload"]
    elif phase == "result":
        slot["decoded"][msg["from"]] = msg["payload"]
    elif phase == "audit":
        slot["secrets"][msg["from"]] = msg["payload"]["secret"]
        slot["models"][msg["from"]] = msg["payload"]["model"]


def _share_table(t: int, g: RoundTopology, shares: dict, width: int) -> np.ndarray:
    """The share table of round t from its {(sender, receiver): payload}
    messages; ValueError names the first pair that is missing, not between
    neighbours, or of the wrong length."""
    senders, receivers = share_pairs(g)
    pairs = list(zip(senders.tolist(), receivers.tolist()))
    for i, j in pairs:
        values = shares.get((i, j))
        if values is None:
            raise ValueError(f"transcript round {t} lacks share bundle {i}->{j}")
        if len(values) != width:
            raise ValueError(
                f"transcript round {t} share bundle {i}->{j} carries "
                f"{len(values)} values, expected {width}"
            )
    if len(shares) != len(pairs):
        i, j = min(set(shares) - set(pairs))
        raise ValueError(
            f"transcript round {t} has share bundle {i}->{j} between learners "
            "that are not neighbours"
        )
    return np.array([shares[pair] for pair in pairs], dtype=np.int64)


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
                    "rounding_margin": rec.rounding_margin,
                },
            }
            senders, receivers = share_pairs(rec.topology)
            for i, j, values in zip(
                senders.tolist(), receivers.tolist(), rec.bundles.tolist()
            ):
                yield {
                    "round": t,
                    "phase": "shares",
                    "from": i,
                    "to": j,
                    "payload": values,
                }
            # A learner broadcasts its masked state to all its neighbours:
            # one record lists them. Older transcripts hold one record per
            # edge; both read back alike.
            for i in range(1, rec.topology.n_nodes + 1):
                yield {
                    "round": t,
                    "phase": "state0",
                    "from": i,
                    "to": list(rec.topology.neighbors(i)),
                    "payload": rec.initial_states[i - 1].tolist(),
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
        """Read a transcript back; raises ValueError naming any record the
        rounds cannot be rebuilt without."""
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
                    _collect_message(per_round, msg)
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
            for phase, key in (("state0", "state0"), ("result", "decoded"),
                               ("audit", "secrets")):
                missing = sorted(set(range(1, n + 1)) - slot[key].keys())
                if missing:
                    raise ValueError(
                        f"transcript round {t} lacks {phase} records of "
                        f"learners {', '.join(map(str, missing))}"
                    )
            learners = range(1, n + 1)
            s0 = np.array([slot["state0"][i] for i in learners], dtype=np.int64)
            secrets = np.array([slot["secrets"][i] for i in learners], dtype=np.int64)
            models = np.array([slot["models"][i] for i in learners], dtype=float)
            decoded = np.array([slot["decoded"][i] for i in learners], dtype=float)
            shapes = {arr.shape for arr in (s0, secrets, models, decoded)}
            if s0.ndim != 2 or len(shapes) > 1:
                raise ValueError(f"transcript round {t} has records of unequal length")
            bundles = _share_table(t, g, slot["shares"], s0.shape[1])
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
    record_trajectory: bool = True,
) -> RoundRecord:
    """Run one full aggregation round over graph g.

    models is (N, n): row i-1 holds learner i's local model. The returned
    record's decoded rows are identical across learners and equal the
    sigma-digit quantized weighted aggregate exactly.
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
    # the holder-set sum equals the encoded secret. Learner i's
    # coefficients come from its own (round, learner) substream.
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
    coeffs = [
        _draw_coefficients(
            derive_rng(cfg.seed, "shares", round_index, i), cfg.model_dim, tau, p
        )
        for i, tau in enumerate(degrees.tolist(), start=1)
    ]
    bundles = _generate_share_values(encoded, coeffs, holders, p)
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
