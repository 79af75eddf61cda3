"""Round driver for secret-shared decentralized model averaging.

Each aggregation round runs five barrier-synchronized phases over the
current communication graph:

  weights     every learner derives the Metropolis-Hastings row for its
              neighborhood (public, degree-based).
  shares      learner i fixes w_i * theta_i into residues and splits every
              coordinate into interpolation-weighted Shamir shares over
              N_i + {i} in their additive form: a uniform residue for each
              neighbour and, for itself, the secret minus their sum mod p
              (see sharing). It hands one bundle to each member of
              N_i + {i}.
  masking     each learner sums the bundles addressed to it mod p; those
              sums are the initial states of the averaging run.
  averaging   K synchronous steps s(k+1) = A s(k), states broadcast to
              neighbors after every step.
  readback    round(N * s(K)) mod p collapses to the integer sum of all
              masked states, which decodes to the weighted model average
              at sigma digits -- identical at every learner.

Delivery is in-process and lossless. All randomness is drawn from
substreams of the config seed: one numpy Generator per (round, learner)
for the models and one Philox stream per round, one lane per learner, for
the shares learners hand out. Results are reproducible and independent of
scheduling.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
import time
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from .consensus import AveragingOperator, consensus_final, min_iterations
from .field import PrimeModulus
from .fixedpoint import Precision, check_p_bound, decode_residues, scaled_trunc, scaled_trunc_array
from .seeding import derive_rng
from .sharing import _generate_share_values, _share_streams
from .sharing import interpolation_weights  # noqa: F401 -- the benchmark's tracer wraps it here
from .topology import (BadParameters, DisconnectedGraph, RoundTopology, TopologySchedule,
                       check_generator, is_connected, mh_edge_weights, mh_weights,
                       receiver_order, second_largest_eigenvalue)
from .transcript import RoundRecord, Transcript


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
    the round's second eigenvalue) or a fixed positive integer; run_training
    checks it against every round's plan before round 1 and rejects it
    loudly when it falls short of any round's need.
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
        try:
            prec = self.precision
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.rounds < 1:
            raise ConfigError("need at least one round")
        if isinstance(self.weights, str):
            if self.weights != "uniform":
                raise ConfigError(f"unknown weights spec {self.weights!r}")
            self.weights = tuple(1.0 / self.n_learners for _ in range(self.n_learners))
        self.weights = tuple(float(w) for w in self.weights)
        if len(self.weights) != self.n_learners:
            raise ConfigError("need one weight per learner")
        if not all(0 < w < math.inf for w in self.weights):  # NaN fails too
            raise ConfigError("weights must be finite positive numbers")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ConfigError(f"weights sum to {sum(self.weights)}, expected 1")
        if self.k_policy != "auto":
            if (isinstance(self.k_policy, bool) or not isinstance(self.k_policy, int)
                    or self.k_policy < 1):
                raise ConfigError("k_policy must be 'auto' or a positive integer")
        if not 0 < self.theta_max < math.inf:  # NaN fails too
            raise ConfigError("theta_max must be a finite positive number")
        try:
            PrimeModulus(self.prime)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        ok, admissible = check_p_bound(
            self.prime, self.n_learners, prec, self.theta_max
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
        generator = self.schedule.generator
        if generator is not None:
            # Generated graphs are connected by construction; their
            # parameters are checked without generating one.
            kind, n_nodes, _, avg_degree = generator
            try:
                check_generator(kind, n_nodes, avg_degree)
            except BadParameters as exc:
                raise ConfigError(f"schedule generator spec: {exc}") from None
            if n_nodes != self.n_learners:
                raise ConfigError(
                    f"schedule generates graphs on {n_nodes} nodes, "
                    f"expected {self.n_learners} learners"
                )
        else:
            # Explicit graphs are checked before any round runs.
            for t in range(1, self.rounds + 1):
                g = self.schedule.round_graph(t)
                if g.n_nodes != self.n_learners:
                    raise ConfigError(
                        f"round {t} graph has {g.n_nodes} nodes, "
                        f"expected {self.n_learners} learners"
                    )
                if not is_connected(g):
                    raise ConfigError(f"round {t} graph is disconnected")

    @property
    def precision(self) -> Precision:
        return Precision(self.sigma)

    @classmethod
    def from_dict(cls, raw: Mapping, base_dir: str = ".") -> "ProtocolConfig":
        """The config raw holds; a schedule file path is taken relative to
        base_dir. ConfigError names a field of the wrong type."""
        missing = {f.name for f in fields(cls)} - set(raw)
        if missing:
            raise ConfigError(f"missing config fields: {sorted(missing)}")
        # Every field but these is an integer; the schedule needs the others.
        convert = {"k_policy": lambda policy: policy, "theta_max": _json_number,
                   "weights": lambda w: w if isinstance(w, str) else tuple(map(_json_number, w))}
        values = {f.name: _read(raw, f.name, convert.get(f.name, _json_integer))
                  for f in fields(cls) if f.name != "schedule"}
        values["schedule"] = _read(raw, "schedule", lambda spec: _resolve_schedule(
            spec, values["n_learners"], values["seed"], base_dir))
        return cls(**values)

    @classmethod
    def from_json_file(cls, path: str, seed: int | None = None) -> "ProtocolConfig":
        """The config in a JSON file, its seed replaced by seed when given."""
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, Mapping):
            raise ConfigError("config file must hold a JSON object")
        if seed is not None:
            raw["seed"] = seed
        return cls.from_dict(raw, os.path.dirname(path) or ".")

    def to_dict(self) -> dict:
        raw = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**raw, "weights": list(self.weights),
                "schedule": self.schedule.to_json(self.rounds)}


# JSON values are taken as they are typed, never coerced: a boolean is
# neither an integer nor a number here.
def _json_integer(value):
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


def _json_number(value):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _read(raw: Mapping, name: str, convert, where: str = "config field"):
    """convert(raw[name]); ConfigError names the field of the wrong type."""
    try:
        return convert(raw[name])
    except (TypeError, OverflowError) as exc:
        raise ConfigError(f"{where} {name!r}: {exc}") from None


def _resolve_schedule(spec, n: int, seed: int, base_dir: str) -> TopologySchedule:
    if isinstance(spec, str):
        path = spec if os.path.isabs(spec) else os.path.join(base_dir, spec)
        return TopologySchedule.from_file(path, n_nodes=n)
    if isinstance(spec, Mapping):
        if spec.get("kind") is None:
            raise ConfigError("schedule generator spec needs a 'kind'")
        if "seed" in spec:
            seed = _read(spec, "seed", _json_integer, "schedule field")
        avg_degree = None
        if "avg_degree" in spec:
            avg_degree = _read(spec, "avg_degree", _json_number, "schedule field")
        # ProtocolConfig checks the parameters: no graph is generated at load.
        return TopologySchedule.generated(spec["kind"], n, seed=seed, avg_degree=avg_degree)
    if isinstance(spec, list):
        graphs = [RoundTopology(n, edges) for edges in spec]
        return TopologySchedule.from_graphs(graphs)
    raise ConfigError("schedule must be a file path, generator spec, or edge lists")


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


def build_initial_state(bundles: np.ndarray, g: RoundTopology, p: int) -> np.ndarray:
    """Masked initial states: row i-1 is the sum mod p of the bundles
    addressed to learner i.

    bundles is g's share table, in share_pairs order. Taken in
    receiver_order(g), learner i's incoming bundles form one run, where its
    own outgoing bundles sit in the table.
    """
    starts = g.indptr[:-1] + np.arange(g.n_nodes)
    # Residues are below p < 2**31, so int64 holds the sum of fewer than 2**32 rows.
    s0 = np.add.reduceat(np.take(bundles, receiver_order(g), axis=0), starts, axis=0)
    s0 %= p
    return s0


@dataclass(frozen=True, eq=False)
class RoundPlan:
    """What a round fixes from its graph before any message is sent: the
    Metropolis-Hastings edge_weights the round builds its operator from
    (no dense matrix, no operator), their lambda2, and k_needed with the
    lambda_hat and k_threshold it was chosen against (min_iterations).
    k_used is k_needed under k_policy "auto", else the fixed K; seconds is
    the plan's build time."""

    round_index: int
    graph: RoundTopology
    edge_weights: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    lambda2: float
    lambda_hat: float
    k_threshold: float
    k_needed: int
    k_used: int
    seconds: float

    def check(self) -> None:
        """BoundViolation if the round would run fewer steps than it needs."""
        # N lam_hat^k falls with k, so k meets the bound exactly when k >= k_needed.
        if self.k_used < self.k_needed:
            raise BoundViolation(f"round {self.round_index}: configured "
                                 f"K={self.k_used} below required {self.k_needed}")


def mh_lambda2(g: RoundTopology, edge_weights: tuple | None = None) -> float:
    """lambda2 of g's Metropolis-Hastings matrix: one symmetric eigensolve
    of the dense matrix, which is dropped on return. mh_weights makes the
    one connectivity check; DisconnectedGraph for a disconnected g."""
    return second_largest_eigenvalue(mh_weights(g, edge_weights))


def plan_round(g: RoundTopology, cfg: ProtocolConfig, round_index: int = 1) -> RoundPlan:
    """The plan of round round_index over g: its connectivity check, its
    one eigensolve and its K. A fixed K below the round's need is planned
    as given; RoundPlan.check refuses it."""
    t0 = time.perf_counter()
    edge_weights = mh_edge_weights(g)
    try:
        lam2 = mh_lambda2(g, edge_weights)
    except DisconnectedGraph:
        raise DisconnectedGraph(f"round {round_index} graph is disconnected") from None
    k_needed, lam_hat, threshold = min_iterations(lam2, cfg.n_learners, cfg.prime)
    k_used = k_needed if cfg.k_policy == "auto" else cfg.k_policy
    return RoundPlan(round_index, g, edge_weights, lam2, lam_hat, threshold,
                     k_needed, k_used, time.perf_counter() - t0)


def execute_round(
    models: np.ndarray,
    g: RoundTopology,
    cfg: ProtocolConfig,
    round_index: int = 1,
    record_trajectory: bool = False,
    plan: RoundPlan | None = None,
) -> RoundRecord:
    """Run one full aggregation round over graph g.

    models is (N, n): row i-1 holds learner i's local model. The returned
    record's decoded rows are identical across learners and equal the
    sigma-digit quantized weighted aggregate exactly. With
    record_trajectory, the record also holds every averaging step's states,
    a (K+1, N, n) float array. plan, plan_round(g, cfg, round_index), is
    built here unless given; the weights phase times it either way.
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
    over = ~(np.abs(arr) <= cfg.theta_max)  # NaN is over too
    if np.any(over):
        i, l = np.argwhere(over)[0]
        raise RangeViolation(
            f"learner {i + 1} coordinate {l} magnitude {abs(arr[i, l])} exceeds "
            f"theta_max={cfg.theta_max}; aborting round {round_index}"
        )

    if plan is None:
        plan = plan_round(g, cfg, round_index)
    elif plan.graph is not g or plan.round_index != round_index:
        raise ValueError(f"plan of round {plan.round_index} given for round {round_index}")
    plan.check()
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    op = AveragingOperator(*plan.edge_weights)
    timings["weights"] = plan.seconds + time.perf_counter() - t0

    # Share phase, for the whole round at once: per coordinate, learner i
    # hands each neighbour, in id order, a uniform residue from lane i of
    # the round's Philox stream, and keeps the encoded secret minus their
    # sum mod p: distributed exactly as the interpolation-weighted shares
    # of a uniform polynomial of degree |N_i| over N_i + {i} (see sharing),
    # with no polynomial evaluated and no weight computed. One round
    # substream gives the Philox key, so learner i's shares depend on
    # (seed, round, i, N, n, |N_i|) and its secret alone.
    t0 = time.perf_counter()
    scaled = scaled_trunc_array(np.array(cfg.weights)[:, None] * arr, prec)
    outside = np.abs(scaled) > (p - 1) // 2
    if np.any(outside):
        i, l = np.argwhere(outside)[0]
        raise RangeViolation(
            f"encoded coordinate {l} of learner {i + 1} leaves the signed "
            f"range of modulus {p}"
        )
    encoded = scaled % p
    key = derive_rng(cfg.seed, "shares", round_index).bit_generator.random_raw(2)
    t1 = time.perf_counter()
    drawn = _share_streams(key, np.diff(g.indptr), cfg.model_dim, p)
    timings["draw"] = time.perf_counter() - t1  # a part of the share phase
    bundles = _generate_share_values(encoded, drawn, g.indptr, g.pair_rows[1], p)
    del drawn  # not held through averaging
    timings["shares"] = time.perf_counter() - t0

    # Masking phase.
    t0 = time.perf_counter()
    s0 = build_initial_state(bundles, g, p)
    timings["masking"] = time.perf_counter() - t0

    # Averaging phase.
    t0 = time.perf_counter()
    trajectory = None
    if record_trajectory:
        trajectory = np.empty((plan.k_used + 1, *s0.shape))
    final = consensus_final(s0, op, plan.k_used, trajectory)
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
        k_used=plan.k_used,
        lambda2=plan.lambda2,
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


def synthetic_trainer(theta_max: float, step: float = 0.25) -> TrainerHook:
    """Seeded bounded perturbation of the incoming model; no data needed."""

    def train(
        learner_id: int, round_index: int, model: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        noise = rng.uniform(-step, step, size=model.shape)
        return np.clip(model + noise, -theta_max, theta_max)

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

    Every round is planned first: a fixed K short of any round's need
    raises before round 1. The summary reports, per round, the plan (K,
    the contraction factor, the inflated factor and threshold K was chosen
    against), the rounding margin, and the deviation from the directly
    computed quantized aggregate (always 0 when the bounds hold).
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
    plans = []
    for t in range(1, cfg.rounds + 1):
        plans.append(plan_round(cfg.schedule.round_graph(t), cfg, t))
        plans[-1].check()

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
    for t, plan in enumerate(plans, start=1):
        local = np.empty((n, dim))
        for i in range(1, n + 1):
            gen = derive_rng(cfg.seed, "train", t, i)
            local[i - 1] = trainer(i, t, current[i - 1], gen)
        record = execute_round(local, plan.graph, cfg, round_index=t,
                               record_trajectory=record_trajectory, plan=plan)
        oracle, _ = quantized_aggregate(local, cfg.weights, cfg.precision)
        deviation = float(np.max(np.abs(record.decoded - oracle[None, :])))
        transcript.rounds.append(record)
        per_round.append({
            "round": t,
            "k_used": plan.k_used,
            "lambda2": plan.lambda2,
            "lambda_hat": plan.lambda_hat,
            "k_threshold": plan.k_threshold,
            "max_deviation": deviation,
            "rounding_margin": record.rounding_margin,
            "timings": record.timings,
        })
        decoded_rows[t - 1] = record.decoded[0]
        current = np.repeat(record.decoded[:1], n, axis=0)

    summary = {
        "rounds": per_round,
        "max_deviation": max(r["max_deviation"] for r in per_round),
        "min_rounding_margin_slack": 0.5
        - max(r["rounding_margin"] for r in per_round),
    }
    return TrainingResult(decoded_rows, transcript, summary)
