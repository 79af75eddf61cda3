"""The benchmark's tracer wraps program functions at the names their callers
bind. A rename on the program side must fail here, not crash traced runs."""

import importlib.util
import pathlib

from ppdfl import privacy, protocol
from ppdfl.transcript import Transcript

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_demo_round_records_averaging_span(tmp_path):
    tracing = _load("tracing")
    workloads = _load("workloads")
    unwrapped = protocol.consensus_final
    tracer = tracing.Tracer()
    workloads.install_layers(tracer)
    try:
        work = workloads.make("demo", 7, ROOT, tmp_path, tracer.span)
        work.setup()
        tracer.begin(1)
        record = work.run(1)
        tracer.end()
        work.check(1, record)
    finally:
        tracer.restore()
    assert protocol.consensus_final is unwrapped
    names = {span[3] for span in tracer.spans}
    assert {"protocol.round", "consensus.averaging", "topology.mh_weights",
            "topology.lambda2", "consensus.k_select", "protocol.masking",
            "seeding.derive"} <= names
    # The share phase completes the drawn shares and computes no weights.
    assert "sharing.share_gen" in names
    assert "sharing.interp_weights" not in names


def test_traced_audit_records_analyzer_spans(tmp_path):
    # The worst-case audit reads its answer in closed form: the elimination
    # names stay wrapped (observed mode uses them) but count nothing here.
    tracing = _load("tracing")
    workloads = _load("workloads")
    unwrapped = (privacy._rref, privacy._reduce_vector, privacy._build_view,
                 privacy._LinearView.infer, privacy.interpolation_weights)
    tracer = tracing.Tracer()
    workloads.install_layers(tracer)
    try:
        work = workloads.make("audit_ref", 7, ROOT, tmp_path, tracer.span)
        work.setup()
        (coordinate,) = work.keys
        tracer.begin(1)
        out = work.run(coordinate)
        tracer.end()
        work.check(coordinate, out)
    finally:
        tracer.restore()
    assert (privacy._rref, privacy._reduce_vector, privacy._build_view,
            privacy._LinearView.infer, privacy.interpolation_weights) == unwrapped
    names = {span[3] for span in tracer.spans}
    assert {"protocol.transcript_read", "privacy.infer"} <= names
    assert tracer.counts["privacy.unknowns"] == 0
    assert tracer.counts["privacy.rows"] == 0
    assert tracer.counts["field.rref_calls"] == 0


def test_traced_observed_audit_records_elimination_spans(tmp_path):
    tracing = _load("tracing")
    workloads = _load("workloads")
    tracer = tracing.Tracer()
    workloads.install_layers(tracer)
    try:
        work = workloads.make("demo", 7, ROOT, tmp_path, tracer.span)
        work.setup()
        record = work.run(1)
        cfg = work.cfg
        transcript = Transcript({"sigma": cfg.sigma, "prime": cfg.prime}, [record])
        adversaries = privacy.AdversarySet((1, 5), cfg.n_learners)
        tracer.begin(1)
        report = privacy.adversary_infer(transcript, adversaries, cfg, mode="observed")
        tracer.end()
    finally:
        tracer.restore()
    assert privacy.verify_inference(report, transcript, cfg)
    names = {span[3] for span in tracer.spans}
    # Observed mode reduces only the seats' restriction over the benign
    # learners; it computes no interpolation weights.
    assert {"privacy.build_view", "field.rref", "field.reduce"} <= names
    assert tracer.counts["privacy.unknowns"] > 0
    assert tracer.counts["privacy.rows"] > 0
