"""The benchmark's tracer wraps program functions at the names their callers
bind. A rename on the program side must fail here, not crash traced runs."""

import importlib.util
import pathlib

from ppdfl import protocol

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
            "sharing.share_gen"} <= names
