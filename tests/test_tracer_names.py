"""The benchmark's tracer patches sepnet by name: installing it against the
package must find every name it wraps, and uninstalling must put every
original back. Deleting or renaming one of these names breaks a traced
benchmark run, so it fails here. perfbench/tracer.py is only read."""

import importlib.util
import os

from sepnet import experiments, linkcodes, netmodel, probkit, stacking

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracer.py")

TRACED_EXPERIMENTS = ("stack_check", "simulate", "link_replacement_experiment",
                      "separation_experiment", "two_step_induction",
                      "verify_lemma1")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def traced_names():
    """(owner, attribute) of every name the tracer is expected to patch."""
    return ([(netmodel, "run_block"), (stacking, "run_stacked_block"),
             (stacking, "traces_match"), (probkit, "sample_many"),
             (probkit.RngStream, "generator"),
             (linkcodes.ChannelCode, "decode"),
             (linkcodes.ChannelCode, "decode_batch")]
            + [(experiments, name) for name in TRACED_EXPERIMENTS])


def test_tracer_installs_and_uninstalls_against_the_package():
    before = [getattr(owner, name) for owner, name in traced_names()]
    tracer = load_tracer()()
    tracer.install()
    try:
        for (owner, name), original in zip(traced_names(), before):
            assert getattr(owner, name) is not original, name
    finally:
        tracer.uninstall()
    assert [getattr(owner, name) for owner, name in traced_names()] == before
