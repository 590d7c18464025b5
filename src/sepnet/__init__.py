"""sepnet: a Monte Carlo laboratory for the separation of lossy
source-network coding from channel coding over wireline networks.

Layers, bottom to top: probkit (distributions, seeded RNG streams),
infosolvers (capacity and rate-distortion solvers with certified gaps),
netmodel (the one time-stepped engine for single-layer, stacked and
de-stacked runs), stacking (layered network transforms and their
exact-equivalence checks), linkcodes (random channel codes and channel
synthesis for link replacement), experiments + cli (the reproducible
experiment harness).
"""

from .infosolvers import (CapacityResult, InfeasibleTarget, RdResult,
                          blahut_capacity, blahut_rate_distortion,
                          invert_rate_distortion)
from .netmodel import (BitPipe, CodeParameters, CodingPolicy, DmcChannel,
                       DistortionMatrix, Edge, IidJoint, MarkovJoint,
                       NetworkSpec, TraceRecord, estimate_distortion,
                       run_block, validate_spec)
from .probkit import (JointPmf, Kernel, ProbVector, RngBatch, RngStream,
                      entropy, mutual_information)
from .stacking import (destack_code, even_odd_split, lift_code,
                       run_stacked_block, traces_match)
from .linkcodes import (ChannelCode, LinkCodeReport, SynthesisCode,
                        build_channel_code, build_synthesis_code)
from .scenario import Scenario, load_scenario, write_json_atomic
from .experiments import (capacity_report, chancode_sweep, emit_plotdata,
                          mixing_demo, rd_report, separation_experiment,
                          simulate, stack_check, synth_sweep,
                          two_step_induction, verify_lemma1)

__version__ = "0.1.0"

__all__ = [
    "BitPipe", "CapacityResult", "ChannelCode", "CodeParameters",
    "CodingPolicy", "DistortionMatrix", "DmcChannel", "Edge", "IidJoint",
    "InfeasibleTarget", "JointPmf", "Kernel", "LinkCodeReport", "MarkovJoint",
    "NetworkSpec", "ProbVector", "RdResult", "RngBatch", "RngStream",
    "Scenario", "SynthesisCode", "TraceRecord", "blahut_capacity",
    "blahut_rate_distortion", "build_channel_code", "build_synthesis_code",
    "capacity_report", "chancode_sweep", "destack_code", "emit_plotdata",
    "entropy", "estimate_distortion", "even_odd_split",
    "invert_rate_distortion", "lift_code", "load_scenario", "mixing_demo",
    "mutual_information", "rd_report", "run_block", "run_stacked_block",
    "separation_experiment", "simulate", "stack_check", "synth_sweep",
    "traces_match", "two_step_induction", "validate_spec", "verify_lemma1",
    "write_json_atomic",
]
