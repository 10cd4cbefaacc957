"""Equivalence of faults within one value region."""

from faultscope import SimConfig, execute
from faultscope.analysis import ValueRegion, make_transient, value_regions
from faultscope.generators import PipelineSpec, linear_pipeline
from util import check_region_equivalence, x_reach

CFG = SimConfig(horizon=32.0, epsilon=0.1)
GAMMA = 0.1


def test_same_region_faults_reach_same_signals():
    circuit, _ = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    base = execute(circuit, {}, CFG)
    regions = value_regions(base)
    # [9, 13) is a wide region where pulses at c2 are susceptible throughout
    region = next(r for r in regions if r.start == 9.0)
    reaches = []
    for t in (9.2, 10.0, 10.9):
        faulty = execute(circuit, {}, CFG, make_transient("c2", t, GAMMA, "xpulse", base))
        reaches.append(x_reach(faulty, regions))
    assert reaches[0] == reaches[1] == reaches[2]
    assert reaches[0]


def test_helper_accepts_wide_pipeline_regions():
    circuit, _ = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    regions = value_regions(execute(circuit, {}, CFG))
    for region in regions:
        assert check_region_equivalence(circuit, {}, region, "c2", GAMMA, CFG, samples=3, seed=1)


def test_equal_sample_times_trivially_pass():
    circuit, _ = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    region = ValueRegion(9.0, 13.0, 3)
    assert check_region_equivalence(circuit, {}, region, "c2", GAMMA, CFG, samples=1)


def test_region_shorter_than_margin_is_vacuous():
    circuit, _ = linear_pipeline(PipelineSpec(3, 1, 5, 4, 4))
    # margin is |C| * epsilon + gamma = 0.8; the region leaves no room
    region = ValueRegion(4.0, 4.5, 1)
    assert check_region_equivalence(circuit, {}, region, "c2", GAMMA, CFG, samples=5)
