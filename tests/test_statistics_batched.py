"""The closed-form statistics of the isotropic drop model, against the
general-R reference.

`mmse_statistics` computes every link from its gain g, with R = g * I_N, in a
few elementwise operations; `reference.mmse_reference` takes one solve and one
einsum per link on the same R built densely. The drops cover N up to 64,
shadowing up to 8 dB, areas whose gains span many decades, and zero pilot power,
so vanishing and live links mix. The two agree to 1e-14 relative, and are 0 on
the same links.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from greenran import (FrameConfig, ScenarioParams, build_correlation, generate_topology,
                      mmse_statistics)
from reference import expand, mmse_reference


@st.composite
def drops(draw):
    scen = ScenarioParams(M=draw(st.integers(1, 6)), K=draw(st.integers(1, 5)),
                          N=draw(st.integers(1, 64)), L=1,
                          seed=draw(st.integers(0, 2**32 - 1)),
                          area_side=draw(st.sampled_from((100.0, 500.0, 2000.0))),
                          shadowing_std_db=draw(st.floats(0.0, 8.0)))
    return build_correlation(generate_topology(scen))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(drops(), st.sampled_from((0.0, 1e-9, 1e-4, 0.1, 1.0)))
def test_matches_per_link_reference(corr, pilot_power_w):
    frame = FrameConfig(pilot_power_w=pilot_power_w)
    got = expand(mmse_statistics(corr, frame))
    ref = mmse_reference(corr.R, frame)
    for name in ("mu", "omega"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == np.float64 and a.shape == b.shape, name
        assert np.array_equal(a == 0.0, b == 0.0), name
        np.testing.assert_allclose(a, b, rtol=1e-14, atol=0.0, err_msg=name)
