"""The three received-power association rules share one greedy loop.

Each rule is pinned against its own earlier stand-alone loop, kept below as
the reference, over generated gain matrices whose values repeat so that ties
and full BSs (capacity skips) occur often.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from greenran import CorrelationSet, ScenarioParams
from greenran.matching import llsf_assoc, recp_init, tsap_assoc

GAINS = (0.0, 1e-12, 2e-12, 5e-12, 1e-11)


def ref_recp(beta, N, L, delta_percent):
    M, K = beta.shape
    S = np.zeros((M, K), dtype=bool)
    bs_load = np.zeros(M, dtype=int)
    for k in range(K):
        target = delta_percent / 100.0 * beta[:, k].sum()
        order = np.lexsort((np.arange(M), -beta[:, k]))
        cum = 0.0
        taken = 0
        for m in order:
            if bs_load[m] >= N:
                continue
            S[m, k] = True
            bs_load[m] += 1
            cum += beta[m, k]
            taken += 1
            if cum >= target * (1 - 1e-12) or taken >= L:
                break
    return S


def ref_llsf(beta, N):
    M, K = beta.shape
    S = np.zeros((M, K), dtype=bool)
    bs_load = np.zeros(M, dtype=int)
    for k in range(K):
        for m in np.lexsort((np.arange(M), -beta[:, k])):
            if bs_load[m] < N:
                S[m, k] = True
                bs_load[m] += 1
                break
    return S


def ref_tsap(beta, N, L):
    M, K = beta.shape
    S = np.zeros((M, K), dtype=bool)
    bs_load = np.zeros(M, dtype=int)
    for k in range(K):
        thresh = 0.3 * beta[:, k].max()
        taken = 0
        for m in np.lexsort((np.arange(M), -beta[:, k])):
            if beta[m, k] < thresh or taken >= L:
                break
            if bs_load[m] >= N:
                continue
            S[m, k] = True
            bs_load[m] += 1
            taken += 1
    return S


@st.composite
def instances(draw):
    M = draw(st.integers(1, 8))
    K = draw(st.integers(1, 5))
    N = draw(st.integers(1, 3))
    L = draw(st.integers(1, M))
    gains = draw(st.lists(st.sampled_from(GAINS), min_size=M * K, max_size=M * K))
    beta = np.array(gains).reshape(M, K)
    # one antenna: beta = trace(R) / N is exactly the drawn gain
    corr = CorrelationSet(gain=beta, N=1)
    return corr, ScenarioParams(M=M, K=K, N=N, L=L)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(instances(), st.sampled_from((30.0, 80.0, 95.0, 100.0)))
def test_rules_match_reference_loops(inst, delta_percent):
    corr, scen = inst
    assert np.array_equal(corr.beta, corr.gain)
    beta = corr.beta
    assert np.array_equal(recp_init(corr, scen, delta_percent),
                          ref_recp(beta, scen.N, scen.L, delta_percent))
    assert np.array_equal(llsf_assoc(corr, scen), ref_llsf(beta, scen.N))
    assert np.array_equal(tsap_assoc(corr, scen), ref_tsap(beta, scen.N, scen.L))
