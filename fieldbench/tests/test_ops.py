"""Operation lists: the seed moves value intervals within fixed strata."""

import numpy as np

from fieldbench.workloads import PARAMS, intervals, read_ops, update_ops
from repro.bench.experiments import QINTERVALS_FIG8
from repro.geometry.interval import Interval


def make(seed, count, value_range=Interval(100.0, 500.0)):
    return intervals(np.random.default_rng(seed), value_range, count)


def stratum(interval, setting, count, value_range=Interval(100.0, 500.0)):
    """Index of the stratum the interval's low endpoint lies in."""
    k = len(QINTERVALS_FIG8)
    n = len(range(setting, count, k))
    span = value_range.hi - value_range.lo
    room = span - QINTERVALS_FIG8[setting] * span
    return int((interval[0] - value_range.lo) / room * n)


def test_each_position_keeps_its_setting_and_stratum_across_seeds():
    count = 60
    first, second = make(1, count), make(2, count)
    assert first != second
    k = len(QINTERVALS_FIG8)
    for i, (a, b) in enumerate(zip(first, second)):
        setting = i % k
        width = QINTERVALS_FIG8[setting] * 400.0
        assert np.isclose(a[1] - a[0], width)
        assert np.isclose(b[1] - b[0], width)
        assert stratum(a, setting, count) == stratum(b, setting, count)


def test_every_stratum_of_a_setting_is_used_once():
    count = 60
    out = make(7, count)
    k = len(QINTERVALS_FIG8)
    for setting in range(k):
        taken = sorted(stratum(iv, setting, count)
                       for iv in out[setting::k])
        assert taken == list(range(len(taken)))


def test_pass_layout_is_the_same_for_every_seed():
    vr = Interval(100.0, 500.0)
    p = PARAMS["serve-read"]["smoke"]
    kinds = [[op[0] for op in read_ops(np.random.default_rng(s), vr, p)]
             for s in (1, 2)]
    assert kinds[0] == kinds[1] and kinds[0][-1] == "batch"
    p = PARAMS["update-mixed"]["smoke"]
    a, b = (update_ops(np.random.default_rng(s), vr, 49 * 49, p)
            for s in (1, 2))
    assert [op[0] for op in a] == [op[0] for op in b]
    # The update stream is fixed; queries move with the seed.
    assert [op for op in a if op[0] == "update"] \
        == [op for op in b if op[0] == "update"]
    assert [op for op in a if op[0] == "query"] \
        != [op for op in b if op[0] == "query"]
