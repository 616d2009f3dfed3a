"""Exact page counts of the paper's protocol (§4) on small inputs.

The Fig. 8a Qinterval mix (5 queries per Qinterval, seed 0) runs cold,
one query at a time, against the paper's three access methods over a
64² terrain and the small Fig. 8b TIN.  The ``(page_reads,
random_reads, sequential_reads)`` totals per method and Qinterval must
equal the pinned integers: a change to the clustered layout, the run
coalescing or the read accounting shows here even when every answer
stays the same.
"""

import pytest

from repro.bench.experiments import QINTERVALS_FIG8
from repro.core import IAllIndex, IHilbertIndex, LinearScanIndex
from repro.core.batch import run_sequential
from repro.synth import lyon_like, roseburg_like, value_query_workload

FIELDS = {"terrain": lambda: roseburg_like(cells_per_side=64),
          "tin": lambda: lyon_like(num_sites=1200)}

#: (page_reads, random_reads, sequential_reads) per Qinterval of
#: QINTERVALS_FIG8, summed over its 5 queries.
PINS = {
    ("terrain", LinearScanIndex): [(165, 5, 160)] * 6,
    ("terrain", IAllIndex): [(93, 21, 72), (98, 22, 76), (105, 25, 80),
                             (110, 27, 83), (113, 28, 85), (119, 30, 89)],
    ("terrain", IHilbertIndex): [(57, 10, 47), (60, 10, 50), (65, 11, 54),
                                 (70, 10, 60), (71, 10, 61), (75, 10, 65)],
    ("tin", LinearScanIndex): [(140, 5, 135)] * 6,
    ("tin", IAllIndex): [(81, 24, 57), (107, 27, 80), (131, 34, 97),
                         (141, 39, 102), (144, 41, 103), (150, 45, 105)],
    ("tin", IHilbertIndex): [(105, 10, 95), (119, 10, 109),
                             (121, 10, 111), (125, 10, 115),
                             (127, 10, 117), (130, 10, 120)],
}


@pytest.fixture(scope="module")
def fields():
    return {name: make() for name, make in FIELDS.items()}


@pytest.mark.parametrize("field_name, method", sorted(
    PINS, key=lambda key: (key[0], key[1].name)),
    ids=lambda value: getattr(value, "name", value))
def test_cold_fig8a_page_counts_match_the_pins(fields, field_name, method):
    field = fields[field_name]
    index = method(field)
    counts = []
    for qinterval in QINTERVALS_FIG8:
        workload = value_query_workload(field.value_range, qinterval,
                                        count=5, seed=0)
        io = run_sequential(index, workload).io
        counts.append((io.page_reads, io.random_reads,
                       io.sequential_reads))
    assert counts == PINS[field_name, method]
