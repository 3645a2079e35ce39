"""pytest-benchmark wrapper: wall clock of regenerating each registered figure.

One parametrised test over the ``FIGURES`` registry.  Each case plans,
executes inline and renders one figure once at the ``small`` scale (seconds
to a minute of wall clock); run ``python -m repro.bench --figure fig04
--scale paper`` for a full-size sweep.  ``-k appendix`` selects the one
figure that simulates nothing — CI collects the file through it.
"""

import pytest

from repro import SCALES
from repro.bench import FIGURES, run_figure


@pytest.mark.benchmark(group="figures")
@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure(benchmark, name):
    data = benchmark.pedantic(
        run_figure, args=(name, SCALES["small"]), iterations=1, rounds=1
    )
    assert data  # every renderer returns a non-empty data dictionary
