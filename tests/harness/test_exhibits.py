"""Every exhibit is one cell grid plus one reducer, shared by its callers.

``run_all`` simulates each distinct cell of every exhibit once, and each
exhibit's reducer reads exactly its own grid's outcomes, by cell key: a
grid and a reducer that drift apart fail here before they print a wrong
figure.
"""

from collections.abc import Mapping

import pytest

from repro.harness import campaign
from repro.harness.experiments import ALL_EXPERIMENTS, EXHIBITS, run_all

SCALE = 0.05


@pytest.fixture(scope="module")
def run_all_once():
    """``run_all`` at ``SCALE``, with every cell it simulated and its outcome."""
    executed = []
    outcomes = {}
    real = campaign.execute_cell

    def recorded(cell, **kwargs):
        outcome = real(cell, **kwargs)
        executed.append(cell.key())
        outcomes[cell.key()] = outcome
        return outcome

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(campaign, "execute_cell", recorded)
        results = run_all(SCALE)
    return executed, outcomes, dict(zip(ALL_EXPERIMENTS, results))


class _Reads(Mapping):
    """An outcome map that records the keys read from it."""

    def __init__(self, outcomes):
        self._outcomes = outcomes
        self.keys_read = set()

    def __getitem__(self, key):
        self.keys_read.add(key)
        return self._outcomes[key]

    def __iter__(self):
        return iter(self._outcomes)

    def __len__(self):
        return len(self._outcomes)


def test_run_all_simulates_each_distinct_cell_once(run_all_once):
    executed, _outcomes, results = run_all_once
    # 291 cells across the exhibits; Figure 8's and 9's HEAVYWT runs,
    # Figure 12's HEAVYWT and SYNCOPTI runs and the study's single-threaded
    # baselines repeat cells of other exhibits.
    assert len(executed) == len(set(executed)) == 251
    assert set(executed) == {
        cell.key() for exhibit in EXHIBITS.values() for cell in exhibit.cells(SCALE)
    }
    assert not any(result.failures for result in results.values())


@pytest.mark.parametrize("name", list(EXHIBITS))
def test_each_reducer_reads_exactly_its_own_cells(run_all_once, name):
    _executed, outcomes, results = run_all_once
    exhibit = EXHIBITS[name]
    reads = _Reads(outcomes)
    rendered = exhibit.render(SCALE, reads)
    assert reads.keys_read == {cell.key() for cell in exhibit.cells(SCALE)}
    assert rendered.text == results[name].text
