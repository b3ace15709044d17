"""Shared fixtures: scaled-down dataset campaigns.

The full campaigns (defaults of :mod:`repro.datasets`) take tens of
seconds to simulate; tests use miniature versions that exercise the
same code paths.  Session scope keeps the cost to one generation per
test run.
"""

import pickle

import pytest

from repro.datasets import LGConfig, SandiaConfig, generate_lg, generate_sandia

SMALL_SANDIA = SandiaConfig(
    cells=("sandia-nmc",),
    ambient_temps_c=(25.0,),
    cycles_per_condition=1,
    sim_dt_s=2.0,
    seed=11,
)

SMALL_LG = LGConfig(
    sampling_period_s=0.5,
    n_train_mixed=2,
    train_temps_c=(10.0, 25.0),
    test_temps_c=(25.0,),
    mixed_segment_s=(120.0, 240.0),
    initial_soc=0.55,
    test_patterns=("us06", "mixed"),
    seed=11,
)


@pytest.fixture(scope="session")
def small_sandia():
    """One-chemistry, one-temperature Sandia campaign (3 cycles)."""
    return generate_sandia(SMALL_SANDIA)


@pytest.fixture(scope="session")
def small_lg():
    """Two train + two test cycle LG campaign at 0.5 s sampling."""
    return generate_lg(SMALL_LG)


@pytest.fixture
def resolve_shard():
    """``spec.resolve(0)`` — an in-process engine or a ``ShardWorker`` — closed at teardown.

    Lets one test body run against both launches of the same
    :class:`~repro.serve.WorkerSpec` (``url=None`` and a worker URL).
    """
    built = []

    def resolve(spec):
        built.append(spec.resolve(0))
        return built[-1]

    yield resolve
    for shard in built:
        if hasattr(shard, "close"):
            shard.close()


class _CreatesMarker:
    """Unpickling this creates a file: its ``__reduce__`` calls ``open``."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


@pytest.fixture
def marker_pickle(tmp_path):
    """``(marker, body)``: a pickle body that creates ``marker`` if anything unpickles it."""
    marker = tmp_path / "unpickled"
    return marker, pickle.dumps(_CreatesMarker(marker))
