"""The benchmark harness in ``perfbench/`` wraps package functions and
methods by name and builds models from the state classes, so a rename or
deletion in ``src/`` can break it without failing any other test. These
checks install its hooks and take them out again; they change nothing in
``perfbench/``."""

from pathlib import Path

import numpy as np
import pytest

from addgp import FullModel, Gaussian, SparseModel
from addgp.model import FullVariationalState, VariationalState  # noqa: F401 (the harness's imports)
from conftest import gaussian_dataset, make_specs


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import worker

    return worker


def test_tracing_hooks_find_their_targets(worker):
    import spans

    tracer = spans.Tracer()
    try:
        worker.install_tracing(tracer)
        assert tracer.installed
    finally:
        tracer.uninstall()
    assert not tracer.installed


def test_counters_wrap_both_models(worker, monkeypatch):
    for cls in (SparseModel, FullModel):
        for meth in ("elbo_with_grads", "train"):
            monkeypatch.setattr(cls, meth, getattr(cls, meth))
    counters = worker.Counters()
    worker.install_counters(counters)
    rng = np.random.default_rng(0)
    SparseModel(make_specs(rng, 2, 3), Gaussian(0.0), gaussian_dataset(rng, 6)).elbo_with_grads()
    assert counters.evals == 1 and counters.failed_evals == 0
    # the dense model is its own class, not a SparseModel whose wrapped
    # method the counter would wrap again: one evaluation counts once
    FullModel(make_specs(rng, 2, 3), Gaussian(0.0), gaussian_dataset(rng, 6)).elbo_with_grads()
    assert counters.evals == 2 and counters.failed_evals == 0
