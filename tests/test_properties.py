"""Property checks over random small models of all three structures.

Coupled, mean-field and dense are one posterior family read through one
``Posterior``; for any parameters the read paths must agree with each other
and with the training bound, and the KL term and the summed variances must
stay nonnegative.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from addgp import ComponentSpec, Dataset, FullModel, Gaussian, SparseModel
from addgp.model import COUPLED, FULL, MEAN_FIELD, mean_field_mask
from addgp.sparse import decompose
from conftest import make_specs


def _model(structure, seed, c, m, n, d):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, d))
    ds = Dataset(X, rng.normal(size=n))
    lik = Gaussian(np.log(rng.uniform(0.2, 1.0)))
    if structure == FULL:
        model = FullModel(make_specs(rng, c, n, d=d, X=X), lik, ds)
        model.state.alpha = rng.normal(size=c * n) * 0.5
        model.state.lam = rng.normal(size=n)
        return model
    model = SparseModel(
        make_specs(rng, c, m, d=d, grid_z=True), lik, ds, structure=structure
    )
    model.state.alpha = rng.normal(size=m * c)
    B = rng.normal(size=model.state.B.shape) * 0.7
    if structure == MEAN_FIELD:
        B = np.where(mean_field_mask(m, c), B, 0.0)
    model.state.B = B
    return model


models = st.builds(
    _model,
    structure=st.sampled_from([COUPLED, MEAN_FIELD, FULL]),
    seed=st.integers(0, 2**32 - 1),
    c=st.integers(1, 3),
    m=st.integers(1, 5),
    n=st.integers(2, 9),
    d=st.integers(1, 2),
)


def _close(a, b, tol=1e-9):
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b)) <= tol * (1.0 + np.max(np.abs(b)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(models)
def test_read_paths_agree_and_stay_nonnegative(model):
    bound, _ = model.elbo_with_grads()
    assert abs(model.elbo() - bound) <= 1e-9 * max(1.0, abs(bound))

    train = model.marginals(include_components=True)
    query = model.marginals(Xq=model.data.X)
    assert _close(query.mu_sum, train.mu_sum)
    assert _close(query.var_sum, train.var_sum)

    if isinstance(model, FullModel):
        specs = [
            ComponentSpec(s.kernel, s.active_dims, s.project(model.data.X))
            for s in model.specs
        ]
        coupling = model.state.lam
    else:
        specs, coupling = model.specs, model.state.B
    grids = [s.project(model.data.X) for s in model.specs]
    effects = decompose(specs, model.state.alpha, coupling, grids, coupled_check=True)
    for (_, mean, var, disc), (mu_c, var_c) in zip(effects, train.per_component):
        assert _close(mean, mu_c)
        assert _close(var, var_c)
        assert disc <= 1e-9 * (1.0 + np.max(np.abs(var_c)))

    assert model.kl() >= -1e-10
    assert np.min(train.var_sum) >= -1e-10
