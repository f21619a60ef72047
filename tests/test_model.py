"""Data model, state initialization and the checks made at construction."""

import numpy as np
import pytest

from addgp import (
    ComponentSpec,
    DataError,
    Dataset,
    DimensionMismatch,
    DomainError,
    FullVariationalState,
    Gaussian,
    InvalidRank,
    KernelParams,
    SparseModel,
    SquaredExp,
    VariationalState,
    ZeroMeanSE,
)
from addgp.model import (
    COUPLED,
    FULL,
    MEAN_FIELD,
    anova_specs,
    inducing_grid,
    init_state,
    mean_field_mask,
)


def _spec(m=4, d=1):
    k = SquaredExp(
        KernelParams(0.0, np.zeros(d)), active_dims=tuple(range(d))
    )
    return ComponentSpec(k, tuple(range(d)), np.linspace(0, 1, m)[:, None] * np.ones(d))


def test_dataset_checks_shapes():
    with pytest.raises(DimensionMismatch):
        Dataset(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(DimensionMismatch):
        Dataset(np.zeros((0, 2)), np.zeros(0))
    ds = Dataset(np.zeros((5, 2)), np.arange(5.0))
    assert ds.n == 5 and ds.d == 2


def test_component_spec_projection():
    s = ComponentSpec(
        SquaredExp(KernelParams(0.0, np.zeros(2)), active_dims=(0, 1)),
        (2, 0),
        np.zeros((3, 2)),
    )
    X = np.arange(12.0).reshape(3, 4)
    assert np.allclose(s.project(X), X[:, [2, 0]])
    assert s.m == 3
    with pytest.raises(DimensionMismatch):
        ComponentSpec(
            SquaredExp(KernelParams(0.0, np.zeros(2)), active_dims=(0, 1)),
            (0, 1),
            np.zeros((3, 1)),
        )


def test_init_state_is_prior_matching():
    specs = [_spec(), _spec()]
    st = init_state(specs)
    assert st.structure == COUPLED
    assert st.alpha.shape == (8,)
    assert st.B.shape == (8, 4)  # rank defaults to M
    assert not st.alpha.any() and not st.B.any()

    st2 = init_state(specs, r=6)
    assert st2.B.shape == (8, 6)

    mf = init_state(specs, structure=MEAN_FIELD)
    assert mf.B.shape == (8, 8)
    with pytest.raises(InvalidRank):
        init_state(specs, structure=MEAN_FIELD, r=4)
    with pytest.raises(InvalidRank):
        init_state(specs, r=0)


def test_full_state_shapes():
    # the dense model's specs carry its N training inputs as Z
    st = init_state([_spec(m=5)] * 3, FULL)
    assert st.alpha.shape == (15,) and st.lam.shape == (5,)
    with pytest.raises(DimensionMismatch):
        FullVariationalState(np.zeros(7), np.zeros(3))


def test_variational_state_checks():
    with pytest.raises(DimensionMismatch):
        VariationalState(np.zeros(4), np.zeros((6, 2)))
    with pytest.raises(ValueError):
        VariationalState(np.zeros(4), np.zeros((4, 2)), structure="bogus")


def test_mean_field_mask_layout():
    mask = mean_field_mask(2, 3)
    assert mask.shape == (6, 6)
    for i in range(6):
        for j in range(6):
            assert mask[i, j] == (i // 2 == j // 2)


def test_validate_model_accepts_good_model():
    # the model is validated when it is built: a good one builds
    ds = Dataset(np.random.default_rng(0).uniform(0, 1, (10, 2)), np.zeros(10))
    model = SparseModel([_spec(d=2), _spec(d=2)], Gaussian(0.0), ds)
    assert len(model.specs) == 2


def test_validate_model_reports_issues():
    rng = np.random.default_rng(1)
    ds = Dataset(rng.uniform(0, 1, (10, 2)), np.zeros(10))

    out_of_range = ComponentSpec(
        SquaredExp(KernelParams(0.0, np.zeros(1))), (5,), np.zeros((4, 1))
    )
    with pytest.raises(DimensionMismatch, match="input columns"):
        SparseModel([out_of_range], Gaussian(0.0), ds)
    with pytest.raises(DimensionMismatch, match="inducing count"):
        SparseModel([_spec(m=4), _spec(m=3)], Gaussian(0.0), ds)
    with pytest.raises(DataError):
        Dataset(rng.uniform(0, 1, (4, 1)), np.array([0.0, np.nan, 1.0, 2.0]))


def test_validate_model_checks_unit_box_for_zero_mean_kernels():
    # the centered kernel is defined on [0, 1], at the data and at Z
    centered = ZeroMeanSE(KernelParams(0.0, np.log([0.3])))
    spec = ComponentSpec(centered, (0,), np.linspace(0, 1, 4)[:, None])
    good = Dataset(np.array([[0.7], [0.2]]), np.zeros(2))
    SparseModel([spec], Gaussian(0.0), good)
    with pytest.raises(DomainError, match="component 0"):
        SparseModel([spec], Gaussian(0.0), Dataset(np.array([[1.7], [0.2]]), np.zeros(2)))
    wide = ComponentSpec(centered, (0,), np.linspace(0, 1.5, 4)[:, None])
    with pytest.raises(DomainError, match="component 0"):
        SparseModel([wide], Gaussian(0.0), good)


def test_constructors_check_the_model():
    ds = Dataset(np.random.default_rng(1).uniform(0, 1, (10, 2)), np.zeros(10))
    with pytest.raises(DimensionMismatch, match="no components"):
        SparseModel([], Gaussian(0.0), ds)
    with pytest.raises(DataError):
        ComponentSpec(SquaredExp(KernelParams(0.0, np.zeros(1))), (0,), [[0.0], [np.inf]])
    # the kernel's local columns index the projected columns
    with pytest.raises(DimensionMismatch, match="local columns"):
        ComponentSpec(
            SquaredExp(KernelParams(0.0, np.zeros(1)), active_dims=(1,)), (0,), np.zeros((4, 1))
        )


def test_inducing_grid_shapes():
    g1 = inducing_grid(5, (0,))
    assert g1.shape == (5, 1)
    assert g1.min() >= 0.0 and g1.max() <= 1.0
    assert np.all(np.diff(g1.ravel()) > 0)

    g2 = inducing_grid(16, (0, 1))
    assert g2.shape == (16, 2)
    # exact 4x4 product grid: each axis value appears 4 times
    assert len(np.unique(g2[:, 0])) == 4 and len(np.unique(g2[:, 1])) == 4

    g3 = inducing_grid(7, (0, 1))
    assert g3.shape == (7, 2)
    # row-major truncation of the 3x3 grid: first axis sorted non-decreasing
    assert np.all(np.diff(g3[:, 0]) >= 0)

    with pytest.raises(DimensionMismatch):
        inducing_grid(4, (0, 1, 2))


def test_anova_specs_assembly():
    g = [KernelParams(0.0, np.log([0.4])) for _ in range(8)]
    specs = anova_specs(g, sigma0=1.0, m=16, ndim=6)
    assert len(specs) == 7
    assert all(s.m == 16 for s in specs)
    assert specs[6].Z.shape == (16, 2)
    assert specs[0].Z.shape == (16, 1)
    assert specs[6].active_dims == (0, 1)
