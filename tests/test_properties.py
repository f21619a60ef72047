"""Property checks over random small models of all three structures.

Coupled, mean-field and dense are one posterior family read through one
``Posterior`` and bounded by one routine; for any parameters the bound must
equal the expected log-likelihood at the read path's marginals minus the
KL, the effect tables must agree with those marginals, the bound must stay
below the exact log evidence, and the KL term and the summed variances must
stay nonnegative. The two file readers must turn any bytes into a result or
their own format error, and ``--config`` any JSON object into exit 0, 1 or
2 with no traceback.
"""

import contextlib
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addgp import (
    ComponentSpec,
    Dataset,
    FullModel,
    Gaussian,
    Poisson,
    SparseModel,
    exact_sum_posterior,
    load_model,
    save_model,
)
from addgp import sparse
from addgp.cli import build_parser, main, read_csv
from addgp.errors import DataError, ModelFormatError
from addgp.io import Rescale, SavedModel
from addgp.model import COUPLED, FULL, MEAN_FIELD, VariationalState, mean_field_mask
from addgp.sparse import VAR_CLAMP, decompose, predict_marginals
from conftest import dense_blocks, make_specs, woodbury_cov


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
    ev = exact_sum_posterior(
        model.specs, model.data, model.likelihood.noise_variance
    ).log_evidence
    assert model.elbo() <= ev + 1e-8 * abs(ev)

    # the bound and the read path both take their marginals from
    # ``Posterior.mu_t``, per block of q(U) for mean-field
    train = model.marginals(include_components=True)
    var = np.maximum(train.var_sum, VAR_CLAMP)
    ell = np.sum(model.likelihood.expected_loglik(model.data.Y, train.mu_sum, var))
    assert abs(model.elbo() - (ell - model.kl())) <= 1e-9 * abs(model.elbo())

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


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    c=st.integers(1, 4),
    m=st.integers(1, 5),
    n=st.integers(2, 9),
    d=st.integers(1, 2),
)
def test_mean_field_blocks_match_full_rank_coupled(seed, c, m, n, d):
    _check_mean_field_against_coupled(_model(MEAN_FIELD, seed, c, m, n, d), m, c)


@pytest.mark.parametrize("setting", ["poisson", "row_blocks"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    c=st.integers(1, 4),
    m=st.integers(1, 5),
    n=st.integers(4, 9),
    d=st.integers(1, 2),
)
def test_mean_field_oracle_across_rows(setting, seed, c, m, n, d):
    # a Gaussian's dE/ds is one constant, and one row block holds all rows;
    # a Poisson's varies by row, so Gs must weight each row of F_c, and
    # blocks of two rows make the data sums H_c = F_c^T (Gs o F_c) span blocks
    mf = _model(MEAN_FIELD, seed, c, m, n, d)
    rows = sparse._BOUND_ROWS
    if setting == "poisson":
        counts = np.random.default_rng(seed).poisson(2.0, size=n).astype(float)
        mf = SparseModel(mf.specs, Poisson(), Dataset(mf.data.X, counts), state=mf.state)
    else:
        rows = 2
        assert len(sparse._row_blocks(n, rows)) > 1
    with mock.patch.object(sparse, "_BOUND_ROWS", rows):
        _check_mean_field_against_coupled(mf, m, c)


def _check_mean_field_against_coupled(mf, m, c):
    # the coupled model with R = M C at the same block-diagonal B is the
    # same posterior through one MC x MC capacitance: an oracle for the
    # per-block bound and its gradients
    cp = SparseModel(mf.specs, mf.likelihood, mf.data, r=m * c)
    cp.state.alpha = mf.state.alpha.copy()
    cp.state.B = mf.state.B.copy()

    def rel_close(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return np.max(np.abs(a - b), initial=0.0) <= 1e-10 * np.max(np.abs(b), initial=0.0)

    assert rel_close(mf.elbo(), cp.elbo())
    bound_mf, g_mf = mf.elbo_with_grads(train_hypers=True)
    bound_cp, g_cp = cp.elbo_with_grads(train_hypers=True)
    assert rel_close(bound_mf, bound_cp)
    assert rel_close(g_mf["alpha"], g_cp["alpha"])
    mask = mean_field_mask(m, c)
    assert rel_close(g_mf["B"][mask], g_cp["B"][mask])
    assert np.all(g_mf["B"][~mask] == 0.0)
    assert rel_close(np.concatenate(g_mf["kernels"]), np.concatenate(g_cp["kernels"]))
    assert rel_close(g_mf["lik"], g_cp["lik"])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    coupled=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    c=st.integers(2, 3),
    m=st.integers(1, 5),
    n=st.integers(2, 9),
    d=st.integers(1, 2),
)
def test_block_reads_match_dense_posterior(coupled, seed, c, m, n, d):
    # mean-field reads split B into its C diagonal blocks and factor C
    # capacitances of M x M; one nonzero entry off those blocks makes B a
    # coupled R = M C posterior, read whole through one R x R factor. Both
    # must match the dense Sigma_U = (K^{-1} + B B^T)^{-1}, through which
    # q(f_c(x)) has variance k_c(x, x) - F_c K_c^{-1} (K_c - Sigma_cc) K_c^{-1} F_c^T
    model = _model(MEAN_FIELD, seed, c, m, n, d)
    rng = np.random.default_rng(seed)
    if coupled:
        b = model.state.B.copy()
        off = np.argwhere(~mean_field_mask(m, c))
        b[tuple(off[rng.integers(len(off))])] = rng.normal()
        state = VariationalState(model.state.alpha, b, COUPLED)
        model = SparseModel(model.specs, model.likelihood, model.data, state=state)
    alpha, B = model.state.alpha, model.state.B
    Xq = rng.uniform(0.0, 1.0, size=(6, d))
    K, F = dense_blocks(model.specs, Xq)
    W = np.linalg.solve(K, F.T)
    D = K - woodbury_cov(K, B)
    kdiag = [s.kernel.diag(s.project(Xq)) for s in model.specs]
    per = [
        (F[:, blk] @ alpha[blk], kd - np.sum(W[blk] * (D[blk, blk] @ W[blk]), axis=0))
        for kd, blk in zip(kdiag, (slice(ci * m, (ci + 1) * m) for ci in range(c)))
    ]

    shapes = []
    factor = sparse.cholesky

    def recording(a):
        shapes.append(a.shape)
        return factor(a)

    grids = [s.project(Xq) for s in model.specs]
    with mock.patch.object(sparse, "cholesky", recording):
        reads = [
            model.marginals(Xq, include_components=True),
            predict_marginals(model.specs, alpha, B, Xq, include_components=True),
        ]
        effects = decompose(model.specs, alpha, B, grids, coupled_check=True)
    assert shapes == ([(m * c, m * c)] if coupled else [(m, m)] * c) * 3
    for marg in reads:
        assert _close(marg.mu_sum, F @ alpha)
        assert _close(marg.var_sum, sum(kdiag) - np.sum(W * (D @ W), axis=0))
        for (mean, var), (mean_ref, var_ref) in zip(marg.per_component, per, strict=True):
            assert _close(mean, mean_ref)
            assert _close(var, var_ref)
    for (_, mean, var, disc), (mean_ref, var_ref) in zip(effects, per, strict=True):
        assert _close(mean, mean_ref)
        assert _close(var, var_ref)
        assert disc <= 1e-9 * (1.0 + np.max(np.abs(var_ref)))


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The bytes of one valid CSV and one valid model file."""
    rng = np.random.default_rng(0)
    saved = SavedModel(
        structure=COUPLED,
        specs=make_specs(rng, 2, 3, d=2, grid_z=True),
        likelihood=Gaussian(-1.0),
        alpha=rng.normal(size=6),
        B=rng.normal(size=(6, 3)),
        rescale=Rescale(np.zeros(2), np.ones(2)),
        input_dim=2,
    )
    path = tmp_path_factory.mktemp("valid") / "m.addgp"
    save_model(path, saved)
    csv = b"# comment\nx1,x2,y\n0.1,0.2,1.5\n0.3,0.4,-2e-3\n\n0.5,0.6,7\n"
    return {"csv": csv, "model": path.read_bytes()}


# arbitrary bytes, or edits (overwrite, insert, cut off the rest) at
# relative positions of a valid file
_contents = st.one_of(
    st.binary(max_size=300),
    st.lists(
        st.tuples(
            st.sampled_from(["set", "insert", "cut"]),
            st.floats(0.0, 1.0),
            st.integers(0, 255),
        ),
        min_size=1,
        max_size=4,
    ),
)


def _apply(valid, contents):
    if isinstance(contents, bytes):
        return contents
    data = bytearray(valid)
    for op, where, byte in contents:
        i = int(where * len(data))
        if op == "set" and i < len(data):
            data[i] = byte
        elif op == "insert":
            data.insert(i, byte)
        elif op == "cut":
            del data[i:]
    return bytes(data)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(csv=_contents, model=_contents)
def test_file_readers_raise_only_format_errors(tmp_path_factory, valid_files, csv, model):
    tmp = tmp_path_factory.mktemp("fuzz")
    for kind, contents, read, error in (
        ("csv", csv, read_csv, DataError),
        ("model", model, load_model, ModelFormatError),
    ):
        path = tmp / kind
        path.write_bytes(_apply(valid_files[kind], contents))
        try:
            read(str(path))
        except error:
            pass


def _options():
    """Option dest -> action over the parser and every subcommand, but
    ``threads``: no drawn config may set an OpenBLAS thread count."""
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0].choices.values()
    actions = (a for p in [parser, *subparsers] for a in p._actions)
    return {a.dest: a for a in actions if a.dest != "threads"}


_OPTIONS = _options()
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def _typed_values(action):
    """Values of the JSON type an option takes, in and out of its range."""
    if action.nargs == 0:
        return st.booleans()
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if action.type is float:
        return st.floats()
    if action.type is not None:  # the integer and count types
        return st.integers(-2, 9) | st.sampled_from(["1,2", "3,,4", "0,5"])
    return st.text(max_size=6)


def _entry(i):
    """A config entry: now and then a junk key, else a real option under
    its dest or its flag spelling, with a value of its type or of any."""
    if i == 0:
        return st.tuples(st.text(max_size=8), _json_values)
    return st.sampled_from(sorted(_OPTIONS)).flatmap(
        lambda d: st.tuples(
            st.sampled_from([d, d.replace("_", "-")]),
            _typed_values(_OPTIONS[d]) if i > 3 else _json_values,
        )
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(config=st.lists(st.integers(0, 9).flatmap(_entry), max_size=4).map(dict))
def test_config_files_exit_with_one_error_line(tmp_path_factory, config):
    # the explicit flags keep the command small whatever the config says
    tmp = tmp_path_factory.mktemp("config")
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    argv = ["--config", str(path), "synth", "--out", str(tmp / "out.csv"),
            "--n", "5", "--dims", "6", "--seed", "0"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert sum("error:" in line for line in err.splitlines()) == 1, err
