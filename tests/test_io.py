"""Model persistence: bit-exact round trips and format validation.

Floats are stored as C99 hex literals, so every array must survive a
save/load cycle unchanged down to the last bit, including denormals and
signed zeros. The loader must reject unknown format ids, kernel types,
likelihoods, and malformed lines with ModelFormatError.
"""

import numpy as np
import pytest

from addgp import (
    ComponentSpec,
    Constant,
    Gaussian,
    KernelParams,
    Poisson,
    Product,
    SquaredExp,
    Sum,
    ZeroMeanSE,
    load_model,
    save_model,
)
from addgp.cli import main
from addgp.errors import DimensionMismatch, InvalidRank, ModelFormatError
from addgp.io import Rescale, SavedModel, _write_kernel
from addgp.model import COUPLED, FULL, MEAN_FIELD


def _se_specs(rng, c=2, m=3, d=2):
    specs = []
    for ci in range(c):
        params = KernelParams(
            log_variance=rng.normal(),
            log_lengthscales=rng.normal(size=1),
        )
        specs.append(
            ComponentSpec(
                SquaredExp(params),
                (ci % d,),
                rng.uniform(0, 1, size=(m, 1)),
            )
        )
    return specs


def _kernel_params(kern):
    return np.asarray(kern.get_params(), dtype=float)


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    specs = _se_specs(rng)
    # awkward values on purpose: a denormal, a negative zero, pi
    alpha = np.array([np.pi, -0.0, 5e-324, 1 / 3, -1e300, 2.0])
    B = rng.normal(size=(6, 4))
    B[0, 0] = np.nextafter(1.0, 2.0)
    saved = SavedModel(
        structure=COUPLED,
        specs=specs,
        likelihood=Gaussian(np.log(0.37)),
        alpha=alpha,
        B=B,
        input_dim=2,
    )
    path = tmp_path / "model.txt"
    save_model(path, saved)
    back = load_model(path)

    assert back.structure == COUPLED
    assert back.input_dim == 2
    assert np.array_equal(back.alpha, alpha)
    assert np.array_equal(back.B, B)
    assert back.lam is None
    assert back.rescale is None
    assert back.likelihood.kind == "gaussian"
    assert np.array_equal(
        back.likelihood.get_params(), saved.likelihood.get_params()
    )
    for s0, s1 in zip(specs, back.specs):
        assert s1.active_dims == s0.active_dims
        assert np.array_equal(s1.Z, s0.Z)
        assert np.array_equal(_kernel_params(s1.kernel), _kernel_params(s0.kernel))


def test_round_trip_second_save_is_identical(tmp_path):
    rng = np.random.default_rng(1)
    saved = SavedModel(
        structure=COUPLED,
        specs=_se_specs(rng),
        likelihood=Gaussian(np.log(0.5)),
        alpha=rng.normal(size=6),
        B=rng.normal(size=(6, 6)),
        input_dim=2,
    )
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    save_model(p1, saved)
    save_model(p2, load_model(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_kernel_tree(tmp_path):
    # a sum of a constant, a centered one-dim part, and a product
    # interaction, the shape the additive decomposition uses
    tree = Sum(
        [
            Constant(np.log(0.5), trainable=False),
            ZeroMeanSE(
                KernelParams(np.log(1.2), np.log([0.3])), active_dim=0
            ),
            Product(
                [
                    ZeroMeanSE(
                        KernelParams(np.log(0.8), np.log([0.25])), active_dim=0
                    ),
                    ZeroMeanSE(
                        KernelParams(0.0, np.log([0.4])), active_dim=1
                    ),
                ]
            ),
        ]
    )
    rng = np.random.default_rng(2)
    spec = ComponentSpec(tree, (0, 1), rng.uniform(0, 1, size=(4, 2)))
    saved = SavedModel(
        structure=MEAN_FIELD,
        specs=[spec],
        likelihood=Poisson(),
        alpha=rng.normal(size=4),
        B=rng.normal(size=(4, 4)),
        input_dim=2,
    )
    path = tmp_path / "tree.txt"
    save_model(path, saved)
    back = load_model(path)

    assert back.structure == MEAN_FIELD
    assert back.likelihood.kind == "poisson"
    k1 = back.specs[0].kernel
    assert isinstance(k1, Sum)
    assert isinstance(k1.parts[0], Constant)
    assert k1.parts[0].trainable is False
    assert isinstance(k1.parts[2], Product)
    assert np.array_equal(_kernel_params(k1), _kernel_params(tree))
    X = rng.uniform(0, 1, size=(5, 2))
    assert np.array_equal(k1.eval(X), tree.eval(X))


def _mean_field_b(rng, cut=None):
    """A mean-field B for C = 2, M = 3, or with ``cut`` one load refuses: an
    entry off its diagonal M x M blocks, or a (M C, M) shape."""
    b = np.kron(np.eye(2), np.ones((3, 3))) * rng.normal(size=(6, 6))
    if cut == "off_block":
        b[0, 5] = 0.25
    elif cut == "shape":
        b = b[:, :3]
    return b


@pytest.mark.parametrize("cut", ["off_block", "shape"])
def test_rejects_mean_field_coupling_outside_its_blocks(tmp_path, capsys, cut):
    # a mean-field file is read block by block, so a B with entries off its
    # diagonal M x M blocks, or not (M C, M C), is not that model; save_model
    # refuses to write one, so the bad file is a valid one with its b edited
    rng = np.random.default_rng(7)
    specs = _se_specs(rng, c=2, m=3)
    path = tmp_path / "mf.addgp"
    save_model(path, SavedModel(MEAN_FIELD, specs, Gaussian(0.0), rng.normal(size=6),
                                _mean_field_b(rng), input_dim=2))
    text = path.read_text()
    b = _mean_field_b(rng, cut)
    path.write_text(
        text[: text.index("b.shape")]
        + f"b.shape = {b.shape[0]} {b.shape[1]}\n"
        + "".join(f"b.row.{i} = {' '.join(map(float.hex, row))}\n" for i, row in enumerate(b))
    )
    with pytest.raises(ModelFormatError, match=r"'b' in \[state\]"):
        load_model(path)
    query = tmp_path / "q.csv"
    query.write_text("x1,x2\n0.5,0.5\n")
    assert main(["predict", str(path), str(query), "--out", str(tmp_path / "p.csv")]) == 2
    assert "'b' in [state]" in capsys.readouterr().err


@pytest.mark.parametrize("cut", ["off_block", "shape"])
def test_save_refuses_mean_field_coupling_outside_its_blocks(tmp_path, cut):
    rng = np.random.default_rng(8)
    saved = SavedModel(MEAN_FIELD, _se_specs(rng, c=2, m=3), Gaussian(0.0),
                       rng.normal(size=6), _mean_field_b(rng, cut), input_dim=2)
    path = tmp_path / "mf.addgp"
    with pytest.raises((DimensionMismatch, InvalidRank)):
        save_model(path, saved)
    assert not path.exists()


def test_round_trip_dense_structure(tmp_path):
    rng = np.random.default_rng(3)
    specs = _se_specs(rng, c=2, m=5, d=2)
    saved = SavedModel(
        structure=FULL,
        specs=specs,
        likelihood=Gaussian(np.log(0.8)),
        alpha=rng.normal(size=10),
        lam=rng.uniform(0.5, 2.0, size=5),
        input_dim=2,
    )
    path = tmp_path / "dense.txt"
    save_model(path, saved)
    back = load_model(path)
    assert back.structure == FULL
    assert back.B is None
    assert np.array_equal(back.lam, saved.lam)


def test_round_trip_rescale(tmp_path):
    rng = np.random.default_rng(4)
    saved = SavedModel(
        structure=COUPLED,
        specs=_se_specs(rng),
        likelihood=Gaussian(0.0),
        alpha=np.zeros(6),
        B=np.zeros((6, 6)),
        rescale=Rescale(lo=np.array([-1.0, 2.5]), hi=np.array([4.0, 7.5])),
        input_dim=2,
    )
    path = tmp_path / "rescaled.txt"
    save_model(path, saved)
    back = load_model(path)
    assert np.array_equal(back.rescale.lo, saved.rescale.lo)
    assert np.array_equal(back.rescale.hi, saved.rescale.hi)
    X = rng.uniform(-1, 7, size=(8, 2))
    assert np.allclose(back.rescale.invert(back.rescale.apply(X)), X)


@pytest.mark.parametrize("lo1, hi1", [(2.5, 2.5), (2.5, 1.0), (-1e308, 1e308)])
def test_rejects_rescale_without_positive_finite_span(tmp_path, capsys, lo1, hi1):
    # rescaling divides by hi - lo, so a column with hi <= lo, or a span that
    # overflows, would turn every query into NaN: the file is refused
    rng = np.random.default_rng(5)
    saved = SavedModel(COUPLED, _se_specs(rng), Gaussian(0.0), rng.normal(size=6),
                       rng.normal(size=(6, 6)), input_dim=2,
                       rescale=Rescale(lo=np.array([0.0, lo1]), hi=np.array([1.0, hi1])))
    path = tmp_path / "flat.addgp"
    save_model(path, saved)
    with pytest.raises(ModelFormatError, match=r"'rescale.hi' in \[model\]"):
        load_model(path)
    query, out = tmp_path / "q.csv", tmp_path / "p.csv"
    query.write_text("x1,x2\n0.5,2.5\n")
    capsys.readouterr()
    assert main(["predict", str(path), str(query), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "'rescale.hi'" in err, err
    assert not out.exists()


def test_rejects_wrong_format_id(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("addgp-v2\n[model]\nstructure = coupled\n")
    with pytest.raises(ModelFormatError, match="addgp-v1"):
        load_model(path)


def test_rejects_unknown_kernel_type(tmp_path):
    rng = np.random.default_rng(5)
    saved = SavedModel(
        structure=COUPLED,
        specs=_se_specs(rng, c=1),
        likelihood=Gaussian(0.0),
        alpha=np.zeros(3),
        B=np.zeros((3, 3)),
        input_dim=2,
    )
    path = tmp_path / "model.txt"
    save_model(path, saved)
    text = path.read_text().replace("squared_exp", "pineapple")
    path.write_text(text)
    with pytest.raises(ModelFormatError, match="pineapple"):
        load_model(path)


def test_rejects_deep_kernel_tree(tmp_path, capsys):
    # a file is read recursively down its kernel tree, so a deep tree of
    # one-part sums must be refused before it exhausts the stack
    rng = np.random.default_rng(6)
    path = tmp_path / "deep.addgp"
    save_model(path, SavedModel(COUPLED, _se_specs(rng, c=1), Gaussian(0.0),
                                np.zeros(3), np.zeros((3, 3)), input_dim=2))
    depth = 2000
    sums = "".join(f"kernel{'.part0' * i}.type = sum\nkernel{'.part0' * i}.nparts = 1\n"
                   for i in range(depth))
    text = path.read_text().replace("kernel.", f"kernel{'.part0' * depth}.")
    path.write_text(text.replace("[component 0]\n", "[component 0]\n" + sums))
    query = tmp_path / "q.csv"
    query.write_text("x1,x2\n0.5,0.5\n")
    assert main(["predict", str(path), str(query), "--out", str(tmp_path / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("error:") == 1 and "kernel tree is over" in err


def test_rejects_unknown_likelihood(tmp_path):
    rng = np.random.default_rng(6)
    saved = SavedModel(
        structure=COUPLED,
        specs=_se_specs(rng, c=1),
        likelihood=Gaussian(0.0),
        alpha=np.zeros(3),
        B=np.zeros((3, 3)),
        input_dim=2,
    )
    path = tmp_path / "model.txt"
    save_model(path, saved)
    path.write_text(path.read_text().replace("likelihood = gaussian", "likelihood = cauchy"))
    with pytest.raises(ModelFormatError, match="cauchy"):
        load_model(path)


def test_rejects_malformed_line(tmp_path):
    rng = np.random.default_rng(7)
    saved = SavedModel(
        structure=COUPLED,
        specs=_se_specs(rng, c=1),
        likelihood=Gaussian(0.0),
        alpha=np.zeros(3),
        B=np.zeros((3, 3)),
        input_dim=2,
    )
    path = tmp_path / "model.txt"
    save_model(path, saved)
    lines = path.read_text().splitlines()
    lines.insert(3, "this line has no equals sign")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError, match="malformed line 4"):
        load_model(path)


def test_rejects_corrupt_float(tmp_path):
    rng = np.random.default_rng(8)
    saved = SavedModel(
        structure=COUPLED,
        specs=_se_specs(rng, c=1),
        likelihood=Gaussian(np.log(0.5)),
        alpha=np.zeros(3),
        B=np.zeros((3, 3)),
        input_dim=2,
    )
    path = tmp_path / "model.txt"
    save_model(path, saved)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("alpha = "):
            lines[i] = "alpha = 0x1.8p+1 not-a-float 0x1.0p+0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError, match="alpha"):
        load_model(path)


def test_rejects_missing_state_section(tmp_path):
    rng = np.random.default_rng(9)
    saved = SavedModel(
        structure=COUPLED,
        specs=_se_specs(rng, c=1),
        likelihood=Gaussian(0.0),
        alpha=np.zeros(3),
        B=np.zeros((3, 3)),
        input_dim=2,
    )
    path = tmp_path / "model.txt"
    save_model(path, saved)
    text = path.read_text()
    path.write_text(text[: text.index("[state]")])
    with pytest.raises(ModelFormatError, match=r"\[model\] or \[state\]"):
        load_model(path)


def test_comments_and_blank_lines_are_ignored(tmp_path):
    rng = np.random.default_rng(10)
    saved = SavedModel(
        structure=COUPLED,
        specs=_se_specs(rng, c=1),
        likelihood=Gaussian(np.log(0.4)),
        alpha=rng.normal(size=3),
        B=rng.normal(size=(3, 3)),
        input_dim=2,
    )
    path = tmp_path / "model.txt"
    save_model(path, saved)
    lines = path.read_text().splitlines()
    lines.insert(2, "# a comment")
    lines.insert(5, "")
    path.write_text("\n".join(lines) + "\n")
    back = load_model(path)
    assert np.array_equal(back.alpha, saved.alpha)


def test_save_rejects_unknown_kernel_object():
    class Unserializable:
        pass

    with pytest.raises(ModelFormatError, match="no serialization"):
        _write_kernel([], "kernel", Unserializable())
