"""End-to-end command-line workflows driven through main(argv).

Everything runs in-process against temporary directories: dataset
synthesis, fitting, prediction, decomposition, benchmarking, config
handling, and the exit-code contract (1 usage, 2 data/format, 3
numerics).
"""

import csv
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addgp import Gaussian, KernelParams, SquaredExp, cli, linalg, load_model, save_model
from addgp.cli import main, read_csv, write_csv
from addgp.errors import DataError
from addgp.io import Rescale, SavedModel
from addgp.model import COUPLED, ComponentSpec, anova_specs
from addgp.sparse import AdditiveModel


def _write_dataset(path, X, y, names=None):
    d = X.shape[1]
    names = names or [f"x{j + 1}" for j in range(d)] + ["y"]
    write_csv(path, names, [X[:, j] for j in range(d)] + [y])


def test_synth_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    assert main(["synth", "--out", str(a), "--n", "50", "--seed", "3"]) == 0
    assert main(["synth", "--out", str(b), "--n", "50", "--seed", "3"]) == 0
    assert main(["synth", "--out", str(c), "--n", "50", "--seed", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()

    header, arr = read_csv(a)
    assert header == ["x1", "x2", "x3", "x4", "x5", "x6", "y"]
    assert arr.shape == (50, 7)
    assert np.all((arr[:, :6] >= 0.0) & (arr[:, :6] <= 1.0))


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    cols = [rng.normal(size=13), rng.uniform(-1e8, 1e8, size=13)]
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], cols, meta=["a comment, with a comma"])
    header, arr = read_csv(path)
    assert header == ["a", "b"]
    assert np.array_equal(arr[:, 0], cols[0])
    assert np.array_equal(arr[:, 1], cols[1])


def _row_write_csv(path, header, columns, meta=()):
    """The reference writer: one csv.writer row per data row."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "w", newline="") as fh:
        for line in meta:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow(["%.17g" % v for v in row])


def _row_read_csv(path):
    """The reference reader: every line through its own csv.reader."""
    rows = []
    header = None
    saw_first = False
    with open(path, newline="") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.startswith("#") or not line.strip():
                    continue
                fields = next(csv.reader([line]))
                if not saw_first:
                    saw_first = True
                    try:
                        rows.append([float(v) for v in fields])
                    except ValueError:
                        header = [f.strip() for f in fields]
                    continue
                try:
                    vals = [float(v) for v in fields]
                except ValueError as exc:
                    raise DataError(f"{path}: malformed value on line {lineno}: {exc}")
                width = len(rows[0]) if rows else len(header)
                if len(vals) != width:
                    raise DataError(
                        f"{path}: line {lineno} has {len(vals)} fields, expected {width}"
                    )
                rows.append(vals)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{path}: not CSV text: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=float)


def test_write_csv_matches_row_writer(tmp_path, monkeypatch):
    tiny = np.finfo(float).tiny
    special = np.array(
        [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -tiny / 3, tiny,
         1.79e308, -1.79e308, 1.0 / 3.0, -1e-5, 123456789.0]
    )
    rng = np.random.default_rng(7)
    cols = [special, special[::-1], rng.normal(size=13) * 10.0 ** rng.integers(-300, 300, 13)]
    for block in (4, 13, 4096):
        monkeypatch.setattr(cli, "_CSV_ROWS", block)
        for rows in (0, 1, 4, 5, 13):
            for k in (1, 3):
                args = (["a", "b c", "d,e"][:k], [c[:rows] for c in cols[:k]], ["x, y"])
                write_csv(tmp_path / "new.csv", *args)
                _row_write_csv(tmp_path / "ref.csv", *args)
                ref = (tmp_path / "ref.csv").read_bytes()
                assert (tmp_path / "new.csv").read_bytes() == ref, (block, rows, k)


def _read_outcome(read, path):
    try:
        header, arr = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return header, arr.shape, arr.tobytes()


_CSV_PIECES = st.sampled_from(
    ["1", "-2.5", "1e308", "nan", "-inf", "0.125", ",", ",", " ", '"', '"1"', "\0",
     "\r", "\n", "\r\n", "\n", "#", "x", "a,b", "12345678901234567890",
     "1_0", "\u0661", "\t", "\x0c", "\xa0", "\x1c"]
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(text=st.lists(_CSV_PIECES, max_size=30).map("".join))
@example(text="a,b\r\n")
@example(text="# only\n\n1,2\r\n3,4\r5,6\n")
@example(text='"1","2"\n3,4\n')
@example(text="1,2\n3\n")
@example(text="1,2\n3,x\n")
@example(text="1,\0\n")
@example(text="1,12345678901234567890\n")
@example(text="# c\nx,y\n\n")
@example(text="1,2\n")
@example(text="1,2,3,4,5,6,7\n1,2,3,4,5,6,7\n")
@example(text="1,2\n3,4\x1c\n")
def test_read_csv_matches_row_reader(tmp_path_factory, text):
    # a small field limit so that drawn lines cross it
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_bytes(text.encode())
    limit = csv.field_size_limit(12)
    try:
        assert _read_outcome(read_csv, path) == _read_outcome(_row_read_csv, path)
    finally:
        csv.field_size_limit(limit)


@pytest.mark.filterwarnings("error")
def test_plain_files_take_the_c_reader(tmp_path, monkeypatch):
    # a file without data rows is refused with the DataError alone: numpy's
    # empty-input warning does not leave read_csv
    for text in ("a,b\n", ""):
        (tmp_path / "empty.csv").write_text(text)
        with pytest.raises(DataError, match="no data rows"):
            read_csv(tmp_path / "empty.csv")

    def refuse(path):
        raise AssertionError(f"{path} read line by line")

    monkeypatch.setattr(cli, "_read_csv_rows", refuse)
    rng = np.random.default_rng(5)
    arr = rng.normal(size=(9, 3)) * 10.0 ** rng.integers(-300, 300, (9, 3))
    arr[0, :2] = np.nan, -np.inf
    write_csv(tmp_path / "w.csv", ["a", "b", "c"], arr.T, meta=["x, y"])
    np.savetxt(tmp_path / "h.csv", arr, delimiter=",", fmt="%.17g", header="a,b,c", comments="")
    np.savetxt(tmp_path / "crlf.csv", arr, delimiter=",", fmt="%.17g", newline="\r\n")
    np.savetxt(tmp_path / "c.csv", arr, delimiter=",", fmt="%.17g", header="a,b,c")
    for name, header in (("w", ["a", "b", "c"]), ("h", ["a", "b", "c"]), ("crlf", None),
                         ("c", None)):
        got_header, got = read_csv(tmp_path / f"{name}.csv")
        assert got_header == header, name
        assert got.tobytes() == arr.tobytes(), name


def test_fit_predict_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    n = 80
    X = rng.uniform(0, 1, size=(n, 2))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + rng.normal(0, 0.1, n)
    data = tmp_path / "data.csv"
    _write_dataset(data, X, y)

    model = tmp_path / "model.addgp"
    report = tmp_path / "report.json"
    rc = main(
        [
            "fit",
            str(data),
            "--kernel", "se",
            "--m", "6",
            "--max-iter", "300",
            "--seed", "0",
            "--out", str(model),
            "--report", str(report),
        ]
    )
    assert rc == 0
    assert model.exists()

    rep = json.loads(report.read_text())
    assert rep["structure"] == "coupled"
    assert rep["n"] == n
    assert rep["likelihood"] == "gaussian"
    assert np.isfinite(rep["final_elbo"])
    assert rep["iterations"] > 0
    assert rep["failures"] == 0

    preds = tmp_path / "preds.csv"
    assert main(["predict", str(model), str(data), "--out", str(preds)]) == 0
    header, arr = read_csv(preds)
    assert header == ["mean", "variance"]
    assert arr.shape == (n, 2)
    assert np.all(np.isfinite(arr))
    assert np.all(arr[:, 1] > 0)
    # a converged smooth fit tracks the targets well inside the noise
    assert np.sqrt(np.mean((arr[:, 0] - y) ** 2)) < 0.5

    wide = tmp_path / "preds_wide.csv"
    assert main(
        ["predict", str(model), str(data), "--out", str(wide), "--components"]
    ) == 0
    header, arr = read_csv(wide)
    # the joint-SE kernel fits a single component, so the wide table has
    # exactly one extra mean/variance pair that reproduces the sum
    assert header == ["mean", "variance", "mean_c0", "var_c0"]
    assert np.max(np.abs(arr[:, 2] - arr[:, 0])) < 1e-10
    assert np.max(np.abs(arr[:, 3] - arr[:, 1])) < 1e-10


def test_predictions_bit_exact_across_reload(tmp_path):
    rng = np.random.default_rng(2)
    n = 40
    X = rng.uniform(0, 1, size=(n, 1))
    y = np.cos(4 * X[:, 0]) + rng.normal(0, 0.2, n)
    data = tmp_path / "data.csv"
    _write_dataset(data, X, y)
    m1 = tmp_path / "m1.addgp"
    assert main(
        ["fit", str(data), "--kernel", "se", "--m", "5", "--max-iter", "150",
         "--seed", "0", "--out", str(m1)]
    ) == 0

    from addgp import load_model

    m2 = tmp_path / "m2.addgp"
    save_model(m2, load_model(m1))

    p1 = tmp_path / "p1.csv"
    p2 = tmp_path / "p2.csv"
    assert main(["predict", str(m1), str(data), "--out", str(p1)]) == 0
    assert main(["predict", str(m2), str(data), "--out", str(p2)]) == 0
    # only the meta line mentions the model path; the numbers must agree
    # byte for byte
    body1 = [l for l in p1.read_text().splitlines() if not l.startswith("#")]
    body2 = [l for l in p2.read_text().splitlines() if not l.startswith("#")]
    assert body1 == body2


def test_near_noiseless_fit_interpolates(tmp_path):
    rng = np.random.default_rng(3)
    n = 60
    X = np.sort(rng.uniform(0, 1, size=(n, 1)), axis=0)
    y = np.sin(2 * np.pi * X[:, 0])
    data = tmp_path / "data.csv"
    _write_dataset(data, X, y)
    model = tmp_path / "model.addgp"
    assert main(
        ["fit", str(data), "--kernel", "se", "--m", "12", "--noise-var", "0.01",
         "--max-iter", "600", "--seed", "0", "--out", str(model)]
    ) == 0
    preds = tmp_path / "preds.csv"
    assert main(["predict", str(model), str(data), "--out", str(preds)]) == 0
    _, arr = read_csv(preds)
    rmse = np.sqrt(np.mean((arr[:, 0] - y) ** 2))
    assert rmse < 0.05


def test_decompose_writes_effect_tables(tmp_path):
    data = tmp_path / "data.csv"
    assert main(["synth", "--out", str(data), "--n", "300", "--seed", "0"]) == 0
    model = tmp_path / "model.addgp"
    assert main(
        ["fit", str(data), "--kernel", "anova", "--m", "6", "--max-iter", "150",
         "--seed", "0", "--out", str(model)]
    ) == 0

    outdir = tmp_path / "effects"
    assert main(
        ["decompose", str(model), "--outdir", str(outdir), "--grid", "40",
         "--grid2d", "8", "--coupled-check"]
    ) == 0
    files = sorted(outdir.glob("effect_*.csv"))
    assert len(files) == 7

    header, arr = read_csv(outdir / "effect_3.csv")
    assert header == ["x4", "mean", "variance"]
    assert arr.shape == (40, 3)
    assert np.all(arr[:, 2] >= 0)

    header, arr = read_csv(outdir / "effect_6.csv")
    assert header == ["x1", "x2", "mean", "variance"]
    assert arr.shape == (64, 4)

    text = (outdir / "effect_0.csv").read_text()
    assert text.startswith("#")
    line = next(
        l for l in text.splitlines() if "cross-check max discrepancy" in l
    )
    assert float(line.rsplit(" ", 1)[1]) < 1e-6

    # the check covers the dense structure too: lambda stands for B_c
    small = tmp_path / "small.csv"
    assert main(["synth", "--out", str(small), "--n", "60", "--seed", "1"]) == 0
    dense, report = tmp_path / "dense.addgp", tmp_path / "dense.json"
    assert main(
        ["fit", str(small), "--structure", "full", "--max-iter", "20",
         "--seed", "0", "--out", str(dense), "--report", str(report)]
    ) == 0
    # the dense model's inducing inputs are its 60 training inputs
    assert json.loads(report.read_text())["m"] == 60 == load_model(dense).specs[0].m
    dense_dir = tmp_path / "dense_effects"
    assert main(
        ["decompose", str(dense), "--outdir", str(dense_dir), "--grid", "40",
         "--grid2d", "8", "--coupled-check"]
    ) == 0
    files = sorted(dense_dir.glob("effect_*.csv"))
    assert len(files) == 7
    for path in files:
        line = next(
            l for l in path.read_text().splitlines()
            if "cross-check max discrepancy" in l
        )
        assert float(line.rsplit(" ", 1)[1]) < 1e-6


def test_config_supplies_defaults_but_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 37, "noise-sd": 0.5}))
    out = tmp_path / "out.csv"
    assert main(["--config", str(cfg), "synth", "--out", str(out), "--seed", "0"]) == 0
    _, arr = read_csv(out)
    assert arr.shape[0] == 37

    assert main(
        ["--config", str(cfg), "synth", "--out", str(out), "--n", "20", "--seed", "0"]
    ) == 0
    _, arr = read_csv(out)
    assert arr.shape[0] == 20


def test_config_error_exit_codes(tmp_path, capsys):
    out = tmp_path / "out.csv"

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"frobnicate": 1}))
    assert main(["--config", str(unknown), "synth", "--out", str(out)]) == 1
    assert "unknown config option" in capsys.readouterr().err

    nondict = tmp_path / "nondict.json"
    nondict.write_text("[1, 2, 3]")
    assert main(["--config", str(nondict), "synth", "--out", str(out)]) == 1

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["--config", str(broken), "synth", "--out", str(out)]) == 2

    assert main(["--config", str(tmp_path / "nope.json"), "synth", "--out", str(out)]) == 2

    # values go through each option's type and choices, as on the command line
    capsys.readouterr()
    for bad in ({"m": 2.5}, {"m": "many"}, {"kernel": "cubic"}, {"no_hypers": 1}, {"out": 3}):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(bad))
        assert main(["--config", str(path), "fit", str(tmp_path / "d.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config option") and err.count("\n") == 1


def test_data_and_format_errors_exit_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["fit", str(tmp_path / "missing.csv"), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.csv"
    bad.write_text("x1,y\n0.1,2.0\n0.2,oops\n")
    assert main(["fit", str(bad), "--out", str(out)]) == 2

    preds = tmp_path / "p.csv"
    assert main(["predict", str(tmp_path / "missing.model"), str(bad), "--out", str(preds)]) == 2

    # a CSV is not a model file
    dataset = tmp_path / "data.csv"
    rng = np.random.default_rng(0)
    _write_dataset(dataset, rng.uniform(0, 1, (10, 1)), rng.normal(size=10))
    assert main(["decompose", str(dataset), "--outdir", str(tmp_path / "e")]) == 2
    capsys.readouterr()

    # undecodable bytes, directories where files belong, a file where the
    # output directory belongs: one error line each, never a traceback
    fit_args = ["--kernel", "se", "--m", "3", "--max-iter", "2"]
    model = tmp_path / "m.addgp"
    assert main(["fit", str(dataset), *fit_args, "--out", str(model)]) == 0
    binary = tmp_path / "bin.csv"
    binary.write_bytes(b"\xff\xfe\x00x\x001,2\n")
    folder = tmp_path / "folder"
    folder.mkdir()
    for argv in (
        ["fit", str(binary), "--out", str(out)],
        ["predict", str(model), str(binary), "--out", str(preds)],
        ["fit", str(folder), "--out", str(out)],
        ["fit", str(dataset), *fit_args, "--out", str(folder)],
        ["predict", str(folder), str(dataset), "--out", str(preds)],
        ["predict", str(model), str(folder), "--out", str(preds)],
        ["decompose", str(folder), "--outdir", str(tmp_path / "e")],
        ["decompose", str(model), "--outdir", str(dataset)],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err, argv
        assert [line for line in err.splitlines() if line.startswith("error:")], argv


def test_data_shape_errors_exit_2_and_write_nothing(tmp_path, capsys):
    rng = np.random.default_rng(4)
    target_only = tmp_path / "target_only.csv"
    write_csv(target_only, ["y"], [rng.normal(size=10)])
    one_input = tmp_path / "one_input.csv"
    _write_dataset(one_input, rng.uniform(0, 1, (10, 1)), rng.normal(size=10))
    three_inputs = tmp_path / "three_inputs.csv"
    _write_dataset(three_inputs, rng.uniform(0, 1, (10, 3)), rng.normal(size=10))
    model = tmp_path / "se3.addgp"
    assert main(["fit", str(three_inputs), "--kernel", "se", "--m", "3", "--max-iter", "2",
                 "--out", str(model)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    for argv, message in (
        (["fit", str(target_only), "--out", str(out)], "at least one feature column"),
        (["fit", str(one_input), "--kernel", "anova", "--out", str(out)],
         "at least 2 input columns"),
        (["predict", str(model), str(one_input), "--out", str(out)],
         "query needs 3 input columns, found 2"),
        (["decompose", str(model), "--outdir", str(out)], "1- or 2-dim components, got 3"),
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err, argv
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and message in errors[0], argv
        assert not out.exists(), argv


def test_fit_rescales_anova_inputs_and_decompose_maps_them_back(tmp_path):
    # an anova fit on inputs outside the unit box (here one column on
    # [-3, 5] and one constant, given a unit span) predicts as a fit on the
    # rows pre-scaled by the same map, and its effect tables give the grids
    # in the original units
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.uniform(-3.0, 5.0, 40), np.full(40, 2.0)])
    X[:2, 0] = -3.0, 5.0
    y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=40)
    xq = np.column_stack([rng.uniform(-3.0, 5.0, 15), np.full(15, 2.0)])
    rescale = Rescale(lo=np.array([-3.0, 2.0]), hi=np.array([5.0, 3.0]))
    fit_args = ["--kernel", "anova", "--m", "4", "--max-iter", "10", "--seed", "0"]
    preds = []
    for name, x, q in (("raw", X, xq), ("scaled", rescale.apply(X), rescale.apply(xq))):
        data, query = tmp_path / f"{name}.csv", tmp_path / f"{name}_query.csv"
        model, out = tmp_path / f"{name}.addgp", tmp_path / f"{name}_pred.csv"
        _write_dataset(data, x, y)
        write_csv(query, ["x1", "x2"], [q[:, 0], q[:, 1]])
        assert main(["fit", str(data), *fit_args, "--out", str(model)]) == 0
        assert main(["predict", str(model), str(query), "--out", str(out), "--components"]) == 0
        preds.append(read_csv(out)[1])
    saved = load_model(tmp_path / "raw.addgp")
    assert load_model(tmp_path / "scaled.addgp").rescale is None
    assert np.array_equal(saved.rescale.lo, rescale.lo)
    assert np.array_equal(saved.rescale.hi, rescale.hi)
    assert preds[0].tobytes() == preds[1].tobytes()

    outdir = tmp_path / "effects"
    assert main(["decompose", str(tmp_path / "raw.addgp"), "--outdir", str(outdir),
                 "--grid", "9", "--grid2d", "3"]) == 0
    for ci, spec in enumerate(saved.specs):
        grid = read_csv(outdir / f"effect_{ci}.csv")[1][:, : len(spec.active_dims)]
        for col, d in zip(grid.T, spec.active_dims):
            assert abs(col.min() - rescale.lo[d]) <= 1e-12
            assert abs(col.max() - rescale.hi[d]) <= 1e-12


def test_fit_checks_output_paths_before_training(tmp_path, capsys, monkeypatch):
    def never(self, config=None):
        raise AssertionError("fit trained before checking its output paths")

    monkeypatch.setattr(AdditiveModel, "train", never)
    dataset = tmp_path / "data.csv"
    rng = np.random.default_rng(0)
    _write_dataset(dataset, rng.uniform(0, 1, (10, 1)), rng.normal(size=10))
    folder = tmp_path / "folder"
    folder.mkdir()
    model = tmp_path / "m.addgp"
    for outputs in (
        ["--out", str(folder)],
        ["--out", str(tmp_path / "missing" / "m.addgp")],
        ["--out", str(model), "--report", str(folder)],
        ["--out", str(model), "--report", str(tmp_path / "missing" / "r.json")],
    ):
        argv = ["fit", str(dataset), "--kernel", "se", "--m", "3", *outputs]
        assert main(argv) == 2, outputs
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), outputs
        assert not model.exists(), outputs
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "folder"]


@pytest.mark.parametrize("structure, rank", [("meanfield", 2), ("full", 3), ("full", 20)])
def test_fit_refuses_a_rank_its_structure_cannot_use(tmp_path, capsys, monkeypatch,
                                                     structure, rank):
    # mean-field fixes R = M C and the dense structure has no R: a --rank
    # that would be ignored is refused before training, and writes nothing
    def never(self, config=None):
        raise AssertionError("fit trained with a rank its structure cannot use")

    monkeypatch.setattr(AdditiveModel, "train", never)
    dataset = tmp_path / "data.csv"
    rng = np.random.default_rng(0)
    _write_dataset(dataset, rng.uniform(0, 1, (20, 2)), rng.normal(size=20))
    model = tmp_path / "m.addgp"
    argv = ["fit", str(dataset), "--kernel", "se", "--m", "3", "--structure", structure,
            "--rank", str(rank), "--out", str(model)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "R" in err[0], err
    assert not model.exists()


def test_poisson_fit_rejects_non_count_targets(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, size=(20, 1))
    y = rng.normal(size=20)  # fractional and negative
    data = tmp_path / "data.csv"
    _write_dataset(data, X, y)
    rc = main(
        ["fit", str(data), "--likelihood", "poisson", "--kernel", "se",
         "--out", str(tmp_path / "m")]
    )
    assert rc == 2


def test_fit_with_no_finite_bound_exits_3_and_writes_nothing(tmp_path, capsys):
    # at a prior variance of 3000 every Poisson evaluation overflows
    # e^{mu + s/2}, so L-BFGS stops at its start with the bound at -inf;
    # the failed evaluations are counted, so numpy warns of none of them
    rng = np.random.default_rng(0)
    data = tmp_path / "counts.csv"
    X, y = rng.uniform(0, 1, size=(200, 2)), rng.poisson(3.0, size=200).astype(float)
    _write_dataset(data, X, y)
    model, report = tmp_path / "m.addgp", tmp_path / "r.json"
    argv = ["fit", str(data), "--likelihood", "poisson", "--kernel", "se", "--m", "8",
            "--max-iter", "5", "--variance", "3000", "--out", str(model), "--report", str(report)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "error:" in err[0] and "no finite bound" in err[0], err
    assert not model.exists() and not report.exists()


def test_numerical_failure_exits_3(tmp_path, capsys):
    rng = np.random.default_rng(5)
    m = 3
    specs = [
        ComponentSpec(
            SquaredExp(KernelParams(0.0, np.zeros(1))),
            (ci,),
            rng.uniform(0, 1, size=(m, 1)),
        )
        for ci in range(2)
    ]
    saved = SavedModel(
        structure=COUPLED,
        specs=specs,
        likelihood=Gaussian(0.0),
        alpha=np.zeros(2 * m),
        B=np.full((2 * m, 2 * m), 1e200),  # overflows the capacitance
        input_dim=2,
    )
    model = tmp_path / "broken.addgp"
    save_model(model, saved)

    query = tmp_path / "q.csv"
    _write_dataset(query, rng.uniform(0, 1, (5, 2)), np.zeros(5))
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["predict", str(model), str(query), "--out", str(tmp_path / "p.csv")])
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err

    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["decompose", str(model), "--outdir", str(tmp_path / "e"), "--grid", "5"])
    assert rc == 3


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_query_exits_2(tmp_path, capsys, value):
    rng = np.random.default_rng(7)
    g_params = [KernelParams(0.0, np.log([0.3])) for _ in range(4)]
    se = SquaredExp(KernelParams(0.0, np.zeros(2)), active_dims=(0, 1))
    query = tmp_path / "q.csv"
    query.write_text(f"x1,x2,y\n0.5,0.5,0\n0.25,{value},0\n")
    for specs in (
        anova_specs(g_params, 1.0, m=3, ndim=2),
        [ComponentSpec(se, (0, 1), rng.uniform(0, 1, (3, 2)))],
    ):
        c = len(specs)
        saved = SavedModel(
            structure=COUPLED, specs=specs, likelihood=Gaussian(0.0),
            alpha=rng.normal(size=3 * c), B=rng.normal(size=(3 * c, 3)), input_dim=2,
        )
        model = tmp_path / "m.addgp"
        save_model(model, saved)
        capsys.readouterr()
        assert main(["predict", str(model), str(query), "--out", str(tmp_path / "p.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert str(query) in err and "Traceback" not in err, err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_training_data_exits_2_naming_the_row(tmp_path, capsys, value):
    data = tmp_path / "d.csv"
    data.write_text(f"# three rows\nx1,x2,y\n0.1,0.2,1.0\n0.3,0.4,{value}\n0.5,{value},2.0\n")
    assert main(["fit", str(data), "--out", str(tmp_path / "m.addgp")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert f"{data}: data row 2 " in err and "Traceback" not in err, err


def _set_key(text, key, value):
    """Set the first ``key = ...`` entry of a model file, or drop it when
    ``value`` is None."""
    lines = text.splitlines()
    i = next(i for i, l in enumerate(lines) if l.partition("=")[0].strip() == key)
    if value is None:
        del lines[i]
    else:
        lines[i] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


# (key, new value or None to drop it, what the one error line must name)
MODEL_CORRUPTIONS = [
    ("n_components", "2.5", "'n_components' in [model]"),
    ("n_components", "0", "'n_components' in [model]"),
    ("n_components", "3", "[component 2]"),
    ("input_dim", "two", "'input_dim' in [model]"),
    ("input_dim", "1", "'input_dim' in [model]"),
    ("rescale.lo", "0x0p+0", "'rescale.lo' in [model]"),
    ("lik.log_noise_variance", None, "'lik.log_noise_variance' in [model]"),
    ("active_dims", None, "'active_dims' in [component 0]"),
    ("active_dims", "-1", "'active_dims' in [component 0]"),
    ("active_dims", "0 x", "'active_dims' in [component 0]"),
    ("kernel.type", None, "'kernel.type' in [component 0]"),
    ("kernel.active_dims", "1", "[component 0]"),
    ("kernel.active_dims", "-1", "[component 0]"),
    ("kernel.log_lengthscales", "0x1p+0 0x1p+0", "[component 0]"),
    ("z.shape", "3", "'z.shape' in [component 0]"),
    ("z.shape", "3 2", "'z.shape' in [component 0]"),
    ("z.shape", "4 1", "'z.row.3' in [component 0]"),
    ("z.row.1", "0x1p-1 0x1p-1", "'z.row.1' in [component 0]"),
    ("alpha", "0x1p+0", "'alpha' in [state]"),
    ("b.shape", "5 3", "'b.shape' in [state]"),
    ("b.row.0", "0x1p+0 oops 0x1p+0", "'b.row.0' in [state]"),
    # every float is finite
    ("alpha", "nan" + " 0x0p+0" * 5, "'alpha' in [state]"),
    ("b.row.0", "0x1p+0 inf 0x1p+0", "'b.row.0' in [state]"),
    ("z.row.0", "nan", "'z.row.0' in [component 0]"),
    ("kernel.log_variance", "inf", "'kernel.log_variance' in [component 0]"),
    ("rescale.hi", "0x1p+0 nan", "'rescale.hi' in [model]"),
]


def test_corrupt_model_files_exit_2(tmp_path, capsys):
    rng = np.random.default_rng(6)
    specs = [
        ComponentSpec(
            SquaredExp(KernelParams(0.0, np.zeros(1))), (ci,), rng.uniform(0, 1, (3, 1))
        )
        for ci in range(2)
    ]
    saved = SavedModel(
        structure=COUPLED,
        specs=specs,
        likelihood=Gaussian(0.0),
        alpha=rng.normal(size=6),
        B=rng.normal(size=(6, 3)),
        rescale=Rescale(lo=np.zeros(2), hi=np.ones(2)),
        input_dim=2,
    )
    good = tmp_path / "good.addgp"
    save_model(good, saved)
    query = tmp_path / "q.csv"
    _write_dataset(query, rng.uniform(0, 1, (4, 2)), np.zeros(4))
    assert main(["predict", str(good), str(query), "--out", str(tmp_path / "p.csv")]) == 0

    bad = tmp_path / "bad.addgp"
    cases = [_set_key(good.read_text(), k, v) for k, v, _ in MODEL_CORRUPTIONS]
    names = [want for _, _, want in MODEL_CORRUPTIONS]
    cases.append(b"\xff\xfe binary")
    names.append("not a text file")
    for text, want in zip(cases, names):
        if isinstance(text, bytes):
            bad.write_bytes(text)
        else:
            bad.write_text(text)
        capsys.readouterr()
        for argv in (
            ["predict", str(bad), str(query), "--out", str(tmp_path / "p.csv")],
            ["decompose", str(bad), "--outdir", str(tmp_path / "e"), "--grid", "5"],
        ):
            assert main(argv) == 2, want
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, err
            assert want in err and "Traceback" not in err, err


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["fit"]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


POSITIVE, NONNEGATIVE = "expected a positive integer", "expected a non-negative integer"
SCALE, OFFSET = "expected a positive finite number", "expected a non-negative finite number"
RANGE_CASES = [
    (["synth", "--n", "-1"], POSITIVE),
    (["synth", "--n", "0"], POSITIVE),
    (["synth", "--dims", "-1"], POSITIVE),
    (["fit", "data.csv", "--m", "-1"], POSITIVE),
    (["fit", "data.csv", "--rank", "0"], POSITIVE),
    (["decompose", "model.addgp", "--outdir", "e", "--grid", "0"], POSITIVE),
    (["decompose", "model.addgp", "--outdir", "e", "--grid", "-3"], POSITIVE),
    (["decompose", "model.addgp", "--outdir", "e", "--grid2d", "0"], POSITIVE),
    (["bench", "--n-list", "-5"], POSITIVE),
    (["bench", "--rank", "0"], POSITIVE),
    (["synth", "--seed", "-1"], NONNEGATIVE),
    (["bench", "--seed", "-1"], NONNEGATIVE),
    (["fit", "data.csv", "--seed", "-1"], NONNEGATIVE),
    (["fit", "data.csv", "--kernel", "se", "--seed", "-1"], NONNEGATIVE),
    (["fit", "data.csv", "--multi-start", "-1"], NONNEGATIVE),
    (["fit", "data.csv", "--max-iter", "-1"], POSITIVE),
    (["fit", "data.csv", "--max-iter", "0"], POSITIVE),
    (["fit", "data.csv", "--phase1-iter", "-2"], POSITIVE),
    (["fit", "data.csv", "--noise-var", "-1"], SCALE),
    (["fit", "data.csv", "--noise-var", "nan"], SCALE),
    (["fit", "data.csv", "--lengthscale", "0"], SCALE),
    (["fit", "data.csv", "--variance", "inf"], SCALE),
    (["fit", "data.csv", "--sigma0", "-1"], OFFSET),
    (["synth", "--noise-sd", "nan"], OFFSET),
    (["synth", "--noise-sd", "-1"], OFFSET),
]


@pytest.mark.parametrize(
    "argv,message", RANGE_CASES, ids=[f"argv{i}" for i in range(len(RANGE_CASES))]
)
def test_count_flags_reject_nonpositive_values(tmp_path, capsys, argv, message):
    if argv[0] in ("synth", "bench"):
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err
    assert not (tmp_path / "out.csv").exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "synth" in out and "decompose" in out


def test_bench_writes_timing_table(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(
        ["bench", "--out", str(out), "--m", "4", "--c-list", "1,2",
         "--n-list", "100,200", "--n-fixed", "100", "--c-fixed", "1",
         "--reps", "1", "--seed", "0"]
    )
    assert rc == 0
    text = out.read_text()
    assert "kl_growth_exponent_c" in text
    assert "elbo_affine_r2_n" in text
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert body[0] == "quantity,axis,c,n,seconds"
    # 2 quantities x (2 C points + 2 N points)
    assert len(body) == 1 + 8
    for line in body[1:]:
        assert float(line.rsplit(",", 1)[1]) > 0


def test_threads_pin_every_openblas_and_restore():
    before = linalg.openblas_threads()
    # numpy's copy and scipy's (the one solve_triangular runs on)
    assert len(before) >= 2
    with linalg.blas_threads(1) as counts:
        assert counts == [1] * len(before)
        assert linalg.openblas_threads() == [1] * len(before)
    assert linalg.openblas_threads() == before


def test_threads_fail_loudly_and_reject_bad_values(tmp_path, capsys, monkeypatch):
    bench = ["bench", "--out", str(tmp_path / "b.csv"), "--m", "4",
             "--c-list", "1,2", "--n-list", "100,200", "--reps", "1"]
    for bad in ("0", "-1"):
        assert main(["--threads", bad] + bench) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    monkeypatch.setattr(linalg, "_openblas_copies", lambda: [])
    assert main(["--threads", "1"] + bench) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "b.csv").exists()
