"""Command line interface.

Subcommands: ``synth`` (write a synthetic benchmark dataset), ``fit``
(train a model on a CSV), ``predict`` (marginals at query points),
``decompose`` (per-component effect tables), ``bench`` (timing tables for
the bound and its KL term).

Conventions: CSV values are written with 17 significant digits so reruns
with the same seed are byte-identical (timing fields excepted); lines
starting with ``#`` are comments; exit codes are 0 on success, 1 for usage
errors, 2 for data or format errors, 3 for numerical failures. CSV output
is formatted (one ``%`` per block), and ``predict`` evaluated, in blocks of
4096 rows, so beyond its input and output columns memory does not grow with
the query size; the output bytes are those of one pass. Plain CSV input is
read by numpy's C reader, the rest line by line, to the same values.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time
import warnings
from itertools import chain

import numpy as np

from . import data as _data
from . import full as _full
from . import io as _io
from . import kernels as _kernels
from . import linalg as _linalg
from . import model as _model
from . import sparse as _sparse
from .errors import (
    BlasThreadsError,
    CapExceeded,
    DataError,
    DimensionMismatch,
    DomainError,
    InvalidRank,
    ModelFormatError,
    NotPositiveDefinite,
)
from .likelihoods import Gaussian, Poisson
from .optimize import TrainConfig

_FLOAT_FMT = "%.17g"
# rows formatted per write by write_csv
_CSV_ROWS = 4096


# -- CSV helpers ------------------------------------------------------------


def write_csv(path, header, columns, meta=()):
    """Write columns of floats with a comment preamble, formatting each
    ``_CSV_ROWS``-row block with one ``%`` to the bytes of ``csv.writer``."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    row = ",".join([_FLOAT_FMT] * len(columns)) + "\r\n"
    n = min((len(c) for c in columns), default=0)
    with open(path, "w", newline="") as fh:
        for line in meta:
            fh.write(f"# {line}\n")
        csv.writer(fh).writerow(header)
        for i in range(0, n, _CSV_ROWS):
            block = np.column_stack([c[i : min(i + _CSV_ROWS, n)] for c in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def read_csv(path):
    """Read a numeric CSV ('#' lines are comments, one optional header
    row) as (header, array); DataError names the offending row. numpy's C
    reader takes plain files; a quote, NUL, \\x1c-\\x1f (numpy strips them,
    ``float()`` does not), long line, ragged row, no data or value numpy
    refuses (``1_000``) sends the file line by line."""

    def plain(fh, limit=csv.field_size_limit()):
        for line in fh:
            if (len(line) > limit or '"' in line or "\0" in line or "\x1c" in line
                    or "\x1d" in line or "\x1e" in line or "\x1f" in line):
                raise ValueError(line)
            if line.strip() and not line.startswith("#"):
                yield line

    with contextlib.suppress(ValueError, Warning):
        with open(path, newline="") as fh, warnings.catch_warnings(record=True):
            lines = plain(fh)
            first = next(lines, "")
            fields = first.rstrip("\r\n").split(",")
            try:
                [float(v) for v in fields]
            except ValueError:
                header = [f.strip() for f in fields]
            else:
                header, lines = None, chain([first], lines)
            arr = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None, ndmin=2)
        if len(arr) and arr.shape[1] == len(fields):
            return header, arr
    return _read_csv_rows(path)


def _read_csv_rows(path):
    rows = []
    header = None
    saw_first = False
    limit = csv.field_size_limit()
    with open(path, newline="") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.startswith("#") or not line.strip():
                    continue
                if len(line) <= limit and '"' not in line and "\0" not in line:
                    fields = line.rstrip("\r\n").split(",")
                else:
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


# -- synth -------------------------------------------------------------------


def cmd_synth(args):
    X, y = _data.sample_friedman(args.n, noise_sd=args.noise_sd, seed=args.seed, d=args.dims)
    header = [f"x{j + 1}" for j in range(args.dims)] + ["y"]
    meta = [
        f"synthetic benchmark: friedman function, n={args.n} "
        f"noise_sd={args.noise_sd:g} seed={args.seed} rng={_data.RNG_ALGORITHM}"
    ]
    write_csv(args.out, header, [X[:, j] for j in range(args.dims)] + [y], meta)
    print(f"wrote {args.n} rows to {args.out}")
    return 0


# -- fit ----------------------------------------------------------------------


def _load_dataset(path):
    _, arr = read_csv(path)
    if arr.shape[1] < 2:
        raise DataError(f"{path}: need at least one feature column plus a target")
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        raise DataError(f"{path}: data row {np.argmax(bad) + 1} holds a NaN or infinite value")
    return _model.Dataset(X=arr[:, :-1], Y=arr[:, -1])


def _maybe_rescale(X, kernel_kind):
    """Unit-box rescaling for the decomposition kernel when inputs need it."""
    if kernel_kind != "anova":
        return None, X
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    if lo.min() >= 0.0 and hi.max() <= 1.0:
        return None, X
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    rescale = _io.Rescale(lo=lo, hi=lo + span)
    return rescale, rescale.apply(X)


def _build_specs(args, dataset_scaled):
    d = dataset_scaled.d
    if args.kernel == "anova":
        if d < 2:
            raise DataError(
                "the anova kernel needs at least 2 input columns "
                "(its interaction term pairs the first two)"
            )
        var0 = args.variance
        if var0 is None:
            var0 = max(float(np.var(dataset_scaled.Y)) / (d + 1), 1e-2)
        sigma0 = args.sigma0
        if sigma0 is None:
            sigma0 = max(float(np.var(dataset_scaled.Y)), 1e-2)
        g_params = [
            _kernels.KernelParams(
                log_variance=np.log(var0),
                log_lengthscales=np.array([np.log(args.lengthscale)]),
            )
            for _ in range(d + 2)
        ]
        return _model.anova_specs(
            g_params,
            sigma0,
            m=args.m,
            ndim=d,
            learn_sigma0=not args.fixed_sigma0,
        )
    # single squared-exponential component on all inputs
    var0 = args.variance if args.variance is not None else max(
        float(np.var(dataset_scaled.Y)), 1e-2
    )
    params = _kernels.KernelParams(
        log_variance=np.log(var0),
        log_lengthscales=np.full(d, np.log(args.lengthscale)),
    )
    kern = _kernels.SquaredExp(params, active_dims=tuple(range(d)))
    rng = np.random.default_rng(args.seed)
    idx = rng.choice(dataset_scaled.n, size=min(args.m, dataset_scaled.n), replace=False)
    return [
        _model.ComponentSpec(
            kernel=kern, active_dims=tuple(range(d)), Z=dataset_scaled.X[idx]
        )
    ]


def cmd_fit(args):
    # an unusable output path fails before training, and creates nothing
    for path in filter(None, (args.out, args.report)):
        target = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path) or not os.access(target, os.W_OK):
            raise DataError(f"cannot write {path}")
    if args.structure == _model.FULL and args.rank is not None:
        raise InvalidRank("the dense structure has no coupling rank R; drop --rank")
    raw = _load_dataset(args.data)
    rescale, xs = _maybe_rescale(raw.X, args.kernel)
    dataset = _model.Dataset(X=xs, Y=raw.Y)

    specs = _build_specs(args, dataset)

    if args.likelihood == "gaussian":
        lik = Gaussian(log_noise_variance=np.log(args.noise_var))
    else:
        lik = Poisson()
        if np.any(raw.Y < 0) or np.any(raw.Y != np.round(raw.Y)):
            raise DataError("poisson likelihood needs nonnegative integer targets")

    config = TrainConfig(
        max_iter=args.max_iter,
        phase1_max_iter=args.phase1_iter,
        train_hypers=not args.no_hypers,
        seed=args.seed,
        multi_start=args.multi_start,
    )

    t0 = time.perf_counter()
    if args.structure == _model.FULL:
        mdl = _full.FullModel(specs, lik, dataset)
    else:
        mdl = _sparse.SparseModel(
            specs, lik, dataset, structure=args.structure, r=args.rank
        )
    result = mdl.train(config)
    wall = time.perf_counter() - t0
    if not np.isfinite(result.final_elbo):  # no evaluation succeeded: save nothing
        raise FloatingPointError(f"fit found no finite bound ({result.message}); wrote nothing")

    saved = _io.SavedModel(
        structure=args.structure,
        specs=mdl.specs,
        likelihood=lik,
        alpha=mdl.state.alpha,
        rescale=rescale,
        input_dim=dataset.d,
        **{mdl.coupling: getattr(mdl.state, mdl.coupling)},
    )
    _io.save_model(args.out, saved)
    report_dict = {
        "structure": args.structure,
        "n": dataset.n,
        "input_dim": dataset.d,
        "n_components": len(specs),
        "m": mdl.m,
        "r": getattr(mdl, "r", None),
        "likelihood": args.likelihood,
        "final_elbo": result.final_elbo,
        "iterations": result.n_iter,
        "converged": result.converged,
        "max_iter_reached": result.max_iter_reached,
        "clamp_count": result.clamp_count,
        "failures": result.failures,
        "message": result.message,
        "wall_time_s": wall,
        "seed": args.seed,
        "rng": _data.RNG_ALGORITHM,
        "model_file": args.out,
    }
    if args.likelihood == "gaussian":
        report_dict["noise_variance"] = float(lik.noise_variance)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report_dict, fh, indent=2)
            fh.write("\n")
    print(
        f"fit {args.structure} model: {result.summary()} -> {args.out}"
    )
    return 0


# -- predict --------------------------------------------------------------------


def _query_matrix(path, input_dim):
    _, arr = read_csv(path)
    if arr.shape[1] < input_dim:
        raise DataError(
            f"{path}: query needs {input_dim} input columns, found {arr.shape[1]}"
        )
    arr = arr[:, :input_dim]
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{path}: query inputs contain NaN or infinite values")
    return arr


def cmd_predict(args):
    saved = _io.load_model(args.model)
    xq = _query_matrix(args.query, saved.input_dim)
    if saved.rescale is not None:
        xq = saved.rescale.apply(xq)

    marg = _sparse.predict_marginals(
        saved.specs, saved.alpha, saved.coupling, xq,
        include_components=args.components,
    )

    header = ["mean", "variance"]
    cols = [marg.mu_sum, marg.var_sum]
    if args.components:
        for ci, (mc, vc) in enumerate(marg.per_component):
            header += [f"mean_c{ci}", f"var_c{ci}"]
            cols += [mc, vc]
    meta = [f"predictions from {args.model} ({saved.structure}) at {len(xq)} points"]
    write_csv(args.out, header, cols, meta)
    print(f"wrote {len(xq)} predictions to {args.out}")
    return 0


# -- decompose ---------------------------------------------------------------------


def _component_grids(saved, n1, n2):
    """Per-component evaluation grids in the model's (scaled) input space."""
    grids = []
    for spec in saved.specs:
        nd = len(spec.active_dims)
        lo = spec.Z.min(axis=0)
        hi = spec.Z.max(axis=0)
        # zero-mean components live on [0, 1]; otherwise span the inducing range
        for leaf in spec.kernel.leaves():
            if isinstance(leaf, _kernels.ZeroMeanSE):
                lo = np.zeros(nd)
                hi = np.ones(nd)
                break
        if nd == 1:
            grids.append(np.linspace(lo[0], hi[0], n1)[:, None])
        elif nd == 2:
            ax0 = np.linspace(lo[0], hi[0], n2)
            ax1 = np.linspace(lo[1], hi[1], n2)
            g0, g1 = np.meshgrid(ax0, ax1, indexing="ij")
            grids.append(np.column_stack([g0.ravel(), g1.ravel()]))
        else:
            raise DataError(
                f"decompose supports 1- or 2-dim components, got {nd}"
            )
    return grids


def cmd_decompose(args):
    saved = _io.load_model(args.model)
    grids = _component_grids(saved, args.grid, args.grid2d)
    effects = _sparse.decompose(
        saved.specs, saved.alpha, saved.coupling, grids,
        coupled_check=args.coupled_check,
    )
    os.makedirs(args.outdir, exist_ok=True)
    paths = []
    for ci, (spec, eff) in enumerate(zip(saved.specs, effects)):
        g, mean, var = eff[0], eff[1], eff[2]
        gout = g
        if saved.rescale is not None:
            dims = list(spec.active_dims)
            gout = _io.Rescale(saved.rescale.lo[dims], saved.rescale.hi[dims]).invert(g)
        header = [f"x{d + 1}" for d in spec.active_dims] + ["mean", "variance"]
        cols = [gout[:, j] for j in range(g.shape[1])] + [mean, var]
        meta = [
            f"component {ci} effect on input dims "
            + ",".join(str(d + 1) for d in spec.active_dims)
        ]
        if len(eff) == 4:
            meta.append(f"coupled-covariance cross-check max discrepancy {eff[3]:.3e}")
        path = os.path.join(args.outdir, f"effect_{ci}.csv")
        write_csv(path, header, cols, meta)
        paths.append(path)
        dims = ",".join(f"x{d + 1}" for d in spec.active_dims)
        print(
            f"component {ci} ({dims}): mean in [{mean.min():+.3f}, {mean.max():+.3f}], "
            f"sd up to {np.sqrt(max(var.max(), 0.0)):.3f} -> {path}"
        )
    return 0


# -- bench ----------------------------------------------------------------------------


def _bench_model(n, c, m, r, seed):
    """A synthetic coupled model with warmed kernel caches for timing."""
    rng = np.random.default_rng(seed)
    d = 6
    X = rng.uniform(size=(n, d))
    y = rng.standard_normal(n)
    specs = []
    for ci in range(c):
        params = _kernels.KernelParams(
            log_variance=0.0, log_lengthscales=np.array([np.log(0.25)])
        )
        specs.append(
            _model.ComponentSpec(
                kernel=_kernels.ZeroMeanSE(params, active_dim=0),
                active_dims=(ci % d,),
                Z=_model.inducing_grid(m, (ci % d,)),
            )
        )
    mdl = _sparse.SparseModel(
        specs, Gaussian(), _model.Dataset(X=X, Y=y), r=r
    )
    mdl.state.alpha = rng.normal(0.0, 0.1, m * c)
    mdl.state.B = rng.normal(0.0, 1.0 / np.sqrt(m * c), (m * c, r))
    mdl._kmats()  # warm the kernel cache so timings isolate the algebra
    return mdl


def _median_times(fns, reps):
    """Median seconds per call of each function. Each runs untimed until a
    loop of k calls lasts 10 ms; then ``reps`` rounds time every loop in
    turn, so a change in the host's speed moves all of their samples alike."""
    ks = []
    for fn in fns:
        fn()  # warm
        k = 1
        while True:
            t0 = time.perf_counter()
            for _ in range(k):
                fn()
            if time.perf_counter() - t0 > 0.01 or k >= 1024:
                break
            k *= 2
        ks.append(k)
    times = [[] for _ in fns]
    for _ in range(reps):
        for fn, k, ts in zip(fns, ks, times):
            t0 = time.perf_counter()
            for _ in range(k):
                fn()
            ts.append((time.perf_counter() - t0) / k)
    return [float(np.median(ts)) for ts in times]


def cmd_bench(args):
    m, r = args.m, args.m if args.rank is None else args.rank
    rows = []
    print(f"timing kl/elbo at m={m}, r={r} (median of {args.reps})")
    sweeps = [("c", c, args.n_fixed) for c in args.c_list]
    sweeps += [("n", args.c_fixed, n) for n in args.n_list]
    models = [_bench_model(n, c, m, r, args.seed) for _, c, n in sweeps]
    # 0.5 s of untimed calls first outlast any BLAS thread left spinning by earlier calls
    stop = time.perf_counter() + 0.5
    while time.perf_counter() < stop:
        models[0].kl()
    times = _median_times([f for mdl in models for f in (mdl.kl, mdl.elbo)], args.reps)
    for (axis, c, n), t_kl, t_elbo in zip(sweeps, times[::2], times[1::2]):
        rows += [("kl", axis, c, n, t_kl), ("elbo", axis, c, n, t_elbo)]
        print(f"  C={c:<3d} N={n:<6d} kl {t_kl * 1e3:8.3f} ms   elbo {t_elbo * 1e3:8.3f} ms")

    meta = [
        f"bench m={m} r={r} reps={args.reps} seed={args.seed}",
        "columns: quantity, sweep axis, C, N, median seconds",
        # read back from the libraries, not taken from --threads
        "blas_threads = "
        + (",".join(str(t) for t in _linalg.openblas_threads()) or "unknown"),
    ]
    fits = {}
    kl_c = np.array([(c, t) for q, ax, c, n, t in rows if (q, ax) == ("kl", "c")])
    if len(kl_c) >= 2:
        fits["kl_growth_exponent_c"] = float(np.polyfit(*np.log(kl_c).T, 1)[0])
    elbo_n = np.array([(n, t) for q, ax, c, n, t in rows if (q, ax) == ("elbo", "n")])
    if len(elbo_n) >= 2:
        ns, ts = elbo_n.T
        resid = ts - np.polyval(np.polyfit(ns, ts, 1), ns)
        ss_tot = float(np.sum((ts - ts.mean()) ** 2))
        fits["elbo_affine_r2_n"] = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    for key, val in fits.items():
        meta.append(f"{key} = {val:.4f}")
        print(f"{key} = {val:.4f}")

    with open(args.out, "w", newline="") as fh:
        for line in meta:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["quantity", "axis", "c", "n", "seconds"])
        for q, ax, c, n, t in rows:
            writer.writerow([q, ax, c, n, _FLOAT_FMT % t])
    print(f"wrote {len(rows)} timings to {args.out}")
    return 0


# -- plumbing -----------------------------------------------------------------------------


def _ranged(convert, ok, what):
    """argparse type that converts its text with ``convert`` and accepts
    the value only where ``ok`` holds, else names ``what`` it expected."""

    def parse(text):
        val = convert(text)
        if not ok(val):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return val

    parse.__name__ = convert.__name__  # argparse's "invalid int value"
    return parse


positive_int = _ranged(int, lambda v: v >= 1, "a positive integer")
nonnegative_int = _ranged(int, lambda v: v >= 0, "a non-negative integer")
positive_float = _ranged(float, lambda v: 0 < v < np.inf, "a positive finite number")
nonnegative_float = _ranged(float, lambda v: 0 <= v < np.inf, "a non-negative finite number")


def positive_ints(text):
    """argparse type of a comma-separated list of counts."""
    return [positive_int(v) for v in text.split(",") if v]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="addgp",
        description="Additive GP regression with coupled sparse variational posteriors",
    )
    parser.add_argument("--config", default=None, help="JSON file of default options")
    parser.add_argument(
        "--threads", type=int, default=None,
        help="pin every loaded OpenBLAS to this many threads for the command",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic benchmark dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=positive_int, default=5000)
    p.add_argument("--noise-sd", type=nonnegative_float, default=1.0)
    p.add_argument("--dims", type=positive_int, default=6)
    p.add_argument("--seed", type=nonnegative_int, default=0, help="RNG seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="train a model on a CSV (last column = target)")
    p.add_argument("data")
    p.add_argument("--out", default="model.addgp")
    p.add_argument("--report", default=None, help="write a JSON fit report")
    p.add_argument(
        "--structure",
        choices=[_model.COUPLED, _model.MEAN_FIELD, _model.FULL],
        default=_model.COUPLED,
    )
    p.add_argument("--kernel", choices=["anova", "se"], default="anova")
    p.add_argument("--likelihood", choices=["gaussian", "poisson"], default="gaussian")
    p.add_argument("--m", type=positive_int, default=16, help="inducing points per component")
    p.add_argument("--rank", type=positive_int, default=None, help="coupling rank R (default M)")
    p.add_argument("--lengthscale", type=positive_float, default=0.3)
    p.add_argument("--variance", type=positive_float, default=None, help="default: var(y)/(D+1)")
    p.add_argument("--sigma0", type=nonnegative_float, default=None, help="default: var(y)")
    p.add_argument("--fixed-sigma0", action="store_true")
    p.add_argument("--noise-var", type=positive_float, default=1.0)
    p.add_argument("--max-iter", type=positive_int, default=1500)
    p.add_argument("--phase1-iter", type=positive_int, default=None)
    p.add_argument("--no-hypers", action="store_true")
    p.add_argument("--multi-start", type=nonnegative_int, default=0)
    p.add_argument("--seed", type=nonnegative_int, default=0, help="RNG seed")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="marginals of the summed predictor at query points")
    p.add_argument("model")
    p.add_argument("query")
    p.add_argument("--out", required=True)
    p.add_argument("--components", action="store_true", help="per-component columns")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("decompose", help="per-component effect tables")
    p.add_argument("model")
    p.add_argument("--outdir", required=True)
    p.add_argument("--grid", type=positive_int, default=200, help="points per 1-d grid")
    p.add_argument("--grid2d", type=positive_int, default=50, help="points per 2-d axis")
    p.add_argument(
        "--coupled-check",
        action="store_true",
        help="cross-check variances against the whole capacitance, LU-factored once",
    )
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("bench", help="timing tables for the bound and its KL term")
    p.add_argument("--out", required=True)
    # large enough that BLAS work, not call overhead, dominates the timings
    p.add_argument("--m", type=positive_int, default=64)
    p.add_argument("--rank", type=positive_int, default=None)
    p.add_argument("--c-list", type=positive_ints, default="1,2,4,8")
    p.add_argument("--n-list", type=positive_ints, default="1000,2000,4000,8000")
    p.add_argument("--n-fixed", type=positive_int, default=2000)
    p.add_argument("--c-fixed", type=positive_int, default=4)
    p.add_argument("--reps", type=positive_int, default=5)
    p.add_argument("--seed", type=nonnegative_int, default=0, help="RNG seed")
    p.set_defaults(func=cmd_bench)
    return parser


def _config_value(action, val):
    """A config value checked the way the command line checks a flag: through
    the option's ``type`` and ``choices``. Flags take JSON booleans, and null
    is accepted only where the option's own default is None."""
    if action.nargs == 0:
        if not isinstance(val, bool):
            raise ValueError(f"expected true or false, got {val!r}")
        return val
    if val is None:
        if action.default is not None:
            raise ValueError("null is not allowed here")
        return val
    if isinstance(val, bool) or not isinstance(val, (str, int, float)):
        raise ValueError(f"expected a string or a number, got {val!r}")
    if action.type is not None:
        # through str, as on the command line, so 2.5 is no int
        try:
            val = action.type(str(val))
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            raise ValueError(
                f"invalid {getattr(action.type, '__name__', 'value')} value: {val!r}"
            ) from None
    elif not isinstance(val, str):
        raise ValueError(f"expected a string, got {val!r}")
    if action.choices is not None and val not in action.choices:
        allowed = ", ".join(map(repr, action.choices))
        raise ValueError(f"invalid choice {val!r} (choose from {allowed})")
    return val


def main(argv=None):
    parser = build_parser()
    # a config file supplies defaults; explicit flags still win
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    if known.config:
        try:
            with open(known.config) as fh:
                overrides = json.load(fh)
        except (OSError, ValueError) as exc:  # JSON and decoding errors
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        if not isinstance(overrides, dict):
            print("error: config must be a JSON object", file=sys.stderr)
            return 1
        parsers = [parser] + [
            sp
            for action in parser._subparsers._group_actions
            for sp in action.choices.values()
        ]
        for key, val in overrides.items():
            dest = key.replace("-", "_")
            owners = [(p, a) for p in parsers for a in p._actions if a.dest == dest]
            if not owners:
                print(f"error: unknown config option {key!r}", file=sys.stderr)
                return 1
            for p, action in owners:
                try:
                    p.set_defaults(**{dest: _config_value(action, val)})
                except ValueError as exc:
                    print(f"error: config option {key!r}: {exc}", file=sys.stderr)
                    return 1

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        if args.threads is None:
            return args.func(args)
        with _linalg.blas_threads(args.threads):
            return args.func(args)
    except BlasThreadsError as exc:
        print(f"error: cannot pin BLAS threads: {exc}", file=sys.stderr)
        return 1
    except (
        DataError,
        ModelFormatError,
        DomainError,
        DimensionMismatch,
        InvalidRank,
        CapExceeded,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotPositiveDefinite, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
