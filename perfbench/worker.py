"""One benchmark child process: set up one workload, run the rounds of timed
operations that fill its time window, check the outputs, and write a JSON
payload of raw samples.

``run.py`` starts this script with BLAS pinned to one thread through the
environment and with ``PYTHONPATH`` pointing at the checkout's ``src``; the
script refuses to run if either loaded OpenBLAS copy reports more than one
thread, or if ``addgp`` was imported from anywhere else.

    python3 perfbench/worker.py --workload coupled_anova --seed 1 \
        --child 0 --window 5 --trace 0 --out perfbench/out/c0.json
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import shutil
import sys
import time

import numpy as np

import spans as _spans

# Fixed budgets: L-BFGS stops on the iteration limit long before its own
# tests fire, so every run of a seed does the same iterations and
# evaluations. ``phase2 == 0`` means hyperparameters stay fixed. ``round_s``
# is the nominal length of one round on a 2-vCPU 2.1 GHz Xeon guest; a worker
# runs as many rounds as fit its window at that length, so the work done
# depends on ``--seconds`` and not on how fast the machine happened to be.
WORKLOADS = {
    "coupled_anova": dict(
        kind="fit", model="coupled", n=5000, heldout=20_000, phase1=40, phase2=12, round_s=1.2
    ),
    "meanfield_ablation": dict(
        kind="fit", model="meanfield", n=5000, heldout=20_000, phase1=40, phase2=0, round_s=1.4
    ),
    # the dense predictor holds C (rows x N) cross-covariance blocks
    "dense_reference": dict(
        kind="fit", model="full", n=500, heldout=2000, phase1=8, phase2=3, round_s=3.0
    ),
    "predict_cli": dict(
        kind="cli", model="coupled", n=2000, phase1=40, phase2=12, query=100_000,
        setup_fits=3, decompose_reps=5, round_s=5.0,
    ),
}
INPUT_DIM = 6
INDUCING = 16
CHECK_ROWS = 256
STREAMS = {"train": 0, "heldout": 1, "query": 2, "fit": 3, "check": 4}


# -- BLAS pinning ----------------------------------------------------------


def _openblas(package, getter, config):
    """(threads, config string) reported by the OpenBLAS copy a wheel ships
    in ``<package>.libs``."""
    mod = __import__(package)
    libdir = os.path.dirname(os.path.dirname(mod.__file__))
    paths = glob.glob(os.path.join(libdir, f"{package}.libs", "libscipy_openblas*.so*"))
    if len(paths) != 1:
        raise SystemExit(f"cannot locate the OpenBLAS copy of {package}: {paths}")
    lib = ctypes.CDLL(paths[0])
    get_threads = getattr(lib, getter)
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    get_config = getattr(lib, config)
    get_config.argtypes = []
    get_config.restype = ctypes.c_char_p
    return get_threads(), get_config().decode()


def verify_blas():
    """Both OpenBLAS copies in the process must run one thread: numpy's
    (every matmul) and scipy's (``solve_triangular``)."""
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    np_threads, np_config = _openblas(
        "numpy", "scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"
    )
    sp_threads, sp_config = _openblas(
        "scipy", "scipy_openblas_get_num_threads", "scipy_openblas_get_config"
    )
    if np_threads != 1 or sp_threads != 1:
        raise SystemExit(
            f"BLAS not pinned to one thread: numpy's OpenBLAS reports {np_threads}, "
            f"scipy's reports {sp_threads}"
        )
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": np_config,
        "scipy_blas": sp_config,
        "blas_threads": [np_threads, sp_threads],
        "python": sys.version.split()[0],
    }


# -- instrumentation -------------------------------------------------------


class Counters:
    """Evaluation and failure counts, kept by a class-level wrapper that is
    installed in traced and untraced runs alike."""

    def __init__(self):
        self.evals = 0
        self.failed_evals = 0
        self.train_s = []


def _all_finite(val, grads):
    if not np.isfinite(val):
        return False
    for g in grads.values():
        for arr in g if isinstance(g, list) else (g,):
            if not np.all(np.isfinite(arr)):
                return False
    return True


def install_counters(counters):
    """Count every bound evaluation and its failures, and time every
    ``train``, on both model classes."""
    from addgp import full, sparse
    from addgp.errors import NotPositiveDefinite

    for cls in (sparse.SparseModel, full.FullModel):
        evaluate = cls.elbo_with_grads
        train = cls.train

        def counted(self, *args, _evaluate=evaluate, **kwargs):
            counters.evals += 1
            try:
                val, grads = _evaluate(self, *args, **kwargs)
            except NotPositiveDefinite:
                counters.failed_evals += 1
                raise
            if not _all_finite(val, grads):
                counters.failed_evals += 1
            return val, grads

        def timed(self, *args, _train=train, **kwargs):
            t0 = time.perf_counter()
            out = _train(self, *args, **kwargs)
            counters.train_s.append(time.perf_counter() - t0)
            return out

        cls.elbo_with_grads = counted
        cls.train = timed


def _grad_bytes(args, out):
    value, grads = out
    return int(np.asarray(value).nbytes + sum(np.asarray(g).nbytes for g in grads))


def _dim(args, out):
    return int(out.shape[0])


def _phase(prefix):
    def name(args, kwargs):
        hyper = kwargs.get("train_hypers", args[1] if len(args) > 1 else False)
        return f"{prefix}.elbo_with_grads.{'hyper' if hyper else 'fixed'}"

    return name


def install_tracing(tr):
    """Wrap the layer boundaries: top-level kernel calls, the linalg
    functions as bound in the model modules, likelihood expectations, the
    models' bound and training, model IO, CSV IO, the prediction and
    decomposition functions, and the data generator."""
    from addgp import cli, data, full, kernels, likelihoods, sparse
    from addgp import io as addgp_io

    for cls in vars(kernels).values():
        if isinstance(cls, type) and issubclass(cls, kernels.Kernel):
            for meth in ("eval", "diag", "eval_with_grads", "diag_with_grads"):
                if meth in vars(cls):
                    tr.patch(
                        cls, meth, f"kernels.{meth}",
                        size=_grad_bytes if meth.endswith("grads") else None,
                        skip_inside="kernels.",
                    )
    for mod in (sparse, full):
        for fn in ("cholesky", "tri_solve", "solve_from_chol", "logdet_from_chol"):
            tr.patch(mod, fn, f"linalg.{fn}", size=_dim if fn == "cholesky" else None)
    for cls in (likelihoods.Gaussian, likelihoods.Poisson):
        for meth in ("expected_loglik", "expected_loglik_grads", "expected_loglik_param_grads"):
            tr.patch(cls, meth, f"likelihoods.{meth}")
    for cls, prefix in ((sparse.SparseModel, "sparse"), (full.FullModel, "full")):
        tr.patch(cls, "elbo_with_grads", _phase(prefix))
        tr.patch(cls, "train", f"{prefix}.train")
    tr.patch(sparse, "predict_marginals", "sparse.predict_marginals")
    tr.patch(sparse, "decompose", "sparse.decompose")
    tr.patch(addgp_io, "save_model", "io.save_model")
    tr.patch(addgp_io, "load_model", "io.load_model")
    tr.patch(cli, "read_csv", "cli.read_csv")
    tr.patch(cli, "write_csv", "cli.write_csv")
    tr.patch(data, "sample_friedman", "data.sample_friedman")


class Context:
    def __init__(self, args, workdir):
        self.args = args
        self.cfg = WORKLOADS[args.workload]
        self.workdir = workdir
        self.counters = Counters()
        self.tracer = _spans.Tracer() if args.trace else None
        self.checks = []
        self.samples = {}  # name -> list of values
        self.cli_calls = 0
        self.cli_failures = 0
        self.t_first = None

    def add(self, name, value):
        self.samples.setdefault(name, []).append(float(value))

    def check(self, name, ok, detail=""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def seed(self, *stream):
        """An integer seed for one input stream of this run's ``--seed``;
        training data, held-out rows and optimizer starts never share one."""
        ss = np.random.SeedSequence(
            [self.args.seed, self.args.child, *(STREAMS.get(x, x) for x in stream)]
        )
        return int(ss.generate_state(1)[0])

    @contextlib.contextmanager
    def traced(self, on=True):
        """Install the span wrappers for the duration of the block when this
        is a traced run and ``on``; otherwise run without spans."""
        if self.tracer is None or not on:
            yield
            return
        install_tracing(self.tracer)
        try:
            yield
        finally:
            self.tracer.uninstall()

    def op(self, name):
        if self.tracer is None or not self.tracer.installed:
            return contextlib.nullcontext()
        return self.tracer.op(name)

    def start_clock(self):
        if self.t_first is None:
            self.t_first = time.monotonic()

    def rounds(self):
        """Round numbers: as many as fill the window at the nominal round
        length (a traced round runs its work twice), cut short only if the
        machine is so slow that the worker has used twice its window."""
        per_round = self.cfg["round_s"] * (2 if self.tracer is not None else 1)
        for k in range(max(1, round(self.args.window / per_round))):
            if k and time.monotonic() - self.t_first > 2 * self.args.window:
                return
            yield k


# -- inputs and models -----------------------------------------------------


def friedman_rows(ctx, n, *stream):
    from addgp import data

    return data.sample_friedman(n, noise_sd=1.0, seed=ctx.seed(*stream), d=INPUT_DIM)


def anova_model_specs(Y):
    """The ``addgp fit --kernel anova --m 16`` starting point: main effects
    per column plus the x1-x2 interaction, C = 7 components."""
    from addgp import KernelParams, anova_specs

    var0 = max(float(np.var(Y)) / (INPUT_DIM + 1), 1e-2)
    sigma0 = max(float(np.var(Y)), 1e-2)
    g = [KernelParams(np.log(var0), np.array([np.log(0.3)])) for _ in range(INPUT_DIM + 2)]
    return anova_specs(g, sigma0, m=INDUCING, ndim=INPUT_DIM)


def build_model(ctx, X, Y):
    from addgp import Dataset, FullModel, Gaussian, SparseModel

    specs = anova_model_specs(Y)
    if ctx.cfg["model"] == "full":
        return FullModel(specs, Gaussian(0.0), Dataset(X, Y))
    return SparseModel(specs, Gaussian(0.0), Dataset(X, Y), structure=ctx.cfg["model"])


def train_config(ctx, seed):
    from addgp import TrainConfig

    p1, p2 = ctx.cfg["phase1"], ctx.cfg["phase2"]
    return TrainConfig(max_iter=p2 or p1, phase1_max_iter=p1, train_hypers=p2 > 0, seed=seed)


def effect_grids(specs, n1=200, n2=50):
    """The ``addgp decompose`` default grids on the unit box."""
    grids = []
    for s in specs:
        axis = np.linspace(0.0, 1.0, n1 if len(s.active_dims) == 1 else n2)
        if len(s.active_dims) == 1:
            grids.append(axis[:, None])
        else:
            g0, g1 = np.meshgrid(axis, axis, indexing="ij")
            grids.append(np.column_stack([g0.ravel(), g1.ravel()]))
    return grids


def trained_specs(mdl):
    """Specs whose inducing inputs are the projected training inputs, the
    form the dense model's prediction and decomposition take."""
    from addgp import ComponentSpec

    return [ComponentSpec(s.kernel, s.active_dims, s.project(mdl.data.X)) for s in mdl.specs]


# -- correctness oracles ---------------------------------------------------


def dense_coupled_marginals(specs, alpha, B, Xq):
    """Predictive marginals from the densely assembled posterior over all
    inducing variables, Sigma_U = (K_U^-1 + B B^T)^-1 in the Woodbury form
    K - K B (I + B^T K B)^-1 B^T K, with one LU solve on the full (R x R)
    matrix instead of the package's factored per-block path. The K_U^-1
    terms of the predictive variance cancel, which leaves
    var = k(x, x) - diag(F B (I + B^T K B)^-1 B^T F^T)."""
    c, m = len(specs), specs[0].m
    K = np.zeros((m * c, m * c))
    F = np.zeros((Xq.shape[0], m * c))
    kdiag = []
    for ci, s in enumerate(specs):
        blk = slice(ci * m, (ci + 1) * m)
        K[blk, blk] = s.kernel.eval(s.Z)
        F[:, blk] = s.kernel.eval(s.project(Xq), s.Z)
        kdiag.append(s.kernel.diag(s.project(Xq)))
    inner = np.eye(B.shape[1]) + B.T @ K @ B
    per = []
    for ci in range(c):
        blk = slice(ci * m, (ci + 1) * m)
        fb = F[:, blk] @ B[blk]
        per.append((F[:, blk] @ alpha[blk], kdiag[ci] - np.sum(fb * np.linalg.solve(inner, fb.T).T, axis=1)))
    fb = F @ B
    var = sum(kdiag) - np.sum(fb * np.linalg.solve(inner, fb.T).T, axis=1)
    return F @ alpha, var, per


def max_rel_err(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))))


PREDICT_TOL = 1e-8
DECOMPOSE_TOL = 1e-8


# -- machine speed -------------------------------------------------------------

# On a shared host the same fixed fit took anywhere from 0.63 s to 1.14 s:
# neighbours slow the guest by up to half for minutes at a time, longer than
# a run. Each worker therefore also times a fixed reference kernel before
# every timed operation and once at the end, and ``run.py``
# reports times at reference speed: the median wall time times
# REFERENCE_S over the median reference time of the same run. The kernel
# mixes the three kinds of work on the hot path: small matmuls, elementwise
# exp over an (N x M) block, and interpreter loops.
REFERENCE_S = 0.015
_REF_A = np.random.default_rng(0).random((96, 96))
_REF_E = np.random.default_rng(1).random((5000, 16))


def reference_s():
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(100):
        _REF_A @ _REF_A
    for _ in range(20):
        np.exp(-_REF_E * _REF_E)
    acc = 0
    for i in range(100_000):
        acc += i % 7
    return time.perf_counter() - t0



# -- fit workloads ---------------------------------------------------------


def fit_once(ctx, X, Y, Xh, Yh, fit_seed, traced):
    """One fixed-budget fit plus held-out prediction and decomposition of
    the fitted model. Returns the timings and the fitted model; the
    untraced pass also checks the outputs."""
    from addgp import full, sparse

    # the starting bound comes from a twin, so the fit itself still pays for
    # filling its kernel cache
    start = None if traced else build_model(ctx, X, Y).elbo()
    mdl = build_model(ctx, X, Y)
    evals0 = ctx.counters.evals
    grids = effect_grids(mdl.specs)
    with ctx.traced(traced):
        ctx.start_clock()
        if not traced:
            ctx.add("reference_s", reference_s())
        with ctx.op("fit") as span:
            res = mdl.train(train_config(ctx, fit_seed))
            if span is not None:
                span[_spans.SIZE] = res.n_iter
        if not traced:
            ctx.add("reference_s", reference_s())
        t0 = time.perf_counter()
        with ctx.op("predict"):
            if ctx.cfg["model"] == "full":
                marg = full.predict_marginals(trained_specs(mdl), mdl.state.alpha, mdl.state.lam, Xh)
            else:
                marg = sparse.predict_marginals(mdl.specs, mdl.state.alpha, mdl.state.B, Xh)
        if not traced:
            ctx.add("reference_s", reference_s())
        t1 = time.perf_counter()
        with ctx.op("decompose"):
            if ctx.cfg["model"] == "full":
                effects = full.decompose(trained_specs(mdl), mdl.state.alpha, mdl.state.lam, grids)
            else:
                effects = sparse.decompose(mdl.specs, mdl.state.alpha, mdl.state.B, grids, coupled_check=True)
        t2 = time.perf_counter()
    rec = dict(
        fit_s=ctx.counters.train_s[-1], evals=ctx.counters.evals - evals0,
        final_elbo=res.final_elbo, predict_s=t1 - t0, decompose_s=t2 - t1,
    )
    if traced:
        return rec, mdl
    ok = np.isfinite(res.final_elbo) and res.final_elbo > start
    ctx.check("bound_improves", ok, f"start {start:.6g} final {res.final_elbo:.6g}")
    check_heldout(ctx, marg.mu_sum, Xh, Yh)
    if ctx.cfg["model"] == "full":
        check_dense_model(ctx, mdl)
    else:
        rows = slice(0, CHECK_ROWS)
        mu, var, _ = dense_coupled_marginals(mdl.specs, mdl.state.alpha, mdl.state.B, Xh[rows])
        err = max(max_rel_err(marg.mu_sum[rows], mu), max_rel_err(marg.var_sum[rows], var))
        ctx.check("predict_matches_dense_posterior", err < PREDICT_TOL, f"max rel err {err:.3g}")
        disc = max(e[3] for e in effects)
        ctx.check("decompose_coupled_check", disc < DECOMPOSE_TOL, f"max discrepancy {disc:.3g}")
    return rec, mdl


def check_heldout(ctx, mu, X, Y):
    """Held-out error of the posterior mean. The metric is taken against the
    noisy targets, as a user scores a test set: under a fixed iteration
    budget the error against the noiseless function varies threefold between
    datasets, the noise keeps the metric steady across seeds. The noiseless
    error is kept in the run's samples and must beat a constant predictor."""
    from addgp import data

    f = data.friedman(X)
    noiseless = float(np.sqrt(np.mean((mu - f) ** 2)))
    ctx.add("heldout_mse", float(np.mean((mu - Y) ** 2)))
    ctx.add("heldout_rmse_noiseless", noiseless)
    ctx.check("heldout_beats_constant", noiseless < np.std(f), f"rmse {noiseless:.4g} sd {np.std(f):.4g}")


def check_dense_model(ctx, mdl):
    """The dense bound may not exceed the exact log evidence, and its KL
    term is nonnegative."""
    from addgp import exact_sum_posterior

    bound = mdl.elbo()
    ev = exact_sum_posterior(mdl.specs, mdl.data, mdl.likelihood.noise_variance).log_evidence
    ctx.check("bound_below_evidence", bound <= ev + 1e-8 * abs(ev), f"bound {bound:.10g} evidence {ev:.10g}")
    kl = mdl.kl()
    ctx.check("kl_nonnegative", kl >= -1e-8, f"kl {kl:.6g}")


def run_fit(ctx):
    for k in ctx.rounds():
        mdl = None  # one model alive at a time keeps peak memory per fit
        with ctx.traced():
            X, Y = friedman_rows(ctx, ctx.cfg["n"], k, "train")
            Xh, Yh = friedman_rows(ctx, ctx.cfg["heldout"], k, "heldout")
        fit_seed = ctx.seed(k, "fit") % (2**31)
        rec, mdl = fit_once(ctx, X, Y, Xh, Yh, fit_seed, traced=False)
        ctx.add("fit_s", rec["fit_s"])
        ctx.add("fit_evals_per_s", rec["evals"] / rec["fit_s"])
        ctx.add("predict_rows_per_s", len(Xh) / rec["predict_s"])
        ctx.add("decompose_s", rec["decompose_s"])
        if ctx.tracer is not None:
            rec_t, mdl = fit_once(ctx, X, Y, Xh, Yh, fit_seed, traced=True)
            ctx.add("trace.overhead_ratio", rec_t["fit_s"] / rec["fit_s"])
            ctx.add("optimize.final_elbo", rec_t["final_elbo"])
    ctx.add("reference_s", reference_s())
    if ctx.tracer is not None and ctx.args.child == 0:
        cost_slopes(ctx, mdl)


def _cost_slope(big, small, ratio, budget_s=1.0):
    """Log-log slope of the fixed-hyperparameter bound-and-gradient time
    between two models whose size differs by ``ratio``. Calls alternate and
    each side keeps its fastest time, so drift in machine speed during the
    measurement cancels."""
    best = [np.inf, np.inf]
    for mdl in (big, small):
        mdl.elbo_with_grads(train_hypers=False)  # fills the kernel cache
    stop = time.perf_counter() + budget_s
    while time.perf_counter() < stop:
        for i, mdl in enumerate((big, small)):
            t0 = time.perf_counter()
            mdl.elbo_with_grads(train_hypers=False)
            best[i] = min(best[i], time.perf_counter() - t0)
    return float(np.log(best[0] / best[1]) / np.log(ratio))


def cost_slopes(ctx, mdl):
    """Log-log growth of the fixed-hyperparameter bound-and-gradient cost
    between the workload's N and N/2 and, for the sparse structures, between
    its C components and the first C/2 of them."""
    from addgp import Dataset, FullModel, SparseModel
    from addgp.model import FullVariationalState, VariationalState

    n, c = mdl.n, mdl.c
    h = n // 2
    half = Dataset(mdl.data.X[:h], mdl.data.Y[:h])
    if isinstance(mdl, FullModel):
        alpha = mdl.state.alpha.reshape(c, n)[:, :h].ravel()
        small = FullModel(mdl.specs, mdl.likelihood, half, FullVariationalState(alpha, mdl.state.lam[:h].copy()))
        ctx.add("full.cost_slope_n", _cost_slope(mdl, small, n / h))
        return
    st = mdl.state
    small = SparseModel(mdl.specs, mdl.likelihood, half, state=VariationalState(st.alpha.copy(), st.B.copy(), st.structure))
    ctx.add("sparse.cost_slope_n", _cost_slope(mdl, small, n / h))
    k = (c + 1) // 2
    rows = k * mdl.m
    B = st.B[:rows, :rows] if st.structure == "meanfield" else st.B[:rows]
    fewer = SparseModel(mdl.specs[:k], mdl.likelihood, mdl.data, state=VariationalState(st.alpha[:rows].copy(), B.copy(), st.structure))
    ctx.add("sparse.cost_slope_c", _cost_slope(mdl, fewer, c / k))


# -- CLI workload ----------------------------------------------------------


def write_plain_csv(path, X, y=None):
    cols = [f"x{j + 1}" for j in range(X.shape[1])]
    arr = X
    if y is not None:
        cols.append("y")
        arr = np.column_stack([X, y])
    np.savetxt(path, arr, delimiter=",", fmt="%.17g", header=",".join(cols), comments="")


def cli(ctx, argv):
    from addgp import cli as addgp_cli

    ctx.cli_calls += 1
    with contextlib.redirect_stdout(io.StringIO()):
        code = addgp_cli.main(argv)
    if code != 0:
        ctx.cli_failures += 1
        print(f"addgp {' '.join(argv)} exited {code}", file=sys.stderr)


def run_cli(ctx):
    """Set-up: training and query files, then a short fixed-budget
    ``addgp fit``, run ``setup_fits`` times so its time has a median. Timed:
    ``addgp predict --components`` on the query rows, then
    ``addgp decompose --coupled-check`` ``decompose_reps`` times."""
    cfg = ctx.cfg
    d = ctx.workdir
    train_csv = os.path.join(d, "train.csv")
    query_csv = os.path.join(d, "query.csv")
    model = os.path.join(d, "model.addgp")
    with ctx.traced():
        X, Y = friedman_rows(ctx, cfg["n"], 0, "train")
        Xq, Yq = friedman_rows(ctx, cfg["query"], 0, "query")
        write_plain_csv(train_csv, X, Y)
        write_plain_csv(query_csv, Xq)
        for _ in range(cfg["setup_fits"]):
            ctx.add("reference_s", reference_s())
            evals0 = ctx.counters.evals
            with ctx.op("setup_fit"):
                cli(ctx, [
                    "fit", train_csv, "--kernel", "anova", "--m", str(INDUCING),
                    "--phase1-iter", str(cfg["phase1"]), "--max-iter", str(cfg["phase2"]),
                    "--seed", str(ctx.seed(0, "fit") % (2**31)), "--out", model,
                ])
            fit_s = ctx.counters.train_s[-1]
            ctx.add("fit_s", fit_s)
            ctx.add("fit_evals_per_s", (ctx.counters.evals - evals0) / fit_s)
    ctx.add("io.model_bytes", os.path.getsize(model))

    out_csv = os.path.join(d, "pred.csv")
    effects = os.path.join(d, "effects")
    for _ in ctx.rounds():
        for traced in (False, True) if ctx.tracer is not None else (False,):
            with ctx.traced(traced):
                ctx.start_clock()
                if not traced:
                    ctx.add("reference_s", reference_s())
                t0 = time.perf_counter()
                with ctx.op("predict"):
                    cli(ctx, ["predict", model, query_csv, "--out", out_csv, "--components"])
                tp = time.perf_counter() - t0
                for _ in range(cfg["decompose_reps"]):
                    if not traced:
                        ctx.add("reference_s", reference_s())
                    t0 = time.perf_counter()
                    with ctx.op("decompose"):
                        cli(ctx, ["decompose", model, "--outdir", effects, "--coupled-check"])
                    if not traced:
                        ctx.add("decompose_s", time.perf_counter() - t0)
            if traced:
                ctx.add("trace.overhead_ratio", tp / t_untraced)
            else:
                t_untraced = tp
                ctx.add("predict_rows_per_s", cfg["query"] / tp)
    ctx.add("reference_s", reference_s())
    ctx.add("cli.csv_bytes", os.path.getsize(query_csv) + os.path.getsize(out_csv))
    check_cli_outputs(ctx, model, out_csv, effects, Xq, Yq)


def check_cli_outputs(ctx, model, out_csv, effects, Xq, Yq):
    """A sample of predicted rows against the dense posterior, the decompose
    cross-check, and the held-out error of the predicted means."""
    from addgp import io as addgp_io

    saved = addgp_io.load_model(model)
    with open(out_csv) as fh:
        lines = [line for line in fh if not line.startswith("#")][1:]
    rows = np.sort(np.random.default_rng(ctx.seed(0, "check")).choice(len(Xq), CHECK_ROWS, replace=False))
    pred = np.array([[float(v) for v in lines[i].split(",")] for i in rows])
    mu, var, per = dense_coupled_marginals(saved.specs, saved.alpha, saved.B, Xq[rows])
    want = [mu, var] + [v for pair in per for v in pair]
    ok = len(lines) == len(Xq) and pred.shape[1] == len(want)
    err = max(max_rel_err(pred[:, j], w) for j, w in enumerate(want)) if ok else float("nan")
    ctx.check("predict_matches_dense_posterior", ok and err < PREDICT_TOL, f"{len(lines)} rows, max rel err {err:.3g}")
    disc = []
    for path in sorted(glob.glob(os.path.join(effects, "effect_*.csv"))):
        with open(path) as fh:
            for line in fh:
                if "cross-check max discrepancy" in line:
                    disc.append(float(line.rsplit(" ", 1)[1]))
    ctx.check(
        "decompose_coupled_check",
        len(disc) == len(saved.specs) and max(disc) < DECOMPOSE_TOL,
        f"{len(disc)} tables, max discrepancy {max(disc) if disc else float('nan'):.3g}",
    )
    if ok:
        check_heldout(ctx, np.array([float(line.split(",", 1)[0]) for line in lines]), Xq, Yq)


# -- per-layer summaries from the spans --------------------------------------


def layer_samples(ctx):
    """Per-evaluation and per-operation samples from the recorded spans."""
    S = _spans
    spans = ctx.tracer.spans
    kids = ctx.tracer.children()
    roots = {s[S.ID]: s for s in spans if s[S.ROOT] == s[S.ID]}
    main = "predict" if ctx.cfg["kind"] == "cli" else "fit"

    def under(name):
        return [s for s in spans if s[S.ROOT] is not None and roots[s[S.ROOT]][S.NAME] == name]

    def total(span, *names):
        return sum(S.duration(k) for k in S.descendants(span, kids) if k[S.NAME] in names)

    for s in under("fit"):
        name = s[S.NAME]
        if ".elbo_with_grads." not in name:
            continue
        layer, _, phase = name.split(".")
        ctx.add(f"{layer}.eval_{phase}_ms", 1e3 * S.duration(s))
        ctx.add(f"{layer}.self_{phase}_ms", 1e3 * S.self_time(s, kids))
        below = S.descendants(s, kids)
        kern = [k for k in below if k[S.NAME].startswith("kernels.")]
        chol = [k for k in below if k[S.NAME] == "linalg.cholesky"]
        ctx.add("kernels.calls", len(kern))
        if phase == "hyper":
            grads = [k for k in kern if k[S.NAME].endswith("grads")]
            ctx.add("kernels.grad_ms", 1e3 * sum(S.duration(k) for k in grads))
            ctx.add("kernels.grad_bytes", sum(k[S.SIZE] for k in grads))
        ctx.add("linalg.cholesky_calls", len(chol))
        ctx.add("linalg.cholesky_ms", 1e3 * sum(S.duration(k) for k in chol))
        ctx.add("linalg.cholesky_flops", sum(k[S.SIZE] ** 3 / 3.0 for k in chol))
        for k in chol:
            ctx.add("linalg.cholesky_dim", k[S.SIZE])
        ctx.add("likelihoods.ell_ms", 1e3 * sum(S.duration(k) for k in below if k[S.NAME].startswith("likelihoods.")))

    for r in roots.values():
        name = r[S.NAME]
        if name == main:
            ctx.add("kernels.eval_ms", 1e3 * total(r, "kernels.eval", "kernels.diag"))
        if name == "predict":
            ctx.add("linalg.tri_solve_ms", 1e3 * total(r, "linalg.tri_solve"))
            if ctx.cfg["model"] != "full":
                ctx.add("sparse.predict_marginals_ms", 1e3 * total(r, "sparse.predict_marginals"))
        if name == "decompose" and ctx.cfg["model"] != "full":
            ctx.add("sparse.decompose_ms", 1e3 * total(r, "sparse.decompose"))
        if name == "predict" and ctx.cfg["kind"] == "cli":
            ctx.add("cli.read_csv_ms", 1e3 * total(r, "cli.read_csv"))
            ctx.add("cli.write_csv_ms", 1e3 * total(r, "cli.write_csv"))
            ctx.add("io.load_ms", 1e3 * total(r, "io.load_model"))
        if name == "setup_fit":
            ctx.add("io.save_ms", 1e3 * total(r, "io.save_model"))
        if name == "fit":
            below = S.descendants(r, kids)
            train = [k for k in below if k[S.NAME].endswith(".train")]
            evals = [k for k in below if ".elbo_with_grads." in k[S.NAME]]
            iters = r[S.SIZE]
            busy = sum(S.duration(k) for k in evals)
            ctx.add("optimize.iterations", iters)
            ctx.add("optimize.evals", len(evals))
            ctx.add("optimize.evals_per_iter", len(evals) / iters)
            ctx.add("optimize.overhead_ms_per_iter", 1e3 * (sum(S.duration(k) for k in train) - busy) / iters)
    for s in spans:
        if s[S.NAME] == "data.sample_friedman":
            ctx.add("data.synth_ms", 1e3 * S.duration(s))


# -- entry point -------------------------------------------------------------


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--child", type=int, required=True)
    p.add_argument("--window", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    root = os.getcwd()
    import addgp

    src = os.path.join(root, "src", "addgp")
    if os.path.dirname(os.path.abspath(addgp.__file__)) != src:
        raise SystemExit(f"addgp imported from {addgp.__file__}, expected {src}")
    env = verify_blas()

    workdir = os.path.splitext(os.path.abspath(args.out))[0] + f"-work{os.getpid()}"
    os.makedirs(workdir)
    ctx = Context(args, workdir)
    install_counters(ctx.counters)
    try:
        (run_cli if ctx.cfg["kind"] == "cli" else run_fit)(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if ctx.cli_calls:
        ctx.check("cli_exit_codes", ctx.cli_failures == 0, f"{ctx.cli_failures} of {ctx.cli_calls} calls exited non-zero")
    if ctx.tracer is not None:
        layer_samples(ctx)
        ctx.tracer.write(os.path.splitext(args.out)[0] + "-spans.jsonl")

    payload = {
        "t_first": ctx.t_first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference_nominal_s": REFERENCE_S,
        "samples": ctx.samples,
        "evals": ctx.counters.evals,
        "failed_evals": ctx.counters.failed_evals,
        "cli_calls": ctx.cli_calls,
        "cli_failures": ctx.cli_failures,
        "checks": ctx.checks,
        "env": env,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
