"""Benchmark of the addgp package: fixed-budget fits of every posterior
structure and the CLI prediction path, with a traced run per layer.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload coupled_anova --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run starts ``CHILDREN`` worker processes one after another, each with
OpenBLAS, OpenMP and MKL pinned to one thread, and gives each an equal share
of ``--seconds``. With ``--trace 0`` it prints every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric. The last line
of standard output is one JSON object; the exit code is non-zero when a
correctness check fails, and no result is printed when a worker could not
run (missing sources, unpinned BLAS, a crash or a timeout). Raw samples,
checks, the environment and (traced) the spans go to ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILDREN = 3
DEADLINE_S = 170.0

# per-layer metrics reported as median, p90 and sample count
DISTRIBUTIONS = (
    "kernels.grad_ms", "linalg.cholesky_ms", "likelihoods.ell_ms",
    "sparse.eval_fixed_ms", "sparse.self_fixed_ms", "sparse.eval_hyper_ms", "sparse.self_hyper_ms",
    "full.eval_fixed_ms", "full.self_fixed_ms", "full.eval_hyper_ms", "full.self_hyper_ms",
)
# per-layer metrics reported as the median of their samples
MEDIANS = (
    "kernels.grad_bytes", "kernels.eval_ms", "linalg.cholesky_dim", "linalg.cholesky_flops",
    "linalg.tri_solve_ms", "sparse.predict_marginals_ms", "sparse.decompose_ms",
    "cli.read_csv_ms", "cli.write_csv_ms", "cli.csv_bytes", "io.load_ms", "io.save_ms",
    "io.model_bytes", "optimize.iterations", "optimize.evals", "optimize.evals_per_iter",
    "optimize.overhead_ms_per_iter", "optimize.final_elbo", "data.synth_ms",
    "trace.overhead_ratio", "sparse.cost_slope_n", "sparse.cost_slope_c", "full.cost_slope_n",
)


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]


def run_children(workload, seed, seconds, trace):
    """Run the workers one after another; returns their payloads and the
    set-up time of each, measured from just before its start."""
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.path.join(os.getcwd(), "src"),
        PYTHONDONTWRITEBYTECODE="1",
    )
    stop = time.monotonic() + DEADLINE_S
    payloads, setups = [], []
    for k in range(CHILDREN):
        out = os.path.join(outdir, f"{workload}-seed{seed}-trace{trace}-child{k}.json")
        if os.path.exists(out):
            os.remove(out)
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--child", str(k), "--window", repr(seconds / CHILDREN),
            "--trace", str(trace), "--out", out,
        ]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=max(1.0, stop - t_spawn))
        except subprocess.TimeoutExpired:
            raise SystemExit(f"{workload}: worker {k} did not finish within {DEADLINE_S:.0f} s")
        if proc.returncode != 0:
            raise SystemExit(f"{workload}: worker {k} exited with code {proc.returncode}")
        with open(out) as fh:
            payload = json.load(fh)
        payloads.append(payload)
        setups.append(payload["t_first"] - t_spawn)
    return payloads, setups


def summarize(payloads, setups, trace, catalog):
    samples = {}
    for p in payloads:
        for name, vals in p["samples"].items():
            samples.setdefault(name, []).extend(vals)
    attempted = sum(p["evals"] + p["cli_calls"] for p in payloads)
    failed = sum(p["failed_evals"] + p["cli_failures"] for p in payloads)
    if trace:
        values = {}
        for name in DISTRIBUTIONS:
            vals = samples.get(name, [])
            values[name] = median(vals)
            values[name + ".p90"] = p90(vals)
            values[name + ".n"] = len(vals)
        for name in MEDIANS:
            values[name] = median(samples.get(name, []))
        for name in ("kernels.calls", "linalg.cholesky_calls"):
            vals = samples.get(name, [])
            values[name + "_per_eval"] = statistics.fmean(vals) if vals else 0.0
        values["optimize.failures"] = sum(p["failed_evals"] for p in payloads)
        values["fail_ratio"] = failed / attempted
    else:
        # times at reference speed (see worker.REFERENCE_S): a run on a
        # host slowed by its neighbours reads as one on a quiet host
        speed = payloads[0]["reference_nominal_s"] / median(samples["reference_s"])
        values = {name: median(samples[name]) * speed for name in ("fit_s", "decompose_s")}
        for name in ("fit_evals_per_s", "predict_rows_per_s"):
            values[name] = median(samples[name]) / speed
        # pooled over every held-out row of the run: a fixed-budget fit
        # stalls on some datasets, so a median over datasets jumps
        values["heldout_rmse"] = statistics.fmean(samples["heldout_mse"]) ** 0.5
        values["setup_s"] = median(setups) * speed
        values["peak_rss_mb"] = median([p["peak_rss_mb"] for p in payloads])
    listed = {m["name"]: m["unit"] for m in catalog}
    if set(values) != set(listed):
        raise SystemExit(
            f"metrics disagree with BENCHMARK.json: missing {sorted(set(listed) - set(values))}, "
            f"unlisted {sorted(set(values) - set(listed))}"
        )
    metrics = {name: {"value": values[name], "unit": listed[name]} for name in listed}
    return metrics, attempted, failed


def run_workload(workload, seed, seconds, trace, spec):
    payloads, setups = run_children(workload, seed, seconds, trace)
    catalog = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, attempted, failed = summarize(payloads, setups, trace, catalog)
    checks = [c for p in payloads for c in p["checks"]]
    bad = [c for c in checks if not c["ok"]]
    for c in bad:
        print(f"CHECK FAILED {workload}: {c['name']}: {c['detail']}", file=sys.stderr)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "children": CHILDREN, "env": payloads[0]["env"], "checks": checks,
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "samples": [p["samples"] for p in payloads], "setup_s": setups,
    }
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    for name, m in metrics.items():
        print(f"{workload:20s} {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{workload:20s} checks: {len(checks) - len(bad)} of {len(checks)} passed; "
          f"operations: {attempted} attempted, {failed} failed")
    result = {"correct": not bad and bool(checks), "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, payloads[0]["env"]


def main(argv=None):
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description="addgp benchmark")
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "addgp", "__init__.py")):
        print("run from the root of an addgp checkout: src/addgp is missing", file=sys.stderr)
        return 2
    results = {}
    for w in names if args.workload == "all" else [args.workload]:
        results[w], env = run_workload(w, args.seed, args.seconds, args.trace, spec)
    print("environment: " + json.dumps(env))
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
