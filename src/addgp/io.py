"""Plain-text model persistence, format id ``addgp-v1``.

The file is line-oriented: a version line, then ``[section]`` headers with
``key = value`` entries. All floats are written as C99 hex literals
(``float.hex``), so a save/load round trip is bit-exact. Kernel trees are
flattened with dotted keys (``kernel.part0.log_variance = ...``).

Sections: ``[model]`` (structure, sizes, likelihood, optional input
rescaling), one ``[component i]`` per additive component (kernel + inducing
inputs; for the dense structure Z carries the projected training inputs),
and ``[state]`` (alpha plus B or lambda).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels as _kernels
from . import likelihoods as _lik
from . import model as _model
from .errors import DimensionMismatch, ModelFormatError

FORMAT_ID = "addgp-v1"
# deepest kernel tree a file may hold (anova's are 2 deep): reading recurses
MAX_KERNEL_DEPTH = 32


@dataclass
class Rescale:
    """Per-column min-max map used to bring inputs into the unit box:
    scaled = (x - lo) / (hi - lo)."""

    lo: np.ndarray
    hi: np.ndarray

    def apply(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return (X - self.lo[None, :]) / (self.hi - self.lo)[None, :]

    def invert(self, Xs):
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        return Xs * (self.hi - self.lo)[None, :] + self.lo[None, :]


@dataclass
class SavedModel:
    """Everything a fitted model needs for prediction and decomposition."""

    structure: str  # coupled | meanfield | full
    specs: list
    likelihood: object
    alpha: np.ndarray
    B: np.ndarray = None  # sparse structures
    lam: np.ndarray = None  # dense structure
    rescale: Rescale = None
    input_dim: int = None

    @property
    def coupling(self):
        """B, or lambda for the dense structure."""
        return self.lam if self.structure == _model.FULL else self.B


def _fhex(x):
    return float(x).hex()


def _vec_to_str(v):
    return " ".join(_fhex(x) for x in np.asarray(v, dtype=float).ravel())


class _Section(dict):
    """The ``key = value`` entries of one ``[name]`` section. A missing key,
    a value that does not parse or a NaN or infinite number raises
    ModelFormatError naming the key and the section."""

    def __init__(self, name):
        super().__init__()
        self.name = name

    def error(self, key, what):
        return ModelFormatError(f"key {key!r} in [{self.name}]: {what}")

    def __missing__(self, key):
        raise self.error(key, "missing")

    def ints(self, key, count=None):
        try:
            vals = [int(v) for v in self[key].split()]
        except ValueError:
            raise self.error(key, f"bad integer in {self[key]!r}") from None
        if count is not None and len(vals) != count:
            raise self.error(key, f"expected {count} integers, got {self[key]!r}")
        return vals

    def integer(self, key, minimum=0):
        (val,) = self.ints(key, count=1)
        if val < minimum:
            raise self.error(key, f"expected an integer >= {minimum}, got {val}")
        return val

    def floats(self, key, count=None):
        try:
            vals = [float.fromhex(v) for v in self[key].split()]
        except ValueError:
            raise self.error(key, f"bad float in {self[key]!r}") from None
        if not all(map(math.isfinite, vals)):
            raise self.error(key, f"non-finite value in {self[key]!r}")
        if count is not None and len(vals) != count:
            raise self.error(key, f"expected {count} values, got {len(vals)}")
        return np.array(vals)

    def scalar(self, key):
        return float(self.floats(key, count=1)[0])

    def matrix(self, prefix, rows=None, cols=None):
        """Rows ``{prefix}.row.i`` of the shape given by ``{prefix}.shape``,
        which must be positive and match ``rows`` and ``cols`` where given."""
        shape = self.ints(f"{prefix}.shape", count=2)
        if min(shape) < 1 or any(w is not None and w != v for w, v in zip((rows, cols), shape)):
            want = " x ".join("any" if w is None else str(w) for w in (rows, cols))
            raise self.error(f"{prefix}.shape", f"expected {want}, got {shape[0]} x {shape[1]}")
        return np.array([self.floats(f"{prefix}.row.{ri}", shape[1]) for ri in range(shape[0])])


def _write_kernel(lines, prefix, kern):
    if isinstance(kern, _kernels.SquaredExp):
        lines.append(f"{prefix}.type = squared_exp")
        lines.append(
            f"{prefix}.active_dims = " + " ".join(str(d) for d in kern.active_dims)
        )
        lines.append(f"{prefix}.log_variance = {_fhex(kern.params.log_variance)}")
        lines.append(
            f"{prefix}.log_lengthscales = {_vec_to_str(kern.params.log_lengthscales)}"
        )
    elif isinstance(kern, _kernels.Constant):
        lines.append(f"{prefix}.type = constant")
        lines.append(f"{prefix}.log_variance = {_fhex(kern.log_variance)}")
        lines.append(f"{prefix}.trainable = {'true' if kern.trainable else 'false'}")
    elif isinstance(kern, _kernels.ZeroMeanSE):
        lines.append(f"{prefix}.type = zero_mean_se")
        lines.append(f"{prefix}.active_dim = {kern.active_dim}")
        lines.append(f"{prefix}.log_variance = {_fhex(kern.params.log_variance)}")
        lines.append(
            f"{prefix}.log_lengthscale = {_fhex(kern.params.log_lengthscales[0])}"
        )
    elif isinstance(kern, (_kernels.Sum, _kernels.Product)):
        kind = "sum" if isinstance(kern, _kernels.Sum) else "product"
        lines.append(f"{prefix}.type = {kind}")
        lines.append(f"{prefix}.nparts = {len(kern.parts)}")
        for i, part in enumerate(kern.parts):
            _write_kernel(lines, f"{prefix}.part{i}", part)
    else:
        raise ModelFormatError(
            f"kernel type {type(kern).__name__} has no serialization"
        )


def _read_kernel(kv, prefix, depth=0):
    if depth > MAX_KERNEL_DEPTH:
        raise kv.error(f"{prefix}.type", f"kernel tree is over {MAX_KERNEL_DEPTH} deep")
    kind = kv[f"{prefix}.type"]
    if kind == "squared_exp":
        params = _kernels.KernelParams(
            log_variance=kv.scalar(f"{prefix}.log_variance"),
            log_lengthscales=kv.floats(f"{prefix}.log_lengthscales"),
        )
        return _kernels.SquaredExp(params, active_dims=kv.ints(f"{prefix}.active_dims"))
    if kind == "constant":
        return _kernels.Constant(
            log_variance=kv.scalar(f"{prefix}.log_variance"),
            trainable=kv.get(f"{prefix}.trainable", "true") == "true",
        )
    if kind == "zero_mean_se":
        params = _kernels.KernelParams(
            log_variance=kv.scalar(f"{prefix}.log_variance"),
            log_lengthscales=kv.floats(f"{prefix}.log_lengthscale", count=1),
        )
        return _kernels.ZeroMeanSE(params, active_dim=kv.integer(f"{prefix}.active_dim"))
    if kind in ("sum", "product"):
        nparts = kv.integer(f"{prefix}.nparts", minimum=1)
        parts = [_read_kernel(kv, f"{prefix}.part{i}", depth + 1) for i in range(nparts)]
        return _kernels.Sum(parts) if kind == "sum" else _kernels.Product(parts)
    raise kv.error(f"{prefix}.type", f"unknown kernel type {kind!r}")


def _write_likelihood(lines, lik):
    lines.append(f"likelihood = {lik.kind}")
    for name, val in zip(lik.param_names(), lik.get_params()):
        lines.append(f"lik.{name} = {_fhex(val)}")


def _read_likelihood(kv):
    kind = kv.get("likelihood")
    if kind == "gaussian":
        return _lik.Gaussian(log_noise_variance=kv.scalar("lik.log_noise_variance"))
    if kind == "poisson":
        return _lik.Poisson()
    raise ModelFormatError(f"unknown likelihood {kind!r}")


def save_model(path, saved):
    """Write a SavedModel to ``path`` in the addgp-v1 format."""
    if saved.structure == _model.MEAN_FIELD:
        _model.check_mean_field(saved.B, saved.specs[0].m, len(saved.specs))
    lines = [FORMAT_ID, "[model]"]
    lines.append(f"structure = {saved.structure}")
    lines.append(f"n_components = {len(saved.specs)}")
    lines.append(f"m = {saved.specs[0].m}")
    input_dim = saved.input_dim
    if input_dim is None:
        input_dim = 1 + max(max(s.active_dims) for s in saved.specs)
    lines.append(f"input_dim = {input_dim}")
    _write_likelihood(lines, saved.likelihood)
    if saved.rescale is not None:
        lines.append("rescale = minmax")
        lines.append(f"rescale.lo = {_vec_to_str(saved.rescale.lo)}")
        lines.append(f"rescale.hi = {_vec_to_str(saved.rescale.hi)}")

    for ci, spec in enumerate(saved.specs):
        lines.append(f"[component {ci}]")
        lines.append(
            "active_dims = " + " ".join(str(d) for d in spec.active_dims)
        )
        _write_kernel(lines, "kernel", spec.kernel)
        lines.append(f"z.shape = {spec.Z.shape[0]} {spec.Z.shape[1]}")
        for ri in range(spec.Z.shape[0]):
            lines.append(f"z.row.{ri} = {_vec_to_str(spec.Z[ri])}")

    lines.append("[state]")
    lines.append(f"alpha = {_vec_to_str(saved.alpha)}")
    if saved.structure == _model.FULL:
        lines.append(f"lambda = {_vec_to_str(saved.lam)}")
    else:
        lines.append(f"b.shape = {saved.B.shape[0]} {saved.B.shape[1]}")
        for ri in range(saved.B.shape[0]):
            lines.append(f"b.row.{ri} = {_vec_to_str(saved.B[ri])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_sections(path):
    sections = {}
    current = None
    with open(path) as fh:
        try:
            first = fh.readline().strip()
            if first != FORMAT_ID:
                raise ModelFormatError(
                    f"unsupported format id {first!r} (expected {FORMAT_ID!r})"
                )
            for lineno, raw in enumerate(fh, start=2):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if line.startswith("[") and line.endswith("]"):
                    current = line[1:-1]
                    sections[current] = _Section(current)
                    continue
                if "=" not in line or current is None:
                    raise ModelFormatError(f"malformed line {lineno}: {line!r}")
                key, _, val = line.partition("=")
                sections[current][key.strip()] = val.strip()
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"not a text file: {exc}") from None
    return sections


def load_model(path):
    """Read an addgp-v1 file back into a SavedModel. Anything that does not
    parse, or sizes that do not fit together, raise ModelFormatError."""
    sections = _parse_sections(path)
    if "model" not in sections or "state" not in sections:
        raise ModelFormatError("missing [model] or [state] section")
    mk = sections["model"]
    structure = mk.get("structure")
    if structure not in (_model.COUPLED, _model.MEAN_FIELD, _model.FULL):
        raise ModelFormatError(f"unknown structure {structure!r}")
    n_comp = mk.integer("n_components", minimum=1)
    likelihood = _read_likelihood(mk)

    specs = []
    for ci in range(n_comp):
        name = f"component {ci}"
        if name not in sections:
            raise ModelFormatError(f"missing section [{name}]")
        kv = sections[name]
        dims = kv.ints("active_dims")
        if not dims or min(dims) < 0:
            raise kv.error("active_dims", f"expected input columns >= 0, got {kv['active_dims']!r}")
        try:
            kern = _read_kernel(kv, "kernel")
            z = kv.matrix("z", rows=specs[0].m if specs else None, cols=len(dims))
            specs.append(_model.ComponentSpec(kernel=kern, active_dims=dims, Z=z))
        except DimensionMismatch as exc:
            raise ModelFormatError(f"bad component in [{name}]: {exc}") from None

    needed = 1 + max(max(s.active_dims) for s in specs)
    input_dim = (mk.integer("input_dim") if "input_dim" in mk else 0) or needed
    if input_dim < needed:
        raise mk.error("input_dim", f"components read input column {needed - 1}")
    rescale = None
    if mk.get("rescale") == "minmax":
        rescale = Rescale(
            lo=mk.floats("rescale.lo", count=input_dim),
            hi=mk.floats("rescale.hi", count=input_dim),
        )
        # Python floats: a span that overflows is inf, without a numpy warning
        spans = [hi - lo for lo, hi in zip(rescale.lo.tolist(), rescale.hi.tolist())]
        if not all(0.0 < w < math.inf for w in spans):
            raise mk.error("rescale.hi", f"hi - lo must be positive and finite, got {spans}")

    sk = sections["state"]
    m = specs[0].m
    alpha = sk.floats("alpha", count=m * n_comp)
    B = None
    lam = None
    if structure == _model.FULL:
        lam = sk.floats("lambda", count=m)
    else:
        B = sk.matrix("b", rows=len(alpha))
        if structure == _model.MEAN_FIELD:
            try:
                _model.check_mean_field(B, m, n_comp)
            except ValueError as exc:
                raise sk.error("b", str(exc)) from None
    return SavedModel(
        structure=structure,
        specs=specs,
        likelihood=likelihood,
        alpha=alpha,
        B=B,
        lam=lam,
        rescale=rescale,
        input_dim=input_dim,
    )
