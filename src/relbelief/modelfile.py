"""Reading and writing finite models as structured-text (JSON) files.

Schema (all keys at the top level of one JSON object):

``theta``
    List of parameter points: either plain string labels or objects
    ``{"label": str, "coord": float}``.
``prior``
    List of positive weights, one per theta.  Auto-normalized on load with
    a warning when the sum is off by more than 1e-9; strict validation
    instead rejects the file.
``likelihood``
    Either a matrix (rows per theta, columns per sample point) or a named
    family, which yields a callback giving log-likelihood columns over theta:
    ``{"family": "binomial", "n": int, "p": [...]}`` for trial counts,
    ``{"family": "bernoulli", "p": [...]}`` for the binomial at ``n = 1``, or
    ``{"family": "normal", "mean": [...], "sd": [...]}`` for a continuous
    observation.  A count family has ``n_x = n + 1`` points, named ``"0"`` to ``"n"``.
``psi_map``
    List of marginal-value labels, one per theta.
``psi`` (optional)
    Explicit ordering of the marginal support; defaults to first
    appearance order in ``psi_map``.
``psi_coords`` (optional)
    Real coordinates aligned with ``psi``.
``x`` (optional)
    Labels for the sample-space columns of a matrix likelihood.

Any other key is ignored.

Loading only turns JSON into typed values; :class:`FiniteModel` checks them.
Every rejection is a validation error (exit 2 on the command line): either a
:class:`ModelSpecError` whose ``field`` names the key (``file`` for the
document) for a file that is not readable UTF-8 JSON, a missing field, a label
field that is not a list, text, nulls, ragged rows or booleans in a numeric
field, a bad family or family parameter (``likelihood``, a count impossible
under every ``p`` included), ``psi_map`` labels missing from ``psi`` and, when
strict, an off-sum prior; or
an :class:`InvariantViolation` from :class:`FiniteModel` naming the field: a
wrong length, a non-finite or out-of-range weight or coordinate, an impossible
matrix column or a ``psi`` value with no preimage.  A normal family rejects a
NaN or text ``x``.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

from .errors import InvariantViolation, ModelSpecError
from .losses import parse_number
from .model import FiniteModel, _normal_log_likelihood, _rows_per_block
from .reporting import write_text

PRIOR_WARN_TOL = 1e-9


def _holds_bool(value, ndim: int) -> bool:
    """Whether ``ndim`` levels of nested lists in ``value`` hold a JSON boolean."""
    if ndim <= 1:
        return ndim == 1 and bool in map(type, value)
    return any(_holds_bool(v, ndim - 1) for v in value)


def _numbers(value, field: str) -> np.ndarray:
    """``value`` as a float array; anything but JSON numbers in lists of equal length
    (numpy alone reads the text ``"1.5"`` as a number and ``true`` among numbers
    as 1) is an error naming ``field``."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind in "iufO" and not _holds_bool(value, arr.ndim):
            return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ModelSpecError(field, "must hold JSON numbers, in lists of equal length")


def _list(raw: dict, field: str) -> list:
    if not isinstance(raw[field], list):
        raise ModelSpecError(field, "must be a JSON list")
    return raw[field]


def _theta(raw: dict):
    """Theta labels, and their coordinates when every entry carries one."""
    labels, coords = [], []
    for item in _list(raw, "theta"):
        if isinstance(item, dict):
            if "label" not in item:
                raise ModelSpecError("theta", "entries need a 'label'")
            labels.append(str(item["label"]))
            if "coord" in item:
                coords.append(item["coord"])
        else:
            labels.append(str(item))
    if coords and len(coords) != len(labels):
        raise ModelSpecError("theta", "either all entries carry a coord or none do")
    return labels, (_numbers(coords, "theta") if coords else None)


# Stirling's error log(n!) - log(sqrt(2 pi n) (n / e)^n) at n = 0..15, below
# which its asymptotic series is not accurate; entry 0 is never read.
_STIRLING_ERROR_SMALL = np.array([
    0.0, 0.081061466795327258, 0.041340695955409294, 0.027677925684998339,
    0.020790672103765093, 0.016644691189821192, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.0092554621827127329,
    0.0083305634333628713, 0.0075736754879518408, 0.0069428401072095299,
    0.0064089941880042071, 0.0059513701127588477, 0.0055547335519628014,
])


def _stirling_error(n: np.ndarray) -> np.ndarray:
    """Stirling's error at positive integers ``n``: the table, then the series."""
    nn = n * n
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n
    return np.where(n <= 15, _STIRLING_ERROR_SMALL[np.minimum(n, 15)], series)


def _deviance(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """``x log(x / mean) + mean - x`` without cancellation where ``x`` is near ``mean``.

    Within a factor of three of the mean, with ``v = (x - mean) / (x + mean)``
    and ``|v| < 1/2``, the deviance is ``(x - mean) v + 2 x v^3 S(v^2)`` with
    ``S(w) = 1/3 + w/5 + w^2/7 + ...``, whose terms never cancel more than a
    fifth of the first; 10 terms of ``S`` reach double precision for
    ``|v| < 0.15`` and 26 up to ``1/2``.  Further out the direct form loses at
    most a factor of three to cancellation.  A deviance above 800 makes its
    probability underflow whatever its last digits, so it keeps the direct form.
    """
    x, mean = np.broadcast_arrays(x, mean)
    with np.errstate(divide="ignore", over="ignore"):
        ratio = x / mean
        log_ratio = np.log(ratio)
        # A subnormal mean can overflow the ratio but not the difference of logs.
        big = np.isinf(ratio)
        log_ratio[big] = np.log(x[big]) - np.log(mean[big])
    out = x * log_ratio + mean - x
    near = (np.abs(x - mean) < 0.5 * (x + mean)) & (out < 800.0)
    x, mean = x[near], mean[near]
    v = (x - mean) / (x + mean)
    w = v * v
    series = np.empty_like(w)
    for part, terms in ((w < 0.15**2, 10), (w >= 0.15**2, 26)):
        wp = w[part]
        s = np.full_like(wp, 1.0 / (2 * terms + 1))
        for j in range(terms - 1, 0, -1):
            s = s * wp + 1.0 / (2 * j + 1)
        series[part] = s
    out[near] = (x - mean) * v + 2.0 * x * v * w * series
    return out


def _relative_rounding(n: int, p: np.ndarray, p_err):
    """``fl(n p)`` and ``(n (p + p_err) - fl(n p)) / fl(n p)``, 0 where ``fl(n p)`` is 0.

    The product's own rounding error is exact by Dekker's split of each
    factor into halves of 26 bits.
    """
    def split(a):
        c = 134217729.0 * a
        hi = c - (c - a)
        return hi, a - hi

    prod = n * p
    (n_hi, n_lo), (p_hi, p_lo) = split(float(n)), split(p)
    err = ((n_hi * p_hi - prod) + n_hi * p_lo + n_lo * p_hi) + n_lo * p_lo + n * p_err
    return prod, np.divide(err, prod, out=np.zeros_like(prod), where=prod > 0)


def _binomial_log_pmf(trials: int, p: np.ndarray, counts) -> np.ndarray:
    """Log binomial probabilities of any array of ``counts``, one row per success rate.

    Loader's saddle-point form (C. Loader, "Fast and Accurate Computation of
    Binomial Probabilities", 2000): for ``0 < k < trials`` the log
    probability is a sum of Stirling errors and two deviances, each small
    and accurate to its own rounding, so the relative error does not grow
    with ``trials``.  The end points are ``trials log(1 - p)`` and
    ``trials log(p)``, exact at ``p = 0`` and ``p = 1``.  Rows are built in
    blocks of about ``model.BLOCK_CELLS`` cells, so the temporaries stay small.
    """
    n = trials
    k = np.ravel(counts)
    inner = (k > 0) & (k < n)
    ki = k[inner]
    base = (_stirling_error(n) - _stirling_error(ki) - _stirling_error(n - ki)
            - 0.5 * np.log(2 * math.pi * (ki * (n - ki) / n)))
    table = np.empty((p.size, k.size))
    rows = _rows_per_block(k.size)
    for start in range(0, p.size, rows):
        block = p[start:start + rows, None]
        q = 1.0 - block
        # The deviances move by (mean - x) / mean per unit of mean, so the
        # rounding of n p and n q, up to 1e-16 of each, would cost
        # |k - n p| * 1e-16 of relative accuracy; it is added back to first order.
        mean, rel = _relative_rounding(n, block, 0.0)
        mean_q, rel_q = _relative_rounding(n, q, (1.0 - q) - block)
        out = table[start:start + rows]
        with np.errstate(divide="ignore"):
            out[:, k == 0] = n * np.log1p(-block)
            out[:, k == n] = n * np.log(block)
            out[:, inner] = (base - _deviance(ki, mean) - _deviance(n - ki, mean_q)
                             - (mean - ki) * rel - (mean_q - (n - ki)) * rel_q)
    return table.reshape(p.shape + np.shape(counts))


def _family_likelihood(spec: dict, n_theta: int) -> dict:
    """A named family's likelihood and ``n_x`` fields; a bad parameter is a ``likelihood`` error."""
    family = spec.get("family")

    def param(name: str) -> np.ndarray:
        value = _numbers(spec.get(name, []), "likelihood")
        if value.shape != (n_theta,):
            raise ModelSpecError("likelihood", f"{family} needs one {name} per theta")
        return value

    if family in ("bernoulli", "binomial"):
        p = param("p")
        if not np.all((p >= 0) & (p <= 1)):
            raise ModelSpecError("likelihood", f"{family} needs every p in [0, 1]")
        trials = spec.get("n") if family == "binomial" else 1  # Bernoulli: one trial
        if type(trials) is not int or trials < 1:
            raise ModelSpecError("likelihood", "binomial needs an integer n >= 1")
        # With no table built, "every count is possible" is decided from p.
        if not (np.any(p < 1) and np.any(p > 0) and (trials == 1 or np.any((p > 0) & (p < 1)))):
            raise ModelSpecError("likelihood", "some count is impossible under every p")
        return {"likelihood": lambda k: _binomial_log_pmf(trials, p, k), "n_x": trials + 1}
    if family == "normal":
        mean, sd = param("mean"), param("sd")
        if not np.all(np.isfinite(mean) & np.isfinite(sd) & (sd > 0)):
            raise ModelSpecError("likelihood", "normal needs a finite mean and a finite sd > 0")

        log_norm = np.log(sd) + 0.5 * math.log(2 * math.pi)

        def callback(x) -> np.ndarray:
            value = parse_number(x)
            if math.isnan(value):
                raise InvariantViolation(f"observation {x!r} is not a number")
            return _normal_log_likelihood(value, mean, sd, log_norm, "mean")

        return {"likelihood": callback}
    raise ModelSpecError("likelihood", f"unknown family {family!r}")


def load_model(path: str | Path, *, strict: bool = False) -> FiniteModel:
    """Load a model file; ``strict`` rejects instead of repairing.

    This turns JSON into typed values; :class:`FiniteModel` then checks
    them.  Strict mode is what the command-line ``validate`` subcommand
    uses: a prior that does not sum to one within 1e-9 is an error rather
    than a normalization warning.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # missing, a directory, not UTF-8 or not JSON
        raise ModelSpecError("file", f"not a readable JSON file: {exc}") from exc
    if not isinstance(raw, dict):
        raise ModelSpecError("file", "top level must be a JSON object")
    for key in ("theta", "prior", "likelihood", "psi_map"):
        if key not in raw:
            raise ModelSpecError(key, "required field is missing")

    theta_labels, theta_coords = _theta(raw)
    prior = _numbers(raw["prior"], "prior")
    with np.errstate(over="ignore"):  # a sum past the largest double is reported as inf
        total = float(prior.sum())
    if abs(total - 1.0) > PRIOR_WARN_TOL:
        if strict:
            raise ModelSpecError("prior", f"sums to {total!r}, not 1")
        warnings.warn(f"prior summed to {total!r}; renormalizing", stacklevel=2)

    lik = raw["likelihood"]
    family_spec = dict(lik) if isinstance(lik, dict) else None
    if family_spec is not None:
        sample_space = _family_likelihood(lik, len(theta_labels))
    else:
        sample_space = {"likelihood": _numbers(lik, "likelihood"),
                        "x_labels": tuple(map(str, _list(raw, "x"))) if "x" in raw else None}

    psi_map_labels = [str(v) for v in _list(raw, "psi_map")]
    if "psi" in raw:
        psi_labels = [str(v) for v in _list(raw, "psi")]
        extra = set(psi_map_labels) - set(psi_labels)
        if extra:
            raise ModelSpecError("psi", f"psi_map uses labels not in psi: {sorted(extra)}")
    else:
        psi_labels = list(dict.fromkeys(psi_map_labels))
    index = {label: i for i, label in enumerate(psi_labels)}

    return FiniteModel(
        theta_labels=tuple(theta_labels),
        prior=prior,
        psi_map=np.array([index[label] for label in psi_map_labels], dtype=np.intp),
        psi_labels=tuple(psi_labels),
        theta_coords=theta_coords,
        psi_coords=_numbers(raw["psi_coords"], "psi_coords") if "psi_coords" in raw else None,
        family_spec=family_spec,
        **sample_space,
    )


def save_model(model: FiniteModel, path: str | Path) -> None:
    """Write a model as a file that loads back field-for-field."""
    doc: dict = {}
    if model.theta_coords is not None:
        doc["theta"] = [
            {"label": lab, "coord": coord}
            for lab, coord in zip(model.theta_labels, model.theta_coords.tolist())
        ]
    else:
        doc["theta"] = list(model.theta_labels)
    doc["prior"] = [float(v) for v in model.prior]
    if model.family_spec is not None:
        doc["likelihood"] = model.family_spec
    elif model.is_table:
        doc["likelihood"] = [[float(v) for v in row] for row in model.likelihood]
        if model.x_labels is not None:
            doc["x"] = list(model.x_labels)
    else:
        raise ModelSpecError("likelihood", "cannot serialize an anonymous likelihood callback")
    doc["psi"] = list(model.psi_labels)
    doc["psi_map"] = [model.psi_labels[j] for j in model.psi_map]
    if model.psi_coords is not None:
        doc["psi_coords"] = model.psi_coords.tolist()
    write_text(path, json.dumps(doc, indent=2) + "\n")
