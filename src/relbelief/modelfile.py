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
    family object: ``{"family": "bernoulli", "p": [...]}`` for a single
    success/failure trial, ``{"family": "binomial", "n": int, "p": [...]}``
    for trial counts, or ``{"family": "normal", "mean": [...], "sd": [...]}``
    which yields a density callback for a continuous observation.
``psi_map``
    List of marginal-value labels, one per theta.
``psi`` (optional)
    Explicit ordering of the marginal support; defaults to first
    appearance order in ``psi_map``.
``psi_coords`` (optional)
    Real coordinates aligned with ``psi``.  Coordinates, here and in
    ``theta``, must be finite.
``x`` (optional)
    Labels for the sample-space columns of a matrix likelihood.

Any other key is ignored.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ModelSpecError
from .model import FiniteModel, normalized

PRIOR_WARN_TOL = 1e-9


def _labels_and_coords(raw, field: str):
    labels, coords = [], []
    has_coords = False
    for item in raw:
        if isinstance(item, dict):
            if "label" not in item:
                raise ModelSpecError(field, "entries need a 'label'")
            labels.append(str(item["label"]))
            if "coord" in item:
                has_coords = True
                coords.append(float(item["coord"]))
            else:
                coords.append(None)
        else:
            labels.append(str(item))
            coords.append(None)
    if has_coords and None in coords:
        raise ModelSpecError(field, "either all entries carry a coord or none do")
    return labels, (np.array(coords) if has_coords else None)


def _binomial_table(trials: int, p: np.ndarray) -> np.ndarray:
    """Binomial probabilities of ``k = 0..trials``, one row per success rate.

    Built in log space.  ``log C(trials, k)`` sums ``log((trials - j) / (j + 1))``
    up to the middle and mirrors it, so it is exactly 0 at both ends.  The terms
    ``k log p`` and ``(trials - k) log(1 - p)`` count as 0 where ``k`` or
    ``trials - k`` is 0, so ``p = 0`` and ``p = 1`` give exact unit rows
    instead of ``0 * log 0 = nan``.
    """
    k = np.arange(trials + 1)
    j = k[: trials // 2]
    half = np.concatenate(([0.0], np.cumsum(np.log((trials - j) / (j + 1)))))
    log_comb = np.concatenate((half, half[: trials - trials // 2][::-1]))
    p = p[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf = (log_comb + np.where(k > 0, k * np.log(p), 0.0)
                   + np.where(k < trials, (trials - k) * np.log1p(-p), 0.0))
    return np.exp(log_pmf)


def _family_likelihood(spec: dict, n_theta: int):
    family = spec.get("family")
    if family == "bernoulli":
        p = np.asarray(spec.get("p", []), dtype=float)
        if p.size != n_theta or np.any(p < 0) or np.any(p > 1):
            raise ModelSpecError("likelihood", "bernoulli needs one p in [0,1] per theta")
        return np.column_stack([1.0 - p, p]), ("0", "1")
    if family == "binomial":
        trials = int(spec.get("n", 0))
        p = np.asarray(spec.get("p", []), dtype=float)
        if trials < 1 or p.size != n_theta or np.any(p < 0) or np.any(p > 1):
            raise ModelSpecError("likelihood", "binomial needs n >= 1 and one p per theta")
        return _binomial_table(trials, p), tuple(str(k) for k in range(trials + 1))
    if family == "normal":
        mean = np.asarray(spec.get("mean", []), dtype=float)
        sd = np.asarray(spec.get("sd", []), dtype=float)
        if mean.size != n_theta or sd.size != n_theta or np.any(sd <= 0):
            raise ModelSpecError("likelihood", "normal needs a mean and positive sd per theta")

        def callback(i: int, x) -> float:
            z = (float(x) - mean[i]) / sd[i]
            return math.exp(-0.5 * z * z) / (sd[i] * math.sqrt(2 * math.pi))

        return callback, None
    raise ModelSpecError("likelihood", f"unknown family {family!r}")


def load_model(path: str | Path, *, strict: bool = False) -> FiniteModel:
    """Load a model file; ``strict`` rejects instead of repairing.

    Strict mode is what the command-line ``validate`` subcommand uses: a
    prior that does not sum to one within 1e-9 is an error rather than a
    normalization warning.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ModelSpecError("file", f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ModelSpecError("file", "top level must be a JSON object")
    for key in ("theta", "prior", "likelihood", "psi_map"):
        if key not in raw:
            raise ModelSpecError(key, "required field is missing")

    theta_labels, theta_coords = _labels_and_coords(raw["theta"], "theta")
    n_theta = len(theta_labels)

    prior = np.asarray(raw["prior"], dtype=float)
    if prior.size != n_theta:
        raise ModelSpecError("prior", "length does not match theta")
    if np.any(prior <= 0):
        raise ModelSpecError("prior", "weights must be strictly positive")
    total = float(prior.sum())
    if strict and abs(total - 1.0) > PRIOR_WARN_TOL:
        raise ModelSpecError("prior", f"sums to {total!r}, not 1")
    prior = normalized(prior, what="prior", warn_above=PRIOR_WARN_TOL)

    family_spec = None
    x_labels = None
    lik = raw["likelihood"]
    if isinstance(lik, dict):
        family_spec = dict(lik)
        likelihood, x_labels = _family_likelihood(lik, n_theta)
    else:
        likelihood = np.asarray(lik, dtype=float)
        if likelihood.ndim != 2 or likelihood.shape[0] != n_theta:
            raise ModelSpecError("likelihood", "matrix must have one row per theta")
        if np.any(likelihood < 0):
            raise ModelSpecError("likelihood", "entries must be nonnegative")
        if np.any(likelihood.sum(axis=0) <= 0):
            raise ModelSpecError("likelihood", "every column needs a positive entry")
        if "x" in raw:
            x_labels = tuple(str(v) for v in raw["x"])
            if len(x_labels) != likelihood.shape[1]:
                raise ModelSpecError("x", "label count does not match likelihood columns")

    psi_map_labels = [str(v) for v in raw["psi_map"]]
    if len(psi_map_labels) != n_theta:
        raise ModelSpecError("psi_map", "length does not match theta")
    if "psi" in raw:
        psi_labels = [str(v) for v in raw["psi"]]
        extra = set(psi_map_labels) - set(psi_labels)
        if extra:
            raise ModelSpecError("psi", f"psi_map uses labels not in psi: {sorted(extra)}")
        unused = set(psi_labels) - set(psi_map_labels)
        if unused:
            raise ModelSpecError("psi_map", f"no preimage for psi values: {sorted(unused)}")
    else:
        psi_labels = list(dict.fromkeys(psi_map_labels))
    index = {label: i for i, label in enumerate(psi_labels)}
    psi_map = np.array([index[label] for label in psi_map_labels], dtype=np.intp)

    psi_coords = None
    if "psi_coords" in raw:
        psi_coords = np.asarray(raw["psi_coords"], dtype=float)
        if psi_coords.shape[0] != len(psi_labels):
            raise ModelSpecError("psi_coords", "length does not match psi support")

    return FiniteModel(
        theta_labels=tuple(theta_labels),
        prior=prior,
        likelihood=likelihood,
        psi_map=psi_map,
        psi_labels=tuple(psi_labels),
        theta_coords=theta_coords,
        psi_coords=psi_coords,
        x_labels=x_labels if not callable(likelihood) else None,
        family_spec=family_spec,
    )


def save_model(model: FiniteModel, path: str | Path) -> None:
    """Write a model as a file that loads back field-for-field."""
    doc: dict = {}
    if model.theta_coords is not None:
        coords = np.asarray(model.theta_coords, dtype=float).reshape(model.n_theta, -1)
        doc["theta"] = [
            {"label": lab, "coord": float(coords[i, 0])}
            for i, lab in enumerate(model.theta_labels)
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
        raise ModelSpecError("likelihood", "cannot serialize an anonymous density callback")
    doc["psi"] = list(model.psi_labels)
    doc["psi_map"] = [model.psi_labels[j] for j in model.psi_map]
    if model.psi_coords is not None:
        doc["psi_coords"] = [float(v) for v in np.asarray(model.psi_coords).reshape(-1)]
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
