"""Independent reference implementations used as test oracles.

Everything here is written as plain scalar loops or brute force, on purpose:
these are second implementations kept deliberately separate from the library
code paths they check.
"""

import math

import numpy as np

from farsa import DatasetFormatError


def dense_matvec(dense, x):
    """Triple-checked row-by-row dense product."""
    m, n = dense.shape
    out = np.zeros(m)
    for i in range(m):
        acc = 0.0
        for j in range(n):
            acc += dense[i, j] * x[j]
        out[i] = acc
    return out


def dense_matvec_transpose(dense, x):
    m, n = dense.shape
    out = np.zeros(n)
    for j in range(n):
        acc = 0.0
        for i in range(m):
            acc += dense[i, j] * x[i]
        out[j] = acc
    return out


def _floats(v):
    """Python floats (IEEE doubles, as float64) for fast scalar loops."""
    return np.asarray(v, dtype=float).tolist()


def beta_scalar(x, g, lam):
    """Straight-line transcription of the zero-variable measure case table."""
    x, g = _floats(x), _floats(g)
    out = np.zeros(len(x))
    for i in range(len(x)):
        if x[i] == 0.0 and g[i] + lam < 0.0:
            out[i] = g[i] + lam
        elif x[i] == 0.0 and g[i] - lam > 0.0:
            out[i] = g[i] - lam
        else:
            out[i] = 0.0
    return out


def phi_scalar(x, g, lam):
    """Straight-line transcription of the nonzero-variable measure case table."""
    x, g = _floats(x), _floats(g)
    out = np.zeros(len(x))
    for i in range(len(x)):
        if x[i] == 0.0:
            out[i] = 0.0
        elif x[i] > 0.0 and g[i] + lam > 0.0:
            out[i] = min(g[i] + lam, max(x[i], g[i] - lam))
        elif x[i] < 0.0 and g[i] - lam < 0.0:
            out[i] = max(g[i] - lam, min(x[i], g[i] + lam))
        else:
            sgn = 1.0 if x[i] > 0.0 else -1.0
            out[i] = g[i] + lam * sgn
    return out


def shrink_step_scalar(x, g, lam):
    """Straight-line transcription of the unit-step shrink displacement."""
    x, g = _floats(x), _floats(g)
    out = np.zeros(len(x))
    for i in range(len(x)):
        u = x[i] - g[i]
        if u < -lam:
            out[i] = -g[i] + lam
        elif u > lam:
            out[i] = -g[i] - lam
        else:
            out[i] = -x[i]
    return out


def model_decrease(g, d, hvp):
    """Reduced quadratic model m(d) = g^T d + 0.5 d^T H d, so m(0) = 0."""
    g = np.asarray(g, dtype=float)
    d = np.asarray(d, dtype=float)
    return float(g @ d) + 0.5 * float(d @ hvp(d))


def reference_direction(g, hvp):
    """Exact minimizer of the model along -g: d = -alpha*g, alpha = ||g||^2 / g^T H g."""
    g = np.asarray(g, dtype=float)
    # pairwise sums, as the CG solver's reductions are, so the exact
    # comparisons with its first iterate hold to the last bit
    curvature = float(np.add.reduce(g * hvp(g)))
    if curvature <= 0.0:
        raise ArithmeticError(f"oracle not positive definite: g^T H g = {curvature}")
    alpha = float(np.add.reduce(g * g)) / curvature
    return -alpha * g, alpha


def accept_direction(g, dbar, d_ref, hvp):
    """Direction acceptance: g^T dbar <= g^T d_ref and m(dbar) <= m(0) = 0, exactly."""
    g = np.asarray(g, dtype=float)
    return bool(g @ dbar <= g @ d_ref) and model_decrease(g, dbar, hvp) <= 0.0


def logistic_value_naive(dense, labels, x):
    """Unstabilized sum-form logistic loss; only safe at moderate margins."""
    total = 0.0
    for i in range(dense.shape[0]):
        margin = labels[i] * float(dense[i] @ x)
        total += math.log(1.0 + math.exp(-margin))
    return total


def fd_gradient(value, x, rel_step=1e-6):
    """Central finite differences with per-coordinate step h*(1+|x_i|)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        h = rel_step * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (value(xp) - value(xm)) / (2.0 * h)
    return out


def fd_hessian(gradient, x, step=1e-6):
    """Dense Hessian from central differences of the gradient."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((n, n))
    for j in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        out[:, j] = (gradient(xp) - gradient(xm)) / (2.0 * step)
    return 0.5 * (out + out.T)


def random_sparse_dense(rng, m, n, density=0.4, scale=1.0):
    """Random dense matrix with exact zeros where the mask is off."""
    mask = rng.random((m, n)) < density
    dense = np.where(mask, rng.normal(scale=scale, size=(m, n)), 0.0)
    return dense


def random_measure_triples(rng, n, zero_fraction=0.35):
    """Random (x, g, lam) with a mix of exact zeros and both signs in x."""
    x = rng.normal(scale=3.0, size=n)
    x[rng.random(n) < zero_fraction] = 0.0
    g = rng.normal(scale=3.0, size=n)
    lam = float(rng.uniform(0.05, 2.0))
    return x, g, lam


def parse_libsvm_scalar(lines, normalize_labels=True):
    """Token-by-token LIBSVM parse: (labels, row_offsets, col_indices, values, n_cols).

    Raises DatasetFormatError with the first offending line's number and
    the same message the library gives.
    """
    labels, values, col_indices, row_offsets = [], [], [], [0]
    max_col = -1
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            raw_label = float(tokens[0])
        except ValueError:
            raise DatasetFormatError(
                f"line {line_no}: malformed label token {tokens[0]!r}"
            ) from None
        if normalize_labels:
            if raw_label == 1.0:
                raw_label = 1.0
            elif raw_label == -1.0 or raw_label == 0.0:
                raw_label = -1.0
            else:
                raise DatasetFormatError(
                    f"line {line_no}: unknown label {raw_label!r} (expected +1, 1, -1, or 0)"
                )
        labels.append(raw_label)
        prev_col = -1
        for token in tokens[1:]:
            idx_text, sep, val_text = token.partition(":")
            if not sep:
                raise DatasetFormatError(
                    f"line {line_no}: malformed feature token {token!r}"
                )
            try:
                col = int(idx_text)
                val = float(val_text)
            except ValueError:
                raise DatasetFormatError(
                    f"line {line_no}: malformed feature token {token!r}"
                ) from None
            if col < 1:
                raise DatasetFormatError(
                    f"line {line_no}: feature index {col} is not 1-based"
                )
            if col > 2**63 - 1:
                raise DatasetFormatError(
                    f"line {line_no}: feature index {col} is too large"
                )
            col -= 1
            if col <= prev_col:
                raise DatasetFormatError(
                    f"line {line_no}: feature indices not strictly increasing at {token!r}"
                )
            if not math.isfinite(val):
                raise DatasetFormatError(
                    f"line {line_no}: non-finite feature value in {token!r}"
                )
            prev_col = col
            col_indices.append(col)
            values.append(val)
        max_col = max(max_col, prev_col)
        row_offsets.append(len(values))
    return (
        np.array(labels, dtype=np.float64),
        np.array(row_offsets, dtype=np.int64),
        np.array(col_indices, dtype=np.int64),
        np.array(values, dtype=np.float64),
        max_col + 1,
    )
