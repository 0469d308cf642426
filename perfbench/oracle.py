"""The benchmark's own closed forms and output checks (numpy and math only).

Checks are statistical or closed-form, never bit-exact comparisons of seeded
samples, so a change of the program's RNG stream scheme does not register as
a failure.  A failed check is a :class:`Failure` with a class:

* ``verdict``: the program misclassified or rejected a valid large-trace
  state (trace 1e5 or 1e8) that the benchmark built: a wrong
  validate/is_pure/exact verdict, or a validation or eigen-solve error on
  it.  These are a known defect of the program;
* ``value``: a number disagrees with its closed form or statistical bound,
  or a verdict on any other state is wrong;
* ``error``: the call raised anything else.

``value`` and ``error`` count as failed operations and make the run's
``correct`` false; ``verdict`` is counted as the known defect instead.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

#: Relative tolerance for closed forms evaluated in float64.
RTOL = 1e-9
#: Ensemble means must lie within this many standard errors of the closed form.
NSIGMA = 6.0
#: Wilson interval z for the discrimination error check.
WILSON_Z = 1.96


class Failure(NamedTuple):
    cls: str
    what: str


def close(a: float, b: float, rtol: float = RTOL, atol: float = 1e-12) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def coherence(v: np.ndarray) -> float:
    """``||V_xp||^2`` recomputed from the matrix."""
    m = v.shape[0] // 2
    b = np.asarray(v)[:m, m:]
    return float(np.sum(b * b))


def c_max(E: float, m: int) -> float:
    """``(E - 2m)^2 / 4 + (E - 2m)``."""
    x = E - 2.0 * m
    return x * x / 4.0 + x


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def tvd_exact(var1: float, var2: float) -> float:
    """Total variation distance between N(0, var1) and N(0, var2)."""
    if var1 == var2:
        return 0.0
    x = math.sqrt(var1 * var2 * math.log(var2 / var1) / (var2 - var1))
    return 2.0 * abs(normal_cdf(x / math.sqrt(var1)) - normal_cdf(x / math.sqrt(var2)))


def ensemble_mean(kind: str, m: int, s1: float, s2: float) -> float:
    """Closed-form ensemble mean of the first mode's nu^2."""
    if kind == "orthogonal":
        return 3.0 / (m + 2) + s1 / (2.0 * m * (m + 2))
    return 2.0 / (m + 1) + (s1 + s2) / (4.0 * m * (m + 1))


def wilson(failures: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval of a binomial proportion."""
    p = failures / trials
    denom = 1.0 + z * z / trials
    center = p + z * z / (2.0 * trials)
    margin = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return (center - margin) / denom, (center + margin) / denom


def loss_output_moments(v: np.ndarray, eta: float) -> tuple[float, float]:
    """Mean and variance of the first mode's symmetrized qp after loss ``eta``."""
    m = v.shape[0] // 2
    out = eta * np.asarray(v) + (1.0 - eta) * np.eye(2 * m)
    mu = float(out[0, m])
    nu_sq = float(out[0, 0] * out[m, m] - out[0, m] * out[m, 0])
    return mu, 1.0 + nu_sq + 2.0 * mu * mu


def qfi_displacement(v: np.ndarray) -> float:
    """``2 (V_x + V_p) + 4 |V_xp|`` for one mode."""
    return 2.0 * (v[0, 0] + v[1, 1]) + 4.0 * abs(v[0, 1])


# ---------------------------------------------------------------------------
# Output checks: each returns the list of failures (empty when correct)
# ---------------------------------------------------------------------------


def check_coherence(v: np.ndarray, c: float, hs: float) -> list[Failure]:
    want = coherence(v)
    out = []
    if not close(c, want):
        out.append(Failure("value", f"c={c!r}, oracle {want!r}"))
    if not close(hs, 2.0 * want):
        out.append(Failure("value", f"hs_distance_sq_to_free={hs!r}, oracle {2 * want!r}"))
    return out


def check_relation(v: np.ndarray, c: float, discord: float) -> list[Failure]:
    """``c = (Tr V)^2 D_G / 2`` with both sides against the oracle's c."""
    want = coherence(v)
    tr = float(np.trace(v))
    if close(c, want) and close(tr * tr * discord / 2.0, want):
        return []
    return [Failure("value", f"relation: c={c!r}, (TrV)^2 D_G/2={tr * tr * discord / 2.0!r}, oracle {want!r}")]


def check_loss(v_in: np.ndarray, v_out: np.ndarray, eta: float) -> list[Failure]:
    """Loss scales c by eta^2."""
    want = eta * eta * coherence(v_in)
    got = coherence(v_out)
    if close(got, want):
        return []
    return [Failure("value", f"loss eta={eta}: c_out={got!r}, eta^2 c_in={want!r}")]


def verdict_class(large_trace: bool) -> str:
    """Class of a wrong verdict: ``verdict`` on a large-trace state, else ``value``."""
    return "verdict" if large_trace else "value"


def check_verdict(name: str, got: bool, want: bool, cls: str) -> list[Failure]:
    if got == want:
        return []
    return [Failure(cls, f"{name}: program says {got}, state built {want}")]


def check_search(E: float, m: int, sup_c: float) -> tuple[list[Failure], float]:
    """``sup_c <= c_max`` (plus tolerance); returns the relative gap too."""
    cm = c_max(E, m)
    gap = (cm - sup_c) / cm
    if sup_c > cm * (1.0 + RTOL) + 1e-12:
        return [Failure("value", f"search m={m}: sup_c={sup_c!r} > c_max={cm!r}")], gap
    return [], gap


def check_ensemble(kind: str, m: int, stats: dict) -> tuple[list[Failure], float]:
    """Mean within ``NSIGMA`` standard errors of the closed form; returns n-sigma."""
    want = ensemble_mean(kind, m, stats["s1_hat"], stats["s2_hat"])
    out = []
    if not close(stats["analytic_mean"], want):
        out.append(Failure("value", f"ensemble {kind} m={m}: analytic_mean {stats['analytic_mean']!r}, oracle {want!r}"))
    se = stats["stderr_diff"]
    nsigma = abs(stats["mean_nu_sq"] - want) / se if se > 0 else math.inf
    if not nsigma <= NSIGMA:
        out.append(Failure("value", f"ensemble {kind} m={m}: mean {nsigma:.2f} sigma from closed form"))
    return out, nsigma


def check_discrimination(
    v: np.ndarray, eta1: float, eta2: float, delta: float, report: dict
) -> list[Failure]:
    """Output moments match the closed forms; the error stays under delta at Wilson confidence."""
    out = []
    for i, eta in ((1, eta1), (2, eta2)):
        mu, var = loss_output_moments(v, eta)
        if not (close(report[f"mu{i}"], mu) and close(report[f"var{i}"], var)):
            out.append(Failure("value", f"discrimination channel {i}: moments differ from closed form"))
    trials = report["trials"]
    failures = round(report["empirical_error"] * trials)
    lo, hi = wilson(failures, trials)
    if not close(report["error_wilson_upper"], hi):
        out.append(Failure("value", f"discrimination: Wilson upper {report['error_wilson_upper']!r}, oracle {hi!r}"))
    if lo > delta:
        out.append(Failure("value", f"discrimination: error {report['empirical_error']} exceeds delta={delta} (Wilson lower {lo:.4f})"))
    return out
