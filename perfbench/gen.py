"""Seeded benchmark inputs, built with numpy alone.

Nothing here calls sympcoh: the Haar samplers, spectra and states are the
benchmark's own, so a change to the program's samplers cannot change the
inputs.  Every generator takes a ``numpy.random.Generator`` made by
:func:`rng_for` from the benchmark seed and a fixed stream tag.
"""

from __future__ import annotations

import numpy as np

CM_FORMAT = "sympcoh-cm-v1"

#: Stream tags, so each input family has its own independent stream.
TAG_CORPUS, TAG_MC, TAG_CLI, TAG_QUOTA, TAG_TRACE, TAG_PANEL, TAG_GAP = 1, 2, 3, 4, 5, 6, 7
#: Seed of the large-trace panel, the same for every benchmark seed: which of
#: its states get a wrong verdict depends on the program alone, so runs at any
#: seeds agree on the failed count.
PANEL_SEED = 0

#: Corpus shape (state-audit): modes, kinds, traces per m, replicates.
CORPUS_MODES = (1, 2, 4, 8, 16)
CORPUS_KINDS = ("pure", "lossy", "mixed")
LARGE_TRACES = (1e5, 1e8)


def rng_for(seed: int, tag: int, *more: int) -> np.random.Generator:
    """Independent generator for one input family (``SeedSequence`` keyed)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag, *more]))


def program_seed(rng: np.random.Generator) -> int:
    """A seed handed to one sympcoh Monte-Carlo call."""
    return int(rng.integers(0, 2**62))


def haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary by QR of a complex Ginibre matrix with R's phases removed.

    Mezzadri, Notices AMS 54, 592 (2007).
    """
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_orthogonal(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar orthogonal matrix by QR of a real Ginibre matrix with R's signs removed."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    signs = np.sign(np.diagonal(r))
    signs[signs == 0] = 1.0
    return q * signs


def spectrum(E: float, m: int, rng: np.random.Generator) -> np.ndarray:
    """Squeezing spectrum ``d_i >= 1`` with ``sum(d_i + 1/d_i) = E``."""
    g = rng.standard_normal(m)
    w = g * g / float(g @ g)
    x = (E - 2.0 * m) * w
    return 1.0 + x / 2.0 + np.sqrt(x + x * x / 4.0)


def pure_cm(E: float, m: int, rng: np.random.Generator) -> np.ndarray:
    """Pure covariance matrix ``S diag(d, 1/d) S^T`` with trace E, S Haar passive."""
    u = haar_unitary(m, rng)
    x, y = u.real, u.imag
    s = np.block([[x, y], [-y, x]])
    d = spectrum(E, m, rng)
    v = (s * np.concatenate([d, 1.0 / d])) @ s.T
    return 0.5 * (v + v.T)


def lossy_cm(trace: float, m: int, eta: float, rng: np.random.Generator) -> np.ndarray:
    """Pure state sent through loss ``eta``, with the output trace fixed."""
    E = (trace - (1.0 - eta) * 2.0 * m) / eta
    return eta * pure_cm(E, m, rng) + (1.0 - eta) * np.eye(2 * m)


def mixed_cm(trace: float, m: int, rng: np.random.Generator) -> np.ndarray:
    """Equal mixture of two independent pure states of the same trace."""
    return 0.5 * (pure_cm(trace, m, rng) + pure_cm(trace, m, rng))


def msc_cm(E: float, m: int) -> np.ndarray:
    """Maximal-coherence state: mode 1 squeezed and rotated by pi/4, rest vacuum."""
    r = 0.5 * np.arccosh((E - 2.0 * (m - 1)) / 2.0)
    v = np.eye(2 * m)
    v[0, 0] = v[m, m] = np.cosh(2.0 * r)
    v[0, m] = v[m, 0] = -np.sinh(2.0 * r)
    return v


def panel_rng(*more: int) -> np.random.Generator:
    """Generator of the large-trace states (corpus and CLI files), independent of the seed."""
    return rng_for(PANEL_SEED, TAG_PANEL, *more)


def corpus_traces(m: int) -> tuple[float, ...]:
    """Traces of the audit corpus: near the vacuum, moderate, and large."""
    return (2.0 * m + 1.0, 4.0 * m + 8.0, 1e3) + LARGE_TRACES


def corpus(seed: int, replicates: int, large: bool = True) -> list[dict]:
    """Valid states of known purity: pure, lossy and two-component mixed.

    Each entry holds ``id`` (its position), ``kind``, ``m``, ``trace``,
    ``matrix``, ``pure`` (the truth the verdicts are checked against) and
    ``eta`` (the loss the audit applies).  The large-trace states come from
    :func:`panel_rng`, the others from ``seed``.  ``large=False`` leaves out
    the large traces.
    """
    seeded, panel = rng_for(seed, TAG_CORPUS), panel_rng()
    states = []
    for m in CORPUS_MODES:
        for trace in corpus_traces(m):
            if not large and trace in LARGE_TRACES:
                continue
            rng = panel if trace in LARGE_TRACES else seeded
            for kind in CORPUS_KINDS:
                for _ in range(replicates):
                    if kind == "pure":
                        v = pure_cm(trace, m, rng)
                    elif kind == "lossy":
                        v = lossy_cm(trace, m, float(rng.uniform(0.2, 0.9)), rng)
                    else:
                        v = mixed_cm(trace, m, rng)
                    states.append(
                        {
                            "kind": kind,
                            "m": m,
                            "trace": trace,
                            "matrix": v,
                            "pure": kind == "pure",
                            "eta": float(rng.uniform(0.1, 0.9)),
                        }
                    )
    order = seeded.permutation(len(states))
    return [{**states[j], "id": i} for i, j in enumerate(order)]


def cm_doc(v: np.ndarray) -> dict:
    """The program's covariance-matrix JSON document for matrix ``v``."""
    return {
        "format": CM_FORMAT,
        "ordering": "qqpp",
        "hbar": 2,
        "m": v.shape[0] // 2,
        "matrix": v.tolist(),
    }
