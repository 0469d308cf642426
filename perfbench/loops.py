"""In-process loops of the workloads, run inside the program process.

Imported by ``worker.py`` after it has timed ``import sympcoh``.  Every call
into sympcoh goes through ``t.call(name, fn, *args)``, where ``t`` is a
:class:`trace.Direct` (untraced) or a :class:`trace.Tracer`; ``name`` is the
module and function called.  Outputs are checked against :mod:`oracle`
after the timed region of each unit.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from dataclasses import asdict
from time import perf_counter

import numpy as np
from sympcoh import (
    applications,
    cli,
    coherence,
    discord_map,
    ensembles,
    gaussian_core,
    symplectic_ops,
)

import gen
import oracle
import ref
import script
import stats
import trace
from oracle import Failure
from stats import Tally

ENS_MODES = (2, 8)
SEARCH_MODES = (2, 4, 8)
SHOTS = 200
DELTA = 0.05
LOSS = 0.5
#: Monte-Carlo sizes: the mc-drivers workload, and the quota slices other workloads run.
MAIN = {"ens_n": 250, "trials": 200, "disc_trials": 1000}
QUOTA = {"ens_n": 120, "trials": 30, "disc_trials": 200}
SMOKE = {"ens_n": 40, "trials": 10, "disc_trials": 50}
#: Corpus replicates per (m, trace, kind), and states per audit quota slice.
REPLICATES = 8
AUDIT_SLICE = 100
#: Steps of the workload run on each side (traced, untraced) of a traced run.
TRACE_STEPS = 6
#: Searches per m (at the mc-drivers trial count) of the panel behind ``search_gap_rel``.
GAP_SEARCHES = 64


def search_energy(m: int) -> float:
    return 4.0 * m + 8.0


#: Errors that, raised on a state the benchmark built valid, are a wrong verdict.
VERDICT_ERRORS = (gaussian_core.ValidationError, gaussian_core.NumericError)


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------


def audit_state(t, st: dict) -> tuple[float, list[Failure], bool]:
    """The read side on one state: validity, purity, spectrum, measures, loss.

    Returns the wall, the failures and whether any verdict was wrong.  A wrong
    verdict is of class ``verdict`` on the large-trace states, where it is a
    known defect, and of class ``value`` on every other state.
    """
    v, m, eta = st["matrix"], st["m"], st["eta"]
    vcls = oracle.verdict_class(st["trace"] in gen.LARGE_TRACES)
    res: dict = {}

    def step(key, name, fn, *args):
        try:
            res[key] = t.call(name, fn, *args)
        except Exception as exc:  # recorded and checked below
            res[key] = exc

    start = perf_counter()
    with t.span("unit.audit"):
        step("cov", "gaussian_core.CovMat", gaussian_core.CovMat, v)
        cov = res["cov"]
        if not isinstance(cov, Exception):
            step("validate", "gaussian_core.validate", gaussian_core.validate, cov)
            step("is_pure", "gaussian_core.is_pure", gaussian_core.is_pure, cov)
            step("nu", "gaussian_core.symplectic_eigenvalues", gaussian_core.symplectic_eigenvalues, cov)
            step("report", "coherence.coherence_report", coherence.coherence_report, cov)
            step("image", "discord_map.to_density", discord_map.to_density, cov)
            if not isinstance(res["image"], Exception):
                step("discord", "discord_map.geometric_discord", discord_map.geometric_discord, res["image"])
            step("relation", "discord_map.coherence_discord_relation_check",
                 discord_map.coherence_discord_relation_check, cov)
            step("loss", "symplectic_ops.apply_loss", symplectic_ops.apply_loss, cov, eta)
            if m == 1:
                step("qfi", "applications.qfi_displacement", applications.qfi_displacement, cov)
    wall = perf_counter() - start

    errors = [x for x in res.values() if isinstance(x, Exception)]
    wrong = [Failure(vcls, f"{type(x).__name__}: {x}") for x in errors if isinstance(x, VERDICT_ERRORS)]
    fails = [Failure("error", f"{type(x).__name__}: {x}") for x in errors if not isinstance(x, VERDICT_ERRORS)]
    ok = {k: x for k, x in res.items() if not isinstance(x, Exception)}
    if "validate" in ok:
        wrong += oracle.check_verdict("validate", not ok["validate"], True, vcls)
    if "is_pure" in ok:
        wrong += oracle.check_verdict("is_pure", ok["is_pure"], st["pure"], vcls)
    if "qfi" in ok:
        wrong += oracle.check_verdict("qfi exact", ok["qfi"].exact, st["pure"], vcls)
    if "report" in ok:
        fails += oracle.check_coherence(v, ok["report"].coherence, ok["report"].hs_distance_sq_to_free)
    if "relation" in ok:
        discord = ok["discord"] if "discord" in ok else ok["relation"].discord
        fails += oracle.check_relation(v, ok["relation"].coherence, discord)
    if "loss" in ok:
        fails += oracle.check_loss(v, ok["loss"].matrix, eta)
    if "qfi" in ok:
        if not oracle.close(ok["qfi"].value, oracle.qfi_displacement(v)):
            fails.append(Failure("value", "qfi differs from the closed form"))
    return wall, fails + wrong, bool(wrong)


def ensemble_unit(t, tally: Tally, kind: str, m: int, n: int, seed: int) -> float:
    cell = f"{kind}.m{m}"
    start = perf_counter()
    try:
        cfg = t.call("ensembles.EnsembleConfig", ensembles.EnsembleConfig, m, search_energy(m), n, seed, kind)
        result = t.call("ensembles.ensemble_nu_sq", ensembles.ensemble_nu_sq, cfg, cell=cell)
    except Exception as exc:
        wall = perf_counter() - start
        tally.unit("ensemble", f"ensemble:{cell}", wall, n, [Failure("error", repr(exc))])
        return wall
    wall = perf_counter() - start
    tally.unit("ensemble", f"ensemble:{cell}", wall, n, oracle.check_ensemble(kind, m, asdict(result))[0])
    return wall


def search_unit(t, tally: Tally, m: int, trials: int, seed: int) -> float:
    E = search_energy(m)
    start = perf_counter()
    try:
        out = t.call("coherence.numeric_max_search", coherence.numeric_max_search, E, m, trials, seed, cell=f"m{m}")
    except Exception as exc:
        wall = perf_counter() - start
        tally.unit("search", f"search:m{m}", wall, trials, [Failure("error", repr(exc))])
        return wall
    wall = perf_counter() - start
    fails, gap = oracle.check_search(E, m, out.sup_c)
    tally.gaps.setdefault(m, []).append(gap)
    tally.unit("search", f"search:m{m}", wall, trials, fails)
    return wall


def disc_unit(t, tally: Tally, probe_v: np.ndarray, trials: int, seed: int) -> float:
    start = perf_counter()
    try:
        probe = t.call("gaussian_core.GaussianState", gaussian_core.GaussianState,
                       t.call("gaussian_core.CovMat", gaussian_core.CovMat, probe_v))
        channels = (t.call("symplectic_ops.LossChannel", symplectic_ops.LossChannel, LOSS),
                    t.call("symplectic_ops.IdentityChannel", symplectic_ops.IdentityChannel))
        cfg = t.call("applications.DiscriminationConfig", applications.DiscriminationConfig,
                     probe, channels, DELTA, SHOTS, trials, seed)
        report = t.call("applications.run_discrimination", applications.run_discrimination, cfg)
    except Exception as exc:
        wall = perf_counter() - start
        tally.unit("disc", "disc", wall, trials * SHOTS, [Failure("error", repr(exc))])
        return wall
    wall = perf_counter() - start
    tally.unit("disc", "disc", wall, trials * SHOTS,
               oracle.check_discrimination(probe_v, LOSS, 1.0, DELTA, asdict(report)))
    return wall


def cli_call(t, argv: list[str], sub: str, stdin_text: str | None = None) -> tuple[int, str]:
    """``sympcoh.cli.main(argv)`` in this process, stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = t.call("cli.main", cli.main, argv, cell=sub)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


def mc_pass(t, tally: Tally, rng: np.random.Generator, sizes: dict) -> float:
    """One pass over the Monte-Carlo cells; returns the time spent in the program's calls."""
    total = 0.0
    for kind in ensembles.KINDS:
        for m in ENS_MODES:
            tally.tick()
            total += ensemble_unit(t, tally, kind, m, sizes["ens_n"], gen.program_seed(rng))
    for m in SEARCH_MODES:
        tally.tick()
        total += search_unit(t, tally, m, sizes["trials"], gen.program_seed(rng))
    tally.tick()
    probe = gen.msc_cm(float(rng.uniform(8.0, 16.0)), 2)
    return total + disc_unit(t, tally, probe, sizes["disc_trials"], gen.program_seed(rng))


def audit_states(t, tally: Tally, states: list[dict]) -> float:
    """Audit each state; return the time spent in the program's calls."""
    total = 0.0
    for st in states:
        tally.tick()
        wall, fails, wrong = audit_state(t, st)
        key = f"state:{st['id']}"
        if wrong:
            tally.wrong_verdicts.add(key)
        tally.unit("states", key, wall, 1, fails)
        total += wall
    return total


def gap_panel(seed: int, smoke: bool) -> Tally:
    """Untimed searches that ``search_gap_rel`` is taken from, the same for every workload.

    A fixed number per m, from their own seeded stream, so the metric does
    not depend on how many timed searches fit into a run.
    """
    tally, rng = Tally(), gen.rng_for(seed, gen.TAG_GAP)
    n, trials = (2, SMOKE["trials"]) if smoke else (GAP_SEARCHES, MAIN["trials"])
    for _ in range(n):
        for m in SEARCH_MODES:
            search_unit(trace.Direct(), tally, m, trials, gen.program_seed(rng))
    return tally


class Workload:
    """A workload's inputs and its step: one main block, then its quota slice.

    The main block is one invocation: a pass over every Monte-Carlo cell
    (mc-drivers) or over the whole corpus (state-audit).

    The quota is in-process work of the kinds the main block does not do, so
    that every end-to-end metric is measured on every workload; interleaving
    it with the main blocks spreads both over the whole run.
    """

    def __init__(self, name: str, seed: int, smoke: bool):
        self.name = name
        self.states = gen.corpus(seed, 1 if smoke else REPLICATES, large=not smoke)
        self.main_sizes, self.quota_sizes = (SMOKE, SMOKE) if smoke else (MAIN, QUOTA)
        self.main_rng = gen.rng_for(seed, gen.TAG_MC)
        self.quota_rng = gen.rng_for(seed, gen.TAG_QUOTA)
        self._next = 0
        #: Steps after which every corpus state and Monte-Carlo cell has run.
        self.cover_steps = 1 if name == "state-audit" else -(-len(self.states) // AUDIT_SLICE)

    def corpus_slice(self, n: int) -> list[dict]:
        """The next ``n`` corpus states, cycling."""
        idx = [(self._next + i) % len(self.states) for i in range(n)]
        self._next = (self._next + n) % len(self.states)
        return [self.states[i] for i in idx]

    def step(self, t, tally: Tally) -> None:
        """One main block, whose program time is the invocation wall, then the quota."""
        before = sum(tally.scaled.values())
        if self.name == "mc-drivers":
            tally.wall(mc_pass(t, tally, self.main_rng, self.main_sizes), sum(tally.scaled.values()) - before)
            audit_states(t, tally, self.corpus_slice(AUDIT_SLICE))
        elif self.name == "state-audit":
            tally.wall(audit_states(t, tally, self.corpus_slice(len(self.states))), sum(tally.scaled.values()) - before)
            mc_pass(t, tally, self.quota_rng, self.quota_sizes)
        else:  # cli-cold: the quota slice run after each cold CLI process
            mc_pass(t, tally, self.quota_rng, self.quota_sizes)
            audit_states(t, tally, self.corpus_slice(AUDIT_SLICE))


def cli_cycle(t, tally: Tally, cmds: list[script.Command]) -> None:
    """One cycle of the CLI script through in-process ``main(argv)`` calls."""
    outputs: list[str] = []
    for i, cmd in enumerate(cmds):
        stdin_text = outputs[cmd.stdin_from] if cmd.stdin_from is not None else None
        start = perf_counter()
        try:
            code, text = cli_call(t, cmd.argv, cmd.sub, stdin_text)
            fails = cmd.check(code, script.envelope(text))
        except Exception as exc:
            text, fails = "", [Failure("error", repr(exc))]
        outputs.append(text)
        tally.unit("cli", f"cli:{i}", perf_counter() - start, 1, fails)


# ---------------------------------------------------------------------------
# Untraced run
# ---------------------------------------------------------------------------


def serve(job: dict) -> dict:
    """One workload step per ``step`` line on stdin, until ``end``.

    The runner decides when to stop, and runs the cold CLI processes (cli-cold)
    and the import probes between steps.  This process blocks on stdin
    meanwhile, so only one program process runs at a time.
    """
    wl, t = Workload(job["workload"], job["seed"], job["smoke"]), trace.Direct()
    gaps = gap_panel(job["seed"], job["smoke"])
    sampler = ref.Sampler()
    tally = Tally(sampler)
    tally.absorb_checks(gaps)
    print(json.dumps({"ready": True, "cover_steps": wl.cover_steps}), flush=True)
    steps = 0
    for line in sys.stdin:
        if line.strip() != "step":
            break
        wl.step(t, tally)
        steps += 1
        print("ok", flush=True)
    return {**tally.summary(), "search_gap_rel": gaps.summary()["search_gap_rel"], "steps": steps,
            "corpus_states": len(wl.states), "ref_s": sampler.samples}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _median_us(tr: trace.Tracer, name: str, cell=None, since=0, per: float = 1.0) -> float:
    return stats.median(tr.durations(name, cell, since)) * 1e6 / per


def _quiet(fn, *args):
    """Call ``fn``; an exception still leaves its span, the value is None."""
    try:
        return fn(*args)
    except VERDICT_ERRORS:
        return None


def micro(tr: trace.Tracer, seed: int, states: list[dict], cmds, workdir: str, smoke: bool) -> dict:
    """Per-layer metrics: each public function replayed on its cell's inputs."""
    first = len(tr.spans)
    rng = gen.rng_for(seed, gen.TAG_TRACE)
    reps = 20 if smoke else 200
    out: dict[str, float] = {}

    def us(name, cell=None, per=1.0):
        return _median_us(tr, name, cell, first, per)

    # gaussian_core, per mode count, on the whole corpus
    covs = {m: [gaussian_core.CovMat(s["matrix"]) for s in states if s["m"] == m] for m in gen.CORPUS_MODES}
    small = {m: [gaussian_core.CovMat(s["matrix"]) for s in states if s["m"] == m
                 and s["trace"] not in gen.LARGE_TRACES] for m in gen.CORPUS_MODES}
    for m, group in covs.items():
        for cov in group:
            tr.call("gaussian_core.validate", gaussian_core.validate, cov, cell=f"m{m}")
            tr.call("gaussian_core.is_pure", _quiet, gaussian_core.is_pure, cov, cell=f"m{m}")
            tr.call("gaussian_core.symplectic_eigenvalues", _quiet, gaussian_core.symplectic_eigenvalues,
                    cov, cell=f"m{m}")
        for fn in ("validate", "symplectic_eigenvalues", "is_pure"):
            out[f"gaussian_core.{fn}_us.m{m}"] = us(f"gaussian_core.{fn}", f"m{m}")
    paths = []
    for i, cov in enumerate(small[4][:4]):
        paths.append(os.path.join(workdir, f"load{i}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(gen.cm_doc(cov.matrix), fh)
    for _ in range(max(1, reps // 8)):
        for p in paths:
            tr.call("gaussian_core.load_state", gaussian_core.load_state, p, cell="m4")
    out["gaussian_core.load_state_us"] = us("gaussian_core.load_state", "m4")
    verdicts = Tally()
    audit_states(trace.Direct(), verdicts, states)
    out["gaussian_core.wrong_verdicts"] = len(verdicts.wrong_verdicts)

    # symplectic_ops
    s0 = gen.program_seed(rng)
    for i in range(reps):
        tr.call("symplectic_ops.derive_rng", symplectic_ops.derive_rng, s0, i)
    out["symplectic_ops.derive_rng_us"] = us("symplectic_ops.derive_rng")
    g = np.random.default_rng(gen.program_seed(rng))
    for m in SEARCH_MODES:
        for _ in range(reps):
            tr.call("symplectic_ops.haar_unitary", symplectic_ops.haar_unitary, m, g, cell=f"m{m}")
        out[f"symplectic_ops.haar_unitary_us.m{m}"] = us("symplectic_ops.haar_unitary", f"m{m}")
        batch = 50 if smoke else 1000
        for _ in range(3):
            tr.call("symplectic_ops.haar_unitary_batch", symplectic_ops.haar_unitary_batch, m, batch, g,
                    cell=f"m{m}")
        out[f"symplectic_ops.haar_unitary_batch_us.m{m}"] = us(
            "symplectic_ops.haar_unitary_batch", f"m{m}", per=batch)
    for m in ENS_MODES:
        for _ in range(reps):
            tr.call("symplectic_ops.haar_orthogonal", symplectic_ops.haar_orthogonal, m, g, cell=f"m{m}")
        out[f"symplectic_ops.haar_orthogonal_us.m{m}"] = us("symplectic_ops.haar_orthogonal", f"m{m}")
    for cov in covs[4]:
        tr.call("symplectic_ops.apply_loss", symplectic_ops.apply_loss, cov, LOSS, cell="m4")
    out["symplectic_ops.apply_loss_us"] = us("symplectic_ops.apply_loss", "m4")
    n_overlap = 100 if smoke else 1000
    samples = []
    for s in (s0, s0 + 1):
        cfg = ensembles.EnsembleConfig(2, search_energy(2), n_overlap, s, "unitary")
        samples.append(tr.call("ensembles.ensemble_nu_sq", ensembles.ensemble_nu_sq, cfg, True,
                               cell="overlap")[1])
    seen = set(samples[0].tolist())
    out["symplectic_ops.stream_overlap"] = sum(x in seen for x in samples[1].tolist())

    # ensembles
    for m in SEARCH_MODES:
        for _ in range(reps):
            tr.call("ensembles.sample_d", ensembles.sample_d, search_energy(m), m, g, cell=f"m{m}")
        out[f"ensembles.sample_d_us.m{m}"] = us("ensembles.sample_d", f"m{m}")
    for m in ENS_MODES:
        for _ in range(reps):
            u = gen.haar_unitary(m, rng)
            d = gen.spectrum(search_energy(m), m, rng)
            tr.call("ensembles.pure_cm_from_passive", ensembles.pure_cm_from_passive, u.real, u.imag, d,
                    cell=f"m{m}")
        out[f"ensembles.pure_cm_from_passive_us.m{m}"] = us("ensembles.pure_cm_from_passive", f"m{m}")
    nsig = []
    n_ens = 40 if smoke else 300
    for kind in ensembles.KINDS:
        for m in ENS_MODES:
            for _ in range(2):
                cfg = ensembles.EnsembleConfig(m, search_energy(m), n_ens, gen.program_seed(rng), kind)
                res = tr.call("ensembles.ensemble_nu_sq", ensembles.ensemble_nu_sq, cfg, cell=f"{kind}.m{m}")
                nsig.append(oracle.check_ensemble(kind, m, asdict(res))[1])
            out[f"ensembles.us_per_sample.{kind}.m{m}"] = us("ensembles.ensemble_nu_sq", f"{kind}.m{m}", per=n_ens)
    out["ensembles.max_nsigma"] = max(nsig)

    # coherence
    for cov in covs[4]:
        tr.call("coherence.symplectic_coherence", coherence.symplectic_coherence, cov, cell="m4")
        tr.call("coherence.coherence_report", coherence.coherence_report, cov, cell="m4")
    out["coherence.symplectic_coherence_us"] = us("coherence.symplectic_coherence", "m4")
    out["coherence.coherence_report_us"] = us("coherence.coherence_report", "m4")
    n_trials = 20 if smoke else 1000
    for m in SEARCH_MODES:
        E = search_energy(m)
        for _ in range(5):
            tr.call("coherence.numeric_max_search", coherence.numeric_max_search, E, m, 1,
                    gen.program_seed(rng), cell=f"fixed.m{m}")
        gains = []
        for _ in range(3):
            res = tr.call("coherence.numeric_max_search", coherence.numeric_max_search, E, m, n_trials,
                          gen.program_seed(rng), cell=f"n.m{m}")
            gains.append((res.argmax["refined_coherence"] - res.argmax["sample_coherence"]) / oracle.c_max(E, m))
        fixed = stats.median(tr.durations("coherence.numeric_max_search", f"fixed.m{m}", first))
        full = stats.median(tr.durations("coherence.numeric_max_search", f"n.m{m}", first))
        out[f"coherence.search_fixed_s.m{m}"] = fixed
        out[f"coherence.search_us_per_trial.m{m}"] = (full - fixed) / (n_trials - 1) * 1e6
        out[f"coherence.refine_gain_rel.m{m}"] = float(np.mean(gains))

    # discord_map
    residuals = []
    for cov in small[4]:
        tr.call("discord_map.to_density", discord_map.to_density, cov, cell="m4")
    for group in small.values():
        for cov in group:
            rel = tr.call("discord_map.coherence_discord_relation_check",
                          discord_map.coherence_discord_relation_check, cov, cell=f"m{cov.m}")
            residuals.append(rel.residual / max(1.0, rel.coherence))
    out["discord_map.to_density_us"] = us("discord_map.to_density", "m4")
    out["discord_map.relation_check_us"] = us("discord_map.coherence_discord_relation_check", "m4")
    out["discord_map.max_relation_residual"] = max(residuals)

    # applications
    for _ in range(reps):
        tr.call("applications.median_of_means", applications.median_of_means, rng.normal(size=SHOTS), DELTA)
    out["applications.median_of_means_us"] = us("applications.median_of_means")
    n_disc = 50 if smoke else 500
    probe = gaussian_core.GaussianState(gaussian_core.CovMat(gen.msc_cm(12.0, 2)))
    channels = (symplectic_ops.LossChannel(LOSS), symplectic_ops.IdentityChannel())
    for _ in range(2):
        cfg = applications.DiscriminationConfig(probe, channels, DELTA, SHOTS, n_disc, gen.program_seed(rng))
        tr.call("applications.run_discrimination", applications.run_discrimination, cfg)
    out["applications.disc_us_per_trial"] = us("applications.run_discrimination", per=n_disc)
    for cov in small[1]:
        tr.call("applications.qfi_displacement", applications.qfi_displacement, cov, cell="m1")
    out["applications.qfi_displacement_us"] = us("applications.qfi_displacement", "m1")
    for v1, v2 in rng.uniform(0.5, 4.0, size=(reps, 2)):
        tr.call("applications.tvd_exact_zero_mean_normals", applications.tvd_exact_zero_mean_normals,
                float(v1), float(v2))
    out["applications.tvd_exact_us"] = us("applications.tvd_exact_zero_mean_normals")

    # cli: in-process main(argv) per subcommand, import excluded
    first_of = {}
    for i, cmd in enumerate(cmds):
        if cmd.stdin_from is None:
            first_of.setdefault(cmd.sub, cmd)
    for _ in range(3):
        for sub, cmd in first_of.items():
            cli_call(tr, cmd.argv, sub)
    for sub in first_of:
        out[f"cli.main_us.{sub}"] = us("cli.main", sub)
    return out


def trace_run(job: dict) -> dict:
    """The traced run: the workload traced and untraced, then the micro-loops.

    Traced and untraced steps alternate (ABBA...) on two copies of the same
    inputs, so a drift in machine speed falls on both and their time
    difference is the tracing overhead.
    """
    seed, workload, smoke, workdir = job["seed"], job["workload"], job["smoke"], job["workdir"]
    cmds = script.build(workdir, seed, large=not smoke)
    tr = trace.Tracer()
    sides = {
        "traced": (tr, Workload(workload, seed, smoke), Tally()),
        "untraced": (trace.Direct(), Workload(workload, seed, smoke), Tally()),
    }
    wall = {"traced": 0.0, "untraced": 0.0}
    for i in range(max(TRACE_STEPS, sides["traced"][1].cover_steps)):
        for side in ("traced", "untraced") if i % 2 == 0 else ("untraced", "traced"):
            t, wl, tally = sides[side]
            start = perf_counter()
            if workload == "cli-cold":
                cli_cycle(t, tally, cmds)
            wl.step(t, tally)
            wall[side] += perf_counter() - start
    loop_spans = len(tr.spans)
    shares = trace.self_time_shares(tr.spans, 0, wall["traced"])
    counts = trace.call_counts(tr.spans[:loop_spans], 0)
    metrics = micro(tr, seed, sides["traced"][1].states, cmds, workdir, smoke)
    tr.write(job["spans_path"])
    tally = sides["traced"][2]
    overhead = wall["traced"] - wall["untraced"]
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "known_defect": tally.known_defect,
        "by_class": dict(tally.by_class),
        "examples": tally.examples,
        "metrics": metrics,
        "self_time_share": shares,
        "call_counts": counts,
        "loop_wall_s": wall,
        "tracing_overhead_s": overhead,
        "tracing_overhead_rel": overhead / wall["untraced"],
        "spans": len(tr.spans),
    }
