"""Benchmark runner for sympcoh.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is the working tree (``src/``,
put on ``PYTHONPATH``), not an installed copy.  Load shape: one closed-loop
client; the next call or process starts only after the previous one
returns, and at most one program process runs at a time.

With ``--trace 0`` the last line of stdout is one JSON object holding every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it holds every
per-layer metric, taken from spans around the benchmark's calls into the
program.  Each run also writes a result file with an environment manifest
under ``perfbench/results/`` (smoke runs: ``perfbench/_work/smoke-results/``).  ``--workload all`` runs every workload in
turn and ends with one JSON object keyed by workload.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from importlib import metadata
from time import perf_counter

import ref
import script
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "_work")
SMOKE_RESULTS = os.path.join(WORK, "smoke-results")
WORKLOADS = ("cli-cold", "mc-drivers", "state-audit")
#: Fresh processes that only time the import, spread evenly over the measured
#: time of a run (plus the worker's own import).
SETUP_PROBES = 4
PROC_TIMEOUT = 120
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NOTES = {
    "load_shape": "closed loop, one client; at most one program process at a time",
    "bytecode": "written to __pycache__ by the untimed warm-up invocation and reused",
    "machine": "no machine setting was changed: no CPU pinning, no governor change, no cache drop",
    "waiting": "the program runs in one process per call chain, so no time is spent "
    "waiting for another process; waited time is not reported",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """PYTHONPATH=src, bytecode caching on, and BLAS threads bounded by nproc."""
    env = os.environ.copy()
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        try:
            want = int(env.get(var, nproc()))
        except ValueError:
            want = nproc()
        env[var] = str(max(1, min(want, nproc())))
    return env


ENV = child_env()


def spawn(argv: list[str], stdin: str | None = None) -> tuple[int, str, str, float]:
    """Run one program process to completion; return code, stdout, stderr, wall."""
    start = perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=ENV,
        text=True,
    )
    try:
        out, err = proc.communicate(stdin, timeout=PROC_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out, err, perf_counter() - start


def import_probe(module: str) -> float:
    """Wall time of ``import module`` inside a fresh interpreter."""
    code = f"import time; s = time.perf_counter(); import {module}; print(time.perf_counter() - s)"
    rc, out, err, _ = spawn([sys.executable, "-c", code])
    if rc != 0:
        raise RuntimeError(f"import {module} failed:\n{err}")
    return float(out.strip())


def peak_rss_mib() -> float:
    """Largest peak RSS of any child process that has ended so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def worker_argv(job: dict, workdir: str) -> list[str]:
    """Command line of a worker process for ``job``, written to ``workdir``."""
    path = os.path.join(workdir, "job.json")
    with open(path, "w") as fh:
        json.dump(job, fh)
    return [sys.executable, os.path.join(HERE, "worker.py"), path]


def run_worker(job: dict, workdir: str) -> dict:
    rc, out, err, _ = spawn(worker_argv(job, workdir))
    if rc != 0:
        raise RuntimeError(f"worker failed ({rc}):\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def manifest() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # a bare checkout is no repository
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "nproc": nproc(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "blas_threads": {var: ENV[var] for var in BLAS_VARS},
        **NOTES,
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------


class Worker:
    """The workload's program process: runs one workload step per request."""

    def __init__(self, job: dict, workdir: str):
        self._stderr = open(os.path.join(workdir, "worker.stderr"), "w+")
        self.proc = subprocess.Popen(
            worker_argv(job, workdir),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            cwd=ROOT, env=ENV, text=True,
        )
        try:
            ready = json.loads(self._expect('{"ready": true'))
        except (RuntimeError, json.JSONDecodeError):
            self.close()
            raise
        #: Steps after which every operation of the worker has run at least once.
        self.cover_steps = ready["cover_steps"]

    def _expect(self, want: str) -> str:
        """The worker's next line, which must start with ``want``."""
        line = self.proc.stdout.readline().strip()
        if not line.startswith(want):
            self._stderr.seek(0)
            raise RuntimeError(f"worker said {line!r}, expected {want!r}:\n{self._stderr.read()[-4000:]}")
        return line

    def step(self) -> None:
        self.proc.stdin.write("step\n")
        self.proc.stdin.flush()
        self._expect("ok")

    def finish(self) -> dict:
        out, _ = self.proc.communicate("end\n", timeout=PROC_TIMEOUT)
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker failed ({self.proc.returncode})")
        return json.loads(out.strip().splitlines()[-1])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._stderr.close()


class ColdCli:
    """cli-cold's main blocks: cold ``python -m sympcoh.cli`` processes cycling the script."""

    def __init__(self, seed: int, workdir: str, smoke: bool):
        self.cmds = script.build(workdir, seed, large=not smoke)
        self.tally = stats.Tally()
        self.by_sub: dict[str, list[float]] = {}
        self.outputs: list[str] = []
        self.i = 0

    def block(self) -> None:
        cmd = self.cmds[self.i % len(self.cmds)]
        if self.i % len(self.cmds) == 0:
            self.outputs = []
        stdin = self.outputs[cmd.stdin_from] if cmd.stdin_from is not None else None
        code, out, _, wall = spawn([sys.executable, "-m", "sympcoh.cli", *cmd.argv], stdin)
        self.outputs.append(out)
        key = f"cli:{self.i % len(self.cmds)}"
        self.tally.unit("cli", key, wall, 1, cmd.check(code, script.envelope(out)))
        self.tally.wall(wall, wall)
        self.by_sub.setdefault(cmd.sub, []).append(wall)
        self.i += 1

    def summary(self) -> dict:
        by_sub = {sub: stats.median(walls) for sub, walls in sorted(self.by_sub.items())}
        return {**self.tally.summary(), "walls_by_subcommand": by_sub}


def run_untraced(workload: str, seed: int, seconds: float, workdir: str, smoke: bool) -> dict:
    """Workload steps until ``seconds`` of them have run, with the import probes spread between them.

    A step is one cold CLI process (cli-cold only) and then one step of the
    worker.  Probe time is not counted in ``seconds``.  The steps go on past
    ``seconds`` until every operation (script command, corpus state,
    Monte-Carlo cell) has run at least once, so the operation counts are
    the same whatever the speed of the machine.

    Every timing is scaled to the reference kernel's nominal speed
    (:mod:`ref`).  The worker samples the kernel between its units and
    scales each unit by the samples next to it.  The runner samples it
    before each step and probe, and scales the cold processes and probes,
    which last a second each, by the run's factor: the nominal time over the
    mean of every sample of the run, its own and the worker's.
    """
    entry = "sympcoh.cli" if workload == "cli-cold" else "sympcoh"
    job = {"entry": entry, "workload": workload, "seed": seed, "smoke": smoke, "trace": False}
    cold = ColdCli(seed, workdir, smoke) if workload == "cli-cold" else None
    setup: list[float] = []
    sampler = ref.Sampler()
    worker = Worker(job, workdir)
    try:
        cover = max(worker.cover_steps, len(cold.cmds) if cold else 0)
        busy, steps = 0.0, 0
        while busy < seconds or steps < cover:
            if len(setup) < SETUP_PROBES and busy >= seconds * len(setup) / SETUP_PROBES:
                sampler.tick()
                setup.append(import_probe(entry))
            sampler.tick()
            start = perf_counter()
            if cold:
                cold.block()
            worker.step()
            busy += perf_counter() - start
            steps += 1
        while len(setup) < SETUP_PROBES:  # runs too short for every probe
            sampler.tick()
            setup.append(import_probe(entry))
        if cold:
            rss = peak_rss_mib()  # the CLI processes, before the worker ends
        work = worker.finish()
    finally:
        worker.close()
    if not cold:
        rss = peak_rss_mib()
    main = cold.summary() if cold else work
    setup.append(work["import_s"])
    attempted, failed, known = work["attempted"], work["failed"], work["known_defect"]
    by_class = dict(work["by_class"])
    if cold:
        attempted += main["attempted"]
        failed += main["failed"]
        known += main["known_defect"]
        for cls, n in main["by_class"].items():
            by_class[cls] = by_class.get(cls, 0) + n
    ref_s = sampler.samples + work["ref_s"]
    f = ref.factor(ref_s)
    rates = work["rates"]
    walls = {k: main["walls"][k] * (f if cold else 1.0) for k in ("p50", "tail")}
    metrics = {
        "setup_s": stats.median(setup) * f,
        "peak_rss_mb": rss,
        "cli_wall_p50_s": walls["p50"],
        "cli_wall_tail_s": walls["tail"],
        "ensemble_samples_per_s": rates["ensemble"],
        "search_trials_per_s": rates["search"],
        "search_gap_rel": work["search_gap_rel"],
        "disc_shots_per_s": rates["disc"],
        "states_per_s": rates["states"],
    }
    details = {
        "speed_factor": f,
        "ref_samples": len(ref_s),
        "ref_mean_s": ref.NOMINAL_S / f,
        "unscaled": {"setup_s": stats.median(setup), "walls": main["unscaled"]["walls"],
                     "rates": work["unscaled"]["rates"]},
        "known_defect": known,
        "setup_samples_s": setup,
        "walls": main["walls"],
        "walls_by_subcommand": main.get("walls_by_subcommand"),
        "calls": work["calls"],
        "by_class": by_class,
        "examples": (main["examples"] if cold else []) + work["examples"],
        "wrong_verdicts": work["wrong_verdicts"],
        "steps": work["steps"],
        "corpus_states": work["corpus_states"],
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "known_defect": known,
            "by_class": by_class, "details": details}


# ---------------------------------------------------------------------------
# Traced runs: per-layer metrics
# ---------------------------------------------------------------------------


def import_floors() -> dict:
    """Cold-start floors: bare interpreter, numpy, sympcoh, and scipy under sympcoh."""
    python = [spawn([sys.executable, "-c", "pass"])[3] for _ in range(3)]
    numpy = [import_probe("numpy") for _ in range(3)]
    sympcoh = [import_probe("sympcoh") for _ in range(3)]
    rc, _, err, _ = spawn([sys.executable, "-X", "importtime", "-c", "import sympcoh"])
    if rc != 0:
        raise RuntimeError(f"import sympcoh failed:\n{err}")
    scipy_us = 0
    for line in err.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip().startswith("scipy"):
            scipy_us += int(parts[0].split(":")[1])
    return {
        "cli.python_floor_s": stats.median(python),
        "cli.import_numpy_s": stats.median(numpy),
        "cli.import_sympcoh_s": stats.median(sympcoh),
        "cli.import_scipy_s": scipy_us / 1e6,
    }


def run_traced(workload: str, seed: int, workdir: str, smoke: bool, spans_path: str) -> dict:
    """Floors, then the worker's fixed traced loop and micro-loops (independent of --seconds)."""
    floors = import_floors()
    job = {"entry": "sympcoh", "trace": True, "workload": workload, "seed": seed,
           "smoke": smoke, "workdir": workdir, "spans_path": spans_path}
    res = run_worker(job, workdir)
    details = {k: res[k] for k in ("self_time_share", "call_counts", "loop_wall_s", "tracing_overhead_s",
                                   "tracing_overhead_rel", "spans", "by_class", "examples")}
    details["spans_file"] = os.path.relpath(spans_path, ROOT)
    return {"metrics": {**floors, **res["metrics"]}, "attempted": res["attempted"], "failed": res["failed"],
            "known_defect": res["known_defect"], "by_class": res["by_class"], "details": details}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_one(spec: dict, workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    stamp = f"{workload}_seed{seed}_trace{int(traced)}_{time.strftime('%Y%m%dT%H%M%S')}_{os.getpid()}"
    workdir = os.path.join(WORK, stamp)
    results = SMOKE_RESULTS if smoke else RESULTS
    os.makedirs(workdir)
    os.makedirs(results, exist_ok=True)
    try:
        # Untimed: compiles bytecode and warms the page cache, as a user's first call does.
        spawn([sys.executable, "-m", "sympcoh.cli", "maxsc", "--E", "4", "--m", "1"])
        if traced:
            res = run_traced(workload, seed, workdir, smoke, os.path.join(results, f"{stamp}.spans.json.gz"))
        else:
            res = run_untraced(workload, seed, seconds, workdir, smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = spec["per_layer" if traced else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    correct = res["failed"] == 0
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "smoke": smoke,
        "manifest": manifest(),
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "known_defect": res["known_defect"],
        "metrics": metrics,
        "details": res["details"],
    }
    path = os.path.join(results, f"{stamp}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    report(record, path)
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def report(record: dict, path: str) -> None:
    print(f"workload={record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']}")
    for name, m in record["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    d = record["details"]
    print(f"  operations: attempted={record['attempted']} failed={record['failed']}; "
          f"failed checks by class, over every repetition: {d.get('by_class', {})}")
    print(f"  known defect: {record['known_defect']} operations got a wrong verdict on a large-trace "
          f"state (class verdict); counted here and in gaussian_core.wrong_verdicts, not as failed")
    if "speed_factor" in d:
        print(f"  timings scaled to the reference kernel's nominal {ref.NOMINAL_S} s; it took {d['ref_mean_s']:.5f} s "
              f"on average over {d['ref_samples']} samples (run factor {d['speed_factor']:.4f})")
    if "walls" in d:
        print(f"  cli_wall_tail_s is p{d['walls']['tail_pct']:.1f} of {d['walls']['n']} invocations")
    if "self_time_share" in d:
        shares = ", ".join(f"{k}={v:.3f}" for k, v in d["self_time_share"].items())
        print(f"  self-time share: {shares}")
        print("  span calls: " + ", ".join(f"{k}={v}" for k, v in d["call_counts"].items()))
        print(f"  tracing overhead: {d['tracing_overhead_s']:.4f} s ({100 * d['tracing_overhead_rel']:.2f}%)")
        print(f"  {NOTES['waiting']}")
    print(f"  result file: {os.path.relpath(path, ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes without the large-trace states (self-tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sympcoh", "__init__.py")):
        print(f"no program source at {os.path.relpath(SRC, os.getcwd())}/sympcoh", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One runner process per workload, so that peak RSS covers that workload's processes only.
        results = {}
        for w in WORKLOADS:
            argv = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                return proc.returncode or 1
            results[w] = json.loads(lines[-1])
        print(json.dumps(results))
        return 0
    try:
        result = run_one(load_spec(), args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
