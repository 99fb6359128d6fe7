"""hypnopipe benchmark: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload night_cc --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It generates every input from the seed
into ``.perfbench_work/``, then runs the workload's pipeline as child processes
over and over for about ``--seconds`` and measures them from outside: wall
clock, and ``wait4`` rusage of each child.  With ``--trace 1`` half the time
goes to the same pipeline with every public function of the hypnopipe layers
wrapped in a span (``tracer.py``), and the per-layer metrics come from those
spans.  Outputs are checked on every pass; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 3
MIN_PASSES = 2
MAX_PASSES = 50
STEP_TIMEOUT_S = 150
CANARY_SEED = 5229            # fixed: the reference outputs are stored for it
CANARY_NIGHT_H = 10 / 60
CANARY_COHORT = (40, 1.0)     # nights, hours each
CANARY_COLUMNS = 100          # RFE and GP see the first 100 feature columns
REFERENCE = os.path.join(HERE, "reference.json")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "psg_h_per_s": "h/s", "disk_mb": "MB"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.overhead_s": "s", "trace.uncovered_s": "s",
               "trace.import_s": "s"}
CHECK_UNITS = {"check.max_abs_dev": "1", "check.failed_frac": "1"}


def per_layer_units() -> dict[str, str]:
    """Every metric a ``--trace 1`` run reports, with its unit."""
    return {**tracer.per_layer_units(), **TRACE_UNITS, **CHECK_UNITS}


@dataclass
class Step:
    kind: str                  # "cli": a hypnopipe command; "cohort": child.cohort_fit
    args: list[str]
    outputs: list[str] = field(default_factory=list)


# ------------------------------------------------------------------ workloads
# Each workload: generate inputs, list the pipeline steps, read the numbers
# that are compared with the stored reference outputs.

class NightCC:
    """``run-all`` in CC mode on one night: 16 FF members at 5 s segments."""
    name = "night_cc"
    night_h = 1.0

    def setup(self, seed, directory, canary=False):
        import gen
        hours = CANARY_NIGHT_H if canary else self.night_h
        p = gen.setup_night(seed, directory, hours, "cc", "FF")
        p["config"] = os.path.join(directory, "config.json")
        with open(p["config"], "w") as f:
            json.dump({"recording": p["recording"], "mode": "cc", "ref": p["ref"],
                       "models_dir": p["models"], "gp_model": p["gp"]}, f, indent=1)
        p["hours"] = hours
        return p

    def steps(self, p, out):
        rid = p["recording_id"]
        bundle = [os.path.join(out, f"{rid}.{s}") for s in
                  ("hypnodensity.csv", "hypnodensity.svg", "features.csv", "diagnosis.json")]
        return [Step("cli", ["run-all", "--config", p["config"], "--out-dir", out], bundle)]

    def numbers(self, p, out):
        rid = p["recording_id"]
        with open(os.path.join(out, f"{rid}.diagnosis.json")) as f:
            score = json.load(f)["score"]
        probs = checks.read_hypnodensity(os.path.join(out, f"{rid}.hypnodensity.csv"))
        return {"hypnodensity": probs.ravel().tolist(), "score": [score]}


class StagedOctave(NightCC):
    """The step-by-step subcommands in octave mode: 16 LSTM members."""
    name = "staged_octave"
    night_h = 0.5

    def setup(self, seed, directory, canary=False):
        import gen
        hours = CANARY_NIGHT_H if canary else self.night_h
        p = gen.setup_night(seed, directory, hours, "octave", "LSTM")
        p["hours"] = hours
        return p

    def steps(self, p, out):
        rid = p["recording_id"]
        montage, enc = os.path.join(out, "montage"), os.path.join(out, "enc")
        o = {s: os.path.join(out, f"{rid}.{s}") for s in
             ("hypnodensity.csv", "features.json", "diagnosis.json", "hypnodensity.svg")}
        m_meta = os.path.join(montage, f"{rid}.psgmeta.json")
        enc_meta = os.path.join(enc, f"{rid}.octave.enc.json")
        return [
            Step("cli", ["preprocess", p["recording"], montage, "--ref", p["ref"]], [m_meta]),
            Step("cli", ["encode", m_meta, enc, "--mode", "octave"], [enc_meta]),
            Step("cli", ["score", enc_meta, "--models", p["models"],
                         "--out", o["hypnodensity.csv"]], [o["hypnodensity.csv"]]),
            Step("cli", ["features", o["hypnodensity.csv"], "--out", o["features.json"]],
                 [o["features.json"]]),
            Step("cli", ["diagnose", "--model", p["gp"], "--input", o["features.json"],
                         "--out", o["diagnosis.json"]], [o["diagnosis.json"]]),
            Step("cli", ["plot", o["hypnodensity.csv"], o["hypnodensity.svg"]],
                 [o["hypnodensity.svg"]]),
        ]


class CohortFit:
    """Features, RFE, GP fit and scores over a cohort of hypnodensities."""
    name = "cohort_fit"
    nights, night_h = 300, 4.0

    def setup(self, seed, directory, canary=False):
        import gen
        n, hours = CANARY_COHORT if canary else (self.nights, self.night_h)
        p = gen.setup_cohort(seed, directory, n, hours)
        p.update(dir=directory, hours=n * hours, canary=canary)
        return p

    def steps(self, p, out):
        args = [p["dir"], out] + (["--columns", str(CANARY_COLUMNS)] if p["canary"] else [])
        return [Step("cohort", args, [os.path.join(out, f) for f in
                                      ("features.npy", "scores.csv", "gp.gp.json",
                                       "selection.json")])]

    def numbers(self, p, out):
        return {"scores": checks.read_scores(os.path.join(out, "scores.csv")).tolist()}


WORKLOADS = {w.name: w for w in (NightCC(), StagedOctave(), CohortFit())}


# ------------------------------------------------------------------ processes

@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    code: int
    log: str


def launch(cmd: list[str], log_path: str, env: dict) -> Proc:
    """Run one child to completion; rusage comes from ``wait4`` on it alone."""
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path) as f:
        text = f.read()
    return Proc(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                proc.returncode, text)


def command(step: Step, spans: str | None) -> list[str]:
    child = os.path.join(HERE, "child.py")
    if spans:
        return [sys.executable, child, "--spans", spans, step.kind, *step.args]
    if step.kind == "cli":
        return [sys.executable, "-m", "hypnopipe.cli", *step.args]
    return [sys.executable, child, step.kind, *step.args]


def step_problems(step: Step, proc: Proc) -> list[str]:
    problems = []
    if proc.code != 0:
        problems.append(f"exit code {proc.code}")
    if "Traceback (most recent call last)" in proc.log:
        problems.append("traceback on stderr")
    if not problems:
        for path in step.outputs:
            problems += checks.check_output(path)
    return problems


def tree_files(directory: str) -> dict[str, str]:
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            out[os.path.relpath(path, directory)] = path
    return dict(sorted(out.items()))


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    disk_bytes: int = 0
    hashes: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    step_wall_s: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)        # one span list per process
    import_s: float = 0.0


def run_pass(wl, p, work: str, index: int, traced: bool, env: dict) -> Pass:
    out = os.path.join(work, "out")
    logs = os.path.join(work, "logs")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    os.makedirs(logs, exist_ok=True)
    res = Pass()
    tag = f"{'traced' if traced else 'pass'}{index:02d}"
    for k, step in enumerate(wl.steps(p, out)):
        spans = os.path.join(logs, f"{tag}.{k}.spans.json") if traced else None
        proc = launch(command(step, spans), os.path.join(logs, f"{tag}.{k}.log"), env)
        res.attempted += 1
        res.wall_s += proc.wall_s
        res.step_wall_s.append(proc.wall_s)
        res.cpu_s += proc.cpu_s
        res.peak_rss_mb = max(res.peak_rss_mb, proc.maxrss_mb)
        problems = step_problems(step, proc)
        res.failed += bool(problems)
        res.problems += [f"{tag} step {k} ({step.args[0]}): {x}" for x in problems]
        if spans and os.path.isfile(spans):
            with open(spans) as f:
                data = json.load(f)
            res.spans.append([tracer.Span.from_list(s) for s in data["spans"]])
            res.import_s += data["import_s"]
        if problems:
            break
    files = tree_files(out)
    res.disk_bytes = sum(os.path.getsize(f) for f in files.values())
    res.hashes = {rel: checks.sha256(f) for rel, f in files.items()}
    return res


def run_passes(wl, p, work, budget_s, min_n, traced, env, first) -> list[Pass]:
    """Passes until the next one would end after ``budget_s`` (at least ``min_n``)."""
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MAX_PASSES:
        res = run_pass(wl, p, work, len(passes), traced, env)
        if first is not None:
            # each repeated pass is one more operation: the byte-identity check
            res.attempted += 1
            diff = sorted(k for k in set(first.hashes) | set(res.hashes)
                          if first.hashes.get(k) != res.hashes.get(k))
            if diff:
                res.failed += 1
                res.problems.append(f"outputs differ from the first pass: {diff}")
        passes.append(res)
        first = first or res
        if res.problems:
            break
        elapsed = time.perf_counter() - t0
        if len(passes) >= min_n and elapsed * (len(passes) + 1) / len(passes) > budget_s:
            break
    return passes


# ------------------------------------------------------------------ reference

def canary(wl, root: str, env: dict) -> tuple[dict, list[str]]:
    """Run the workload on its fixed small input, all steps in one process.

    Returns the numbers to compare with ``reference.json`` and any problems.
    """
    work = os.path.join(root, WORK_DIR, wl.name, "canary")
    shutil.rmtree(work, ignore_errors=True)
    p = wl.setup(CANARY_SEED, os.path.join(work, "inputs"), canary=True)
    out = os.path.join(work, "out")
    os.makedirs(out)
    steps = wl.steps(p, out)
    if steps[0].kind == "cli":
        steps_json = os.path.join(work, "steps.json")
        with open(steps_json, "w") as f:
            json.dump([s.args for s in steps], f)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "steps", steps_json]
    else:
        cmd = command(steps[0], None)
    proc = launch(cmd, os.path.join(work, "canary.log"), env)
    problems = step_problems(Step("canary", [], [o for s in steps for o in s.outputs]), proc)
    return ({} if problems else wl.numbers(p, out)), problems


def max_abs_dev(numbers: dict, reference: dict) -> float:
    dev = 0.0
    for key, ref in reference.items():
        got = numbers.get(key)
        if got is None or len(got) != len(ref):
            return float("inf")
        dev = max(dev, max((abs(a - b) for a, b in zip(got, ref)), default=0.0))
    return dev


# ------------------------------------------------------------------ reporting

def blas_threads() -> int | None:
    """Threads OpenBLAS uses by default in this environment (None if unknown)."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hypnopipe", "cli.py")):
        print(f"perfbench: no hypnopipe sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import hypnopipe
    if os.path.dirname(os.path.dirname(os.path.abspath(hypnopipe.__file__))) != src:
        print(f"perfbench: hypnopipe imported from {hypnopipe.__file__}, not {src}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = child_env(root)
    work = os.path.join(root, WORK_DIR, wl.name)
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")

    import gen  # noqa: F401  imports numpy, scipy and hypnopipe before set-up is timed

    setup_s = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        t0 = time.perf_counter()
        p = wl.setup(args.seed, inputs)
        setup_s.append(time.perf_counter() - t0)

    with open(REFERENCE) as f:
        reference = json.load(f)[wl.name]
    numbers, problems = canary(wl, root, env)
    dev = max_abs_dev(numbers, reference) if not problems else float("inf")
    if not dev <= checks.MAX_ABS_DEV_TOL:
        problems.append(f"canary: max_abs_dev {dev:.3g} > {checks.MAX_ABS_DEV_TOL:g}")
    attempted, failed = 1, int(bool(problems))

    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run_passes(wl, p, work, budget, 1 if args.trace else MIN_PASSES,
                       False, env, None)
    traced = (run_passes(wl, p, work, budget, 1, True, env, plain[0])
              if args.trace else [])
    for res in plain + traced:
        attempted += res.attempted
        failed += res.failed
        problems += res.problems

    # medians over the passes that passed every check (all passes if none did;
    # the run then reports correct=false anyway)
    ok = [r for r in plain if not r.problems] or plain
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median([r.wall_s for r in ok]),
        "cpu_s": statistics.median([r.cpu_s for r in ok]),
        "peak_rss_mb": statistics.median([r.peak_rss_mb for r in ok]),
        "psg_h_per_s": statistics.median([p["hours"] / r.wall_s for r in ok]),
        "disk_mb": statistics.median([r.disk_bytes / 1e6 for r in ok]),
        # -1: the canary's outputs could not be compared with the reference
        "check.max_abs_dev": dev if math.isfinite(dev) else -1.0,
        "check.failed_frac": failed / attempted,
    }
    if args.trace:
        t_ok = [r for r in traced if not r.problems] or traced
        per_pass = [tracer.layer_metrics(r.spans) for r in t_ok]
        metrics.update({k: statistics.median([m[k] for m in per_pass])
                        for k in tracer.per_layer_units()})
        t_wall = statistics.median([r.wall_s for r in t_ok])
        metrics.update({
            "trace.wall_s": t_wall,
            "trace.overhead_s": t_wall - metrics["wall_s"],
            "trace.uncovered_s": t_wall - sum(metrics[f"{x}.self_s"] for x in tracer.LAYERS),
            "trace.import_s": statistics.median([r.import_s for r in t_ok]),
        })
    units = {**END_TO_END, **per_layer_units()}
    shown = per_layer_units() if args.trace else END_TO_END

    first = plain[0]
    for rel, digest in first.hashes.items():
        print(f"sha256 {digest} {rel}")
    for x in problems:
        print(f"FAILED {x}")
    print(f"workload={wl.name} seed={args.seed} passes={len(plain)} traced={len(traced)} "
          f"nproc={os.cpu_count()} blas_threads={blas_threads()}")
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {units[k]}")

    summary = {"workload": wl.name, "seed": args.seed, "setup_s": setup_s,
               "passes": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "peak_rss_mb": r.peak_rss_mb,
                           "disk_bytes": r.disk_bytes, "step_wall_s": r.step_wall_s}
                          for r in plain],
               "traced": [{"wall_s": r.wall_s, "import_s": r.import_s} for r in traced],
               "hashes": first.hashes, "problems": problems, "metrics": metrics}
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump(summary, f, indent=1)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in shown}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
