"""Benchmark of hilbert-selberg, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It drives the library and the CLI from
src/ through their public entry points, one process at a time (a closed
loop with one client), and never starts worker threads.

Workloads:
  enumerate-d5  one cold enumerate_geodesics(make_field(5), x=12) per
                fresh process: the exact layers (Pell, form enumeration,
                form orbits, the matrix-conjugacy oracle) do the work.
                The input is fixed; the seed has no effect.
  analytic-d5   the x = 10 class window is built in set-up; the timed
                phase repeats a batch of zeta, log-derivative, Ruelle,
                geometric-side, closed-form and heat-fit calls whose
                order the seed sets.
  cli-session   `python -m hilbert_selberg` commands one after another
                against a fresh cache directory: two cache misses, then
                mostly hits, one uncached report; arguments are seeded.

enumerate-d5 and analytic-d5 run three fresh processes; each sets up and
then runs timed units for a third of --seconds, at least one.  An
analytic-d5 process first runs one cold batch that is checked but not
timed.
cli-session runs whole sessions until --seconds have passed, at least one.

Every process of a run is pinned to one CPU (so work spread over
several cores gains nothing here), and every time reported is scaled to
a reference speed by a probe timed on that CPU while the children run
(bench/probe.py); the meta line gives the probe's median and the raw,
unscaled medians.

End-to-end metrics (--trace 0), the same names on every workload:
  setup_s      median of three set-ups, each in a fresh process
  wall_s       median time of one timed unit: the enumeration
               (enumerate_s), the batch (analytic_s) or the whole command
               sequence (cli_total_s)
  op_p50_s     median latency of one call or command (cli_p50_s); on
               analytic-d5 the median over the batch's calls of each
               call's median over the run's batches
  cpu_s        median user + system CPU of one timed unit, children too
  peak_rss_mb  largest resident set of any process of the run

--trace 1 runs one unit untraced and one with every layer wrapped
(bench/spans.py), checks that both give identical outputs, and prints
the per-layer metrics with the tracing overhead.

Every output is checked against bench/reference.json.  The last stdout
line is {"correct", "attempted", "failed", "metrics"}; the exit code is
0 when every call succeeded and matched, 1 otherwise, and 2 when the
package source is missing.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "hilbert_selberg"
WORK = ROOT / ".bench_work"
SETUPS = 3
DEADLINE_S = 170.0
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"))
ALIASES = {"enumerate-d5": {"wall_s": "enumerate_s"},
           "analytic-d5": {"wall_s": "analytic_s"},
           "cli-session": {"wall_s": "cli_total_s", "op_p50_s": "cli_p50_s"}}
# traced enumeration layers must add up to the untraced enumerate_s
# within the tracing overhead plus this share of it
LAYER_SUM_SLACK = 0.05


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


class Overrun(Exception):
    """A child process passed the run's deadline and was killed."""


class Bench:
    """One run: child processes, failure accounting, deadline."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.errors = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.env.pop("HILBERT_SELBERG_CACHE", None)
        self.work = WORK / self.workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.reference = workloads.load_reference()
        self.probe = probe.Probe()

    def fail(self, what: str, why: str) -> None:
        self.errors.append(f"{what}: {why}")

    def verify(self, what: str, why: str) -> None:
        """Count a benchmark-side check as an operation; '' passes."""
        self.attempted += 1
        if why:
            self.fail(what, why)

    def child(self, argv: list) -> tuple:
        """Run one process to completion, probing the CPU while it runs;
        returns (completed process, start, end).  Output goes to files,
        so a child never blocks on a full pipe; it is killed at the
        deadline."""
        deadline = max(self.deadline, time.monotonic() + 1.0)
        out, err = self.work / "stdout", self.work / "stderr"
        with out.open("w") as fo, err.open("w") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT,
                                    env=self.env, stdout=fo, stderr=fe,
                                    text=True)
            try:
                t1 = self.probe.wait(proc, deadline)
            except subprocess.TimeoutExpired as exc:
                raise Overrun(f"{' '.join(argv[:4])} passed the deadline") \
                    from exc
        done = subprocess.CompletedProcess(argv, proc.returncode,
                                           out.read_text(), err.read_text())
        return done, t0, t1

    def worker(self, *flags) -> dict:
        proc, _, _ = self.child([str(BENCH / "worker.py"), self.workload,
                                 "--seed", str(self.seed)] + list(flags))
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            out = {"attempted": 1, "unit_t": [], "op_s": [],
                   "cpu_s": [], "errors": [
                       f"worker exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-400:]}"]}
        self.attempted += out["attempted"]
        self.errors.extend(out["errors"])
        return out

    def setup_s(self, runs: list) -> list:
        """Scaled set-up time of each worker that finished set-up."""
        return [self.probe.scaled(*r["setup_t"]) for r in runs
                if "setup_t" in r]

    def units(self, run: dict) -> list:
        """(scaled time, scaled CPU, scaled op latencies) per unit.  An
        op's latency scales like its unit's time, so the probe's slices
        are taken out of the ops in proportion."""
        out = []
        for (t0, t1), cpu, ops in zip(run["unit_t"], run["cpu_s"],
                                      run["op_s"]):
            wall = self.probe.scaled(t0, t1)
            out.append((wall, cpu * self.probe.factor(t0, t1),
                        [op * wall / (t1 - t0) for op in ops]))
        return out

    def fresh(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir()
        return path

    def command(self, argv: list, cache: Path, runner=None):
        """One CLI command, checked; returns (scaled seconds, raw
        seconds, completed process)."""
        prefix = runner or ["-m", "hilbert_selberg"]
        proc, t0, t1 = self.child(prefix + argv + ["--cache-dir", str(cache)])
        self.attempted += 1
        name = " ".join(argv)
        if proc.returncode != 0:
            self.fail(name, f"exit {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
        else:
            why = workloads.check_cli(argv, proc.stdout, self.reference)
            if why:
                self.fail(name, why)
        return self.probe.scaled(t0, t1), t1 - t0, proc


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _median(values: list) -> float:
    return statistics.median(values) if values else float("nan")


# ------------------------------------------------------------ --trace 0


def _raw_median(intervals) -> float:
    return _median([t1 - t0 for t0, t1 in intervals])


def measure_process_workload(b: Bench) -> tuple:
    """enumerate-d5 / analytic-d5: each set-up process also runs a third
    of the timed phase, so the timed units come from three processes.
    Returns the metrics and the raw (unscaled) medians."""
    runs = [b.worker("--budget", repr(b.seconds / SETUPS))
            for _ in range(SETUPS)]
    units = [u for r in runs for u in b.units(r)]
    # every unit makes the same calls in the same order: each call's
    # median over the units, then the median over the calls
    per_call = zip(*(ops for _, _, ops in units))
    metrics = {
        "setup_s": _median(b.setup_s(runs)),
        "wall_s": _median([wall for wall, _, _ in units]),
        "op_p50_s": _median([_median(call) for call in per_call]),
        "cpu_s": _median([cpu for _, cpu, _ in units]),
    }
    raw = {"setup_s": _raw_median(r["setup_t"] for r in runs
                                  if "setup_t" in r),
           "wall_s": _raw_median(t for r in runs for t in r["unit_t"])}
    return metrics, raw


def cli_session(b: Bench, name: str, runner=None, on_command=None) -> tuple:
    """One command sequence in a fresh cache; returns (start, end,
    [(argv, scaled seconds, raw seconds, process)])."""
    cache = b.fresh(name)
    ran = []
    t0 = time.perf_counter()
    for argv in workloads.cli_session(b.seed):
        before = set(cache.iterdir())
        dt, raw, proc = b.command(argv, cache, runner)
        ran.append((argv, dt, raw, proc))
        if on_command is not None:
            on_command(argv, proc, len(set(cache.iterdir()) - before),
                       dt / raw)
    return t0, time.perf_counter(), ran


def measure_cli(b: Bench) -> tuple:
    setups = [b.worker() for _ in range(SETUPS)]
    sessions, cpus, ops = [], [], []
    while not sessions or sum(t1 - t0 for t0, t1 in sessions) < b.seconds:
        c0 = _children_cpu()
        t0, t1, ran = cli_session(b, f"cache{len(sessions)}")
        cpus.append((_children_cpu() - c0) * b.probe.factor(t0, t1))
        sessions.append((t0, t1))
        ops.extend(dt for _, dt, _, _ in ran)
    metrics = {
        "setup_s": _median(b.setup_s(setups)),
        "wall_s": _median([b.probe.scaled(t0, t1) for t0, t1 in sessions]),
        "op_p50_s": _median(ops),
        "cpu_s": _median(cpus),
    }
    raw = {"setup_s": _raw_median(r["setup_t"] for r in setups
                                  if "setup_t" in r),
           "wall_s": _raw_median(sessions)}
    return metrics, raw


# ------------------------------------------------------------ --trace 1


def scale_times(totals: dict, ratio: float) -> dict:
    """Times (keys ending in _s or .s) multiplied by ratio; counts kept."""
    return {k: v * ratio if per_layer_unit(k) == "s" else v
            for k, v in totals.items()}


def trace_process_workload(b: Bench) -> dict:
    plain = b.worker("--outputs")
    traced = b.worker("--outputs", "--trace", "1")
    b.verify("transparency", "" if plain.get("outputs") == traced.get(
        "outputs") else "traced outputs differ from untraced")
    plain_units, traced_units = b.units(plain), b.units(traced)
    totals = traced.get("layers", {})
    if traced_units:
        # span times scale like the traced process's timed phase
        raw = sum(t1 - t0 for t0, t1 in traced["unit_t"])
        totals = scale_times(totals, sum(u[0] for u in traced_units) / raw)
    metrics = spans.per_layer(totals)
    base = plain_units[0][0] if plain_units else 0.0
    overhead = (traced_units[0][0] - base) if traced_units else 0.0
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / base if base else 0.0
    if b.workload == "enumerate-d5" and base:
        layer_sum = metrics["enumerate.layer_sum_s"]
        b.verify("layer sum", "" if abs(layer_sum - base) <= abs(overhead)
                 + LAYER_SUM_SLACK * base else
                 f"enumeration layers add up to {layer_sum:.3f} s, "
                 f"enumerate_s is {base:.3f} s")
    return metrics


def _import_s(stderr: str) -> float:
    """Cumulative -X importtime of the package's top-level imports."""
    total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2][1:]
        if name.startswith(spans.PACKAGE):
            total_us += int(parts[1])
    return total_us / 1e6


def trace_cli(b: Bench) -> dict:
    p0, p1, plain = cli_session(b, "cache-plain")
    totals = {}
    spans_file = b.work / "spans.json"
    runner = ["-X", "importtime", str(BENCH / "cli_runner.py"),
              str(spans_file)]

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    def on_command(argv, proc, new_files, ratio):
        try:
            with spans_file.open() as fh:
                recorded = json.load(fh)
            spans_file.unlink()
        except FileNotFoundError:
            b.fail(" ".join(argv), "traced command wrote no spans")
            return
        one = spans.accumulate({}, recorded)
        one[f"cli.{workloads.subcommand(argv)}.s"] = \
            recorded[0][2] - recorded[0][1]
        one["cli.import_s"] = _import_s(proc.stderr)
        for key, value in scale_times(one, ratio).items():
            add(key, value)
        calls = sum(1 for s in recorded if s[0] == spans.CACHE)
        add(f"{spans.CACHE}.misses", new_files)
        add(f"{spans.CACHE}.hits", calls - new_files)

    t0, t1, traced = cli_session(b, "cache-traced", runner, on_command)
    for (argv, _, _, p), (_, _, _, t) in zip(plain, traced):
        b.verify(f"transparency of {' '.join(argv)}",
                 "" if (p.stdout, p.returncode) == (t.stdout, t.returncode)
                 else "traced output differs from untraced")
    metrics = spans.per_layer(totals)
    plain_wall = b.probe.scaled(p0, p1)
    overhead = b.probe.scaled(t0, t1) - plain_wall
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / plain_wall
    return metrics


# ------------------------------------------------------------ reporting


def metadata(seed: int, cpu: int, b: Bench, raw: dict) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    src_lines = sum(1 for path in sorted(SRC.rglob("*.py"))
                    for ln in path.read_text().splitlines() if ln.strip())
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "mpmath": version("mpmath"), "commit": commit, "seed": seed,
            "src_lines": src_lines, "pinned_cpu": cpu,
            "probe_ms": b.probe.median_ms(),
            "probe_samples": len(b.probe.samples), "raw": raw}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ALIASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        sys.stderr.write(f"no package source at {SRC}\n")
        return 2

    cpu = probe.pin()
    b = Bench(args)
    process_workload = args.workload != "cli-session"
    raw = {}
    try:
        if args.trace:
            metrics = (trace_process_workload(b) if process_workload
                       else trace_cli(b))
        else:
            metrics, raw = (measure_process_workload(b) if process_workload
                            else measure_cli(b))
            metrics["peak_rss_mb"] = _peak_rss_mb()
    except Overrun as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    if args.trace:
        unit_of = {name: per_layer_unit(name) for name in metrics}
    else:
        unit_of = dict(END_TO_END)
    aliases = ALIASES[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases and \
            not args.trace else ""
        print(f"  {name:44s} {value:14.6g} {unit_of[name]}{alias}")
    if args.trace and args.workload != "analytic-d5":
        print(f"  oracle share of enumerate_s: {metrics['oracle.share']:.3f}"
              f" = {metrics['oracle.self_s']:.3f} s of "
              f"{metrics['oracle.base_s']:.3f} s")
    failed = len(b.errors)
    print(f"  fail_rate {failed}/{b.attempted}")
    for err in b.errors:
        print(f"  FAILED {err}")
    print("meta " + json.dumps(metadata(args.seed, cpu, b, raw),
                               sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": max(b.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
