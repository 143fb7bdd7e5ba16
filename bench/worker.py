"""One benchmark process: set up, then run the timed phase.

    python3 bench/worker.py WORKLOAD --seed N [--budget S] [--trace 0|1]
                            [--outputs]

WORKLOAD is enumerate-d5, analytic-d5 or cli-session; the last only sets
up (imports the CLI), since its timed phase is the CLI's own processes.
Prints one JSON object: the start and end (time.perf_counter) of the
set-up and of each timed unit, each unit's CPU time and per-call
latencies, the number of attempted calls and why each failed one
failed, and, with --trace 1, the per-layer totals of the spans.  The
runner scales the times with its speed probe (bench/probe.py).
--outputs adds the outputs themselves, for the transparency check.

Set-up is the import of the package plus what the workload needs before
its timed phase: the field (with its elliptic census) and, for
analytic-d5, the x = 10 class window.  enumerate-d5 times one cold
enumeration; analytic-d5 runs one cold batch untimed, then repeats the
batch until --budget seconds have passed, at least once.
"""

import argparse
import contextlib
import json
import resource
import sys
import time

import spans
import workloads


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


# library errors counted as failed calls; anything else is a crash
FAILURES = ("BudgetExceededError", "InvariantViolation")


class Run:
    def __init__(self, trace: bool):
        self.tracer = spans.Tracer() if trace else None
        self.undo = []
        self.result = {"attempted": 0, "errors": [],
                       "unit_t": [], "cpu_s": [], "op_s": []}

    @contextlib.contextmanager
    def span(self, name):
        """A root span ("setup", "warmup" or "timed") when tracing."""
        if self.tracer is None:
            yield
            return
        idx = self.tracer.open(name)
        try:
            yield
        finally:
            self.tracer.close(idx)

    def fail(self, what: str, why: str) -> None:
        self.result["errors"].append(f"{what}: {why}")


def _failure(exc: Exception) -> str:
    """The message of a counted library failure; other errors propagate."""
    if type(exc).__name__ not in FAILURES:
        raise exc
    return f"{type(exc).__name__}: {exc}"


def _setup(run: Run, workload: str):
    """Import the package and build what the timed phase needs."""
    t0 = time.perf_counter()
    if workload == "cli-session":
        # the start-up every command pays
        import hilbert_selberg.cli  # noqa: F401
        run.result["setup_t"] = [t0, time.perf_counter()]
        return None
    from hilbert_selberg import geodesics, quadfield
    if workload == "analytic-d5":
        from hilbert_selberg import traceform, zetafun  # noqa: F401
    if run.tracer is not None:
        run.undo = spans.install(run.tracer)
    with run.span("setup"):
        D = workloads.ENUM_D if workload == "enumerate-d5" \
            else workloads.WINDOW_D
        F = quadfield.make_field(D)
        classes = None
        if workload == "analytic-d5":
            classes = geodesics.enumerate_geodesics(F, workloads.WINDOW_X)
    run.result["setup_t"] = [t0, time.perf_counter()]
    return F, classes


def _enumerate(run: Run, F, reference, outputs: bool) -> None:
    from hilbert_selberg import geodesics
    run.result["attempted"] += 1
    c0, t0 = _cpu(), time.perf_counter()
    try:
        with run.span("timed"):
            classes = geodesics.enumerate_geodesics(F, workloads.ENUM_X)
    except Exception as exc:
        run.fail("enumerate_geodesics", _failure(exc))
        return
    t1, dc = time.perf_counter(), _cpu() - c0
    run.result["unit_t"].append([t0, t1])
    run.result["cpu_s"].append(dc)
    run.result["op_s"].append([t1 - t0])
    rows = workloads.enumerate_rows(classes)
    if rows != reference["enumerate"]:
        run.fail("enumerate_geodesics", "class list differs from reference")
    if outputs:
        run.result["outputs"] = rows


def _analytic(run: Run, F, classes, seed: int, budget: float, reference,
              outputs: bool) -> None:
    """A first, cold batch that is checked but not timed, then batches
    until --budget seconds have passed, at least one."""
    if workloads.enumerate_rows(classes) != reference["window"]:
        run.fail("set-up", "x = 10 class window differs from reference")
    coverage = max(c.norm for c in classes)
    batch = workloads.analytic_batch(seed)
    spent, cold = 0.0, True
    while cold or not run.result["unit_t"] or spent < budget:
        results, op_s = [], []
        c0, t0 = _cpu(), time.perf_counter()
        with run.span("warmup" if cold else "timed"):
            for kind, args in batch:
                t = time.perf_counter()
                try:
                    out, _ = workloads.evaluate(kind, args, F, classes,
                                                coverage)
                except Exception as exc:
                    out = _failure(exc)
                op_s.append(time.perf_counter() - t)
                results.append(out)
        t1, dc = time.perf_counter(), _cpu() - c0
        if not cold:
            run.result["unit_t"].append([t0, t1])
            run.result["cpu_s"].append(dc)
            run.result["op_s"].append(op_s)
            spent += t1 - t0
        cold = False
        for (kind, args), out in zip(batch, results):
            run.result["attempted"] += 1
            if isinstance(out, str):
                run.fail(workloads.op_key(kind, args), out)
                continue
            why = workloads.check_analytic(kind, args, out, reference)
            if why:
                run.fail(workloads.op_key(kind, args), why)
        if outputs and "outputs" not in run.result:
            run.result["outputs"] = [workloads.plain(o) for o in results]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload",
                    choices=("enumerate-d5", "analytic-d5", "cli-session"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outputs", action="store_true")
    args = ap.parse_args(argv)

    run = Run(bool(args.trace))
    run.result["attempted"] += 1  # the set-up is an operation too
    try:
        ready = _setup(run, args.workload)
    except Exception as exc:
        run.fail("set-up", _failure(exc))
        ready = None
    if ready is not None:
        reference = workloads.load_reference()
        F, classes = ready
        if args.workload == "enumerate-d5":
            _enumerate(run, F, reference, args.outputs)
        else:
            _analytic(run, F, classes, args.seed, args.budget, reference,
                      args.outputs)
    if run.tracer is not None:
        spans.uninstall(run.undo)
        run.result["layers"] = spans.accumulate({}, run.tracer.spans)
    sys.stdout.write(json.dumps(run.result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
