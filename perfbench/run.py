"""Benchmark of the weightfil CLI: one workload per invocation.

    python3 perfbench/run.py --workload phin_modules --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The program is imported from
./src, inputs are generated from --seed into ./.perfbench_work/<pid>/ and
removed at exit, and every report runs in this process through
weightfil.cli.main with stdout captured, then is checked (see checks.py).

With --trace 0 the run repeats whole rounds of the workload, each on fresh
inputs drawn from the seed, until --seconds have passed, timing only the
report calls; it prints reports_per_s, setup_s and peak_rss_mb.  With
--trace 1 it runs exactly one traced round (so that counts repeat for a
seed) and prints the per-layer metrics of layers.py.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

import checks
import workloads

T_START = time.perf_counter()


def setup_seconds() -> float:
    """Seconds since this process started, from the kernel's record of its
    start time; where /proc is unavailable, since this module was loaded."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - T_START


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("phin_modules", "filtered_complexes", "building"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Runner:
    """Runs reports in-process and keeps the tallies of one benchmark run."""

    def __init__(self, cli, workdir):
        self.cli = cli
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.verified = {}

    def call(self, argv):
        """(exit code, stdout, stderr, seconds) of one report."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:  # a crash is a failed report, not a failed benchmark
            err.write(traceback.format_exc())
            rc = -1
        return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0

    def run_case(self, case, name) -> float:
        """Run and check one case; return its report time."""
        argv = case.materialize(self.workdir, name)
        rc, out, err, dt = self.call(argv)
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            sys.stderr.write(f"failed ({rc}): {' '.join(case.argv)}\n{err}")
            return dt
        # a report byte-identical to one already checked needs no new check
        key = (case.kind, case.data, tuple(case.argv))
        if self.verified.get(key) != out:
            try:
                checks.check(case, out)
                self.verified[key] = out
            except checks.CheckError as e:
                self.correct = False
                sys.stderr.write(f"wrong report: {' '.join(argv)}: {e}\n")
        return dt


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "weightfil", "cli.py")):
        sys.stderr.write("run from the root of a weightfil checkout: "
                         "src/weightfil/cli.py not found\n")
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(os.getcwd(), ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        return bench(args, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


def bench(args, src, workdir) -> int:
    # set-up: import the CLI and run one report, as a one-shot user would
    from weightfil import cli
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src)):
        sys.stderr.write(f"weightfil imported from {cli.__file__}, not {src}\n")
        return 2
    runner = Runner(cli, workdir)
    warm = workloads.WARMUP[args.workload]
    rc, _, err, _ = runner.call(warm.materialize(workdir, "warmup"))
    if rc != 0:
        sys.stderr.write(f"warm-up report failed ({rc}):\n{err}")
        return 1
    setup_s = setup_seconds()

    reference = {}
    if args.workload == "phin_modules":
        for key, case in workloads.phin_reference_cases().items():
            rc, out, err, _ = runner.call(case.materialize(workdir, "reference"))
            if rc != 0:
                sys.stderr.write(f"reference report failed ({rc}):\n{err}")
                return 1
            reference[key] = json.loads(out)

    def cases_of(round_index):
        rng = random.Random(f"{args.workload}:{args.seed}:{round_index}")
        return workloads.round_cases(args.workload, rng, reference)

    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
        spent = 0.0
        for i, case in enumerate(cases_of(0)):
            tracer.begin_report()
            spent += runner.run_case(case, f"r0_{i}")
        sys.stderr.write(f"traced round 0: {spent:.3f} s of report calls\n")
        metrics = tracer.metrics()
    else:
        times = {}          # case ident -> its report time in each round
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            spent = 0.0
            for i, case in enumerate(cases_of(rounds)):
                dt = runner.run_case(case, f"r{rounds}_{i}")
                times.setdefault(i if case.ident is None else case.ident, []).append(dt)
                spent += dt
            sys.stderr.write(f"round {rounds}: {spent:.3f} s of report calls\n")
            rounds += 1
        # one pass over the input set, each report at its median over rounds
        per_pass = sum(statistics.median(t) for t in times.values())
        sys.stderr.write(f"{rounds} rounds of {len(times)} reports, "
                         f"{per_pass:.3f} s per pass\n")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "reports_per_s": {"value": len(times) / per_pass, "unit": "reports/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
