"""Benchmark of the kharita generate -> infer -> evaluate loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload offline_city --seed 11 \\
        --seconds 25 --trace 0

One run is one fresh single-threaded process on one workload (see
workloads.py and README.md). It makes the workload's inputs from seeds
--seed, --seed+1, ... and times SETUPS setups. Then it runs rounds, one
pass over each input, back to back: one client in a closed loop. It
keeps going while another round brings the measured time closer to
--seconds. Every pass's outputs are checked. The last line of standard
output is the result object; the line before it is a report with the
per-workload metrics, the environment and the output digests.

--trace 0 reports the end-to-end metrics. --trace 1 runs an untraced and
then a traced pass over each input and reports the per-layer metrics of
the traced passes (layers.py), with the tracing overhead.
"""
from __future__ import annotations

import os

# One thread per BLAS pool: the timings must not depend on how many
# cores a run happens to get. Set before numpy is first imported.
PINNED_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    """Import the package under test from this checkout's src/, and only
    from there: a copy installed elsewhere would measure other code."""
    if not (SRC / "kharita" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kharita package under {SRC}")
    sys.path.insert(0, str(SRC))
    import kharita
    if Path(kharita.__file__).resolve().parent != SRC / "kharita":
        sys.exit(f"perfbench: imported kharita from {kharita.__file__}, "
                 f"not from {SRC}")


_import_program()

from layers import PER_LAYER_UNITS, PIPELINE_STAGES, TARGETS, layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import FULL, WORKLOADS, check_scores, digest, geo_f30  # noqa: E402

SETUPS = 5

# name -> unit; the result line of an untraced run holds exactly these
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "geo_f30": "ratio",
    "peak_rss_mb": "MB",
}

# the stage spans of a traced pass and PipelineStats.timings time the
# same calls; they differ by the wrapper's own bookkeeping
STAGE_TOL_S = 2e-3
STAGE_TOL_SHARE = 0.01


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "pinned_env": {v: os.environ[v] for v in PINNED_ENV},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Input:
    """One input of a run (a city, or the evaluation seed's draws) and
    what its passes gave."""

    def __init__(self, seed: int):
        self.seed = seed
        self.files = None           # workloads.InputFiles, once set up
        self.passes = 0             # passes that wrote the first pass's bytes
        self.walls: list[float] = []
        self.results: list = []
        self.digest = ""
        self.map_path = ""
        self.scores: dict = {}


class Run:
    """State of one benchmark run.

    A run has wl.inputs_per_run inputs, made from seeds seed, seed+1, ...
    A round is one pass over each input. An operation is one pass; it
    fails when it raises, when its outputs differ from the first pass
    over the same input, or when the input's scores fail a check.
    """

    def __init__(self, workload, seed: int, seconds: float, workdir: str):
        self.wl = workload
        self.seconds = seconds
        self.workdir = workdir
        self.inputs = [Input(seed + k) for k in range(workload.inputs_per_run)]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []

    def setup(self, times: int) -> None:
        """Set every input up, and some again until there were `times`
        setups; the files of a repeated setup are byte-identical."""
        for i in range(max(times, len(self.inputs))):
            inp = self.inputs[i % len(self.inputs)]
            d = os.path.join(self.workdir, f"input{inp.seed}")
            os.makedirs(d, exist_ok=True)
            t0 = time.perf_counter()
            inp.files = self.wl.setup(d, inp.seed)
            self.setup_s.append(time.perf_counter() - t0)

    def _fail(self, problems: list[str], passes: int = 1) -> None:
        self.problems += problems
        print("perfbench: " + "; ".join(problems), file=sys.stderr)
        self.failed += passes

    def one_pass(self, inp: Input, tracer=None):
        """Run one pass over an input and compare its outputs with the
        first pass's; returns (wall seconds, PassResult), or None."""
        self.attempted += 1
        out = os.path.join(self.workdir, f"pass{self.attempted:03d}")
        try:
            try:
                if tracer is not None:
                    tracer.install()
                t0 = time.perf_counter()
                res = self.wl.run_pass(inp.files, out)
                wall = time.perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.uninstall()
            got = digest(res.outputs)
        except Exception:   # a failed pass is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return None
        inp.digest = inp.digest or got
        if got != inp.digest:
            self._fail([f"input {inp.seed}: outputs differ from the first "
                        f"pass's"])
            return None
        inp.passes += 1
        inp.scores = res.scores or inp.scores
        inp.map_path = inp.map_path or (res.outputs[0] if not res.scores else "")
        return wall, res

    def rounds(self, one_round) -> None:
        """Closed loop: run rounds while another one brings the measured
        time closer to the run's measuring time; one_round returns its
        measured seconds, or None when a pass failed. Checks are not
        measured."""
        measured = 0.0
        while True:
            round_s = one_round()
            if round_s is None:
                return
            measured += round_s
            if self.failed or measured + round_s / 2 > self.seconds:
                return

    def check_scores(self) -> None:
        """Score each input's output map once (its passes wrote the same
        bytes) and check the scores; a failure fails the input's passes."""
        for inp in self.inputs:
            passes = inp.passes
            if not passes:
                continue
            try:
                if inp.map_path:
                    inp.scores = {"geo_f30": geo_f30(inp.map_path,
                                                     inp.files.truth)}
            except Exception:
                traceback.print_exc()
                self.failed += passes
                continue
            problems = check_scores(self.wl.name, inp.seed, inp.scores)
            if problems:
                self._fail([f"input {inp.seed}: {p}" for p in problems], passes)

    def mean_score(self, name: str) -> float:
        return statistics.fmean(inp.scores[name] for inp in self.inputs)


def _percentile_us(gaps: list[float], q: int) -> float:
    return statistics.quantiles(gaps, n=100)[q - 1] * 1e6


def measure_untraced(run: Run) -> tuple[dict, dict]:
    def one_round():
        total = 0.0
        for inp in run.inputs:
            got = run.one_pass(inp)
            if got is None:
                return None
            inp.walls.append(got[0])
            inp.results.append(got[1])
            total += got[0]
        return total

    run.rounds(one_round)
    rss = peak_rss_mb()     # before scoring, which is not the workload
    run.check_scores()
    if run.failed:
        return {}, {}
    # one pass over every input, each at its median pass time
    round_s = sum(statistics.median(inp.walls) for inp in run.inputs)
    items = sum(inp.results[0].items for inp in run.inputs)
    metrics = {
        "setup_s": statistics.median(run.setup_s),
        "items_per_s": items / round_s,
        "geo_f30": run.mean_score("geo_f30"),
        "peak_rss_mb": rss,
    }
    # the per-workload view of the same run, under the names that
    # README.md uses
    detail = {
        "inputs": [{"seed": inp.seed, "pass_walls_s": inp.walls,
                    "items": inp.results[0].items, "digest": inp.digest,
                    "scores": inp.scores} for inp in run.inputs],
        "item_unit": run.wl.item_unit,
        "round_s": {"value": round_s, "unit": "s"},
        "error_rate": {"value": run.failed / run.attempted, "unit": "ratio"},
    }
    name = run.wl.name
    if name == "offline_city":
        detail["offline_fixes_per_s"] = {"value": items / round_s,
                                         "unit": "fixes/s"}
    elif name == "online_city":
        detail["online_pairs_per_s"] = {"value": items / round_s,
                                        "unit": "pairs/s"}
        results = [r for inp in run.inputs for r in inp.results]
        for q in (50, 99):
            detail[f"online_pair_p{q}_us"] = {
                "value": statistics.median(_percentile_us(r.pair_gaps_s, q)
                                           for r in results),
                "unit": "us", "samples_per_pass": results[0].items,
                "samples_beyond_per_pass": results[0].items * (100 - q) // 100}
    else:
        detail["eval_s"] = {"value": round_s, "unit": "s"}
        detail["topo_f30"] = {"value": run.mean_score("topo_f30"),
                              "unit": "ratio"}
    return metrics, detail


def _stage_problems(tracer, first_span: int, stats) -> list[str]:
    """Traced stage spans against PipelineStats.timings of one pass."""
    spans = {s.name: s for s in tracer.spans[first_span:]}
    problems = []
    for stage, key in PIPELINE_STAGES.items():
        timed = stats.timings[stage]
        span = spans.get(key)
        if span is None:
            problems.append(f"no traced span for stage {stage}")
            continue
        if abs(timed - (span.end - span.start)) > STAGE_TOL_S + STAGE_TOL_SHARE * timed:
            problems.append(f"stage {stage}: PipelineStats {timed:.4f} s, "
                            f"span {span.end - span.start:.4f} s")
    return problems


def measure_traced(run: Run) -> tuple[dict, dict]:
    """Over each input, an untraced pass and then a traced one, which
    must write the same bytes; on offline_city the traced stage spans
    must agree with the PipelineStats timings of the same pass."""
    tracer = Tracer(TARGETS)
    plain, traced = [], []
    stage_checks = 0

    def one_round():
        nonlocal stage_checks
        total = 0.0
        for inp in run.inputs:
            got = run.one_pass(inp)
            if got is None:
                return None
            plain.append(got[0])
            first_span = len(tracer.spans)
            got = run.one_pass(inp, tracer)
            if got is None:
                return None
            traced.append(got[0])
            total += plain[-1] + traced[-1]
            if got[1].stats is not None:
                stage_checks += 1
                problems = _stage_problems(tracer, first_span, got[1].stats)
                if problems:
                    run._fail(problems)
                    return None
        return total

    run.rounds(one_round)
    run.check_scores()
    if run.failed:
        return {}, {}
    metrics = layer_metrics(tracer, len(traced), sum(traced))
    metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                       / statistics.median(plain) - 1.0)
    if metrics["trace.other_s"] < -STAGE_TOL_S:
        run._fail(["layer self times add up to more than the traced "
                   "wall time"])
    detail = {"untraced_walls_s": plain, "traced_walls_s": traced,
              "stage_checks": stage_checks,
              "inputs": [{"seed": inp.seed, "digest": inp.digest,
                          "scores": inp.scores} for inp in run.inputs],
              "spans": [[s.name, s.end - s.start, s.parent]
                        for s in tracer.spans]}
    return metrics, detail


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, dict]:
    """One run; returns (result object, report)."""
    wl = WORKLOADS[workload](FULL)
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        run = Run(wl, seed, seconds, workdir)
        run.setup(0 if trace else SETUPS)
        metrics, detail = (measure_traced if trace else measure_untraced)(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()     # only when no other run is using it
        except OSError:
            pass
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    correct = (run.failed == 0 and not run.problems
               and set(metrics) == set(units))
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items() if k in metrics},
    }
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(),
              "setup_s": run.setup_s, "problems": run.problems, **detail}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="generator seed of the workload's inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    result, report = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
