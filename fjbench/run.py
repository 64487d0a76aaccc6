"""Run one fjgraphs benchmark workload and print its metrics as one JSON line.

    python3 fjbench/run.py --workload graphs_sparse --seed 3 --seconds 30 --trace 0

A run repeats the workload's fixed batch of operations (one round) for about
--seconds seconds (default: run_seconds of BENCHMARK.json), in whole rounds,
and reports the median round.  Every time is scaled to a fixed host speed by
the reference samples of hostspeed.py.  The outputs of every round are
checked by checks.py in a forked child, outside the timed window and outside
the run's peak memory.  With --trace 0 the run reports the end_to_end
metrics of BENCHMARK.json; with --trace 1 it alternates untraced and traced
rounds and reports the per_layer metrics.  A record of every round is written
to .fjbench_out/ at the root of the checkout.
"""

import os

# One caller and no helper threads: keep BLAS single-threaded (set before numpy loads).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".fjbench_out"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 9


def load_program() -> None:
    """Import fjgraphs from the checkout's src/ and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fjgraphs
    except ImportError as exc:
        raise SystemExit(f"fjbench: cannot import fjgraphs from {src}: {exc}")
    if Path(fjgraphs.__file__).resolve().parent != src / "fjgraphs":
        raise SystemExit(f"fjbench: fjgraphs was imported from {fjgraphs.__file__}, not from {src}")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[w["name"] for w in BENCH["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe_setup(args) -> float:
    """
    Seconds from starting a fresh interpreter to the point where the first
    operation would run, scaled by reference samples taken just before and after.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    refs = [hostspeed.reference() for _ in range(3)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line != "ready\n":
        raise SystemExit(f"fjbench: set-up probe failed with status {proc.returncode}")
    refs += [hostspeed.reference() for _ in range(3)]
    return elapsed * hostspeed.REFERENCE_S / statistics.median(refs)


def check_in_child(check, outputs) -> list[str]:
    """Run ``check`` in a forked child, so its memory never counts toward the run's peak."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                problems = check(outputs)
            except Exception:
                problems = ["check raised " + traceback.format_exc()]
            with os.fdopen(write_fd, "w") as fh:
                json.dump(problems, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    try:
        return json.loads(data) if status == 0 else [f"check process ended with status {status}"]
    except ValueError:
        return ["check process wrote no result"]


class Run:
    """Rounds of one workload on one seed, with the counts and records they leave."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.inputs = workloads.make_inputs(workload, seed)
        self.sampler = hostspeed.Sampler()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.records: list[dict] = []

    def rounds(self, budget: float, tracer=None, between=None) -> list[dict]:
        """
        Whole rounds until another average round would overrun ``budget``
        seconds.  With a ``tracer`` the rounds come in pairs, untraced then
        traced.  ``between`` runs before each round and after the last, so
        that what it measures is spread over the run.
        """
        done = []
        started = time.perf_counter()
        self.sampler.install()
        try:
            while True:
                for traced in (False, True) if tracer is not None else (False,):
                    if between is not None:
                        between()
                    done.append(self.one_round(tracer if traced else None))
                elapsed = time.perf_counter() - started
                if elapsed + elapsed / len(done) > budget:
                    if between is not None:
                        between()
                    return done
        finally:
            self.sampler.uninstall()

    def one_round(self, tracer) -> dict:
        if tracer is not None:
            tracer.reset()
            tracer.install()
            self.sampler.on_sample = tracer.exclude
        record = {"traced": tracer is not None, "raw_s": 0.0, "wall_s": 0.0, "ops": {}}
        round_start = time.perf_counter()
        try:
            for step in workloads.steps(self.workload, self.inputs, self.seed):
                outputs, failed = [], False
                for name, op in step.ops:
                    self.attempted += 1
                    self.sampler.resume()
                    start = time.perf_counter()
                    try:
                        out, error = op(outputs), None
                    except Exception:  # a failed operation is counted and the run goes on
                        out, error = None, traceback.format_exc()
                    end = time.perf_counter()
                    self.sampler.pause()
                    elapsed = end - start - self.sampler.spent_between(start, end)
                    scaled = elapsed * self.sampler.scale_between(start, end)
                    if isinstance(out, workloads.CliRun):
                        if tracer is not None:
                            tracer.add("cli.report_bytes", len(out.text.encode()))
                        if out.code == 2:
                            error = "refused with exit status 2"
                    if error:
                        self.failed += 1
                        failed = True
                        print(f"fjbench: {name} failed: {error}", file=sys.stderr)
                    record["raw_s"] += elapsed
                    record["wall_s"] += scaled
                    record["ops"][name] = scaled
                    outputs.append(out)
                if not failed:  # a failed step is already counted in `failed`
                    self.problems += [f"{step.label}: {p}" for p in check_in_child(step.check, outputs)]
        finally:
            if tracer is not None:
                tracer.uninstall()
                self.sampler.on_sample = None
        refs = self.sampler.reference_between(round_start, time.perf_counter())
        record["reference_s"] = statistics.median(refs) if refs else None
        record["samples"] = len(refs)
        if tracer is not None:
            scale = record["wall_s"] / record["raw_s"]
            record["layers"] = {
                name: value * scale if name.endswith(".self_s") else value
                for name, value in tracer.snapshot().items()
            }
        self.records.append(record)
        return record


def main(args: argparse.Namespace) -> int:
    run = Run(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup = []
    if args.trace:
        names = [m["name"] for m in BENCH["per_layer"] if m["name"] != "trace.overhead_s"]
        measured = run.rounds(args.seconds, tracer=spans.Tracer(names))
        pairs = list(zip(measured[::2], measured[1::2]))
        values = {name: statistics.median(traced["layers"][name] for _, traced in pairs) for name in names}
        # adjacent rounds, so that the host's drift between them mostly cancels
        values["trace.overhead_s"] = statistics.median(traced["wall_s"] - plain["wall_s"] for plain, traced in pairs)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in BENCH["per_layer"]}
    else:
        measured = run.rounds(args.seconds, between=lambda: setup.append(probe_setup(args)))
        while len(setup) < SETUP_PROBES:
            setup.append(probe_setup(args))
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r["wall_s"] for r in measured),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in BENCH["end_to_end"]}

    # No workload holds an operation that is meant to fail, so a failure is an error
    # of the program: a run that raised quickly must not pass as a fast one.
    correct = not run.problems and run.failed == 0
    for problem in run.problems:
        print(f"fjbench: check failed: {problem}", file=sys.stderr)
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    detail = {"args": vars(args), "setup_s": setup, "rounds": run.records, "problems": run.problems, "result": result}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    ARGS = parse_args()
    load_program()
    import spans
    import workloads

    sys.exit(main(ARGS))
