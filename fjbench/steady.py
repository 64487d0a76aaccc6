"""Run every workload on seeds 1 to 10 and report each metric's median and spread.

    python3 fjbench/steady.py --label A

Each run is a fresh ``run.py`` process of run_seconds (BENCHMARK.json), one
after another, workload by workload.  The spread of a metric is
(Q3 - Q1) / median over the ten runs, with the quartiles of
statistics.quantiles(values, n=4).  All results go to
.fjbench_out/steady-<label>.json as well.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--label", default="latest")
    args = p.parse_args()

    summary = {}
    for workload in (w["name"] for w in BENCH["workloads"]):
        runs = []
        for seed in SEEDS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(BENCH["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={m['value']:.4f}" for name, m in result["metrics"].items()), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"median": statistics.median(values), "spread": spread(values), "values": values}
            print(f"  {workload:14s} {name:12s} median {metrics[name]['median']:.4f}  spread {metrics[name]['spread']:.4f}")
        failed = {r["failed"] / r["attempted"] for r in runs}
        print(f"  {workload:14s} failed share {sorted(failed)}")
        summary[workload] = {"seeds": list(SEEDS), "metrics": metrics, "failed_share": sorted(failed)}

    out_dir = HERE.parent / ".fjbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"steady-{args.label}.json").write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
