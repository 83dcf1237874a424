"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/report.py --seeds 0-9 --out perfbench/results/seed_tree_trace0.json
    python3 perfbench/report.py --workloads fri_mc --seeds 0-1 --trace 1

Each (workload, seed) pair is one ``run.py`` process, run one after another,
for ``run_seconds`` from BENCHMARK.json unless ``--seconds`` says otherwise.
Traced runs also get the PGD and polish shares of the traced trial.
For every metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread: the distance between
the quartiles as a share of the median. A run that exits nonzero is reported
and fails the report.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def shares(metrics):
    """PGD and polish shares of a traced trial, from the per-layer metrics:
    PGD is both solvers' loops without their grid starts; polish is
    polish_angles with its varpro and rescan calls."""
    v = {k: m["value"] for k, m in metrics.items()}
    if not v.get("perfbench.trace.trials_per_s"):
        return {}
    trial_ms = 1e3 / v["perfbench.trace.trials_per_s"]
    pgd = sum(v[f"{p}.ms_per_iter"] * v[f"{p}.iterations_mean"] * v[f"{p}.calls"]
              for p in ("fri_uniform.pgd_denoise", "fri_nonuniform.pgd_denoise_paired"))
    polish = sum(v[f"refine.{f}.self_ms"]
                 for f in ("polish_angles", "varpro_refine", "coordinate_rescan"))
    return {"derived.pgd_share": pgd / trial_ms, "derived.polish_share": polish / trial_ms}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", help="comma list; defaults to those in BENCHMARK.json")
    p.add_argument("--seeds", default="0-9", help="a range like 0-9 or a list like 3,5,8")
    p.add_argument("--seconds", type=int, default=None,
                   help="defaults to run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write every value and the summary to this JSON file")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    report = {"seconds": seconds, "trace": args.trace, "runs": [], "summary": {}}
    ok = True
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    for workload in names:
        values = {}
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
            report["runs"].append({"workload": workload, "seed": seed, "wall_s": wall,
                                   "env": env, "result": result})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, share in shares(result["metrics"]).items():
                values.setdefault(name, []).append(share)
            print(f"{workload} seed {seed}: {wall:.1f} s, " + ", ".join(
                f"{k}={result['metrics'][k]['value']:.4g}" for k in list(result["metrics"])[:4]),
                flush=True)
        summary = report["summary"].setdefault(workload, {})
        for name, vals in values.items():
            med, q1, q3, sp = spread(vals)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                             "bound": bounds.get(name), "values": vals}
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if sp < bound / 3 else ("within bound" if sp <= bound else "TOO WIDE")
            print(f"  {workload:15s} {name:58s} median {med:11.5g} {units.get(name, ''):6s}"
                  f" spread {sp:7.2%} {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
