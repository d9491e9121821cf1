"""Repeat run.py over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workload fading-mse --seeds 1-10 [--trace 0] [--out FILE]

For each metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median, and
checks the spread against the metric's bound in BENCHMARK.json.  ``--out``
writes the per-seed values and the summary as JSON (the form of the files in
perfbench/baselines/).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        env = next((json.loads(ln[5:]) for ln in lines if ln.startswith("env: ")), None)
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    summary = {}
    ok = all(r["correct"] for r in runs)
    for name in runs[0]["metrics"]:
        s = summarise([r["metrics"][name]["value"] for r in runs])
        s["unit"] = runs[0]["metrics"][name]["unit"]
        summary[name] = s
        bound = bounds.get(name)
        flag = ""
        if bound is not None and s["spread"] is not None:
            flag = "  (within a third of the bound)" if s["spread"] < bound / 3 else (
                "  (within the bound)" if s["spread"] <= bound else "  ABOVE THE BOUND")
            if name != "setup_s":
                ok = ok and s["spread"] <= bound
        spread = f"{s['spread']:.2%}" if s["spread"] is not None else "n/a"
        print(f"{name}: median {s['median']:.6g} {s['unit']}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
              f"spread {spread}" + (f" of bound {bound:.0%}" if bound else "") + flag)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "run_seconds": bench["run_seconds"], "env": env, "runs": runs,
                       "summary": summary}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
