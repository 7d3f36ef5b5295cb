#!/usr/bin/env python3
"""Steadiness check: runs each workload N times, one seed per run, and
prints for every metric the median, the quartiles and the spread
(Q3 - Q1) / median, next to the bound BENCHMARK.json fixes for it.

    python3 perfbench/steady.py --runs 10 --seconds 10
    python3 perfbench/steady.py --runs 5 --workloads mine_stress --seed0 101

Quartiles are statistics.quantiles(values, n=4). Raw results are written
to .bench_out/steady-<workloads>-<seed0>.json. Exits 1 if any run fails or
reports correct=false, or if the failed share differs between runs.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads")
    a = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = a.seconds or bench["run_seconds"]
    names = (a.workloads.split(",") if a.workloads
             else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    raw = {}
    for w in names:
        results = []
        for i in range(a.runs):
            res = run_once(w, a.seed0 + i, seconds)
            if res is None or not res["correct"]:
                print(f"{w} seed {a.seed0 + i}: run failed or incorrect: {res}")
                ok = False
                continue
            results.append(res)
            print(f"{w} seed {a.seed0 + i}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                flush=True)
        raw[w] = results
        if not results:
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1:
            ok = False
        print(f"\n{w}: {len(results)} runs, failed share {sorted(shares)}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for m in results[0]["metrics"]:
            vals = [r["metrics"][m]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], 0, vals[0]))
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(m)
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else (
                    "WIDE" if spread > bound else "near")
            print(f"  {m:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {bound if bound is not None else '':>6} "
                  f"{flag}")
        print()
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{'_'.join(names)}-{a.seed0}.json"
    path.write_text(json.dumps(raw, indent=1))
    print(f"raw results: {path}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
