"""The multicut benchmark: one named workload, timed end to end or traced.

    python3 perfbench/run.py --workload desk-cs2 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``). Every repetition is a fresh ``python3 perfbench/probe.py``
process that calls ``multicut.cli.main`` with ``--workers 1`` and BLAS
pinned to one thread. ``--seed`` is passed on as the program's sampling
seed; a workload that needs several seeds to average out their effect on
the work adds seeds derived from it. Repetitions come in rounds of one per
seed, and a round starts while it still fits in ``--seconds``. Repetitions
of one seed must agree byte for byte.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` interleaves
traced and untraced repetitions and reports the per-layer metrics, the
exact counts and the tracing overhead. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``. A
fuller record, with the run environment, goes to
``.perfbench-out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from analysis import (check_outputs, exact_block, final_gap, layer_metrics,
                      rep_layers, sha256_file, timing_summary, ARTIFACTS)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ".perfbench-out"
RUN_DEADLINE_S = 170.0   # a run must end within 180 s, reps included
# Fastest time of probe.reference_loop() on the machine the benchmark was
# built on (2-vCPU Xeon VM, Python 3.11, numpy 2.4); timings are reported
# at this reference speed.
REFERENCE_S = 0.0085
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str         # "solve" (fixed iterations) or "verify" (oracle check)
    preset: str
    selector: str
    iterations: int
    scenarios: int
    seeds: int = 1       # sampling seeds per run; see run_seeds()

    def argv(self, seed: int, out: Path) -> list[str]:
        args = [self.command, "--preset", self.preset, "--selector", self.selector,
                "--seed", str(seed), "--scenarios", str(self.scenarios),
                "--max-iters", str(self.iterations), "--workers", "1",
                "--out", str(out)]
        if self.command == "solve":
            args += ["--epsilon", "1e-12"]   # never converges: fixed iterations
        return args

    @property
    def expect_exit(self) -> int:
        return 2 if self.command == "solve" else 0

    @property
    def expect_iterations(self):
        return self.iterations if self.command == "solve" else None


# Each preset keeps its T, M and n; only N and the iteration count are set
# here, so one repetition takes seconds. desk-cs2's work depends on the
# sampled scenarios (stage-LP pivots vary by 12-21% between seeds at any N),
# so a run solves it for four seeds and sums; the other two do the same
# work on every seed. See README.md for why these three.
WORKLOADS = {w.name: w for w in (
    Workload("desk-cs2", "solve", "portfolio-T5n4-desk", "cs2", 2, 5, seeds=4),
    Workload("inventory-muda", "solve", "inventory-T5", "muda", 2, 5),
    Workload("micro-verify-cs1", "verify", "micro-inventory-4", "cs1", 25, 16),
)}


def run_seeds(seed: int, count: int) -> list[int]:
    """The run's sampling seeds: --seed itself, then seeds derived from it."""
    return [seed] + [int(hashlib.sha256(f"{seed}/{k}".encode()).hexdigest()[:8], 16)
                     for k in range(1, count)]


def child_env(root: Path) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_rep(root: Path, workload: Workload, seed: int, traced: bool, run_id: int,
            work: Path, timeout: float) -> dict:
    """One repetition in a fresh process, with its output checks."""
    rep_dir = work / f"rep{run_id}"
    artifacts = rep_dir / "artifacts"
    rep_dir.mkdir(parents=True)
    rep = {"run_id": run_id, "seed": seed, "traced": traced, "problems": []}
    cmd = [sys.executable, str(root / "perfbench" / "probe.py"), str(rep_dir),
           str(run_id), "1" if traced else "0", "--", *workload.argv(seed, artifacts)]
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        rep["problems"].append(f"repetition timed out after {timeout:.0f} s")
        return rep
    finally:
        rep["wall_s"] = perf_counter() - start
    probe_file = rep_dir / "probe.json"
    if proc.returncode != 0 or not probe_file.is_file():
        rep["problems"].append(f"probe exited with {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        return rep
    probe = json.loads(probe_file.read_text())
    rep["problems"] = check_outputs(probe, artifacts, workload.expect_exit,
                                    workload.expect_iterations,
                                    workload.command == "verify")
    if not rep["problems"]:
        rep["hashes"] = {name: sha256_file(artifacts / name) for name in ARTIFACTS}
        rep["gap_rel"] = final_gap(artifacts)
        rep["setup_s"] = probe["setup_s"]
        rep["solve_s"] = probe["solve_s"]
        rep["units"] = probe["solve_units_s"]
        rep["cuts"] = sum(probe["cuts_added"])
        rep["peak_rss_mb"] = probe["peak_rss_mb"]
        rep["reference_s"] = probe["reference_s"]
        rep["numpy"] = probe["numpy"]
        if traced:
            rep["layers"] = rep_layers(probe)
    shutil.rmtree(rep_dir)
    return rep


def by_seed(reps: list[dict]) -> dict[int, list[dict]]:
    groups: dict[int, list[dict]] = {}
    for rep in reps:
        groups.setdefault(rep["seed"], []).append(rep)
    return groups


def check_repeats(reps: list[dict]) -> None:
    """Repetitions of one seed must agree on the artifact hashes and, when
    traced, on the exact counts; one that disagrees with the first of its
    seed counts as failed."""
    for group in by_seed([r for r in reps if not r["problems"]]).values():
        traced = [r for r in group if "layers" in r]
        for rep in group[1:]:
            if rep["hashes"] != group[0]["hashes"]:
                rep["problems"].append("artifact hashes differ between runs of one seed")
        for rep in traced[1:]:
            if rep["layers"]["counts"] != traced[0]["layers"]["counts"]:
                rep["problems"].append("exact counts differ between runs of one seed")


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  root: Path = ROOT) -> dict:
    """Rounds of repetitions, one per sampling seed, until `seconds` is
    spent; returns the record. When tracing, traced and untraced rounds
    alternate so the tracing overhead is measured in the same run."""
    work = root / OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env = environment(root, seed)
    seeds = run_seeds(seed, workload.seeds)
    min_rounds = 3 if trace else 2
    reps: list[dict] = []
    start = perf_counter()
    try:
        for rounds in itertools.count():
            traced = trace and rounds % 2 == 0
            if any(r["problems"] for r in reps):
                break
            if rounds >= min_rounds:
                per_round = (perf_counter() - start) / rounds
                if perf_counter() - start + per_round > seconds:
                    break
            for s in seeds:
                timeout = max(5.0, RUN_DEADLINE_S - (perf_counter() - start))
                reps.append(run_rep(root, workload, s, traced, len(reps), work, timeout))
                if reps[-1]["problems"]:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_repeats(reps)
    return summarize(workload, seed, trace, reps, env, root)


def fastest_solve(groups) -> float:
    """Sum over seeds of the solve time with every unit (set-up, then each
    iteration) at its fastest over that seed's repetitions."""
    return sum(sum(map(min, zip(*(r["units"] for r in group))))
               for group in groups.values())


def summarize(workload: Workload, seed: int, trace: bool, reps: list[dict],
              env: dict, root: Path) -> dict:
    """Run-level record. A timing is the sum over the run's seeds of its
    minimum over that seed's repetitions, taken per iteration for solve_s
    (median, tail percentile and count are kept beside it): on a shared
    machine slower repetitions measure interference, not the code. Metrics
    are then scaled to the reference speed by REFERENCE_S over the run's
    fastest reference loop; the unscaled values are kept in the record."""
    ok = [r for r in reps if not r["problems"]]
    failed = len(reps) - len(ok)
    plain = by_seed([r for r in ok if not r["traced"]])
    traced = by_seed([r for r in ok if r["traced"]])
    seeds = run_seeds(seed, workload.seeds)
    result = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "argv": workload.argv(seed, Path("<out>")), "sampling_seeds": seeds,
        "environment": dict(env, numpy=ok[0]["numpy"] if ok else None),
        "attempted": len(reps), "failed": failed,
        "failed_frac": failed / len(reps) if reps else 1.0,
        "problems": [f"rep {r['run_id']} (seed {r['seed']}): {p}"
                     for r in reps for p in r["problems"]],
        "repetitions": [{k: r.get(k) for k in ("run_id", "seed", "traced", "wall_s",
                                               "setup_s", "solve_s")} for r in reps],
        "metrics": {},
    }
    own = [r for r in ok if r["seed"] == seed]
    if own:
        result["golden"] = golden_status(root, workload.name, seed, own[0]["hashes"])
        result["gap_rel"] = own[0]["gap_rel"]
    if len(plain) == len(seeds):
        flat = [r for group in plain.values() for r in group]
        result["timings"] = {
            "setup_s": timing_summary([r["setup_s"] for r in flat]),
            "solve_s": timing_summary([r["solve_s"] for r in flat]),
        }
        reference_s = min(r["reference_s"] for r in ok)
        speed = REFERENCE_S / reference_s
        setup_s = sum(min(r["setup_s"] for r in group) for group in plain.values())
        solve_s = fastest_solve(plain)
        cuts = sum(g[0]["cuts"] for g in plain.values())
        result["raw"] = {"setup_s": setup_s, "solve_s": solve_s,
                         "cuts_per_s": cuts / solve_s, "reference_s": reference_s}
        result["speed_factor"] = speed
        result["metrics"] = {
            "setup_s": setup_s * speed,
            "solve_s": solve_s * speed,
            "cuts_per_s": cuts / (solve_s * speed),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in flat),
        }
    if trace and result["metrics"] and len(traced) == len(seeds):
        counts = {}
        for group in traced.values():
            for key, value in group[0]["layers"]["counts"].items():
                counts[key] = counts.get(key, 0) + value
        exact = exact_block(counts)
        values, details = layer_metrics(
            [[r["layers"] for r in group] for group in traced.values()], exact,
            result["speed_factor"])
        values["trace.overhead_s"] = (fastest_solve(traced) * result["speed_factor"]
                                      - result["metrics"]["solve_s"])
        result["exact"] = exact
        result["layer_details"] = details
        result["metrics"] = values
    return result


def golden_status(root: Path, workload: str, seed: int, hashes: dict) -> dict:
    """Artifact hashes against the golden trace stored for this seed. A
    difference is reported, not failed: an equally valid alternate optimal
    dual changes the bounds without making them wrong."""
    path = root / "perfbench" / "golden.json"
    stored = json.loads(path.read_text()).get(workload, {}).get(str(seed)) \
        if path.is_file() else None
    status = "not recorded" if stored is None else (
        "match" if stored == hashes else "differs")
    return {"status": status, "hashes": hashes, "stored": stored}


def environment(root: Path, seed: int) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "multicut").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "source_sha256": digest.hexdigest(), "seed": seed,
            "loadavg_start": list(os.getloadavg()), "pinned_env": PINNED_ENV}


def result_line(result: dict, spec: dict) -> dict:
    """The result line: every metric BENCHMARK.json lists for the mode."""
    listed = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in listed}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def render(result: dict, line: dict) -> str:
    out = [f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
           f"repetitions {result['attempted']}  failed {result['failed']} "
           f"(failed_frac {result['failed_frac']:.3g})"]
    env = result["environment"]
    out.append(f"env: nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
               f"commit {env['commit']}  source {env['source_sha256'][:12]}  "
               f"loadavg {env['loadavg_start']}")
    for name, m in line["metrics"].items():
        out.append(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    if "raw" in result:
        raw = result["raw"]
        out.append(f"  speed factor {result['speed_factor']:.4f} (fastest reference loop "
                   f"{raw['reference_s'] * 1e3:.3f} ms, nominal {REFERENCE_S * 1e3:.3f} ms); "
                   f"unscaled setup_s {raw['setup_s']:.6g} s, solve_s {raw['solve_s']:.6g} s")
    for name, t in result.get("timings", {}).items():
        tail = "n/a" if t["tail"] is None else f"p{t['tail_pct']} {t['tail']:.6g} s"
        out.append(f"  {name} per repetition: min {t['min']:.6g} s, median "
                   f"{t['median']:.6g} s, {tail}, {t['samples']} samples")
    for name, e in result.get("exact", {}).items():
        ratio = f" = {e['num']} / {e['den']}" if "num" in e else ""
        out.append(f"  exact {name:28s} {e['value']:.10g}{ratio}  ({e['basis']})")
    if "gap_rel" in result:
        out.append(f"  gap_rel {result['gap_rel']:.6g}")
    if "golden" in result:
        out.append(f"  golden trace: {result['golden']['status']}")
    out.extend(f"  FAILED {p}" for p in result["problems"])
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "multicut" / "__init__.py").is_file():
        print(f"no multicut sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace))
    if not result["metrics"]:
        print("\n".join(result["problems"]) or "no repetition finished", file=sys.stderr)
        return 1
    line = result_line(result, spec)
    out = ROOT / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1))
    print(render(result, line))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
