#!/usr/bin/env python3
"""Layered end-to-end benchmark of weakgpu.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steady K [--workload NAME] [--seconds S] [--trace 0|1]

Run from the repository root. It builds the `weakgpu` binary and the
benchmark's own `perfbench` program (into $CARGO_TARGET_DIR, default
`.bench_build`), then measures one workload for about S seconds:

* `--trace 0` drives the `weakgpu` binary as a user does (`sweep`, or a
  `serve` daemon through the `perfbench serve` client) and reports the
  end-to-end metrics of BENCHMARK.json, each the median over the run's
  passes.
* `--trace 1` alternates an untraced pass with the tracer
  (`perfbench trace`), which calls each layer's public functions with a
  span around each call, and reports the per-layer metrics, each the
  median over the pairs. Spans and self times go to
  `.perfbench_work/<workload>/spans.txt`.

Every pass is checked before its numbers count (see README.md). The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. `--steady K` runs the single-run mode K times with seeds 1..K
and prints each metric's spread against its bound in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

ROOT = HERE.parent
# Reports, caches and spans of the current workload; set by run_once.
WORK = ROOT / ".perfbench_work"

# Each workload's fixed settings. Worker count 2 is the 2-core host the
# benchmark was calibrated on; it is recorded next to nproc in every
# output.
WORKLOADS = {
    "sweep-validate": {
        "kind": "sweep",
        "family": "paper",
        "chips": None,  # the CLI default: the 5 tabled Nvidia chips
        "num_chips": 5,
        "iterations": 40,
        "workers": 2,
        "op": "simulated run",
    },
    "sweep-judge": {
        "kind": "sweep",
        "family": "paper",
        "chips": "titan",
        "num_chips": 1,
        "iterations": 1,
        "workers": 1,
        "op": "cell",
    },
    "serve-mixed": {
        "kind": "serve",
        "requests": 6000,
        "workers": 1,
        "op": "request",
    },
}

# Smaller sizes for the benchmark's own smoke tests; the same code and
# the same correctness gate.
SMOKE = {
    "sweep-validate": {"family": "small", "iterations": 20},
    "sweep-judge": {"family": "small"},
    "serve-mixed": {"requests": 300},
}

# Hard stop for any single child process, well inside the 180 s a run
# may take.
CHILD_TIMEOUT_S = 150
MIN_PASSES = 3
# Sweep set-up samples, from extra launches stopped once the family is
# generated. Set-up is a few tenths of a second, and on the 2-vCPU VM the
# benchmark was calibrated on it ran up to 50 % slower for a few seconds
# at a time, as did the first launches after a large process had exited.
# So each sample is the fastest of SETUP_TRIES launches, SETUP_ROUNDS
# samples are spread evenly over the run, and `setup_s` is their median.
# The set-up of a pass, which always follows a pass, is not sampled.
SETUP_ROUNDS = 5
SETUP_TRIES = 4


class BenchError(Exception):
    """A failure that leaves nothing to report (build, spawn, timeout)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cargo_env():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    return env


def target_dir(env):
    return (ROOT / env["CARGO_TARGET_DIR"]).resolve()


def build():
    """Builds `weakgpu` and `perfbench`; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"{ROOT} is not a weakgpu checkout (no Cargo.toml / crates)")
    env = cargo_env()
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "weakgpu"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        # Cargo's progress goes to stderr; stdout stays for results.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = target_dir(env) / "release"
    return release / "weakgpu", release / "perfbench"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def one_cpu():
    """Confines the calling process, and the children it spawns after,
    to one CPU.

    The serve client and its daemon run this way. With one request in
    flight the two never run at once. Split over two CPUs, sessions on the
    2-vCPU VM the benchmark was calibrated on ran up to 1.6x slower for
    minutes at a time; a likely cause is that every request must wake a
    vCPU that went idle, and on one CPU the hand-over needs no wake-up.
    On a quiet host, sessions on one CPU were no slower."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_json_lines(cmd, preexec_fn=None):
    """Runs a child to completion and returns its stdout JSON lines."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              preexec_fn=preexec_fn)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out: {' '.join(map(str, cmd))}") from e
    if done.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return [json.loads(line) for line in done.stdout.splitlines() if line.strip()]


# ---------------------------------------------------------------- sweeps


def sweep_pass(weakgpu, cfg, seed, report_path):
    """One `weakgpu sweep` as a user runs it. Returns (measurements,
    report, failures)."""
    cmd = sweep_command(weakgpu, cfg, seed, report_path)
    if report_path.exists():
        report_path.unlink()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    setup_s = None
    tail = []
    try:
        for line in proc.stderr:
            if setup_s is None and line.startswith("sweep: family"):
                setup_s = time.perf_counter() - t0
            tail = (tail + [line.rstrip()])[-5:]
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    if proc.returncode != 0 or setup_s is None or not report_path.exists():
        return None, None, f"sweep exited {proc.returncode}: {' | '.join(tail)}"
    report = json.loads(report_path.read_text())
    expected_runs = report["cells"] * cfg["iterations"]
    problems = []
    if report["unsound_cells"] != 0:
        problems.append(f"{report['unsound_cells']} unsound cells")
    if report["tests_run"] != report["family_size"] or report["cells"] != report["family_size"] * cfg["num_chips"]:
        problems.append("cell count does not cover the family")
    if report["total_runs"] != expected_runs:
        problems.append(f"total_runs {report['total_runs']} != {expected_runs}")
    if report["seed"] != seed or report["iterations"] != cfg["iterations"]:
        problems.append("report echoes another seed or iteration count")
    ops = report["total_runs"] if cfg["op"] == "simulated run" else report["cells"]
    m = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "ops_per_s": ops / wall_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    return m, report, "; ".join(problems) or None


def sweep_command(weakgpu, cfg, seed, report_path):
    cmd = [
        str(weakgpu), "sweep",
        "--family", cfg["family"],
        "--iterations", str(cfg["iterations"]),
        "--seed", str(seed),
        "--parallelism", str(cfg["workers"]),
        "--out", str(report_path),
    ]
    if cfg["chips"]:
        cmd += ["--chips", cfg["chips"]]
    return cmd


def setup_probe(weakgpu, cfg, seed):
    """Seconds from spawning a sweep until it has generated its family;
    the sweep is stopped there."""
    cmd = sweep_command(weakgpu, cfg, seed, WORK / "probe-report.json")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        for line in proc.stderr:
            if line.startswith("sweep: family"):
                return time.perf_counter() - t0
        raise BenchError(f"sweep exited before generating its family: {' '.join(cmd)}")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def sweep_untraced(weakgpu, cfg, seed, seconds):
    passes, attempted, failed, errors, reports, setups = [], 0, 0, [], [], []
    report_path = WORK / "sweep-report.json"
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        if len(setups) < SETUP_ROUNDS and time.perf_counter() - start >= len(setups) * seconds / SETUP_ROUNDS:
            setups.append(min(setup_probe(weakgpu, cfg, seed) for _ in range(SETUP_TRIES)))
        m, report, problem = sweep_pass(weakgpu, cfg, seed, report_path)
        cells = report["cells"] if report else 1
        attempted += cells
        if problem:
            failed += report["unsound_cells"] if report and report["unsound_cells"] else cells
            errors.append(problem)
            break
        passes.append(m)
        reports.append(report)
    return passes, attempted, failed, errors, reports, setups


TOTAL_KEYS = ("cells", "unsound_cells", "total_runs", "total_witnesses", "witnessed_cells", "per_chip")


def sweep_traced(weakgpu, perfbench, cfg, seed, seconds):
    """Untraced pass, then the tracer, repeated; layers per pair."""
    pairs, attempted, failed, errors = [], 0, 0, []
    report_path = WORK / "sweep-report.json"
    spans_path = WORK / "spans.txt"
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        m, report, problem = sweep_pass(weakgpu, cfg, seed, report_path)
        attempted += report["cells"] if report else 1
        if problem:
            failed += report["cells"] if report else 1
            errors.append(problem)
            break
        cmd = [
            str(perfbench), "trace",
            "--workload", cfg["name"],
            "--family", cfg["family"],
            "--iterations", str(cfg["iterations"]),
            "--workers", str(cfg["workers"]),
            "--seed", str(seed),
            "--spans-out", str(spans_path),
        ]
        if cfg["chips"]:
            cmd += ["--chips", cfg["chips"]]
        (traced,) = run_json_lines(cmd)
        attempted += traced["attempted"]
        mismatched = [k for k in TOTAL_KEYS if traced["totals"][k] != report[k]]
        if traced["failed"] or mismatched:
            failed += traced["attempted"]
            errors.append(f"traced run differs from the untraced report on {mismatched or 'soundness'}")
            break
        layers = dict(traced["layers"])
        layers["axiom.cache.dup_misses"] = report["cache"]["misses"] - report["cache"]["entries"]
        layers["trace.overhead_ratio"] = traced["wall_s"] / m["wall_s"]
        for k in SERVE_LAYERS:
            layers[k] = 0.0
        layers["_traced_wall_s"] = traced["wall_s"]
        pairs.append(layers)
    return pairs, attempted, failed, errors


# ----------------------------------------------------------------- serve

SERVE_LAYERS = ("harness.serve.hit_latency_p50_us", "harness.serve.miss_latency_p50_us", "harness.serve.self_us_p50")


def warm_cache(weakgpu):
    """The cache file the daemon starts from: every small-family shape,
    judged by an untimed sweep."""
    path = WORK / "small-family.wgc"
    if path.exists():
        path.unlink()
    cmd = [
        str(weakgpu), "sweep", "--family", "small", "--chips", "titan",
        "--iterations", "1", "--parallelism", "1", "--cache-file", str(path),
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0 or not path.exists():
        raise BenchError(f"building the warm cache failed: {done.stderr.strip()[-2000:]}")
    return path


def latencies(session, classes=("first", "repeat", "warm")):
    out = []
    for c in classes:
        out += session[f"latency_us_{c}"]
    return out


def serve_untraced(weakgpu, perfbench, cfg, seed, seconds, cache):
    lines = run_json_lines([
        str(perfbench), "serve",
        "--weakgpu", str(weakgpu), "--cache", str(cache), "--work-dir", str(WORK),
        "--seed", str(seed), "--requests", str(cfg["requests"]), "--seconds", str(seconds),
    ], preexec_fn=one_cpu)
    stream = lines[0]["stream"]
    sessions = [ln["session"] for ln in lines[1:]]
    passes, attempted, failed, errors, lat = [], 0, 0, [], []
    for s in sessions:
        attempted += s["attempted"]
        failed += s["failed"]
        if s["failed"]:
            errors.append(s["first_error"])
            continue
        passes.append({
            "wall_s": s["wall_s"],
            "setup_s": s["setup_s"],
            "ops_per_s": s["attempted"] / s["wall_s"],
            "peak_rss_mb": s["peak_rss_kb"] / 1024.0,
        })
        lat += latencies(s)
    return passes, attempted, failed, errors, {"stream": stream, "latencies_us": lat}


def serve_traced(weakgpu, perfbench, cfg, seed, seconds, cache):
    pairs, attempted, failed, errors = [], 0, 0, []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        (t,) = run_json_lines([
            str(perfbench), "trace", "--workload", "serve-mixed",
            "--weakgpu", str(weakgpu), "--cache", str(cache), "--work-dir", str(WORK),
            "--seed", str(seed), "--requests", str(cfg["requests"]),
            "--spans-out", str(WORK / "spans.txt"),
        ], preexec_fn=one_cpu)
        s = t["session"]
        attempted += t["attempted"] + s["attempted"]
        if t["failed"] or s["failed"]:
            failed += t["failed"] + s["failed"]
            errors.append(t["first_error"] or s["first_error"])
            break
        # Request 0 is the set-up probe; the session times the rest.
        classes, traced_us = t["classes"][1:], t["traced_us"][1:]
        by_class = {c: iter(s[f"latency_us_{c}"]) for c in ("first", "repeat", "warm")}
        measured = [next(by_class[c]) for c in classes]
        layers = dict(t["layers"])
        layers["axiom.cache.dup_misses"] = 0
        layers["trace.overhead_ratio"] = t["wall_s"] / s["wall_s"]
        layers["harness.serve.hit_latency_p50_us"] = stats.percentile(latencies(s, ("repeat", "warm")), 50)
        layers["harness.serve.miss_latency_p50_us"] = stats.percentile(s["latency_us_first"], 50)
        layers["harness.serve.self_us_p50"] = stats.percentile(
            [lat - tr for lat, tr in zip(measured, traced_us)], 50)
        layers["_traced_wall_s"] = t["wall_s"]
        pairs.append(layers)
    return pairs, attempted, failed, errors


# --------------------------------------------------------------- output


def load_contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind):
    """Name -> unit of the contract's `end_to_end` or `per_layer` metrics,
    in contract order; the run reports exactly these."""
    return {m["name"]: m["unit"] for m in load_contract()[kind]}


def medians(samples, names):
    out = {}
    for name in names:
        values = [s[name] for s in samples]
        out[name] = stats.summary(values)
    return out


def print_table(title, summ, units):
    print(title)
    for name, s in summ.items():
        print(f"  {name:<36} {s['median']:>14.6g} {units[name]:<6} "
              f"(median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")


def shares(layers):
    """Self-time shares of the traced pass, for the stress check."""
    wall = layers["_traced_wall_s"]
    sim = layers["sim.compile_s"] + layers["sim.run_s"]
    axiom_diy = layers["diy.generate_s"] + sum(
        layers[k] for k in layers if k.startswith("axiom.") and k.endswith("_s"))
    return {
        "sim": sim / wall,
        "axiom+diy+sim.compile": (axiom_diy + layers["sim.compile_s"]) / wall,
    }


def run_once(args):
    global WORK
    WORK = ROOT / ".perfbench_work" / args.workload
    cfg = dict(WORKLOADS[args.workload], name=args.workload)
    if args.smoke:
        cfg.update(SMOKE[args.workload])
    WORK.mkdir(parents=True, exist_ok=True)
    weakgpu, perfbench = build()
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "workers": cfg["workers"],
        "iterations": cfg.get("iterations"),
        "family": cfg.get("family"),
        "chips": cfg.get("chips") or ("default (5 tabled Nvidia)" if cfg["kind"] == "sweep" else None),
        "requests": cfg.get("requests"),
        "op": cfg["op"],
        "build_profile": "release",
        "git_commit": git_commit(),
        "smoke": args.smoke,
    }
    extra = {}
    if cfg["kind"] == "serve":
        cache = warm_cache(weakgpu)
        if args.trace:
            samples, attempted, failed, errors = serve_traced(weakgpu, perfbench, cfg, args.seed, args.seconds, cache)
        else:
            samples, attempted, failed, errors, extra = serve_untraced(
                weakgpu, perfbench, cfg, args.seed, args.seconds, cache)
    elif args.trace:
        samples, attempted, failed, errors = sweep_traced(weakgpu, perfbench, cfg, args.seed, args.seconds)
    else:
        samples, attempted, failed, errors, reports, setups = sweep_untraced(weakgpu, cfg, args.seed, args.seconds)
        extra["setups"] = setups
        if reports:
            c = reports[-1]["cache"]
            extra["cache"] = {"entries": c["entries"], "misses": c["misses"], "hits": c["hits"]}
    facts["passes"] = len(samples)
    print("facts " + json.dumps(facts, sort_keys=True))
    if errors:
        for e in errors[:5]:
            log(f"correctness gate: {e}")

    metrics = {}
    correct = not failed and not errors and bool(samples)
    if samples:
        if args.trace:
            units = metric_units("per_layer")
            summ = medians(samples, units)
            print_table(f"per-layer metrics, {args.workload} (tracer; spans in {WORK / 'spans.txt'})",
                        summ, units)
            sh = {k: stats.summary([shares(s)[k] for s in samples])["median"] for k in ("sim", "axiom+diy+sim.compile")}
            print(f"  self-time share of the traced pass: sim.* {sh['sim']:.1%}, "
                  f"axiom.*+diy.*+sim.compile {sh['axiom+diy+sim.compile']:.1%}")
            summary_path = WORK / "trace-summary.json"
            summary_path.write_text(json.dumps({"facts": facts, "layers": summ, "shares": sh}, indent=1))
        else:
            units = metric_units("end_to_end")
            summ = medians(samples, units)
            if "setups" in extra:
                summ["setup_s"] = stats.summary(extra["setups"])
            print_table(f"end-to-end metrics, {args.workload} (op = {cfg['op']})", summ, units)
            named = {"sweep-validate": "sim_runs_per_s", "sweep-judge": "cells_per_s", "serve-mixed": "req_per_s"}
            print(f"  {named[args.workload]:<36} {summ['ops_per_s']['median']:>14.6g} 1/s    (= ops_per_s)")
            if "latencies_us" in extra and extra["latencies_us"]:
                lat = extra["latencies_us"]
                for p in (50, 99):
                    print(f"  {f'latency_p{p}_us':<36} {stats.percentile(lat, p):>14.6g} us     "
                          f"({stats.beyond(len(lat), p)} of {len(lat)} samples beyond)")
                # The highest percentile the sample count supports.
                tail = stats.tail_percentile(lat)
                if tail:
                    p, v, n_beyond = tail
                    print(f"  {'latency_p' + format(p, 'g') + '_us':<36} {v:>14.6g} us     "
                          f"({n_beyond} of {len(lat)} samples beyond)")
                print(f"  stream: {json.dumps(extra['stream'], sort_keys=True)}")
            if "cache" in extra:
                c = extra["cache"]
                print(f"  verdict cache: {c['entries']} entries, {c['misses']} misses "
                      f"({c['misses'] - c['entries']} duplicate enumerations), {c['hits']} hits")
        for name, s in summ.items():
            metrics[name] = {"value": s["median"], "unit": units[name]}
    print(f"  error_rate {failed / max(attempted, 1):.6g} ({failed} of {attempted} operations failed)")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def steady(args):
    """Runs the benchmark k times per workload and prints each metric's
    spread (interquartile distance over median) against its bound."""
    contract = load_contract()
    metric_defs = contract["per_layer"] if args.trace else contract["end_to_end"]
    workloads = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    seconds = args.seconds or contract["run_seconds"]
    worst = 0.0
    for w in workloads:
        runs = []
        for seed in range(1, args.steady + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else None
            if done.returncode != 0 or not last or not last["correct"]:
                print(f"{w} seed {seed}: FAILED\n{done.stderr[-2000:]}")
                return 1
            runs.append(last["metrics"])
            log(f"{w} seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()))
        print(f"== {w}: {len(runs)} runs of {seconds} s")
        for m in metric_defs:
            values = [r[m["name"]]["value"] for r in runs]
            s = stats.summary(values)
            sp = stats.spread(values)
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if sp < bound / 3 else ("within bound" if sp <= bound else "TOO NOISY")
                worst = max(worst, sp / bound)
            print(f"  {m['name']:<36} median {s['median']:.6g} {m['unit']} (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
                  f"n {s['n']}) spread {sp:.2%}" + (f" vs bound {bound:.0%}: {verdict}" if bound else ""))
    if not args.trace:
        print(f"worst spread / bound: {worst:.2f}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="K", help="run K seeds per workload and print spreads")
    p.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    os.chdir(ROOT)
    try:
        if args.steady:
            return steady(args)
        if not args.workload:
            p.error("--workload is required")
        if args.seconds is None:
            args.seconds = 10.0
        return run_once(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
