#!/usr/bin/env python3
"""End-to-end benchmark of the pamdc controller.

    python3 e2ebench/run.py --workload paper-ml|fleet-true|serve-backfill \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It release-builds the `pamdc`
binary and the in-process lanes (`e2ebench/Cargo.toml`), writes the
workload's inputs from `--seed` under `e2ebench/work/`, runs them, checks
the program's outputs, and prints as its last stdout line one JSON object:
`correct`, `attempted`, `failed` and `metrics` (every end-to-end metric
with `--trace 0`, the per-layer split with `--trace 1`). A failed output
check exits 1; a usage, build or input error exits 2 without a result.
See e2ebench/README.md for the workloads, the metrics and how each is
measured.
"""

import argparse
import collections
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SPEC_DIR = BENCH_DIR / "specs"

WORKLOADS = ("paper-ml", "fleet-true", "serve-backfill")

END_TO_END = {
    "setup_s": "s",
    "ticks_per_s": "ticks/s",
    "round_p50_ms": "ms",
    "round_p90_ms": "ms",
    "restart_s": "s",
    "peak_rss_mb": "MB",
    "profit_eur_per_h": "EUR/h",
}

PER_LAYER = {
    "scenario.build_ms": "ms",
    "ml.train_ms": "ms",
    "oracle.demand_calls": "count",
    "oracle.sla_calls": "count",
    "plan.decide_p50_ms": "ms",
    "plan.round_overhead_p50_ms": "ms",
    "engine.quiet_tick_p50_us": "us",
    "engine.world_ms": "ms",
    "engine.monitor_ms": "ms",
    "engine.analyze_ms": "ms",
    "engine.execute_ms": "ms",
    "sched.hier.intra_ms": "ms",
    "sched.hier.shards_ms": "ms",
    "sched.hier.global_ms": "ms",
    "sched.hier.interface_ms": "ms",
    "sched.bestfit_ms": "ms",
    "sched.bestfit.calls": "count",
    "sched.bestfit.index_calls": "count",
    "sched.localsearch_ms": "ms",
    "sched.localsearch.moves_accepted": "count",
    "sched.localsearch.moves_rejected": "count",
    "sched.localsearch.accept_ratio": "ratio",
    "sched.localsearch.candidates_rescored": "count",
    "sim.migrations": "count",
    "workload.parse_csv_ms": "ms",
    "workload.to_csv_ms": "ms",
    "serve.replay_s": "s",
    "serve.io_s": "s",
    "serve.session_mb": "MB",
    "serve.status_mb": "MB",
    "obs.traced_ticks_per_s": "ticks/s",
}

# Wall seconds one world of each workload takes on the reference machine
# (a shared 2-vCPU VM), roughly: they drift by a fifth with the machine.
# `--seconds` buys round(S / this) worlds; the amount of work is fixed by
# the arguments, never by a clock.
WORLD_SECONDS = {"paper-ml": 3.5, "fleet-true": 6.5, "serve-backfill": 34.0}
# Scheduling rounds a run times at least (so the 90th percentile has ten
# samples beyond it); more worlds are run when needed. Every world's
# rounds are timed twice: in its run and in its restart (or re-run).
MIN_ROUNDS = 100
# Per serve-backfill world: daemon set-ups (`--max-ticks 0` launches)
# and relaunches on the finished session. One launch's CPU time swings
# by ±30% on the reference machine, so each metric is a median of many.
# Each relaunch is followed by an in-process re-execution of the feed
# (two step loops). Its rounds take under a millisecond, and one
# execution of a round may cost twice the next as the per-round worker
# threads meet a busy host, so each round's latency is its median over
# every execution in the run; the percentiles are taken over rounds.
SERVE_SETUPS = 16
SERVE_RESTARTS = 8
# Hours of demand in a smoke-test run (tests only).
SMOKE_HOURS = 2
TICK_SECS = 60.0
ROUND_EVERY_TICKS = 10


class BenchError(Exception):
    """A usage, build or input error: no result is printed."""


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def percentile(xs, q):
    """Nearest-rank percentile, as the lanes compute it."""
    xs = sorted(xs)
    return xs[min(max(math.ceil(q * len(xs)), 1), len(xs)) - 1]


def median(xs):
    return percentile(xs, 0.5)


# ---------------------------------------------------------------- build


# The release-built `pamdc` binary and the lanes binary (`e2ebench`).
Tools = collections.namedtuple("Tools", "pamdc lanes")


def build():
    """Release-builds `pamdc` and the lanes; returns their paths."""
    if not (REPO_ROOT / "Cargo.toml").is_file() or not (REPO_ROOT / "crates").is_dir():
        raise BenchError(f"no pamdc source tree at {REPO_ROOT}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", REPO_ROOT / ".bench_build"))
    if not target.is_absolute():
        target = REPO_ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for args in (
        ["-p", "pamdc-cli"],
        ["--manifest-path", str(BENCH_DIR / "Cargo.toml")],
    ):
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *args],
            cwd=REPO_ROOT,
            env=env,
            stdout=sys.stderr,
        )
        if done.returncode != 0:
            raise BenchError(f"cargo build {' '.join(args)} failed")
    return Tools(target / "release" / "pamdc", target / "release" / "e2ebench")


# ---------------------------------------------------------------- inputs


def world_seeds(workload, seed, seconds, hours):
    """The seeds of the worlds one run simulates: round(S / world cost)
    of them, and enough for MIN_ROUNDS scheduling rounds."""
    rounds_per_world = 2 * hours * 3600 / TICK_SECS / ROUND_EVERY_TICKS
    n = max(round(seconds / WORLD_SECONDS[workload]), math.ceil(MIN_ROUNDS / rounds_per_world))
    return [seed * 1000 + i for i in range(n)]


def write_spec(workload, seed, work, hours=None, status=None):
    """The workload's spec with `seed` filled in; `hours` overrides the
    run length, `status` appends a `[serve] status_out`."""
    text = (SPEC_DIR / f"{workload}.toml").read_text().replace("@SEED@", str(seed))
    if hours is not None:
        text = re.sub(r"(?m)^hours = \d+$", f"hours = {hours}", text)
    if status is not None:
        text += f'\n[serve]\nstatus_out = "{status}"\n'
    path = work / f"{workload}-{seed}.toml"
    path.write_text(text)
    return path


def spec_hours(workload):
    text = (SPEC_DIR / f"{workload}.toml").read_text()
    return int(re.search(r"(?m)^hours = (\d+)$", text).group(1))


# ---------------------------------------------------------------- processes


# One finished `pamdc` process: its CPU time (user + system, all threads)
# and peak resident set, from `wait4`.
Proc = collections.namedtuple("Proc", "cpu_s rss_mb")


def pamdc(tools, args, cwd, what):
    """Runs `pamdc <args> --quiet` to its end. It is launched by `e2ebench
    exec`, not forked from here: a child's peak resident set includes
    that of the process it was forked from, and this interpreter's 13 MB
    would hide anything the program uses below that."""
    done = subprocess.run(
        [str(tools.lanes), "exec", str(tools.pamdc), *args, "--quiet"],
        cwd=cwd,
        stdout=subprocess.PIPE,
        text=True,
    )
    if done.returncode != 0:
        raise BenchError(f"{what}: e2ebench exec exited {done.returncode}")
    usage = json.loads(done.stdout.strip().splitlines()[-1])
    if usage["code"] != 0:
        raise BenchError(f"{what} exited {usage['code']}")
    return Proc(usage["cpu_s"], usage["peak_rss_mb"])


def read_report(path):
    """The metrics of a one-report `--json` file."""
    reports = json.loads(Path(path).read_text())
    if len(reports) != 1:
        raise BenchError(f"{path}: expected one report, found {len(reports)}")
    return reports[0]["metrics"]


def lane(tools, args, cwd):
    """Runs the in-process lanes; returns their JSON result."""
    done = subprocess.run(
        [str(tools.lanes), "lane", *args], cwd=cwd, stdout=subprocess.PIPE, text=True
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise BenchError(f"lane {' '.join(args)} exited {done.returncode}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------- checks


def same_report(a, b):
    """None when two reports agree bit for bit (JSON numbers are written
    in shortest round-trip form, so float equality is bit equality),
    else the first difference."""
    if list(a) != list(b):
        return f"metric names differ: {sorted(set(a) ^ set(b))}"
    for k in a:
        if a[k] != b[k]:
            return f"{k}: {a[k]!r} vs {b[k]!r}"
    return None


def check_session(live, restart, status_lines, ticks, tick_secs):
    """Properties of one served session: the restart reproduces the live
    report, the status stream covers every tick and integrates to the
    report's energy, and no round ran below full fidelity."""
    failures = []
    diff = same_report(live, restart)
    if diff:
        failures.append(f"restart report differs from the live one: {diff}")
    if len(status_lines) != ticks:
        failures.append(f"status stream has {len(status_lines)} lines for {ticks} ticks")
    wh = sum(s["watts"] for s in status_lines) * tick_secs / 3600.0
    total = live.get("total_wh")
    if total is None or abs(wh - total) > 1e-9 * max(abs(wh), abs(total)):
        failures.append(f"status watts integrate to {wh} Wh, report says {total} Wh")
    if any(s.get("degraded") for s in status_lines):
        failures.append("a status line reports a degraded round")
    for key in ("obs.serve.degraded_rounds", "obs.serve.trimmed_rounds"):
        if live.get(key, 0) != 0:
            failures.append(f"{key} = {live[key]}: a round ran below full fidelity")
    return failures


def read_status(path):
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


# ---------------------------------------------------------------- serve lane


class Session:
    """One served session over a complete feed, then its restarts. Only
    the documented surface is used: the CLI, the `--json` reports and the
    status stream (named outside the session directory); the files inside
    the session directory are sized, never read."""

    def __init__(self, tools, spec, status, feed, work, name, restarts=1):
        self.dir = work / f"{name}.session"
        self.status = status
        shutil.rmtree(self.dir, ignore_errors=True)
        self.status.unlink(missing_ok=True)
        base = ["serve", str(spec), "--feed", str(feed), "--session", str(self.dir)]
        self.live = pamdc(tools, [*base, "--json", str(work / f"{name}.live.json")], work, "serve")
        self.status_lines = read_status(self.status)
        self.session_bytes = sum(f.stat().st_size for f in self.dir.rglob("*") if f.is_file())
        self.status_bytes = self.status.stat().st_size if self.status.is_file() else 0
        self.live_report = read_report(work / f"{name}.live.json")
        self.tools, self.base, self.work, self.name = tools, base, work, name
        self.restarts, self.restart_reports = [], []
        for _ in range(restarts):
            self.relaunch()

    def relaunch(self):
        """The daemon relaunched on the finished session."""
        out = self.work / f"{self.name}.restart{len(self.restarts)}.json"
        self.restarts.append(pamdc(self.tools, [*self.base, "--json", str(out)], self.work, "serve restart"))
        self.restart_reports.append(read_report(out))

    def checks(self, ticks):
        failures = [
            f
            for restart in self.restart_reports
            for f in check_session(self.live_report, restart, self.status_lines, ticks, TICK_SECS)
        ]
        return list(dict.fromkeys(failures))


def serve_layer(tools, spec, status, feed, work, hours):
    """The serve layer's split on (spec, feed): the daemon's CPU time
    against `pamdc replay` of the same ticks (no checkpoints, no status
    stream), and what the session and the status stream weigh on disk.
    Returns the session too, for its checks."""
    session = Session(tools, spec, status, feed, work, "layer")
    replay = pamdc(
        tools, ["replay", str(feed), "--spec", str(spec), "--hours", str(hours)], work, "replay"
    )
    return session, {
        "serve.replay_s": replay.cpu_s,
        "serve.io_s": session.live.cpu_s - replay.cpu_s,
        "serve.session_mb": session.session_bytes / 1e6,
        "serve.status_mb": session.status_bytes / 1e6,
    }


def record_feed(tools, spec, work, hours):
    """`pamdc record` of the spec's own demand, closed with `# end`."""
    feed = spec.with_suffix(".feed.csv")
    pamdc(tools, ["record", str(spec), "--out", str(feed), "--hours", str(hours)], work, "record")
    with feed.open("a") as f:
        f.write("# end\n")
    return feed


# ---------------------------------------------------------------- workloads


def batch(workload, args, tools, work):
    """paper-ml / fleet-true: the in-process lanes over seeded worlds.
    Untraced, the first world also runs as `pamdc run`, whose peak
    resident set is the workload's and whose report must be the lane's.
    Traced, the first world's demand is also served by the daemon, for
    the serve layer's split on this world; its live report must be the
    lane's too."""
    hours = SMOKE_HOURS if args.smoke else spec_hours(workload)
    seeds = world_seeds(workload, args.seed, args.seconds, hours)
    if args.smoke:
        seeds = seeds[:1]
    specs = [write_spec(workload, s, work, hours=hours) for s in seeds]
    lane_args = ["--trace", str(args.trace)]
    for spec in specs:
        lane_args += ["--world", str(spec)]
    result = lane(tools, lane_args, work)
    metrics = dict(result["metrics"])
    attempted, failed = result["attempted"], result["failed"]
    failures = list(result["failures"])
    if not args.trace:
        out = work / "run.json"
        run = pamdc(tools, ["run", str(specs[0]), "--json", str(out)], work, "run")
        metrics["peak_rss_mb"] = run.rss_mb
        diff = same_report(result["reports"][0], read_report(out))
        attempted += hours * 60
        if diff:
            failed += hours * 60
            failures.append(f"pamdc run report differs from the lane's world 0: {diff}")
    else:
        status = work / "status.jsonl"
        spec = write_spec(workload, seeds[0], work, hours=hours, status=str(status))
        feed = record_feed(tools, spec, work, hours)
        session, layer = serve_layer(tools, spec, status, feed, work, hours)
        metrics.update(layer)
        fs = session.checks(hours * 60)
        diff = same_report(session.live_report, result["reports"][0])
        if diff:
            fs.append(f"live report differs from the lane's world 0: {diff}")
        attempted += hours * 60 + 1
        if fs:
            failed += hours * 60 + 1
            failures += [f"session: {f}" for f in fs]
    return attempted, failed, failures, metrics


def serve_backfill(args, tools, work):
    """serve-backfill: per world, a feed recorded from the spec is served
    to completion by one daemon, which is then relaunched on its session."""
    hours = SMOKE_HOURS if args.smoke else spec_hours("serve-backfill")
    ticks = hours * 60
    seeds = world_seeds("serve-backfill", args.seed, args.seconds, hours)
    if args.smoke:
        seeds = seeds[:1]
    status = work / "status.jsonl"
    worlds = []
    for s in seeds:
        spec = write_spec("serve-backfill", s, work, hours=hours, status=str(status))
        worlds.append((spec, record_feed(tools, spec, work, hours)))

    # The feeds re-executed in-process through `Controller::step` (the
    # daemon's own step path): round latencies and, with --trace 1, the
    # split below the serve layer.
    def inproc(spec, feed):
        return lane(tools, ["--trace", str(args.trace), "--world", f"{spec},{feed}"], work)

    if args.trace:
        spec, feed = worlds[0]
        traced = inproc(spec, feed)
        session, layer = serve_layer(tools, spec, status, feed, work, hours)
        failures = [f"in-process: {f}" for f in traced["failures"]]
        failures += [f"session: {f}" for f in session.checks(ticks)]
        metrics = dict(traced["metrics"], **layer)
        return ticks + 1, (ticks + 1) if failures else 0, failures, metrics

    attempted = failed = 0
    failures, setups, sessions, inprocs = [], [], [], []
    for i, (spec, feed) in enumerate(worlds):
        # Set-up: a daemon that stops before its first tick, on a fresh
        # session (process start, feed read, world build).
        for j in range(SERVE_SETUPS):
            session = work / f"setup{j}.session"
            shutil.rmtree(session, ignore_errors=True)
            setup_args = ["serve", str(spec), "--feed", str(feed), "--session", str(session)]
            setups.append(pamdc(tools, [*setup_args, "--max-ticks", "0"], work, "set-up").cpu_s)
        session = Session(tools, spec, status, feed, work, "live", restarts=0)
        sessions.append(session)
        runs = []
        for _ in range(SERVE_RESTARTS):
            session.relaunch()
            runs.append(inproc(spec, feed))
        inprocs += runs
        # The batch run of the generating spec and the in-process
        # re-executions must reach the live report too.
        pamdc(tools, ["run", str(spec), "--json", str(work / "run.json")], work, "run")
        fs = session.checks(ticks)
        for what, report in (
            ("pamdc run", read_report(work / "run.json")),
            *(("in-process", r["reports"][0]) for r in runs),
        ):
            diff = same_report(session.live_report, report)
            if diff:
                fs.append(f"{what} report differs from the live one: {diff}")
        fs += [f"in-process: {f}" for r in runs for f in r["failures"]]
        fs = [f"world {i}: {f}" for f in dict.fromkeys(fs)]
        attempted += ticks + 1
        failed += (ticks + 1) if fs else 0
        failures += fs

    # Every execution of a world's feed steps the same rounds.
    rounds = []
    for i in range(len(worlds)):
        loops = [ms for r in inprocs[i * SERVE_RESTARTS : (i + 1) * SERVE_RESTARTS] for ms in r["round_ms"]]
        if len({len(ms) for ms in loops}) != 1:
            raise BenchError(f"world {i}: its executions stepped different rounds")
        rounds += [median(samples) for samples in zip(*loops)]
    live_cpu = sum(s.live.cpu_s for s in sessions)
    metrics = {
        "setup_s": median(setups),
        "ticks_per_s": len(sessions) * ticks / live_cpu,
        "round_p50_ms": median(rounds),
        "round_p90_ms": percentile(rounds, 0.9),
        "restart_s": median([r.cpu_s for s in sessions for r in s.restarts]),
        # The daemon's peak on this feed, live or relaunched: one launch
        # may peak 15% above the next, as threads get or share a malloc
        # arena, so it is a median too.
        "peak_rss_mb": median([p.rss_mb for s in sessions for p in (s.live, *s.restarts)]),
        "profit_eur_per_h": median([s.live_report["eur_per_hour"] for s in sessions]),
    }
    return attempted, failed, failures, metrics


# ---------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds >= 0:
        p.error("--seed and --seconds must be non-negative")
    return args


def main(argv):
    try:
        args = parse_args(argv)
    except SystemExit:
        return 2
    try:
        tools = build()
        work = BENCH_DIR / "work" / f"{args.workload}-{args.seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        if args.workload == "serve-backfill":
            attempted, failed, failures, measured = serve_backfill(args, tools, work)
        else:
            attempted, failed, failures, measured = batch(args.workload, args, tools, work)
        shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        log(str(e))
        return 2

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in wanted.items():
        if measured.get(name) is not None:
            metrics[name] = {"value": measured[name], "unit": unit}
        elif not args.trace:
            failures.append(f"end-to-end metric {name} was not measured")
    for f in failures:
        log(f"check failed: {f}")
    correct = not failures
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
