//! `e2ebench` — the in-process half of the end-to-end benchmark.
//!
//! ```text
//! e2ebench lane --world <spec.toml>[,<feed.csv>] [--world ...] --trace 0|1
//! e2ebench exec <program> [<arg> ...]
//! ```
//!
//! `exec` runs one program to its end and prints its exit code, CPU time
//! and peak resident set as one JSON line (see `run_child`); `run.py`
//! launches every `pamdc` process through it.
//!
//! Each `--world` is one seeded input: a spec, run on its own synthetic
//! demand the way `pamdc run` does, or on a recorded feed stepped tick by
//! tick the way `pamdc serve` does. Every world is set up (parse, build,
//! train), run through `Controller::step` and checked (see
//! `check_pass`). On a synthetic world an untraced run then restarts it:
//! it re-parses the spec and the recorded demand, rebuilds, retrains and
//! re-executes every tick, as a relaunched daemon does; a feed world is
//! simply stepped through again. Either way the report must come out
//! bit-identical, and both step loops are timed. With `--trace 1` each
//! world instead runs a traced, wrapped pass whose report must equal the
//! plain one bit for bit, and the per-layer split is printed. A world
//! whose shards reach the spec's `index_min_hosts` must take the indexed
//! placement path (`check_indexed_path`). The work
//! is fixed by the worlds given; no clock decides how much is done.
//!
//! The last stdout line is one JSON object (`correct`, `attempted`,
//! `failed`, `failures`, `metrics`, `reports`); the exit code is 1 when
//! any check failed and 2 on a usage or input error.

use pamdc_core::engine::{Controller, StepDemand, TickOutcome};
use pamdc_core::experiment::outcome_metrics;
use pamdc_core::policy::{HierarchicalPolicy, PlacementPolicy};
use pamdc_core::scenario::Scenario;
use pamdc_core::simulation::{RunConfig, RunOutcome};
use pamdc_e2ebench::*;
use pamdc_ml::predictors::PredictorSuite;
use pamdc_scenario::build;
use pamdc_scenario::spec::{OracleKind, PolicyKind, ScenarioSpec};
use pamdc_sched::bestfit::SchedTuning;
use pamdc_sched::oracle::{MlOracle, QosOracle, TrueOracle};
use pamdc_simcore::time::SimDuration;
use pamdc_workload::trace::{DemandTrace, TraceSource};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The shortest set-up sample: a faster set-up is repeated and the
/// sample is its mean, so no sub-millisecond time is taken alone.
const SETUP_SAMPLE: Duration = Duration::from_millis(50);

struct Args {
    worlds: Vec<(PathBuf, Option<PathBuf>)>,
    trace: bool,
}

enum Command {
    Lane(Args),
    Exec(String, Vec<String>),
}

const USAGE: &str =
    "usage: e2ebench lane --world <spec>[,<feed>] ... --trace 0|1 | e2ebench exec <program> [args]";

fn parse_args() -> Result<Command, String> {
    let mut it = std::env::args().skip(1);
    match it.next().as_deref() {
        Some("lane") => {}
        Some("exec") => {
            let program = it.next().ok_or(USAGE)?;
            return Ok(Command::Exec(program, it.collect()));
        }
        _ => return Err(USAGE.into()),
    }
    let mut args = Args {
        worlds: Vec::new(),
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--world" => {
                let v = value()?;
                let (spec, feed) = match v.split_once(',') {
                    Some((s, f)) => (s.to_string(), Some(PathBuf::from(f))),
                    None => (v, None),
                };
                args.worlds.push((PathBuf::from(spec), feed));
            }
            "--trace" => args.trace = value()? == "1",
            other => return Err(format!("unknown option {other}")),
        }
    }
    if args.worlds.is_empty() {
        return Err("at least one --world is required".into());
    }
    Ok(Command::Lane(args))
}

/// A world ready to run: spec, built scenario, trained suite (ML
/// oracles only) and, for a feed world, the feed it steps through.
struct World {
    spec: ScenarioSpec,
    scenario: Scenario,
    suite: Option<Arc<PredictorSuite>>,
    feed: Option<DemandTrace>,
    cfg: RunConfig,
    ticks: u64,
    duration: SimDuration,
}

/// CPU times of one set-up, split by layer; `train` is `None` where the
/// oracle needs no predictors.
#[derive(Clone, Copy, Default)]
struct SetupTimes {
    build: Duration,
    train: Option<Duration>,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// A feed world's spec must be the one its feed was recorded from: the
/// same service roster and synthetic demand, so the world built around
/// the feed is the one the daemon builds.
fn check_feed_fits(spec: &ScenarioSpec, feed: &DemandTrace) -> Result<(), String> {
    if spec.workload.vms != feed.service_count() {
        return Err(format!(
            "the feed has {} services, the spec {}",
            feed.service_count(),
            spec.workload.vms
        ));
    }
    if spec.workload.trace.is_some() || spec.workload.import.is_some() {
        return Err("a feed world's spec must use synthetic demand".into());
    }
    Ok(())
}

/// Whether the world's intra-DC shards are large enough for the
/// candidate index (the spec's `index_min_hosts`, else the default).
fn takes_indexed_path(spec: &ScenarioSpec) -> bool {
    let min_hosts = spec
        .policy
        .index_min_hosts
        .unwrap_or(SchedTuning::default().index_min_hosts);
    spec.topology.hosts_per_dc() >= min_hosts
}

/// Parse, build and (for ML oracles) train: one set-up, timed by layer.
/// A feed world's feed is parsed outside the timing.
fn set_up(spec_path: &Path, feed: Option<DemandTrace>) -> Result<(World, SetupTimes), String> {
    let start = cpu_now();
    let spec = ScenarioSpec::parse(&read(spec_path)?).map_err(|e| e.to_string())?;
    let scenario = match &feed {
        None => {
            let base = spec_path.parent().unwrap_or(Path::new("."));
            build::build_scenario(&spec, base)
        }
        Some(feed) => {
            check_feed_fits(&spec, feed)?;
            build::build_scenario_with_demand(&spec, TraceSource::new(feed.clone()).into())
        }
    }
    .map_err(|e| e.to_string())?;
    let built = cpu_now();
    let suite = build::needs_training(&spec).then(|| build::train_for_spec(&spec.training).suite);
    let times = SetupTimes {
        build: built - start,
        train: suite.as_ref().map(|_| cpu_now() - built),
    };
    let cfg = build::run_config(&spec);
    let (ticks, duration) = match &feed {
        Some(f) if f.tick != cfg.tick => {
            return Err("feed tick differs from the spec's [run] tick_secs".into())
        }
        Some(f) => (f.tick_count() as u64, cfg.tick * f.tick_count() as u64),
        None => {
            let d = SimDuration::from_hours(spec.run.hours);
            (d.ticks(cfg.tick), d)
        }
    };
    let world = World {
        spec,
        scenario,
        suite,
        feed,
        cfg,
        ticks,
        duration,
    };
    Ok((world, times))
}

/// One set-up sample: set-ups repeated until `SETUP_SAMPLE` of CPU time
/// has passed; the sample is their mean.
fn timed_set_up(spec: &Path, feed: Option<&DemandTrace>) -> Result<(World, SetupTimes), String> {
    let start = cpu_now();
    let mut n = 0u32;
    let mut sum = SetupTimes::default();
    loop {
        let (world, times) = set_up(spec, feed.cloned())?;
        n += 1;
        sum.build += times.build;
        sum.train = times.train.map(|t| t + sum.train.unwrap_or_default());
        if cpu_now() - start >= SETUP_SAMPLE {
            let mean = SetupTimes {
                build: sum.build / n,
                train: sum.train.map(|t| t / n),
            };
            return Ok((world, mean));
        }
    }
}

/// The policy `build_policy` makes, with the oracle wrapped in a call
/// counter (traced runs only). Hierarchical policies over the true or ML
/// oracle only: that is what every workload of this benchmark runs.
fn counted_policy(
    world: &World,
    counts: Arc<OracleCounts>,
) -> Result<Box<dyn PlacementPolicy>, String> {
    fn wrap<O: QosOracle + 'static>(o: O, c: Arc<OracleCounts>) -> Box<dyn PlacementPolicy> {
        Box::new(HierarchicalPolicy::new(CountingOracle::new(o, c)))
    }
    if world.spec.policy.kind != PolicyKind::Hierarchical {
        return Err("the traced lane wraps hierarchical policies only".into());
    }
    match world.spec.policy.oracle {
        OracleKind::True => Ok(wrap(TrueOracle::new(), counts)),
        OracleKind::Ml => {
            let suite = world.suite.clone().ok_or("ml oracle without a suite")?;
            Ok(wrap(MlOracle::new(suite), counts))
        }
        _ => Err("the traced lane wraps the true and ml oracles only".into()),
    }
}

/// One whole run over a world: every tick's outcome, the CPU time of
/// the step loop and of each step that ended a scheduling round.
struct Pass {
    ticks: Vec<TickOutcome>,
    cpu: Duration,
    round_cpu: Vec<Duration>,
    report: RunOutcome,
}

impl Pass {
    fn round_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.round_cpu.iter().map(|d| d.as_secs_f64() * 1e3)
    }

    /// Mean CPU time of the ticks that ran no round, microseconds.
    fn quiet_tick_us(&self) -> Option<f64> {
        let quiet = self.ticks.len() - self.round_cpu.len();
        let cpu = self.cpu - self.round_cpu.iter().sum::<Duration>();
        (quiet > 0).then(|| cpu.as_secs_f64() * 1e6 / quiet as f64)
    }

    fn check(&self, tick_secs: f64) -> Vec<String> {
        check_pass(&PassRecord {
            ticks: &self.ticks,
            report: &self.report,
            tick_secs,
        })
    }
}

fn run_pass(
    scenario: Scenario,
    policy: Box<dyn PlacementPolicy>,
    cfg: RunConfig,
    feed: Option<&DemandTrace>,
    ticks: u64,
    duration: SimDuration,
) -> Pass {
    let mut controller = Controller::with(scenario, policy, cfg, None);
    let mut outcomes = Vec::with_capacity(ticks as usize);
    let mut round_cpu = Vec::new();
    let start = cpu_now();
    for t in 0..ticks as usize {
        let demand = match feed {
            Some(f) => StepDemand::Flows(&f.flows[t]),
            None => StepDemand::Source,
        };
        if controller.next_step_is_round() {
            let round_start = cpu_now();
            outcomes.push(controller.step(demand));
            round_cpu.push(cpu_now() - round_start);
        } else {
            outcomes.push(controller.step(demand));
        }
    }
    let cpu = cpu_now() - start;
    let (report, _) = controller.finish(duration);
    Pass {
        ticks: outcomes,
        cpu,
        round_cpu,
        report,
    }
}

fn plain_pass(world: &World) -> Result<Pass, String> {
    let policy =
        build::build_policy(&world.spec, world.suite.clone()).map_err(|e| e.to_string())?;
    Ok(run_pass(
        world.scenario.clone(),
        policy,
        world.cfg.clone(),
        world.feed.as_ref(),
        world.ticks,
        world.duration,
    ))
}

/// A traced pass with the policy and oracle wrapped.
struct Traced {
    pass: Pass,
    /// CPU time of each full-fidelity `decide`, nanoseconds.
    decide_ns: Vec<u64>,
    counts: Arc<OracleCounts>,
}

fn traced_pass(world: &World) -> Result<Traced, String> {
    let mut cfg = world.cfg.clone();
    cfg.trace = true;
    let counts = Arc::new(OracleCounts::default());
    let decide_ns = Arc::new(Mutex::new(Vec::new()));
    let policy = TimedPolicy::new(counted_policy(world, counts.clone())?, decide_ns.clone());
    let pass = run_pass(
        world.scenario.clone(),
        Box::new(policy),
        cfg,
        world.feed.as_ref(),
        world.ticks,
        world.duration,
    );
    let decide_ns = std::mem::take(&mut *decide_ns.lock().expect("decide timings"));
    Ok(Traced {
        pass,
        decide_ns,
        counts,
    })
}

/// A relaunch on a recorded session: parse the spec and the recorded
/// demand, rebuild the world around it (training again for ML oracles)
/// and re-execute every tick. Returns the re-execution and the CPU time
/// of the whole relaunch.
fn restart(spec_path: &Path, recorded_csv: &str) -> Result<(Pass, Duration), String> {
    let start = cpu_now();
    let recorded = DemandTrace::parse_csv(recorded_csv).map_err(|e| e.to_string())?;
    let (world, _) = set_up(spec_path, Some(recorded))?;
    let pass = plain_pass(&world)?;
    Ok((pass, cpu_now() - start))
}

/// Operation tally and check failures of one lane run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, ops: u64, what: &str, failures: Vec<String>) {
        self.attempted += ops;
        if !failures.is_empty() {
            self.failed += ops;
            self.failures
                .extend(failures.into_iter().map(|f| format!("{what}: {f}")));
        }
    }
}

/// What one world contributed.
struct WorldRun {
    ticks: u64,
    setup: SetupTimes,
    plain: Pass,
    /// The restart's re-execution (a feed world: its second pass).
    again: Option<Pass>,
    restart_cpu: Option<Duration>,
    traced: Option<Traced>,
    to_csv: Duration,
    parse_csv: Duration,
    report: Vec<(String, f64)>,
}

fn run_world(
    i: usize,
    spec: &Path,
    feed: Option<&Path>,
    args: &Args,
    tally: &mut Tally,
) -> Result<WorldRun, String> {
    let what = format!("world {i}");
    let feed = match feed {
        Some(path) => Some(
            DemandTrace::parse_csv(&read(path)?).map_err(|e| format!("{}: {e}", path.display()))?,
        ),
        None => None,
    };
    let (world, mut setup) = timed_set_up(spec, feed.as_ref())?;
    if args.trace && i == 0 && setup.train.is_none() {
        // The oracle trains nothing: time the training the world's
        // `[training]` asks for, what an ML oracle would add to set-up.
        let start = cpu_now();
        drop(build::train_for_spec(&world.spec.training));
        setup.train = Some(cpu_now() - start);
    }
    let tick_secs = world.cfg.tick.as_secs_f64();

    // The run's demand as a recorded feed (recorded here for a synthetic
    // world), through the trace CSV both ways.
    let recorded = match &world.feed {
        Some(feed) => feed.clone(),
        None => DemandTrace::record(&world.scenario.workload, world.duration, world.cfg.tick),
    };
    let start = cpu_now();
    let recorded_csv = recorded.to_csv();
    let to_csv = cpu_now() - start;
    let start = cpu_now();
    let reparsed = DemandTrace::parse_csv(&recorded_csv).map_err(|e| e.to_string())?;
    let parse_csv = cpu_now() - start;
    let round_trip = if reparsed == recorded {
        Vec::new()
    } else {
        vec!["parse(to_csv(trace)) differs from the trace".to_string()]
    };
    drop(reparsed);

    let plain = plain_pass(&world)?;
    let report = outcome_metrics("", &plain.report);
    let mut failures = round_trip;
    failures.extend(plain.check(tick_secs));
    if takes_indexed_path(&world.spec) {
        failures.extend(check_indexed_path(&plain.report.obs_metrics));
    }
    tally.record(world.ticks, &what, failures);

    let (mut again, mut restart_cpu) = (None, None);
    if !args.trace {
        let pass = match &world.feed {
            None => {
                let (pass, cpu) = restart(spec, &recorded_csv)?;
                restart_cpu = Some(cpu);
                pass
            }
            Some(_) => plain_pass(&world)?,
        };
        let same = same_report(&report, &outcome_metrics("", &pass.report));
        tally.record(
            world.ticks,
            &format!("{what} again"),
            same.err().into_iter().collect(),
        );
        again = Some(pass);
    }

    let traced = if args.trace {
        let traced = traced_pass(&world)?;
        let mut failures = traced.pass.check(tick_secs);
        failures.extend(
            same_report(&report, &outcome_metrics("", &traced.pass.report))
                .err()
                .map(|e| format!("traced report differs from the untraced one: {e}")),
        );
        tally.record(world.ticks, &format!("{what} traced"), failures);
        Some(traced)
    } else {
        None
    };

    Ok(WorldRun {
        ticks: world.ticks,
        setup,
        plain,
        again,
        restart_cpu,
        traced,
        to_csv,
        parse_csv,
        report,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Command::Lane(a)) => a,
        Ok(Command::Exec(program, args)) => return exec(&program, &args),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match lane(&args) {
        Ok((line, ok)) => {
            println!("{line}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `e2ebench exec`: one line `{"code":c,"cpu_s":t,"peak_rss_mb":m}`
/// for a program that ran (whatever its exit code), exit 2 if it could
/// not be started.
fn exec(program: &str, args: &[String]) -> ExitCode {
    match run_child(program, args) {
        Ok(usage) => {
            println!(
                "{{\"code\":{},\"cpu_s\":{},\"peak_rss_mb\":{}}}",
                usage.code,
                json_number(usage.cpu.as_secs_f64()),
                json_number(usage.peak_rss_mb)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: cannot run {program}: {e}");
            ExitCode::from(2)
        }
    }
}

fn lane(args: &Args) -> Result<(String, bool), String> {
    let mut tally = Tally::default();
    let mut runs = Vec::new();
    for (i, (spec, feed)) in args.worlds.iter().enumerate() {
        runs.push(run_world(i, spec, feed.as_deref(), args, &mut tally)?);
    }
    let metrics = if args.trace {
        per_layer(&runs)
    } else {
        end_to_end(&runs)
    };

    let ok = tally.failures.is_empty();
    let failures: Vec<String> = tally.failures.iter().map(|f| json_string(f)).collect();
    let reports: Vec<String> = runs.iter().map(|r| json_object(&r.report)).collect();
    // Every step loop's round latencies, in order: world 0's run, its
    // restart, world 1's run, ...
    let rounds: Vec<String> = runs
        .iter()
        .flat_map(|r| std::iter::once(&r.plain).chain(&r.again))
        .map(|p| {
            let ms: Vec<String> = p.round_ms().map(json_number).collect();
            format!("[{}]", ms.join(","))
        })
        .collect();
    let line = format!(
        "{{\"correct\":{ok},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"metrics\":{},\"reports\":[{}],\"round_ms\":[{}]}}",
        tally.attempted,
        tally.failed,
        failures.join(","),
        json_object(&metrics),
        reports.join(","),
        rounds.join(","),
    );
    Ok((line, ok))
}

fn end_to_end(runs: &[WorldRun]) -> Vec<(String, f64)> {
    let setup_s: Vec<f64> = runs
        .iter()
        .map(|r| (r.setup.build + r.setup.train.unwrap_or_default()).as_secs_f64())
        .collect();
    let loops: Vec<&Pass> = runs
        .iter()
        .flat_map(|r| std::iter::once(&r.plain).chain(&r.again))
        .collect();
    let round_ms: Vec<f64> = loops.iter().flat_map(|p| p.round_ms()).collect();
    let ticks: usize = loops.iter().map(|p| p.ticks.len()).sum();
    let cpu: f64 = loops.iter().map(|p| p.cpu.as_secs_f64()).sum();
    let restarts: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.restart_cpu.map(|d| d.as_secs_f64()))
        .collect();
    // A median: one world in thirty loses a sixth of its profit or more
    // to an ML oracle gone wrong, which would swing a mean over worlds.
    let profits: Vec<f64> = runs.iter().map(|r| r.plain.report.eur_per_hour()).collect();
    [
        ("setup_s", median(&setup_s)),
        ("ticks_per_s", Some(ticks as f64 / cpu)),
        ("round_p50_ms", median(&round_ms)),
        ("round_p90_ms", percentile(&round_ms, 0.9)),
        ("restart_s", median(&restarts)),
        ("profit_eur_per_h", median(&profits)),
    ]
    .into_iter()
    .filter_map(|(k, v)| v.map(|v| (k.to_string(), v)))
    .collect()
}

/// The per-layer split of a traced run, per world (means over worlds).
/// Spans and counters the program no longer emits are left out.
fn per_layer(runs: &[WorldRun]) -> Vec<(String, f64)> {
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: Option<f64>| {
        if let Some(v) = v {
            metrics.push((name.to_string(), v));
        }
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let n = runs.len() as f64;
    let traced: Vec<&Traced> = runs.iter().filter_map(|r| r.traced.as_ref()).collect();

    let build_ms: Vec<f64> = runs.iter().map(|r| ms(r.setup.build)).collect();
    put("scenario.build_ms", median(&build_ms));
    let train_ms: Vec<f64> = runs.iter().filter_map(|r| r.setup.train.map(ms)).collect();
    put("ml.train_ms", median(&train_ms));

    let calls = |f: &dyn Fn(&OracleCounts) -> u64| {
        traced.iter().map(|t| f(&t.counts) as f64).sum::<f64>() / n
    };
    put(
        "oracle.demand_calls",
        Some(calls(&|c| c.demand.load(Relaxed))),
    );
    put("oracle.sla_calls", Some(calls(&|c| c.sla.load(Relaxed))));

    let decide_ms: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.decide_ns.iter().map(|ns| *ns as f64 / 1e6))
        .collect();
    put("plan.decide_p50_ms", median(&decide_ms));
    let overhead_ms: Vec<f64> = traced
        .iter()
        .flat_map(|t| {
            t.pass
                .round_ms()
                .zip(&t.decide_ns)
                .map(|(r, ns)| r - *ns as f64 / 1e6)
        })
        .collect();
    put("plan.round_overhead_p50_ms", median(&overhead_ms));
    let quiet: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.plain.quiet_tick_us())
        .collect();
    put("engine.quiet_tick_p50_us", median(&quiet));

    let mut spans: BTreeMap<String, u64> = BTreeMap::new();
    for t in &traced {
        for (path, ns) in span_totals_ns(&t.pass.report.trace_lines) {
            *spans.entry(path).or_insert(0) += ns;
        }
    }
    let span_ms = |pred: &dyn Fn(&str) -> bool| {
        let hits: Vec<u64> = spans
            .iter()
            .filter(|(p, _)| pred(p))
            .map(|(_, ns)| *ns)
            .collect();
        (!hits.is_empty()).then(|| hits.iter().sum::<u64>() as f64 / n / 1e6)
    };
    let last = |p: &str| p.rsplit('/').next().unwrap_or(p).to_string();
    for (name, path) in [
        ("engine.world_ms", "tick/world"),
        ("engine.monitor_ms", "tick/monitor"),
        ("engine.analyze_ms", "tick/analyze"),
        ("engine.execute_ms", "tick/execute"),
    ] {
        put(name, span_ms(&|p| p == path));
    }
    for (name, seg) in [
        ("sched.hier.intra_ms", "intra"),
        ("sched.hier.global_ms", "global"),
        ("sched.hier.interface_ms", "interface"),
        ("sched.localsearch_ms", "localsearch"),
    ] {
        put(name, span_ms(&|p| p.contains("/hier/") && last(p) == seg));
    }
    put(
        "sched.hier.shards_ms",
        span_ms(&|p| {
            p.contains("/hier/intra/")
                && last(p)
                    .strip_prefix("dc")
                    .is_some_and(|d| d.parse::<u32>().is_ok())
        }),
    );
    put(
        "sched.bestfit_ms",
        span_ms(&|p| last(p).starts_with("bestfit")),
    );

    let counter = |key: &str| {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|t| {
                let m = &t.pass.report.obs_metrics;
                m.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
            })
            .collect();
        (values.len() == traced.len()).then(|| values.iter().sum::<f64>() / n)
    };
    for (name, key) in [
        ("sched.bestfit.calls", "sched.bestfit.calls"),
        ("sched.bestfit.index_calls", "sched.bestfit.dispatch_index"),
        (
            "sched.localsearch.moves_accepted",
            "sched.localsearch.moves_accepted",
        ),
        (
            "sched.localsearch.moves_rejected",
            "sched.localsearch.moves_rejected",
        ),
        (
            "sched.localsearch.candidates_rescored",
            "sched.localsearch.candidates_rescored",
        ),
        ("sim.migrations", "sim.migrations"),
    ] {
        put(name, counter(key));
    }
    if let (Some(a), Some(r)) = (
        counter("sched.localsearch.moves_accepted"),
        counter("sched.localsearch.moves_rejected"),
    ) {
        put(
            "sched.localsearch.accept_ratio",
            (a + r > 0.0).then(|| a / (a + r)),
        );
    }
    let mean_ms =
        |f: &dyn Fn(&WorldRun) -> Duration| runs.iter().map(|r| ms(f(r))).sum::<f64>() / n;
    put("workload.parse_csv_ms", Some(mean_ms(&|r| r.parse_csv)));
    put("workload.to_csv_ms", Some(mean_ms(&|r| r.to_csv)));
    let ticks: u64 = runs.iter().map(|r| r.ticks).sum();
    let cpu: f64 = traced.iter().map(|t| t.pass.cpu.as_secs_f64()).sum();
    put("obs.traced_ticks_per_s", Some(ticks as f64 / cpu));
    metrics
}
