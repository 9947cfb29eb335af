//! Building blocks of the end-to-end benchmark's in-process lanes.
//!
//! Everything here reaches the program through its public surface only:
//! `build_scenario`, `Controller::step`, the `PlacementPolicy` and
//! `QosOracle` traits, `DemandTrace` and the obs trace lines a traced
//! run already emits. The output checks test properties every correct
//! run has, never a stored copy of an earlier run's output.
//!
//! Times are CPU time of the whole process ([`cpu_now`]), not wall time:
//! on a shared VM whose hypervisor steals a large and drifting share of
//! each vCPU, wall time mostly measures the neighbours.

use pamdc_core::engine::TickOutcome;
use pamdc_core::policy::PlacementPolicy;
use pamdc_core::simulation::RunOutcome;
use pamdc_infra::resources::Resources;
use pamdc_sched::oracle::QosOracle;
use pamdc_sched::problem::{HostInfo, Problem, Schedule, VmInfo};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Relative tolerance of the energy identity (sum of per-tick watts ×
/// tick length against the report's `total_wh`).
pub const ENERGY_REL_TOL: f64 = 1e-9;

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; `None`
/// when there are none.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted samples (nearest-rank).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// What one simulated run is checked against: its per-tick outcomes,
/// its final report and the tick length it ran at.
pub struct PassRecord<'a> {
    /// Every `TickOutcome` the run's `step` calls returned, in order.
    pub ticks: &'a [TickOutcome],
    /// The report `Controller::finish` produced.
    pub report: &'a RunOutcome,
    /// Tick length, seconds.
    pub tick_secs: f64,
}

/// The property checks every batch run must pass. Returns one message
/// per violated property (empty = all hold).
pub fn check_pass(pass: &PassRecord<'_>) -> Vec<String> {
    let mut failures = Vec::new();
    let report = pass.report;

    // Energy: the report's total is the per-tick draw integrated over
    // the tick length.
    let tick_h = pass.tick_secs / 3600.0;
    let wh: f64 = pass.ticks.iter().map(|t| t.watts * tick_h).sum();
    if !rel_close(wh, report.total_wh, ENERGY_REL_TOL) {
        failures.push(format!(
            "energy: sum of tick watts x tick = {wh} Wh but the report says {} Wh",
            report.total_wh
        ));
    }

    // Migrations: the report counts exactly what the rounds started.
    let migrations: u64 = pass
        .ticks
        .iter()
        .filter_map(|t| t.round.as_ref())
        .map(|r| r.migrations)
        .sum();
    if migrations != report.migrations {
        failures.push(format!(
            "migrations: rounds started {migrations} but the report says {}",
            report.migrations
        ));
    }

    // Requests: nothing is served or dropped that was never offered.
    let offered: f64 = pass.ticks.iter().map(|t| t.rps * pass.tick_secs).sum();
    let handled = report.served_requests + report.dropped_requests;
    // Written so that a NaN on either side fails the check.
    let within = handled <= offered * (1.0 + ENERGY_REL_TOL);
    if !within {
        failures.push(format!(
            "requests: served {} + dropped {} exceed the {offered} offered",
            report.served_requests, report.dropped_requests
        ));
    }

    // SLA fulfilment is a fraction, per tick and over the run.
    if !(0.0..=1.0).contains(&report.mean_sla) {
        failures.push(format!("sla: run mean {} outside [0, 1]", report.mean_sla));
    }
    if let Some(t) = pass
        .ticks
        .iter()
        .find(|t| !(0.0..=1.0).contains(&t.mean_sla))
    {
        failures.push(format!(
            "sla: tick {} mean {} outside [0, 1]",
            t.tick_idx, t.mean_sla
        ));
    }

    // One outcome per tick, in order.
    if let Some((i, t)) = pass
        .ticks
        .iter()
        .enumerate()
        .find(|(i, t)| t.tick_idx != *i as u64)
    {
        failures.push(format!("ticks: step {i} reported tick {}", t.tick_idx));
    }
    failures
}

/// The indexed-placement check for fleet-scale worlds: the candidate
/// index and the incremental consolidation path did work. A counter the
/// program no longer exposes (the placement-path work folds the two
/// paths into one) passes — there is then no other path to take.
pub fn check_indexed_path(obs_metrics: &[(String, f64)]) -> Vec<String> {
    let mut failures = Vec::new();
    for key in [
        "sched.bestfit.dispatch_index",
        "sched.localsearch.candidates_rescored",
    ] {
        if let Some((_, v)) = obs_metrics.iter().find(|(k, _)| k == key) {
            if *v <= 0.0 {
                failures.push(format!("indexed path: {key} = {v}, expected > 0"));
            }
        }
    }
    failures
}

/// Bit-for-bit comparison of two reports' metric lists (names, order
/// and every f64's bits). Returns the first difference.
pub fn same_report(a: &[(String, f64)], b: &[(String, f64)]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} metrics vs {}", a.len(), b.len()));
    }
    for ((ka, va), (kb, vb)) in a.iter().zip(b) {
        if ka != kb {
            return Err(format!("metric {ka} vs {kb}"));
        }
        if va.to_bits() != vb.to_bits() {
            return Err(format!("{ka}: {va:?} vs {vb:?}"));
        }
    }
    Ok(())
}

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()) || a == b
}

/// Total `wall_ns` per span path over a run's JSONL trace lines.
pub fn span_totals_ns(trace_lines: &[String]) -> BTreeMap<String, u64> {
    let mut totals = BTreeMap::new();
    for line in trace_lines {
        if pamdc_obs::trace::field_str(line, "event").as_deref() != Some("span") {
            continue;
        }
        let (Some(path), Some(ns)) = (
            pamdc_obs::trace::field_str(line, "path"),
            pamdc_obs::trace::field_u64(line, "wall_ns"),
        ) else {
            continue;
        };
        *totals.entry(path).or_insert(0) += ns;
    }
    totals
}

/// Calls counted by a [`CountingOracle`]. Plain statistics: `Relaxed`
/// ordering publishes nothing else.
#[derive(Default)]
pub struct OracleCounts {
    /// `QosOracle::demand` calls.
    pub demand: AtomicU64,
    /// `QosOracle::sla` calls.
    pub sla: AtomicU64,
}

/// A `QosOracle` decorator counting the calls the planner makes into
/// it; beliefs pass through unchanged.
pub struct CountingOracle<O> {
    inner: O,
    counts: Arc<OracleCounts>,
}

impl<O: QosOracle> CountingOracle<O> {
    /// Wraps `inner`, counting into `counts`.
    pub fn new(inner: O, counts: Arc<OracleCounts>) -> Self {
        CountingOracle { inner, counts }
    }
}

impl<O: QosOracle> QosOracle for CountingOracle<O> {
    fn demand(&self, vm: &VmInfo) -> Resources {
        self.counts.demand.fetch_add(1, Ordering::Relaxed);
        self.inner.demand(vm)
    }

    fn sla(
        &self,
        vm: &VmInfo,
        host: &HostInfo,
        host_total_demand: &Resources,
        transport_secs: f64,
    ) -> f64 {
        self.counts.sla.fetch_add(1, Ordering::Relaxed);
        self.inner.sla(vm, host, host_total_demand, transport_secs)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process (the
/// program's own worker threads included). Time the hypervisor steals
/// from the vCPU is not charged to it.
pub fn cpu_now() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // the 64-bit Linux targets this runs on) and `clock_gettime` writes
    // nothing but it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable on Linux");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A `PlacementPolicy` decorator timing each full-fidelity `decide`.
pub struct TimedPolicy {
    inner: Box<dyn PlacementPolicy>,
    decide_ns: Arc<Mutex<Vec<u64>>>,
}

impl TimedPolicy {
    /// Wraps `inner`; every `decide` appends its CPU time to `decide_ns`.
    pub fn new(inner: Box<dyn PlacementPolicy>, decide_ns: Arc<Mutex<Vec<u64>>>) -> Self {
        TimedPolicy { inner, decide_ns }
    }
}

impl PlacementPolicy for TimedPolicy {
    fn decide(&self, problem: &Problem) -> Schedule {
        let start = cpu_now();
        let schedule = self.inner.decide(problem);
        let ns = (cpu_now() - start).as_nanos() as u64;
        self.decide_ns
            .lock()
            .expect("decide timings poisoned by a panicking round")
            .push(ns);
        schedule
    }

    fn decide_trimmed(&self, problem: &Problem) -> Schedule {
        self.inner.decide_trimmed(problem)
    }

    fn decide_degraded(&self, problem: &Problem) -> Schedule {
        self.inner.decide_degraded(problem)
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Linux's `struct rusage` on 64-bit targets: two `timeval`s, then
/// fourteen `long`s, `ru_maxrss` (KiB) first.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child process used.
#[derive(Clone, Copy, Debug)]
pub struct ChildUsage {
    /// Exit code; 128 + signal number when a signal ended it.
    pub code: i32,
    /// User + system CPU time of every thread of the child.
    pub cpu: Duration,
    /// Peak resident set, MB.
    pub peak_rss_mb: f64,
}

/// Runs `program` with `args` (stdout discarded, stderr inherited) and
/// reaps it with `wait4`, which reports its CPU time and peak resident
/// set. The peak a child reports includes the resident set of the
/// process that spawned it, so the spawner has to be small: this
/// process, not a Python interpreter of 13 MB.
pub fn run_child(program: &str, args: &[String]) -> std::io::Result<ChildUsage> {
    let child = std::process::Command::new(program)
        .args(args)
        .stdout(std::process::Stdio::null())
        .spawn()?;
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        rest: [0; 14],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out
        // as `int` and `struct rusage`; `pid` is our own unreaped child.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let timeval = |t: [i64; 2]| Duration::new(t[0] as u64, t[1] as u32 * 1000);
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok(ChildUsage {
        code,
        cpu: timeval(usage.ru_utime) + timeval(usage.ru_stime),
        peak_rss_mb: usage.rest[0] as f64 / 1024.0,
    })
}

/// A JSON number: shortest round-trip form, `null` when not finite.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON string literal, escaped the way the program's own trace
/// lines are.
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", pamdc_obs::trace::escape_json(s))
}

/// A flat JSON object of named numbers, in the given order.
pub fn json_object(entries: &[(String, f64)]) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_number(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pamdc_core::engine::{Controller, StepDemand};
    use pamdc_core::engine::{RoundFidelity, RoundOutcome};
    use pamdc_core::experiment::outcome_metrics;
    use pamdc_core::policy::HierarchicalPolicy;
    use pamdc_core::scenario::ScenarioBuilder;
    use pamdc_core::simulation::{RunConfig, SimulationRunner};
    use pamdc_sched::oracle::TrueOracle;
    use pamdc_simcore::time::SimDuration;

    /// A short, real multi-DC run: its outcomes and report.
    fn small_run() -> (Vec<TickOutcome>, RunOutcome) {
        let scenario = ScenarioBuilder::paper_multi_dc().vms(6).seed(3).build();
        let policy = Box::new(HierarchicalPolicy::new(TrueOracle::new()));
        let mut controller = Controller::with(scenario, policy, RunConfig::default(), None);
        let ticks: Vec<TickOutcome> = (0..60)
            .map(|_| controller.step(StepDemand::Source))
            .collect();
        let (report, _) = controller.finish(SimDuration::from_hours(1));
        (ticks, report)
    }

    fn tick_secs() -> f64 {
        RunConfig::default().tick.as_secs_f64()
    }

    #[test]
    fn a_real_run_passes_every_check() {
        let (ticks, report) = small_run();
        let pass = PassRecord {
            ticks: &ticks,
            report: &report,
            tick_secs: tick_secs(),
        };
        assert_eq!(check_pass(&pass), Vec::<String>::new());
        assert!(ticks.iter().any(|t| t.round.is_some()), "rounds ran");
    }

    #[test]
    fn a_perturbed_tick_watts_fails_the_energy_check() {
        let (mut ticks, report) = small_run();
        ticks[17].watts *= 1.0 + 1e-6;
        let pass = PassRecord {
            ticks: &ticks,
            report: &report,
            tick_secs: tick_secs(),
        };
        let failures = check_pass(&pass);
        assert!(
            failures.iter().any(|f| f.starts_with("energy")),
            "{failures:?}"
        );
    }

    #[test]
    fn a_lost_migration_fails_the_migration_check() {
        let (mut ticks, report) = small_run();
        ticks.push(TickOutcome {
            tick_idx: 60,
            round: Some(RoundOutcome {
                migrations: 1,
                degraded: false,
                fidelity: RoundFidelity::Full,
            }),
            ..ticks[59].clone()
        });
        let pass = PassRecord {
            ticks: &ticks,
            report: &report,
            tick_secs: tick_secs(),
        };
        let failures = check_pass(&pass);
        assert!(
            failures.iter().any(|f| f.starts_with("migrations")),
            "{failures:?}"
        );
    }

    #[test]
    fn served_beyond_offered_fails_the_request_check() {
        let (ticks, mut report) = small_run();
        let offered: f64 = ticks.iter().map(|t| t.rps * tick_secs()).sum();
        report.served_requests = offered - report.dropped_requests + 1.0;
        let pass = PassRecord {
            ticks: &ticks,
            report: &report,
            tick_secs: tick_secs(),
        };
        let failures = check_pass(&pass);
        assert!(
            failures.iter().any(|f| f.starts_with("requests")),
            "{failures:?}"
        );
    }

    #[test]
    fn an_sla_outside_the_unit_interval_fails() {
        let (mut ticks, mut report) = small_run();
        ticks[3].mean_sla = 1.0 + 1e-12;
        report.mean_sla = -0.0 - 1e-12;
        let pass = PassRecord {
            ticks: &ticks,
            report: &report,
            tick_secs: tick_secs(),
        };
        let failures = check_pass(&pass);
        assert_eq!(
            failures.iter().filter(|f| f.starts_with("sla")).count(),
            2,
            "{failures:?}"
        );
    }

    #[test]
    fn a_metric_off_by_one_ulp_breaks_report_identity() {
        let (_, report) = small_run();
        let a = outcome_metrics("", &report);
        let mut b = a.clone();
        assert_eq!(same_report(&a, &b), Ok(()));
        b[2].1 = f64::from_bits(b[2].1.to_bits() + 1);
        let err = same_report(&a, &b).unwrap_err();
        assert!(err.starts_with(b[2].0.as_str()), "{err}");
    }

    #[test]
    fn the_indexed_path_check_reads_counters_when_present() {
        let ok = vec![
            ("sched.bestfit.dispatch_index".to_string(), 3.0),
            ("sched.localsearch.candidates_rescored".to_string(), 9.0),
        ];
        assert!(check_indexed_path(&ok).is_empty());
        let scan_only = vec![("sched.bestfit.dispatch_index".to_string(), 0.0)];
        assert_eq!(check_indexed_path(&scan_only).len(), 1);
        assert!(check_indexed_path(&[]).is_empty(), "absent counters pass");
    }

    #[test]
    fn wrappers_leave_the_report_bit_identical() {
        let build = || ScenarioBuilder::paper_multi_dc().vms(6).seed(4).build();
        let run = |policy: Box<dyn PlacementPolicy>| {
            SimulationRunner::new(build(), policy)
                .run(SimDuration::from_hours(2))
                .0
        };
        let plain = run(Box::new(HierarchicalPolicy::new(TrueOracle::new())));
        let counts = Arc::new(OracleCounts::default());
        let decide_ns = Arc::new(Mutex::new(Vec::new()));
        let wrapped = run(Box::new(TimedPolicy::new(
            Box::new(HierarchicalPolicy::new(CountingOracle::new(
                TrueOracle::new(),
                counts.clone(),
            ))),
            decide_ns.clone(),
        )));
        assert_eq!(
            same_report(&outcome_metrics("", &plain), &outcome_metrics("", &wrapped)),
            Ok(())
        );
        assert_eq!(plain.policy_name, wrapped.policy_name);
        assert!(counts.demand.load(Ordering::Relaxed) > 0);
        assert_eq!(decide_ns.lock().unwrap().len(), 12, "one decide per round");
    }

    #[test]
    fn span_totals_sum_per_path() {
        let lines = vec![
            pamdc_obs::trace::span_line(0, "tick/plan", 1, 100),
            pamdc_obs::trace::counter_line(0, "sim.ticks", 1),
            pamdc_obs::trace::span_line(1, "tick/plan", 1, 50),
            pamdc_obs::trace::span_line(1, "tick", 1, 70),
        ];
        let totals = span_totals_ns(&lines);
        assert_eq!(totals.get("tick/plan"), Some(&150));
        assert_eq!(totals.get("tick"), Some(&70));
        assert_eq!(totals.len(), 2);
    }

    #[test]
    fn the_cpu_clock_counts_work() {
        let start = cpu_now();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_now() > start, "{x}");
    }

    #[test]
    fn a_child_reports_its_exit_code_and_usage() {
        let ok = run_child("sh", &["-c".into(), "exit 3".into()]).unwrap();
        assert_eq!(ok.code, 3);
        assert!(ok.peak_rss_mb > 0.0);
        let killed = run_child("sh", &["-c".into(), "kill -9 $$".into()]).unwrap();
        assert_eq!(killed.code, 128 + 9);
        assert!(run_child("/nonexistent/program", &[]).is_err());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), Some(50.0));
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(median(&[]), None);
    }
}
