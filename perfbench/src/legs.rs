//! The six execution paths ("legs") a workload's requests run through,
//! their set-up, and the checks that tie each leg's output to the others.
//!
//! Every leg is one closed-loop client with one request in flight. A leg
//! runs in units: a sim-type unit executes the whole request sequence on
//! fresh state; a socket unit executes the next chunk of requests on the
//! long-lived cluster. End-to-end figures come from untraced units only.
//! The traced run alternates untraced and traced units of equal size, so
//! attribution and tracing overhead compare like with like.

use crate::heap;
use crate::spans::{Tracer, ROOT};
use crate::stats;
use crate::workload::{AnalyticInput, Shape, Workload};
use crate::Sizes;
use doma_algorithms::multi::Placement;
use doma_core::{
    cost_of_schedule, run_online, AllocationSchedule, CostVector, DomaError, ObjectId, ProcSet,
    Result,
};
use doma_net::{Cluster, TransportKind};
use doma_protocol::{ProtocolSim, ShardOutcome, ShardedRun, ShardedSim, SimReport};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Leg {
    Sim,
    SimObs,
    Analytic,
    Sharded,
    Uds,
    Tcp,
}

impl Leg {
    /// Execution order.
    pub const ALL: [Leg; 6] = [
        Leg::Sim,
        Leg::SimObs,
        Leg::Analytic,
        Leg::Sharded,
        Leg::Uds,
        Leg::Tcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Leg::Analytic => "analytic",
            Leg::Sim => "sim",
            Leg::SimObs => "sim_obs",
            Leg::Sharded => "sharded",
            Leg::Uds => "uds",
            Leg::Tcp => "tcp",
        }
    }

    /// This leg's share of the run's `--seconds`, in fifteenths. The TCP
    /// leg gets the most because, at about 44 ms a request before the
    /// Nagle fix, it needs 4–5 s for the 100 samples its p90 rests on.
    /// The sim legs come next: their units are long, so a run holds few
    /// of them. The legs that report no end-to-end figure (sharded, UDS)
    /// and the analytic leg, whose units are short, get the least.
    pub fn weight(self) -> u32 {
        match self {
            Leg::Analytic | Leg::Sharded => 1,
            Leg::Uds => 2,
            Leg::Sim | Leg::SimObs => 3,
            Leg::Tcp => 5,
        }
    }

    fn root_span(self) -> &'static str {
        match self {
            Leg::Analytic => "leg.analytic",
            Leg::Sim => "leg.sim",
            Leg::SimObs => "leg.sim_obs",
            Leg::Sharded => "leg.sharded",
            Leg::Uds => "leg.uds",
            Leg::Tcp => "leg.tcp",
        }
    }
}

/// Event-log capacity of the sim_obs leg's bundle: the scenario
/// runner's default.
const OBS_EVENTS: usize = 512;
/// Shard count of the sharded leg: `nproc` of the 2-core box the
/// benchmark was calibrated on.
pub const SHARDS: usize = 2;

/// What one unit of a leg did.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Wall-clock seconds.
    pub secs: f64,
    /// Seconds of the driver thread's CPU time, for a leg that runs on
    /// the driver thread alone (analytic, sim, sim_obs); `None` for legs
    /// whose work runs on other threads too.
    pub cpu_secs: Option<f64>,
    /// Requests the unit attempted.
    pub requests: usize,
    /// Requests it did not execute (an error stopped the unit).
    pub unexecuted: usize,
    /// The leg's first untraced unit: it pays for first-touch memory,
    /// cold caches and (over TCP) the kernel's quick-ACK start, so it
    /// counts as attempted but not in any timing.
    pub warmup: bool,
}

impl Unit {
    pub fn executed(&self) -> usize {
        self.requests - self.unexecuted
    }

    /// Requests per wall-clock second.
    pub fn rate(&self) -> f64 {
        self.executed() as f64 / self.secs
    }

    /// Requests per second of the clock the leg is measured by: driver
    /// thread CPU time where the unit has it, wall time otherwise.
    pub fn measured_rate(&self) -> f64 {
        self.executed() as f64 / self.cpu_secs.unwrap_or(self.secs)
    }
}

/// A unit, the root span id of a traced unit, and why its output is
/// wrong if it is.
type UnitOutcome = (Unit, Option<u32>, Option<String>);

/// Everything one leg measured.
#[derive(Debug, Default)]
pub struct LegRecord {
    pub units: Vec<Unit>,
    /// Root span ids of traced units.
    pub traced: Vec<u32>,
    /// Per-request latency of untraced socket units, in microseconds.
    pub latencies_us: Vec<f64>,
    /// Why the leg's output is wrong, if it is.
    pub failures: Vec<String>,
    /// Requests of units that ended in an error.
    pub erred: u64,
}

impl LegRecord {
    pub fn attempted(&self) -> u64 {
        self.units.iter().map(|u| u.requests as u64).sum::<u64>() + self.erred
    }

    /// Requests that count as failed: all of them once a check failed,
    /// otherwise those an error left unexecuted.
    pub fn failed(&self) -> u64 {
        if self.failures.is_empty() {
            self.units.iter().map(|u| u.unexecuted as u64).sum()
        } else {
            self.attempted()
        }
    }

    /// Untraced units that count in timings.
    pub fn timed(&self) -> impl Iterator<Item = &Unit> + Clone {
        self.units.iter().filter(|u| !u.warmup)
    }

    /// Requests per second.
    ///
    /// A socket leg reports its median chunk: host scheduling hiccups
    /// make a few chunks many times slower.
    ///
    /// A leg on the driver thread alone (analytic, sim, sim_obs) times
    /// its units by that thread's CPU time and reports the lower quartile
    /// of their rates. On a shared host the wall time of a unit grows
    /// with the time the thread waits for a CPU, which the CPU clock
    /// leaves out. What remains is the host's speed, which comes in
    /// spells: slow ones while neighbours load the shared cores and
    /// caches, and fast ones, seconds long, while they are idle. How many
    /// fast spells a run catches varies from run to run; the slow floor
    /// varies less, and the lower quartile sits on it.
    ///
    /// The sharded leg, whose work runs on two worker threads, reports
    /// its timed requests over its timed wall seconds.
    pub fn throughput(&self, leg: Leg) -> f64 {
        match leg {
            Leg::Uds | Leg::Tcp => {
                let rates: Vec<f64> = self.timed().map(Unit::rate).collect();
                stats::median(&rates)
            }
            Leg::Analytic | Leg::Sim | Leg::SimObs => {
                let mut rates: Vec<f64> = self.timed().map(Unit::measured_rate).collect();
                rates.sort_by(f64::total_cmp);
                stats::percentile(&rates, 25)
            }
            Leg::Sharded => self.wall_throughput(),
        }
    }

    /// Timed requests over timed wall seconds.
    pub fn wall_throughput(&self) -> f64 {
        let executed: usize = self.timed().map(Unit::executed).sum();
        let secs: f64 = self.timed().map(|u| u.secs).sum();
        executed as f64 / secs
    }

    pub fn median_secs(&self) -> f64 {
        let secs: Vec<f64> = self.timed().map(|u| u.secs).collect();
        stats::median(&secs)
    }
}

/// The outputs of the first unit of each sim-type leg, which the checks
/// compare.
#[derive(Debug, Default)]
struct Outputs {
    sim: Option<SimReport>,
    sim_obs: Option<SimReport>,
    analytic: Option<Vec<(ObjectId, CostVector, ProcSet)>>,
    sharded: Option<ShardedRun>,
}

/// A workload with everything its legs need, built by [`Bench::setup`].
pub struct Bench {
    pub w: Workload,
    analytic: AnalyticInput,
    sharded: ShardedSim,
    uds: Cluster,
    tcp: Cluster,
    /// Requests each cluster has executed; a socket leg walks the
    /// request sequence cyclically.
    uds_done: usize,
    tcp_done: usize,
    outputs: Outputs,
    pub records: BTreeMap<Leg, LegRecord>,
    /// Heap bytes the first sim unit's engine kept per executed request.
    pub sim_heap_bytes_per_req: Option<f64>,
    /// Engine events the first sim unit dispatched.
    pub engine_events: u64,
    /// Event-log records the first sim_obs unit appended.
    pub obs_events: u64,
    /// `(max shard requests / mean)` of the sharded leg's projection.
    pub imbalance: f64,
}

impl Bench {
    /// Everything before the first timed request: request generation,
    /// catalog build, and both clusters' `Cluster::new` (bind, spawn,
    /// mesh connect). Returns the bench and the CPU seconds set-up took,
    /// summed over the driver and the node threads it starts. The wall
    /// time of the thread spawns and connects follows the shared host's
    /// load: mobile-mc's set-up, mostly cluster boots, took 19–28 ms of
    /// wall time and 13–16 ms of CPU time in five runs at one sitting.
    pub fn setup(
        shape: Shape,
        len: usize,
        seed: u64,
        mut tr: Option<&mut Tracer>,
    ) -> Result<(Bench, f64)> {
        let cpu = stats::process_cpu_secs();
        let start = Instant::now();
        let root = tr.as_deref_mut().map(|t| t.open("setup", ROOT, 0));
        let w = Workload::generate(shape, len, seed)?;
        let t_gen = Instant::now();
        let analytic = w.analytic_input()?;
        let sharded = ShardedSim::new(w.n, w.sharded_configs(), SHARDS, Placement::RoundRobin)?;
        let t_catalog = Instant::now();
        let uds = boot(&w, TransportKind::Uds)?;
        let t_uds = Instant::now();
        let tcp = boot(&w, TransportKind::Tcp)?;
        let t_tcp = Instant::now();
        if let (Some(t), Some(root)) = (tr, root) {
            t.record("workload.gen", root, 0, t.at(start), t.at(t_gen));
            t.record("catalog.build", root, 0, t.at(t_gen), t.at(t_catalog));
            t.record("net.boot", root, 0, t.at(t_catalog), t.at(t_uds));
            t.record("net.boot_tcp", root, 0, t.at(t_uds), t.at(t_tcp));
            t.close(root);
        }
        let secs = stats::process_cpu_secs() - cpu;
        let bench = Bench {
            w,
            analytic,
            sharded,
            uds,
            tcp,
            uds_done: 0,
            tcp_done: 0,
            outputs: Outputs::default(),
            records: BTreeMap::new(),
            sim_heap_bytes_per_req: None,
            engine_events: 0,
            obs_events: 0,
            imbalance: 0.0,
        };
        Ok((bench, secs))
    }

    /// Stops both clusters and joins their node threads.
    pub fn shutdown(self) -> Result<()> {
        let uds = self.uds.shutdown();
        self.tcp.shutdown().and(uds)
    }

    /// Runs untraced units of every leg for `seconds`, interleaved:
    /// each next unit goes to the leg that has used the smallest part of
    /// its [`Leg::weight`]ed share so far. Interleaving spreads every
    /// leg's units over the whole run, so a noisy spell on a shared host
    /// slows all legs a little rather than one leg a lot. The run goes on
    /// past `seconds` until every leg has at least three timed units and
    /// [`Sizes::min_requests`] timed requests; a leg whose unit errs
    /// stops. A leg with a [`Sizes::burst`] of more than one runs that
    /// many units back to back and times all but the first, which warms
    /// the caches the previous leg left cold.
    pub fn run_legs(&mut self, seconds: f64, sizes: &Sizes) {
        let start = Instant::now();
        let mut used: BTreeMap<Leg, f64> = Leg::ALL.iter().map(|l| (*l, 0.0)).collect();
        loop {
            let short = |b: &Bench, leg: Leg| {
                b.records.get(&leg).is_none_or(|r| {
                    let timed = r.timed();
                    timed.clone().count() < 3
                        || timed.map(|u| u.requests).sum::<usize>() < sizes.min_requests(leg)
                })
            };
            let live = || used.keys().copied();
            let next = if start.elapsed().as_secs_f64() < seconds {
                live().min_by(|a, b| {
                    let share = |l: &Leg| used[l] / l.weight() as f64;
                    share(a).total_cmp(&share(b))
                })
            } else {
                live().find(|l| short(self, *l))
            };
            let Some(leg) = next else { return };
            let t = Instant::now();
            let burst = sizes.burst(leg);
            let chunk = sizes.chunk(leg);
            let result =
                (0..burst).try_for_each(|k| self.unit(leg, chunk, None, burst > 1 && k == 0));
            if let Err(e) = result {
                self.unit_failed(leg, self.unit_requests(leg, chunk), e);
                used.remove(&leg);
                continue;
            }
            if let Some(u) = used.get_mut(&leg) {
                *u += t.elapsed().as_secs_f64();
            }
        }
    }

    /// The traced run's version of [`Bench::run_legs`], one leg at a
    /// time: `pairs` times an untraced unit followed by a traced unit of
    /// the same size.
    pub fn run_leg_traced(&mut self, leg: Leg, pairs: usize, chunk: usize, tr: &mut Tracer) {
        for _ in 0..pairs {
            for traced in [false, true] {
                let result = if traced {
                    self.unit(leg, chunk, Some(&mut *tr), false)
                } else {
                    self.unit(leg, chunk, None, false)
                };
                if let Err(e) = result {
                    self.unit_failed(leg, self.unit_requests(leg, chunk), e);
                    return;
                }
            }
        }
    }

    fn fail(&mut self, leg: Leg, why: String) {
        self.records.entry(leg).or_default().failures.push(why);
    }

    /// Records a unit of `requests` requests that ended in error `e`.
    fn unit_failed(&mut self, leg: Leg, requests: usize, e: DomaError) {
        let record = self.records.entry(leg).or_default();
        record.erred += requests as u64;
        record
            .failures
            .push(format!("{} unit failed: {e}", leg.name()));
    }

    /// Requests one unit of `leg` attempts.
    fn unit_requests(&self, leg: Leg, chunk: usize) -> usize {
        match leg {
            Leg::Uds | Leg::Tcp => chunk,
            _ => self.w.requests().len(),
        }
    }

    /// One unit of `leg`. A traced unit records its spans and root id
    /// instead of a [`Unit`]. `warming` marks an untraced unit that only
    /// warms the caches: it is checked but not timed.
    fn unit(
        &mut self,
        leg: Leg,
        chunk: usize,
        tr: Option<&mut Tracer>,
        warming: bool,
    ) -> Result<()> {
        let traced = tr.is_some();
        let warmup =
            !traced && (warming || self.records.get(&leg).is_none_or(|r| r.units.is_empty()));
        let (mut unit, root, failure) = match leg {
            Leg::Sim | Leg::SimObs => self.sim_unit(leg, tr)?,
            Leg::Analytic => self.analytic_unit(tr)?,
            Leg::Sharded => self.sharded_unit(tr)?,
            Leg::Uds | Leg::Tcp => self.net_unit(leg, chunk, tr, warmup)?,
        };
        unit.warmup = warmup;
        let record = self.records.entry(leg).or_default();
        record.failures.extend(failure);
        match (traced, root) {
            (true, Some(root)) => record.traced.push(root),
            _ => record.units.push(unit),
        }
        Ok(())
    }

    /// The sequential simulator, one fresh engine per unit running the
    /// whole request sequence closed-loop. An error (the engine's event
    /// budget) ends the unit; throughput then covers the executed prefix.
    fn sim_unit(&mut self, leg: Leg, tr: Option<&mut Tracer>) -> Result<UnitOutcome> {
        let mut sim = self.w.sim()?;
        let obs = (leg == Leg::SimObs).then(|| sim.attach_obs(OBS_EVENTS));
        let requests = self.w.requests();
        let total = requests.len();
        // The first untraced sim unit also measures the heap bytes the
        // engine keeps per request.
        let heap_before = (leg == Leg::Sim && tr.is_none() && self.outputs.sim.is_none())
            .then(heap::thread_net_bytes);
        let mut done = 0;
        let mut error = None;
        let (secs, cpu_secs, root) = match tr {
            None => {
                let cpu = stats::thread_cpu_secs();
                let start = Instant::now();
                for r in requests {
                    if let Err(e) = sim.execute_request_on(r.object, r.request) {
                        error = Some(e);
                        break;
                    }
                    done += 1;
                }
                let secs = start.elapsed().as_secs_f64();
                (secs, Some(stats::thread_cpu_secs() - cpu), None)
            }
            Some(t) => {
                let (inject, settle) = match leg {
                    Leg::Sim => ("sim.inject", "sim.settle"),
                    _ => ("sim_obs.inject", "sim_obs.settle"),
                };
                let root = t.open(leg.root_span(), ROOT, 0);
                let mut t0 = t.now();
                for (k, r) in requests.iter().enumerate() {
                    let injected = sim.inject_request_on(r.object, r.request);
                    let t1 = t.now();
                    t.record(inject, root, k as u64, t0, t1);
                    let settled = injected.and_then(|_| sim.settle());
                    let t2 = t.now();
                    t.record(settle, root, k as u64, t1, t2);
                    t0 = t2;
                    if let Err(e) = settled {
                        error = Some(e);
                        break;
                    }
                    done += 1;
                }
                t.close(root);
                (t.duration(root) as f64 / 1e9, None, Some(root))
            }
        };
        if let (Some(before), true) = (heap_before, done > 0) {
            let kept = heap::thread_net_bytes() - before;
            self.sim_heap_bytes_per_req = Some(kept as f64 / done as f64);
        }
        let mut failure =
            error.map(|e| format!("{} stopped after {done} requests: {e}", leg.name()));
        let report = sim.report();
        let first = match leg {
            Leg::Sim => &mut self.outputs.sim,
            _ => &mut self.outputs.sim_obs,
        };
        match first {
            None => {
                *first = Some(report);
                if leg == Leg::Sim {
                    self.engine_events = sim.engine_ref().dispatched();
                }
                if let Some(obs) = obs {
                    self.obs_events = obs.events().next_index();
                }
            }
            Some(expected) if *expected != report => {
                failure.get_or_insert(format!(
                    "{} units disagree: {expected:?} vs {report:?}",
                    leg.name()
                ));
            }
            Some(_) => {}
        }
        let unit = Unit {
            secs,
            cpu_secs,
            requests: total,
            unexecuted: total - done,
            warmup: false,
        };
        Ok((unit, root, failure))
    }

    /// The analytic cost engine: per object, `run_online` (the online
    /// algorithm's decisions, then `cost_of_schedule`). The traced unit
    /// makes the same two calls separately so that each gets a span.
    fn analytic_unit(&mut self, tr: Option<&mut Tracer>) -> Result<UnitOutcome> {
        let mut results = Vec::with_capacity(self.analytic.len());
        let (secs, cpu_secs, root) = match tr {
            None => {
                let cpu = stats::thread_cpu_secs();
                let start = Instant::now();
                for (object, algo, schedule) in &mut self.analytic {
                    let out = run_online(algo.as_mut(), schedule)?;
                    results.push((*object, out.costed.total, out.costed.final_scheme));
                }
                let secs = start.elapsed().as_secs_f64();
                (secs, Some(stats::thread_cpu_secs() - cpu), None)
            }
            Some(t) => {
                let root = t.open(Leg::Analytic.root_span(), ROOT, 0);
                let mut t0 = t.now();
                for (object, algo, schedule) in &mut self.analytic {
                    algo.reset();
                    let mut alloc = AllocationSchedule::new(algo.initial_scheme());
                    for request in schedule.iter() {
                        let decision = algo.decide(request);
                        alloc.push(request, decision);
                    }
                    let t1 = t.now();
                    t.record("algorithms.decide", root, object.0, t0, t1);
                    let costed = cost_of_schedule(&alloc, algo.t())?;
                    let t2 = t.now();
                    t.record("core.cost", root, object.0, t1, t2);
                    t0 = t2;
                    results.push((*object, costed.total, costed.final_scheme));
                }
                t.close(root);
                (t.duration(root) as f64 / 1e9, None, Some(root))
            }
        };
        let failure = match &self.outputs.analytic {
            None => {
                self.outputs.analytic = Some(results);
                None
            }
            Some(expected) if *expected != results => Some("analytic units disagree".into()),
            Some(_) => None,
        };
        let unit = Unit {
            secs,
            cpu_secs,
            requests: self.w.requests().len(),
            unexecuted: 0,
            warmup: false,
        };
        Ok((unit, root, failure))
    }

    /// `ShardedSim::execute_multi` with K = 2. The traced unit drives the
    /// same pipeline through the phase API — partition, project, one
    /// worker thread per shard, merge — so that each phase gets a span.
    fn sharded_unit(&mut self, tr: Option<&mut Tracer>) -> Result<UnitOutcome> {
        let schedule = &self.w.schedule;
        let (secs, run, root) = match tr {
            None => {
                let start = Instant::now();
                let run = self.sharded.execute_multi(schedule)?;
                (start.elapsed().as_secs_f64(), run, None)
            }
            Some(t) => {
                let root = t.open(Leg::Sharded.root_span(), ROOT, 0);
                let t0 = t.now();
                let assignment = self.sharded.partition(schedule)?;
                let t1 = t.now();
                t.record("sharded.partition", root, 0, t0, t1);
                let inputs = self.sharded.project(schedule, &assignment);
                let t2 = t.now();
                t.record("sharded.project", root, 0, t1, t2);
                let sizes: Vec<f64> = inputs.iter().map(|(_, s)| s.len() as f64).collect();
                let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
                self.imbalance = sizes.iter().copied().fold(0.0, f64::max) / mean;
                let sharded = &self.sharded;
                let workers: Vec<(Instant, Instant, Result<ShardOutcome>)> =
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = inputs
                            .into_iter()
                            .map(|input| {
                                scope.spawn(move || {
                                    let start = Instant::now();
                                    let out = sharded.run_shard_inline(input);
                                    (start, Instant::now(), out)
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("shard worker panicked"))
                            .collect()
                    });
                let t3 = t.now();
                let mut outcomes = Vec::with_capacity(workers.len());
                for (k, (start, end, out)) in workers.into_iter().enumerate() {
                    t.record("sharded.shard", root, k as u64, t.at(start), t.at(end));
                    outcomes.push(out?);
                }
                let run = self.sharded.merge_outcomes(assignment, outcomes);
                let t4 = t.now();
                t.record("sharded.merge", root, 0, t3, t4);
                t.close(root);
                (t.duration(root) as f64 / 1e9, run, Some(root))
            }
        };
        let unit = Unit {
            secs,
            cpu_secs: None,
            requests: schedule.len(),
            unexecuted: 0,
            warmup: false,
        };
        let failure = match &self.outputs.sharded {
            None => {
                self.outputs.sharded = Some(run);
                None
            }
            Some(expected) if expected.report != run.report || expected.holders != run.holders => {
                Some(format!(
                    "sharded units disagree: {:?} vs {:?}",
                    expected.report, run.report
                ))
            }
            Some(_) => None,
        };
        Ok((unit, root, failure))
    }

    /// The next `chunk` requests on a long-lived cluster, one
    /// `Cluster::execute_request` at a time.
    fn net_unit(
        &mut self,
        leg: Leg,
        chunk: usize,
        tr: Option<&mut Tracer>,
        warmup: bool,
    ) -> Result<UnitOutcome> {
        let requests = self.w.requests();
        let (cluster, done) = match leg {
            Leg::Uds => (&mut self.uds, &mut self.uds_done),
            _ => (&mut self.tcp, &mut self.tcp_done),
        };
        let (secs, root) = match tr {
            None => {
                let mut latencies = Vec::with_capacity(chunk);
                let start = Instant::now();
                let mut prev = start;
                for _ in 0..chunk {
                    let r = requests[*done % requests.len()];
                    cluster.execute_request(r.object, r.request)?;
                    *done += 1;
                    let now = Instant::now();
                    latencies.push((now - prev).as_secs_f64() * 1e6);
                    prev = now;
                }
                let secs = (prev - start).as_secs_f64();
                if !warmup {
                    let record = self.records.entry(leg).or_default();
                    record.latencies_us.extend(latencies);
                }
                (secs, None)
            }
            Some(t) => {
                let name = match leg {
                    Leg::Uds => "uds.execute_request",
                    _ => "tcp.execute_request",
                };
                let root = t.open(leg.root_span(), ROOT, 0);
                let mut t0 = t.now();
                for _ in 0..chunk {
                    let r = requests[*done % requests.len()];
                    let result = cluster.execute_request(r.object, r.request);
                    let t1 = t.now();
                    t.record(name, root, *done as u64, t0, t1);
                    t0 = t1;
                    result?;
                    *done += 1;
                }
                t.close(root);
                (t.duration(root) as f64 / 1e9, Some(root))
            }
        };
        let unit = Unit {
            secs,
            cpu_secs: None,
            requests: chunk,
            unexecuted: 0,
            warmup: false,
        };
        Ok((unit, root, None))
    }

    /// Checks every leg's output against the others and records each
    /// mismatch, with the difference, on the leg it convicts. Returns
    /// the reference run the checks used.
    pub fn verify(&mut self) -> Result<Reference> {
        let reference = Reference::run(&self.w)?;
        let mut failures: Vec<(Leg, String)> = Vec::new();

        // sim vs the analytic engine, object by object.
        if let Some(analytic) = &self.outputs.analytic {
            let by_object: BTreeMap<ObjectId, (CostVector, ProcSet)> = analytic
                .iter()
                .map(|(o, cost, scheme)| (*o, (*cost, *scheme)))
                .collect();
            for (object, config) in &self.w.configs {
                let expected = by_object
                    .get(object)
                    .copied()
                    .unwrap_or((CostVector::ZERO, config.initial_scheme()));
                let got = (
                    reference
                        .per_object
                        .get(object)
                        .copied()
                        .unwrap_or_default(),
                    reference.holders[object],
                );
                if got != expected {
                    failures.push((
                        Leg::Sim,
                        format!(
                            "{object}: sim cost {} holders {} vs analytic cost {} scheme {}",
                            got.0, got.1, expected.0, expected.1
                        ),
                    ));
                    break;
                }
            }
        }
        for (leg, report) in [
            (Leg::Sim, &self.outputs.sim),
            (Leg::SimObs, &self.outputs.sim_obs),
        ] {
            if let Some(report) = report {
                if *report != reference.report {
                    failures.push((
                        leg,
                        format!("{report:?} vs reference {:?}", reference.report),
                    ));
                }
            }
        }

        // sharded vs a sequential run of the same catalog.
        if let Some(run) = &self.outputs.sharded {
            let (expected, holders) = if self.w.shape == Shape::MobileMc {
                let mut sim = ProtocolSim::new_catalog(self.w.n, self.w.sharded_configs())?;
                let report = sim.execute_multi(&self.w.schedule)?;
                (report, holders_of(&sim, &self.w.sharded_configs()))
            } else {
                (reference.report.clone(), reference.holders.clone())
            };
            if run.report != expected || run.holders != holders {
                failures.push((
                    Leg::Sharded,
                    format!("{:?} vs sequential {expected:?}", run.report),
                ));
            }
        }

        // Each cluster vs a sim twin of the requests it executed.
        for leg in [Leg::Uds, Leg::Tcp] {
            let (cluster, done) = match leg {
                Leg::Uds => (&mut self.uds, self.uds_done),
                _ => (&mut self.tcp, self.tcp_done),
            };
            if done == 0 {
                continue;
            }
            let requests = self.w.requests();
            let mut twin = self.w.sim()?;
            for k in 0..done {
                let r = requests[k % requests.len()];
                twin.execute_request_on(r.object, r.request)?;
            }
            let expected = twin.report();
            match cluster.report() {
                Ok(got)
                    if got.cost == expected.cost
                        && got.final_holders == expected.final_holders
                        && got.reads_completed == expected.reads_completed
                        && got.errors == 0 => {}
                Ok(got) => failures.push((
                    leg,
                    format!(
                        "cluster cost {} holders {} reads {} errors {} vs sim cost {} holders {} reads {}",
                        got.cost,
                        got.final_holders,
                        got.reads_completed,
                        got.errors,
                        expected.cost,
                        expected.final_holders,
                        expected.reads_completed
                    ),
                )),
                Err(e) => failures.push((leg, format!("cluster report failed: {e}"))),
            }
        }
        for (leg, why) in failures {
            self.fail(leg, why);
        }
        Ok(reference)
    }

    /// The leg's attribution, the median time its traced units' layer
    /// spans cover over its median untraced unit time, and its tracing
    /// overhead, median traced over median untraced unit time minus one.
    pub fn attribution(&self, leg: Leg, tr: &Tracer, self_times: &[u64]) -> Option<(f64, f64)> {
        let record = self.records.get(&leg)?;
        if record.traced.is_empty() || record.units.is_empty() {
            return None;
        }
        let untraced = record.median_secs();
        let traced: Vec<f64> = record
            .traced
            .iter()
            .map(|&root| tr.duration(root) as f64 / 1e9)
            .collect();
        let covered: Vec<f64> = record
            .traced
            .iter()
            .map(|&root| tr.covered(root, self_times) as f64 / 1e9)
            .collect();
        Some((
            stats::median(&covered) / untraced,
            stats::median(&traced) / untraced - 1.0,
        ))
    }
}

/// `Cluster::new` plus one `node_reports` round. `Cluster::new` returns
/// once the driver is connected to every node, while the nodes may
/// still be connecting to each other; a node answers the driver only
/// after its own mesh connects are done, so the round returns when the
/// whole mesh is up. Without it, shutting a fresh cluster down races
/// the mesh connects: a node still connecting to a peer that has
/// already exited fails with "connection refused".
pub fn boot(w: &Workload, kind: TransportKind) -> Result<Cluster> {
    let mut cluster = Cluster::new(w.n, w.configs.clone(), w.oracles()?, kind, None)?;
    cluster.node_reports()?;
    Ok(cluster)
}

/// A fresh sim run of the whole request sequence with per-request cost
/// deltas: the reference the legs are checked against.
pub struct Reference {
    pub report: SimReport,
    pub per_object: BTreeMap<ObjectId, CostVector>,
    pub holders: BTreeMap<ObjectId, ProcSet>,
}

impl Reference {
    fn run(w: &Workload) -> Result<Reference> {
        let mut sim = w.sim()?;
        let mut per_object: BTreeMap<ObjectId, CostVector> = BTreeMap::new();
        let mut before = CostVector::ZERO;
        for r in w.requests() {
            sim.execute_request_on(r.object, r.request)?;
            let after = sim.report().cost;
            *per_object.entry(r.object).or_default() += after.saturating_sub(&before);
            before = after;
        }
        let holders = holders_of(&sim, &w.configs);
        Ok(Reference {
            report: sim.report(),
            per_object,
            holders,
        })
    }
}

fn holders_of(
    sim: &ProtocolSim,
    configs: &BTreeMap<ObjectId, doma_protocol::ProtocolConfig>,
) -> BTreeMap<ObjectId, ProcSet> {
    configs
        .keys()
        .map(|o| (*o, sim.valid_holders_of(*o)))
        .collect()
}
