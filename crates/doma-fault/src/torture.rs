//! The randomized torture driver: seeded fault plans crossed with the
//! workload generators, run against the full tournament roster (SA, DA
//! and the five adaptive allocators) and the failover path with
//! [`InvariantChecker`] auditing every step.
//!
//! Every random decision of an episode — cluster size, scheme membership,
//! workload shape, crash victims, partition sides, drop/delay/duplicate
//! rules — is derived from one `u64` seed via the testkit's xoshiro
//! generator, so an episode is fully reproduced by re-running with the
//! same seed. On an invariant violation, [`TortureFailure`] carries the
//! one-line `DOMA_FAULT_SEED=…` replay recipe **plus the observability
//! evidence**: the metric delta since the last passing audit and the
//! tail of the shared event log (message trace, engine lifecycle and
//! protocol spans interleaved), so the report shows *what the cluster
//! was doing* when the invariant broke, not just that it broke.
//!
//! Three fault classes, deliberately disjoint so every episode's checks
//! stay sound (the comments in [`run_episode`] spell out why each phase
//! is safe to assert over):
//!
//! * [`FaultClass::Crash`] — crash/recover churn under normal service,
//!   bounded by the paper's `< t` simultaneous-failure assumption (and by
//!   a cluster minority, so quorum fallback stays live).
//! * [`FaultClass::Partition`] — the cluster is degraded to quorum mode
//!   first (normal SA/DA is not loss-tolerant by design), then a minority
//!   side is cut off for a window, then the partition heals.
//! * [`FaultClass::Drop`] — probabilistic drop/delay/duplicate/jitter
//!   rules over random links and message kinds, again under quorum mode.

use crate::invariants::{InvariantChecker, Regime, Violation};
use doma_core::{ProcessorId, Request};
use doma_protocol::failover::FailoverDriver;
use doma_protocol::{BugSwitches, ProtocolSim};
use doma_sim::{FaultAction, FaultPlan, FaultRule, FaultStats, LinkFilter, MsgKind, NodeId};
use doma_storage::Version;
use doma_testkit::replay::{replay_line, FaultSeeds};
use doma_testkit::rng::{Rng, TestRng};
use doma_workload::{HotspotWorkload, ScheduleGen, UniformWorkload, ZipfWorkload};
use std::fmt;

/// Event-log bound for an episode: large enough that the failure tail
/// shows the choreography leading up to a violation, small enough that a
/// sweep of episodes stays cheap. Overflow is counted, never silent.
const EPISODE_EVENT_CAPACITY: usize = 512;

/// How many trailing event records a failure report carries.
const EVENT_TAIL_LEN: usize = 12;

/// Which protocol an episode exercises — the full tournament roster: the
/// paper's SA/DA plus the five adaptive allocators run as plan oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Static allocation (read-one-write-all over a fixed `Q`).
    Sa,
    /// Dynamic allocation (core `F`, floating member).
    Da,
    /// Sliding-window convergent baseline (promoted).
    Convergent,
    /// Write-invalidate cache baseline (promoted).
    WriteInvalidate,
    /// Cost-oblivious reallocation contender.
    CostOblivious,
    /// Multiple-mobile-resource mirror contender.
    MobileMirror,
    /// Clustering-based fragment allocation contender.
    Clustered,
}

impl Algo {
    /// Every torture-matrix algorithm, in display order.
    pub const ALL: [Algo; 7] = [
        Algo::Sa,
        Algo::Da,
        Algo::Convergent,
        Algo::WriteInvalidate,
        Algo::CostOblivious,
        Algo::MobileMirror,
        Algo::Clustered,
    ];
}

impl fmt::Display for Algo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Algo::Sa => "sa",
            Algo::Da => "da",
            Algo::Convergent => "convergent",
            Algo::WriteInvalidate => "write-invalidate",
            Algo::CostOblivious => "cost-oblivious",
            Algo::MobileMirror => "mobile-mirror",
            Algo::Clustered => "clustered",
        })
    }
}

/// The family of faults an episode injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Crash/recover churn under normal-mode service.
    Crash,
    /// A minority network partition under quorum mode.
    Partition,
    /// Probabilistic message drop/delay/duplicate/jitter under quorum
    /// mode.
    Drop,
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultClass::Crash => "crash",
            FaultClass::Partition => "partition",
            FaultClass::Drop => "drop",
        })
    }
}

/// Summary of one surviving episode.
#[derive(Debug, Clone)]
pub struct EpisodeOutcome {
    /// Cluster size.
    pub n: usize,
    /// Requests actually issued (crashed issuers are skipped).
    pub requests_issued: usize,
    /// Reads that completed across the cluster.
    pub reads_completed: u64,
    /// Faults the network injected (zero for [`FaultClass::Crash`]).
    pub faults: FaultStats,
    /// Crash events performed by the driver.
    pub crashes: usize,
}

/// An invariant violation, with everything needed to reproduce it *and*
/// the observability evidence of what the cluster was doing.
#[derive(Debug, Clone)]
pub struct TortureFailure {
    /// The episode seed.
    pub seed: u64,
    /// The matrix cell and sampled shape, e.g. `da/partition/n6`.
    pub scenario: String,
    /// The violated invariant.
    pub violation: Violation,
    /// The rendered metric delta since the last *passing* audit — the
    /// cost and lifecycle activity of exactly the step that broke.
    pub metrics_delta: String,
    /// The rendered tail of the shared event log: message deliveries,
    /// crash/recover/drop records and protocol spans, interleaved.
    pub event_tail: String,
    /// The one-line replay recipe to print.
    pub replay: String,
}

impl fmt::Display for TortureFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "torture episode {} (seed {:#x}) violated an invariant:",
            self.scenario, self.seed
        )?;
        writeln!(f, "  {}", self.violation)?;
        if !self.metrics_delta.is_empty() {
            writeln!(f, "  metric delta since the last passing audit:")?;
            for line in self.metrics_delta.lines() {
                writeln!(f, "  {line}")?;
            }
        }
        if !self.event_tail.is_empty() {
            writeln!(f, "  event-log tail:")?;
            for line in self.event_tail.lines() {
                writeln!(f, "    {line}")?;
            }
        }
        write!(f, "  {}", self.replay)
    }
}

fn trace(driver: &FailoverDriver, n: usize, what: &str) {
    if std::env::var("DOMA_FAULT_TRACE").is_err() {
        return;
    }
    let state: Vec<String> = (0..n)
        .map(|i| {
            let a = driver.sim().engine_ref().actor(NodeId(i));
            format!(
                "p{i}{}{}={:?}",
                if driver.is_crashed(ProcessorId::new(i)) {
                    "X"
                } else {
                    ""
                },
                if a.holds_valid() { "+" } else { "-" },
                a.replica_version().map(|v| v.0)
            )
        })
        .collect();
    doma_obs::console::debug_line(&format!(
        "TRACE [{what}] latest={} {}",
        driver.sim().latest_version().0,
        state.join(" ")
    ));
}

fn regime_of(driver: &FailoverDriver, n: usize) -> Regime {
    let degraded = (0..n).any(|i| {
        !driver.is_crashed(ProcessorId::new(i))
            && driver.sim().engine_ref().actor(NodeId(i)).in_quorum_mode()
    });
    if degraded {
        Regime::Degraded
    } else {
        Regime::Normal
    }
}

/// The version a just-executed write committed under normal-mode
/// guarantees: only a write that actually reached `t` valid replicas
/// raises the one-copy floor. (With crashed execution-set members a
/// normal-mode write can land on fewer replicas — the paper's guarantees
/// assume fewer than `t` failures, and the checker must not assert more
/// than the protocol promises.)
fn committed_write(driver: &FailoverDriver, req: Request, t: usize) -> Option<Version> {
    if req.is_read() {
        return None;
    }
    let v = driver.sim().latest_version();
    (driver.sim().holders_of(v).len() >= t).then_some(v)
}

/// Shared audit state: the episode identity the failure report carries,
/// plus the observability checkpoint that turns a violation into a
/// metric *delta* (the activity of exactly the failing step, not
/// since-construction totals).
struct AuditCtx {
    obs: doma_obs::Obs,
    /// Registry snapshot at the last passing audit — the delta baseline.
    last: doma_obs::MetricsSnapshot,
    n: usize,
    seed: u64,
    scenario: String,
}

impl AuditCtx {
    fn failure(&self, violation: Violation) -> TortureFailure {
        let delta = self.obs.metrics().snapshot().delta(&self.last);
        let tail: Vec<String> = self
            .obs
            .events()
            .tail(EVENT_TAIL_LEN)
            .iter()
            .map(|e| e.to_string())
            .collect();
        TortureFailure {
            seed: self.seed,
            scenario: self.scenario.clone(),
            violation,
            metrics_delta: delta.to_string(),
            event_tail: tail.join("\n"),
            replay: replay_line(self.seed, &self.scenario, "fault_torture"),
        }
    }
}

fn audit(
    checker: &mut InvariantChecker,
    driver: &mut FailoverDriver,
    ctx: &mut AuditCtx,
    wrote: Option<Version>,
    context: &str,
) -> Result<(), Box<TortureFailure>> {
    let regime = regime_of(driver, ctx.n);
    // Attribute any I/O performed outside message dispatch before
    // snapshotting, so the delta is exact.
    driver.sim_mut().obs_flush();
    match checker.check(driver, regime, wrote, context) {
        Ok(()) => {
            ctx.last = ctx.obs.metrics().snapshot();
            Ok(())
        }
        Err(violation) => Err(Box::new(ctx.failure(violation))),
    }
}

/// Runs one fully seeded episode: samples a cluster, a workload and a
/// fault schedule from `seed`, executes them under the invariant checker,
/// and returns either the episode summary or the first violation.
pub fn run_episode(
    seed: u64,
    algo: Algo,
    class: FaultClass,
) -> Result<EpisodeOutcome, Box<TortureFailure>> {
    run_episode_observed(seed, algo, class, BugSwitches::default()).0
}

/// [`run_episode`] with reverted-fix switches installed (regression
/// tests only — see [`doma_protocol::BugSwitches`]): forces the
/// violations the hardening fixes prevent, exercising the failure
/// report's metric delta and event-log tail.
#[doc(hidden)]
pub fn run_episode_with_bugs(
    seed: u64,
    algo: Algo,
    class: FaultClass,
    bugs: BugSwitches,
) -> Result<EpisodeOutcome, Box<TortureFailure>> {
    run_episode_observed(seed, algo, class, bugs).0
}

/// Runs one episode (violation or not) and returns the final
/// observability snapshot as stable JSON — same seed ⇒ byte-identical
/// output, the determinism contract `doma-obs` guarantees and the
/// root-level property test asserts.
pub fn episode_obs_json(seed: u64, algo: Algo, class: FaultClass) -> String {
    let (_, obs) = run_episode_observed(seed, algo, class, BugSwitches::default());
    obs.snapshot_json()
}

fn run_episode_observed(
    seed: u64,
    algo: Algo,
    class: FaultClass,
    bugs: BugSwitches,
) -> (Result<EpisodeOutcome, Box<TortureFailure>>, doma_obs::Obs) {
    let mut rng = TestRng::seed_from_u64(seed);
    let n = rng.gen_range(4usize..9);
    let mut members: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut members);
    let sim = match algo {
        Algo::Sa => {
            let k = rng.gen_range(2usize..4);
            ProtocolSim::new_sa(n, members[..k].iter().copied().collect())
        }
        Algo::Da => {
            let k = rng.gen_range(1usize..3);
            ProtocolSim::new_da(
                n,
                members[..k].iter().copied().collect(),
                ProcessorId::new(members[k]),
            )
        }
        adaptive => {
            let k = rng.gen_range(2usize..4);
            let initial: doma_core::ProcSet = members[..k].iter().copied().collect();
            let oracle: Box<dyn doma_protocol::PlanOracle> = match adaptive {
                Algo::Convergent => {
                    let window = rng.gen_range(4usize..12);
                    let period = rng.gen_range(2usize..8);
                    Box::new(
                        doma_algorithms::SlidingWindowConvergent::new(
                            n, 2, initial, window, period,
                        )
                        .expect("sampled configuration is valid"),
                    )
                }
                Algo::WriteInvalidate => Box::new(
                    doma_algorithms::WriteInvalidateCache::new(initial)
                        .expect("sampled configuration is valid"),
                ),
                Algo::CostOblivious => {
                    let threshold = rng.gen_range(1u32..4);
                    Box::new(
                        doma_algorithms::CostOblivious::new(n, 2, initial, threshold)
                            .expect("sampled configuration is valid"),
                    )
                }
                Algo::MobileMirror => Box::new(
                    doma_algorithms::MobileMirror::new(n, 2, initial)
                        .expect("sampled configuration is valid"),
                ),
                _ => Box::new(
                    doma_algorithms::ClusteredAllocation::new(n, 2, initial)
                        .expect("sampled configuration is valid"),
                ),
            };
            ProtocolSim::new_adaptive(n, oracle)
        }
    }
    .expect("sampled configuration is valid");
    let t = sim.config().t();
    let scenario = format!("{algo}/{class}/n{n}");
    let mut driver = FailoverDriver::new(sim, n);
    if bugs != BugSwitches::default() {
        driver.sim_mut().set_bug_switches(bugs);
    }
    let obs = driver.sim_mut().attach_obs(EPISODE_EVENT_CAPACITY);
    // The message trace shares the bundle's event log, so the failure
    // tail interleaves deliveries with lifecycle events and spans.
    driver.sim_mut().trace_messages();
    let mut checker = InvariantChecker::new(driver.sim(), n);
    let mut ctx = AuditCtx {
        obs: obs.clone(),
        last: obs.metrics().snapshot(),
        n,
        seed,
        scenario,
    };

    let len = rng.gen_range(20usize..41);
    let wseed = rng.next_u64();
    let read_fraction = rng.gen_range(0.4f64..0.9);
    let schedule = match rng.gen_range(0u32..3) {
        0 => UniformWorkload::new(n, read_fraction)
            .expect("valid workload")
            .generate(len, wseed),
        1 => ZipfWorkload::new(n, 0.8, read_fraction)
            .expect("valid workload")
            .generate(len, wseed),
        _ => HotspotWorkload::new(n, 8, 0.85)
            .expect("valid workload")
            .generate(len, wseed),
    };
    let requests: Vec<Request> = schedule.requests().to_vec();

    let result = drive_episode(
        &mut rng,
        &mut driver,
        &mut checker,
        &mut ctx,
        &requests,
        t,
        class,
    );
    // Attribute any trailing out-of-dispatch I/O before the caller
    // snapshots the bundle.
    driver.sim_mut().obs_flush();
    (result, obs)
}

fn drive_episode(
    rng: &mut TestRng,
    driver: &mut FailoverDriver,
    checker: &mut InvariantChecker,
    ctx: &mut AuditCtx,
    requests: &[Request],
    t: usize,
    class: FaultClass,
) -> Result<EpisodeOutcome, Box<TortureFailure>> {
    let n = ctx.n;
    let mut issued = 0usize;
    let mut crashes = 0usize;
    let mut faults = FaultStats::default();

    match class {
        FaultClass::Crash => {
            // The paper assumes fewer than t simultaneous failures;
            // quorum fallback additionally needs a live majority. For
            // t = 1 (write-invalidate) that assumption admits no crashes
            // at all — the sole replica is the availability guarantee —
            // so the crash phase degenerates to plain execution.
            let max_down = (t - 1).min((n - 1) / 2);
            for (i, req) in requests.iter().enumerate() {
                let down: Vec<usize> = (0..n)
                    .filter(|&j| driver.is_crashed(ProcessorId::new(j)))
                    .collect();
                if down.len() < max_down && rng.gen_bool(0.25) {
                    let up: Vec<usize> = (0..n)
                        .filter(|&j| !driver.is_crashed(ProcessorId::new(j)))
                        .collect();
                    let victim = *rng.choose(&up).expect("a node is up");
                    driver.crash(ProcessorId::new(victim));
                    crashes += 1;
                    audit(
                        checker,
                        driver,
                        ctx,
                        None,
                        &format!("crash p{victim} before req {i}"),
                    )?;
                    trace(driver, n, &format!("crash p{victim} before req {i}"));
                } else if !down.is_empty() && rng.gen_bool(0.3) {
                    let back = *rng.choose(&down).expect("a node is down");
                    driver.recover(ProcessorId::new(back));
                    audit(
                        checker,
                        driver,
                        ctx,
                        None,
                        &format!("recover p{back} before req {i}"),
                    )?;
                    trace(driver, n, &format!("recover p{back} before req {i}"));
                }
                if driver.is_crashed(req.issuer) {
                    continue;
                }
                driver.execute_request(*req).expect("request executes");
                issued += 1;
                let wrote = committed_write(driver, *req, t);
                audit(checker, driver, ctx, wrote, &format!("req {i}: {req}"))?;
                trace(driver, n, &format!("req {i}: {req} wrote={wrote:?}"));
            }
            for j in 0..n {
                if driver.is_crashed(ProcessorId::new(j)) {
                    driver.recover(ProcessorId::new(j));
                    audit(checker, driver, ctx, None, &format!("final recover p{j}"))?;
                }
            }
        }
        FaultClass::Partition | FaultClass::Drop => {
            // Healthy prefix: some allocation churn before the faults.
            let prefix = requests.len() / 4;
            for (i, req) in requests[..prefix].iter().enumerate() {
                driver.execute_request(*req).expect("request executes");
                issued += 1;
                let wrote = committed_write(driver, *req, t);
                audit(checker, driver, ctx, wrote, &format!("req {i}: {req}"))?;
            }
            // Normal SA/DA is not loss-tolerant by design: degrade to
            // quorum mode BEFORE the network turns hostile, so the
            // mode-change broadcast and its missing-writes push are not
            // themselves eaten by the fault plan.
            driver.set_quorum_mode(true);
            audit(checker, driver, ctx, None, "enter quorum mode")?;
            let plan = match class {
                FaultClass::Partition => {
                    // Cut off a strict minority so the majority side can
                    // still assemble read and write quorums.
                    let m = rng.gen_range(1usize..(n - 1) / 2 + 1);
                    let mut pool: Vec<usize> = (0..n).collect();
                    rng.shuffle(&mut pool);
                    FaultPlan::new(rng.next_u64()).partition(0, u64::MAX, pool[..m].to_vec())
                }
                _ => {
                    let mut plan = FaultPlan::new(rng.next_u64());
                    for _ in 0..rng.gen_range(1usize..4) {
                        let filter = match rng.gen_range(0u32..3) {
                            0 => LinkFilter::any(),
                            1 => LinkFilter::link(
                                NodeId(rng.gen_range(0usize..n)),
                                NodeId(rng.gen_range(0usize..n)),
                            ),
                            _ => LinkFilter::any().of_kind(if rng.gen_bool(0.5) {
                                MsgKind::Control
                            } else {
                                MsgKind::Data
                            }),
                        };
                        let action = match rng.gen_range(0u32..4) {
                            0 => FaultAction::Drop,
                            1 => FaultAction::Delay(rng.gen_range(1u64..6)),
                            2 => FaultAction::Duplicate(rng.gen_range(1u64..4)),
                            _ => FaultAction::Jitter {
                                max: rng.gen_range(1u64..5),
                            },
                        };
                        plan = plan.rule(
                            FaultRule::always(filter, action)
                                .with_probability(rng.gen_range(0.05f64..0.5)),
                        );
                    }
                    plan
                }
            };
            driver.sim_mut().engine_mut().install_faults(plan);
            let hostile_end = prefix + (requests.len() - prefix) * 2 / 3;
            for (i, req) in requests[prefix..hostile_end].iter().enumerate() {
                driver.execute_request(*req).expect("request executes");
                issued += 1;
                // Quorum mode: the floor moves on quorum evidence only.
                audit(
                    checker,
                    driver,
                    ctx,
                    None,
                    &format!("hostile req {i}: {req}"),
                )?;
            }
            faults = driver.sim_mut().engine_mut().clear_faults();
            driver.heal();
            audit(checker, driver, ctx, None, "heal")?;
            for (i, req) in requests[hostile_end..].iter().enumerate() {
                driver.execute_request(*req).expect("request executes");
                issued += 1;
                let wrote = committed_write(driver, *req, t);
                audit(
                    checker,
                    driver,
                    ctx,
                    wrote,
                    &format!("post-heal req {i}: {req}"),
                )?;
            }
        }
    }

    Ok(EpisodeOutcome {
        n,
        requests_issued: issued,
        reads_completed: driver.sim().report().reads_completed,
        faults,
        crashes,
    })
}

/// Runs the seed sweep (or single replay) configured in the environment —
/// see [`FaultSeeds::from_env`] — for one matrix cell. Stops at the first
/// violation.
pub fn run_sweep(
    algo: Algo,
    class: FaultClass,
) -> Result<Vec<EpisodeOutcome>, Box<TortureFailure>> {
    FaultSeeds::from_env()
        .seeds()
        .into_iter()
        .map(|seed| run_episode(seed, algo, class))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episodes_are_deterministic() {
        let a = run_episode(0x5EED, Algo::Da, FaultClass::Drop).expect("episode holds");
        let b = run_episode(0x5EED, Algo::Da, FaultClass::Drop).expect("episode holds");
        assert_eq!(a.n, b.n);
        assert_eq!(a.requests_issued, b.requests_issued);
        assert_eq!(a.reads_completed, b.reads_completed);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn a_few_episodes_of_every_class_hold() {
        let mut seed = 0u64;
        for algo in Algo::ALL {
            for class in [FaultClass::Crash, FaultClass::Partition, FaultClass::Drop] {
                seed += 1;
                let out = run_episode(seed, algo, class).unwrap_or_else(|f| panic!("{f}"));
                assert!(out.requests_issued > 0, "{algo}/{class} issued nothing");
            }
        }
    }

    #[test]
    fn failure_display_carries_the_replay_line() {
        let failure = TortureFailure {
            seed: 0xBEEF,
            scenario: "da/drop/n5".into(),
            violation: Violation::AvailabilityBelowT {
                holders: 1,
                t: 2,
                context: "req 3".into(),
            },
            metrics_delta: String::new(),
            event_tail: String::new(),
            replay: replay_line(0xBEEF, "da/drop/n5", "fault_torture"),
        };
        let text = failure.to_string();
        assert!(text.contains("DOMA_FAULT_SEED=0xbeef"), "{text}");
        assert!(text.contains("t-availability"), "{text}");
        // Empty observability sections render no headers.
        assert!(!text.contains("metric delta"), "{text}");
        assert!(!text.contains("event-log tail"), "{text}");
    }

    #[test]
    fn episode_obs_json_is_deterministic_and_shaped() {
        let a = episode_obs_json(0x0B5, Algo::Da, FaultClass::Crash);
        let b = episode_obs_json(0x0B5, Algo::Da, FaultClass::Crash);
        assert_eq!(a, b, "same seed must produce byte-identical obs JSON");
        assert!(a.contains("\"dropped_events\""), "{a}");
        assert!(a.contains("\"protocol\""), "{a}");
        assert!(a.contains("\"sim.trace\""), "{a}");
    }
}
