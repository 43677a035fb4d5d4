//! The invariant checker: after every step of a fault schedule, asserts
//! the paper's safety properties on the live cluster state.
//!
//! Three families of invariants (ISSUE/DESIGN mapping):
//!
//! * **t-availability** (§3.1): in normal mode the valid-replica set of
//!   the object never silently drops below `t` — stable storage of
//!   crashed processors counts, because their replicas survive the crash
//!   and are replayed from the redo log on recovery.
//! * **One-copy semantics** (§2, through quorum mode): every *completed*
//!   read returns a version at least as new as the committed floor at the
//!   time the read was issued. The floor rises with normal-mode writes
//!   (committed by the protocol's own replication) and, in degraded mode,
//!   with quorum evidence — the highest version validly held by a
//!   majority of stores. Blocked reads (server crashed, quorum
//!   unreachable) never complete and are therefore never audited: safety,
//!   not liveness, is checked.
//! * **Cost conservation**: `SimReport.cost` tallies are component-wise
//!   non-decreasing, and the pre-failure snapshot taken by
//!   [`FailoverDriver`] never exceeds the running totals (failure
//!   overhead is attributed separately, per that type's contract).
//!
//! Two low-level guards back these up: per-node store versions are
//! monotone (a delayed or duplicated message must never regress a
//! replica), and no node records a protocol error.

use doma_core::{CostVector, DomaError};
use doma_protocol::failover::FailoverDriver;
use doma_protocol::ProtocolSim;
use doma_sim::NodeId;
use doma_storage::Version;
use std::fmt;

/// Which service regime the cluster is believed to be in — decides which
/// invariants are meaningful (normal-mode DA/SA is not tolerant of
/// message loss by design, so t-availability is only asserted when the
/// only faults are crashes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Normal SA/DA service; faults are limited to crash/recover.
    Normal,
    /// Quorum (failure) mode, possibly with a lossy network: only
    /// quorum-established guarantees are asserted.
    Degraded,
}

/// One detected invariant violation. `context` is the step description
/// the driver passed to [`InvariantChecker::check`].
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A cost tally decreased.
    CostRegression {
        /// Tallies at the previous check.
        before: CostVector,
        /// Tallies now.
        after: CostVector,
        /// Step description.
        context: String,
    },
    /// The pre-failure cost snapshot exceeds the running totals.
    AttributionInverted {
        /// The snapshot [`FailoverDriver::normal_mode_cost`] reported.
        normal: CostVector,
        /// Tallies now.
        total: CostVector,
        /// Step description.
        context: String,
    },
    /// Normal mode, yet fewer than `t` valid replicas exist.
    AvailabilityBelowT {
        /// Valid holders observed (crashed nodes' stable stores count).
        holders: usize,
        /// The configured threshold.
        t: usize,
        /// Step description.
        context: String,
    },
    /// A completed read returned a version older than the committed floor.
    StaleRead {
        /// The reading node.
        node: usize,
        /// The version the read returned (`None` = no data assembled).
        version: Option<Version>,
        /// The committed floor the read should have observed.
        floor: Version,
        /// Step description.
        context: String,
    },
    /// A node's local replica went backwards in version.
    VersionRegression {
        /// The node.
        node: usize,
        /// Version at the previous check.
        before: Version,
        /// Version now.
        after: Version,
        /// Step description.
        context: String,
    },
    /// A node recorded a protocol error (e.g. a misrouted object).
    ProtocolError {
        /// The node.
        node: usize,
        /// The recorded error.
        error: DomaError,
        /// Step description.
        context: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::CostRegression {
                before,
                after,
                context,
            } => write!(
                f,
                "[{context}] cost tallies regressed: {before:?} -> {after:?}"
            ),
            Violation::AttributionInverted {
                normal,
                total,
                context,
            } => write!(
                f,
                "[{context}] normal-mode snapshot {normal:?} exceeds running total {total:?}"
            ),
            Violation::AvailabilityBelowT {
                holders,
                t,
                context,
            } => write!(
                f,
                "[{context}] t-availability violated: {holders} valid replica(s), need t={t}"
            ),
            Violation::StaleRead {
                node,
                version,
                floor,
                context,
            } => write!(
                f,
                "[{context}] one-copy violated: node {node} read {version:?}, \
                 committed floor is {floor:?}"
            ),
            Violation::VersionRegression {
                node,
                before,
                after,
                context,
            } => write!(
                f,
                "[{context}] node {node} replica regressed {before:?} -> {after:?}"
            ),
            Violation::ProtocolError {
                node,
                error,
                context,
            } => write!(
                f,
                "[{context}] node {node} recorded protocol error: {error}"
            ),
        }
    }
}

/// Stateful auditor over a [`FailoverDriver`]-wrapped cluster: call
/// [`InvariantChecker::check`] after every step (request executed, fault
/// injected, crash, heal) and it compares the cluster against what the
/// previous steps committed. Single-object clusters (object 0) only — the
/// shape every torture scenario uses.
///
/// `Clone` so a model checker can carry an independent copy of the
/// auditor down each branch of its state-space search (the checker state
/// — floor, cursors, last versions — is part of the explored state).
#[derive(Debug, Clone)]
pub struct InvariantChecker {
    n: usize,
    t: usize,
    quorum: usize,
    last_cost: CostVector,
    /// Committed floor: every read completing from now on must return at
    /// least this version.
    floor: Version,
    /// Last observed replica version per node (valid or stale).
    node_versions: Vec<Option<Version>>,
    /// Completed reads already audited, per node.
    read_cursor: Vec<usize>,
    /// Floors captured when a read was *issued* (per node, FIFO). A model
    /// checker stepping individual deliveries registers each read via
    /// [`InvariantChecker::note_read_started`]; the audit then holds the
    /// read to the floor it observed at start rather than the current one,
    /// which is the strongest sound bound when reads overlap in-flight
    /// quorum writes (a read issued before a write quorum assembled may
    /// legally return the old version). Empty when driven at quiescence
    /// (the torture-harness path), where both floors coincide.
    read_start_floors: Vec<Vec<Version>>,
}

impl InvariantChecker {
    /// Captures the initial state of a freshly built cluster.
    pub fn new(sim: &ProtocolSim, n: usize) -> Self {
        let t = sim.config().t();
        let node_versions = (0..n)
            .map(|i| sim.engine_ref().actor(NodeId(i)).replica_version())
            .collect();
        InvariantChecker {
            n,
            t,
            quorum: n / 2 + 1,
            last_cost: sim.report().cost,
            floor: Version::INITIAL,
            node_versions,
            read_cursor: vec![0; n],
            read_start_floors: vec![Vec::new(); n],
        }
    }

    /// Records that `node` just issued a read: the read, once it
    /// completes, must return at least the *current* committed floor.
    /// Mid-flight model checking only — callers driving the cluster to
    /// quiescence between requests never need this.
    pub fn note_read_started(&mut self, node: usize) {
        if node < self.n {
            self.read_start_floors[node].push(self.floor);
        }
    }

    /// The current committed floor (what the next completed read must at
    /// least return).
    pub fn committed_floor(&self) -> Version {
        self.floor
    }

    /// A hash of the auditor's own state (floor, audited-read cursors,
    /// last seen versions and tallies). A model checker must fold this
    /// into its state fingerprints: two identical cluster states under
    /// *different* audit states can still diverge on a future check.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.floor.hash(&mut h);
        self.node_versions.hash(&mut h);
        self.read_cursor.hash(&mut h);
        self.read_start_floors.hash(&mut h);
        self.last_cost.control.hash(&mut h);
        self.last_cost.data.hash(&mut h);
        self.last_cost.io.hash(&mut h);
        h.finish()
    }

    /// Audits the cluster after one step.
    ///
    /// `wrote` is the version a write committed during this step under
    /// *normal-mode* guarantees (ignored in [`Regime::Degraded`], where
    /// only quorum evidence raises the floor). Returns the first
    /// violation found, if any.
    pub fn check(
        &mut self,
        driver: &FailoverDriver,
        regime: Regime,
        wrote: Option<Version>,
        context: &str,
    ) -> Result<(), Violation> {
        self.check_sim(
            driver.sim(),
            driver.normal_mode_cost(),
            regime,
            wrote,
            context,
        )
    }

    /// Audits a bare [`ProtocolSim`] after one step — the
    /// [`InvariantChecker::check`] body without the [`FailoverDriver`]
    /// wrapper, so a model checker stepping the engine delivery-by-
    /// delivery can reuse the same oracle. `normal_cost` is the
    /// pre-failure snapshot when one exists (drives the attribution
    /// invariant); pass `None` for failure-free exploration.
    pub fn check_sim(
        &mut self,
        sim: &ProtocolSim,
        normal_cost: Option<CostVector>,
        regime: Regime,
        wrote: Option<Version>,
        context: &str,
    ) -> Result<(), Violation> {
        // A tripped event budget means the cluster never quiesced: the
        // state below would be a lie, and the run is a protocol error.
        if let Some(error) = sim.budget_error() {
            return Err(Violation::ProtocolError {
                node: 0,
                error,
                context: context.into(),
            });
        }
        let cost = sim.report().cost;

        // Cost conservation: tallies only grow.
        if cost.control < self.last_cost.control
            || cost.data < self.last_cost.data
            || cost.io < self.last_cost.io
        {
            return Err(Violation::CostRegression {
                before: self.last_cost,
                after: cost,
                context: context.into(),
            });
        }
        self.last_cost = cost;

        // Failure-overhead attribution: the pre-failure snapshot is a
        // lower bound of the running totals.
        if let Some(normal) = normal_cost {
            if normal.control > cost.control || normal.data > cost.data || normal.io > cost.io {
                return Err(Violation::AttributionInverted {
                    normal,
                    total: cost,
                    context: context.into(),
                });
            }
        }

        // Per-node guards: no protocol errors, no version regression.
        for i in 0..self.n {
            let node = sim.engine_ref().actor(NodeId(i));
            if let Some(error) = node.protocol_errors().first() {
                return Err(Violation::ProtocolError {
                    node: i,
                    error: error.clone(),
                    context: context.into(),
                });
            }
            let version = node.replica_version();
            if let (Some(before), Some(after)) = (self.node_versions[i], version) {
                if after < before {
                    return Err(Violation::VersionRegression {
                        node: i,
                        before,
                        after,
                        context: context.into(),
                    });
                }
            }
            if version.is_some() {
                self.node_versions[i] = version;
            }
        }

        // t-availability (normal mode only): valid replicas — including
        // crashed nodes' stable stores — never drop below t.
        if regime == Regime::Normal {
            let holders = (0..self.n)
                .filter(|&i| sim.engine_ref().actor(NodeId(i)).holds_valid())
                .count();
            if holders < self.t {
                return Err(Violation::AvailabilityBelowT {
                    holders,
                    t: self.t,
                    context: context.into(),
                });
            }
        }

        // One-copy semantics: audit reads completed since the last check.
        // Each read is held to the floor captured when it was issued
        // (model-checker path, [`InvariantChecker::note_read_started`]) or,
        // absent that, the floor as it stood *before* this step.
        for i in 0..self.n {
            let reads = sim.engine_ref().actor(NodeId(i)).completed_reads();
            for read in &reads[self.read_cursor[i]..] {
                let expected = if self.read_start_floors[i].is_empty() {
                    self.floor
                } else {
                    // Reads complete FIFO per node, matching issue order.
                    self.read_start_floors[i].remove(0)
                };
                let got = read.version.unwrap_or(Version::INITIAL);
                if got < expected {
                    return Err(Violation::StaleRead {
                        node: i,
                        version: read.version,
                        floor: expected,
                        context: context.into(),
                    });
                }
            }
            self.read_cursor[i] = reads.len();
        }

        // Raise the committed floor.
        match regime {
            Regime::Normal => {
                if let Some(v) = wrote {
                    if v > self.floor {
                        self.floor = v;
                    }
                }
            }
            Regime::Degraded => {
                // Quorum evidence: the highest version validly held by a
                // majority of stores (crashed stores count — any read
                // majority still intersects the holder set, see module
                // docs). Thanks to the missing-writes push on mode entry
                // and the store monotonicity guard, this never shrinks.
                let mut versions: Vec<Version> = (0..self.n)
                    .filter_map(|i| {
                        let node = sim.engine_ref().actor(NodeId(i));
                        if node.holds_valid() {
                            node.replica_version()
                        } else {
                            None
                        }
                    })
                    .collect();
                versions.sort_unstable_by(|a, b| b.cmp(a));
                if versions.len() >= self.quorum {
                    let candidate = versions[self.quorum - 1];
                    if candidate > self.floor {
                        self.floor = candidate;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doma_core::{ProcSet, ProcessorId, Request};

    fn da_driver(n: usize) -> FailoverDriver {
        let sim =
            ProtocolSim::new_da(n, ProcSet::from_iter([0usize]), ProcessorId::new(1)).unwrap();
        FailoverDriver::new(sim, n)
    }

    #[test]
    fn healthy_run_passes_every_check() {
        let mut d = da_driver(5);
        let mut checker = InvariantChecker::new(d.sim(), 5);
        for (i, req) in [
            Request::read(3usize),
            Request::write(2usize),
            Request::read(4usize),
            Request::write(0usize),
            Request::read(2usize),
        ]
        .into_iter()
        .enumerate()
        {
            d.execute_request(req).unwrap();
            let wrote = (!req.is_read()).then(|| d.sim().latest_version());
            checker
                .check(&d, Regime::Normal, wrote, &format!("req {i}"))
                .unwrap();
        }
        assert_eq!(checker.committed_floor(), Version(2));
    }

    #[test]
    fn floor_rises_with_quorum_evidence_in_degraded_mode() {
        let mut d = da_driver(5);
        let mut checker = InvariantChecker::new(d.sim(), 5);
        d.crash(ProcessorId::new(0)); // core down -> quorum mode
        checker.check(&d, Regime::Degraded, None, "crash").unwrap();
        d.execute_request(Request::write(2usize)).unwrap();
        checker.check(&d, Regime::Degraded, None, "w2").unwrap();
        assert_eq!(
            checker.committed_floor(),
            d.sim().latest_version(),
            "quorum write must commit"
        );
        d.execute_request(Request::read(4usize)).unwrap();
        checker.check(&d, Regime::Degraded, None, "r4").unwrap();
    }

    #[test]
    fn failover_and_heal_keep_invariants() {
        let mut d = da_driver(5);
        let mut checker = InvariantChecker::new(d.sim(), 5);
        d.execute_request(Request::write(3usize)).unwrap();
        let v = d.sim().latest_version();
        checker.check(&d, Regime::Normal, Some(v), "w3").unwrap();
        d.crash(ProcessorId::new(0));
        checker
            .check(&d, Regime::Degraded, None, "crash 0")
            .unwrap();
        // The missing-writes push on mode entry keeps v quorum-visible.
        d.execute_request(Request::read(4usize)).unwrap();
        checker.check(&d, Regime::Degraded, None, "r4").unwrap();
        d.heal();
        checker.check(&d, Regime::Normal, None, "heal").unwrap();
        d.execute_request(Request::read(2usize)).unwrap();
        checker.check(&d, Regime::Normal, None, "r2").unwrap();
        assert!(checker.committed_floor() >= v);
    }

    #[test]
    fn stale_read_is_flagged() {
        // Manufacture a violation without touching the cluster: floor at
        // 5, then a read completing at version 1.
        let mut d = da_driver(4);
        let mut checker = InvariantChecker::new(d.sim(), 4);
        checker.floor = Version(5);
        d.execute_request(Request::read(3usize)).unwrap();
        let err = checker
            .check(&d, Regime::Normal, None, "stale")
            .unwrap_err();
        match &err {
            Violation::StaleRead { floor, .. } => assert_eq!(*floor, Version(5)),
            other => panic!("expected StaleRead, got {other}"),
        }
        assert!(err.to_string().contains("one-copy"), "{err}");
    }
}
