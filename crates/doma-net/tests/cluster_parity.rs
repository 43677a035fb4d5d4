//! The socket cluster against its deterministic twin: same planner, same
//! schedule, same seed of truth — trajectories and cost totals must be
//! identical. This is the core cross-check the `domactl cluster` command
//! builds on.

use doma_core::{DomaError, ObjectId, ProcSet, ProcessorId, Schedule};
use doma_net::{Cluster, TransportKind};
use doma_protocol::{ProtocolConfig, ProtocolSim};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn pair(a: u8, b: u8) -> ProcSet {
    let mut s = ProcSet::EMPTY;
    s.insert(ProcessorId::new(a as usize));
    s.insert(ProcessorId::new(b as usize));
    s
}

/// Boots a cluster or skips the test with a notice when the sandbox
/// refuses to bind sockets — a missing runtime is not a protocol
/// failure. A cluster that binds but fails to come up panics.
fn boot(n: usize, config: ProtocolConfig, kind: TransportKind) -> Option<(Cluster, ObjectId)> {
    let object = ProtocolSim::object();
    let mut configs = BTreeMap::new();
    configs.insert(object, config);
    match Cluster::new(n, configs, Vec::new(), kind, None) {
        Ok(c) => Some((c, object)),
        Err(DomaError::Net(msg)) => {
            eprintln!("skipping cluster parity test: sockets unavailable ({msg})");
            None
        }
        Err(other) => panic!("cluster boot failed: {other}"),
    }
}

/// Runs `schedule` through both twins and asserts identical per-request
/// holder trajectories and identical final cost/holders/read tallies.
/// Returns the cluster's wall time for the schedule (`None` when the
/// test was skipped).
fn assert_parity(
    n: usize,
    config: ProtocolConfig,
    kind: TransportKind,
    schedule: &str,
) -> Option<Duration> {
    let schedule: Schedule = schedule.parse().unwrap();
    let (mut cluster, object) = boot(n, config.clone(), kind)?;

    let mut sim = match config {
        ProtocolConfig::Sa { q } => ProtocolSim::new_sa(n, q).unwrap(),
        ProtocolConfig::Da { f, p } => ProtocolSim::new_da(n, f, p).unwrap(),
        ProtocolConfig::Adaptive { .. } => unreachable!("adaptive needs an oracle"),
    };
    let mut sim_trajectory = Vec::new();
    for request in schedule.iter() {
        sim.execute_request_on(object, request).unwrap();
        sim_trajectory.push(sim.valid_holders_of(object));
    }
    let sim_report = sim.report();

    let start = Instant::now();
    let net_trajectory = cluster.execute_schedule(object, &schedule).unwrap();
    let elapsed = start.elapsed();
    let net_report = cluster.report().unwrap();
    cluster.shutdown().unwrap();

    assert_eq!(
        net_trajectory, sim_trajectory,
        "holder trajectories diverged"
    );
    assert_eq!(net_report.cost, sim_report.cost, "cost totals diverged");
    assert_eq!(net_report.final_holders, sim_report.final_holders);
    assert_eq!(net_report.reads_completed, sim_report.reads_completed);
    assert_eq!(net_report.errors, 0, "cluster recorded protocol errors");
    Some(elapsed)
}

const MIXED: &str = "w2 r4 w3 r1 r2 w0 r3 r4 r0 w1 r2 r3";

#[test]
fn sa_uds_matches_sim() {
    assert_parity(
        5,
        ProtocolConfig::Sa { q: pair(0, 1) },
        TransportKind::Uds,
        MIXED,
    );
}

#[test]
fn sa_tcp_matches_sim() {
    assert_parity(
        5,
        ProtocolConfig::Sa { q: pair(1, 3) },
        TransportKind::Tcp,
        MIXED,
    );
}

#[test]
fn da_uds_matches_sim() {
    assert_parity(
        5,
        ProtocolConfig::Da {
            f: ProcSet::EMPTY.with(ProcessorId::new(0)),
            p: ProcessorId::new(1),
        },
        TransportKind::Uds,
        MIXED,
    );
}

#[test]
fn da_tcp_matches_sim() {
    assert_parity(
        3,
        ProtocolConfig::Da {
            f: ProcSet::EMPTY.with(ProcessorId::new(2)),
            p: ProcessorId::new(0),
        },
        TransportKind::Tcp,
        "w0 r1 r2 w2 r0 r1 w1 r2",
    );
}

/// A coarse guard against Nagle's algorithm on the TCP path: every
/// request is a few one-frame writes, and a stream without
/// `TCP_NODELAY` waits out the peer's delayed ACK (~40 ms) per request,
/// about 2 s for these 50. With the option set they take milliseconds.
#[test]
fn tcp_requests_are_not_held_back_by_nagle() {
    let schedule = ["w0 r1 r2 w2 r0 r1 w1 r2 r0 w0"; 5].join(" ");
    let Some(elapsed) = assert_parity(
        3,
        ProtocolConfig::Da {
            f: ProcSet::EMPTY.with(ProcessorId::new(2)),
            p: ProcessorId::new(0),
        },
        TransportKind::Tcp,
        &schedule,
    ) else {
        return;
    };
    assert!(
        elapsed < Duration::from_secs(1),
        "50 TCP requests took {elapsed:?}"
    );
}

/// `Cluster::new` returns only once every node's mesh is up, so a
/// cluster shut down right after booting never catches a node still
/// dialling a peer that has already exited. Boots run one at a time.
#[test]
fn boot_then_immediate_shutdown_is_clean() {
    for kind in [TransportKind::Tcp, TransportKind::Uds] {
        for round in 0..20 {
            let Some((cluster, _)) = boot(3, ProtocolConfig::Sa { q: pair(0, 1) }, kind) else {
                return;
            };
            if let Err(e) = cluster.shutdown() {
                panic!("{kind:?} boot {round}: shutdown failed: {e}");
            }
        }
    }
}

/// Invalid requests are rejected by the planner before touching the
/// wire, with the same error strings as the sim driver.
#[test]
fn planner_rejects_bad_requests_before_sending() {
    let Some((mut cluster, object)) =
        boot(3, ProtocolConfig::Sa { q: pair(0, 1) }, TransportKind::Uds)
    else {
        return;
    };
    let err = cluster
        .execute_request(object, doma_core::Request::read(ProcessorId::new(9)))
        .unwrap_err();
    assert!(matches!(err, DomaError::InvalidConfig(_)));
    let err = cluster
        .execute_request(ObjectId(99), doma_core::Request::read(ProcessorId::new(0)))
        .unwrap_err();
    assert!(err.to_string().contains("catalog"));
    // The cluster is still healthy after rejected requests.
    cluster
        .execute_request(object, doma_core::Request::write(ProcessorId::new(2)))
        .unwrap();
    cluster.shutdown().unwrap();
}
