//! Isolation passes of the traced run: single layers driven directly
//! through their public API on the workload's own requests, each call
//! (or batch of calls, where one call is shorter than a clock read)
//! wrapped in a span.

use crate::spans::{Tracer, ROOT};
use crate::workload::Workload;
use doma_core::{CostVector, DomaError, ObjectId, ProcSet, ProcessorId, Request, Result};
use doma_net::codec::{decode_frame, encode_frame, WireFrame};
use doma_net::{Cluster, NetTransport, TransportKind};
use doma_protocol::{DomMsg, DomNode};
use doma_sim::{MsgKind, NodeId};
use doma_storage::{LocalStore, Version};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;

/// Counts the isolation passes report alongside their spans.
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub plans: u64,
    pub outputs: u64,
    pub inputs: u64,
    /// Requests the replay harness executed.
    pub replayed: u64,
    pub deliveries: u64,
    pub frames: u64,
    pub frame_bytes: u64,
    pub codec_requests: u64,
    /// Why an isolation pass's output is wrong, if it is.
    pub failures: Vec<String>,
}

/// Requests whose frames the codec pass encodes and decodes.
const CODEC_REQUESTS: usize = 20_000;
/// `node_reports` rounds and locally served reads on the idle cluster.
const NET_ROUNDS: usize = 300;

/// `ClientPlanner::plan` over every request on a standalone planner,
/// then `LocalStore::output` over the planned writes and
/// `LocalStore::input` over the reads' objects.
pub fn planner_and_store(w: &Workload, tr: &mut Tracer, counts: &mut LayerCounts) -> Result<()> {
    let mut planner = w.planner()?;
    let requests = w.requests();
    let mut plans = Vec::with_capacity(requests.len());
    let t0 = tr.now();
    for r in requests {
        plans.push(planner.plan(r.object, r.request)?);
    }
    let t1 = tr.now();
    tr.record("planner.plan", ROOT, 0, t0, t1);
    counts.plans = plans.len() as u64;

    let mut writes = Vec::new();
    let mut reads = Vec::new();
    for plan in plans {
        match plan.msg {
            DomMsg::ClientWrite {
                object,
                version,
                payload,
                ..
            } => writes.push((object, version, payload)),
            DomMsg::ClientRead { object, .. } => reads.push(object),
            _ => {}
        }
    }
    // Every object is stored once before timing, so that every timed
    // input finds a valid replica.
    let mut store = LocalStore::new();
    for object in w.configs.keys() {
        store.output(*object, Version::INITIAL, b"preload".to_vec());
    }
    counts.outputs = writes.len() as u64;
    counts.inputs = reads.len() as u64;
    let t0 = tr.now();
    for (object, version, payload) in writes {
        store.output(object, version, payload);
    }
    let t1 = tr.now();
    for object in &reads {
        black_box(store.input(*object));
    }
    let t2 = tr.now();
    tr.record("store.output", ROOT, 0, t0, t1);
    tr.record("store.input", ROOT, 0, t1, t2);
    Ok(())
}

/// The FIFO replay harness: the workload's requests run on `DomNode`s
/// over `NetTransport`s with one global FIFO queue in place of the
/// engine or the sockets, each `DomNode::deliver` in a span. The first
/// [`CODEC_REQUESTS`] requests' frames then go through the wire codec.
/// Returns the harness's cost tally and per-object holders for the
/// checks.
pub fn replay(
    w: &Workload,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<(CostVector, BTreeMap<ObjectId, ProcSet>)> {
    let mut planner = w.planner()?;
    let mut nodes: Vec<DomNode> = (0..w.n)
        .map(|i| DomNode::with_catalog(ProcessorId::new(i), w.n, w.configs.clone(), 0))
        .collect();
    let mut transports: Vec<NetTransport> = (0..w.n).map(|_| NetTransport::new()).collect();
    let mut queue: VecDeque<(usize, usize, MsgKind, DomMsg)> = VecDeque::new();
    let mut frames = Vec::new();
    let root = tr.open("replay", ROOT, 0);
    for (k, r) in w.requests().iter().enumerate() {
        let planned = planner.plan(r.object, r.request)?;
        let capture = k < CODEC_REQUESTS;
        if capture {
            frames.push(WireFrame::Client {
                msg: planned.msg.clone(),
            });
        }
        let issuer = planned.to.0;
        // A client request reaches its issuer "from" itself, as in both
        // the engine and the runtime. Its kind is never read.
        queue.push_back((issuer, issuer, MsgKind::Control, planned.msg));
        let mut first = true;
        while let Some((to, from, kind, msg)) = queue.pop_front() {
            if capture && !first {
                frames.push(WireFrame::Peer {
                    from: from as u64,
                    kind,
                    msg: msg.clone(),
                });
            }
            first = false;
            let transport = &mut transports[to];
            transport.advance();
            let t0 = tr.now();
            nodes[to].deliver(transport, NodeId(from), msg);
            let t1 = tr.now();
            tr.record("node.deliver", root, k as u64, t0, t1);
            counts.deliveries += 1;
            for (dest, kind, msg) in transport.drain() {
                queue.push_back((dest.0, to, kind, msg));
            }
        }
    }
    tr.close(root);
    counts.replayed = w.requests().len() as u64;
    let mut cost = CostVector::ZERO;
    for (node, transport) in nodes.iter().zip(&transports) {
        cost += CostVector::new(
            transport.control_sent(),
            transport.data_sent(),
            node.io_stats().total(),
        );
        if let Some(e) = node.protocol_errors().first() {
            counts.failures.push(format!("replay: protocol error {e}"));
        }
    }
    let holders = w
        .configs
        .keys()
        .map(|object| {
            let held = (0..w.n)
                .filter(|&i| nodes[i].holds_valid_of(*object))
                .map(ProcessorId::new)
                .collect();
            (*object, held)
        })
        .collect();

    counts.codec_requests = w.requests().len().min(CODEC_REQUESTS) as u64;
    counts.frames = frames.len() as u64;
    let t0 = tr.now();
    let encoded: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
    let t1 = tr.now();
    let decoded: Vec<Result<WireFrame>> = encoded.iter().map(|b| decode_frame(&b[4..])).collect();
    let t2 = tr.now();
    tr.record("codec.encode", ROOT, 0, t0, t1);
    tr.record("codec.decode", ROOT, 0, t1, t2);
    counts.frame_bytes = encoded.iter().map(|b| b.len() as u64).sum();
    for (frame, back) in frames.iter().zip(decoded) {
        match back {
            Ok(back) if back == *frame => {}
            other => {
                counts
                    .failures
                    .push(format!("codec round trip of {frame:?} gave {other:?}"));
                break;
            }
        }
    }
    Ok((cost, holders))
}

/// The socket runtime's fixed costs on a fresh, idle UDS cluster: one
/// `node_reports` round (every node answers the driver), and
/// `execute_request` of a read its issuer serves from its own replica,
/// which sends no peer frame and so costs the client frame plus the
/// quiescence barrier only.
pub fn net_floor(w: &Workload, tr: &mut Tracer, counts: &mut LayerCounts) -> Result<()> {
    let mut cluster = crate::legs::boot(w, TransportKind::Uds)?;
    let result = net_rounds(w, &mut cluster, tr);
    let shutdown = cluster.shutdown();
    let peer_frames = result.and_then(|frames| shutdown.map(|_| frames))?;
    if peer_frames != 0 {
        counts.failures.push(format!(
            "net floor: {peer_frames} peer frames for reads meant to be served locally"
        ));
    }
    Ok(())
}

/// Returns the peer frames the floor reads caused (0 when each was
/// served locally).
fn net_rounds(w: &Workload, cluster: &mut Cluster, tr: &mut Tracer) -> Result<u64> {
    for k in 0..NET_ROUNDS {
        let t0 = tr.now();
        black_box(cluster.node_reports()?);
        let t1 = tr.now();
        tr.record("net.rtt", ROOT, k as u64, t0, t1);
    }
    let (object, config) = w
        .configs
        .iter()
        .next()
        .ok_or_else(|| DomaError::InvalidConfig("empty catalog".into()))?;
    let issuer = config
        .initial_scheme()
        .any_member()
        .ok_or_else(|| DomaError::InvalidConfig("empty initial scheme".into()))?;
    for k in 0..NET_ROUNDS {
        let t0 = tr.now();
        cluster.execute_request(*object, Request::read(issuer))?;
        let t1 = tr.now();
        tr.record("net.barrier_floor", ROOT, k as u64, t0, t1);
    }
    let report = cluster.report()?;
    Ok(report.cost.control + report.cost.data)
}
