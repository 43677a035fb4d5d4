//! Per-node runtime: socket plumbing, the connection handshake, and the
//! node event loop.
//!
//! Topology: every node binds a listener; the cluster driver (and each
//! peer) opens one outgoing connection per target and introduces itself
//! with a [`WireFrame::Hello`]. Inbound connections get a dedicated
//! reader thread that parses frames with the incremental
//! [`codec::Decoder`] and forwards them into the node's single inbox
//! channel, so the node's event loop handles messages strictly one at a
//! time — the same per-node atomicity the sim engine guarantees. Replies
//! to the driver travel back on the driver's own connection (cloned
//! writer half); node-to-node protocol messages travel on the sender's
//! outgoing connections.
//!
//! This module (with [`crate::cluster`]) is the workspace's only sanctioned
//! home for `std::net` / Unix sockets and for thread spawning outside the
//! sharding/bench modules — both confined by doma-lint rules
//! (`net-containment`, `thread-containment`).

use crate::codec::{self, Decoder, WireFrame, DRIVER_ID};
use crate::NetTransport;
use doma_core::{DomaError, Result};
use doma_protocol::DomNode;
use doma_sim::NodeId;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};

/// Which socket family a cluster runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// TCP over the loopback interface.
    Tcp,
    /// Unix domain sockets in a per-cluster temp directory.
    Uds,
}

impl TransportKind {
    /// Parses the `domactl` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tcp" => Some(TransportKind::Tcp),
            "uds" => Some(TransportKind::Uds),
            _ => None,
        }
    }
}

/// A connectable endpoint of one node.
#[derive(Debug, Clone)]
pub enum Addr {
    /// TCP loopback address with its bound port.
    Tcp(std::net::SocketAddr),
    /// Unix-domain socket path.
    Uds(PathBuf),
}

pub(crate) fn net_err(what: &str, e: std::io::Error) -> DomaError {
    DomaError::Net(format!("{what}: {e}"))
}

/// One bidirectional stream, TCP or UDS.
pub(crate) enum Conn {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Conn {
    /// The only way a TCP stream becomes a `Conn`: with `TCP_NODELAY`
    /// set. Every protocol message is one small frame per write, and
    /// Nagle's algorithm would hold a frame back behind the previous
    /// unacknowledged one until the peer's delayed-ACK timer fires —
    /// about 40 ms per request. Clones share the socket and the option.
    fn tcp(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nodelay(true)?;
        Ok(Conn::Tcp(stream))
    }

    pub(crate) fn connect(addr: &Addr) -> std::io::Result<Conn> {
        match addr {
            Addr::Tcp(a) => TcpStream::connect(a).and_then(Conn::tcp),
            Addr::Uds(p) => UnixStream::connect(p).map(Conn::Uds),
        }
    }

    /// Connects with retry: listeners are bound before anything connects,
    /// but a refused/flaky connect during startup is retried briefly
    /// rather than failing the whole cluster.
    pub(crate) fn connect_retry(addr: &Addr) -> Result<Conn> {
        let mut last = None;
        for _ in 0..500 {
            match Conn::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        }
        Err(net_err(
            "connect",
            last.unwrap_or_else(|| std::io::Error::other("no attempt made")),
        ))
    }

    pub(crate) fn try_clone(&self) -> Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Uds(s) => s.try_clone().map(Conn::Uds),
        }
        .map_err(|e| net_err("clone stream", e))
    }

    /// Shuts both directions of the socket, for every handle that shares
    /// it: a reader parked on a clone wakes with EOF.
    fn shutdown(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            Conn::Uds(s) => s.shutdown(Shutdown::Both),
        };
    }

    pub(crate) fn read_some(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Uds(s) => s.read(buf),
        }
    }

    pub(crate) fn write_frame(&mut self, frame: &WireFrame) -> Result<()> {
        let bytes = codec::encode_frame(frame);
        match self {
            Conn::Tcp(s) => s.write_all(&bytes),
            Conn::Uds(s) => s.write_all(&bytes),
        }
        .map_err(|e| net_err("write frame", e))
    }
}

/// A connection plus its incremental decoder: blocking frame reads.
pub(crate) struct FrameConn {
    conn: Conn,
    dec: Decoder,
}

impl FrameConn {
    pub(crate) fn new(conn: Conn) -> Self {
        FrameConn {
            conn,
            dec: Decoder::new(),
        }
    }

    pub(crate) fn writer(&mut self) -> &mut Conn {
        &mut self.conn
    }

    /// Blocks until one complete frame arrives; `Ok(None)` on clean EOF.
    pub(crate) fn read_frame(&mut self) -> Result<Option<WireFrame>> {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(body) = self.dec.next_frame()? {
                return Ok(Some(codec::decode_frame(&body)?));
            }
            let n = self
                .conn
                .read_some(&mut buf)
                .map_err(|e| net_err("read frame", e))?;
            if n == 0 {
                if self.dec.buffered() > 0 {
                    return Err(DomaError::WireCorrupt {
                        context: "EOF inside a frame",
                    });
                }
                return Ok(None);
            }
            self.dec.feed(&buf[..n]);
        }
    }
}

/// One node's listening socket.
pub(crate) enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl Listener {
    /// Binds a fresh endpoint for node `index`: an ephemeral loopback
    /// port, or `node-<index>.sock` under `uds_dir`.
    pub(crate) fn bind(
        kind: TransportKind,
        index: usize,
        uds_dir: &std::path::Path,
    ) -> Result<(Listener, Addr)> {
        match kind {
            TransportKind::Tcp => {
                let l = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| net_err("bind tcp", e))?;
                let addr = l.local_addr().map_err(|e| net_err("local addr", e))?;
                Ok((Listener::Tcp(l), Addr::Tcp(addr)))
            }
            TransportKind::Uds => {
                let path = uds_dir.join(format!("node-{index}.sock"));
                let l = UnixListener::bind(&path).map_err(|e| net_err("bind uds", e))?;
                Ok((Listener::Uds(l), Addr::Uds(path)))
            }
        }
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| Conn::tcp(s)),
            Listener::Uds(l) => l.accept().map(|(s, _)| Conn::Uds(s)),
        }
    }
}

/// What reader threads push into a node's inbox.
enum NodeEvent {
    /// A decoded frame from any inbound connection.
    Frame(WireFrame),
    /// The writer half of the driver's connection (sent once, right
    /// after the driver's `Hello`): replies travel back on it.
    DriverConn(Box<Conn>),
}

/// Everything a node thread needs to run.
pub(crate) struct NodeSetup {
    pub id: usize,
    pub node: DomNode,
    pub listener: Listener,
    /// `(node index, address)` of every *other* node.
    pub peers: Vec<(usize, Addr)>,
    /// This node's own address — used to unblock the acceptor on exit.
    pub self_addr: Addr,
}

/// A handle on a spawned node thread.
pub(crate) struct NodeHandle {
    join: std::thread::JoinHandle<Result<()>>,
}

impl NodeHandle {
    /// Whether the node thread has already exited.
    pub(crate) fn is_finished(&self) -> bool {
        self.join.is_finished()
    }

    /// Joins the node thread, surfacing its event-loop error if any.
    pub(crate) fn join(self) -> Result<()> {
        match self.join.join() {
            Ok(r) => r,
            Err(_) => Err(DomaError::Net("node thread panicked".into())),
        }
    }
}

/// Every inbound stream a node has accepted. When the node's event loop
/// ends — on `Shutdown` or on an error — it closes them all: a reader
/// parked in `read` would otherwise hold the driver's connection open
/// past the node's death, and the driver would wait for a reply forever.
#[derive(Default)]
struct Inbound {
    closed: bool,
    conns: Vec<Conn>,
}

impl Inbound {
    /// Registers an accepted stream; `false` once the node has closed.
    fn admit(this: &Mutex<Inbound>, conn: Conn) -> bool {
        let mut inbound = this.lock().unwrap_or_else(PoisonError::into_inner);
        if inbound.closed {
            return false;
        }
        inbound.conns.push(conn);
        true
    }

    /// Refuses further streams and shuts every registered one.
    fn close(this: &Mutex<Inbound>) {
        let mut inbound = this.lock().unwrap_or_else(PoisonError::into_inner);
        inbound.closed = true;
        for conn in inbound.conns.drain(..) {
            conn.shutdown();
        }
    }
}

/// Spawns the acceptor for one node: each inbound connection gets a
/// reader thread that performs the `Hello` handshake and forwards frames
/// to `tx`. Closing `inbound` + a dummy self-connection unblock the
/// accept loop at shutdown.
fn spawn_acceptor(listener: Listener, tx: mpsc::Sender<NodeEvent>, inbound: Arc<Mutex<Inbound>>) {
    std::thread::spawn(move || {
        loop {
            let Ok(conn) = listener.accept() else { return };
            let Ok(handle) = conn.try_clone() else {
                continue;
            };
            if !Inbound::admit(&inbound, handle) {
                return;
            }
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut fc = FrameConn::new(conn);
                // Handshake: the first frame must identify the peer.
                let hello = match fc.read_frame() {
                    Ok(Some(WireFrame::Hello { node })) => node,
                    _ => return,
                };
                if hello == DRIVER_ID {
                    let Ok(writer) = fc.conn.try_clone() else {
                        return;
                    };
                    if tx.send(NodeEvent::DriverConn(Box::new(writer))).is_err() {
                        return;
                    }
                }
                while let Ok(Some(frame)) = fc.read_frame() {
                    if tx.send(NodeEvent::Frame(frame)).is_err() {
                        return;
                    }
                }
            });
        }
    });
}

/// Spawns one protocol node: acceptor + event loop. Returns once the
/// node's listener is live and its outgoing mesh connections are being
/// established (the event loop runs until a `Shutdown` frame).
pub(crate) fn spawn_node(setup: NodeSetup) -> NodeHandle {
    let join = std::thread::spawn(move || node_main(setup));
    NodeHandle { join }
}

fn node_main(setup: NodeSetup) -> Result<()> {
    let NodeSetup {
        id,
        mut node,
        listener,
        peers,
        self_addr,
    } = setup;
    let (tx, rx) = mpsc::channel::<NodeEvent>();
    let inbound = Arc::new(Mutex::new(Inbound::default()));
    spawn_acceptor(listener, tx, inbound.clone());

    let result = serve(id, &mut node, &peers, &rx);

    // However the loop ended, no peer or driver may wait on this node:
    // close every inbound stream, then poke our own listener with a
    // dummy connect so the parked acceptor sees the close and exits.
    Inbound::close(&inbound);
    let _ = Conn::connect(&self_addr);
    result
}

/// Connects the node's outgoing mesh, then runs its event loop until a
/// `Shutdown` frame.
fn serve(
    id: usize,
    node: &mut DomNode,
    peers: &[(usize, Addr)],
    rx: &mpsc::Receiver<NodeEvent>,
) -> Result<()> {
    // Full mesh: one outgoing connection per peer, introduced by Hello.
    // Every node's listener is bound before any node thread starts, so
    // these connects succeed (with retry absorbing scheduler noise).
    let max_peer = peers.iter().map(|(i, _)| *i).max().unwrap_or(0);
    let mut out: Vec<Option<Conn>> = (0..=max_peer).map(|_| None).collect();
    for (peer, addr) in peers {
        let mut conn = Conn::connect_retry(addr)?;
        conn.write_frame(&WireFrame::Hello { node: id as u64 })?;
        out[*peer] = Some(conn);
    }

    let mut transport = NetTransport::new();
    let mut driver: Option<Conn> = None;
    let mut received: u64 = 0;

    while let Ok(event) = rx.recv() {
        match event {
            NodeEvent::DriverConn(conn) => driver = Some(*conn),
            NodeEvent::Frame(WireFrame::Client { msg }) => {
                // Locally injected request: arrives "from" the node
                // itself, exactly like the sim engine's inject.
                transport.advance();
                node.deliver(&mut transport, NodeId(id), msg);
                flush(id, &mut transport, &mut out)?;
            }
            NodeEvent::Frame(WireFrame::Peer { from, msg, .. }) => {
                received += 1;
                transport.advance();
                node.deliver(&mut transport, NodeId(from as usize), msg);
                flush(id, &mut transport, &mut out)?;
            }
            NodeEvent::Frame(WireFrame::Poll) => {
                let reply = WireFrame::PollReply {
                    sent: transport.control_sent() + transport.data_sent(),
                    received,
                };
                reply_driver(&mut driver, &reply)?;
            }
            NodeEvent::Frame(WireFrame::Report) => {
                let (reads, latency) = node.read_metrics();
                let reply = WireFrame::ReportReply {
                    holds: node.holds_valid(),
                    io: node.io_stats().total(),
                    control_sent: transport.control_sent(),
                    data_sent: transport.data_sent(),
                    reads,
                    latency,
                    errors: node.protocol_errors().len() as u64,
                };
                reply_driver(&mut driver, &reply)?;
            }
            NodeEvent::Frame(WireFrame::Shutdown) => break,
            // Hello frames are consumed by reader threads; reply frames
            // are never addressed to a node. Ignore strays.
            NodeEvent::Frame(_) => {}
        }
    }
    Ok(())
}

/// Writes a reply on the driver connection (a node never needs to reply
/// before the driver has connected — its frames are what we reply to).
fn reply_driver(driver: &mut Option<Conn>, frame: &WireFrame) -> Result<()> {
    match driver {
        Some(conn) => conn.write_frame(frame),
        None => Err(DomaError::Net(
            "reply with no driver connection registered".into(),
        )),
    }
}

/// Drains the transport's outbox onto the peer sockets. Called after
/// every `deliver` — the obs layer has read `pending_sends` by then.
fn flush(id: usize, transport: &mut NetTransport, out: &mut [Option<Conn>]) -> Result<()> {
    for (to, kind, msg) in transport.drain() {
        let conn = out
            .get_mut(to.0)
            .and_then(|c| c.as_mut())
            .ok_or_else(|| DomaError::Net(format!("node {id} has no connection to {to:?}")))?;
        conn.write_frame(&WireFrame::Peer {
            from: id as u64,
            kind,
            msg,
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodelay(conn: &Conn) -> bool {
        match conn {
            Conn::Tcp(s) => s.nodelay().expect("read TCP_NODELAY"),
            Conn::Uds(_) => panic!("expected a TCP stream"),
        }
    }

    /// Both ends of a runtime TCP stream, and their cloned writer
    /// halves, carry `TCP_NODELAY`.
    #[test]
    fn tcp_streams_are_born_nodelay() {
        let (listener, addr) = match Listener::bind(TransportKind::Tcp, 0, &std::env::temp_dir()) {
            Ok(bound) => bound,
            Err(e) => {
                eprintln!("skipping nodelay test: sockets unavailable ({e})");
                return;
            }
        };
        let dialled = Conn::connect(&addr).expect("connect");
        let accepted = listener.accept().expect("accept");
        for conn in [&dialled, &accepted] {
            assert!(nodelay(conn));
            assert!(nodelay(&conn.try_clone().expect("clone")));
        }
    }
}
