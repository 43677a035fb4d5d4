//! Error types shared across the workspace.

use crate::ProcSet;
use std::fmt;

/// Result alias using [`DomaError`].
pub type Result<T> = std::result::Result<T, DomaError>;

/// Everything that can go wrong when validating or costing allocation
/// schedules, or when configuring an algorithm.
#[derive(Debug, Clone, PartialEq)]
pub enum DomaError {
    /// A read's execution set does not intersect the allocation scheme at
    /// the read — the schedule is not *legal* (§3.1).
    IllegalRead {
        /// 0-based request position.
        position: usize,
        /// The read's execution set.
        exec: ProcSet,
        /// The allocation scheme at the read.
        scheme: ProcSet,
    },
    /// The allocation scheme at some request (or after the last request)
    /// has fewer than `t` members.
    AvailabilityViolation {
        /// 0-based request position (`len` means "after the last request").
        position: usize,
        /// Observed scheme size.
        scheme_size: usize,
        /// The availability threshold.
        t: usize,
    },
    /// A request was allocated an empty execution set.
    EmptyExecutionSet {
        /// 0-based request position.
        position: usize,
    },
    /// An algorithm or experiment was configured inconsistently (message
    /// explains what).
    InvalidConfig(String),
    /// A protocol node was asked to serve an object it has no config for
    /// (a routing bug, or a fault-injected message for a foreign object).
    UnknownObject {
        /// The node that received the request.
        node: usize,
        /// The unconfigured object (its raw id).
        object: u64,
    },
    /// A simulation run dispatched its whole event budget without the
    /// network going idle — a runaway protocol, or an exploration bound
    /// set deliberately tight.
    EventBudgetExceeded {
        /// The per-window event budget that tripped: the events
        /// dispatched since the network was last idle.
        budget: u64,
    },
    /// Wire decoding ran out of bytes: the frame or a field inside it was
    /// cut short. Incremental decoders treat this as "wait for more
    /// bytes" at the frame boundary and as corruption inside a complete
    /// frame.
    WireTruncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// Wire decoding met structurally invalid bytes (bad tag, oversized
    /// length prefix, out-of-range id, trailing garbage).
    WireCorrupt {
        /// What the decoder was reading when it gave up.
        context: &'static str,
    },
    /// A socket-level failure in the real-runtime transport (message
    /// explains what; the OS error is flattened to text so the variant
    /// stays `Clone + PartialEq`).
    Net(String),
    /// A real-runtime cluster bound its sockets but failed to come up: a
    /// node died, or the driver could not reach it. Unlike
    /// [`DomaError::Net`] this is never "runtime unavailable" — the
    /// message is the root cause, the failing node's own error when
    /// there is one.
    ClusterBoot(String),
    /// A real-runtime cluster failed to reach quiescence within the
    /// driver's poll budget — a hung node, or a genuinely runaway
    /// protocol.
    ClusterStalled {
        /// Poll rounds issued before giving up.
        polls: usize,
        /// The last poll's `(sent, received)` node-to-node frame counts,
        /// one pair per node.
        counts: Vec<(u64, u64)>,
    },
}

impl fmt::Display for DomaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomaError::IllegalRead {
                position,
                exec,
                scheme,
            } => write!(
                f,
                "illegal read at position {position}: execution set {exec} \
                 does not intersect allocation scheme {scheme}"
            ),
            DomaError::AvailabilityViolation {
                position,
                scheme_size,
                t,
            } => write!(
                f,
                "t-availability violated at position {position}: scheme has \
                 {scheme_size} member(s), threshold t={t}"
            ),
            DomaError::EmptyExecutionSet { position } => {
                write!(f, "empty execution set at position {position}")
            }
            DomaError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DomaError::UnknownObject { node, object } => {
                write!(f, "node {node} has no config for obj{object}")
            }
            DomaError::EventBudgetExceeded { budget } => {
                write!(
                    f,
                    "simulation stopped after its event budget of {budget} \
                     events without going idle — runaway protocol?"
                )
            }
            DomaError::WireTruncated { needed, have } => {
                write!(
                    f,
                    "wire data truncated: needed {needed} byte(s), have {have}"
                )
            }
            DomaError::WireCorrupt { context } => {
                write!(f, "corrupt wire data while reading {context}")
            }
            DomaError::Net(msg) => write!(f, "network transport failure: {msg}"),
            DomaError::ClusterBoot(msg) => write!(f, "cluster failed to boot: {msg}"),
            DomaError::ClusterStalled { polls, counts } => {
                write!(
                    f,
                    "cluster failed to quiesce after {polls} poll round(s); \
                     last poll sent/received per node:"
                )?;
                for (node, (sent, received)) in counts.iter().enumerate() {
                    write!(f, " n{node}={sent}/{received}")?;
                }
                write!(f, " — hung node or runaway protocol?")
            }
        }
    }
}

impl std::error::Error for DomaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = DomaError::IllegalRead {
            position: 3,
            exec: ProcSet::from_iter([4usize]),
            scheme: ProcSet::from_iter([1usize, 2]),
        };
        let s = e.to_string();
        assert!(s.contains("position 3"));
        assert!(s.contains("{4}"));
        assert!(s.contains("{1,2}"));

        let e = DomaError::AvailabilityViolation {
            position: 0,
            scheme_size: 1,
            t: 2,
        };
        assert!(e.to_string().contains("t=2"));

        let e = DomaError::InvalidConfig("F must not contain p".into());
        assert!(e.to_string().contains("F must not contain p"));
    }

    #[test]
    fn wire_and_net_messages_are_informative() {
        let e = DomaError::WireTruncated { needed: 8, have: 3 };
        assert!(e.to_string().contains("needed 8"));
        assert!(e.to_string().contains("have 3"));

        let e = DomaError::WireCorrupt {
            context: "DomMsg tag",
        };
        assert!(e.to_string().contains("DomMsg tag"));

        let e = DomaError::Net("connection refused".into());
        assert!(e.to_string().contains("connection refused"));

        let e = DomaError::ClusterBoot("node closed connection mid-poll".into());
        let s = e.to_string();
        assert!(s.contains("failed to boot"), "{s}");
        assert!(s.contains("mid-poll"), "{s}");

        let e = DomaError::ClusterStalled {
            polls: 42,
            counts: vec![(3, 2), (0, 1)],
        };
        let s = e.to_string();
        assert!(s.contains("42 poll"));
        assert!(s.contains("n0=3/2 n1=0/1"), "{s}");
    }

    #[test]
    fn event_budget_message_names_the_budget() {
        let e = DomaError::EventBudgetExceeded { budget: 1_000 };
        let s = e.to_string();
        assert!(s.contains("event budget of 1000 events"), "{s}");
    }
}
