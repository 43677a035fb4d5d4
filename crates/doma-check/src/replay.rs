//! Deterministic counterexample replay.
//!
//! A counterexample trace is the list of engine sequence numbers the
//! explorer dispatched, in order. Sequence numbers are deterministic —
//! the same scenario injects and sends events in the same order along
//! the same schedule — so a trace replays exactly, in the style of the
//! testkit's seed-replay convention (`DOMA_CHECK_TRACE=12-7-3 cargo test
//! -p doma-check <test>`).

use crate::explore::{Progress, SearchState};
use crate::scenario::Scenario;
use doma_core::Result;
use doma_fault::Violation;
use doma_testkit::replay::parse_u64;

/// Environment variable carrying a dash-separated trace to replay.
pub const TRACE_ENV: &str = "DOMA_CHECK_TRACE";

/// One replayed dispatch.
#[derive(Debug, Clone)]
pub struct ReplayStep {
    /// The engine sequence number dispatched.
    pub seq: u64,
    /// Label of the delivered event.
    pub label: String,
    /// Scenario phase the dispatch happened in.
    pub phase: usize,
}

/// The outcome of replaying a trace against a scenario.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Every dispatch performed, in order.
    pub steps: Vec<ReplayStep>,
    /// The violation the trace reproduces, if it still does.
    pub violation: Option<Violation>,
}

/// Formats a trace the way [`parse_trace`] reads it back.
pub fn format_trace(trace: &[u64]) -> String {
    trace
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join("-")
}

/// Parses a dash-separated trace (`"12-7-3"`). Empty input is an empty
/// trace; any non-numeric component is `None`.
pub fn parse_trace(s: &str) -> Option<Vec<u64>> {
    let s = s.trim();
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split('-').map(parse_u64).collect()
}

/// Reads a trace from [`TRACE_ENV`], if set and well-formed.
pub fn trace_from_env() -> Option<Vec<u64>> {
    std::env::var(TRACE_ENV).ok().and_then(|s| parse_trace(&s))
}

/// Event-log bound for an instrumented replay; a counterexample trace is
/// short by construction, so this is generous.
const REPLAY_EVENT_CAPACITY: usize = 256;

/// Replays `trace` against a fresh instance of `scenario`, dispatching
/// exactly the listed events (phase barriers advance automatically when
/// the queue drains). Stops at the first violation, which is the one the
/// trace was minted to reproduce.
pub fn replay(scenario: &Scenario, trace: &[u64]) -> Result<ReplayReport> {
    let mut state = SearchState::initial(scenario)?;
    Ok(drive(scenario, &mut state, trace))
}

/// [`replay`] with an observability bundle attached to the cluster: the
/// returned [`doma_obs::Obs`] holds the metric tallies and event log of
/// exactly the replayed schedule. This is how counterexample reports get
/// their metrics — the search itself never carries instrumentation.
pub fn replay_observed(
    scenario: &Scenario,
    trace: &[u64],
) -> Result<(ReplayReport, doma_obs::Obs)> {
    let mut state = SearchState::initial(scenario)?;
    let obs = state.sim.attach_obs(REPLAY_EVENT_CAPACITY);
    state.sim.trace_messages();
    let report = drive(scenario, &mut state, trace);
    state.sim.obs_flush();
    Ok((report, obs))
}

fn drive(scenario: &Scenario, state: &mut SearchState, trace: &[u64]) -> ReplayReport {
    let mut steps = Vec::new();
    for &seq in trace {
        match state.advance(scenario) {
            Ok(Progress::Ready) => {}
            Ok(Progress::Done) => break,
            Err(violation) => {
                return ReplayReport {
                    steps,
                    violation: Some(violation),
                }
            }
        }
        let label = state
            .sim
            .pending_events()
            .iter()
            .find(|e| e.seq() == seq)
            .map(|e| e.label().to_string())
            .unwrap_or_else(|| format!("<seq {seq} not queued>"));
        steps.push(ReplayStep {
            seq,
            label,
            phase: state.phase,
        });
        if let Err(violation) = state.step(scenario, seq) {
            return ReplayReport {
                steps,
                violation: Some(violation),
            };
        }
    }
    // The trace ran out without tripping anything; one more barrier
    // audit catches violations that surface only at quiescence.
    let violation = state.advance(scenario).err();
    ReplayReport { steps, violation }
}
