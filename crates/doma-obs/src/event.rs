//! The bounded, seekable event log and span records.
//!
//! Records carry a global monotone `index`, so a consumer can *seek*:
//! remember the last index it saw and fetch only newer records with
//! [`EventLog::snapshot_from`], even across ring-buffer wraps. A wrap
//! never loses information silently — [`EventLog::dropped_events`]
//! counts every discarded record.

use crate::json::escape;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Where a record sits in a span's lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventPhase {
    /// A free-standing event.
    Point,
    /// A span opened here.
    Enter,
    /// A span closed here; `duration` is in the caller's sim-time ticks.
    Exit {
        /// Exit time minus enter time, in ticks.
        duration: u64,
    },
}

/// One structured record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Global monotone position in the log (survives wraps).
    pub index: u64,
    /// The caller's virtual time, in ticks.
    pub time: u64,
    /// Dot-separated event name, `component.event` by convention
    /// (`sim.crash`, `protocol.quorum_read`…).
    pub name: String,
    /// Ordered `(key, value)` payload fields.
    pub fields: Vec<(String, String)>,
    /// Point, span-enter or span-exit.
    pub phase: EventPhase,
}

impl EventRecord {
    /// The value of payload field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The stable JSON object for this record.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"index\": {}, \"time\": {}, \"name\": \"{}\", \"phase\": ",
            self.index,
            self.time,
            escape(&self.name)
        );
        match &self.phase {
            EventPhase::Point => out.push_str("\"point\""),
            EventPhase::Enter => out.push_str("\"enter\""),
            EventPhase::Exit { duration } => {
                out.push_str(&format!("\"exit\", \"duration\": {duration}"))
            }
        }
        out.push_str(", \"fields\": {");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": \"{}\"", escape(k), escape(v)));
        }
        out.push_str("}}");
        out
    }
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} t={} {}", self.index, self.time, self.name)?;
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        match &self.phase {
            EventPhase::Point => Ok(()),
            EventPhase::Enter => write!(f, " [span enter]"),
            EventPhase::Exit { duration } => write!(f, " [span exit Δt={duration}]"),
        }
    }
}

#[derive(Debug)]
struct OpenSpan {
    name: String,
    fields: Vec<(String, String)>,
    enter_time: u64,
}

#[derive(Debug)]
struct Inner {
    records: VecDeque<EventRecord>,
    capacity: usize,
    dropped: u64,
    next_index: u64,
    open_spans: BTreeMap<u64, OpenSpan>,
    next_span: u64,
}

/// An identifier for an open span, returned by
/// [`EventLog::span_enter`] and consumed by [`EventLog::span_exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(u64);

/// A cloneable handle on a bounded event log. When the buffer is full
/// the oldest records are discarded **and counted** — see
/// [`EventLog::dropped_events`].
#[derive(Debug, Clone)]
pub struct EventLog {
    inner: Arc<Mutex<Inner>>,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(256)
    }
}

impl EventLog {
    /// A log retaining at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        EventLog {
            inner: Arc::new(Mutex::new(Inner {
                records: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
                next_index: 0,
                open_spans: BTreeMap::new(),
                next_span: 0,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(
        inner: &mut Inner,
        time: u64,
        name: &str,
        fields: Vec<(String, String)>,
        phase: EventPhase,
    ) -> u64 {
        if inner.records.len() == inner.capacity {
            inner.records.pop_front();
            inner.dropped += 1;
        }
        let index = inner.next_index;
        inner.next_index += 1;
        inner.records.push_back(EventRecord {
            index,
            time,
            name: name.to_string(),
            fields,
            phase,
        });
        index
    }

    /// Appends a point event; returns its global index.
    pub fn record(&self, time: u64, name: &str, fields: Vec<(String, String)>) -> u64 {
        let mut inner = self.lock();
        Self::push(&mut inner, time, name, fields, EventPhase::Point)
    }

    /// Opens a span: appends an enter record and remembers the enter
    /// time so the matching [`EventLog::span_exit`] can carry the
    /// sim-time duration.
    pub fn span_enter(&self, time: u64, name: &str, fields: Vec<(String, String)>) -> SpanId {
        let mut inner = self.lock();
        Self::push(&mut inner, time, name, fields.clone(), EventPhase::Enter);
        let id = inner.next_span;
        inner.next_span += 1;
        inner.open_spans.insert(
            id,
            OpenSpan {
                name: name.to_string(),
                fields,
                enter_time: time,
            },
        );
        SpanId(id)
    }

    /// Closes a span: appends an exit record carrying
    /// `time - enter_time`. Unknown (or already-closed) ids are ignored.
    pub fn span_exit(&self, id: SpanId, time: u64) {
        let mut inner = self.lock();
        if let Some(span) = inner.open_spans.remove(&id.0) {
            let duration = time.saturating_sub(span.enter_time);
            Self::push(
                &mut inner,
                time,
                &span.name,
                span.fields,
                EventPhase::Exit { duration },
            );
        }
    }

    /// Appends a pre-built record (typically taken from another log's
    /// snapshot), preserving its time, name, fields and phase but
    /// assigning this log's own next index. The shard merge folds
    /// per-shard logs into one master log with it; span bookkeeping is
    /// deliberately untouched — a copied `Enter`/`Exit` pair already
    /// carries its duration.
    pub fn append_record(&self, record: &EventRecord) -> u64 {
        let mut inner = self.lock();
        Self::push(
            &mut inner,
            record.time,
            &record.name,
            record.fields.clone(),
            record.phase.clone(),
        )
    }

    /// Adds `n` to the dropped-records counter — used when folding in
    /// another log whose own capacity bound already discarded records.
    pub fn add_dropped(&self, n: u64) {
        self.lock().dropped += n;
    }

    /// The retained records, oldest first.
    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.lock().records.iter().cloned().collect()
    }

    /// Seek: the retained records with `index >= from`, oldest first.
    /// Records older than the retention window are gone (but counted in
    /// [`EventLog::dropped_events`]).
    pub fn snapshot_from(&self, from: u64) -> Vec<EventRecord> {
        self.lock()
            .records
            .iter()
            .filter(|r| r.index >= from)
            .cloned()
            .collect()
    }

    /// The last `n` retained records, oldest first.
    pub fn tail(&self, n: usize) -> Vec<EventRecord> {
        let inner = self.lock();
        let skip = inner.records.len().saturating_sub(n);
        inner.records.iter().skip(skip).cloned().collect()
    }

    /// Number of records discarded by the capacity bound since
    /// construction (or the last [`EventLog::clear`]).
    pub fn dropped_events(&self) -> u64 {
        self.lock().dropped
    }

    /// The index the *next* record will get (== total records ever
    /// appended). A consumer stores this to seek later.
    pub fn next_index(&self) -> u64 {
        self.lock().next_index
    }

    /// Number of currently retained records.
    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.lock().records.is_empty()
    }

    /// Drops all retained records, the dropped counter and any open
    /// spans; indices restart from zero.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.records.clear();
        inner.dropped = 0;
        inner.next_index = 0;
        inner.open_spans.clear();
    }

    /// Renders the retained records one per line.
    pub fn render(&self) -> String {
        self.snapshot()
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Opens a span on an [`EventLog`]: `span!(log, time, "da.write",
/// obj = o, node = n)` appends an enter record with the named fields and
/// returns the [`SpanId`] to pass to [`EventLog::span_exit`].
#[macro_export]
macro_rules! span {
    ($log:expr, $time:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $log.span_enter(
            $time,
            $name,
            vec![$((stringify!($key).to_string(), format!("{}", $val)),)*],
        )
    };
}

/// Appends a point event: `event!(log, time, "sim.crash", node = id)`.
#[macro_export]
macro_rules! event {
    ($log:expr, $time:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $log.record(
            $time,
            $name,
            vec![$((stringify!($key).to_string(), format!("{}", $val)),)*],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_counts_dropped_events_and_keeps_indices() {
        let log = EventLog::new(2);
        for t in 0..5u64 {
            log.record(t, "e", vec![]);
        }
        assert_eq!(log.dropped_events(), 3);
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].index, 3);
        assert_eq!(snap[1].index, 4);
        assert_eq!(log.next_index(), 5);
    }

    #[test]
    fn snapshot_from_seeks_by_global_index() {
        let log = EventLog::new(10);
        for t in 0..6u64 {
            log.record(t, "e", vec![]);
        }
        let newer = log.snapshot_from(4);
        assert_eq!(newer.len(), 2);
        assert_eq!(newer[0].index, 4);
    }

    #[test]
    fn spans_carry_sim_time_durations() {
        let log = EventLog::new(10);
        let id = span!(log, 5, "da.write", obj = "obj0", node = 2);
        log.record(6, "between", vec![]);
        log.span_exit(id, 9);
        let snap = log.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].phase, EventPhase::Enter);
        assert_eq!(snap[2].phase, EventPhase::Exit { duration: 4 });
        assert_eq!(snap[2].name, "da.write");
        assert_eq!(snap[2].fields[0], ("obj".to_string(), "obj0".to_string()));
        log.span_exit(id, 20); // double-exit is ignored
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn tail_and_render_and_clear() {
        let log = EventLog::new(10);
        event!(log, 1, "a.one", k = 1);
        event!(log, 2, "a.two");
        assert_eq!(log.tail(1)[0].name, "a.two");
        assert_eq!(log.render(), "#0 t=1 a.one k=1\n#1 t=2 a.two");
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.dropped_events(), 0);
        assert_eq!(log.next_index(), 0);
    }

    #[test]
    fn record_json_is_stable() {
        let log = EventLog::new(4);
        let id = log.span_enter(2, "p.span", vec![("node".into(), "N1".into())]);
        log.span_exit(id, 7);
        let snap = log.snapshot();
        assert_eq!(
            snap[1].to_json(),
            "{\"index\": 1, \"time\": 7, \"name\": \"p.span\", \"phase\": \"exit\", \
             \"duration\": 5, \"fields\": {\"node\": \"N1\"}}"
        );
    }
}
