//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around each call it
//! makes into a layer. Each span carries a name, start, end, parent and
//! request id; all of them stay in memory until the run ends, when
//! [`Tracer::write`] dumps them. Timestamps are nanoseconds since the
//! tracer's epoch; consecutive spans of one request share clock reads
//! (the end of one is the start of the next), so a traced request pays
//! two clock reads, not four.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent id of a top-level span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u64,
}

/// What [`Tracer::by_name`] sums per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// An `Instant` taken elsewhere (a worker thread), as a timestamp.
    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    #[inline]
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start: u64,
        end: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end is filled in by [`Tracer::close`]; children
    /// recorded meanwhile name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let now = self.now();
        self.record(name, parent, req, now, now)
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn duration(&self, id: u32) -> u64 {
        let s = self.spans[id as usize];
        s.end.saturating_sub(s.start)
    }

    /// Self time of every span: its duration minus the part of it that
    /// the union of its children's intervals covers (children of a
    /// parallel phase may overlap each other).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                let covered = union_within(kids, s.start, s.end);
                s.end.saturating_sub(s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// The share of span `id` that its children cover: its duration
    /// minus its self time.
    pub fn covered(&self, id: u32, self_times: &[u64]) -> u64 {
        self.duration(id).saturating_sub(self_times[id as usize])
    }

    /// Count, total self time and total duration per span name.
    pub fn by_name(&self, self_times: &[u64]) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self_times) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.self_ns += t;
            e.total_ns += s.end.saturating_sub(s.start);
        }
        out
    }

    /// Writes the spans, tab-separated: first one summary line per span
    /// name (`#`, name, count, total self ns, total ns), then the first
    /// `per_name` spans of each name as `id name start_ns end_ns parent
    /// req self_ns` (parent `-` for a top-level span). A traced run holds
    /// millions of per-request spans; the summary covers all of them.
    pub fn write(&self, path: &std::path::Path, per_name: u64) -> std::io::Result<()> {
        let self_times = self.self_times();
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        writeln!(out, "#\tname\tcount\tself_ns\ttotal_ns")?;
        for (name, t) in self.by_name(&self_times) {
            writeln!(out, "#\t{name}\t{}\t{}\t{}", t.count, t.self_ns, t.total_ns)?;
        }
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq\tself_ns")?;
        let mut written: BTreeMap<&str, u64> = BTreeMap::new();
        for (id, (s, t)) in self.spans.iter().zip(&self_times).enumerate() {
            let n = written.entry(s.name).or_default();
            if *n >= per_name {
                continue;
            }
            *n += 1;
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}\t{t}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let root = t.record("leg", ROOT, 0, 0, 100);
        // Two overlapping children cover [10, 50]; a third covers [60, 70].
        t.record("a", root, 0, 10, 40);
        t.record("b", root, 0, 30, 50);
        let c = t.record("c", root, 0, 60, 70);
        t.record("c.inner", c, 0, 62, 65);
        let selfs = t.self_times();
        assert_eq!(selfs[root as usize], 50);
        assert_eq!(t.covered(root, &selfs), 50);
        assert_eq!(selfs[c as usize], 7);
        let names = t.by_name(&selfs);
        assert_eq!((names["a"].self_ns, names["a"].count), (30, 1));
        assert_eq!((names["c"].self_ns, names["c"].total_ns), (7, 10));
    }
}
