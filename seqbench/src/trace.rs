//! In-memory span recording for traced runs, written out as NDJSON when
//! the run ends.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<u64>,
    pub job: u64,
}

impl Span {
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// A span that has started and not yet ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    start_us: u64,
}

/// Collects spans from any thread; microsecond timestamps are relative
/// to the tracer's creation.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Start a span; its id is the parent of spans opened inside it.
    pub fn open(&self) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_us: self.now_us(),
        }
    }

    /// End `open` now and record it.
    pub fn close(&self, open: Open, name: &'static str, parent: Option<u64>, job: u64) -> Span {
        let span = Span {
            id: open.id,
            name,
            start_us: open.start_us,
            end_us: self.now_us(),
            parent,
            job,
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span.clone());
        span
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open();
        let value = f();
        self.close(open, name, parent, job);
        value
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }

    /// Write every span to `path` as one JSON object per line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.render_ndjson(&mut out)?;
        out.flush()
    }

    fn render_ndjson(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}, \"job\": {}}}",
                s.id, s.name, s.start_us, s.end_us, s.job
            )?;
        }
        Ok(())
    }
}

/// A span's self time: its duration minus the part of its interval that
/// the union of its children's intervals covers.
pub fn self_time_us(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_us;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.duration_us().saturating_sub(covered)
}

/// Self time of every span, by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            (s.id, self_time_us(s, kids))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start_us: u64, end_us: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: "t",
            start_us,
            end_us,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(1, 100, 200, None);
        // Disjoint children: 20 + 30 covered.
        let a = span(2, 110, 130, Some(1));
        let b = span(3, 150, 180, Some(1));
        assert_eq!(self_time_us(&parent, &[&a, &b]), 50);
        // Overlapping children count their union once: [110, 160).
        let c = span(4, 120, 160, Some(1));
        assert_eq!(self_time_us(&parent, &[&a, &c]), 50);
        // Nested children are already covered by the outer one.
        let d = span(5, 112, 118, Some(1));
        assert_eq!(self_time_us(&parent, &[&a, &d]), 80);
        // Children are clipped to the parent's interval.
        let e = span(6, 50, 120, Some(1));
        let f = span(7, 190, 260, Some(1));
        assert_eq!(self_time_us(&parent, &[&e, &f]), 70);
        // No children: all self; children covering everything: none.
        assert_eq!(self_time_us(&parent, &[]), 100);
        let all = span(8, 0, 300, Some(1));
        assert_eq!(self_time_us(&parent, &[&all]), 0);
    }

    #[test]
    fn self_times_attributes_only_direct_children() {
        let spans = vec![
            span(1, 0, 100, None),
            span(2, 10, 60, Some(1)),
            span(3, 20, 40, Some(2)),
            span(4, 70, 90, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 30);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&4], 20);
        // Self times of a tree partition the root's duration.
        assert_eq!(selfs.values().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_records_and_writes_ndjson() {
        let tracer = Tracer::new();
        let root = tracer.open();
        let value = tracer.time("inner", Some(root.id), 7, || 41 + 1);
        let outer = tracer.close(root, "outer", None, 7);
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(outer.id));
        assert!(spans[0].start_us >= outer.start_us && spans[0].end_us <= outer.end_us);

        let mut bytes = Vec::new();
        tracer.render_ndjson(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\": ") && lines[0].contains("\"name\": \"inner\""));
        assert!(lines[1].contains("\"parent\": null") && lines[1].contains("\"job\": 7"));
    }
}
