//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! program's public functions; nothing inside the program is instrumented.
//! Each span has a name, a start, a duration, a parent and a group id (one
//! per pass or request). Per-case calls are far too many to keep one span
//! each, so they are folded into **rollups**: one span per (parent, name)
//! holding the summed duration of `count` sequential calls. A rollup's
//! calls never overlap each other or the parent's explicit children, so a
//! parent's covered time is the union of its explicit children's intervals
//! plus the sum of its rollups.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub group: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Calls folded into this span: 1 for an explicit span.
    pub count: u64,
    pub rollup: bool,
    pub tid: u32,
}

/// A single-threaded span recorder; threads each own one and the spans
/// are merged when the run ends.
pub struct Tracer {
    t0: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rollups: HashMap<(usize, &'static str), usize>,
}

impl Tracer {
    pub fn new(t0: Instant, tid: u32) -> Tracer {
        Tracer {
            t0,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
            rollups: HashMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens an explicit span under the innermost open one.
    pub fn begin(&mut self, name: impl Into<String>, group: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.into(),
            group,
            parent: self.stack.last().copied(),
            start_ns,
            dur_ns: 0,
            count: 1,
            rollup: false,
            tid: self.tid,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.dur_ns = now.saturating_sub(span.start_ns);
    }

    /// Records an already-timed explicit span under the innermost open one.
    pub fn record(&mut self, name: impl Into<String>, group: u64, start: Instant, end: Instant) {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name: name.into(),
            group,
            parent: self.stack.last().copied(),
            start_ns,
            dur_ns: self.ns(end).saturating_sub(start_ns),
            count: 1,
            rollup: false,
            tid: self.tid,
        });
    }

    /// Folds `count` sequential calls totalling `dur` (the first starting
    /// at `start`) into the `name` rollup of the innermost open span.
    pub fn rollup(&mut self, name: &'static str, start: Instant, count: u64, dur: Duration) {
        let parent = *self
            .stack
            .last()
            .expect("a rollup needs an open parent span");
        let dur = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        if let Some(&id) = self.rollups.get(&(parent, name)) {
            let span = &mut self.spans[id];
            span.dur_ns += dur;
            span.count += count;
            return;
        }
        let id = self.spans.len();
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name: name.to_owned(),
            group: self.spans[parent].group,
            parent: Some(parent),
            start_ns,
            dur_ns: dur,
            count,
            rollup: true,
            tid: self.tid,
        });
        self.rollups.insert((parent, name), id);
    }

    /// The recorded spans; every span must be closed.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(
            self.stack.is_empty(),
            "unclosed spans at the end of the run"
        );
        self.spans
    }
}

/// Concatenates the main thread's spans with other threads' lists,
/// rebasing parent indices. A thread's top-level span is attached under
/// the main-thread span named `attach` that has the same group id.
pub fn merge(main: Vec<Span>, threads: Vec<Vec<Span>>, attach: &str) -> Vec<Span> {
    let anchors: HashMap<u64, usize> = main
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == attach)
        .map(|(i, s)| (s.group, i))
        .collect();
    let mut out = main;
    for list in threads {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => anchors.get(&s.group).copied(),
            };
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the union of its explicit
/// children's intervals (clipped to it) and the sum of its rollups.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let (lo, hi) = (s.start_ns, s.start_ns + s.dur_ns);
            let mut rolled = 0u64;
            let mut intervals: Vec<(u64, u64)> = Vec::new();
            for &c in &children[i] {
                let c = &spans[c];
                if c.rollup {
                    rolled += c.dur_ns;
                } else {
                    let (a, b) = (c.start_ns.max(lo), (c.start_ns + c.dur_ns).min(hi));
                    if a < b {
                        intervals.push((a, b));
                    }
                }
            }
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in intervals {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns.saturating_sub(covered + rolled)
        })
        .collect()
}

/// One row of the self-time table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Row {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Calls, total time and self time per span name.
pub fn self_time_table(spans: &[Span]) -> BTreeMap<String, Row> {
    let selfs = self_times(spans);
    let mut table: BTreeMap<String, Row> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = table.entry(s.name.clone()).or_default();
        row.calls += s.count;
        row.total_ns += s.dur_ns;
        row.self_ns += self_ns;
    }
    table
}

/// Renders the self-time table, largest self time first.
pub fn render_table(table: &BTreeMap<String, Row>) -> String {
    let mut rows: Vec<(&String, &Row)> = table.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then_with(|| a.0.cmp(b.0)));
    let mut out = format!(
        "{:<40} {:>12} {:>14} {:>14}\n",
        "span", "calls", "total_ms", "self_ms"
    );
    for (name, row) in rows {
        let _ = writeln!(
            out,
            "{name:<40} {:>12} {:>14.3} {:>14.3}",
            row.calls,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        );
    }
    out
}

/// Explicit spans kept in the Chrome trace; the self-time table always
/// covers every span.
const MAX_CHROME_EVENTS: usize = 100_000;

/// Renders the spans as a Chrome trace (`chrome://tracing`, Perfetto).
/// Rollups appear as `calls`/`ms` arguments on their parent's event.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut rollups: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let (true, Some(p)) = (s.rollup, s.parent) {
            rollups[p].push(i);
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (i, s) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.rollup)
        .take(MAX_CHROME_EVENTS)
    {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"group\":{}",
            s.name.replace('"', "'"),
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.tid,
            s.group
        );
        for &r in &rollups[i] {
            let r = &spans[r];
            let _ = write!(
                out,
                ",\"{}.calls\":{},\"{}.ms\":{:.3}",
                r.name,
                r.count,
                r.name,
                r.dur_ns as f64 / 1e6
            );
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: u64, dur: u64) -> Span {
        Span {
            name: name.to_owned(),
            group: 0,
            parent,
            start_ns: start,
            dur_ns: dur,
            count: 1,
            rollup: false,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_nested_children() {
        let mut rollup = span("leaf", Some(0), 60, 5);
        rollup.rollup = true;
        rollup.count = 3;
        let spans = vec![
            span("pass", None, 0, 100),
            span("a", Some(0), 10, 20), // [10, 30)
            span("b", Some(0), 20, 30), // [20, 50): overlaps a
            span("c", Some(1), 12, 3),  // inside a
            span("d", Some(0), 90, 20), // clipped to [90, 100)
            rollup,
        ];
        let selfs = self_times(&spans);
        // pass: 100 - |[10,50) ∪ [90,100)| - 5 = 100 - 50 - 5.
        assert_eq!(selfs[0], 45);
        assert_eq!(selfs[1], 17, "a minus its grandchild-free child c");
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 3);
        assert_eq!(selfs[5], 5, "a rollup has no children");
        let table = self_time_table(&spans);
        assert_eq!(table["leaf"].calls, 3);
        assert_eq!(table["pass"].self_ns, 45);
    }

    #[test]
    fn tracer_nests_spans_and_rolls_up_leaves() {
        let t0 = Instant::now();
        let mut t = Tracer::new(t0, 7);
        let outer = t.begin("outer", 1);
        for _ in 0..2 {
            let s = Instant::now();
            std::hint::black_box((0..100).sum::<u64>());
            t.rollup("work", s, 2, s.elapsed());
        }
        let inner = t.begin("inner", 1);
        t.end(inner);
        t.end(outer);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].name, "work");
        assert_eq!(spans[1].count, 4);
        assert!(spans[1].rollup);
        assert_eq!(spans[2].parent, Some(0));
        let selfs = self_times(&spans);
        assert!(selfs[0] <= spans[0].dur_ns);
        let merged = merge(spans.clone(), vec![spans], "outer");
        assert_eq!(merged[4].parent, Some(3));
        assert_eq!(
            merged[3].parent,
            Some(0),
            "a top-level span attaches by group"
        );
        assert!(chrome_trace(&merged).contains("\"work.calls\":4"));
    }
}
