//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's public functions: name, start, end, parent and op id, kept
//! in memory and written out once the run ends. Calls made hundreds of
//! thousands of times per pass (one JSONL line, one ingested event) are
//! folded into *tallies* instead: busy time and call count per
//! `(parent span, name)`, so tracing a pass does not allocate a span per
//! event. A tally is always recorded while its parent span is the
//! innermost open span, so tallies never overlap child spans.
//!
//! A layer's self time is its duration minus the part covered by its
//! child spans and tallies.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Calls folded under one open span.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub busy_ns: u64,
    pub count: u64,
}

/// Busy time, self time and call count of one layer (span name).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    pub busy_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

impl Layer {
    /// Busy time in milliseconds.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ns as f64 / 1e6
    }

    /// Mean busy time per call in microseconds (0 when never called).
    pub fn per_call_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.busy_ns as f64 / 1e3 / self.count as f64
        }
    }
}

/// The in-memory recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    tallies: BTreeMap<(usize, &'static str), Tally>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            tallies: BTreeMap::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tag spans opened from now on with this op id (one market
    /// verdict, one grid cell, ...).
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Time `f` as one call folded into the tally `name` under the
    /// innermost open span.
    pub fn tally<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed();
        self.add_tally(name, dur);
        (out, dur)
    }

    /// Fold an already-measured call into the tally `name`.
    fn add_tally(&mut self, name: &'static str, dur: Duration) {
        let parent = *self.open.last().expect("tallies need an open span");
        let t = self.tallies.entry((parent, name)).or_default();
        t.busy_ns += dur.as_nanos() as u64;
        t.count += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` in seconds.
    pub fn duration_s(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to it) minus its tallies.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut tallied = vec![0u64; self.spans.len()];
        for (&(parent, _), t) in &self.tallies {
            tallied[parent] += t.busy_ns;
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let covered = union_within(&mut children[i], s.start_ns, s.end_ns);
                (s.end_ns - s.start_ns).saturating_sub(covered + tallied[i])
            })
            .collect()
    }

    /// Root span of every span.
    fn root_of(&self) -> Vec<usize> {
        let mut root: Vec<usize> = (0..self.spans.len()).collect();
        for i in 0..self.spans.len() {
            if let Some(p) = self.spans[i].parent {
                root[i] = root[p];
            }
        }
        root
    }

    /// Per root span: (root id, root duration, sum of self times of
    /// every span and tally in its tree). The second never exceeds the
    /// first when spans nest and tallies stay disjoint from children.
    pub fn root_budgets(&self) -> Vec<(usize, u64, u64)> {
        let selfs = self.self_times();
        let root = self.root_of();
        let mut sums: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, &s) in selfs.iter().enumerate() {
            *sums.entry(root[i]).or_default() += s;
        }
        for (&(parent, _), t) in &self.tallies {
            *sums.entry(root[parent]).or_default() += t.busy_ns;
        }
        sums.into_iter()
            .map(|(r, sum)| {
                let s = &self.spans[r];
                (r, s.end_ns - s.start_ns, sum)
            })
            .collect()
    }

    /// Busy time, self time and count per layer name, over the spans
    /// whose root is named `root` (every root when `None`).
    pub fn layers(&self, root: Option<&str>) -> BTreeMap<&'static str, Layer> {
        let selfs = self.self_times();
        let roots = self.root_of();
        let keep = |i: usize| root.is_none_or(|r| self.spans[roots[i]].name == r);
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if keep(i) {
                let l = out.entry(s.name).or_default();
                l.busy_ns += s.end_ns - s.start_ns;
                l.self_ns += selfs[i];
                l.count += 1;
            }
        }
        for (&(parent, name), t) in &self.tallies {
            if keep(parent) {
                let l = out.entry(name).or_default();
                l.busy_ns += t.busy_ns;
                l.self_ns += t.busy_ns;
                l.count += t.count;
            }
        }
        out
    }

    /// Every span and tally as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        for (&(parent, name), t) in &self.tallies {
            let _ = writeln!(
                out,
                "{{\"tally\": \"{name}\", \"parent\": {parent}, \"busy_ns\": {}, \"count\": {}}}",
                t.busy_ns, t.count
            );
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_micros(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_sum_to_no_more_than_their_root() {
        let mut t = Tracer::new();
        for op in 0..3 {
            t.set_op(op);
            t.span("root", |t| {
                spin(50);
                t.span("child", |t| {
                    spin(100);
                    for _ in 0..10 {
                        t.tally("leaf", || spin(5));
                    }
                    t.span("grandchild", |_| spin(80));
                });
                t.span("sibling", |_| spin(30));
            });
        }
        let budgets = t.root_budgets();
        assert_eq!(budgets.len(), 3);
        for (root, dur, sum) in budgets {
            assert!(
                sum <= dur,
                "root {root}: self times {sum} ns > root {dur} ns"
            );
            assert!(
                sum * 10 >= dur * 9,
                "self times cover the root: {sum} of {dur}"
            );
        }
        let layers = t.layers(Some("root"));
        assert_eq!(layers["leaf"].count, 30);
        assert_eq!(layers["child"].count, 3);
        assert!(layers["child"].self_ns < layers["child"].busy_ns);
        assert_eq!(layers["grandchild"].self_ns, layers["grandchild"].busy_ns);
    }

    #[test]
    fn union_clips_and_merges_overlaps() {
        let mut iv = vec![(5, 15), (0, 3), (10, 20), (30, 40)];
        assert_eq!(union_within(&mut iv, 2, 35), 1 + 15 + 5);
    }

    #[test]
    fn spans_serialise_one_per_line() {
        let mut t = Tracer::new();
        t.span("a", |t| {
            t.tally("b", || ());
        });
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\": \"a\"") && text.contains("\"tally\": \"b\""));
    }
}
