//! In-memory spans around the benchmark's calls into the program.
//!
//! Every span is one public-API call (or the round that encloses them),
//! timed from outside; nothing inside the program is instrumented. A
//! span's layer is its name up to the first dot (`sos.tick` → `sos`).

use crate::stats;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call, `[start_ns, end_ns)` from the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    /// `layer.call`, e.g. `sos.tick`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread. When off, `enter`/`exit` do
/// nothing, so untraced rounds run the same code at no measurable cost.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: u64,
    root_parent: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: 1,
            root_parent: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer for work on another thread: same clock and on/off state,
    /// roots nested under this tracer's innermost open span, ids from
    /// `id_base` up (callers keep the ranges of forks disjoint).
    #[must_use]
    pub fn fork(&self, id_base: u64) -> Self {
        Tracer {
            on: self.on,
            origin: self.origin,
            next_id: id_base,
            root_parent: self.current(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Id of the innermost open span (the root parent when none is open).
    #[must_use]
    pub fn current(&self) -> u64 {
        self.open
            .last()
            .map_or(self.root_parent, |&i| self.spans[i].id)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` inside the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.current();
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span and returns its duration in ns
    /// (0 when off).
    ///
    /// # Panics
    ///
    /// Panics when no span is open: enter and exit are unbalanced.
    pub fn exit(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end_ns;
        self.spans[i].dur_ns()
    }

    /// Adds spans recorded by a fork.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "take with spans still open");
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span, in input order: its duration minus the part
/// of its interval that its children cover. Children that overlap (forks
/// running in parallel) are counted once where they overlap.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in kids {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Name of the round spans; their self time is the benchmark's own,
/// unattributed time.
pub const ROUND: &str = "bench.round";

/// Self time per span name, in seconds, with the round span's self time
/// reported as `bench.unattributed`.
#[must_use]
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        let name = if s.name == ROUND {
            "bench.unattributed"
        } else {
            s.name
        };
        *out.entry(name).or_insert(0.0) += ns as f64 / 1e9;
    }
    out
}

/// Calls, total and self time and duration percentiles of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStat {
    /// Span name.
    pub name: &'static str,
    /// Number of spans.
    pub calls: usize,
    /// Σ durations, seconds.
    pub total_s: f64,
    /// Σ self times, seconds.
    pub self_s: f64,
    /// Median duration, µs.
    pub p50_us: f64,
    /// Tail percentile and its duration in µs (see [`stats::tail`]).
    pub tail_us: Option<(f64, f64)>,
}

/// Per-name statistics over `spans`, sorted by self time, largest first.
#[must_use]
pub fn layer_table(spans: &[Span]) -> Vec<LayerStat> {
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, f64)> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.dur_ns() as f64 / 1e3);
        e.1 += ns as f64 / 1e9;
    }
    let mut rows: Vec<LayerStat> = by_name
        .into_iter()
        .map(|(name, (durs_us, self_s))| LayerStat {
            name,
            calls: durs_us.len(),
            total_s: durs_us.iter().sum::<f64>() / 1e6,
            self_s,
            p50_us: stats::median(&durs_us),
            tail_us: stats::tail(&durs_us),
        })
        .collect();
    rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
    rows
}

/// JSON Lines of one round's spans: id, parent, name, layer, round,
/// start and end in ns.
#[must_use]
pub fn to_jsonl(round: usize, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            r#"{{"id":{},"parent":{},"name":"{}","layer":"{}","round":{round},"start_ns":{},"end_ns":{}}}"#,
            s.id,
            s.parent,
            s.name,
            s.layer(),
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x.y",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 40, 90),
            span(4, 3, 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        // Self times of a properly nested tree add up to the root.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips() {
        let spans = [
            span(1, 0, 0, 100),
            // Two parallel forks overlapping on [20, 50).
            span(2, 1, 10, 50),
            span(3, 1, 20, 70),
            // A child that outlives its parent is clipped to it.
            span(4, 1, 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_forks_and_is_inert_when_off() {
        let mut t = Tracer::new(true);
        t.enter(ROUND);
        t.enter("sos.tick");
        t.exit();
        let mut fork = t.fork(1 << 20);
        fork.enter("sweep.episode");
        fork.exit();
        t.absorb(fork.take());
        t.exit();
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[0].id);
        assert_eq!(spans[2].id, 1 << 20);
        let table = layer_table(&spans);
        assert_eq!(table.iter().map(|r| r.calls).sum::<usize>(), 3);
        let by_name = self_by_name(&spans);
        assert!(by_name.contains_key("bench.unattributed"));
        assert_eq!(to_jsonl(0, &spans).lines().count(), 3);

        let mut off = Tracer::new(false);
        off.enter("sos.tick");
        assert_eq!(off.exit(), 0);
        assert!(off.take().is_empty());
    }
}
