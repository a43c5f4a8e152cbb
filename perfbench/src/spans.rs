//! In-memory span recording for the traced pass.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a library layer. Each span has a name, start, end, parent and
//! the id of the operation (search or request) it belongs to. They stay
//! in memory until the run ends, when [`Recorder::attribute`] turns
//! them into per-layer self times.
//!
//! Sample draws are too many to record one span each (a single E6
//! probe makes ~10^4 `sample_many` calls), so the draw time inside a
//! trial is summed by [`TimedSampler`] and stored on the trial span as
//! `draw_ns`: the part of the trial its draw children cover.

use dut_core::probability::Sampler;
use rand::Rng;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layer a span name belongs to: the text before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    /// Time inside this span spent drawing samples (see module docs).
    pub draw_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An opened span; [`Recorder::close`] completes it.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: usize,
    start_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&self) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_ns: self.now_ns(),
        }
    }

    pub fn close(
        &self,
        open: Open,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        draw_ns: u64,
    ) {
        let end_ns = self.now_ns();
        self.push(Span {
            id: open.id,
            name,
            start_ns: open.start_ns,
            end_ns,
            parent,
            op,
            draw_ns,
        });
    }

    /// Records a span whose interval was measured elsewhere.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            op,
            draw_ns: 0,
        });
        id
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let open = self.open();
        let out = f(open.id);
        self.close(open, name, parent, op, 0);
        out
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span buffer lock is never held across a panic")
            .push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span buffer lock is never held across a panic"),
        );
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Per-layer totals from one set of spans.
#[derive(Debug, Default, Clone)]
pub struct LayerTime {
    /// Self time summed over spans and threads, seconds.
    pub busy_s: f64,
    /// Self time with parallel children scaled to the wall time they
    /// cover, seconds; these add up to the roots' total duration.
    pub wall_s: f64,
    /// Spans that contributed (for `probability`: trials that drew).
    pub spans: u64,
}

/// Length of the union of `[start, end)` intervals.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Splits every root span's duration into per-layer self time. A
/// span's self time is its duration minus the union of its children's
/// intervals (and minus its `draw_ns`, which goes to `probability`).
/// When children run in parallel their union is shared among them in
/// proportion to their durations, so the `wall_s` column reconciles
/// with the roots' total while `busy_s` keeps the summed thread time.
pub fn attribute(spans: &[Span]) -> (BTreeMap<String, LayerTime>, f64) {
    let index: BTreeMap<usize, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent.and_then(|p| index.get(&p)) {
            Some(&p) => children.entry(p).or_default().push(i),
            None => roots.push(i),
        }
    }
    let mut layers: BTreeMap<String, LayerTime> = BTreeMap::new();
    let mut stack: Vec<(usize, f64)> = roots.iter().map(|&r| (r, 1.0)).collect();
    while let Some((i, scale)) = stack.pop() {
        let span = &spans[i];
        let kids = children.get(&i).map_or(&[][..], Vec::as_slice);
        let covered = union_len(
            kids.iter()
                .map(|&c| (spans[c].start_ns, spans[c].end_ns))
                .collect(),
        );
        let draw = span.draw_ns.min(span.dur().saturating_sub(covered));
        let own = span.dur().saturating_sub(covered).saturating_sub(draw);
        let entry = layers.entry(layer_of(span.name).to_owned()).or_default();
        entry.busy_s += own as f64 * 1e-9;
        entry.wall_s += own as f64 * scale * 1e-9;
        entry.spans += 1;
        if draw > 0 {
            let p = layers.entry("probability".to_owned()).or_default();
            p.busy_s += draw as f64 * 1e-9;
            p.wall_s += draw as f64 * scale * 1e-9;
            p.spans += 1;
        }
        let kid_total: u64 = kids.iter().map(|&c| spans[c].dur()).sum();
        let kid_scale = if kid_total == 0 {
            0.0
        } else {
            scale * covered as f64 / kid_total as f64
        };
        stack.extend(kids.iter().map(|&c| (c, kid_scale)));
    }
    let roots_s = roots.iter().map(|&r| spans[r].dur() as f64 * 1e-9).sum();
    (layers, roots_s)
}

/// Draw time and count summed inside one trial.
#[derive(Debug, Default)]
pub struct DrawTally {
    pub ns: Cell<u64>,
    pub draws: Cell<u64>,
}

/// A sampler that delegates to `inner`. With a tally (the traced
/// pass) it adds the time spent in `sample_many` and `sample` to it;
/// without one it only delegates.
pub struct TimedSampler<'a, S> {
    pub inner: &'a S,
    pub tally: Option<&'a DrawTally>,
}

impl<S: Sampler> Sampler for TimedSampler<'_, S> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match self.tally {
            None => self.inner.sample(rng),
            Some(tally) => {
                let start = Instant::now();
                let x = self.inner.sample(rng);
                tally.add(start, 1);
                x
            }
        }
    }

    fn support_size(&self) -> usize {
        self.inner.support_size()
    }

    fn sample_many<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<usize> {
        match self.tally {
            None => self.inner.sample_many(count, rng),
            Some(tally) => {
                let start = Instant::now();
                let xs = self.inner.sample_many(count, rng);
                tally.add(start, count as u64);
                xs
            }
        }
    }
}

impl DrawTally {
    fn add(&self, start: Instant, count: u64) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ns.set(self.ns.get() + ns);
        self.draws.set(self.draws.get() + count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        draw_ns: u64,
    ) -> Span {
        Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            draw_ns,
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(vec![]), 0);
    }

    #[test]
    fn wall_attribution_reconciles_with_parallel_children() {
        // A 100 ns root with two overlapping 60 ns children (two threads),
        // each of which spends 30 ns drawing.
        let spans = vec![
            span(0, "stats.runner", 0, 100, None, 0),
            span(1, "simnet.trial", 10, 70, Some(0), 30),
            span(2, "simnet.trial", 30, 90, Some(0), 30),
        ];
        let (layers, roots) = attribute(&spans);
        let total: f64 = layers.values().map(|l| l.wall_s).sum();
        assert!((total - roots).abs() < 1e-15);
        assert!((layers["stats"].wall_s - 20e-9).abs() < 1e-15);
        assert!((layers["simnet"].busy_s - 60e-9).abs() < 1e-15);
        assert!((layers["probability"].wall_s - 40e-9).abs() < 1e-15);
    }
}
