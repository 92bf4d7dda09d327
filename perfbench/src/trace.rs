//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each public call it makes in a span (name, run
//! id, parent, start, end). Spans derived from a call's own breakdown —
//! the service session split at the observer's first and last delivery,
//! or a campaign's profiler phases — are recorded as children of the
//! call's span. A span's self time is its duration minus the part its
//! children cover; self times partition the traced wall time, and what
//! no span covers is the harness's own unattributed remainder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: usize,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end.saturating_sub(self.start)).as_secs_f64()
    }
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Layer counters and sub-phase times that are not spans of their own.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn offset(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.origin)
    }

    pub fn wall(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Time `f` as a span; returns its result and the span's index.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = self.offset(Instant::now());
        let out = f();
        let end = self.offset(Instant::now());
        (out, self.push(name, id, parent, start, end))
    }

    pub fn push(
        &mut self,
        name: &'static str,
        id: usize,
        parent: Option<usize>,
        start: Duration,
        end: Duration,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// A child covering `nanos` of its parent, laid out from the
    /// parent's start (for phase totals that carry no timestamps).
    pub fn push_nanos(&mut self, name: &'static str, parent: usize, nanos: u64) -> usize {
        let p = &self.spans[parent];
        let (id, start) = (p.id, p.start);
        self.push(
            name,
            id,
            Some(parent),
            start,
            start + Duration::from_nanos(nanos),
        )
    }

    pub fn add(&mut self, counter: &'static str, value: f64) {
        *self.counters.entry(counter).or_insert(0.0) += value;
    }

    pub fn counter(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0.0)
    }

    /// Per span name: (spans, total seconds, self seconds).
    pub fn by_name(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_secs) {
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += s.secs();
            e.2 += (s.secs() - child).max(0.0);
        }
        out
    }

    pub fn total(&self, name: &str) -> f64 {
        self.by_name().get(name).map_or(0.0, |e| e.1)
    }

    pub fn self_secs(&self, name: &str) -> f64 {
        self.by_name().get(name).map_or(0.0, |e| e.2)
    }

    /// Traced wall time not covered by any top-level span.
    pub fn unattributed(&self, wall: f64) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum();
        (wall - covered).max(0.0)
    }

    /// The self-time table, one row per span name, with shares of `wall`.
    pub fn table(&self, wall: f64) -> String {
        let mut out = format!(
            "{:<20} {:>7} {:>11} {:>11} {:>7}\n",
            "span", "count", "total_s", "self_s", "self%"
        );
        for (name, (n, total, own)) in self.by_name() {
            let _ = writeln!(
                out,
                "{name:<20} {n:>7} {total:>11.6} {own:>11.6} {:>6.2}%",
                100.0 * own / wall
            );
        }
        let rest = self.unattributed(wall);
        let _ = writeln!(
            out,
            "{:<20} {:>7} {:>11} {rest:>11.6} {:>6.2}%",
            "(unattributed)",
            "",
            "",
            100.0 * rest / wall
        );
        out
    }

    /// Every span as tab-separated `name id parent start_s end_s` lines.
    pub fn dump(&self) -> String {
        let mut out = String::from("name\tid\tparent\tstart_s\tend_s\n");
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{parent}\t{:.9}\t{:.9}",
                s.name,
                s.id,
                s.start.as_secs_f64(),
                s.end.as_secs_f64()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Trace::new();
        let ms = Duration::from_millis;
        let root = t.push("root", 0, None, ms(0), ms(10));
        t.push("child", 0, Some(root), ms(1), ms(4));
        t.push_nanos("child", root, 2_000_000);
        let rows = t.by_name();
        assert!((rows["root"].2 - 0.005).abs() < 1e-12);
        assert_eq!(rows["child"].0, 2);
        assert!((rows["child"].1 - 0.005).abs() < 1e-12);
        assert!((t.unattributed(0.012) - 0.002).abs() < 1e-12);
    }
}
