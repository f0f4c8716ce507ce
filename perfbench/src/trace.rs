//! In-memory spans for the traced run.
//!
//! Every span records a name (its layer), the tick it belongs to, its
//! parent, a start and an end, all taken in the benchmark's own files
//! around calls into the program's public API. A layer's self time is
//! the duration of its spans minus the part their children cover.
//! Durations the program reports itself (`StreamTick::solve_ns`) and
//! costs timed on a replica of the run's own data become *laid*
//! children: placed back to back from the parent's start and clipped to
//! its end, so the tree still nests and the self times of all spans
//! under a root add up to the root's wall time exactly.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub tick: Option<usize>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    /// Laid time that did not fit inside its parent.
    clipped_ns: u64,
}

impl Trace {
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
            clipped_ns: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a measured span; returns its id.
    pub fn span(
        &mut self,
        name: &str,
        tick: Option<usize>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(name, tick, parent, start_ns, end_ns.max(start_ns))
    }

    fn push(
        &mut self,
        name: &str,
        tick: Option<usize>,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            tick,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Lay a child of `dur_ns` at `*cursor` inside `parent`, clipped to
    /// the parent's end, and advance the cursor past it.
    pub fn lay(
        &mut self,
        name: &str,
        tick: Option<usize>,
        parent: usize,
        cursor: &mut u64,
        dur_ns: u64,
    ) -> usize {
        let p = &self.spans[parent];
        let start = (*cursor).clamp(p.start_ns, p.end_ns);
        let end = start.saturating_add(dur_ns).min(p.end_ns);
        self.clipped_ns += dur_ns - (end - start);
        *cursor = end;
        self.push(name, tick, Some(parent), start, end)
    }

    /// Start of a span, as a cursor for [`Self::lay`].
    pub fn start_of(&self, id: usize) -> u64 {
        self.spans[id].start_ns
    }

    pub fn clipped_ns(&self) -> u64 {
        self.clipped_ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals clipped to it.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Self time per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name.clone()).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","tick":{},"parent":{},"start_ns":{},"end_ns":{}}}"#,
                s.name,
                opt(s.tick),
                opt(s.parent),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_reconcile_with_the_root() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Trace::new(t0);
        let root = tr.span("day", None, None, at(0), at(100));
        let tick = tr.span("engine", Some(0), Some(root), at(10), at(60));
        let mut cursor = tr.start_of(tick);
        tr.lay("solve.a", Some(0), tick, &mut cursor, 20_000_000);
        tr.lay("solve.b", Some(0), tick, &mut cursor, 15_000_000);
        tr.span("live", Some(0), Some(root), at(60), at(62));
        let by = tr.self_ms_by_name();
        assert_eq!(by["engine"], 15.0);
        assert_eq!(by["solve.a"], 20.0);
        assert_eq!(by["solve.b"], 15.0);
        assert_eq!(by["live"], 2.0);
        assert_eq!(by["day"], 48.0);
        let total: f64 = by.values().sum();
        assert_eq!(total, 100.0);
    }

    #[test]
    fn laid_children_are_clipped_to_the_parent() {
        let t0 = Instant::now();
        let mut tr = Trace::new(t0);
        let p = tr.span(
            "transport",
            Some(3),
            None,
            t0,
            t0 + Duration::from_millis(10),
        );
        let mut cursor = tr.start_of(p);
        tr.lay("solve.x", Some(3), p, &mut cursor, 8_000_000);
        let clipped = tr.lay("wire", Some(3), p, &mut cursor, 8_000_000);
        assert_eq!(
            tr.spans()[clipped].end_ns - tr.spans()[clipped].start_ns,
            2_000_000
        );
        assert_eq!(tr.clipped_ns(), 6_000_000);
        let own = tr.self_ns();
        assert_eq!(own[p], 0);
        assert_eq!(own.iter().sum::<u64>(), 10_000_000);
    }

    #[test]
    fn overlapping_children_are_not_double_subtracted() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Trace::new(t0);
        let p = tr.span("p", None, None, at(0), at(10));
        tr.span("c", None, Some(p), at(2), at(6));
        tr.span("c", None, Some(p), at(4), at(8));
        assert_eq!(tr.self_ns()[p], 4_000_000);
    }
}
