//! Spans the benchmark records around its calls into each layer's public
//! functions. Spans live in memory and are summarised when a rung ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<u32>,
    /// Request id shared by every span of one request (batch id for
    /// batch-level calls).
    pub req: u64,
}

/// A per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; returns its index.
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, req: u64) -> u32 {
        let t = self.now_ns();
        self.begin_at(name, parent, req, t)
    }

    /// Opens a span with an explicit start (a due time in open loop).
    pub fn begin_at(&mut self, name: &'static str, parent: Option<u32>, req: u64, t: u64) -> u32 {
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, idx: u32) {
        let t = self.now_ns();
        self.end_at(idx, t);
    }

    pub fn end_at(&mut self, idx: u32, t: u64) {
        self.spans[idx as usize].end_ns = t;
    }

    /// Records a closed span around `f`.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name, None, req);
        let r = f();
        self.end(s);
        r
    }

    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span name: each span's duration minus the part of
    /// its interval its children cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }
}

impl Tracer {
    /// One line per span name: spans, distinct requests, self time.
    pub fn summary(&self) -> String {
        let own = self.self_ns();
        let mut reqs: BTreeMap<&str, (usize, std::collections::BTreeSet<u64>)> = BTreeMap::new();
        for s in &self.spans {
            let e = reqs.entry(s.name).or_default();
            e.0 += 1;
            e.1.insert(s.req);
        }
        reqs.iter()
            .map(|(name, (count, ids))| {
                format!(
                    "{name}: {count} spans, {} requests, self {:.1} ms",
                    ids.len(),
                    own[name] as f64 / 1e6
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin_at("request", None, 7, 100);
        let a = t.begin_at("send", Some(root), 7, 110);
        t.end_at(a, 130);
        // Two overlapping children cover 150..190 once, not twice.
        let b = t.begin_at("wait", Some(root), 7, 150);
        t.end_at(b, 180);
        let c = t.begin_at("wait", Some(root), 7, 160);
        t.end_at(c, 190);
        t.end_at(root, 200);
        let own = t.self_ns();
        assert_eq!(own["request"], 100 - 20 - 40);
        assert_eq!(own["send"], 20);
        assert_eq!(own["wait"], 30 + 30);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.begin_at("x", None, 1, 0);
        let mut b = Tracer::new(epoch);
        let p = b.begin_at("request", None, 2, 0);
        let c = b.begin_at("send", Some(p), 2, 1);
        b.end_at(c, 2);
        b.end_at(p, 10);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.self_ns()["request"], 9);
    }
}
