//! In-memory spans for the traced run.
//!
//! A span is a named interval at a layer boundary with the span that
//! caused it as parent; spans of one join, batch or window share a
//! group id. Very frequent calls (a churn window issues hundreds of
//! thousands of settles) are coalesced into one span per (group, name,
//! parent) that keeps its first start, last end, summed busy time and
//! call count. A span's self time is its busy time minus its children's.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub group: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u32,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    coalesced: HashMap<(&'static str, u64, Option<u32>), u32>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Self {
        Tracer {
            t0,
            spans: Vec::new(),
            open: Vec::new(),
            coalesced: HashMap::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, group: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            group,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            calls: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: u32) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let end = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        s.busy_ns = end - s.start_ns;
    }

    /// Adds the interval `[start_ns, end_ns]` to the coalesced span
    /// `(name, group)` under the innermost open span.
    pub fn add(&mut self, name: &'static str, group: u64, start_ns: u64, end_ns: u64) {
        let parent = self.open.last().copied();
        let next = self.spans.len() as u32;
        let id = *self.coalesced.entry((name, group, parent)).or_insert(next);
        if id == next {
            self.spans.push(Span {
                name,
                group,
                parent,
                start_ns,
                end_ns,
                busy_ns: 0,
                calls: 0,
            });
        }
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.busy_ns += end_ns - start_ns;
        s.calls += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_busy = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_busy[p as usize] += s.busy_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_busy) {
            *out.entry(s.name).or_insert(0) += s.busy_ns.saturating_sub(kids);
        }
        out
    }
}

/// Writes every span as one tab-separated line:
/// `id name group parent start_ns end_ns busy_ns calls`.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "id\tname\tgroup\tparent\tstart_ns\tend_ns\tbusy_ns\tcalls"
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}\t{}",
            s.name, s.group, s.start_ns, s.end_ns, s.busy_ns, s.calls
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("root", 0);
        t.add("leaf", 0, 10, 30);
        t.add("leaf", 0, 40, 45);
        t.close(root);
        let leaf = t.spans().iter().find(|s| s.name == "leaf").unwrap();
        assert_eq!((leaf.busy_ns, leaf.calls, leaf.parent), (25, 2, Some(root)));
        let own = t.self_ns();
        assert_eq!(own["leaf"], 25);
        assert_eq!(own["root"], t.spans()[0].busy_ns.saturating_sub(25));
    }
}
