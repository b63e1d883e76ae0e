//! Spans of the traced (per-call) reps, recorded from the benchmark's
//! own side of each call into the system, kept in memory and written
//! out after the run.
//!
//! Nesting: `workload → setup → setup.*` and `workload → rep → query →
//! {process[gate|join|emit], flush, route, merge}`. Every `process` call
//! has its own clock readings in memory; a span per call would be
//! millions of lines, so each run of [`CHUNK`] consecutive calls is
//! written as one span per class, laid end to end from the chunk's first
//! reading: durations are exact sums of the calls of that class, offsets
//! inside a chunk are not positions in time.

use cep::obs::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Calls per coalesced `process[class]` group.
pub const CHUNK: usize = 1024;

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Spans {
    run: String,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(run: String) -> Spans {
        Spans {
            run,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its id for children to name.
    pub fn add(&mut self, name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Opens a span whose end is not known yet.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.at(Instant::now());
        self.add(name, parent, now, now)
    }

    pub fn start_of(&self, id: usize) -> u64 {
        self.spans[id].start_ns
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.at(Instant::now());
    }

    /// Self time (duration minus the part children cover) summed by span
    /// name, plus the total. A child reaching outside its parent or
    /// overlapping a sibling would make the parent's self time negative;
    /// it is clamped to 0, so such a defect shows as a total above the
    /// root's duration.
    pub fn self_times(&self) -> (Vec<(String, u64)>, u64) {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
        let mut total = 0;
        for (s, c) in self.spans.iter().zip(&covered) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*c);
            *by_name.entry(&s.name).or_default() += own;
            total += own;
        }
        (
            by_name
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            total,
        )
    }

    /// Duration of the spans called `name`, summed.
    pub fn total_of(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// One JSON object per line: `{run, id, name, parent, start_ns, end_ns}`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::Obj(vec![
                ("run".into(), Json::Str(self.run.clone())),
                ("id".into(), Json::UInt(id as u64)),
                ("name".into(), Json::Str(s.name.clone())),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("start_ns".into(), Json::UInt(s.start_ns)),
                ("end_ns".into(), Json::UInt(s.end_ns)),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::new("t".into());
        let root = s.add("rep", None, 0, 1_000);
        let q = s.add("query", Some(root), 100, 900);
        s.add("process[join]", Some(q), 100, 400);
        s.add("process[gate]", Some(q), 400, 450);
        s.add("flush", Some(q), 880, 900);
        let (by_name, total) = s.self_times();
        let get = |n: &str| by_name.iter().find(|(k, _)| k == n).unwrap().1;
        assert_eq!(get("rep"), 200);
        assert_eq!(get("query"), 800 - 300 - 50 - 20);
        assert_eq!(get("process[join]"), 300);
        assert_eq!(
            total, 1_000,
            "self times of a well-nested tree sum to the root"
        );
        assert_eq!(s.total_of("flush"), 20);
    }

    #[test]
    fn an_escaping_child_shows_as_excess() {
        let mut s = Spans::new("t".into());
        let root = s.add("rep", None, 0, 100);
        s.add("query", Some(root), 50, 250);
        let (_, total) = s.self_times();
        assert!(total > 100);
    }
}
