//! In-memory span recorder for the traced run.
//!
//! Host-time spans wrap the benchmark's own calls into the stack: each
//! setup call, each client call, each `step`/`run_until` and each check.
//! Self time (a span's duration minus the part its children cover) is
//! accumulated online per span name, so it stays exact even after the raw
//! span list hits its cap. Simulated-time op spans are derived from the
//! run's op records when the spans are written out.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::drive::OpRec;

/// Raw host spans kept for the output file; later spans are counted in
/// the aggregates only.
const RAW_SPAN_CAP: usize = 200_000;

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

const NO_SPAN: SpanId = SpanId(u32::MAX);

#[derive(Debug)]
struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    raw: Option<usize>,
}

#[derive(Debug, Clone, Copy)]
struct RawSpan {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Spans ended.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
}

/// Span recorder; a disabled tracer does nothing and costs a branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    stack: Vec<Open>,
    raw: Vec<RawSpan>,
    raw_dropped: u64,
    totals: BTreeMap<&'static str, SpanTotals>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            stack: Vec::new(),
            raw: Vec::new(),
            raw_dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Opens a span named `name` under the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let start = Instant::now();
        let raw = if self.raw.len() < RAW_SPAN_CAP {
            let parent = self
                .stack
                .iter()
                .rev()
                .find_map(|o| o.raw)
                .map_or(u32::MAX, |i| i as u32);
            self.raw.push(RawSpan {
                name,
                parent,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
            });
            Some(self.raw.len() - 1)
        } else {
            self.raw_dropped += 1;
            None
        };
        self.stack.push(Open {
            name,
            start,
            child_ns: 0,
            raw,
        });
        SpanId(self.stack.len() as u32 - 1)
    }

    /// Closes the span `id` (spans close innermost first).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let open = self.stack.pop().expect("span ended twice");
        debug_assert_eq!(id.0 as usize, self.stack.len(), "spans must nest");
        let end = Instant::now();
        let dur = (end - open.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.raw {
            self.raw[i].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
    }

    /// Totals of spans named `name` (zero if none ended).
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Summed duration of every span whose name starts with `prefix`.
    pub fn total_s(&self, prefix: &str) -> f64 {
        self.totals
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, t)| t.total_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Writes the host spans, the per-name totals and the simulated op
    /// spans (`op` with children `gen.wait` and `system`, sharing the op's
    /// id) as one JSON document.
    pub fn write_json(&self, path: &std::path::Path, ops: &[OpRec]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"host_spans_dropped\":{},", self.raw_dropped)?;
        writeln!(out, "\"host_totals\":{{")?;
        for (i, (name, t)) in self.totals.iter().enumerate() {
            let sep = if i + 1 < self.totals.len() { "," } else { "" };
            writeln!(
                out,
                "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}{sep}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        writeln!(out, "}},")?;
        writeln!(out, "\"host_spans\":[")?;
        for (i, s) in self.raw.iter().enumerate() {
            let sep = if i + 1 < self.raw.len() { "," } else { "" };
            let parent = if s.parent == u32::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "[{i},\"{}\",{parent},{},{}]{sep}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "],")?;
        writeln!(out, "\"op_spans\":[")?;
        let mut first = true;
        for (id, op) in ops.iter().enumerate() {
            let Some(done) = op.done else { continue };
            let sep = if first { "" } else { "," };
            first = false;
            writeln!(
                out,
                "{sep}[{id},\"op\",null,{},{done}],[{id},\"gen.wait\",\"op\",{},{}],[{id},\"system\",\"op\",{},{done}]",
                op.due, op.due, op.invoke, op.invoke
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
