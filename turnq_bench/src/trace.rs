//! Spans around every queue call of a traced cell, and what they measure.
//!
//! A span is the start and end of one call (shared clock origin), the
//! operation, and the item id, which links an item's enqueue to its
//! dequeue. Each worker writes into its own preallocated buffer and
//! records only during the measured window; a full buffer stops recording
//! but not the clock reads, so a traced cell pays the same overhead
//! throughout.

use std::io::Write as _;

use crate::cell::WORKERS;
use crate::clock::now_ns;
use crate::stats::percentile;

/// Spans kept per worker and cell (2^20 per cell).
pub const SPAN_CAP: usize = 1 << 19;

/// The operation a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// An enqueue that inserted its item.
    Enq,
    /// An enqueue refused with `Full`.
    EnqFull,
    /// A dequeue that returned an item.
    Deq,
    /// A dequeue that returned `None`.
    DeqEmpty,
    /// The driver waiting: a paced due time or the stream backlog cap.
    Wait,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Enq => "enq",
            Op::EnqFull => "enq_full",
            Op::Deq => "deq",
            Op::DeqEmpty => "deq_empty",
            Op::Wait => "wait",
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start, `now_ns` time.
    pub start: u64,
    /// End, `now_ns` time.
    pub end: u64,
    /// The item enqueued or dequeued (0 when none).
    pub item: u64,
    /// What the call was.
    pub op: Op,
}

/// Where a worker's spans go.
pub trait Tracer {
    /// Called when the worker sees the measured window open.
    fn measuring(&mut self);
    /// Start of a call.
    fn begin(&self) -> u64;
    /// End of a call that began at `start`.
    fn end(&mut self, start: u64, op: Op, item: u64);
    /// The recorded spans.
    fn finish(self) -> Vec<Span>;
}

/// The untraced build of a worker: every hook is empty.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn measuring(&mut self) {}
    #[inline(always)]
    fn begin(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn end(&mut self, _: u64, _: Op, _: u64) {}
    fn finish(self) -> Vec<Span> {
        Vec::new()
    }
}

/// A worker's preallocated span buffer.
pub struct Spans {
    buf: Vec<Span>,
    recording: bool,
}

impl Spans {
    /// An empty buffer with room for [`SPAN_CAP`] spans.
    pub fn new() -> Spans {
        Spans {
            buf: Vec::with_capacity(SPAN_CAP),
            recording: false,
        }
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Tracer for Spans {
    #[inline]
    fn measuring(&mut self) {
        self.recording = true;
    }
    #[inline]
    fn begin(&self) -> u64 {
        now_ns()
    }
    #[inline]
    fn end(&mut self, start: u64, op: Op, item: u64) {
        let end = now_ns();
        if self.recording && self.buf.len() < SPAN_CAP {
            self.buf.push(Span {
                start,
                end,
                item,
                op,
            });
        }
    }
    fn finish(self) -> Vec<Span> {
        self.buf
    }
}

/// What the spans of one traced cell measure.
#[derive(Debug, Default, Clone)]
pub struct SpanStats {
    /// Enqueue call duration, median and 99th percentile (ns).
    pub enq_p50: u64,
    /// See `enq_p50`.
    pub enq_p99: u64,
    /// Dequeue call duration (empty ones included), median (ns).
    pub deq_p50: u64,
    /// See `deq_p50`.
    pub deq_p99: u64,
    /// Dequeues that returned an item, over all dequeue calls.
    pub deq_useful_ratio: f64,
    /// Enqueue start to dequeue end of items whose both spans were kept.
    pub sojourn_p99: u64,
    /// See `sojourn_p99`.
    pub sojourn_p999: u64,
    /// Items behind the sojourn percentiles.
    pub sojourn_samples: u64,
    /// Share of each worker's recorded interval spent outside queue calls
    /// and deliberate waits, averaged over workers.
    pub self_share: f64,
}

/// Derive [`SpanStats`] from per-worker spans (worker `p` is producer `p`).
pub fn span_stats(spans: &[Vec<Span>]) -> SpanStats {
    let durations = |op: Op| -> Vec<u64> {
        spans
            .iter()
            .flatten()
            .filter(|s| s.op == op)
            .map(|s| s.end - s.start)
            .collect()
    };
    let mut enq = durations(Op::Enq);
    let mut deq = durations(Op::Deq);
    let useful = deq.len() as u64;
    deq.extend(durations(Op::DeqEmpty));

    // A producer's successful enqueues carry consecutive sequence
    // numbers, so its kept enqueue spans index by `seq - first seq`.
    let enq_start: Vec<(u64, Vec<u64>)> = spans
        .iter()
        .map(|buf| {
            let mut it = buf.iter().filter(|s| s.op == Op::Enq);
            let base = it.clone().next().map_or(0, |s| s.item & ((1 << 48) - 1));
            (base, it.by_ref().map(|s| s.start).collect())
        })
        .collect();
    let mut sojourn: Vec<u64> = spans
        .iter()
        .flatten()
        .filter(|s| s.op == Op::Deq)
        .filter_map(|s| {
            let p = (s.item >> 48) as usize;
            let (base, starts) = enq_start.get(p)?;
            let idx = (s.item & ((1 << 48) - 1)).checked_sub(*base)?;
            starts.get(idx as usize).map(|&t| s.end.saturating_sub(t))
        })
        .collect();

    let self_share = spans
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| {
            let covered = (b[b.len() - 1].end - b[0].start).max(1);
            let busy: u64 = b.iter().map(|s| s.end - s.start).sum();
            1.0 - busy as f64 / covered as f64
        })
        .sum::<f64>()
        / WORKERS as f64;

    SpanStats {
        enq_p50: percentile(&mut enq, 0.5),
        enq_p99: percentile(&mut enq, 0.99),
        deq_p50: percentile(&mut deq, 0.5),
        deq_p99: percentile(&mut deq, 0.99),
        deq_useful_ratio: crate::stats::ratio(useful, deq.len() as u64),
        sojourn_samples: sojourn.len() as u64,
        sojourn_p99: percentile(&mut sojourn, 0.99),
        sojourn_p999: percentile(&mut sojourn, 0.999),
        self_share,
    }
}

/// Write one cell's spans as CSV (`worker,op,start_ns,end_ns,item`).
pub fn write_spans(path: &std::path::Path, spans: &[Vec<Span>]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "worker,op,start_ns,end_ns,item")?;
    for (worker, buf) in spans.iter().enumerate() {
        for s in buf {
            writeln!(
                w,
                "{worker},{},{},{},{}",
                s.op.name(),
                s.start,
                s.end,
                s.item
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, op: Op, item: u64) -> Span {
        Span {
            start,
            end,
            item,
            op,
        }
    }

    #[test]
    fn sojourn_links_enqueue_and_dequeue_by_item() {
        let producer = vec![
            span(0, 10, Op::Enq, 5),
            span(10, 20, Op::Wait, 0),
            span(20, 30, Op::Enq, 6),
        ];
        let consumer = vec![
            span(5, 40, Op::Deq, 5),
            span(40, 41, Op::DeqEmpty, 0),
            span(41, 50, Op::Deq, 6),
        ];
        let s = span_stats(&[producer, consumer]);
        assert_eq!(s.sojourn_samples, 2);
        assert_eq!(s.sojourn_p99, 40); // items 5 (40 ns) and 6 (30 ns)
        assert!((s.deq_useful_ratio - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.enq_p50, 10);
        // Producer: busy 30 of 30; consumer: busy 45 of 45.
        assert_eq!(s.self_share, 0.0);
    }
}
