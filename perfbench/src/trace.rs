//! In-memory span tracing for the traced pass (`--trace 1`).
//!
//! Spans come only from the benchmark's own code: the timing wrappers of
//! [`crate::timed`] and the call sites in the workloads. Each span is
//! aggregated per `(name, parent)` pair into a call count, a total time
//! and a self time (total minus the time its child spans cover), so the
//! self times of one pass add up to the pass's wall time. Counters ride
//! beside the spans for the layer metrics that are counts, not times.
//!
//! Tracing is per thread and off by default; [`span`] is then a plain
//! call. The untraced passes that produce the end-to-end metrics never
//! reach the wrappers at all.

#![allow(clippy::disallowed_methods)] // Timing harness: wall-clock is the product here.

use std::cell::RefCell;
use std::time::Instant;

/// A layer boundary the benchmark records. The discriminant indexes the
/// aggregation tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// One whole traced pass (the root; its self time is unattributed).
    Pass,
    /// `Runtime::new`.
    RuntimeNew,
    /// Behaviour construction (`RvBehavior`/`SglBehavior::new`).
    BehaviorNew,
    /// `Runtime::legal_choices_into`.
    LegalChoices,
    /// `Adversary::choose`.
    Choose,
    /// `Runtime::apply_into` (its self time excludes behaviour callbacks).
    Apply,
    /// `Behavior::next_port`.
    NextPort,
    /// `Behavior::on_meeting`.
    OnMeeting,
    /// `Behavior::info`.
    Info,
    /// `Behavior::progress`.
    BehaviorProgress,
    /// `Runtime::progress` (the stop policy's input record).
    StopProgress,
    /// `StopPolicy::check`.
    StopCheck,
    /// `search_worst_case`.
    MinimaxSearch,
    /// `Store::open`.
    StoreOpen,
    /// `Store::append`.
    StoreAppend,
    /// `Store::get`.
    StoreGet,
    /// `CellSpec::content_key`.
    ContentKey,
    /// Graph generation (set-up).
    GraphGenerate,
    /// Automorphism-group construction (set-up).
    GraphAutomorphisms,
}

/// Number of [`Span`] variants.
pub const SPANS: usize = 19;

/// Every span, in discriminant order.
pub const ALL_SPANS: [Span; SPANS] = [
    Span::Pass,
    Span::RuntimeNew,
    Span::BehaviorNew,
    Span::LegalChoices,
    Span::Choose,
    Span::Apply,
    Span::NextPort,
    Span::OnMeeting,
    Span::Info,
    Span::BehaviorProgress,
    Span::StopProgress,
    Span::StopCheck,
    Span::MinimaxSearch,
    Span::StoreOpen,
    Span::StoreAppend,
    Span::StoreGet,
    Span::ContentKey,
    Span::GraphGenerate,
    Span::GraphAutomorphisms,
];

impl Span {
    /// The layer name the span is reported under.
    pub fn name(self) -> &'static str {
        match self {
            Span::Pass => "pass",
            Span::RuntimeNew => "runtime.new",
            Span::BehaviorNew => "behavior.new",
            Span::LegalChoices => "runtime.legal_choices",
            Span::Choose => "adversary.choose",
            Span::Apply => "runtime.apply",
            Span::NextPort => "behavior.next_port",
            Span::OnMeeting => "behavior.on_meeting",
            Span::Info => "behavior.info",
            Span::BehaviorProgress => "behavior.progress",
            Span::StopProgress => "stop.progress",
            Span::StopCheck => "stop.check",
            Span::MinimaxSearch => "minimax.search",
            Span::StoreOpen => "store.open",
            Span::StoreAppend => "store.append",
            Span::StoreGet => "store.get",
            Span::ContentKey => "cells.content_key",
            Span::GraphGenerate => "graph.generate",
            Span::GraphAutomorphisms => "graph.automorphisms",
        }
    }
}

/// A count recorded beside the spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Legal choices enumerated (summed `choices.len()`).
    Choices,
    /// Peer infos delivered to `on_meeting`.
    Peers,
    /// Meetings declared.
    Meetings,
    /// Edge traversals completed.
    Traversals,
    /// Bytes the store wrote (each append rewrites the whole segment).
    StoreBytesWritten,
    /// `Store::get` calls that found a value.
    StoreHits,
    /// Size of the store segment at the end of the pass.
    StoreSegmentBytes,
    /// Schedules (leaves) the searches explored.
    MinimaxLeaves,
    /// Largest worker count a search ran with.
    MinimaxWorkers,
    /// Transposition-table probes.
    MemoProbes,
    /// Transposition-table hits.
    MemoHits,
    /// Transposition-table entries published.
    MemoEntries,
}

/// Number of [`Counter`] variants.
pub const COUNTERS: usize = 12;

/// One `(name, parent)` aggregate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus the time child spans covered, nanoseconds.
    pub self_ns: u64,
}

/// The aggregated spans and counters of one tracing session.
#[derive(Clone, Debug)]
pub struct Table {
    /// Indexed `[name][parent]`; parent `SPANS` means "no parent".
    pub aggs: Vec<[Agg; SPANS + 1]>,
    /// Indexed by [`Counter`] discriminant.
    pub counters: [u64; COUNTERS],
}

impl Default for Table {
    fn default() -> Self {
        Table {
            aggs: vec![[Agg::default(); SPANS + 1]; SPANS],
            counters: [0; COUNTERS],
        }
    }
}

impl Table {
    /// A span's aggregate summed over all of its parents.
    pub fn span(&self, s: Span) -> Agg {
        self.aggs[s as usize]
            .iter()
            .fold(Agg::default(), |acc, a| Agg {
                calls: acc.calls + a.calls,
                total_ns: acc.total_ns + a.total_ns,
                self_ns: acc.self_ns + a.self_ns,
            })
    }

    /// A counter's value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Adds `other` into `self`; [`Counter::MinimaxWorkers`] and
    /// [`Counter::StoreSegmentBytes`] are levels, so they keep the maximum.
    pub fn absorb(&mut self, other: &Table) {
        for (mine, theirs) in self.aggs.iter_mut().zip(&other.aggs) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                a.calls += b.calls;
                a.total_ns += b.total_ns;
                a.self_ns += b.self_ns;
            }
        }
        for (i, (a, b)) in self.counters.iter_mut().zip(other.counters).enumerate() {
            if i == Counter::MinimaxWorkers as usize || i == Counter::StoreSegmentBytes as usize {
                *a = (*a).max(b);
            } else {
                *a += b;
            }
        }
    }

    /// Every `(name, parent, aggregate)` with at least one call, as one
    /// JSON array — the span table the traced run writes out.
    pub fn to_json(&self) -> String {
        let mut parts = Vec::new();
        for s in ALL_SPANS {
            for (p, a) in self.aggs[s as usize].iter().enumerate() {
                if a.calls == 0 {
                    continue;
                }
                let parent = ALL_SPANS.get(p).map_or("", |ps| ps.name());
                parts.push(format!(
                    "{{\"name\":\"{}\",\"parent\":\"{parent}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
                    s.name(),
                    a.calls,
                    a.total_ns,
                    a.self_ns
                ));
            }
        }
        format!("[{}]", parts.join(","))
    }
}

struct Frame {
    span: Span,
    start: Instant,
    child_ns: u64,
}

struct Tracer {
    stack: Vec<Frame>,
    table: Table,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts a tracing session on this thread (discarding any open one).
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            stack: Vec::with_capacity(16),
            table: Table::default(),
        })
    });
}

/// Ends this thread's tracing session and returns its table (empty when
/// no session was open).
pub fn finish() -> Table {
    TRACER.with(|t| t.borrow_mut().take().map(|tr| tr.table).unwrap_or_default())
}

/// Runs `f` inside span `s` when a session is open; a plain call otherwise.
#[inline]
pub fn span<R>(s: Span, f: impl FnOnce() -> R) -> R {
    let open = TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(tr) => {
            tr.stack.push(Frame {
                span: s,
                start: Instant::now(),
                child_ns: 0,
            });
            true
        }
        None => false,
    });
    let out = f();
    if open {
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                close(tr);
            }
        });
    }
    out
}

fn close(tr: &mut Tracer) {
    let frame = tr.stack.pop().expect("a span closes only after it opened");
    let dur = frame.start.elapsed().as_nanos() as u64;
    let parent = tr.stack.last_mut().map(|p| {
        p.child_ns += dur;
        p.span as usize
    });
    let agg = &mut tr.table.aggs[frame.span as usize][parent.unwrap_or(SPANS)];
    agg.calls += 1;
    agg.total_ns += dur;
    agg.self_ns += dur.saturating_sub(frame.child_ns);
}

/// Adds `n` to counter `c` when a session is open.
#[inline]
pub fn add(c: Counter, n: u64) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.table.counters[c as usize] += n;
        }
    });
}

/// Raises level counter `c` to at least `n` when a session is open.
pub fn raise(c: Counter, n: u64) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            let v = &mut tr.table.counters[c as usize];
            *v = (*v).max(n);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_are_recorded() {
        start();
        span(Span::Pass, || {
            span(Span::Apply, || {
                span(Span::NextPort, || std::hint::black_box(1))
            });
            add(Counter::Choices, 3);
        });
        let t = finish();
        let pass = t.span(Span::Pass);
        let apply = t.span(Span::Apply);
        let next = t.span(Span::NextPort);
        assert_eq!((pass.calls, apply.calls, next.calls), (1, 1, 1));
        assert!(apply.total_ns >= next.total_ns);
        assert_eq!(apply.self_ns, apply.total_ns - next.total_ns);
        assert_eq!(
            t.aggs[Span::NextPort as usize][Span::Apply as usize].calls,
            1
        );
        assert_eq!(t.counter(Counter::Choices), 3);
        // Untraced: spans are plain calls and record nothing.
        assert_eq!(span(Span::Pass, || 7), 7);
        assert_eq!(finish().span(Span::Pass).calls, 0);
    }
}
