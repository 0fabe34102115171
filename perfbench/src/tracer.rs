//! Tracing for the traced run: coarse spans and per-call session timers.
//!
//! Spans mark coarse boundaries (a setup repetition, a pass, a grid row,
//! a replay cell, a serve phase) with name, start, end and parent. They
//! live in memory and are written out once, when the run ends.
//!
//! Per-call boundaries are too hot for spans, so [`TimingSession`] wraps
//! a [`CacheSession`] and keeps an aggregated call count and busy time
//! per verb instead; a million-event replay still costs four counters.

use cce_core::{
    AccessOutcome, AccessResult, CacheError, CacheSession, CacheStats, EventSink, Granularity,
    InsertRequest, InsertSummary, SuperblockId,
};
use cce_util::Json;
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Span recorder for the benchmark's main thread. A disabled tracer
/// records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    counters: RefCell<Vec<(String, Json)>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            counters: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn span(&self, name: impl Into<String>) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                idx: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let mut stack = self.stack.borrow_mut();
        let idx = spans.len();
        spans.push(Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: stack.last().copied(),
        });
        stack.push(idx);
        SpanGuard {
            tracer: self,
            idx: Some(idx),
        }
    }

    /// Records an aggregated counter set (e.g. one cell's session calls).
    pub fn counters(&self, name: impl Into<String>, value: Json) {
        if self.enabled {
            self.counters.borrow_mut().push((name.into(), value));
        }
    }

    /// Everything recorded, as one JSON document.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .borrow()
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::from(id)),
                    ("name", Json::from(s.name.as_str())),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .borrow()
            .iter()
            .map(|(name, v)| {
                Json::obj(vec![
                    ("name", Json::from(name.as_str())),
                    ("value", v.clone()),
                ])
            })
            .collect();
        Json::obj(vec![
            ("spans", Json::Arr(spans)),
            ("counters", Json::Arr(counters)),
        ])
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[idx].end_ns = end;
            self.tracer.stack.borrow_mut().retain(|&i| i != idx);
        }
    }
}

/// Call count and busy time of one session verb.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CallStats {
    pub calls: u64,
    pub nanos: u64,
}

impl CallStats {
    fn add(&mut self, other: CallStats) {
        self.calls += other.calls;
        self.nanos += other.nanos;
    }

    /// Mean busy time per call, in ns (0 without calls).
    pub fn mean_ns(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.nanos as f64 / self.calls as f64
        }
    }

    pub fn to_json(self) -> Json {
        Json::obj(vec![
            ("calls", Json::from(self.calls)),
            ("nanos", Json::from(self.nanos)),
        ])
    }
}

/// Aggregated per-verb timers of a [`TimingSession`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionCounters {
    pub access_or_insert: CallStats,
    pub link: CallStats,
    /// `is_resident` and `contains_link`.
    pub probe: CallStats,
    pub census: CallStats,
}

impl SessionCounters {
    pub fn merge(&mut self, other: &SessionCounters) {
        self.access_or_insert.add(other.access_or_insert);
        self.link.add(other.link);
        self.probe.add(other.probe);
        self.census.add(other.census);
    }

    /// Busy time inside the wrapped session, in ns.
    pub fn total_nanos(&self) -> u64 {
        self.access_or_insert.nanos + self.link.nanos + self.probe.nanos + self.census.nanos
    }

    pub fn to_json(self) -> Json {
        Json::obj(vec![
            ("access_or_insert", self.access_or_insert.to_json()),
            ("link", self.link.to_json()),
            ("probe", self.probe.to_json()),
            ("census", self.census.to_json()),
        ])
    }
}

/// A [`CacheSession`] that times every call into the session it wraps.
/// The counters are merged into the shared `sink` when the session is
/// dropped, which the replay engine does when it finishes.
#[derive(Debug)]
pub struct TimingSession<S: CacheSession> {
    inner: S,
    access_or_insert: CallStats,
    link: CallStats,
    probe: Cell<CallStats>,
    census: Cell<CallStats>,
    sink: Arc<Mutex<SessionCounters>>,
}

impl<S: CacheSession> TimingSession<S> {
    pub fn new(inner: S, sink: Arc<Mutex<SessionCounters>>) -> TimingSession<S> {
        TimingSession {
            inner,
            access_or_insert: CallStats::default(),
            link: CallStats::default(),
            probe: Cell::new(CallStats::default()),
            census: Cell::new(CallStats::default()),
            sink,
        }
    }
}

fn since(t0: Instant) -> CallStats {
    CallStats {
        calls: 1,
        nanos: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
    }
}

fn bump(cell: &Cell<CallStats>, t0: Instant) {
    let mut s = cell.get();
    s.add(since(t0));
    cell.set(s);
}

impl<S: CacheSession> Drop for TimingSession<S> {
    fn drop(&mut self) {
        let mine = SessionCounters {
            access_or_insert: self.access_or_insert,
            link: self.link,
            probe: self.probe.get(),
            census: self.census.get(),
        };
        // A poisoned sink only means another replay panicked; the
        // counters are plain sums, so merging is still sound.
        let mut sink = self
            .sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        sink.merge(&mine);
    }
}

impl<S: CacheSession> CacheSession for TimingSession<S> {
    fn access(&mut self, id: SuperblockId) -> AccessResult {
        self.inner.access(id)
    }

    fn access_or_insert(
        &mut self,
        req: InsertRequest,
        sink: &mut dyn EventSink,
    ) -> Result<AccessOutcome, CacheError> {
        let t0 = Instant::now();
        let out = self.inner.access_or_insert(req, sink);
        self.access_or_insert.add(since(t0));
        out
    }

    fn link(&mut self, from: SuperblockId, to: SuperblockId) -> Result<bool, CacheError> {
        let t0 = Instant::now();
        let out = self.inner.link(from, to);
        self.link.add(since(t0));
        out
    }

    fn flush(&mut self, sink: &mut dyn EventSink) -> Option<InsertSummary> {
        self.inner.flush(sink)
    }

    fn is_resident(&self, id: SuperblockId) -> bool {
        let t0 = Instant::now();
        let out = self.inner.is_resident(id);
        bump(&self.probe, t0);
        out
    }

    fn contains_link(&self, from: SuperblockId, to: SuperblockId) -> bool {
        let t0 = Instant::now();
        let out = self.inner.contains_link(from, to);
        bump(&self.probe, t0);
        out
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn used(&self) -> u64 {
        self.inner.used()
    }

    fn resident_count(&self) -> usize {
        self.inner.resident_count()
    }

    fn granularity(&self) -> Granularity {
        self.inner.granularity()
    }

    fn stats_snapshot(&self) -> CacheStats {
        self.inner.stats_snapshot()
    }

    fn link_census(&self) -> (u64, u64) {
        let t0 = Instant::now();
        let out = self.inner.link_census();
        bump(&self.census, t0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_core::CodeCache;

    #[test]
    fn spans_nest_and_close() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
        }
        let doc = t.to_json().to_string_compact();
        assert!(doc.contains("\"name\":\"outer\""));
        assert!(doc.contains("\"parent\":0"));
        assert!(t.stack.borrow().is_empty());
        let off = Tracer::new(false);
        drop(off.span("ignored"));
        assert!(off.spans.borrow().is_empty());
    }

    #[test]
    fn timing_session_counts_calls_and_flushes_on_drop() {
        let sink = Arc::new(Mutex::new(SessionCounters::default()));
        {
            let cache = CodeCache::with_granularity(Granularity::units(4), 64 * 1024).unwrap();
            let mut s = TimingSession::new(cache, Arc::clone(&sink));
            s.access_or_insert_quiet(InsertRequest::new(SuperblockId(1), 100))
                .unwrap();
            s.access_or_insert_quiet(InsertRequest::new(SuperblockId(2), 100))
                .unwrap();
            assert!(s.is_resident(SuperblockId(1)));
            assert!(s.link(SuperblockId(1), SuperblockId(2)).unwrap());
            assert!(s.contains_link(SuperblockId(1), SuperblockId(2)));
            let _ = s.link_census();
        }
        let c = *sink.lock().unwrap();
        assert_eq!(c.access_or_insert.calls, 2);
        assert_eq!(c.link.calls, 1);
        assert_eq!(c.probe.calls, 2);
        assert_eq!(c.census.calls, 1);
    }
}
