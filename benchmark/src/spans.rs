//! The benchmark's own tracer. `SpanExecutor` wraps any `NandExecutor`
//! and, with the FTL driven directly, records one span per host request
//! and one child span per executor call. Spans stay in memory and are
//! written as chrome-trace JSON when the traced run ends.
//!
//! The layers above the FTL (`Emulator`, scheduler, observers) own their
//! executor and give no seam to interpose on from outside; there the
//! per-layer split is the ladder differential, not spans.

use evanesco_ftl::addr::GlobalPpa;
use evanesco_ftl::executor::{BlockProbe, NandExecutor, OpStatus, PageProbe};
use evanesco_ftl::OpCause;
use evanesco_nand::chip::PageData;
use evanesco_nand::geometry::BlockId;
use evanesco_nand::timing::Nanos;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval on the host clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for a request).
    pub parent: Option<u32>,
    /// Host request both belong to.
    pub request: u32,
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    /// The open request span: `(its index, request id)`.
    open: Option<(u32, u32)>,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Total nanoseconds of request spans, and of those the part covered
    /// by their child spans. Self time of the FTL is the difference.
    pub fn request_and_child_ns(&self) -> (u64, u64) {
        self.spans.iter().fold((0, 0), |(req, child), s| {
            let d = s.end_ns - s.start_ns;
            if s.parent.is_none() {
                (req + d, child)
            } else {
                (req, child + d)
            }
        })
    }

    /// Chrome trace-event JSON of the first `limit` spans: process 0 holds
    /// one thread of request spans and one of executor calls.
    pub fn to_chrome_json(&self, limit: usize) -> String {
        let spans = &self.spans[..limit.min(self.spans.len())];
        let mut out = String::with_capacity(64 + spans.len() * 112);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (tid, name) in [(0, "ftl (host requests)"), (1, "executor calls")] {
            let _ = writeln!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{name}\"}}}},"
            );
        }
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 < spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},\
                 \"args\":{{\"request\":{},\"parent\":{}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                u8::from(s.parent.is_some()),
                s.request,
                s.parent.map_or(-1, i64::from),
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// A `NandExecutor` that times every call into the executor beneath it.
#[derive(Debug)]
pub struct SpanExecutor<E> {
    pub inner: E,
    pub tracer: Tracer,
}

impl<E: NandExecutor> SpanExecutor<E> {
    pub fn new(inner: E) -> Self {
        SpanExecutor { inner, tracer: Tracer { t0: Instant::now(), spans: Vec::new(), open: None } }
    }

    /// Opens the span of host request `request` (`ftl.write|read|trim`).
    pub fn begin_request(&mut self, name: &'static str, request: u32) {
        let start_ns = self.tracer.now_ns();
        self.tracer.open = Some((self.tracer.spans.len() as u32, request));
        self.tracer.spans.push(Span { name, start_ns, end_ns: start_ns, parent: None, request });
    }

    pub fn end_request(&mut self) {
        let (idx, _) = self.tracer.open.take().expect("a request span is open");
        self.tracer.spans[idx as usize].end_ns = self.tracer.now_ns();
    }

    fn call<T>(&mut self, name: &'static str, f: impl FnOnce(&mut E) -> T) -> T {
        let start_ns = self.tracer.now_ns();
        let out = f(&mut self.inner);
        let end_ns = self.tracer.now_ns();
        // Executor calls outside a request (the closing lock flush) are
        // not part of any request's time and are not recorded.
        if let Some((parent, request)) = self.tracer.open {
            self.tracer.spans.push(Span { name, start_ns, end_ns, parent: Some(parent), request });
        }
        out
    }
}

impl<E: NandExecutor> NandExecutor for SpanExecutor<E> {
    fn read(&mut self, at: GlobalPpa) -> Option<PageData> {
        self.call("exec.read", |e| e.read(at))
    }
    fn program(&mut self, at: GlobalPpa, data: PageData) -> OpStatus {
        self.call("exec.program", |e| e.program(at, data))
    }
    fn erase(&mut self, chip: usize, block: BlockId) -> OpStatus {
        self.call("exec.erase", |e| e.erase(chip, block))
    }
    fn p_lock(&mut self, at: GlobalPpa) -> OpStatus {
        self.call("exec.p_lock", |e| e.p_lock(at))
    }
    fn b_lock(&mut self, chip: usize, block: BlockId) -> OpStatus {
        self.call("exec.b_lock", |e| e.b_lock(chip, block))
    }
    fn scrub(&mut self, at: GlobalPpa) {
        self.call("exec.scrub", |e| e.scrub(at))
    }
    // The rest carries no NAND work on the benchmark's fault-free devices:
    // forwarded untimed.
    fn mark_bad(&mut self, chip: usize, block: BlockId) {
        self.inner.mark_bad(chip, block)
    }
    fn probe_page(&mut self, at: GlobalPpa) -> PageProbe {
        self.inner.probe_page(at)
    }
    fn probe_block(&mut self, chip: usize, block: BlockId) -> BlockProbe {
        self.inner.probe_block(chip, block)
    }
    fn stall(&mut self, chip: usize, dur: Nanos) {
        self.inner.stall(chip, dur)
    }
    fn push_cause(&mut self, cause: OpCause) {
        self.inner.push_cause(cause)
    }
    fn pop_cause(&mut self) {
        self.inner.pop_cause()
    }
    fn now(&self) -> Nanos {
        self.inner.now()
    }
    fn begin_dispatch(&mut self, earliest: Nanos) {
        self.inner.begin_dispatch(earliest)
    }
    fn end_dispatch(&mut self) -> Nanos {
        self.inner.end_dispatch()
    }
}

/// The chrome-trace schema the export is validated against with
/// `ssd::trace::validate_chrome_trace` (the benchmark's own copy of the
/// product's `tests/data/trace_schema.json`, so it reads nothing outside
/// its directory at run time).
pub const CHROME_SCHEMA: &str = r#"{
  "root_required": {"displayTimeUnit": "string", "traceEvents": "array"},
  "event_required": {"name": "string", "ph": "string", "ts": "number", "pid": "number", "tid": "number"},
  "event_optional": {"dur": "number", "cat": "string", "args": "object"},
  "ph_allowed": ["X", "M"]
}"#;

#[cfg(test)]
mod tests {
    use super::*;
    use evanesco_ftl::executor::MemExecutor;
    use evanesco_nand::geometry::{Geometry, Ppa};

    #[test]
    fn spans_nest_under_their_request_and_export_validates() {
        let mut ex = SpanExecutor::new(MemExecutor::new(Geometry::small_tlc(), 1));
        let at = GlobalPpa::new(0, Ppa::new(0, 0));
        ex.program(at, PageData::tagged(1)); // outside any request: not recorded
        ex.begin_request("ftl.write", 7);
        ex.program(GlobalPpa::new(0, Ppa::new(0, 1)), PageData::tagged(2));
        ex.p_lock(at);
        ex.end_request();
        ex.begin_request("ftl.read", 8);
        assert_eq!(ex.read(at), None, "the wrapped executor still executes");
        ex.end_request();

        let names: Vec<_> = ex.tracer.spans.iter().map(|s| (s.name, s.parent, s.request)).collect();
        assert_eq!(
            names,
            vec![
                ("ftl.write", None, 7),
                ("exec.program", Some(0), 7),
                ("exec.p_lock", Some(0), 7),
                ("ftl.read", None, 8),
                ("exec.read", Some(3), 8),
            ]
        );
        for s in &ex.tracer.spans {
            assert!(s.start_ns <= s.end_ns);
            if let Some(p) = s.parent {
                let p = ex.tracer.spans[p as usize];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns, "child inside parent");
            }
        }
        let (req, child) = ex.tracer.request_and_child_ns();
        assert!(child <= req, "self time is never negative");
        let json = ex.tracer.to_chrome_json(usize::MAX);
        evanesco_ssd::validate_chrome_trace(&json, CHROME_SCHEMA).expect("export validates");
    }
}
