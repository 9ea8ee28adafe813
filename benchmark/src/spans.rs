//! Host-side spans recorded by the benchmark around every public call
//! it makes into the library (the traced pass only).
//!
//! A span is `{name, start, end, parent, op}` on the host clock;
//! spans of one operation (one construct, one round, one Somier cell)
//! share `op`. Spans nest strictly on the issuing thread, so a span's
//! *self time* is its duration minus its direct children's. Everything
//! stays in memory until the workload ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One closed (or still open) host span; times are nanoseconds since
/// the log was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

/// Handle returned by [`SpanLog::enter`]; pass it back to
/// [`SpanLog::exit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanToken(u32);

/// Totals of one span name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// In-memory span log. A disabled log records nothing and costs one
/// branch per call, so the untraced pass runs the same code.
pub struct SpanLog {
    t0: Instant,
    enabled: bool,
    spans: Vec<HostSpan>,
    open: Vec<u32>,
}

const DISABLED: SpanToken = SpanToken(u32::MAX);

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            t0: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Stop or resume recording (spans must not be open across a
    /// switch).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "span open across an enable switch");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanToken {
        if !self.enabled {
            return DISABLED;
        }
        let idx = u32::try_from(self.spans.len()).expect("span log overflow");
        let now = self.now_ns();
        self.spans.push(HostSpan {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        SpanToken(idx)
    }

    /// Close the innermost open span, which must be `token`.
    pub fn exit(&mut self, token: SpanToken) {
        if token == DISABLED {
            return;
        }
        let now = self.now_ns();
        let top = self.open.pop().expect("exit without an open span");
        assert_eq!(top, token.0, "host spans must close innermost-first");
        self.spans[top as usize].end_ns = now;
    }

    /// Close every open span now: an operation that returned an error
    /// mid-way leaves its spans open, and the log must stay usable.
    pub fn close_open(&mut self) {
        let now = self.now_ns();
        for idx in self.open.drain(..) {
            self.spans[idx as usize].end_ns = now;
        }
    }

    /// Record a closed span from given timestamps.
    #[cfg(test)]
    pub fn push_closed(&mut self, span: HostSpan) {
        self.spans.push(span);
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[HostSpan] {
        &self.spans
    }

    /// Per-span self time: duration minus direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let child = s.end_ns.saturating_sub(s.start_ns);
                own[p as usize] = own[p as usize].saturating_sub(child);
            }
        }
        own
    }

    /// Count, total and self time per span name, by name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let t = out.entry(s.name).or_insert(NameTotals {
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            t.count += 1;
            t.total_ns += s.end_ns.saturating_sub(s.start_ns);
            t.self_ns += own;
        }
        out
    }

    /// The log as a JSON document: the per-name summary first, then
    /// every span in recording order.
    pub fn to_json(&self, workload: &str) -> Json {
        let summary = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("count", Json::num(t.count as f64)),
                    ("total_ns", Json::num(t.total_ns as f64)),
                    ("self_ns", Json::num(t.self_ns as f64)),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start", Json::num(s.start_ns as f64)),
                    ("end", Json::num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::num(f64::from(p))),
                    ),
                    ("op", Json::num(s.op as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("clock", Json::str("host")),
            ("time_unit", Json::str("ns")),
            ("summary", Json::Arr(summary)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> HostSpan {
        HostSpan {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut log = SpanLog::new(true);
        log.push_closed(span("op", 0, 100, None)); // 0
        log.push_closed(span("launch", 10, 40, Some(0))); // 1
        log.push_closed(span("plan", 15, 25, Some(1))); // 2: grandchild of op
        log.push_closed(span("drain", 50, 90, Some(0))); // 3
        assert_eq!(log.self_ns(), vec![30, 20, 10, 40]);
        let t = log.totals();
        assert_eq!(t["op"].total_ns, 100);
        assert_eq!(t["op"].self_ns, 30);
        assert_eq!(t["launch"].self_ns, 20);
        // Self times partition the root's duration.
        let sum: u64 = log.self_ns().iter().sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn enter_exit_nest_and_record_parents() {
        let mut log = SpanLog::new(true);
        let a = log.enter("round", 7);
        let b = log.enter("launch", 7);
        log.exit(b);
        let c = log.enter("drain", 7);
        log.exit(c);
        log.exit(a);
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.op == 7 && x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[2].end_ns);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let t = log.enter("x", 0);
        log.exit(t);
        assert!(log.spans().is_empty());
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn out_of_order_exit_is_a_bug() {
        let mut log = SpanLog::new(true);
        let a = log.enter("a", 0);
        let _b = log.enter("b", 0);
        log.exit(a);
    }
}
