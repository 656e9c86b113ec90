//! In-memory spans around the calls the benchmark makes into each layer
//! (choosing-metrics §4): name, start, end, parent. Kept in memory for the
//! whole traced run and written once, at exit, as Chrome trace-event JSON.

use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

/// One row of [`Spans::summary`]: calls, total and self time of a span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// Span name (`layer.call`).
    pub name: &'static str,
    /// Number of spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Total minus the part covered by child spans, ns.
    pub self_ns: u64,
}

/// The span recorder. Spans nest: a span opened while another is open
/// records it as its parent.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its handle.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`; its duration, ns.
    pub fn close(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        now - s.start_ns
    }

    /// Runs `f` inside a span; the result and the span's duration, ns.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.open(name);
        let r = f();
        (r, self.close(id))
    }

    /// Durations of every span called `name`, ns, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Per-name call count, total and self time, in first-seen order.
    pub fn summary(&self) -> Vec<SpanRow> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<SpanRow> = Vec::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let row = match rows.iter_mut().find(|r| r.name == s.name) {
                Some(r) => r,
                None => {
                    rows.push(SpanRow {
                        name: s.name,
                        count: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.count += 1;
            row.total_ns += dur;
            row.self_ns += dur.saturating_sub(children);
        }
        rows
    }

    /// Renders every span as Chrome trace-event JSON (`ph: "X"` complete
    /// events, microsecond timestamps; `args` carries the span's own id and
    /// its parent's, `cat` the workload) — loadable in Perfetto or
    /// `chrome://tracing`.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 120);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                workload,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut s = Spans::default();
        let outer = s.open("bench.rep");
        let ((), inner) = s.time("fabric.step", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = s.close(outer);
        assert!(inner >= 2_000_000 && total >= inner);
        let rows = s.summary();
        assert_eq!(rows[0].name, "bench.rep");
        assert_eq!(rows[0].self_ns, total - inner);
        assert_eq!(rows[1].count, 1);
        assert_eq!(s.durations("fabric.step"), vec![inner]);
        let json = s.chrome_trace("w");
        let parsed = an2_chaos::JVal::parse(&json).expect("valid JSON");
        let events = parsed.get("traceEvents").expect("traceEvents");
        assert!(matches!(events, an2_chaos::JVal::Arr(v) if v.len() == 2));
        assert!(json.contains("\"parent\":0"));
    }
}
