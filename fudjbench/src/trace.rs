//! In-memory spans recorded by the benchmark around its calls into each
//! layer. The engine has no spans of its own yet (a later issue), so every
//! span here starts and ends in the benchmark's files.

use crate::json::Json;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one op share an id.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; spans close in LIFO order.
#[must_use]
pub struct Open {
    /// The recorded span, when tracing is on.
    index: Option<usize>,
    start_ns: u64,
}

/// Times every interval it is asked to and, when tracing is on, keeps each
/// as a span. The untraced runs use one with tracing off, so both kinds of
/// run go through the same workload code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a root span for a new op; its children inherit the op id.
    pub fn begin_op(&mut self, name: &'static str) -> Open {
        self.op_id += 1;
        self.begin(name)
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start_ns = self.now_ns();
        if !self.enabled {
            return Open {
                index: None,
                start_ns,
            };
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
        });
        self.stack.push(self.spans.len() - 1);
        Open {
            index: Some(self.spans.len() - 1),
            start_ns,
        }
    }

    /// Close `open` and return its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end_ns = self.now_ns();
        if let Some(index) = open.index {
            let top = self.stack.pop();
            assert_eq!(top, Some(index), "spans must close innermost first");
            self.spans[index].end_ns = end_ns;
        }
        (end_ns - open.start_ns) as f64 / 1e9
    }

    /// Run `f` inside a span and return its result.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }

    /// Every span's duration minus the part of it its direct children
    /// cover, by span index.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Smallest share of a span called `name` that its direct children
    /// cover (1.0 when there is none).
    pub fn min_child_coverage(&self, name: &str) -> f64 {
        let own = self.self_times_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name && s.duration_ns() > 0)
            .map(|(s, own)| 1.0 - own as f64 / s.duration_ns() as f64)
            .fold(1.0, f64::min)
    }

    pub fn to_json(&self) -> Json {
        let own = self.self_times_ns();
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(own[i] as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op_id", Json::Num(s.op_id as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tracer_that_is_off_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.begin_op("op");
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(t.end(op) >= 0.002);
        assert!(t.spans().is_empty());
    }

    /// Tracer with hand-set times, so the arithmetic is exact.
    fn fixed(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new(true);
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                op_id: 1,
            });
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = fixed(&[
            ("op", 0, 1000, None),
            ("sqlish.parse", 10, 110, Some(0)),
            ("exec.execute_physical", 150, 950, Some(0)),
            ("inner", 200, 300, Some(2)),
        ]);
        // Grandchildren are not subtracted twice.
        assert_eq!(t.self_times_ns(), [1000 - 100 - 800, 100, 800 - 100, 100]);
        assert!((t.min_child_coverage("op") - 0.9).abs() < 1e-12);
        assert_eq!(t.min_child_coverage("absent"), 1.0);
        assert_eq!(t.durations_s("inner"), vec![100e-9]);
    }

    #[test]
    fn nesting_sets_parents_and_op_ids() {
        let mut t = Tracer::new(true);
        let op = t.begin_op("op");
        let got = t.time("sqlish.parse", || 7);
        assert_eq!(got, 7);
        let inner = t.begin("planner.plan");
        t.end(inner);
        t.end(op);
        let op2 = t.begin_op("op");
        t.end(op2);
        let s = t.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!((s[0].op_id, s[1].op_id, s[3].op_id), (1, 1, 2));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        let parsed = Json::parse(&t.to_json().to_string()).unwrap();
        assert_eq!(parsed.as_arr().unwrap().len(), 4);
    }
}
