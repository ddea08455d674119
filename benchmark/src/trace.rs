//! Spans recorded from outside the program: the harness times its own
//! calls into each layer's public functions. Everything stays in memory
//! until the run ends.

use std::time::Instant;

use crate::json::Value;

pub type SpanId = usize;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Spans of one request share this identifier.
    pub request: usize,
    pub start_us: f64,
    pub end_us: f64,
    /// Work counted at the same boundary (relaxations, epochs, …).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: usize) -> SpanId {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_us,
            end_us: start_us,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_us = self.now_us();
    }

    /// Time `f` as a child of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(name, Some(parent), self.spans[parent].request);
        let out = f();
        self.close(id);
        (out, id)
    }

    pub fn count(&mut self, id: SpanId, key: &'static str, value: f64) {
        self.spans[id].counts.push((key, value));
    }

    /// A span's duration minus the part of its interval its children
    /// cover (overlapping children are not counted twice).
    pub fn self_time_us(&self, id: SpanId) -> f64 {
        let span = &self.spans[id];
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_us.max(span.start_us), s.end_us.min(span.end_us)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = span.start_us;
        for (a, b) in children {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        (span.end_us - span.start_us) - covered
    }

    /// Children lie inside their parents and share their request id.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (id, s) in self.spans.iter().enumerate() {
            if s.end_us < s.start_us {
                return Err(format!("span {id} ({}) ends before it starts", s.name));
            }
            let Some(p) = s.parent else { continue };
            let parent = self
                .spans
                .get(p)
                .ok_or(format!("span {id} names a missing parent {p}"))?;
            if s.start_us < parent.start_us || s.end_us > parent.end_us {
                return Err(format!(
                    "span {id} ({}) leaves its parent {p} ({})",
                    s.name, parent.name
                ));
            }
            if s.request != parent.request {
                return Err(format!(
                    "span {id} ({}) and its parent disagree on the request id",
                    s.name
                ));
            }
        }
        Ok(())
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ms)
            .collect()
    }

    /// Values of count `key` on every span called `name`.
    pub fn counts(&self, name: &str, key: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.counts.iter().find(|(k, _)| *k == key).map(|&(_, v)| v))
            .collect()
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::obj([
                        ("id", Value::from(id)),
                        ("parent", s.parent.map_or(Value::Null, Value::from)),
                        ("request", Value::from(s.request)),
                        ("name", Value::str(s.name)),
                        ("start_us", Value::Num(s.start_us)),
                        ("end_us", Value::Num(s.end_us)),
                        ("self_us", Value::Num(self.self_time_us(id))),
                        (
                            "counts",
                            Value::obj(s.counts.iter().map(|&(k, v)| (k, Value::Num(v)))),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_us: f64, end_us: f64) -> Span {
        Span {
            name,
            parent,
            request: 0,
            start_us,
            end_us,
            counts: Vec::new(),
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = tracer(vec![
            span("request", None, 0.0, 100.0),
            span("a", Some(0), 10.0, 30.0),
            // Overlaps `a` by 10 µs: counted once.
            span("b", Some(0), 20.0, 50.0),
            span("c", Some(0), 70.0, 90.0),
            // A grandchild is its parent's business, not the root's.
            span("a.inner", Some(1), 12.0, 18.0),
        ]);
        assert_eq!(t.self_time_us(0), 100.0 - 40.0 - 20.0);
        assert_eq!(t.self_time_us(1), 20.0 - 6.0);
        assert_eq!(t.self_time_us(3), 20.0);
        assert!(t.check_nesting().is_ok());
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let t = tracer(vec![
            span("p", None, 10.0, 20.0),
            span("late", Some(0), 15.0, 40.0),
        ]);
        assert_eq!(t.self_time_us(0), 5.0);
        assert!(t.check_nesting().unwrap_err().contains("leaves its parent"));
    }

    #[test]
    fn nesting_rejects_a_foreign_request_id() {
        let mut t = tracer(vec![
            span("p", None, 0.0, 10.0),
            span("c", Some(0), 1.0, 2.0),
        ]);
        t.spans[1].request = 7;
        assert!(t.check_nesting().unwrap_err().contains("request id"));
    }

    #[test]
    fn recorded_spans_nest_and_carry_counts() {
        let mut t = Tracer::new();
        let root = t.open("request", None, 3);
        let (v, child) = t.span("stage", root, || 41 + 1);
        t.count(child, "relaxations", 9.0);
        t.close(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans[child].request, 3);
        assert_eq!(t.counts("stage", "relaxations"), vec![9.0]);
        assert!(t.check_nesting().is_ok());
        assert_eq!(t.durations_ms("stage").len(), 1);
    }
}
