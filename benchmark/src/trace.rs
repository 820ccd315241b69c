//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is `(name, start, end, parent)`; all spans of a run share the
//! workload id. Nothing is written until the run ends. With tracing off,
//! [`Tracer::span`] is a plain call, so the untraced pass pays nothing and
//! the traced pass differs from it only by the span bookkeeping — that
//! difference is `trace.overhead_ratio`.

use serde::Value;
use std::cell::{Cell, RefCell};
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Switches recording on or off; the traced pass alternates so it can
    /// time the same call with and without a span.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name` (`layer.call`), child of the
    /// innermost open span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                parent: self.open.borrow().last().copied(),
                start_us: self.now_us(),
                end_us: f64::NAN,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_us = self.now_us();
        out
    }

    /// Records a span measured elsewhere (a client thread's request),
    /// given as instants, under the innermost open span.
    pub fn record(&self, name: &str, start: Instant, end: Instant) {
        if !self.enabled.get() {
            return;
        }
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.borrow_mut().push(Span {
            name: name.to_string(),
            parent: self.open.borrow().last().copied(),
            start_us: us(start),
            end_us: us(end),
        });
    }

    /// Self time per span: its duration minus the part its children cover.
    pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
        let mut own: Vec<f64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
        for s in spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_us - s.start_us;
            }
        }
        own
    }

    /// The trace document: every span with its self time, plus self time
    /// summed per layer (the part of a span name before the first dot).
    pub fn to_json(&self, workload: &str, stamp: Value) -> Value {
        let spans = self.spans.borrow();
        let own = Self::self_times_us(&spans);
        let mut layers: Vec<(String, f64, u64)> = Vec::new();
        for (s, &t) in spans.iter().zip(&own) {
            let layer = s.name.split('.').next().unwrap_or(&s.name);
            match layers.iter_mut().find(|(l, _, _)| l == layer) {
                Some(entry) => {
                    entry.1 += t;
                    entry.2 += 1;
                }
                None => layers.push((layer.to_string(), t, 1)),
            }
        }
        let span_values = spans
            .iter()
            .zip(&own)
            .enumerate()
            .map(|(id, (s, &t))| {
                Value::Object(vec![
                    ("id".into(), Value::UInt(id as u64)),
                    ("name".into(), Value::Str(s.name.clone())),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("start_us".into(), Value::Float(s.start_us)),
                    ("end_us".into(), Value::Float(s.end_us)),
                    ("self_us".into(), Value::Float(t)),
                ])
            })
            .collect();
        let layer_values = layers
            .into_iter()
            .map(|(layer, t, count)| {
                Value::Object(vec![
                    ("layer".into(), Value::Str(layer)),
                    ("self_us".into(), Value::Float(t)),
                    ("spans".into(), Value::UInt(count)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("stamp".into(), stamp),
            ("workload".into(), Value::Str(workload.to_string())),
            ("layers".into(), Value::Array(layer_values)),
            ("spans".into(), Value::Array(span_values)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("core.solve", || {
            t.span("graph.to_dense", || std::hint::black_box(1 + 1));
            t.span("blockmat.fw", || std::hint::black_box(2 + 2));
        });
        let spans = t.spans.borrow();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let own = Tracer::self_times_us(&spans);
        let children: f64 = spans[1..].iter().map(|s| s.end_us - s.start_us).sum();
        let whole = spans[0].end_us - spans[0].start_us;
        assert!((own[0] - (whole - children)).abs() < 1e-6);
        assert!(own.iter().all(|&t| t >= 0.0));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("core.solve", || 5), 5);
        t.record("serve.request", Instant::now(), Instant::now());
        assert!(t.spans.borrow().is_empty());
        t.set_enabled(true);
        t.span("core.solve", || ());
        assert_eq!(t.spans.borrow().len(), 1);
    }
}
