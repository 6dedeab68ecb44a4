//! Benchmark-side spans: one per call into a layer's public function.
//!
//! Spans live in memory and are written out when the run ends. A span's
//! self time is its duration minus the part its child spans cover; the
//! per-layer table is derived from self times so nested calls are never
//! counted twice. Spans *inside* the crates are a later change.

use serde::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Operation the span belongs to; 0 is set-up and standalone probes.
    pub op: u64,
    /// Work items the call covered (reports typed, plans refreshed, ...).
    pub units: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    next_op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            next_op: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Spans recorded from here on belong to a fresh operation id.
    pub fn begin_op(&mut self) {
        self.next_op += 1;
        self.op = self.next_op;
    }

    /// Spans recorded from here on belong to no operation (id 0).
    pub fn end_op(&mut self) {
        self.op = 0;
    }

    /// Run `f` inside a span named `name`. With tracing off this is a
    /// plain call, so the untraced run executes the same code path.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.span_n(name, 1, f)
    }

    /// [`Self::span`] covering `units` work items.
    pub fn span_n<R>(
        &mut self,
        name: &'static str,
        units: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            units,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in milliseconds, indexed like `spans()`.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// For each operation in which a span called `name` occurred, the sum
    /// of those spans' self times (ms), in operation order.
    pub fn per_op_self_ms(&self, name: &str) -> Vec<f64> {
        let own = self.self_ms();
        let mut out: Vec<(u64, f64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(own) {
            if s.name != name || s.op == 0 {
                continue;
            }
            match out.last_mut() {
                Some((op, sum)) if *op == s.op => *sum += own,
                _ => out.push((s.op, own)),
            }
        }
        out.into_iter().map(|(_, ms)| ms).collect()
    }

    /// Duration per work item (ms) of every span called `name`, set-up
    /// and standalone probes included.
    pub fn per_unit_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.units > 0)
            .map(|s| s.ms() / s.units as f64)
            .collect()
    }

    /// For each traced operation, the share of the time under its
    /// `op_span` spans that their descendants' self times account for
    /// (1.0 = the attribution closes exactly).
    pub fn attribution_shares(&self, op_span: &str) -> Vec<f64> {
        let own = self.self_ms();
        let mut per_op: Vec<(u64, f64, f64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(own) {
            if s.name != op_span || s.op == 0 {
                continue;
            }
            match per_op.last_mut() {
                Some((op, total, unexplained)) if *op == s.op => {
                    *total += s.ms();
                    *unexplained += own;
                }
                _ => per_op.push((s.op, s.ms(), own)),
            }
        }
        per_op
            .into_iter()
            .filter(|&(_, total, _)| total > 0.0)
            .map(|(_, total, unexplained)| 1.0 - unexplained / total)
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    Json::Object(vec![
                        ("name".into(), Json::Str(s.name.into())),
                        ("start_ns".into(), Json::UInt(s.start_ns)),
                        ("end_ns".into(), Json::UInt(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                        ("op".into(), Json::UInt(s.op)),
                        ("units".into(), Json::UInt(s.units)),
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
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        t.begin_op();
        t.span("op", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let own = t.self_ms();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(own[0] < t.spans()[0].ms());
        assert!((own[0] + own[1] - t.spans()[0].ms()).abs() < 1e-6);
        assert_eq!(t.per_op_self_ms("child").len(), 1);
        assert!(t.attribution_shares("op")[0] > 0.9);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
