//! The shared [`Telemetry`] handle and the [`Span`] timing guard.

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Handle to a telemetry pipeline, threaded through schedulers and
/// harnesses.
///
/// The default ([`Telemetry::disabled`]) carries nothing: every method is a
/// branch on a `None` — no allocation, no lock, no clock read — which is
/// what lets instrumented code ship in the hot path of the fig binaries
/// with byte-identical output. An enabled handle owns a metrics registry
/// behind an `Arc`, so clones (the grid runners clone trained templates)
/// observe into the same pipeline.
#[derive(Clone, Default)]
pub struct Telemetry {
    registry: Option<Arc<Mutex<MetricsRegistry>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.is_enabled()).finish()
    }
}

impl Telemetry {
    /// The no-op pipeline (the default everywhere).
    pub fn disabled() -> Self {
        Telemetry { registry: None }
    }

    /// An enabled pipeline over a fresh metrics registry.
    pub fn enabled() -> Self {
        Telemetry { registry: Some(Arc::new(Mutex::new(MetricsRegistry::new()))) }
    }

    /// Whether this handle records anything at all. Instrumented code may
    /// branch on this to skip computing gauge values.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Adds `delta` to a counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(registry) = &self.registry {
            registry.lock().expect("registry lock").counter_add(name, delta);
        }
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(registry) = &self.registry {
            registry.lock().expect("registry lock").gauge_set(name, value);
        }
    }

    /// Records one observation into a histogram (default µs-latency
    /// buckets).
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(registry) = &self.registry {
            registry.lock().expect("registry lock").observe(name, value);
        }
    }

    /// Starts a wall-clock span; dropping the guard records the elapsed
    /// microseconds into the histogram named `name`. Disabled handles
    /// return an inert guard without reading the clock.
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            telemetry: if self.is_enabled() { Some(self.clone()) } else { None },
            name,
            start: self.is_enabled().then(Instant::now),
        }
    }

    /// A snapshot of the metrics registry (empty for disabled handles).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.registry {
            Some(registry) => registry.lock().expect("registry lock").snapshot(),
            None => MetricsRegistry::new().snapshot(),
        }
    }
}

/// RAII timing guard from [`Telemetry::span`]: records wall-clock elapsed
/// microseconds into its histogram on drop. Inert (no clock read) when the
/// pipeline is disabled.
#[derive(Debug)]
#[must_use = "a span measures until dropped; binding it to _ drops immediately"]
pub struct Span {
    telemetry: Option<Telemetry>,
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let (Some(t), Some(start)) = (&self.telemetry, self.start) {
            t.observe(self.name, start.elapsed().as_secs_f64() * 1e6);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        t.counter_add("c", 1);
        t.gauge_set("g", 1.0);
        t.observe("h", 1.0);
        drop(t.span("s"));
        assert!(!t.is_enabled());
        let snap = t.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn clones_share_one_pipeline() {
        let t = Telemetry::enabled();
        let u = t.clone();
        u.counter_add("shared", 2);
        assert_eq!(t.snapshot().counters.get("shared"), Some(&2));
    }

    #[test]
    fn span_records_elapsed_micros() {
        let t = Telemetry::enabled();
        {
            let _guard = t.span("work");
            std::hint::black_box(0u64);
        }
        let snap = t.snapshot();
        let h = snap.histograms.get("work").expect("span histogram exists");
        assert_eq!(h.count, 1);
        assert!(h.max.unwrap() >= 0.0);
    }
}
