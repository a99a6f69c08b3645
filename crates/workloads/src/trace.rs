//! Performance-trace recording — the artifact the paper's nine-month data
//! collection produced ("we make all of the training data sets publicly
//! available").
//!
//! A [`TraceRecorder`] samples every service on a [`SimServer`] once per
//! tick and accumulates rows of the Table-3 counters plus latency; traces
//! export to CSV for offline analysis or external training pipelines.

use crate::{Service, SimServer};
use osml_platform::Substrate;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One recorded observation of one service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRow {
    /// Simulated time, seconds.
    pub time_s: f64,
    /// Service observed.
    pub service: Service,
    /// Offered load, RPS.
    pub offered_rps: f64,
    /// The 11 Table-3 Model-A features, in
    /// [`osml_platform::CounterSample::feature_names`] order.
    pub features: [f64; 11],
    /// p95 latency, ms.
    pub p95_ms: f64,
    /// QoS target, ms.
    pub qos_ms: f64,
}

/// Accumulates per-tick traces of every service on a simulated server.
///
/// # Example
///
/// ```
/// use osml_platform::{Allocation, Substrate, Topology};
/// use osml_workloads::trace::TraceRecorder;
/// use osml_workloads::{LaunchSpec, Service, SimServer};
///
/// let mut server = SimServer::deterministic();
/// let topo = Topology::xeon_e5_2697_v4();
/// server.launch(LaunchSpec::at_percent_load(Service::Login, 30.0),
///               Allocation::whole_machine(&topo))?;
/// let mut recorder = TraceRecorder::new();
/// for _ in 0..5 {
///     server.advance(1.0);
///     recorder.record(&server);
/// }
/// assert_eq!(recorder.rows().len(), 5);
/// assert!(recorder.to_csv().lines().count() == 6); // header + 5 rows
/// # Ok::<(), osml_platform::PlatformError>(())
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceRecorder {
    rows: Vec<TraceRow>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Samples every placed service once.
    pub fn record(&mut self, server: &SimServer) {
        for id in server.apps() {
            let (Some(sample), Some(lat), Some(spec)) =
                (server.sample(id), server.latency(id), server.spec_of(id))
            else {
                continue;
            };
            self.rows.push(TraceRow {
                time_s: server.now(),
                service: spec.service,
                offered_rps: spec.offered_rps,
                features: sample.model_a_features(),
                p95_ms: lat.p95_ms,
                qos_ms: lat.qos_target_ms,
            });
        }
    }

    /// All recorded rows, in record order.
    pub fn rows(&self) -> &[TraceRow] {
        &self.rows
    }

    /// Serializes the trace as CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "time_s,service,offered_rps");
        for name in osml_platform::CounterSample::feature_names() {
            let _ = write!(out, ",{}", name.to_lowercase().replace([' ', '.'], "_"));
        }
        let _ = writeln!(out, ",p95_ms,qos_ms");
        for r in &self.rows {
            let _ = write!(out, "{},{},{}", r.time_s, r.service, r.offered_rps);
            for f in r.features {
                let _ = write!(out, ",{f}");
            }
            let _ = writeln!(out, ",{},{}", r.p95_ms, r.qos_ms);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LaunchSpec;
    use osml_platform::{Allocation, Topology};

    fn recorded() -> TraceRecorder {
        let mut server = SimServer::deterministic();
        let topo = Topology::xeon_e5_2697_v4();
        server
            .launch(
                LaunchSpec::at_percent_load(Service::Moses, 40.0),
                Allocation::whole_machine(&topo),
            )
            .unwrap();
        let mut rec = TraceRecorder::new();
        for _ in 0..4 {
            server.advance(1.0);
            rec.record(&server);
        }
        rec
    }

    #[test]
    fn records_one_row_per_service_per_tick() {
        let rec = recorded();
        assert_eq!(rec.rows().len(), 4);
        assert!(rec.rows().iter().all(|r| r.service == Service::Moses));
        let r = &rec.rows()[0];
        assert!(r.p95_ms > 0.0);
        assert_eq!(r.features.len(), 11);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let rec = recorded();
        let csv = rec.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("time_s,service,offered_rps,ipc,"));
        assert_eq!(lines.count(), 4);
        // Every data line has the same number of commas as the header.
        let commas = header.matches(',').count();
        for line in csv.lines().skip(1) {
            assert_eq!(line.matches(',').count(), commas, "{line}");
        }
    }

    #[test]
    fn trace_serializes_as_json_too() {
        let rec = recorded();
        let json = serde_json::to_string(&rec).unwrap();
        let back: TraceRecorder = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rows().len(), rec.rows().len());
    }
}
