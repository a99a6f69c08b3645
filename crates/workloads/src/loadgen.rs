//! Deterministic load schedules for the dynamic experiments.
//!
//! The paper's Fig. 4 and Fig. 14 drive co-located services with loads that
//! arrive, step and ramp over time. [`LoadSchedule`] expresses one service's
//! offered load as a function of time; [`ArrivalScript`] sequences service
//! arrivals/departures for a whole experiment.

use crate::Service;
use serde::{Deserialize, Serialize};

/// One service's offered load over time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LoadSchedule {
    /// Constant load.
    Constant {
        /// Offered load, RPS.
        rps: f64,
    },
    /// Piecewise-constant steps: `(start_time_s, rps)`, sorted by time.
    /// Before the first step the load is 0.
    Steps {
        /// Step points: from `at_s` onward the load is `rps`.
        steps: Vec<(f64, f64)>,
    },
    /// Linear ramp from `from_rps` at `start_s` to `to_rps` at `end_s`,
    /// constant outside the ramp window.
    Ramp {
        /// Ramp start time, s.
        start_s: f64,
        /// Ramp end time, s.
        end_s: f64,
        /// Load before and at `start_s`, RPS.
        from_rps: f64,
        /// Load at and after `end_s`, RPS.
        to_rps: f64,
    },
    /// A diurnal-style sinusoid: `base + amplitude * sin(2π t / period)`,
    /// clamped at 0.
    Diurnal {
        /// Mean load, RPS.
        base_rps: f64,
        /// Swing amplitude, RPS.
        amplitude_rps: f64,
        /// Period, s.
        period_s: f64,
    },
}

impl LoadSchedule {
    /// Offered load at time `t` seconds.
    pub fn rps_at(&self, t: f64) -> f64 {
        match self {
            LoadSchedule::Constant { rps } => *rps,
            LoadSchedule::Steps { steps } => steps
                .iter()
                .take_while(|(at, _)| *at <= t)
                .last()
                .map(|&(_, rps)| rps)
                .unwrap_or(0.0),
            LoadSchedule::Ramp { start_s, end_s, from_rps, to_rps } => {
                if t <= *start_s {
                    *from_rps
                } else if t >= *end_s {
                    *to_rps
                } else {
                    let f = (t - start_s) / (end_s - start_s);
                    from_rps + f * (to_rps - from_rps)
                }
            }
            LoadSchedule::Diurnal { base_rps, amplitude_rps, period_s } => (base_rps
                + amplitude_rps * (2.0 * std::f64::consts::PI * t / period_s).sin())
            .max(0.0),
        }
    }
}

/// One service's lifecycle inside an experiment: when it arrives, how its
/// load evolves, how many threads it runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalEvent {
    /// The service that arrives.
    pub service: Service,
    /// Arrival time, s.
    pub arrive_s: f64,
    /// Departure time, s (`f64::INFINITY` to stay forever).
    pub depart_s: f64,
    /// Worker threads.
    pub threads: usize,
    /// Load over time, with `t = 0` at *experiment* start (not arrival).
    pub load: LoadSchedule,
}

/// A whole experiment's arrival script.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalScript {
    /// Events, sorted by arrival time.
    pub events: Vec<ArrivalEvent>,
    /// Experiment duration, s.
    pub duration_s: f64,
}

impl ArrivalScript {
    /// Creates a script, sorting events by arrival time.
    ///
    /// Inconsistent events are repaired rather than trusted: an event whose
    /// departure precedes its arrival is clamped to a zero-length lifetime
    /// (`depart_s = arrive_s`, so it never becomes active), and events
    /// arriving after `duration_s` are dropped — harnesses index
    /// `script.events` positionally, and a never-reachable event would
    /// silently skew per-event accounting.
    pub fn new(mut events: Vec<ArrivalEvent>, duration_s: f64) -> Self {
        events.retain(|e| e.arrive_s <= duration_s);
        for e in &mut events {
            if e.depart_s < e.arrive_s {
                e.depart_s = e.arrive_s;
            }
        }
        events.sort_by(|a, b| a.arrive_s.total_cmp(&b.arrive_s));
        ArrivalScript { events, duration_s }
    }

    /// The Fig. 14 dynamic-load scenario: Moses arrives first; Img-dnn and
    /// Xapian follow; MongoDB arrives at t = 80 s; Login at t = 160 s; the
    /// unseen Txt-index at t = 190 s; Xapian's load steps up at t = 224 s.
    ///
    /// Loads are scaled so the peak aggregate (~115 % of one service's max)
    /// sits just inside the simulated testbed's co-location frontier, as the
    /// paper's loads did on theirs — the point of the scenario is the
    /// scheduling dynamics, not permanent overload.
    pub fn fig14() -> Self {
        let pct = |s: Service, p: f64| -> f64 { s.params().nominal_max_rps() * p / 100.0 };
        ArrivalScript::new(
            vec![
                ArrivalEvent {
                    service: Service::Moses,
                    arrive_s: 0.0,
                    depart_s: f64::INFINITY,
                    threads: Service::Moses.params().default_threads,
                    load: LoadSchedule::Constant { rps: pct(Service::Moses, 30.0) },
                },
                ArrivalEvent {
                    service: Service::ImgDnn,
                    arrive_s: 10.0,
                    depart_s: f64::INFINITY,
                    threads: Service::ImgDnn.params().default_threads,
                    load: LoadSchedule::Constant { rps: pct(Service::ImgDnn, 20.0) },
                },
                ArrivalEvent {
                    service: Service::Xapian,
                    arrive_s: 10.0,
                    depart_s: f64::INFINITY,
                    threads: Service::Xapian.params().default_threads,
                    load: LoadSchedule::Steps {
                        steps: vec![
                            (10.0, pct(Service::Xapian, 15.0)),
                            (224.0, pct(Service::Xapian, 25.0)),
                        ],
                    },
                },
                ArrivalEvent {
                    service: Service::MongoDb,
                    arrive_s: 80.0,
                    depart_s: f64::INFINITY,
                    threads: Service::MongoDb.params().default_threads,
                    load: LoadSchedule::Constant { rps: pct(Service::MongoDb, 10.0) },
                },
                ArrivalEvent {
                    service: Service::Login,
                    arrive_s: 160.0,
                    depart_s: f64::INFINITY,
                    threads: Service::Login.params().default_threads,
                    load: LoadSchedule::Constant { rps: pct(Service::Login, 10.0) },
                },
                ArrivalEvent {
                    service: Service::TxtIndex,
                    arrive_s: 190.0,
                    depart_s: f64::INFINITY,
                    threads: Service::TxtIndex.params().default_threads,
                    load: LoadSchedule::Constant { rps: pct(Service::TxtIndex, 10.0) },
                },
            ],
            300.0,
        )
    }

    /// The Fig. 4 heuristic-scheduling scenario: Img-dnn, Xapian and Moses
    /// co-arrive at moderate loads and must be untangled by the scheduler.
    pub fn fig4() -> Self {
        let pct = |s: Service, p: f64| -> f64 { s.params().nominal_max_rps() * p / 100.0 };
        let ev = |service: Service, p: f64| ArrivalEvent {
            service,
            arrive_s: 0.0,
            depart_s: f64::INFINITY,
            threads: service.params().default_threads,
            load: LoadSchedule::Constant { rps: pct(service, p) },
        };
        ArrivalScript::new(
            vec![ev(Service::ImgDnn, 40.0), ev(Service::Xapian, 40.0), ev(Service::Moses, 40.0)],
            120.0,
        )
    }

    /// Events active at time `t`.
    ///
    /// The constructor keeps `events` sorted by `arrive_s`, so a binary
    /// search bounds the candidates (everything past the partition point
    /// has not arrived yet) instead of scanning the whole script — the
    /// harnesses call this once per simulated second.
    pub fn active_at(&self, t: f64) -> impl Iterator<Item = &ArrivalEvent> {
        let arrived = self.events.partition_point(|e| e.arrive_s <= t);
        self.events[..arrived].iter().filter(move |e| t < e.depart_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let l = LoadSchedule::Constant { rps: 42.0 };
        assert_eq!(l.rps_at(0.0), 42.0);
        assert_eq!(l.rps_at(1e6), 42.0);
    }

    #[test]
    fn steps_switch_at_boundaries() {
        let l = LoadSchedule::Steps { steps: vec![(10.0, 100.0), (20.0, 300.0)] };
        assert_eq!(l.rps_at(0.0), 0.0);
        assert_eq!(l.rps_at(10.0), 100.0);
        assert_eq!(l.rps_at(19.9), 100.0);
        assert_eq!(l.rps_at(20.0), 300.0);
        assert_eq!(l.rps_at(1e9), 300.0);
    }

    #[test]
    fn ramp_interpolates_linearly() {
        let l = LoadSchedule::Ramp { start_s: 0.0, end_s: 10.0, from_rps: 0.0, to_rps: 100.0 };
        assert_eq!(l.rps_at(-5.0), 0.0);
        assert!((l.rps_at(5.0) - 50.0).abs() < 1e-9);
        assert_eq!(l.rps_at(15.0), 100.0);
    }

    #[test]
    fn diurnal_never_goes_negative() {
        let l = LoadSchedule::Diurnal { base_rps: 10.0, amplitude_rps: 50.0, period_s: 100.0 };
        for i in 0..200 {
            assert!(l.rps_at(i as f64) >= 0.0);
        }
    }

    #[test]
    fn fig14_script_matches_the_paper_timeline() {
        let s = ArrivalScript::fig14();
        assert_eq!(s.active_at(0.0).count(), 1, "only Moses at t=0");
        assert_eq!(s.active_at(15.0).count(), 3, "Img-dnn and Xapian joined");
        assert_eq!(s.active_at(100.0).count(), 4, "MongoDB joined at t=80");
        assert_eq!(s.active_at(200.0).count(), 6, "Login and Txt-index joined");
        // Xapian's load steps at t=224.
        let xapian = s.events.iter().find(|e| e.service == Service::Xapian).unwrap();
        assert!(xapian.load.rps_at(230.0) > xapian.load.rps_at(200.0));
    }

    #[test]
    fn script_sorts_events() {
        let e = |at: f64| ArrivalEvent {
            service: Service::Login,
            arrive_s: at,
            depart_s: f64::INFINITY,
            threads: 1,
            load: LoadSchedule::Constant { rps: 1.0 },
        };
        let s = ArrivalScript::new(vec![e(5.0), e(1.0), e(3.0)], 10.0);
        let times: Vec<f64> = s.events.iter().map(|e| e.arrive_s).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn inconsistent_events_are_clamped_or_rejected() {
        let e = |arrive: f64, depart: f64| ArrivalEvent {
            service: Service::Login,
            arrive_s: arrive,
            depart_s: depart,
            threads: 1,
            load: LoadSchedule::Constant { rps: 1.0 },
        };
        // depart < arrive: clamped to a zero-length lifetime, never active.
        let s = ArrivalScript::new(vec![e(5.0, 2.0)], 10.0);
        assert_eq!(s.events[0].depart_s, 5.0);
        assert_eq!(s.active_at(5.0).count(), 0);
        assert_eq!(s.active_at(3.0).count(), 0);
        // arrival beyond the experiment horizon: dropped.
        let s = ArrivalScript::new(vec![e(0.0, 4.0), e(11.0, 20.0)], 10.0);
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.events[0].arrive_s, 0.0);
    }

    #[test]
    fn active_at_matches_a_linear_scan() {
        // Pin the binary-search fast path to the obviously-correct filter,
        // including ties at arrival instants and shared arrival times.
        let e = |arrive: f64, depart: f64| ArrivalEvent {
            service: Service::Login,
            arrive_s: arrive,
            depart_s: depart,
            threads: 1,
            load: LoadSchedule::Constant { rps: 1.0 },
        };
        let mut events = Vec::new();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d; // fixed-seed xorshift
        for _ in 0..40 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let arrive = (x % 100) as f64;
            let depart =
                if x.is_multiple_of(7) { f64::INFINITY } else { arrive + ((x >> 8) % 30) as f64 };
            events.push(e(arrive, depart));
        }
        let s = ArrivalScript::new(events.clone(), 100.0);
        for tenth in 0..=1000 {
            let t = tenth as f64 / 10.0;
            let fast: Vec<&ArrivalEvent> = s.active_at(t).collect();
            let slow: Vec<&ArrivalEvent> =
                s.events.iter().filter(|e| e.arrive_s <= t && t < e.depart_s).collect();
            assert_eq!(fast, slow, "active_at diverged from the linear scan at t={t}");
        }
    }

    #[test]
    fn departures_end_activity() {
        let e = ArrivalEvent {
            service: Service::Ads,
            arrive_s: 0.0,
            depart_s: 10.0,
            threads: 1,
            load: LoadSchedule::Constant { rps: 1.0 },
        };
        let s = ArrivalScript::new(vec![e], 20.0);
        assert_eq!(s.active_at(5.0).count(), 1);
        assert_eq!(s.active_at(10.0).count(), 0);
    }
}
