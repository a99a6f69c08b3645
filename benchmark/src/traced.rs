//! Outside-in tracing: a counting/timing [`Substrate`] decorator, an
//! in-memory span recorder, and the per-step clock every workload's
//! measured loop runs on.
//!
//! Nothing here reaches into `crates/`: a layer is observed at the calls the
//! benchmark makes into it ([`Phase`] spans) and at the calls the
//! controller makes out of it into the platform ([`Traced`]).

use crate::alloc;
use osml_platform::{
    Allocation, AppId, CoreSet, CounterSample, FaultySubstrate, LatencyStats, PlatformError,
    Substrate, Topology, WayMask,
};
use osml_telemetry::{MetricsSnapshot, Telemetry};
use osml_workloads::{LaunchSpec, SimServer};
use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// The [`Substrate`] trait's methods, as tap indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Method {
    Topology,
    Reallocate,
    Remove,
    Advance,
    Now,
    Apps,
    Allocation,
    Sample,
    PeekSample,
    Latency,
    IdleCores,
    IdleWayCount,
    OccupiedWays,
    FindFreeWays,
}

/// Number of [`Method`]s.
pub const METHODS: usize = 14;

impl Method {
    /// Every method, in tap order.
    pub const ALL: [Method; METHODS] = [
        Method::Topology,
        Method::Reallocate,
        Method::Remove,
        Method::Advance,
        Method::Now,
        Method::Apps,
        Method::Allocation,
        Method::Sample,
        Method::PeekSample,
        Method::Latency,
        Method::IdleCores,
        Method::IdleWayCount,
        Method::OccupiedWays,
        Method::FindFreeWays,
    ];

    /// Span name of calls to this method.
    pub fn name(self) -> &'static str {
        match self {
            Method::Topology => "platform.topology",
            Method::Reallocate => "platform.reallocate",
            Method::Remove => "platform.remove",
            Method::Advance => "platform.advance",
            Method::Now => "platform.now",
            Method::Apps => "platform.apps",
            Method::Allocation => "platform.allocation",
            Method::Sample => "platform.sample",
            Method::PeekSample => "platform.peek_sample",
            Method::Latency => "platform.latency",
            Method::IdleCores => "platform.idle_cores",
            Method::IdleWayCount => "platform.idle_way_count",
            Method::OccupiedWays => "platform.occupied_ways",
            Method::FindFreeWays => "platform.find_free_ways",
        }
    }
}

/// Call count and busy nanoseconds per [`Substrate`] method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Calls per method, indexed by `Method as usize`.
    pub calls: [u64; METHODS],
    /// Nanoseconds inside the wrapped substrate per method.
    pub busy_ns: [u64; METHODS],
}

impl CallStats {
    fn since(&self, earlier: &CallStats) -> CallStats {
        let mut d = CallStats::default();
        for m in 0..METHODS {
            d.calls[m] = self.calls[m] - earlier.calls[m];
            d.busy_ns[m] = self.busy_ns[m] - earlier.busy_ns[m];
        }
        d
    }

    fn add(&mut self, other: &CallStats) {
        for m in 0..METHODS {
            self.calls[m] += other.calls[m];
            self.busy_ns[m] += other.busy_ns[m];
        }
    }

    /// Calls to one method.
    pub fn calls_to(&self, m: Method) -> u64 {
        self.calls[m as usize]
    }

    /// Total busy nanoseconds over all methods.
    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }
}

/// The counters a [`Traced`] substrate bumps, shared with the [`Tracer`]
/// that reads them at phase boundaries. `Cell`s because most of the trait
/// takes `&self`; the measured phase is single-threaded.
#[derive(Debug, Default)]
pub struct Taps {
    calls: [Cell<u64>; METHODS],
    busy_ns: [Cell<u64>; METHODS],
}

impl Taps {
    /// A copy of the counters as they stand.
    pub fn snapshot(&self) -> CallStats {
        let mut s = CallStats::default();
        for m in 0..METHODS {
            s.calls[m] = self.calls[m].get();
            s.busy_ns[m] = self.busy_ns[m].get();
        }
        s
    }
}

/// A [`Substrate`] decorator that counts and times every trait call and is
/// otherwise transparent: every method — the provided ones too, since the
/// wrapped substrate may override them — forwards to the same method of
/// `inner` with the same arguments.
#[derive(Debug)]
pub struct Traced<S> {
    inner: S,
    taps: Rc<Taps>,
}

impl<S> Traced<S> {
    /// Wraps `inner`, reporting into `taps`.
    pub fn new(inner: S, taps: Rc<Taps>) -> Self {
        Traced { inner, taps }
    }

    /// Unwraps the substrate.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn note(&self, m: Method, start: Instant) {
        let i = m as usize;
        self.taps.calls[i].set(self.taps.calls[i].get() + 1);
        self.taps.busy_ns[i].set(self.taps.busy_ns[i].get() + start.elapsed().as_nanos() as u64);
    }

    fn timed<'a, R>(&'a self, m: Method, f: impl FnOnce(&'a S) -> R) -> R {
        let start = Instant::now();
        let r = f(&self.inner);
        self.note(m, start);
        r
    }

    fn timed_mut<R>(&mut self, m: Method, f: impl FnOnce(&mut S) -> R) -> R {
        let start = Instant::now();
        let r = f(&mut self.inner);
        self.note(m, start);
        r
    }
}

impl<S: Substrate> Substrate for Traced<S> {
    fn topology(&self) -> &Topology {
        self.timed(Method::Topology, |s| s.topology())
    }
    fn reallocate(&mut self, id: AppId, alloc: Allocation) -> Result<(), PlatformError> {
        self.timed_mut(Method::Reallocate, |s| s.reallocate(id, alloc))
    }
    fn remove(&mut self, id: AppId) -> Result<(), PlatformError> {
        self.timed_mut(Method::Remove, |s| s.remove(id))
    }
    fn advance(&mut self, seconds: f64) {
        self.timed_mut(Method::Advance, |s| s.advance(seconds))
    }
    fn now(&self) -> f64 {
        self.timed(Method::Now, |s| s.now())
    }
    fn apps(&self) -> Vec<AppId> {
        self.timed(Method::Apps, |s| s.apps())
    }
    fn allocation(&self, id: AppId) -> Option<Allocation> {
        self.timed(Method::Allocation, |s| s.allocation(id))
    }
    fn sample(&self, id: AppId) -> Option<CounterSample> {
        self.timed(Method::Sample, |s| s.sample(id))
    }
    fn peek_sample(&self, id: AppId) -> Option<CounterSample> {
        self.timed(Method::PeekSample, |s| s.peek_sample(id))
    }
    fn latency(&self, id: AppId) -> Option<LatencyStats> {
        self.timed(Method::Latency, |s| s.latency(id))
    }
    fn idle_cores(&self) -> CoreSet {
        self.timed(Method::IdleCores, |s| s.idle_cores())
    }
    fn idle_way_count(&self) -> usize {
        self.timed(Method::IdleWayCount, |s| s.idle_way_count())
    }
    fn occupied_ways(&self, except: Option<AppId>) -> u32 {
        self.timed(Method::OccupiedWays, |s| s.occupied_ways(except))
    }
    fn find_free_ways(&self, count: usize, except: Option<AppId>) -> Option<WayMask> {
        self.timed(Method::FindFreeWays, |s| s.find_free_ways(count, except))
    }
}

/// A substrate the churn driver can also start processes on: the harness
/// side of the machine (process launch), which is not part of the
/// scheduler-facing [`Substrate`] trait.
pub trait Host: Substrate {
    /// Starts a process on its bootstrap allocation.
    fn launch(&mut self, spec: LaunchSpec, alloc: Allocation) -> AppId;
}

impl Host for FaultySubstrate<SimServer> {
    fn launch(&mut self, spec: LaunchSpec, alloc: Allocation) -> AppId {
        self.inner_mut().launch(spec, alloc).expect("bootstrap allocation is valid")
    }
}

impl<H: Host> Host for Traced<H> {
    fn launch(&mut self, spec: LaunchSpec, alloc: Allocation) -> AppId {
        self.inner.launch(spec, alloc)
    }
}

/// What one step is split into; each phase is one call (or one short run of
/// calls) from the benchmark into a single layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Scripted departures and arrivals: `on_departure`, Algorithm 1.
    Arrivals,
    /// `Substrate::advance(1.0)`: the simulated machine runs one second.
    Advance,
    /// `OsmlScheduler::tick`.
    Tick,
    /// `take_shed` / `poll_admission` and the re-submissions they cause.
    Drain,
    /// `Cluster::run(1.0)`.
    ClusterRun,
    /// `UnifiedLog::from_jsonl_tolerant`.
    Decode,
    /// `UnifiedLog::replay` and the comparison with the live state.
    Fold,
    /// `world_script_from_log`.
    Script,
    /// `UnifiedLog::to_jsonl` and the byte comparison with the input.
    Encode,
}

/// Number of [`Phase`]s.
pub const PHASES: usize = 9;

impl Phase {
    /// Span name (`<layer>.<call>`).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Arrivals => "core.arrivals",
            Phase::Advance => "platform.advance",
            Phase::Tick => "core.tick",
            Phase::Drain => "core.drain",
            Phase::ClusterRun => "core.cluster_run",
            Phase::Decode => "core.golden.decode",
            Phase::Fold => "core.golden.fold",
            Phase::Script => "bench.world_script_from_log",
            Phase::Encode => "core.golden.encode",
        }
    }
}

/// One recorded span. Substrate calls are aggregated per method per phase
/// (`calls` > 1, `end − start` = their summed busy time): one span per call
/// would be ~3 000 spans per `node-steady` tick.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The world (request identifier) every span of one run shares.
    pub world: u32,
    /// Calls this span stands for.
    pub calls: u64,
}

/// The traced run's recorder: spans in memory, the substrate taps, and the
/// enabled [`Telemetry`] handle the scheduler under test reports into.
#[derive(Debug)]
pub struct Tracer {
    /// Shared with every [`Traced`] substrate of the traced round.
    pub taps: Rc<Taps>,
    /// Handed to the scheduler (template) under test; clones share it.
    pub telemetry: Telemetry,
    /// Histogram `(count, sum)`s already in `telemetry` when the measured
    /// steps began (spans of the world build), subtracted on read.
    telemetry_base: MetricsSnapshot,
    origin: Instant,
    spans: Vec<Span>,
    /// Substrate calls made inside controller phases (everything but
    /// [`Phase::Advance`]).
    pub controller_calls: CallStats,
    /// Substrate calls made inside any phase of a step.
    pub step_calls: CallStats,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            taps: Rc::default(),
            telemetry: Telemetry::enabled(),
            telemetry_base: Telemetry::disabled().snapshot(),
            origin: Instant::now(),
            spans: Vec::new(),
            controller_calls: CallStats::default(),
            step_calls: CallStats::default(),
        }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Excludes every telemetry observation made so far (the world build)
    /// from [`Tracer::histogram`].
    pub fn mark_telemetry(&mut self) {
        self.telemetry_base = self.telemetry.snapshot();
    }

    /// `(observations, summed value)` of one of the scheduler's telemetry
    /// histograms since the mark.
    pub fn histogram(&self, name: &str) -> (f64, f64) {
        let read = |snap: &MetricsSnapshot| {
            snap.histograms.get(name).map_or((0.0, 0.0), |h| (h.count as f64, h.sum))
        };
        let (now, base) = (read(&self.telemetry.snapshot()), read(&self.telemetry_base));
        (now.0 - base.0, now.1 - base.1)
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover (children of one parent never overlap here: phases
    /// are sequential and aggregated substrate calls are disjoint busy
    /// time inside their phase).
    pub fn self_time_ns(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += own;
                    row.2 += s.calls;
                }
                None => by_name.push((s.name, own, s.calls)),
            }
        }
        by_name
    }

    /// The spans as a JSON array (one object per span).
    pub fn spans_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"world\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.world, s.calls
            );
        }
        out.push_str("\n]");
        out
    }
}

/// How a round is observed.
#[derive(Debug)]
pub enum Mode<'t> {
    /// Nothing attached: the run every end-to-end metric comes from.
    Plain,
    /// The counting allocator armed for the duration of each step.
    Allocs,
    /// [`Traced`] substrate, enabled telemetry, spans.
    Traced(&'t mut Tracer),
}

/// The clock a measured loop runs on: `begin`, one `lap` per phase, `end`.
/// In every mode it costs one clock read per boundary; the traced mode
/// additionally snapshots the taps and records spans at each boundary
/// (time the step total includes — that is the tracing overhead — but no
/// phase does).
#[derive(Debug)]
pub struct StepClock<'t> {
    mode: Mode<'t>,
    world: u32,
    start: Instant,
    last: Instant,
    taps_at_last: CallStats,
    step_span: u32,
    alloc_base: (u64, u64),
    /// Host nanoseconds of every step so far.
    pub step_ns: Vec<u64>,
    /// Host nanoseconds per phase, summed over steps.
    pub phase_ns: [u64; PHASES],
    /// Allocation events inside steps ([`Mode::Allocs`] only).
    pub allocs: u64,
    /// Bytes requested inside steps ([`Mode::Allocs`] only).
    pub alloc_bytes: u64,
}

impl<'t> StepClock<'t> {
    /// A clock for one round observed in `mode`.
    pub fn new(mode: Mode<'t>, expected_steps: usize) -> Self {
        let now = Instant::now();
        StepClock {
            mode,
            world: 0,
            start: now,
            last: now,
            taps_at_last: CallStats::default(),
            step_span: 0,
            alloc_base: alloc::counts(),
            step_ns: Vec::with_capacity(expected_steps),
            phase_ns: [0; PHASES],
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    /// The tracer, when this round is traced (to wrap the substrate and
    /// attach telemetry while building the world).
    pub fn tracer(&mut self) -> Option<&mut Tracer> {
        match &mut self.mode {
            Mode::Traced(t) => Some(t),
            _ => None,
        }
    }

    /// Tags the following steps with a world identifier.
    pub fn set_world(&mut self, world: u32) {
        self.world = world;
    }

    /// Starts a step.
    pub fn begin(&mut self) {
        match &mut self.mode {
            Mode::Plain => {}
            Mode::Allocs => alloc::arm(),
            Mode::Traced(t) => {
                self.taps_at_last = t.taps.snapshot();
                self.step_span = t.spans.len() as u32;
                t.spans.push(Span {
                    name: "step",
                    start_ns: 0,
                    end_ns: 0,
                    parent: None,
                    world: self.world,
                    calls: 1,
                });
            }
        }
        self.start = Instant::now();
        self.last = self.start;
    }

    /// Ends the phase that ran since the previous boundary.
    pub fn lap(&mut self, phase: Phase) {
        let now = Instant::now();
        self.phase_ns[phase as usize] += now.duration_since(self.last).as_nanos() as u64;
        if let Mode::Traced(t) = &mut self.mode {
            let taps = t.taps.snapshot();
            let delta = taps.since(&self.taps_at_last);
            self.taps_at_last = taps;
            let phase_span = t.spans.len() as u32;
            let (start_ns, end_ns) = (t.ns(self.last), t.ns(now));
            t.spans.push(Span {
                name: phase.name(),
                start_ns,
                end_ns,
                parent: Some(self.step_span),
                world: self.world,
                calls: 1,
            });
            t.step_calls.add(&delta);
            if phase != Phase::Advance {
                t.controller_calls.add(&delta);
                for m in Method::ALL {
                    let i = m as usize;
                    if delta.calls[i] > 0 {
                        t.spans.push(Span {
                            name: m.name(),
                            start_ns,
                            end_ns: start_ns + delta.busy_ns[i],
                            parent: Some(phase_span),
                            world: self.world,
                            calls: delta.calls[i],
                        });
                    }
                }
            }
            self.last = Instant::now();
        } else {
            self.last = now;
        }
    }

    /// Ends the step.
    pub fn end(&mut self) {
        let now = Instant::now();
        self.step_ns.push(now.duration_since(self.start).as_nanos() as u64);
        match &mut self.mode {
            Mode::Plain => {}
            Mode::Allocs => {
                alloc::disarm();
                let (allocs, bytes) = alloc::counts();
                (self.allocs, self.alloc_bytes) =
                    (allocs - self.alloc_base.0, bytes - self.alloc_base.1);
            }
            Mode::Traced(t) => {
                let (start_ns, end_ns) = (t.ns(self.start), t.ns(now));
                let span = &mut t.spans[self.step_span as usize];
                (span.start_ns, span.end_ns) = (start_ns, end_ns);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steady::SteadySubstrate;

    fn machine() -> SteadySubstrate {
        let mut s = SteadySubstrate::new(9);
        for _ in 0..5 {
            s.place_next();
        }
        s.advance(3.0);
        s
    }

    #[test]
    fn traced_forwards_every_method_unchanged_and_counts_it() {
        let plain = machine();
        let taps = Rc::new(Taps::default());
        let mut traced = Traced::new(machine(), taps.clone());
        let id = AppId(2);
        assert_eq!(traced.topology(), plain.topology());
        assert_eq!(traced.now(), plain.now());
        assert_eq!(traced.apps(), plain.apps());
        assert_eq!(traced.allocation(id), plain.allocation(id));
        assert_eq!(traced.sample(id), plain.sample(id));
        assert_eq!(traced.peek_sample(id), plain.peek_sample(id));
        assert_eq!(traced.latency(id), plain.latency(id));
        assert_eq!(traced.idle_cores(), plain.idle_cores());
        assert_eq!(traced.idle_way_count(), plain.idle_way_count());
        assert_eq!(traced.occupied_ways(Some(id)), plain.occupied_ways(Some(id)));
        assert_eq!(traced.find_free_ways(2, None), plain.find_free_ways(2, None));
        let moved = Allocation::new(
            CoreSet::from_cores([7, 8]),
            WayMask::contiguous(6, 2).unwrap(),
            osml_platform::MbaThrottle::unthrottled(),
        );
        assert_eq!(traced.reallocate(id, moved), Ok(()));
        assert_eq!(traced.allocation(id), Some(moved));
        assert_eq!(traced.remove(id), Ok(()));
        assert!(traced.remove(id).is_err(), "errors pass through too");
        traced.advance(1.0);
        assert_eq!(traced.now(), plain.now() + 1.0);

        let stats = taps.snapshot();
        for m in Method::ALL {
            assert!(stats.calls_to(m) >= 1, "{} was not counted", m.name());
        }
        assert_eq!(stats.calls_to(Method::Allocation), 2);
        assert_eq!(stats.calls_to(Method::Remove), 2);
    }

    #[test]
    fn step_clock_records_phases_and_self_time_excludes_children() {
        let mut tracer = Tracer::default();
        let mut server = Traced::new(machine(), tracer.taps.clone());
        let mut clock = StepClock::new(Mode::Traced(&mut tracer), 2);
        for world in 0..2 {
            clock.set_world(world);
            // Calls between steps belong to the harness, not to a step.
            let _ = server.apps();
            clock.begin();
            server.advance(1.0);
            clock.lap(Phase::Advance);
            let _ = (server.sample(AppId(0)), server.sample(AppId(1)), server.latency(AppId(0)));
            clock.lap(Phase::Tick);
            clock.end();
        }
        assert_eq!(clock.step_ns.len(), 2);
        let phases: u64 = clock.phase_ns.iter().sum();
        assert!(phases <= clock.step_ns.iter().sum::<u64>(), "phases exclude tracer overhead");
        drop(clock);

        assert_eq!(tracer.step_calls.calls_to(Method::Apps), 0);
        assert_eq!(tracer.step_calls.calls_to(Method::Advance), 2);
        assert_eq!(tracer.controller_calls.calls_to(Method::Advance), 0);
        assert_eq!(tracer.controller_calls.calls_to(Method::Sample), 4);
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names[..5],
            ["step", "platform.advance", "core.tick", "platform.sample", "platform.latency"]
        );
        assert_eq!(tracer.spans()[5].world, 1);
        let sample = tracer.spans()[3];
        assert_eq!((sample.calls, sample.parent), (2, Some(2)));

        let selfs = tracer.self_time_ns();
        let of = |name: &str| selfs.iter().find(|s| s.0 == name).map(|s| s.1).unwrap();
        let tick_total: u64 = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "core.tick")
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(of("core.tick") + of("platform.sample") + of("platform.latency"), tick_total);
        assert!(tracer.spans_json().starts_with("[\n{\"id\":0,\"name\":\"step\""));
    }
}
