//! `log-replay`: the read side of the layer the other workloads write.
//! Set-up records the `node-churn` worlds through
//! `osml_bench::replay::run_recorded`; a step takes one recorded log through
//! decode → fold → compare with live → script reconstruction → re-encode.

use crate::churn::churn_worlds;
use crate::setup::{trained_template, training_config};
use crate::stats::Fnv;
use crate::traced::{Mode, Phase, StepClock};
use crate::workload::{Round, Workload};
use osml_bench::replay::{run_recorded, world_script_from_log};
use osml_core::{OsmlConfig, OsmlScheduler, OverloadConfig, ReplayState, UnifiedLog};
use osml_platform::FaultPlan;
use osml_workloads::loadgen::ArrivalScript;

/// One recorded world: its log as written and the state it must fold to.
#[derive(Debug)]
pub struct Recording {
    /// The unified log's JSONL encoding.
    pub jsonl: String,
    /// Events in the log.
    pub events: usize,
    /// The live scheduler's state at the end of the recording.
    pub live: ReplayState,
}

/// Records one world per script (overload management on, no faults, no
/// restart: the arm fig20 and the replay tests record).
pub fn record(template: &OsmlScheduler, scripts: &[(ArrivalScript, u64)]) -> Vec<Recording> {
    scripts
        .iter()
        .map(|(script, seed)| {
            let run = run_recorded(
                template,
                script,
                *seed,
                OverloadConfig::enabled(),
                FaultPlan::none(),
                false,
                OsmlConfig::default(),
            );
            Recording { jsonl: run.log.to_jsonl(), events: run.log.len(), live: run.live }
        })
        .collect()
}

/// `log-replay`'s prepared inputs.
#[derive(Debug)]
pub struct LogReplay {
    template: OsmlScheduler,
    recordings: Vec<Recording>,
    passes: usize,
}

impl LogReplay {
    /// The trained template (for the dataset-split identity check).
    pub fn template(&self) -> &OsmlScheduler {
        &self.template
    }

    /// The recorded logs.
    pub fn recordings(&self) -> &[Recording] {
        &self.recordings
    }
}

impl Workload for LogReplay {
    const NAME: &'static str = "log-replay";

    fn setup(seed: u64, smoke: bool) -> Self {
        let template = trained_template(&training_config(smoke));
        // `run_recorded` builds a noiseless machine, so a world is a
        // function of its script alone; the seed reaches it through the
        // per-world level jitter of `churn_worlds`.
        let scripts: Vec<(ArrivalScript, u64)> = churn_worlds(seed, if smoke { 1 } else { 6 })
            .into_iter()
            .map(|w| (w.script, w.sim_seed))
            .collect();
        let recordings = record(&template, &scripts);
        LogReplay { template, recordings, passes: if smoke { 2 } else { 50 } }
    }

    fn round(&mut self, mode: Mode<'_>) -> Round {
        let mut clock = StepClock::new(mode, self.passes * self.recordings.len());
        let mut digest = Fnv::default();
        let mut round = Round::default();
        let counts = &mut round.counts;
        for pass in 0..self.passes {
            for (w, rec) in self.recordings.iter().enumerate() {
                clock.set_world(w as u32);
                clock.begin();
                let decoded = UnifiedLog::from_jsonl_tolerant(&rec.jsonl);
                clock.lap(Phase::Decode);
                let folded = decoded.as_ref().ok().map(|(log, _)| log.replay());
                let matches_live = matches!(&folded, Some(Ok(state)) if *state == rec.live);
                clock.lap(Phase::Fold);
                let script = decoded.as_ref().ok().map(|(log, _)| world_script_from_log(log));
                clock.lap(Phase::Script);
                let encoded = decoded.as_ref().ok().map(|(log, _)| log.to_jsonl());
                let round_trips = encoded.as_deref() == Some(rec.jsonl.as_str());
                clock.lap(Phase::Encode);
                clock.end();

                let complete = matches!(&decoded, Ok((log, loss))
                    if log.len() == rec.events && loss.lines_dropped == 0);
                let scripted = matches!(&script, Some(Ok(_)));
                let ok = complete && matches_live && scripted && round_trips;
                counts.steps += 1;
                counts.ops += rec.events as u64;
                counts.failed_ops += if ok { 0 } else { rec.events as u64 };
                if !ok {
                    round.errors.push(format!(
                        "log {w}: decoded whole {complete}, replay == live {matches_live}, \
                         script rebuilt {scripted}, re-encodes identically {round_trips}"
                    ));
                }
                if pass == 0 {
                    counts.log_events += rec.events as u64;
                    counts.log_bytes += rec.jsonl.len() as u64;
                    digest.write(encoded.unwrap_or_default().as_bytes());
                    digest.write(format!("{folded:?}").as_bytes());
                }
            }
        }
        round.counts.demanded = round.counts.ops;
        round.digest = digest.finish();
        round.with_timings(clock)
    }
}
