//! Fig. 16: the scheduling case study — at one disturbance OSML reaches its
//! OAA in a single action where PARTIES needs several, and a PARTIES
//! deprivation pushes Img-dnn over its RCliff.

use osml_baselines::Parties;
use osml_bench::report;
use osml_bench::suite::trained_suite;
use osml_bench::timeline::{run_timeline, TimelineRecord};
use osml_workloads::loadgen::{ArrivalEvent, ArrivalScript, LoadSchedule};
use osml_workloads::Service;
use serde::Serialize;

/// Img-dnn runs steadily; Xapian arrives mid-run and ramps, forcing the
/// scheduler to rebalance — the disturbance of Fig. 16.
fn script() -> ArrivalScript {
    let pct = |s: Service, p: f64| s.params().nominal_max_rps() * p / 100.0;
    ArrivalScript::new(
        vec![
            ArrivalEvent {
                service: Service::ImgDnn,
                arrive_s: 0.0,
                depart_s: f64::INFINITY,
                threads: Service::ImgDnn.params().default_threads,
                load: LoadSchedule::Constant { rps: pct(Service::ImgDnn, 50.0) },
            },
            ArrivalEvent {
                service: Service::Xapian,
                arrive_s: 40.0,
                depart_s: f64::INFINITY,
                threads: Service::Xapian.params().default_threads,
                load: LoadSchedule::Steps {
                    steps: vec![
                        (40.0, pct(Service::Xapian, 30.0)),
                        (56.0, pct(Service::Xapian, 50.0)),
                    ],
                },
            },
        ],
        120.0,
    )
}

#[derive(Serialize)]
struct CaseStudy {
    policy: String,
    /// Actions spent in the window right after each disturbance.
    actions_after_arrival: usize,
    actions_after_step: usize,
    /// Worst Img-dnn latency/target after the load step (the RCliff
    /// incident).
    imgdnn_peak_after_step: f64,
    records: Vec<TimelineRecord>,
}

fn analyze(policy: &str, records: Vec<TimelineRecord>) -> CaseStudy {
    let actions_at = |t: f64| -> usize {
        records.iter().rfind(|r| r.time_s <= t).map(|r| r.actions).unwrap_or(0)
    };
    let actions_after_arrival = actions_at(50.0).saturating_sub(actions_at(39.0));
    let actions_after_step = actions_at(70.0).saturating_sub(actions_at(55.0));
    let imgdnn_peak_after_step = records
        .iter()
        .filter(|r| r.time_s >= 56.0)
        .flat_map(|r| r.services.iter())
        .filter(|s| s.service == Service::ImgDnn)
        .map(|s| s.latency_over_target)
        .fold(0.0f64, f64::max);
    CaseStudy {
        policy: policy.to_owned(),
        actions_after_arrival,
        actions_after_step,
        imgdnn_peak_after_step,
        records,
    }
}

pub(super) fn run(_smoke: bool) {
    println!(
        "== Fig. 16: scheduling case study (img-dnn steady, xapian arrives @40s, steps @56s) ==\n"
    );
    let s = script();
    let mut parties = Parties::new();
    let parties_case = analyze("parties", run_timeline(&mut parties, &s, 0x16));
    let mut osml = trained_suite();
    let osml_case = analyze("osml", run_timeline(&mut osml, &s, 0x16));

    for case in [&parties_case, &osml_case] {
        println!(
            "{:<8} actions after arrival: {:>3}   after load step: {:>3}   img-dnn peak after step: {:.1}x target",
            case.policy, case.actions_after_arrival, case.actions_after_step, case.imgdnn_peak_after_step
        );
    }
    println!("\nExpected shape (paper): at the arrival OSML uses ~1 action vs PARTIES' ~5;");
    println!("after the load step PARTIES deprives img-dnn over its RCliff (latency spike),");
    println!("while OSML stays clear of the cliff.");
    report::save_json("fig16_case_study", &vec![parties_case, osml_case]);
}
