//! Table 3: the model input features and which model consumes each.

use osml_bench::report;
use osml_platform::CounterSample;

pub(super) fn run(_smoke: bool) {
    println!("== Table 3: the involved parameters ==");
    let descriptions = [
        "Instructions per clock",
        "LLC misses per second",
        "Local memory bandwidth",
        "The sum of each core's utilization",
        "The memory footprint of an app",
        "Virtual memory in use by an app",
        "Resident memory in use by an app",
        "LLC footprint of an app",
        "The number of allocated cores",
        "The number of allocated LLC ways",
        "Core frequency at runtime",
    ];
    let used_in = [
        "A/B/C", "A/B/C", "A/B/C", "A/B/C", "A/B/C", "A/B", "A/B", "A/B/C", "A/B/C", "A/B/C",
        "A/B/C",
    ];
    let mut rows: Vec<Vec<String>> = CounterSample::feature_names()
        .iter()
        .zip(descriptions.iter())
        .zip(used_in.iter())
        .map(|((name, desc), used)| {
            vec![(*name).to_owned(), (*desc).to_owned(), (*used).to_owned()]
        })
        .collect();
    rows.push(vec!["QoS Slowdown".into(), "Percentage of QoS slowdown".into(), "B".into()]);
    rows.push(vec!["Resp. Latency".into(), "Average latency of a microservice".into(), "C".into()]);
    println!("{}", report::render_table(&["Feature", "Description", "Used in Model"], &rows));
    report::save_json("table3_features", &rows);
}
