//! Fig. 12: co-location of Masstree (x), Specjbb (y) and Xapian (probe) with
//! MongoDB at 50 % of max load in the background — including the Oracle
//! panel. The paper's claim: OSML behaves close to the Oracle, reaching
//! ~90 % of it in the highlighted cells.

use osml_baselines::{Parties, Unmanaged};
use osml_bench::grid::{colocation_grid, oracle_grid, ColocationGrid};
use osml_bench::report;
use osml_bench::suite::trained_suite;
use osml_workloads::Service;

fn main() {
    let steps: Vec<usize> = (1..=10).map(|i| i * 10).collect();
    let settle = 60;
    let (x, y, probe) = (Service::Masstree, Service::Specjbb, Service::Xapian);
    let background = [(Service::MongoDb, 50.0)];

    println!("== Fig. 12: masstree, specjbb, xapian + mongodb@50% background ==\n");
    let unmanaged =
        colocation_grid("unmanaged", Unmanaged::new, x, y, probe, &background, &steps, settle);
    println!("{}", report::render_grid(&unmanaged));

    let parties =
        colocation_grid("parties", Parties::new, x, y, probe, &background, &steps, settle);
    println!("{}", report::render_grid(&parties));

    let osml_template = trained_suite();
    let osml =
        colocation_grid("osml", || osml_template.clone(), x, y, probe, &background, &steps, settle);
    println!("{}", report::render_grid(&osml));

    let oracle = oracle_grid(x, y, probe, &background, &steps);
    println!("{}", report::render_grid(&oracle));

    let grids: Vec<&ColocationGrid> = vec![&unmanaged, &parties, &osml, &oracle];
    for g in &grids {
        println!("EMU[{}] = {:.3}", g.policy, g.mean_emu());
    }
    // OSML-vs-Oracle ratio over cells where the oracle is feasible.
    let mut ratio_sum = 0.0;
    let mut n = 0usize;
    for (orow, srow) in oracle.cells.iter().zip(&osml.cells) {
        for (&o, &s) in orow.iter().zip(srow) {
            if o > 0 {
                ratio_sum += s as f64 / o as f64;
                n += 1;
            }
        }
    }
    if n > 0 {
        println!(
            "\nOSML achieves {:.0}% of the Oracle on average over feasible cells (paper: ~90% in the highlighted cells)",
            100.0 * ratio_sum / n as f64
        );
    }
    let path = report::save_json("fig12_colocation_oracle", &grids);
    println!("saved {}", path.display());
}
