//! Fig. 11: co-location of four services — Moses (x), Specjbb (y), Xapian
//! (probe), with Sphinx in the background at 10 % of its max load.

use osml_baselines::{Parties, Unmanaged};
use osml_bench::grid::{colocation_grid, ColocationGrid};
use osml_bench::report;
use osml_bench::suite::trained_suite;
use osml_workloads::Service;

fn main() {
    let steps: Vec<usize> = (1..=10).map(|i| i * 10).collect();
    let settle = 60;
    let (x, y, probe) = (Service::Moses, Service::Specjbb, Service::Xapian);
    let background = [(Service::Sphinx, 10.0)];

    println!("== Fig. 11: moses, specjbb, xapian + sphinx@10% background ==\n");
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

    let grids: Vec<&ColocationGrid> = vec![&unmanaged, &parties, &osml];
    for g in &grids {
        println!("EMU[{}] = {:.3}", g.policy, g.mean_emu());
    }
    println!("\nExpected shape (paper): same ordering as Fig. 10; OSML additionally reaches");
    println!("cells PARTIES cannot (blue boxes in Fig. 11-c, e.g. xapian@10% with moses@90%).");
    let path = report::save_json("fig11_colocation4", &grids);
    println!("saved {}", path.display());
}
