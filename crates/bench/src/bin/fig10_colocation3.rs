//! Fig. 10: co-location of Xapian, Img-dnn and Moses. Heatmap cells are the
//! maximum Moses load (% of max) supported without any QoS violation, as a
//! function of Img-dnn (x) and Xapian (y) loads, for Unmanaged, PARTIES and
//! OSML.

use osml_baselines::{Parties, Unmanaged};
use osml_bench::grid::{colocation_grid, ColocationGrid};
use osml_bench::report;
use osml_bench::suite::trained_suite;
use osml_workloads::Service;

fn main() {
    let steps: Vec<usize> = (1..=10).map(|i| i * 10).collect();
    let settle = 60;
    let (x, y, probe) = (Service::ImgDnn, Service::Xapian, Service::Moses);

    println!("== Fig. 10: co-location of xapian, img-dnn, moses ==\n");
    let unmanaged = colocation_grid("unmanaged", Unmanaged::new, x, y, probe, &[], &steps, settle);
    println!("{}", report::render_grid(&unmanaged));

    let parties = colocation_grid("parties", Parties::new, x, y, probe, &[], &steps, settle);
    println!("{}", report::render_grid(&parties));

    let osml_template = trained_suite();
    let osml = colocation_grid("osml", || osml_template.clone(), x, y, probe, &[], &steps, settle);
    println!("{}", report::render_grid(&osml));

    let grids: Vec<&ColocationGrid> = vec![&unmanaged, &parties, &osml];
    for g in &grids {
        println!("EMU[{}] = {:.3}", g.policy, g.mean_emu());
    }
    println!("\nExpected shape (paper): PARTIES > Unmanaged, OSML >= PARTIES, with OSML");
    println!("supporting strictly higher Moses loads in several cells (red boxes in Fig. 10-c).");
    let path = report::save_json("fig10_colocation3", &grids);
    println!("saved {}", path.display());
}
