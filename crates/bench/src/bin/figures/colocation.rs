//! Figs. 10–12: co-location heatmaps. Each cell is the maximum probe load
//! (% of max) supported without any QoS violation, as a function of the x
//! and y services' loads, for Unmanaged, PARTIES and OSML (and, in Fig. 12,
//! the Oracle). The figures differ only in their services and background,
//! so each is one [`Heatmaps`] row.

use osml_baselines::{Parties, Unmanaged};
use osml_bench::grid::{colocation_grid, oracle_grid, ColocationGrid};
use osml_bench::report;
use osml_bench::suite::trained_suite;
use osml_workloads::Service;

/// One heatmap figure.
pub(super) struct Heatmaps {
    name: &'static str,
    title: &'static str,
    x: Service,
    y: Service,
    probe: Service,
    /// Fixed services beside the three (Figs. 11 and 12 add a fourth).
    background: &'static [(Service, f64)],
    /// Whether the Oracle's panel joins the three policies'.
    oracle: bool,
    /// Printed after the EMU lines.
    expected: Option<&'static str>,
}

/// Fig. 10: Moses probed against Img-dnn (x) and Xapian (y).
pub(super) const FIG10: Heatmaps = Heatmaps {
    name: "fig10_colocation3",
    title: "Fig. 10: co-location of xapian, img-dnn, moses",
    x: Service::ImgDnn,
    y: Service::Xapian,
    probe: Service::Moses,
    background: &[],
    oracle: false,
    expected: Some(
        "\nExpected shape (paper): PARTIES > Unmanaged, OSML >= PARTIES, with OSML\n\
               supporting strictly higher Moses loads in several cells (red boxes in Fig. 10-c).",
    ),
};

/// Fig. 11: Xapian probed against Moses (x) and Specjbb (y), with Sphinx in
/// the background at 10 % of its max load.
pub(super) const FIG11: Heatmaps = Heatmaps {
    name: "fig11_colocation4",
    title: "Fig. 11: moses, specjbb, xapian + sphinx@10% background",
    x: Service::Moses,
    y: Service::Specjbb,
    probe: Service::Xapian,
    background: &[(Service::Sphinx, 10.0)],
    oracle: false,
    expected: Some(
        "\nExpected shape (paper): same ordering as Fig. 10; OSML additionally reaches\n\
               cells PARTIES cannot (blue boxes in Fig. 11-c, e.g. xapian@10% with moses@90%).",
    ),
};

/// Fig. 12: Xapian probed against Masstree (x) and Specjbb (y), with
/// MongoDB at 50 % in the background, plus the Oracle's panel. The paper's
/// claim: OSML reaches ~90 % of the Oracle in the highlighted cells.
pub(super) const FIG12: Heatmaps = Heatmaps {
    name: "fig12_colocation_oracle",
    title: "Fig. 12: masstree, specjbb, xapian + mongodb@50% background",
    x: Service::Masstree,
    y: Service::Specjbb,
    probe: Service::Xapian,
    background: &[(Service::MongoDb, 50.0)],
    oracle: true,
    expected: None,
};

/// Settle ticks of every grid cell.
const SETTLE: usize = 60;

/// The Unmanaged, PARTIES and OSML grids over `steps` (then the Oracle's
/// if `oracle`). Fig. 15 reads its EMU off these too.
pub(super) fn grids(
    x: Service,
    y: Service,
    probe: Service,
    background: &[(Service, f64)],
    steps: &[usize],
    oracle: bool,
) -> Vec<ColocationGrid> {
    let osml = trained_suite();
    let mut grids = vec![
        colocation_grid("unmanaged", Unmanaged::new, x, y, probe, background, steps, SETTLE),
        colocation_grid("parties", Parties::new, x, y, probe, background, steps, SETTLE),
        colocation_grid("osml", || osml.clone(), x, y, probe, background, steps, SETTLE),
    ];
    if oracle {
        grids.push(oracle_grid(x, y, probe, background, steps));
    }
    grids
}

pub(super) fn run(fig: &Heatmaps) {
    let steps: Vec<usize> = (1..=10).map(|i| i * 10).collect();
    println!("== {} ==\n", fig.title);
    let grids = grids(fig.x, fig.y, fig.probe, fig.background, &steps, fig.oracle);
    for g in &grids {
        println!("{}", report::render_grid(g));
    }
    for g in &grids {
        println!("EMU[{}] = {:.3}", g.policy, g.mean_emu());
    }
    if fig.oracle {
        // OSML-vs-Oracle ratio over cells where the oracle is feasible.
        let (osml, oracle) = (&grids[2], &grids[3]);
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
    }
    if let Some(expected) = fig.expected {
        println!("{expected}");
    }
    report::save_json(fig.name, &grids);
}
