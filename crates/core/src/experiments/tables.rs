//! Tables I and II — the paper's input parameter tables, rendered from the
//! constants actually used by the models (a transcription self-check).

use crate::table::TextTable;
use hyppi_phys::{hyppi_params, photonic_params, plasmonic_params, TechnologyParams};
use hyppi_topology::ROUTER_PIPELINE_CYCLES;

/// Renders Table I from the `hyppi-phys` constants.
pub fn table1() -> TextTable {
    let cols: [TechnologyParams; 3] = [photonic_params(), plasmonic_params(), hyppi_params()];
    let mut t = TextTable::new(vec!["Parameter", "Photonic", "Plasmonic", "HyPPI"]);
    let row3 = |t: &mut TextTable, name: &str, f: &dyn Fn(&TechnologyParams) -> String| {
        t.row(vec![
            name.to_string(),
            f(&cols[0]),
            f(&cols[1]),
            f(&cols[2]),
        ]);
    };
    row3(&mut t, "Laser efficiency (%)", &|p| {
        format!("{}", p.laser.efficiency * 100.0)
    });
    row3(&mut t, "Laser area (um^2)", &|p| {
        format!("{}", p.laser.area.value())
    });
    row3(&mut t, "Modulator speed, peak (Gb/s)", &|p| {
        format!("{}", p.modulator.peak_rate.value())
    });
    row3(&mut t, "Modulator speed, SERDES (Gb/s)", &|p| {
        format!("{}", p.modulator.serdes_rate.value())
    });
    row3(&mut t, "Modulator energy (fJ/bit)", &|p| {
        format!("{}", p.modulator.energy_per_bit.value())
    });
    row3(&mut t, "Modulator insertion loss (dB)", &|p| {
        format!("{}", p.modulator.insertion_loss.value())
    });
    row3(&mut t, "Modulator extinction ratio (dB)", &|p| {
        format!("{}", p.modulator.extinction_ratio.value())
    });
    row3(&mut t, "Modulator area (um^2)", &|p| {
        format!("{}", p.modulator.area.value())
    });
    row3(&mut t, "Modulator capacitance (fF)", &|p| {
        format!("{}", p.modulator.capacitance_ff)
    });
    row3(&mut t, "Detector speed (Gb/s)", &|p| {
        format!(
            "{}/{}",
            p.detector.rate.value(),
            p.detector.intrinsic_rate.value()
        )
    });
    row3(&mut t, "Detector energy (fJ/bit)", &|p| {
        format!("{}", p.detector.energy_per_bit.value())
    });
    row3(&mut t, "Responsivity (A/W)", &|p| {
        format!("{}", p.detector.responsivity_a_per_w)
    });
    row3(&mut t, "Detector area (um^2)", &|p| {
        format!("{}", p.detector.area.value())
    });
    row3(&mut t, "Waveguide loss (dB/cm)", &|p| {
        format!("{}", p.waveguide.propagation_loss_db_per_cm)
    });
    row3(&mut t, "Coupling loss (dB)", &|p| {
        format!("{}", p.waveguide.coupling_loss.value())
    });
    row3(&mut t, "Waveguide pitch (um)", &|p| {
        format!("{}", p.waveguide.pitch.value())
    });
    row3(&mut t, "Waveguide width (um)", &|p| {
        format!("{}", p.waveguide.width.value())
    });
    t
}

/// Renders Table II from the configuration constants used by the models.
pub fn table2() -> TextTable {
    let router = hyppi_dsent::RouterConfig::base_mesh();
    let sim = hyppi_netsim::SimConfig::paper();
    let mut t = TextTable::new(vec!["Parameter", "Value"]);
    t.row(vec!["# Nodes", "16x16 (256 nodes)"])
        .row(vec!["Core spacing", "1 mm"])
        .row(vec![
            "Core clock".to_string(),
            format!("{} GHz", hyppi_analytic::CORE_CLK_GHZ),
        ])
        .row(vec![
            "Flit size".to_string(),
            format!("{} bits", router.flit_bits),
        ])
        .row(vec!["# Ports", "5 (base) or 7 (hybrid)"])
        .row(vec![
            "# Virtual channels".to_string(),
            format!("{}", sim.vcs),
        ])
        .row(vec![
            "Buffers per VC".to_string(),
            format!("{} flits", sim.buffer_depth),
        ])
        .row(vec![
            "Pipeline depth".to_string(),
            format!("{ROUTER_PIPELINE_CYCLES} stages"),
        ])
        .row(vec!["Link latency", "1 clk electronic, 2 clks optical"])
        .row(vec!["Link capacity", "50 Gb/s"]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_all_rows() {
        let t = table1();
        assert_eq!(t.len(), 17);
        let s = t.render();
        assert!(s.contains("2100"));
        assert!(s.contains("440"));
        assert!(s.contains("0.94"));
    }

    #[test]
    fn table2_matches_paper_settings() {
        let s = table2().render();
        assert!(s.contains("16x16"));
        assert!(s.contains("0.78125 GHz"));
        assert!(s.contains("64 bits"));
        assert!(s.contains("8 flits"));
        assert!(s.contains("3 stages"));
    }
}
