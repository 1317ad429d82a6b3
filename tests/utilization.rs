//! Cross-crate integration: the Table III utilisation invariants that
//! the reproduction must preserve (who is bigger/faster, the randomness
//! budget, the cycle counts).

use glitchmask::des::masked::{MaskedDesFf, MaskedDesPd};
use glitchmask::des::netlist_gen::{build_des_core, driver, SboxStyle};
use glitchmask::netlist::{area, timing, GateKind};

#[test]
fn cycle_counts_match_table3() {
    assert_eq!(MaskedDesFf::CYCLES_PER_ROUND, 7);
    assert_eq!(MaskedDesPd::CYCLES_PER_ROUND, 2);
    assert_eq!(MaskedDesFf::TOTAL_CYCLES, 115, "the paper's 115-cycle block");
    assert_eq!(driver::total_cycles(SboxStyle::Ff), 115);
}

#[test]
fn randomness_budget_is_14_bits_per_round() {
    assert_eq!(MaskedDesFf::FRESH_BITS_PER_ROUND, 14);
    assert_eq!(MaskedDesPd::FRESH_BITS_PER_ROUND, 14);
}

#[test]
fn pd_core_area_dominated_by_delay_units() {
    let pd = build_des_core(SboxStyle::Pd { unit_luts: 10 });
    // Every DelayUnit element is a real `DelayBuf` gate of the netlist,
    // which a synthesis flow must keep (the paper's "Keep Hierarchy").
    let delay_bufs = pd.netlist.gates().iter().filter(|g| g.kind == GateKind::DelayBuf).count();
    assert!(delay_bufs > 4_000, "{delay_bufs} DelayBuf gates");
    let rep = area::report(&pd.netlist);
    assert_eq!(rep.delay_buf_count, delay_bufs);
    // The paper: 52273 GE total, 12592 GE without DelayUnits.
    assert!((45_000.0..60_000.0).contains(&rep.total_ge), "PD total {} GE", rep.total_ge);
    assert!((10_000.0..16_000.0).contains(&rep.logic_ge()), "PD logic {} GE", rep.logic_ge());
    // ~493 DelayUnits of 10 elements in the paper.
    let units = rep.delay_buf_count / 10;
    assert!((450..550).contains(&units), "{units} DelayUnits");
}

#[test]
fn ff_core_smaller_and_faster_than_pd() {
    let ff = build_des_core(SboxStyle::Ff);
    let pd = build_des_core(SboxStyle::Pd { unit_luts: 10 });
    let (fa, pa) = (area::report(&ff.netlist), area::report(&pd.netlist));
    assert!(fa.total_ge < pa.total_ge);
    let (ft, pt) = (timing::analyze(&ff.netlist).unwrap(), timing::analyze(&pd.netlist).unwrap());
    // Paper: 183 vs 21 MHz — nearly an order of magnitude.
    assert!(
        ft.max_freq_mhz() > 5.0 * pt.max_freq_mhz(),
        "{:.0} vs {:.0} MHz",
        ft.max_freq_mhz(),
        pt.max_freq_mhz()
    );
    assert!((100.0..250.0).contains(&ft.max_freq_mhz()), "FF {:.0} MHz", ft.max_freq_mhz());
    assert!((10.0..30.0).contains(&pt.max_freq_mhz()), "PD {:.0} MHz", pt.max_freq_mhz());
}

#[test]
fn delay_unit_size_scales_pd_area_and_critical_path() {
    let small = build_des_core(SboxStyle::Pd { unit_luts: 2 });
    let big = build_des_core(SboxStyle::Pd { unit_luts: 10 });
    let (sa, ba) = (area::report(&small.netlist), area::report(&big.netlist));
    assert!(ba.delay_ge > 4.0 * sa.delay_ge);
    let (st, bt) =
        (timing::analyze(&small.netlist).unwrap(), timing::analyze(&big.netlist).unwrap());
    assert!(bt.critical_path_ps > 3 * st.critical_path_ps);
}

#[test]
fn ff_core_has_no_delay_elements() {
    let ff = build_des_core(SboxStyle::Ff);
    assert_eq!(ff.netlist.gates().iter().filter(|g| g.kind == GateKind::DelayBuf).count(), 0);
}

#[test]
fn fpga_view_within_band_of_paper() {
    // Paper FPGA columns: FF core 819 FF / 2129 LUT; PD core 672/7428.
    let ff = area::report(&build_des_core(SboxStyle::Ff).netlist);
    assert!((600..900).contains(&ff.ff_count), "FF count {}", ff.ff_count);
    assert!((1_800..3_200).contains(&ff.lut_estimate), "LUTs {}", ff.lut_estimate);
    let pd = area::report(&build_des_core(SboxStyle::Pd { unit_luts: 10 }).netlist);
    assert!((550..800).contains(&pd.ff_count), "PD FF count {}", pd.ff_count);
    assert!((6_000..9_000).contains(&pd.lut_estimate), "PD LUTs {}", pd.lut_estimate);
}
