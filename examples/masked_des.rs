//! The paper's case study end-to-end: encrypt with the reference DES
//! and the two masked cores (value-level and gate-level).
//!
//! ```sh
//! cargo run --release --example masked_des
//! ```

use glitchmask::des::masked::{MaskedDesFf, MaskedDesPd};
use glitchmask::des::netlist_gen::driver::{encrypt_functional, EncryptionInputs};
use glitchmask::des::netlist_gen::{build_des_core, SboxStyle};
use glitchmask::des::Des;
use glitchmask::masking::MaskRng;
use glitchmask::netlist::{area, timing};

fn main() {
    let key = 0x133457799BBCDFF1;
    let pt = 0x0123456789ABCDEF;
    let mut rng = MaskRng::new(42);

    // Reference.
    let des = Des::new(key);
    let ct = des.encrypt_block(pt);
    println!("reference DES:        {pt:016X} -> {ct:016X}");

    // Masked cores (cycle-accurate value level).
    let ff = MaskedDesFf::new(key);
    let (ct_ff, cycles_ff) = ff.encrypt_with_cycles(pt, &mut rng);
    println!(
        "secAND2-FF core:      {pt:016X} -> {ct_ff:016X}  ({} cycles, {} fresh bits/round)",
        cycles_ff.len(),
        MaskedDesFf::FRESH_BITS_PER_ROUND
    );

    let pd = MaskedDesPd::new(key);
    let (ct_pd, cycles_pd) = pd.encrypt_with_cycles(pt, &mut rng);
    println!(
        "secAND2-PD core:      {pt:016X} -> {ct_pd:016X}  ({} cycles, 10-LUT DelayUnits)",
        cycles_pd.len()
    );
    assert_eq!(ct_ff, ct);
    assert_eq!(ct_pd, ct);

    // Gate-level cores.
    for (name, style) in [
        ("gate-level FF core", SboxStyle::Ff),
        ("gate-level PD core", SboxStyle::Pd { unit_luts: 10 }),
    ] {
        let core = build_des_core(style);
        let inputs = EncryptionInputs::draw(pt, key, &mut rng);
        let ct_gate = encrypt_functional(&core, &inputs);
        let a = area::report(&core.netlist);
        let t = timing::analyze(&core.netlist).expect("valid core");
        println!(
            "{name}:   {pt:016X} -> {ct_gate:016X}  ({} gates, {:.0} GE, {:.0} MHz)",
            core.netlist.num_gates(),
            a.total_ge,
            t.max_freq_mhz()
        );
        assert_eq!(ct_gate, ct);
    }

    // PRNG-off sanity mode (the shares degenerate, the value is intact).
    let mut off = MaskRng::disabled();
    let (ct_off, _) = ff.encrypt_with_cycles(pt, &mut off);
    println!("FF core, PRNG off:    {pt:016X} -> {ct_off:016X}  (still correct — but leaks!)");
    assert_eq!(ct_off, ct);

    println!("\nAll five implementations agree with the reference.");
}
