//! Quickstart: mask values, run the paper's gadgets, see why glitches
//! matter, and run a miniature leakage assessment.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use glitchmask::leakage::{Campaign, Class, TraceSource};
use glitchmask::masking::analysis::probing::{probe_check, simultaneous};
use glitchmask::masking::gadgets::sec_and2::{build_insecure_and2, build_sec_and2};
use glitchmask::masking::gadgets::{sec_and2, AndInputs};
use glitchmask::masking::{MaskRng, MaskedBit};
use glitchmask::netlist::Netlist;
use glitchmask::sim::DelayModel;

fn main() {
    // --- 1. Boolean masking basics -----------------------------------
    let mut rng = MaskRng::new(1);
    let x = MaskedBit::mask(true, &mut rng);
    let y = MaskedBit::mask(false, &mut rng);
    println!("x = 1 shared as ({}, {})", u8::from(x.s0), u8::from(x.s1));

    // Linear ops are share-wise; AND needs a gadget.
    let xor = x.xor(y);
    let and = sec_and2(x, y);
    println!(
        "x ⊕ y = {}, x · y = {} (via secAND2, no fresh randomness)",
        u8::from(xor.unmask()),
        u8::from(and.unmask())
    );

    // --- 2. Probing security, checked exhaustively --------------------
    // Every share assignment runs through the event simulator, all four
    // shares arriving together; "stationary" asks whether any wire's
    // settled value depends on the unshared x or y.
    let mut n = Netlist::new("demo");
    let io =
        AndInputs { x0: n.input("x0"), x1: n.input("x1"), y0: n.input("y0"), y1: n.input("y1") };
    let good = build_sec_and2(&mut n, io);
    n.output("z0", good.z0);
    n.output("z1", good.z1);
    let report = probe_check(
        &n,
        &simultaneous(&[(io.x0, io.x1), (io.y0, io.y1)], 1_000),
        &DelayModel::nominal(&n),
    );
    println!("\nsecAND2 stationary first-order probing secure: {}", report.stationary.is_empty());

    let mut n2 = Netlist::new("demo_bad");
    let io2 = AndInputs {
        x0: n2.input("x0"),
        x1: n2.input("x1"),
        y0: n2.input("y0"),
        y1: n2.input("y1"),
    };
    let bad = build_insecure_and2(&mut n2, io2);
    n2.output("z0", bad.z0);
    n2.output("z1", bad.z1);
    let report = probe_check(
        &n2,
        &simultaneous(&[(io2.x0, io2.x1), (io2.y0, io2.y1)], 1_000),
        &DelayModel::nominal(&n2),
    );
    println!(
        "classical masked AND probing secure: {} (its z0 = x0·y)",
        report.stationary.is_empty()
    );

    // --- 3. A two-minute TVLA ----------------------------------------
    // A toy "device" leaking its fixed-class bit into one sample.
    #[derive(Clone)]
    struct Toy(MaskRng);
    impl TraceSource for Toy {
        fn fork(&self, s: u64) -> Self {
            Toy(MaskRng::new(s ^ 0x77))
        }
        fn num_samples(&self) -> usize {
            2
        }
        fn trace(&mut self, class: Class, out: &mut [f64]) {
            let noise = f64::from(self.0.bits(4) as u32) / 8.0;
            out[0] = noise;
            out[1] = noise + if class == Class::Fixed { 0.4 } else { 0.0 };
        }
    }
    let result = Campaign::sequential(20_000, 3).run(&Toy(MaskRng::new(9)));
    let t = result.t1();
    println!("\nTVLA on a leaky toy: t = [{:.1}, {:.1}] (±4.5 threshold)", t[0], t[1]);
    println!("sample 1 flags, sample 0 does not — the harness works.");
    println!("\nNext: `cargo run --release --example masked_des`");
}
