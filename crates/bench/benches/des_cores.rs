//! Throughput of the DES implementations: reference vs the two masked
//! cycle-accurate cores vs the gate-level functional path. The masked
//! cores pay for share tracking and per-cycle activity records; the
//! gate-level path pays for full structural fidelity.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gm_core::MaskRng;
use gm_des::masked::{MaskedDes, MaskedDesFf, MaskedDesPd};
use gm_des::netlist_gen::driver::{encrypt_functional, EncryptionInputs};
use gm_des::netlist_gen::{build_des_core, SboxStyle};
use gm_des::Des;

fn bench_reference(c: &mut Criterion) {
    let des = Des::new(0x133457799BBCDFF1);
    c.bench_function("des_reference_block", |b| {
        b.iter(|| des.encrypt_block(black_box(0x0123456789ABCDEF)))
    });
}

fn bench_masked_cores(c: &mut Criterion) {
    let mut rng = MaskRng::new(7);
    let mut g = c.benchmark_group("masked_des");
    let plain = MaskedDes::new(0x133457799BBCDFF1);
    g.bench_function("value_model", |b| {
        b.iter(|| plain.encrypt_block(black_box(0x0123456789ABCDEF), &mut rng))
    });
    let ff = MaskedDesFf::new(0x133457799BBCDFF1);
    g.bench_function("ff_core_with_cycles", |b| {
        b.iter(|| ff.encrypt_with_cycles(black_box(0x0123456789ABCDEF), &mut rng))
    });
    let pd = MaskedDesPd::new(0x133457799BBCDFF1);
    g.bench_function("pd_core_with_cycles", |b| {
        b.iter(|| pd.encrypt_with_cycles(black_box(0x0123456789ABCDEF), &mut rng))
    });
    g.finish();
}

fn bench_netlist_core(c: &mut Criterion) {
    let core = build_des_core(SboxStyle::Ff);
    let mut rng = MaskRng::new(8);
    let mut g = c.benchmark_group("gate_level");
    g.sample_size(10);
    g.bench_function("ff_core_functional", |b| {
        b.iter(|| {
            let inputs =
                EncryptionInputs::draw(black_box(0x0123456789ABCDEF), 0x133457799BBCDFF1, &mut rng);
            encrypt_functional(&core, &inputs)
        })
    });
    g.bench_function("build_ff_core_netlist", |b| b.iter(|| build_des_core(SboxStyle::Ff)));
    g.finish();
}

criterion_group!(benches, bench_reference, bench_masked_cores, bench_netlist_core);
criterion_main!(benches);
