//! Monte-Carlo glitch-extended probing analysis.
//!
//! The stationary check ([`crate::analysis::probing`]) cannot see what a
//! probe observes *during* a transition. This module drives a gadget
//! netlist through the `gm-sim` event engine under a chosen input arrival
//! schedule and asks, for every wire, whether its **expected toggle
//! count** depends on the unshared inputs. That is exactly the physical
//! quantity a power probe integrates, and it is the mechanism that makes
//! half of Table I's sequences leak.
//!
//! Randomised per-event jitter makes internal race outcomes (who wins the
//! XOR race) vary across trials, so systematic order effects show up as
//! biases rather than artefacts of one fixed delay assignment.

use crate::rng::MaskRng;
use crate::share::MaskedBit;
use gm_netlist::{NetId, Netlist};
use gm_sim::power::NetToggleSink;
use gm_sim::{DelayModel, SimCore, SimGraph};

/// Outcome of a glitch-extended probe analysis.
#[derive(Debug, Clone)]
pub struct GlitchProbeReport {
    /// Per-net bias: the largest deviation of any value-class's expected
    /// toggle count from the overall mean, in toggles.
    pub per_net_bias: Vec<f64>,
    /// Largest per-net bias in the design.
    pub max_bias: f64,
    /// Net achieving [`GlitchProbeReport::max_bias`].
    pub worst_net: NetId,
}

impl GlitchProbeReport {
    /// Decision helper: biases above `threshold` toggles are leaks.
    pub fn leaks(&self, threshold: f64) -> bool {
        self.max_bias > threshold
    }
}

/// Run the analysis on a two-variable gadget netlist.
///
/// * `vars` — share-net pairs `(s0, s1)` of the masked variables (≤ 3);
/// * `arrivals` — `(net, time_ps)`: when each share net's value is applied
///   (the arrival schedule under test). Every share net must appear once.
/// * `trials` — Monte-Carlo sample count;
/// * `jitter_sigma_ps` — per-event delay jitter fed to the simulator.
///
/// The circuit starts from the all-zero reset state each trial, mirroring
/// the Table I experiment setup.
pub fn glitch_probe(
    netlist: &Netlist,
    vars: &[(NetId, NetId)],
    arrivals: &[(NetId, u64)],
    trials: u64,
    jitter_sigma_ps: f64,
    seed: u64,
) -> GlitchProbeReport {
    assert!(!vars.is_empty() && vars.len() <= 3, "1..=3 masked variables");
    let num_classes = 1usize << vars.len();
    let num_nets = netlist.num_nets();
    let end_time = arrivals.iter().map(|&(_, t)| t).max().unwrap_or(0) + 1_000_000;

    let delays = DelayModel::with_variation(netlist, 0.15, jitter_sigma_ps, seed);
    let graph = SimGraph::new(netlist);
    let mut sim = SimCore::new(&graph, seed);
    let mut rng = MaskRng::new(seed ^ 0x5851_f42d_4c95_7f2d);

    let mut sums = vec![vec![0f64; num_nets]; num_classes];
    let mut counts = vec![0u64; num_classes];
    let mut sink = NetToggleSink::new(num_nets);

    for trial in 0..trials {
        // Sample unshared values and sharings.
        let mut class = 0usize;
        let mut assignment: Vec<(NetId, bool)> = Vec::with_capacity(2 * vars.len());
        for (i, &(s0, s1)) in vars.iter().enumerate() {
            let value = rng.bit();
            class |= (value as usize) << i;
            let shared = MaskedBit::mask(value, &mut rng);
            assignment.push((s0, shared.s0));
            assignment.push((s1, shared.s1));
        }

        sim.reset(&graph, seed ^ trial);
        for &(net, t) in arrivals {
            let v = assignment
                .iter()
                .find(|&&(a, _)| a == net)
                .map(|&(_, v)| v)
                .expect("every scheduled net must be a share net");
            sim.schedule(net, t, v);
        }
        sink.clear();
        sim.run_until(&graph, &delays, end_time, &mut sink);

        counts[class] += 1;
        for (s, &c) in sums[class].iter_mut().zip(&sink.counts) {
            *s += f64::from(c);
        }
    }

    let total: u64 = counts.iter().sum();
    let mut per_net_bias = vec![0.0; num_nets];
    let mut max_bias = 0.0;
    let mut worst_net = NetId(0);
    for net in 0..num_nets {
        let overall: f64 = sums.iter().map(|s| s[net]).sum::<f64>() / total as f64;
        let mut bias = 0.0f64;
        for c in 0..num_classes {
            if counts[c] == 0 {
                continue;
            }
            let mean_c = sums[c][net] / counts[c] as f64;
            bias = bias.max((mean_c - overall).abs());
        }
        per_net_bias[net] = bias;
        if bias > max_bias {
            max_bias = bias;
            worst_net = NetId(net as u32);
        }
    }
    GlitchProbeReport { per_net_bias, max_bias, worst_net }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadgets::sec_and2::build_sec_and2;
    use crate::gadgets::AndInputs;
    use crate::schedule::{all_sequences, predicted_leaky, InputShare};

    fn fixture() -> (Netlist, AndInputs) {
        let mut n = Netlist::new("g");
        let io = AndInputs {
            x0: n.input("x0"),
            x1: n.input("x1"),
            y0: n.input("y0"),
            y1: n.input("y1"),
        };
        let out = build_sec_and2(&mut n, io);
        n.output("z0", out.z0);
        n.output("z1", out.z1);
        n.validate().unwrap();
        (n, io)
    }

    fn schedule_for(io: AndInputs, seq: &[InputShare; 4]) -> Vec<(NetId, u64)> {
        // One share per "cycle", 100 ns apart — far beyond settle time.
        seq.iter()
            .enumerate()
            .map(|(i, s)| {
                let net = match s {
                    InputShare::X0 => io.x0,
                    InputShare::X1 => io.x1,
                    InputShare::Y0 => io.y0,
                    InputShare::Y1 => io.y1,
                };
                (net, 10_000 + 100_000 * i as u64)
            })
            .collect()
    }

    /// The glitch-extended analysis agrees with the paper's Table I rule
    /// on a representative leaky and a representative safe sequence.
    #[test]
    fn table1_spot_check() {
        let (n, io) = fixture();
        // y1 y0 x1 x0 — ends in x0: leaks.
        let leaky = [InputShare::Y1, InputShare::Y0, InputShare::X1, InputShare::X0];
        // x0 x1 y0 y1 — ends in y1: safe.
        let safe = [InputShare::X0, InputShare::X1, InputShare::Y0, InputShare::Y1];
        assert!(predicted_leaky(&leaky) && !predicted_leaky(&safe));

        let r_leaky = glitch_probe(
            &n,
            &[(io.x0, io.x1), (io.y0, io.y1)],
            &schedule_for(io, &leaky),
            3_000,
            60.0,
            7,
        );
        let r_safe = glitch_probe(
            &n,
            &[(io.x0, io.x1), (io.y0, io.y1)],
            &schedule_for(io, &safe),
            3_000,
            60.0,
            7,
        );
        assert!(
            r_leaky.max_bias > 4.0 * r_safe.max_bias.max(0.02),
            "leaky {} vs safe {}",
            r_leaky.max_bias,
            r_safe.max_bias
        );
    }

    /// Full agreement with the analytic rule across all 24 sequences is
    /// exercised by the `table1` experiment binary; here we check the
    /// dichotomy statistically on a few sequences from each side.
    #[test]
    fn rule_agreement_sampled() {
        let (n, io) = fixture();
        let vars = [(io.x0, io.x1), (io.y0, io.y1)];
        let mut worst_safe = 0.0f64;
        let mut best_leaky = f64::MAX;
        for (i, seq) in all_sequences().into_iter().enumerate() {
            if i % 6 != 0 {
                continue; // sample 4 sequences for test speed
            }
            let r = glitch_probe(&n, &vars, &schedule_for(io, &seq), 2_000, 60.0, 11);
            if predicted_leaky(&seq) {
                best_leaky = best_leaky.min(r.max_bias);
            } else {
                worst_safe = worst_safe.max(r.max_bias);
            }
        }
        assert!(
            best_leaky > worst_safe,
            "leaky sequences must show more bias: best_leaky={best_leaky} worst_safe={worst_safe}"
        );
    }
}
