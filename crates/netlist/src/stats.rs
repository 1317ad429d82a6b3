//! Netlist depth statistics used in reports and sanity checks.

use crate::netlist::Netlist;

/// Logic depth (in gate levels, delay-agnostic) of each net.
///
/// Primary inputs, constants, and FF outputs are depth 0.
pub fn logic_depth(n: &Netlist) -> Result<Vec<usize>, crate::NetlistError> {
    let order = crate::topo::combinational_order(n)?;
    let mut depth = vec![0usize; n.num_nets()];
    for gid in order {
        let g = n.gate(gid);
        let d = g.inputs.iter().map(|i| depth[i.index()]).max().unwrap_or(0);
        depth[g.output.index()] = d + 1;
    }
    Ok(depth)
}

/// Maximum combinational logic depth of the design.
pub fn max_depth(n: &Netlist) -> Result<usize, crate::NetlistError> {
    Ok(logic_depth(n)?.into_iter().max().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    #[test]
    fn depth_of_chain() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let d = n.delay_chain(a, 4);
        n.output("d", d);
        assert_eq!(max_depth(&n).unwrap(), 4);
    }
}
