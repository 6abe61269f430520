//! Netlist statistics: structural reports for synthesized blocks.
//!
//! Cell-count histograms, logic-depth and fanout distributions — what a
//! synthesis report prints, and what the paper's §5.5 discussion about
//! NAND2/NAND3 coverage per library reads from.

use std::collections::BTreeMap;

use crate::gate::{GateKind, Netlist};

/// Structural statistics of a netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistStats {
    /// Gate counts per kind, in [`GateKind`] order — iteration reaches
    /// rendered report bytes, so the container must be ordered.
    pub cells: BTreeMap<GateKind, usize>,
    /// Flip-flop count.
    pub flops: usize,
    /// Logic depth in gate levels (unit-delay).
    pub depth: usize,
    /// Gates per topological level.
    pub level_histogram: Vec<usize>,
    /// Maximum fanout of any net.
    pub max_fanout: usize,
    /// Mean fanout across driven nets.
    pub mean_fanout: f64,
}

/// Computes structural statistics.
pub fn netlist_stats(netlist: &Netlist) -> NetlistStats {
    let mut level = vec![0usize; netlist.net_count()];
    let mut depth = 0usize;
    let mut per_level: Vec<usize> = Vec::new();
    for g in netlist.gates() {
        let l = g.inputs.iter().map(|&i| level[i]).max().unwrap_or(0) + 1;
        level[g.output] = l;
        depth = depth.max(l);
        if per_level.len() <= l {
            per_level.resize(l + 1, 0);
        }
        per_level[l] += 1;
    }
    let fo = netlist.fanout_counts();
    let driven: Vec<usize> = fo.iter().copied().filter(|&f| f > 0).collect();
    let mean_fanout = if driven.is_empty() {
        0.0
    } else {
        driven.iter().sum::<usize>() as f64 / driven.len() as f64
    };
    NetlistStats {
        cells: netlist.histogram(),
        flops: netlist.flops().len(),
        depth,
        level_histogram: per_level,
        max_fanout: fo.into_iter().max().unwrap_or(0),
        mean_fanout,
    }
}

/// Fraction of 2-input vs 3-input coverage among NAND/NOR cells — the
/// §5.5 coverage metric. Returns `(two_input_fraction, total_nand_nor)`.
pub fn coverage_ratio(netlist: &Netlist) -> (f64, usize) {
    let h = netlist.histogram();
    let two = h.get(&GateKind::Nand2).copied().unwrap_or(0)
        + h.get(&GateKind::Nor2).copied().unwrap_or(0);
    let three = h.get(&GateKind::Nand3).copied().unwrap_or(0)
        + h.get(&GateKind::Nor3).copied().unwrap_or(0);
    let total = two + three;
    if total == 0 {
        (0.0, 0)
    } else {
        (two as f64 / total as f64, total)
    }
}

/// Renders the statistics as a report block.
pub fn render_stats(name: &str, s: &NetlistStats) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{name}:");
    // `cells` iterates in `GateKind` order, which coincides with the
    // alphabetical debug-name order the report has always printed.
    for (k, v) in &s.cells {
        let _ = writeln!(out, "  {k:?}: {v}");
    }
    let _ = writeln!(out, "  DFF: {}", s.flops);
    let _ = writeln!(
        out,
        "  depth: {} levels, max fanout {}, mean fanout {:.2}",
        s.depth, s.max_fanout, s.mean_fanout
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks;

    #[test]
    fn stats_of_a_known_structure() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let x = n.nand2(a, b); // level 1
        let y = n.inv(x); // level 2
        let z = n.nand3(y, a, b); // level 3
        let q = n.flop(z);
        n.output(q, "q");
        let s = netlist_stats(&n);
        assert_eq!(s.depth, 3);
        assert_eq!(s.flops, 1);
        assert_eq!(s.cells[&GateKind::Nand2], 1);
        assert_eq!(s.cells[&GateKind::Inv], 1);
        // a drives nand2 and nand3 → fanout 2.
        assert_eq!(s.max_fanout, 2);
    }

    #[test]
    fn multiplier_depth_scales_with_width() {
        let s8 = netlist_stats(&blocks::array_multiplier(8));
        let s16 = netlist_stats(&blocks::array_multiplier(16));
        assert!(s16.depth as f64 > 1.5 * s8.depth as f64);
        assert!(
            s16.level_histogram.iter().sum::<usize>() == blocks::array_multiplier(16).gates().len()
        );
    }

    #[test]
    fn coverage_ratio_counts_nand_nor_families() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let _ = n.nand2(a, b);
        let _ = n.nand3(a, b, c);
        let _ = n.nor2(a, b);
        let (frac, total) = coverage_ratio(&n);
        assert_eq!(total, 3);
        assert!((frac - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn render_is_nonempty_and_mentions_depth() {
        let s = netlist_stats(&blocks::ripple_adder(8));
        let text = render_stats("ripple8", &s);
        assert!(text.contains("depth:"));
        assert!(text.contains("ripple8"));
    }

    #[test]
    fn render_stats_bytes_are_pinned() {
        // Regression pin for the determinism gate (D001, `HashMap` in
        // clippy.toml): cell-count iteration reaches these bytes, so the
        // exact order — Inv, Nand2, Nand3, Nor2, Nor3 — must never depend
        // on a hash seed. This is the byte-exact output for a known
        // structure.
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let x = n.nand2(a, b); // level 1
        let y = n.inv(x); // level 2
        let z = n.nand3(y, a, b); // level 3
        let w = n.nor2(z, c); // level 4
        let v = n.nor3(w, a, c); // level 5
        let q = n.flop(v);
        n.output(q, "q");
        let s = netlist_stats(&n);
        let text = render_stats("pinned", &s);
        assert_eq!(
            text,
            "pinned:\n  Inv: 1\n  Nand2: 1\n  Nand3: 1\n  Nor2: 1\n  Nor3: 1\n  DFF: 1\n  depth: 5 levels, max fanout 3, mean fanout 1.50\n"
        );
    }
}
