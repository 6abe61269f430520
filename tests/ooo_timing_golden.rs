//! Golden timing digests for the cycle-level simulators.
//!
//! `ooo_vs_golden` proves the out-of-order core computes the right
//! *values*; these tests pin its *timing*. Each test folds every
//! [`SimStats`] field of a fixed set of simulations into one FNV-1a digest:
//! the width grid behind Figs. 13/14, the depth splits behind Fig. 11
//! (including the Mem/Retire d-cache latency bump), the IQ/ROB/LSQ
//! ablation, each branch predictor, and the in-order core. Any change to a
//! cycle count, a cache or predictor decision, or a retired-instruction mix
//! moves a digest. A change that is meant to move timing must update the
//! constant here, say why, and bump the `bdc-ipc-v1` cache salt.

use bdc_core::experiments::SimBudget;
use bdc_core::{measure_ipc, CoreSpec, StageKind};
use bdc_uarch::{
    build_workload, BpredKind, CoreConfig, InOrderConfig, InOrderCore, OooCore, SimStats,
    StagePlan, Workload,
};

/// FNV-1a over the little-endian bytes of every statistic, in a fixed
/// order. The destructuring fails to compile if `SimStats` grows a field.
#[derive(Debug)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn stats(&mut self, s: &SimStats) {
        let SimStats {
            cycles,
            instructions,
            branches,
            mispredicts,
            flushes,
            icache,
            dcache,
            loads,
            stores,
        } = *s;
        for v in [
            cycles,
            instructions,
            branches,
            mispredicts,
            flushes,
            icache.0,
            icache.1,
            dcache.0,
            dcache.1,
            loads,
            stores,
        ] {
            self.word(v);
        }
    }
}

fn run_ooo(cfg: CoreConfig, w: Workload, budget: SimBudget) -> SimStats {
    let program = build_workload(w, budget.outer);
    OooCore::new(&program, cfg, w.memory_words()).run(budget.instructions)
}

fn assert_digest(name: &str, d: &Digest, runs: usize, expected: u64) {
    assert_eq!(
        d.0, expected,
        "{name}: timing digest over {runs} simulations is {:#018x}, golden {expected:#018x}",
        d.0
    );
}

/// Fig. 11's critical-stage cut sequences (organic, then silicon), as the
/// 9 → 15 stage walk produces them today.
const ORGANIC_CUTS: [StageKind; 6] = [
    StageKind::Fetch,
    StageKind::Decode,
    StageKind::Dispatch,
    StageKind::Rename,
    StageKind::Mem,
    StageKind::Fetch,
];
const SILICON_CUTS: [StageKind; 6] = [
    StageKind::Fetch,
    StageKind::Decode,
    StageKind::Dispatch,
    StageKind::Rename,
    StageKind::Mem,
    StageKind::Execute,
];

#[test]
fn fig13_width_grid_timing_is_pinned() {
    let budget = SimBudget::quick();
    let mut d = Digest::new();
    let mut runs = 0;
    for be in 3..=7 {
        for fe in 1..=6 {
            let spec = CoreSpec::with_widths(fe, be);
            for w in Workload::all() {
                d.stats(&measure_ipc(&spec, w, budget.outer, budget.instructions));
                runs += 1;
            }
        }
    }
    assert_eq!(runs, 210);
    assert_digest("fig13 width grid", &d, runs, 0x974c_b3ce_f5ae_dfb3);
}

#[test]
fn fig11_depth_split_timing_is_pinned() {
    let budget = SimBudget::quick();
    let mut specs = vec![CoreSpec::baseline()];
    for cuts in [&ORGANIC_CUTS, &SILICON_CUTS] {
        for n in 1..=cuts.len() {
            let mut spec = CoreSpec::baseline();
            spec.splits = cuts[..n].to_vec();
            if !specs.contains(&spec) {
                specs.push(spec);
            }
        }
    }
    // The cuts the walk has not taken yet, Retire included (its d-cache
    // bump is modelled even though synthesis never picks it).
    for kind in [StageKind::Issue, StageKind::RegRead, StageKind::Retire] {
        let mut spec = CoreSpec::baseline();
        spec.splits = vec![kind, kind];
        specs.push(spec);
    }
    let mut d = Digest::new();
    let mut runs = 0;
    for spec in &specs {
        for w in Workload::all() {
            d.stats(&measure_ipc(spec, w, budget.outer, budget.instructions));
            runs += 1;
        }
    }
    assert_eq!(specs.len(), 11);
    assert_digest("fig11 depth splits", &d, runs, 0x652c_a271_7cc9_ce59);
}

#[test]
fn structure_ablation_timing_is_pinned() {
    let budget = SimBudget::quick();
    let mut d = Digest::new();
    let mut runs = 0;
    for (fe, be) in [(2, 4), (2, 7)] {
        for (iq, rob, lsq) in [(8, 24, 8), (16, 48, 12), (32, 64, 16), (64, 128, 32)] {
            let mut cfg = CoreSpec::with_widths(fe, be).core_config();
            cfg.iq_size = iq;
            cfg.rob_size = rob;
            cfg.lsq_size = lsq;
            for w in [Workload::Dhrystone, Workload::Gzip, Workload::Gap] {
                d.stats(&run_ooo(cfg.clone(), w, budget));
                runs += 1;
            }
        }
    }
    assert_digest("abl-structures", &d, runs, 0xe5c3_c6f2_08f1_b899);
}

#[test]
fn branch_predictor_timing_is_pinned() {
    let budget = SimBudget::quick();
    let mut deep = CoreSpec::baseline();
    deep.splits = ORGANIC_CUTS.to_vec();
    let mut d = Digest::new();
    let mut runs = 0;
    for kind in [
        BpredKind::Gshare,
        BpredKind::Bimodal,
        BpredKind::StaticNotTaken,
    ] {
        for spec in [
            CoreSpec::baseline(),
            CoreSpec::with_widths(4, 6),
            deep.clone(),
        ] {
            let mut cfg = spec.core_config();
            cfg.bpred.kind = kind;
            for w in Workload::all() {
                d.stats(&run_ooo(cfg.clone(), w, budget));
                runs += 1;
            }
        }
    }
    assert_digest("branch predictors", &d, runs, 0x8d03_1786_132b_f472);
}

#[test]
fn inorder_timing_is_pinned() {
    let budget = SimBudget::quick();
    let deep = InOrderConfig {
        stages: StagePlan::baseline9()
            .split("fetch")
            .split("decode")
            .split("issue"),
        ..InOrderConfig::default()
    };
    let mut d = Digest::new();
    let mut runs = 0;
    for cfg in [InOrderConfig::default(), deep] {
        for w in Workload::all() {
            let program = build_workload(w, budget.outer);
            let s =
                InOrderCore::new(&program, cfg.clone(), w.memory_words()).run(budget.instructions);
            d.stats(&s);
            runs += 1;
        }
    }
    assert_digest("in-order core", &d, runs, 0xf7b8_0f9f_eb85_b009);
}
