//! A scalar in-order pipeline timing model.
//!
//! The organic microprocessors the paper cites (§6.1, Myny et al.) are tiny
//! in-order machines. This model provides that comparison point for the
//! parallelism extension: a single-issue pipeline with bypassing, blocking
//! caches and a configurable front-end depth, timed by walking the golden
//! interpreter's trace.

use crate::asm::Program;
use crate::bpred::{Bpred, BpredConfig};
use crate::config::StagePlan;
use crate::func::Interp;
use crate::isa::{Op, Reg};
use crate::mem::{Cache, CacheConfig};
use crate::stats::SimStats;

/// Configuration of the in-order core.
#[derive(Debug, Clone, PartialEq)]
pub struct InOrderConfig {
    /// Front-end stage plan (sets the branch-misprediction penalty).
    pub stages: StagePlan,
    /// Branch predictor.
    pub bpred: BpredConfig,
    /// L1 instruction cache.
    pub icache: CacheConfig,
    /// L1 data cache.
    pub dcache: CacheConfig,
    /// Memory latency (cycles).
    pub mem_latency: u64,
    /// Multiply latency.
    pub mul_latency: u64,
    /// Divide latency.
    pub div_latency: u64,
}

impl Default for InOrderConfig {
    fn default() -> Self {
        InOrderConfig {
            stages: StagePlan::baseline9(),
            bpred: BpredConfig::default(),
            icache: CacheConfig::l1i(),
            dcache: CacheConfig::l1d(),
            mem_latency: 24,
            mul_latency: 3,
            div_latency: 12,
        }
    }
}

/// Scalar in-order core: trace-driven timing over the functional model.
#[derive(Debug)]
pub struct InOrderCore {
    interp: Interp,
    cfg: InOrderConfig,
    bpred: Bpred,
    icache: Cache,
    dcache: Cache,
    /// Cycle at which each architectural register's value is available.
    reg_ready: [u64; 16],
    cycle: u64,
    stats: SimStats,
}

impl InOrderCore {
    /// Builds a core for `program` with `mem_words` of memory.
    pub fn new(program: &Program, cfg: InOrderConfig, mem_words: usize) -> Self {
        InOrderCore {
            interp: Interp::new(program, mem_words),
            bpred: Bpred::new(cfg.bpred),
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            reg_ready: [0; 16],
            cycle: 0,
            stats: SimStats::default(),
            cfg,
        }
    }

    /// Has the program halted?
    pub fn halted(&self) -> bool {
        self.interp.halted()
    }

    /// Architectural registers (for equivalence checks).
    pub fn regs(&self) -> &[u32; 16] {
        &self.interp.regs
    }

    /// Runs until HALT or `max_instructions`; returns statistics.
    pub fn run(&mut self, max_instructions: u64) -> SimStats {
        let mispredict_penalty =
            self.cfg.stages.front_latency() + self.cfg.stages.issue_to_execute() + 2;
        let start = self.interp.icount;
        while self.interp.icount - start < max_instructions {
            let pc = self.interp.pc;
            // Snapshot sources before executing (the step may overwrite rs1).
            let regs_before = self.interp.regs;
            let Some(step) = self.interp.step() else {
                break;
            };
            let instr = step.instr;

            // Fetch: one icache access per instruction (scalar).
            if !self.icache.access(pc) {
                self.cycle += self.icache.hit_latency() + self.cfg.mem_latency;
            }

            // Issue stalls until sources are ready (full bypassing assumed).
            let mut issue = self.cycle + 1;
            for src in instr.sources().iter() {
                issue = issue.max(self.reg_ready[src.0 as usize]);
            }

            // Execute latency.
            let latency = match instr.op {
                Op::Mul => self.cfg.mul_latency,
                Op::Div | Op::Rem => self.cfg.div_latency,
                Op::Lw => {
                    let a = regs_before[instr.rs1.0 as usize].wrapping_add(instr.imm as u32);
                    let hit = self.dcache.access(a);
                    self.stats.loads += 1;
                    if hit {
                        self.dcache.hit_latency()
                    } else {
                        self.dcache.hit_latency() + self.cfg.mem_latency
                    }
                }
                Op::Sw => {
                    let a = regs_before[instr.rs1.0 as usize].wrapping_add(instr.imm as u32);
                    let _ = self.dcache.access(a);
                    self.stats.stores += 1;
                    1
                }
                _ => 1,
            };
            let complete = issue + latency;
            if let Some((rd, _)) = step.wrote {
                if rd != Reg::ZERO {
                    self.reg_ready[rd.0 as usize] = complete;
                }
            }

            // Control flow: consult the predictor; a wrong next-PC costs the
            // front-end refill.
            if instr.op.is_control() {
                let p = self.bpred.predict(pc, instr.op, instr.rd, instr.rs1);
                let taken = step.next_pc != pc.wrapping_add(1);
                let mispredicted = p.target != step.next_pc || p.taken != taken;
                self.bpred
                    .update(pc, instr.op, taken, step.next_pc, mispredicted, p.pht_index);
                if instr.op.is_branch() {
                    self.stats.branches += 1;
                }
                if mispredicted {
                    self.stats.mispredicts += 1;
                    self.stats.flushes += 1;
                    self.cycle = complete + mispredict_penalty;
                } else {
                    self.cycle = issue;
                }
            } else {
                self.cycle = issue;
            }
            self.stats.instructions += 1;
            if self.interp.halted() {
                break;
            }
        }
        self.stats.cycles = self.cycle.max(1);
        self.stats.icache = self.icache.stats();
        self.stats.dcache = self.dcache.stats();
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build_workload, Workload};
    use crate::{CoreConfig, OooCore};

    #[test]
    fn inorder_ipc_at_most_one() {
        let p = build_workload(Workload::Dhrystone, 50);
        let mut core = InOrderCore::new(&p, InOrderConfig::default(), 1 << 15);
        let stats = core.run(100_000);
        assert!(core.halted());
        assert!(
            stats.ipc() > 0.1 && stats.ipc() <= 1.0,
            "IPC {}",
            stats.ipc()
        );
    }

    #[test]
    fn inorder_matches_functional_state() {
        let p = build_workload(Workload::Gap, 3);
        let mut gold = Interp::new(&p, Workload::Gap.memory_words());
        gold.run(2_000_000);
        let mut core = InOrderCore::new(&p, InOrderConfig::default(), Workload::Gap.memory_words());
        core.run(2_000_000);
        assert_eq!(core.regs(), &gold.regs);
    }

    #[test]
    fn ooo_beats_inorder_on_every_workload() {
        for w in Workload::all() {
            let p = build_workload(w, 20);
            let mut io = InOrderCore::new(&p, InOrderConfig::default(), w.memory_words());
            let s_io = io.run(60_000);
            let mut ooo = OooCore::new(&p, CoreConfig::with_widths(2, 4), w.memory_words());
            let s_ooo = ooo.run(60_000);
            assert!(
                s_ooo.ipc() > s_io.ipc(),
                "{}: OoO {:.3} vs in-order {:.3}",
                w.name(),
                s_ooo.ipc(),
                s_io.ipc()
            );
        }
    }

    #[test]
    fn deeper_front_end_slows_branchy_code() {
        let p = build_workload(Workload::Parser, 400);
        let shallow = InOrderCore::new(&p, InOrderConfig::default(), 1 << 15).run(60_000);
        let mut cfg = InOrderConfig::default();
        for _ in 0..6 {
            cfg.stages = cfg.stages.split("fetch");
        }
        let deep = InOrderCore::new(&p, cfg, 1 << 15).run(60_000);
        assert!(deep.ipc() < shallow.ipc());
    }
}
