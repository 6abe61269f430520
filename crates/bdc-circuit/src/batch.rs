//! Batched lockstep transient analysis over a structure-of-arrays state.
//!
//! Cell characterization solves the *same topology* many times: every
//! (slew, load) grid point differs only in element values and drive
//! waveforms. This module advances a whole batch of such lanes through one
//! shared time loop: the matrix *structure* (zero pattern, pivot-candidate
//! rows, element ordering) is identical across lanes, so every inner loop —
//! mat-vec, LU elimination, triangular solves, Newton updates — runs with
//! the lane index innermost over contiguous lane runs and auto-vectorizes.
//! Cells have < 30 unknowns, so the entire batch state stays cache-resident.
//!
//! # Bit-identity contract
//!
//! A lane's trajectory is **bit-identical** to running [`TranSolver`] on
//! that lane's circuit alone. Everything per-lane that affects rounding is
//! replicated exactly from the scalar kernel:
//!
//! * per-lane partial pivoting (pivot rows may differ between lanes — row
//!   swaps and interchange vectors are per lane);
//! * the scalar elimination's `factor == 0.0` row skip becomes a per-lane
//!   select (`if f == 0.0 { old } else { old - f·p }`), preserving `-0.0`
//!   exactly where the skip would;
//! * per-lane Newton convergence masks with the same iteration-indexed
//!   residual checks, step clamp, and 8-trial backtracking line search;
//! * per-lane time-step fallback: a lane that fails a full step drops into
//!   the scalar [`TranSolver`] step-cutting path and rejoins the lockstep
//!   loop at the next step.
//!
//! The intentional departures are *work scheduling*, never values: FET
//! model evaluations are cached by exact `(v_gs, v_ds)` bits, the Jacobian
//! `g_m`/`g_ds` stamps are deferred until after the residual convergence
//! check (the scalar kernel evaluates them unconditionally and discards
//! them on the converged iteration), and when lanes retire or fail the
//! survivors are **compacted** into a narrower structure-of-arrays so every
//! vector loop runs at the live width. All three reuse, skip, or relocate
//! evaluations of per-lane-independent computations — they never change a
//! value that is used: every kernel loop is elementwise in the lane
//! dimension, so a lane's arithmetic is identical at any slot and width.

use std::sync::Arc;

use bdc_device::DeviceModel;

use crate::dc::{DcSolver, Operating};
use crate::error::CircuitError;
use crate::netlist::{Circuit, Element, NodeId};
use crate::tran::{
    build_base, build_step_consts, update_cap_hist, Integrator, Scratch, TranSolver, Waveform,
};

/// One independent simulation in a batch: a circuit (structurally identical
/// to every other lane's), its drive waveforms, and an optional precomputed
/// initial state (the shared-DC-operating-point reuse characterization
/// depends on).
#[derive(Debug, Clone)]
pub struct BatchLane {
    /// The lane's circuit. Element *values* (resistances, capacitances,
    /// device models) may differ between lanes; kinds, terminals, and
    /// ordering must match.
    pub circuit: Circuit,
    /// Waveforms attached to voltage sources, as in [`TranSolver::drive`].
    pub drives: Vec<(usize, Waveform)>,
    /// Node voltages seeding the run (see
    /// [`TranSolver::with_initial_state`]); `None` solves DC internally.
    pub initial_state: Option<Vec<f64>>,
}

impl BatchLane {
    /// Wraps a circuit with no drives and an internal DC initial condition.
    pub fn new(circuit: Circuit) -> Self {
        BatchLane {
            circuit,
            drives: Vec::new(),
            initial_state: None,
        }
    }

    /// Attaches a waveform to voltage source `src_idx`.
    #[must_use]
    pub fn drive(mut self, src_idx: usize, waveform: Waveform) -> Self {
        self.drives.push((src_idx, waveform));
        self
    }

    /// Seeds the lane with a precomputed operating point.
    #[must_use]
    pub fn with_initial_state(mut self, op: &Operating) -> Self {
        self.initial_state = Some(op.node_voltages().to_vec());
        self
    }
}

/// Fixed-step transient solver advancing many lanes in lockstep.
///
/// Mirrors [`TranSolver`]'s numerical parameters; see the
/// [module documentation](self) for the bit-identity contract.
#[derive(Debug, Clone)]
pub struct BatchTranSolver {
    tstep: f64,
    tstop: f64,
    /// NR iteration limit per time step.
    pub max_iterations: usize,
    /// Voltage convergence tolerance per step (V).
    pub v_tol: f64,
    /// Largest voltage change per NR iteration (V).
    pub step_clamp: f64,
    /// Capacitor integration method.
    pub integrator: Integrator,
}

impl BatchTranSolver {
    /// Creates a solver with time step `tstep` and end time `tstop`.
    ///
    /// # Panics
    /// Panics if either is non-positive or non-finite.
    pub fn new(tstep: f64, tstop: f64) -> Self {
        assert!(tstep > 0.0 && tstep.is_finite(), "tstep must be positive");
        assert!(tstop > 0.0 && tstop.is_finite(), "tstop must be positive");
        BatchTranSolver {
            tstep,
            tstop,
            max_iterations: 150,
            v_tol: 1.0e-7,
            step_clamp: 5.0,
            integrator: Integrator::default(),
        }
    }

    /// Sets the per-iteration voltage step clamp.
    #[must_use]
    pub fn with_step_clamp(mut self, clamp: f64) -> Self {
        assert!(clamp > 0.0, "step clamp must be positive");
        self.step_clamp = clamp;
        self
    }

    /// Selects the capacitor integration method.
    #[must_use]
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Runs all lanes in lockstep. After every accepted step the observer
    /// is called per live lane (in lane order) with
    /// `(lane, t, non-ground node voltages)`; returning `false` retires the
    /// lane early with an `Ok(())` result — characterization uses this to
    /// stop a lane as soon as every timing crossing has been measured.
    /// The observer also sees the `t = 0` initial state.
    ///
    /// Per-lane failures never abort the batch: the lane's slot records the
    /// error and the remaining lanes continue. Whenever lanes retire or
    /// fail, the survivors are compacted into a narrower
    /// structure-of-arrays so every vector loop — mat-vec, LU, line-search
    /// trials — runs at the live width. Compaction is pure work
    /// scheduling: each lane's arithmetic is elementwise in the lane
    /// dimension and therefore independent of its slot and of the batch
    /// width, so results stay bit-identical.
    ///
    /// # Panics
    /// Panics if `lanes` is empty or the lanes are not structurally
    /// identical (element kinds/terminals, node count, source count).
    pub fn run<F>(&self, lanes: &[BatchLane], mut observer: F) -> Vec<Result<(), CircuitError>>
    where
        F: FnMut(usize, f64, &[f64]) -> bool,
    {
        assert!(!lanes.is_empty(), "batch needs at least one lane");
        assert_same_structure(lanes);
        let nl = lanes.len();
        let template = &lanes[0].circuit;
        let nv = template.node_count() - 1;
        let ns = template.vsource_count();
        let n = nv + ns;

        let mut results: Vec<Result<(), CircuitError>> = (0..nl).map(|_| Ok(())).collect();

        // Per-lane work circuits with drives at their t = 0 values — the
        // same preparation TranSolver::run performs.
        let mut works: Vec<Circuit> = lanes
            .iter()
            .map(|ln| {
                let mut w = ln.circuit.clone();
                for (idx, wf) in &ln.drives {
                    w.set_vsource(*idx, wf.eval(0.0));
                }
                w
            })
            .collect();

        // Initial condition per lane (bit-identical to the scalar paths),
        // plus the t = 0 observation the scalar result records. A lane the
        // observer retires immediately never enters the lockstep state;
        // `order` maps each live slot back to its original lane index.
        let mut order: Vec<usize> = Vec::with_capacity(nl);
        let mut x0s: Vec<Vec<f64>> = Vec::with_capacity(nl);
        let mut state_l = vec![0.0f64; nv];
        for (l, ln) in lanes.iter().enumerate() {
            let mut x0 = vec![0.0f64; n];
            let init = match &ln.initial_state {
                Some(v0) => works[l].validate().map(|()| {
                    let k = v0.len().min(nv);
                    x0[..k].copy_from_slice(&v0[..k]);
                }),
                None => DcSolver::new().solve(&works[l]).map(|op0| {
                    x0[..nv].copy_from_slice(op0.node_voltages());
                }),
            };
            if let Err(e) = init {
                results[l] = Err(e);
                continue;
            }
            state_l.copy_from_slice(&x0[..nv]);
            if observer(l, 0.0, &state_l) {
                order.push(l);
                x0s.push(x0);
            }
        }

        let steps = (self.tstop / self.tstep).ceil() as usize;
        let h = self.tstep;
        let mut w = order.len();
        if w == 0 {
            return results;
        }

        // Persistent SoA state, packed at the live width: the batch state
        // vector and the per-lane constant base matrices.
        let mut x = vec![0.0f64; n * w];
        for (s, x0) in x0s.iter().enumerate() {
            scatter_lane(x0, w, s, n, &mut x);
        }
        let mut base = BatchMat::zeros(n, w);
        for (s, &l) in order.iter().enumerate() {
            let b = build_base(&works[l], n, nv, h, self.integrator);
            for r in 0..n {
                for c in 0..n {
                    base.data[(r * n + c) * w + s] = b.get(r, c);
                }
            }
        }

        // FET structure (shared) and models per live slot (usually clones
        // of the same Arc in a characterization pack, but allowed to
        // differ).
        let fets = collect_fets(template);
        let nf = fets.len();
        let mut slot_models: Vec<Vec<Arc<dyn DeviceModel>>> = order
            .iter()
            .map(|&l| {
                works[l]
                    .elements()
                    .iter()
                    .filter_map(|e| match e {
                        Element::Fet { model, .. } => Some(model.clone()),
                        _ => None,
                    })
                    .collect()
            })
            .collect();

        // Companion history per lane in the scalar layout: the step-constant
        // build and the fallback path both consume it as-is.
        let n_caps = template
            .elements()
            .iter()
            .filter(|e| matches!(e, Element::Capacitor { .. }))
            .count();
        let mut cap_hist: Vec<Vec<f64>> = (0..nl).map(|_| vec![0.0f64; n_caps]).collect();

        // Scalar fallback machinery: one solver per lane carrying that
        // lane's drives, plus shared scratch buffers.
        let fallback: Vec<TranSolver> = lanes
            .iter()
            .map(|ln| {
                let mut s = TranSolver::new(self.tstep, self.tstop)
                    .with_step_clamp(self.step_clamp)
                    .with_integrator(self.integrator);
                for (idx, wf) in &ln.drives {
                    s = s.drive(*idx, wf.clone());
                }
                s.max_iterations = self.max_iterations;
                s.v_tol = self.v_tol;
                s
            })
            .collect();
        let mut scalar_scratch = Scratch::new(n);
        let mut scalar_cstep = vec![0.0f64; n];
        let mut lane_x = vec![0.0f64; n];
        let mut lane_prev = vec![0.0f64; nv];

        let mut nr = NrState::new(n, nv, w, nf);
        let mut c_step = vec![0.0f64; n * w];
        let mut prev = vec![0.0f64; nv * w];
        let mut x_save = vec![0.0f64; n * w];
        let mut c_tmp = vec![0.0f64; n];
        let mut keep = vec![true; w];

        for k in 1..=steps {
            let t = k as f64 * h;
            prev.copy_from_slice(&x[..nv * w]);
            x_save.copy_from_slice(&x);
            for (s, &l) in order.iter().enumerate() {
                for (idx, wf) in &lanes[l].drives {
                    works[l].set_vsource(*idx, wf.eval(t));
                }
                gather_lane(&prev, w, s, nv, &mut lane_prev);
                build_step_consts(
                    &works[l],
                    &lane_prev,
                    &cap_hist[l],
                    h,
                    self.integrator,
                    nv,
                    &mut c_tmp,
                );
                scatter_lane(&c_tmp, w, s, n, &mut c_step);
            }

            let outcomes = self.nr_lockstep(&base, &c_step, &mut x, &fets, &slot_models, &mut nr);

            keep.clear();
            keep.resize(w, true);
            for (s, outcome) in outcomes.into_iter().enumerate() {
                let l = order[s];
                match outcome {
                    StepOutcome::Converged => {
                        if self.integrator == Integrator::Trapezoidal {
                            gather_lane(&x, w, s, n, &mut lane_x);
                            gather_lane(&prev, w, s, nv, &mut lane_prev);
                            update_cap_hist(&works[l], &lane_x, &lane_prev, h, &mut cap_hist[l]);
                        }
                    }
                    StepOutcome::NoConvergence { residual } => {
                        // Per-lane local step cutting: exactly the scalar
                        // run loop's recovery, on this lane's state alone.
                        gather_lane(&x_save, w, s, n, &mut lane_x);
                        gather_lane(&prev, w, s, nv, &mut lane_prev);
                        let fell = fallback[l].advance_subdivided(
                            &mut works[l],
                            &lane_prev,
                            t - h,
                            h,
                            nv,
                            n,
                            &mut lane_x,
                            &mut cap_hist[l],
                            &mut scalar_cstep,
                            &mut scalar_scratch,
                            residual,
                        );
                        match fell {
                            Ok(()) => scatter_lane(&lane_x, w, s, n, &mut x),
                            Err(e) => {
                                results[l] = Err(e);
                                keep[s] = false;
                                continue;
                            }
                        }
                    }
                    StepOutcome::Failed(e) => {
                        results[l] = Err(e);
                        keep[s] = false;
                        continue;
                    }
                }
                gather_lane(&x, w, s, nv, &mut state_l);
                if !observer(l, t, &state_l) {
                    keep[s] = false;
                }
            }

            // Compact the persistent SoA state to the surviving slots so
            // the next step's vector loops run at the live width. Slots are
            // independent, so moving a lane left changes which cache line
            // it occupies — never its values.
            if keep.iter().any(|&kp| !kp) {
                let new_w = keep.iter().filter(|&&kp| kp).count();
                if new_w == 0 {
                    return results;
                }
                let mut new_order = Vec::with_capacity(new_w);
                let mut new_models = Vec::with_capacity(new_w);
                let mut new_x = vec![0.0f64; n * new_w];
                let mut new_base = BatchMat::zeros(n, new_w);
                let mut new_cache = IdsCache::new(nf * new_w);
                let mut new_lin = LinCache::new(nf * new_w);
                let mut d = 0usize;
                for s in 0..w {
                    if !keep[s] {
                        continue;
                    }
                    new_order.push(order[s]);
                    new_models.push(std::mem::take(&mut slot_models[s]));
                    for i in 0..n {
                        new_x[i * new_w + d] = x[i * w + s];
                    }
                    for rc in 0..n * n {
                        new_base.data[rc * new_w + d] = base.data[rc * w + s];
                    }
                    for fi in 0..nf {
                        let (src, dst) = (fi * w + s, fi * new_w + d);
                        for way in 0..2 {
                            let (se, de) = (2 * src + way, 2 * dst + way);
                            new_cache.vgs[de] = nr.cache.vgs[se];
                            new_cache.vds[de] = nr.cache.vds[se];
                            new_cache.ids[de] = nr.cache.ids[se];
                            new_lin.vgs[de] = nr.lin_cache.vgs[se];
                            new_lin.vds[de] = nr.lin_cache.vds[se];
                            new_lin.gm[de] = nr.lin_cache.gm[se];
                            new_lin.gds[de] = nr.lin_cache.gds[se];
                        }
                        new_cache.next[dst] = nr.cache.next[src];
                        new_lin.next[dst] = nr.lin_cache.next[src];
                    }
                    d += 1;
                }
                order = new_order;
                slot_models = new_models;
                x = new_x;
                base = new_base;
                w = new_w;
                nr = NrState::new(n, nv, w, nf);
                nr.cache = new_cache;
                nr.lin_cache = new_lin;
                c_step = vec![0.0f64; n * w];
                prev = vec![0.0f64; nv * w];
                x_save = vec![0.0f64; n * w];
            }
        }
        results
    }

    /// One lockstep NR time step across the (compacted) live batch — every
    /// slot is live at entry. Replicates `TranSolver::nr_solve_step` per
    /// lane; see the module docs for the scheduling-only departures
    /// (ids cache, deferred Jacobian, compaction).
    fn nr_lockstep(
        &self,
        base: &BatchMat,
        c_step: &[f64],
        x: &mut [f64],
        fets: &[FetRef],
        slot_models: &[Vec<Arc<dyn DeviceModel>>],
        s: &mut NrState,
    ) -> Vec<StepOutcome> {
        let nl = base.lanes;
        let n = base.n;
        let nv = s.nv;
        let nf = fets.len();
        let mut out: Vec<StepOutcome> = (0..nl)
            .map(|_| StepOutcome::NoConvergence {
                residual: f64::INFINITY,
            })
            .collect();
        // Residual norms by batch slot, so mid-step compaction never has
        // to move them.
        let mut last_res = vec![f64::INFINITY; nl];
        let mut res_full = vec![f64::INFINITY; nl];

        // Iterating working set: compact column `j` holds batch slot
        // `live[j]`. Every vector loop runs at width `m = live.len()`;
        // on straggler steps (see `COMPACT_AFTER`) the set is re-packed
        // from the batch-width sources (`base`, `c_step`, `x`) so the
        // remaining iterations stop paying for finished lanes. `base` is
        // constant across the run, so `base_c` only needs re-gathering
        // after a step that compacted it.
        let mut live: Vec<usize> = (0..nl).collect();
        let mut m = nl;
        if s.base_dirty {
            s.base_c.set_lanes(nl);
            s.base_c.copy_from(base);
            s.base_dirty = false;
        }
        s.x_c[..n * nl].copy_from_slice(x);
        s.c_step_c[..n * nl].copy_from_slice(c_step);
        let mut running: Vec<bool> = vec![true; m];

        // Columns finishing before this iteration stay in place under a
        // mask (compacting every event would cost more in re-gathers than
        // it saves on short steps); past it, a step is a straggler and the
        // survivors are worth re-packing.
        const COMPACT_AFTER: usize = 8;

        for it in 0..self.max_iterations {
            if m == 0 {
                break;
            }
            // f = base·x + c_step + FET channel currents, at live width.
            s.base_c.mul_vec_into(&s.x_c[..n * m], &mut s.f[..n * m]);
            for (fi, ci) in s.f[..n * m].iter_mut().zip(&s.c_step_c[..n * m]) {
                *fi += *ci;
            }
            stamp_ids(
                fets,
                slot_models,
                &s.x_c[..n * m],
                &live,
                nl,
                &running,
                &mut s.f,
                &mut s.cache,
                None,
            );

            for j in 0..m {
                if !running[j] {
                    continue;
                }
                let l = live[j];
                let (rf, lr) = lane_residuals(&s.f, m, j, n, nv);
                res_full[l] = rf;
                last_res[l] = lr;
                if it > 0 && rf < 1.0e-10 {
                    out[l] = StepOutcome::Converged;
                    running[j] = false;
                }
            }
            if !running.iter().any(|&r| r) {
                break;
            }

            // Jacobian: constant stamps restored wholesale, FET
            // linearizations added for the lanes still iterating. The
            // gm/gds pair is memoized on exact voltage bits like the ids
            // cache: in settled stretches the state repeats bit-for-bit
            // step after step, and the (expensive, finite-differenced)
            // linearization of a pure model is identical on a hit.
            s.jac.set_lanes(m);
            s.jac.copy_from(&s.base_c);
            for (fi, fet) in fets.iter().enumerate() {
                for j in 0..m {
                    if !running[j] {
                        continue;
                    }
                    let vgs = fet_v(&s.x_c, m, j, fet.rg) - fet_v(&s.x_c, m, j, fet.rs);
                    let vds = fet_v(&s.x_c, m, j, fet.rd) - fet_v(&s.x_c, m, j, fet.rs);
                    let l = live[j];
                    let cj = fi * nl + l;
                    let lin = &mut s.lin_cache;
                    let (gm, gds) = if let Some(g) = lin.get(cj, vgs, vds) {
                        g
                    } else {
                        let model = slot_models[l][fi].as_ref();
                        let g = (model.gm(vgs, vds), model.gds(vgs, vds));
                        lin.put(cj, vgs, vds, g.0, g.1);
                        g
                    };
                    s.jac.stamp_fet_jac(j, fet, gm, gds);
                }
            }

            for (r, fv) in s.rhs[..n * m].iter_mut().zip(s.f[..n * m].iter()) {
                *r = -fv;
            }
            s.jac
                .lu_factor(&mut s.piv[..n * m], &running, &mut s.sing[..m]);
            for j in 0..m {
                if running[j] {
                    if let Some(col) = s.sing[j] {
                        out[live[j]] =
                            StepOutcome::Failed(CircuitError::SingularMatrix { pivot: col });
                        running[j] = false;
                    }
                }
            }
            if !running.iter().any(|&r| r) {
                break;
            }
            s.jac
                .lu_solve(&s.piv[..n * m], &running, &mut s.rhs[..n * m]);
            for i in 0..n {
                let row = &s.rhs[i * m..(i + 1) * m];
                let dst = &mut s.dx[i * m..(i + 1) * m];
                if i < nv {
                    for (d, r) in dst.iter_mut().zip(row) {
                        *d = r.clamp(-self.step_clamp, self.step_clamp);
                    }
                } else {
                    dst.copy_from_slice(row);
                }
            }

            // Per-lane backtracking line search, trials in lockstep. A lane
            // whose trial contracts the residual freezes its scale (the
            // scalar break); the rest keep halving.
            let mut searching: Vec<bool> = running.clone();
            for j in 0..m {
                s.scale[j] = 1.0;
                s.best_scale[j] = 1.0;
                s.best_res[j] = f64::INFINITY;
            }
            for _half in 0..8 {
                if !searching.iter().any(|&g| g) {
                    break;
                }
                for i in 0..n * m {
                    s.x_try[i] = s.x_c[i] + s.scale[i % m] * s.dx[i];
                }
                s.base_c.mul_vec_into(&s.x_try[..n * m], &mut s.f[..n * m]);
                for (fi, ci) in s.f[..n * m].iter_mut().zip(&s.c_step_c[..n * m]) {
                    *fi += *ci;
                }
                stamp_ids(
                    fets,
                    slot_models,
                    &s.x_try[..n * m],
                    &live,
                    nl,
                    &searching,
                    &mut s.f,
                    &mut s.cache,
                    Some(&mut s.trial_ids),
                );
                for j in 0..m {
                    if !searching[j] {
                        continue;
                    }
                    let (res_try, _) = lane_residuals(&s.f, m, j, n, nv);
                    if res_try < s.best_res[j] {
                        s.best_res[j] = res_try;
                        s.best_scale[j] = s.scale[j];
                        for fi in 0..nf {
                            s.best_ids[fi * m + j] = s.trial_ids[fi * m + j];
                        }
                    }
                    if res_try < res_full[live[j]] {
                        searching[j] = false;
                    } else {
                        s.scale[j] *= 0.5;
                    }
                }
            }

            for j in 0..m {
                if !running[j] {
                    continue;
                }
                let l = live[j];
                if s.best_scale[j] != s.scale[j] {
                    for i in 0..n {
                        let idx = i * m + j;
                        s.x_try[idx] = s.x_c[idx] + s.best_scale[j] * s.dx[idx];
                    }
                }
                let mut dv = 0.0f64;
                for i in 0..n {
                    let idx = i * m + j;
                    s.x_c[idx] = s.x_try[idx];
                    x[i * nl + l] = s.x_try[idx];
                    if i < nv {
                        dv = dv.max((s.best_scale[j] * s.dx[idx]).abs());
                    }
                }
                last_res[l] = s.best_res[j];
                // Seed the ids cache with the accepted trial: the next
                // iteration's residual build re-derives the same
                // (v_gs, v_ds) bits from the updated state, so each FET's
                // first evaluation there is a guaranteed hit.
                for (fi, fet) in fets.iter().enumerate() {
                    let vgs = fet_v(&s.x_c, m, j, fet.rg) - fet_v(&s.x_c, m, j, fet.rs);
                    let vds = fet_v(&s.x_c, m, j, fet.rd) - fet_v(&s.x_c, m, j, fet.rs);
                    let cj = fi * nl + l;
                    s.cache.put(cj, vgs, vds, s.best_ids[fi * m + j]);
                }
                if dv < self.v_tol && s.best_res[j] < 1.0e-9 {
                    out[l] = StepOutcome::Converged;
                    running[j] = false;
                }
            }

            // Compact the working set to the still-running columns and
            // re-gather from the batch-width sources. Pure work
            // scheduling: per-lane arithmetic is identical at any column.
            if it >= COMPACT_AFTER && running.iter().any(|&r| !r) {
                s.base_dirty = true;
                let mut d = 0usize;
                for j in 0..m {
                    if running[j] {
                        live[d] = live[j];
                        d += 1;
                    }
                }
                live.truncate(d);
                m = d;
                s.base_c.set_lanes(m);
                for rc in 0..n * n {
                    for (j, &l) in live.iter().enumerate() {
                        s.base_c.data[rc * m + j] = base.data[rc * nl + l];
                    }
                }
                for i in 0..n {
                    for (j, &l) in live.iter().enumerate() {
                        s.x_c[i * m + j] = x[i * nl + l];
                        s.c_step_c[i * m + j] = c_step[i * nl + l];
                    }
                }
                running.clear();
                running.resize(m, true);
            }
        }
        // Loose final check, mirroring the scalar solver: columns still
        // running when the iteration budget runs out.
        for (j, &l) in live.iter().enumerate() {
            if running[j] {
                out[l] = if last_res[l] < 1.0e-9 {
                    StepOutcome::Converged
                } else {
                    StepOutcome::NoConvergence {
                        residual: last_res[l],
                    }
                };
            }
        }
        out
    }
}

/// Per-step outcome of one lane's lockstep NR solve.
enum StepOutcome {
    Converged,
    NoConvergence { residual: f64 },
    Failed(CircuitError),
}

/// Shared FET terminal structure: matrix row / voltage index per terminal
/// (`None` = ground).
struct FetRef {
    rd: Option<usize>,
    rg: Option<usize>,
    rs: Option<usize>,
}

fn collect_fets(c: &Circuit) -> Vec<FetRef> {
    let ix = |id: NodeId| -> Option<usize> { id.index().checked_sub(1) };
    c.elements()
        .iter()
        .filter_map(|e| match e {
            Element::Fet { d, g, s, .. } => Some(FetRef {
                rd: ix(*d),
                rg: ix(*g),
                rs: ix(*s),
            }),
            _ => None,
        })
        .collect()
}

#[inline]
fn fet_v(x: &[f64], nl: usize, l: usize, r: Option<usize>) -> f64 {
    match r {
        Some(i) => x[i * nl + l],
        None => 0.0,
    }
}

#[inline]
fn gather_lane(soa: &[f64], nl: usize, l: usize, len: usize, out: &mut [f64]) {
    for (i, o) in out.iter_mut().enumerate().take(len) {
        *o = soa[i * nl + l];
    }
}

#[inline]
fn scatter_lane(src: &[f64], nl: usize, l: usize, len: usize, soa: &mut [f64]) {
    for (i, v) in src.iter().enumerate().take(len) {
        soa[i * nl + l] = *v;
    }
}

/// Max |f| over all rows and over the node rows only, for one lane —
/// matching the scalar kernel's two residual norms.
#[inline]
fn lane_residuals(f: &[f64], nl: usize, l: usize, n: usize, nv: usize) -> (f64, f64) {
    let mut full = 0.0f64;
    let mut nodes = 0.0f64;
    for i in 0..n {
        let a = f[i * nl + l].abs();
        full = full.max(a);
        if i < nv {
            nodes = nodes.max(a);
        }
    }
    (full, nodes)
}

/// Per-(FET, lane) channel-current memo keyed on exact `(v_gs, v_ds)` bits.
/// `ids` is a pure function of its terminal voltages, so a hit returns the
/// identical value a fresh evaluation would — reuse never changes results.
struct IdsCache {
    vgs: Vec<f64>,
    vds: Vec<f64>,
    ids: Vec<f64>,
    next: Vec<bool>,
}

impl IdsCache {
    fn new(slots: usize) -> Self {
        IdsCache {
            // NaN never compares equal, so fresh entries always miss.
            vgs: vec![f64::NAN; 2 * slots],
            vds: vec![f64::NAN; 2 * slots],
            ids: vec![0.0; 2 * slots],
            next: vec![false; slots],
        }
    }

    fn get(&self, cj: usize, vgs: f64, vds: f64) -> Option<f64> {
        let b = 2 * cj;
        if self.vgs[b] == vgs && self.vds[b] == vds {
            return Some(self.ids[b]);
        }
        if self.vgs[b + 1] == vgs && self.vds[b + 1] == vds {
            return Some(self.ids[b + 1]);
        }
        None
    }

    /// Inserts (or refreshes) an entry; the victim alternates per slot,
    /// which is what lets the step-periodic converged/trial state pair of
    /// a settled lane survive together.
    fn put(&mut self, cj: usize, vgs: f64, vds: f64, ids: f64) {
        let b = 2 * cj;
        if self.vgs[b] == vgs && self.vds[b] == vds {
            self.ids[b] = ids;
            return;
        }
        if self.vgs[b + 1] == vgs && self.vds[b + 1] == vds {
            self.ids[b + 1] = ids;
            return;
        }
        let v = b + usize::from(self.next[cj]);
        self.vgs[v] = vgs;
        self.vds[v] = vds;
        self.ids[v] = ids;
        self.next[cj] = !self.next[cj];
    }
}

/// Per-(FET, lane) `gm`/`gds` memo keyed on exact `(v_gs, v_ds)` bits —
/// the Jacobian-side twin of [`IdsCache`], saving the (finite-differenced)
/// linearization when a lane's state repeats bit-for-bit between steps.
struct LinCache {
    vgs: Vec<f64>,
    vds: Vec<f64>,
    gm: Vec<f64>,
    gds: Vec<f64>,
    next: Vec<bool>,
}

impl LinCache {
    fn new(slots: usize) -> Self {
        LinCache {
            vgs: vec![f64::NAN; 2 * slots],
            vds: vec![f64::NAN; 2 * slots],
            gm: vec![0.0; 2 * slots],
            gds: vec![0.0; 2 * slots],
            next: vec![false; slots],
        }
    }

    fn get(&self, cj: usize, vgs: f64, vds: f64) -> Option<(f64, f64)> {
        let b = 2 * cj;
        if self.vgs[b] == vgs && self.vds[b] == vds {
            return Some((self.gm[b], self.gds[b]));
        }
        if self.vgs[b + 1] == vgs && self.vds[b + 1] == vds {
            return Some((self.gm[b + 1], self.gds[b + 1]));
        }
        None
    }

    fn put(&mut self, cj: usize, vgs: f64, vds: f64, gm: f64, gds: f64) {
        let b = 2 * cj;
        if (self.vgs[b] == vgs && self.vds[b] == vds)
            || (self.vgs[b + 1] == vgs && self.vds[b + 1] == vds)
        {
            return;
        }
        let v = b + usize::from(self.next[cj]);
        self.vgs[v] = vgs;
        self.vds[v] = vds;
        self.gm[v] = gm;
        self.gds[v] = gds;
        self.next[cj] = !self.next[cj];
    }
}

/// Adds every FET's channel current into the residual for the masked
/// columns of the compact working set (`x`, `f`, and `trial` have width
/// `mask.len()`; `live` maps columns to batch slots for the model and
/// cache lookups, whose stride is the batch width `nl`), reusing cached
/// evaluations. With `trial` present the per-column currents are also
/// stashed so the accepted line-search trial can seed the cache without
/// re-evaluating.
#[expect(
    clippy::too_many_arguments,
    reason = "per-column kernel inputs; a bundle would only rename the same borrows"
)]
fn stamp_ids(
    fets: &[FetRef],
    slot_models: &[Vec<Arc<dyn DeviceModel>>],
    x: &[f64],
    live: &[usize],
    nl: usize,
    mask: &[bool],
    f: &mut [f64],
    cache: &mut IdsCache,
    mut trial: Option<&mut [f64]>,
) {
    let m = mask.len();
    for (fi, fet) in fets.iter().enumerate() {
        for (j, &l) in live.iter().enumerate() {
            if !mask[j] {
                continue;
            }
            let vgs = fet_v(x, m, j, fet.rg) - fet_v(x, m, j, fet.rs);
            let vds = fet_v(x, m, j, fet.rd) - fet_v(x, m, j, fet.rs);
            let cj = fi * nl + l;
            let ids = if let Some(v) = cache.get(cj, vgs, vds) {
                v
            } else {
                let v = slot_models[l][fi].ids(vgs, vds);
                cache.put(cj, vgs, vds, v);
                v
            };
            if let Some(t) = trial.as_deref_mut() {
                t[fi * m + j] = ids;
            }
            if let Some(rd) = fet.rd {
                f[rd * m + j] += ids;
            }
            if let Some(rs) = fet.rs {
                f[rs * m + j] -= ids;
            }
        }
    }
}

/// NR work buffers for the lockstep kernel, allocated once per run.
/// All buffers are sized for the full batch width; mid-step compaction
/// uses width-`m` prefixes (the cache alone stays batch-slot indexed).
struct NrState {
    nv: usize,
    jac: BatchMat,
    base_c: BatchMat,
    base_dirty: bool,
    x_c: Vec<f64>,
    c_step_c: Vec<f64>,
    f: Vec<f64>,
    rhs: Vec<f64>,
    dx: Vec<f64>,
    x_try: Vec<f64>,
    piv: Vec<usize>,
    sing: Vec<Option<usize>>,
    scale: Vec<f64>,
    best_scale: Vec<f64>,
    best_res: Vec<f64>,
    cache: IdsCache,
    lin_cache: LinCache,
    trial_ids: Vec<f64>,
    best_ids: Vec<f64>,
}

impl NrState {
    fn new(n: usize, nv: usize, nl: usize, nf: usize) -> Self {
        NrState {
            nv,
            jac: BatchMat::zeros(n, nl),
            base_c: BatchMat::zeros(n, nl),
            base_dirty: true,
            x_c: vec![0.0; n * nl],
            c_step_c: vec![0.0; n * nl],
            f: vec![0.0; n * nl],
            rhs: vec![0.0; n * nl],
            dx: vec![0.0; n * nl],
            x_try: vec![0.0; n * nl],
            piv: vec![0; n * nl],
            sing: vec![None; nl],
            scale: vec![1.0; nl],
            best_scale: vec![1.0; nl],
            best_res: vec![f64::INFINITY; nl],
            cache: IdsCache::new(nf * nl),
            lin_cache: LinCache::new(nf * nl),
            trial_ids: vec![0.0; nf * nl],
            best_ids: vec![0.0; nf * nl],
        }
    }
}

/// A batch of square matrices in lane-innermost storage:
/// `data[(r·n + c)·lanes + lane]`.
struct BatchMat {
    n: usize,
    lanes: usize,
    data: Vec<f64>,
}

impl BatchMat {
    fn zeros(n: usize, lanes: usize) -> Self {
        BatchMat {
            n,
            lanes,
            data: vec![0.0; n * n * lanes],
        }
    }

    fn copy_from(&mut self, other: &BatchMat) {
        self.data.copy_from_slice(&other.data);
    }

    /// Re-widths the matrix to `lanes` lanes, keeping the allocation.
    /// Contents are unspecified afterwards — callers refill before use.
    fn set_lanes(&mut self, lanes: usize) {
        self.lanes = lanes;
        self.data.resize(self.n * self.n * lanes, 0.0);
    }

    #[inline]
    fn add(&mut self, r: usize, c: usize, l: usize, v: f64) {
        self.data[(r * self.n + c) * self.lanes + l] += v;
    }

    /// Adds one FET's `g_m`/`g_ds` linearization for lane `l` — the same
    /// eight stamps as the scalar `dc::stamp_fet`, minus the residual part
    /// (stamped separately by [`stamp_ids`]).
    fn stamp_fet_jac(&mut self, l: usize, fet: &FetRef, gm: f64, gds: f64) {
        if let Some(rd) = fet.rd {
            self.add(rd, rd, l, gds);
            if let Some(rg) = fet.rg {
                self.add(rd, rg, l, gm);
            }
            if let Some(rs) = fet.rs {
                self.add(rd, rs, l, -(gm + gds));
            }
        }
        if let Some(rs) = fet.rs {
            self.add(rs, rs, l, gm + gds);
            if let Some(rg) = fet.rg {
                self.add(rs, rg, l, -gm);
            }
            if let Some(rd) = fet.rd {
                self.add(rs, rd, l, -gds);
            }
        }
    }

    /// `out = A·x` per lane, accumulating in column order exactly like the
    /// scalar `DenseMatrix::mul_vec_into` (a left fold from 0.0).
    fn mul_vec_into(&self, x: &[f64], out: &mut [f64]) {
        let (n, nl) = (self.n, self.lanes);
        for r in 0..n {
            let acc = &mut out[r * nl..(r + 1) * nl];
            acc.fill(0.0);
            for c in 0..n {
                let m = &self.data[(r * n + c) * nl..(r * n + c + 1) * nl];
                let xv = &x[c * nl..(c + 1) * nl];
                for ((a, mi), xi) in acc.iter_mut().zip(m).zip(xv) {
                    *a += mi * xi;
                }
            }
        }
    }

    /// Per-lane LU with partial pivoting, lockstep over columns. Pivot
    /// *rows* are chosen per lane (`piv[col·lanes + l]`); the elimination
    /// replicates the scalar kernel's `factor == 0.0` row skip with a
    /// per-lane select so `-0.0` entries survive bit-exactly. Lanes
    /// outside `mask` are still swept (their data may be garbage — lane
    /// slots are independent, so junk never contaminates a neighbour) but
    /// never report singularity; masked lanes that do underflow a pivot
    /// get their failing column recorded in `sing`.
    fn lu_factor(&mut self, piv: &mut [usize], mask: &[bool], sing: &mut [Option<usize>]) {
        let (n, nl) = (self.n, self.lanes);
        let all = mask.iter().all(|&m| m);
        sing.fill(None);
        for col in 0..n {
            // Per-lane pivot search: strictly-greater wins, row order.
            for l in 0..nl {
                if !mask[l] {
                    continue;
                }
                let mut best = col;
                let mut best_abs = self.data[(col * n + col) * nl + l].abs();
                for r in (col + 1)..n {
                    let a = self.data[(r * n + col) * nl + l].abs();
                    if a > best_abs {
                        best = r;
                        best_abs = a;
                    }
                }
                if best_abs < 1.0e-300 && sing[l].is_none() {
                    sing[l] = Some(col);
                }
                piv[col * nl + l] = best;
                if best != col {
                    for c in 0..n {
                        self.data
                            .swap((col * n + c) * nl + l, (best * n + c) * nl + l);
                    }
                }
            }
            // Lane-vectorized elimination below the pivot row. The pivot
            // row lives strictly before every target row in the SoA
            // buffer, so one split gives LLVM disjoint slices and the
            // inner lane loops compile to straight-line vector selects.
            // When every lane is live (the common case) they are branch-
            // free over the full width; otherwise masked lanes are
            // skipped (their slots hold stale data nothing reads).
            let (top, bottom) = self.data.split_at_mut((col + 1) * n * nl);
            // Pivot row from its diagonal on: [diag | trailing columns].
            let prow = &top[(col * n + col) * nl..(col * n + n) * nl];
            let (pdiag, ptail) = prow.split_at(nl);
            for r in (col + 1)..n {
                let row = &mut bottom[((r - col - 1) * n + col) * nl..((r - col - 1) * n + n) * nl];
                let (fcol, rtail) = row.split_at_mut(nl);
                if all {
                    for (f, p) in fcol.iter_mut().zip(pdiag) {
                        *f /= p;
                    }
                } else {
                    for ((f, p), &m) in fcol.iter_mut().zip(pdiag).zip(mask) {
                        if m {
                            *f /= p;
                        }
                    }
                }
                for (tr, pr) in rtail.chunks_exact_mut(nl).zip(ptail.chunks_exact(nl)) {
                    for l in 0..nl {
                        if !all && !mask[l] {
                            continue;
                        }
                        let fac = fcol[l];
                        let old = tr[l];
                        // Select, not subtract-always: the scalar kernel
                        // skips zero factors, which preserves -0.0.
                        tr[l] = if fac == 0.0 { old } else { old - fac * pr[l] };
                    }
                }
            }
        }
    }

    /// Per-lane forward/back substitution replaying `piv`, replicating the
    /// scalar `lu_solve`'s zero-RHS skip as a per-lane select. Masked
    /// lanes are skipped outright — their `piv` and data slots are stale,
    /// and nothing downstream reads their solution.
    fn lu_solve(&self, piv: &[usize], mask: &[bool], b: &mut [f64]) {
        let (n, nl) = (self.n, self.lanes);
        let all = mask.iter().all(|&m| m);
        for col in 0..n {
            for l in 0..nl {
                if !all && !mask[l] {
                    continue;
                }
                let p = piv[col * nl + l];
                b.swap(col * nl + l, p * nl + l);
            }
            for r in (col + 1)..n {
                let m = &self.data[(r * n + col) * nl..(r * n + col + 1) * nl];
                for l in 0..nl {
                    if !all && !mask[l] {
                        continue;
                    }
                    let bc = b[col * nl + l];
                    let old = b[r * nl + l];
                    b[r * nl + l] = if bc == 0.0 { old } else { old - m[l] * bc };
                }
            }
        }
        for col in (0..n).rev() {
            for l in 0..nl {
                if !all && !mask[l] {
                    continue;
                }
                let mut acc = b[col * nl + l];
                for c in (col + 1)..n {
                    acc -= self.data[(col * n + c) * nl + l] * b[c * nl + l];
                }
                b[col * nl + l] = acc / self.data[(col * n + col) * nl + l];
            }
        }
    }
}

/// Panics unless every lane's circuit is element-for-element structurally
/// identical to lane 0's (kinds, terminals, node and source counts).
/// Element *values* are free to differ — they land in per-lane matrix data.
fn assert_same_structure(lanes: &[BatchLane]) {
    let t = &lanes[0].circuit;
    for (l, ln) in lanes.iter().enumerate().skip(1) {
        let c = &ln.circuit;
        assert_eq!(
            c.node_count(),
            t.node_count(),
            "lane {l}: node count differs"
        );
        assert_eq!(
            c.vsource_count(),
            t.vsource_count(),
            "lane {l}: source count differs"
        );
        assert_eq!(
            c.elements().len(),
            t.elements().len(),
            "lane {l}: element count differs"
        );
        for (ei, (a, b)) in t.elements().iter().zip(c.elements()).enumerate() {
            let same = match (a, b) {
                (
                    Element::Resistor { a: a1, b: b1, .. },
                    Element::Resistor { a: a2, b: b2, .. },
                ) => a1 == a2 && b1 == b2,
                (
                    Element::Capacitor { a: a1, b: b1, .. },
                    Element::Capacitor { a: a2, b: b2, .. },
                ) => a1 == a2 && b1 == b2,
                (
                    Element::VSource {
                        pos: p1, neg: n1, ..
                    },
                    Element::VSource {
                        pos: p2, neg: n2, ..
                    },
                ) => p1 == p2 && n1 == n2,
                (
                    Element::Fet {
                        d: d1,
                        g: g1,
                        s: s1,
                        ..
                    },
                    Element::Fet {
                        d: d2,
                        g: g2,
                        s: s2,
                        ..
                    },
                ) => d1 == d2 && g1 == g2 && s1 == s2,
                _ => false,
            };
            assert!(same, "lane {l}: element {ei} differs structurally");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tran::TranResult;
    use bdc_device::{SiliconMosModel, SiliconMosParams};

    type Trace = Vec<(f64, Vec<f64>)>;

    /// Runs the batch and collects each lane's recorded waveform,
    /// mirroring what `TranResult` stores.
    fn run_collect(
        solver: &BatchTranSolver,
        lanes: &[BatchLane],
    ) -> (Vec<Result<(), CircuitError>>, Vec<Trace>) {
        let mut traces: Vec<Trace> = lanes.iter().map(|_| Vec::new()).collect();
        let res = solver.run(lanes, |l, t, state| {
            traces[l].push((t, state.to_vec()));
            true
        });
        (res, traces)
    }

    fn assert_trace_matches(trace: &[(f64, Vec<f64>)], scalar: &TranResult, nv: usize) {
        assert_eq!(trace.len(), scalar.times().len());
        for (i, (t, state)) in trace.iter().enumerate() {
            assert_eq!(*t, scalar.times()[i], "time at step {i}");
            for (v, &got) in state.iter().enumerate().take(nv) {
                let want = scalar.voltage_at(i, NodeId::from_index(v + 1));
                assert!(
                    got == want || (got.is_nan() && want.is_nan()),
                    "step {i} node {v}: batch {got:e} vs scalar {want:e}"
                );
            }
        }
    }

    fn rc_lane(cap: f64) -> (Circuit, usize) {
        let mut c = Circuit::new();
        let a = c.node("a");
        let out = c.node("out");
        let s = c.vsource(a, Circuit::GND, 0.0);
        c.resistor(a, out, 1.0e3);
        c.capacitor(out, Circuit::GND, cap);
        (c, s)
    }

    #[test]
    fn rc_lanes_match_scalar_bitwise() {
        let wave = Waveform::ramp(0.0, 1.0, 1.0e-4, 2.0e-4);
        let caps = [0.3e-6, 1.0e-6, 3.3e-6];
        let lanes: Vec<BatchLane> = caps
            .iter()
            .map(|&cap| {
                let (c, s) = rc_lane(cap);
                BatchLane::new(c).drive(s, wave.clone())
            })
            .collect();
        let batch = BatchTranSolver::new(1.0e-5, 2.0e-3);
        let (res, traces) = run_collect(&batch, &lanes);
        for (l, &cap) in caps.iter().enumerate() {
            res[l].as_ref().expect("lane ok");
            let (c, s) = rc_lane(cap);
            let scalar = TranSolver::new(1.0e-5, 2.0e-3)
                .drive(s, wave.clone())
                .run(&c)
                .unwrap();
            assert_trace_matches(&traces[l], &scalar, 2);
        }
    }

    fn inverter_lane(load: f64) -> (Circuit, usize) {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GND, 1.0);
        let sin = c.vsource(inp, Circuit::GND, 0.0);
        let nmos = Arc::new(SiliconMosModel::new(SiliconMosParams::nmos_45()));
        let pmos = Arc::new(SiliconMosModel::new(SiliconMosParams::pmos_45()));
        c.fet(out, inp, Circuit::GND, nmos);
        c.fet(out, inp, vdd, pmos);
        c.capacitor(out, Circuit::GND, load);
        (c, sin)
    }

    #[test]
    fn fet_lanes_match_scalar_bitwise_with_shared_op() {
        // The characterization pattern: one DC op per edge direction,
        // shared across every load lane.
        let wave = Waveform::ramp(0.0, 1.0, 2.0e-11, 2.0e-11);
        let loads = [0.5e-15, 2.0e-15, 8.0e-15, 30.0e-15];
        let (c0, s0) = inverter_lane(loads[0]);
        let mut at_t0 = c0.clone();
        at_t0.set_vsource(s0, wave.eval(0.0));
        let op = DcSolver::new().solve(&at_t0).unwrap();
        let lanes: Vec<BatchLane> = loads
            .iter()
            .map(|&ld| {
                let (c, s) = inverter_lane(ld);
                BatchLane::new(c)
                    .drive(s, wave.clone())
                    .with_initial_state(&op)
            })
            .collect();
        let solver = BatchTranSolver::new(1.0e-12, 5.0e-10).with_step_clamp(0.5);
        let (res, traces) = run_collect(&solver, &lanes);
        for (l, &ld) in loads.iter().enumerate() {
            res[l].as_ref().expect("lane ok");
            let (c, s) = inverter_lane(ld);
            let scalar = TranSolver::new(1.0e-12, 5.0e-10)
                .with_step_clamp(0.5)
                .with_initial_state(&op)
                .drive(s, wave.clone())
                .run(&c)
                .unwrap();
            assert_trace_matches(&traces[l], &scalar, 3);
        }
    }

    #[test]
    fn per_lane_drives_match_scalar() {
        // Lanes differing in *waveform*, not element values (the DFF
        // speculative-bisection pattern).
        let offsets = [0.5e-4, 1.0e-4, 1.5e-4];
        let lanes: Vec<BatchLane> = offsets
            .iter()
            .map(|&off| {
                let wave = Waveform::ramp(0.0, 1.0, off, 1.0e-4);
                let (c, s) = rc_lane(1.0e-6);
                BatchLane::new(c).drive(s, wave)
            })
            .collect();
        let solver = BatchTranSolver::new(1.0e-5, 1.0e-3);
        let (res, traces) = run_collect(&solver, &lanes);
        for (l, &off) in offsets.iter().enumerate() {
            res[l].as_ref().expect("lane ok");
            let wave = Waveform::ramp(0.0, 1.0, off, 1.0e-4);
            let (c, s) = rc_lane(1.0e-6);
            let scalar = TranSolver::new(1.0e-5, 1.0e-3)
                .drive(s, wave)
                .run(&c)
                .unwrap();
            assert_trace_matches(&traces[l], &scalar, 2);
        }
    }

    #[test]
    fn retired_lane_leaves_others_bit_identical() {
        let wave = Waveform::ramp(0.0, 1.0, 1.0e-4, 2.0e-4);
        let caps = [0.3e-6, 1.0e-6];
        let lanes: Vec<BatchLane> = caps
            .iter()
            .map(|&cap| {
                let (c, s) = rc_lane(cap);
                BatchLane::new(c).drive(s, wave.clone())
            })
            .collect();
        let solver = BatchTranSolver::new(1.0e-5, 2.0e-3);
        let mut survivor: Vec<(f64, Vec<f64>)> = Vec::new();
        let res = solver.run(&lanes, |l, t, state| {
            if l == 0 {
                // Retire lane 0 after a handful of steps.
                return t < 4.5e-5;
            }
            survivor.push((t, state.to_vec()));
            true
        });
        res[0].as_ref().expect("retired lane reports ok");
        res[1].as_ref().expect("survivor ok");
        let (c, s) = rc_lane(caps[1]);
        let scalar = TranSolver::new(1.0e-5, 2.0e-3)
            .drive(s, wave.clone())
            .run(&c)
            .unwrap();
        assert_trace_matches(&survivor, &scalar, 2);
    }

    #[test]
    #[should_panic(expected = "differs structurally")]
    fn structural_mismatch_is_rejected() {
        let wave = Waveform::ramp(0.0, 1.0, 1.0e-4, 2.0e-4);
        let (c0, s0) = rc_lane(1.0e-6);
        let mut c1 = Circuit::new();
        let a = c1.node("a");
        let out = c1.node("out");
        let s1 = c1.vsource(a, Circuit::GND, 0.0);
        c1.capacitor(a, out, 1.0e-6); // capacitor where lane 0 has a resistor
        c1.resistor(out, Circuit::GND, 1.0e3);
        let lanes = vec![
            BatchLane::new(c0).drive(s0, wave.clone()),
            BatchLane::new(c1).drive(s1, wave.clone()),
        ];
        let _ = BatchTranSolver::new(1.0e-5, 2.0e-3).run(&lanes, |_, _, _| true);
    }
}
