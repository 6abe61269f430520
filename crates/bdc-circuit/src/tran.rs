//! Transient analysis with backward-Euler / trapezoidal companion models.
//!
//! The circuit topology never changes mid-transient, so everything linear —
//! gmin, resistors, source incidence, capacitor companion conductances — is
//! stamped into one constant base matrix before the time loop. Each Newton
//! iteration restores the base with a `memcpy`, adds only the FET
//! linearizations, and factors in place; nothing constant is re-assembled
//! and no per-iteration matrix clone is made.

use crate::dc::{stamp_fet, DcSolver, Operating};

use crate::error::CircuitError;
use crate::linalg::DenseMatrix;
use crate::netlist::{Circuit, Element, NodeId};

/// The gmin conductance tying every node to ground during transient NR.
pub(crate) const GMIN: f64 = 1.0e-12;

/// Integration method for the capacitor companion models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// First-order, L-stable — the robust default for stiff cell circuits.
    #[default]
    BackwardEuler,
    /// Second-order trapezoidal rule — more accurate per step on smooth
    /// waveforms (may ring on discontinuities, as in real SPICE).
    Trapezoidal,
}

/// Time-varying stimulus for a voltage source.
#[derive(Debug, Clone)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Piecewise-linear `(time, value)` points; clamps outside the range.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// A single rising or falling ramp from `v0` to `v1` starting at
    /// `t_start`, completing over `t_ramp` seconds.
    pub fn ramp(v0: f64, v1: f64, t_start: f64, t_ramp: f64) -> Self {
        Waveform::Pwl(vec![(0.0, v0), (t_start, v0), (t_start + t_ramp, v1)])
    }

    /// Value at time `t`.
    pub fn eval(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pwl(pts) => {
                if pts.is_empty() {
                    return 0.0;
                }
                if t <= pts[0].0 {
                    return pts[0].1;
                }
                for w in pts.windows(2) {
                    let ((t0, v0), (t1, v1)) = (w[0], w[1]);
                    if t <= t1 {
                        if t1 - t0 < 1e-300 {
                            return v1;
                        }
                        let f = (t - t0) / (t1 - t0);
                        return v0 + f * (v1 - v0);
                    }
                }
                pts.last().unwrap().1
            }
        }
    }
}

/// Result of a transient run.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    /// Per step, the non-ground node voltages.
    states: Vec<Vec<f64>>,
}

impl TranResult {
    /// The simulated time points (s).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Waveform of one node as `(t, v)` pairs.
    pub fn node_waveform(&self, node: NodeId) -> Vec<(f64, f64)> {
        let idx = node.index();
        self.times
            .iter()
            .zip(&self.states)
            .map(|(t, s)| (*t, if idx == 0 { 0.0 } else { s[idx - 1] }))
            .collect()
    }

    /// Voltage of `node` at step `i`.
    pub fn voltage_at(&self, i: usize, node: NodeId) -> f64 {
        if node.index() == 0 {
            0.0
        } else {
            self.states[i][node.index() - 1]
        }
    }

    /// Number of stored steps.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no steps were stored.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

/// Fixed-step transient solver.
///
/// The initial condition is the DC operating point with all driven sources
/// at their `t = 0` values.
#[derive(Debug, Clone)]
pub struct TranSolver {
    tstep: f64,
    tstop: f64,
    drives: Vec<(usize, Waveform)>,
    /// NR iteration limit per time step.
    pub max_iterations: usize,
    /// Voltage convergence tolerance per step (V).
    pub v_tol: f64,
    /// Largest voltage change per NR iteration (V); steps that would grow
    /// the residual are additionally halved by the backtracking search.
    pub step_clamp: f64,
    /// Capacitor integration method.
    pub integrator: Integrator,
    /// Precomputed initial node voltages (skips the internal DC solve).
    initial_state: Option<Vec<f64>>,
}

impl TranSolver {
    /// Creates a solver with time step `tstep` and end time `tstop`.
    ///
    /// # Panics
    /// Panics if either is non-positive or non-finite.
    pub fn new(tstep: f64, tstop: f64) -> Self {
        assert!(tstep > 0.0 && tstep.is_finite(), "tstep must be positive");
        assert!(tstop > 0.0 && tstop.is_finite(), "tstop must be positive");
        TranSolver {
            tstep,
            tstop,
            drives: Vec::new(),
            max_iterations: 150,
            v_tol: 1.0e-7,
            step_clamp: 5.0,
            integrator: Integrator::default(),
            initial_state: None,
        }
    }

    /// Attaches a waveform to voltage source `src_idx`.
    pub fn drive(mut self, src_idx: usize, waveform: Waveform) -> Self {
        self.drives.push((src_idx, waveform));
        self
    }

    /// Sets the per-iteration voltage step clamp (useful for low-voltage
    /// circuits where the default 5 V allows oscillatory overshoot).
    pub fn with_step_clamp(mut self, clamp: f64) -> Self {
        assert!(clamp > 0.0, "step clamp must be positive");
        self.step_clamp = clamp;
        self
    }

    /// Selects the capacitor integration method.
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Seeds the transient with a precomputed DC operating point instead of
    /// solving one internally. The caller must have solved `op` for the
    /// same circuit with every driven source at its `t = 0` value; the
    /// result is then bit-identical to the solve-internally path. This is
    /// how cell characterization amortizes one DC solve per (gate, edge)
    /// across a whole slew × load grid — the load capacitor is open in DC,
    /// so the operating point does not depend on it.
    pub fn with_initial_state(mut self, op: &Operating) -> Self {
        self.initial_state = Some(op.node_voltages().to_vec());
        self
    }

    /// Runs the transient analysis.
    ///
    /// # Errors
    /// Propagates DC (initial condition) and per-step NR failures.
    pub fn run(&self, circuit: &Circuit) -> Result<TranResult, CircuitError> {
        let mut work = circuit.clone();
        // Initial condition: sources at t = 0.
        for (idx, w) in &self.drives {
            work.set_vsource(*idx, w.eval(0.0));
        }
        let nv = work.node_count() - 1;
        let ns = work.vsource_count();
        let n = nv + ns;
        let mut x = vec![0.0; n];
        match &self.initial_state {
            Some(v0) => {
                work.validate()?;
                let k = v0.len().min(nv);
                x[..k].copy_from_slice(&v0[..k]);
            }
            None => {
                let op0 = DcSolver::new().solve(&work)?;
                x[..nv].copy_from_slice(op0.node_voltages());
            }
        }

        let steps = (self.tstop / self.tstep).ceil() as usize;
        let mut times = Vec::with_capacity(steps + 1);
        let mut states = Vec::with_capacity(steps + 1);
        times.push(0.0);
        states.push(x[..nv].to_vec());

        let h = self.tstep;
        // Everything linear is stamped once, outside the time loop.
        let base = build_base(&work, n, nv, h, self.integrator);
        let mut scratch = Scratch::new(n);
        let mut c_step = vec![0.0; n];
        let mut prev = vec![0.0; nv];
        let mut x_save = vec![0.0; n];
        // Trapezoidal companion history: previous capacitor currents.
        let n_caps = work
            .elements()
            .iter()
            .filter(|e| matches!(e, Element::Capacitor { .. }))
            .count();
        let mut cap_hist = vec![0.0f64; n_caps];
        for k in 1..=steps {
            let t = k as f64 * h;
            for (idx, w) in &self.drives {
                work.set_vsource(*idx, w.eval(t));
            }
            prev.copy_from_slice(states.last().unwrap());
            // Per-step constants: source values and capacitor history terms
            // change once per step, never per NR iteration.
            build_step_consts(&work, &prev, &cap_hist, h, self.integrator, nv, &mut c_step);
            x_save.copy_from_slice(&x);
            match self.nr_solve_step(&work, &base, &c_step, &mut x, nv, &mut scratch) {
                Ok(()) => {
                    if self.integrator == Integrator::Trapezoidal {
                        update_cap_hist(&work, &x, &prev, h, &mut cap_hist);
                    }
                }
                Err(CircuitError::NoConvergence { residual, .. }) => {
                    // Local time-step cutting: retry the failed interval as
                    // 2^m sub-steps. The stiffer capacitor companions
                    // (g = C/h') regularize floating series-stack nodes that
                    // trap full-step NR in a limit cycle; every converging
                    // step is untouched.
                    x.copy_from_slice(&x_save);
                    self.advance_subdivided(
                        &mut work,
                        &prev,
                        t - h,
                        h,
                        nv,
                        n,
                        &mut x,
                        &mut cap_hist,
                        &mut c_step,
                        &mut scratch,
                        residual,
                    )?;
                }
                Err(e) => return Err(e),
            }
            times.push(t);
            states.push(x[..nv].to_vec());
        }
        Ok(TranResult { times, states })
    }

    /// Retries the interval `[t0, t0 + h]` as `2^m` sub-steps of equal
    /// width, doubling the subdivision until the whole interval converges
    /// (up to 32 sub-steps). `x` must hold the state at `t0` on entry;
    /// holds the state at `t0 + h` on success. `cap_hist` is only advanced
    /// on success.
    #[expect(
        clippy::too_many_arguments,
        reason = "the interval, state buffers and scratch are disjoint borrows of the caller"
    )]
    pub(crate) fn advance_subdivided(
        &self,
        work: &mut Circuit,
        prev: &[f64],
        t0: f64,
        h: f64,
        nv: usize,
        n: usize,
        x: &mut [f64],
        cap_hist: &mut [f64],
        c_step: &mut [f64],
        scratch: &mut Scratch,
        full_step_residual: f64,
    ) -> Result<(), CircuitError> {
        let x0: Vec<f64> = x.to_vec();
        for m in 1..=5u32 {
            let sub = 1usize << m;
            let hs = h / sub as f64;
            let base_s = build_base(work, n, nv, hs, self.integrator);
            x.copy_from_slice(&x0);
            let mut prev_s = prev.to_vec();
            let mut hist_s = cap_hist.to_vec();
            let mut ok = true;
            for j in 1..=sub {
                let ts = t0 + j as f64 * hs;
                for (idx, w) in &self.drives {
                    work.set_vsource(*idx, w.eval(ts));
                }
                build_step_consts(work, &prev_s, &hist_s, hs, self.integrator, nv, c_step);
                if self
                    .nr_solve_step(work, &base_s, c_step, x, nv, scratch)
                    .is_err()
                {
                    ok = false;
                    break;
                }
                if self.integrator == Integrator::Trapezoidal {
                    update_cap_hist(work, x, &prev_s, hs, &mut hist_s);
                }
                prev_s.copy_from_slice(&x[..nv]);
            }
            if ok {
                cap_hist.copy_from_slice(&hist_s);
                return Ok(());
            }
        }
        Err(CircuitError::NoConvergence {
            residual: full_step_residual,
            iterations: self.max_iterations,
        })
    }

    /// One backward-Euler / trapezoidal step: NR with clamped updates and a
    /// backtracking line search. `x` is the previous state on entry and the
    /// converged state on success (clobbered on failure). The residual is
    ///   f(x) = base·x + c_step + (FET currents)
    /// and the Jacobian is base + (FET linearizations); only the FET part
    /// is re-stamped per iteration. The Newton step is clamped to
    /// `step_clamp` per voltage, then backtracked on the residual norm:
    /// full steps whenever they contract, halved when they would overshoot.
    /// Trial residuals reuse the constant stamps and need no factorization,
    /// so the search is cheap.
    fn nr_solve_step(
        &self,
        work: &Circuit,
        base: &DenseMatrix,
        c_step: &[f64],
        x: &mut [f64],
        nv: usize,
        s: &mut Scratch,
    ) -> Result<(), CircuitError> {
        let mut converged = false;
        let mut last_res = f64::INFINITY;
        for it in 0..self.max_iterations {
            s.jac.copy_from(base);
            base.mul_vec_into(x, &mut s.f);
            for (fi, ci) in s.f.iter_mut().zip(c_step) {
                *fi += *ci;
            }
            for e in work.elements() {
                if let Element::Fet {
                    d,
                    g,
                    s: src,
                    model,
                } = e
                {
                    stamp_fet(x, *d, *g, *src, model.as_ref(), &mut s.jac, &mut s.f);
                }
            }
            // Residual-based acceptance: the KCL error is already far
            // below anything that matters.
            let res_full = s.f.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            last_res = s.f.iter().take(nv).fold(0.0f64, |m, v| m.max(v.abs()));
            if it > 0 && res_full < 1.0e-10 {
                converged = true;
                break;
            }
            for (r, fv) in s.rhs.iter_mut().zip(&s.f) {
                *r = -fv;
            }
            let pivots = s.jac.lu_factor_in_place()?;
            s.jac.lu_solve(&pivots, &mut s.rhs);
            for (i, d) in s.dx.iter_mut().enumerate() {
                *d = if i < nv {
                    s.rhs[i].clamp(-self.step_clamp, self.step_clamp)
                } else {
                    s.rhs[i]
                };
            }
            // Backtracking: accept the first scale that reduces the
            // residual; if none does (residual at its floor for this
            // iterate), keep the best trial seen to stay in motion.
            let mut scale = 1.0f64;
            let mut best_scale = 1.0f64;
            let mut best_res = f64::INFINITY;
            for _half in 0..8 {
                for (xt, (xi, di)) in s.x_try.iter_mut().zip(x.iter().zip(s.dx.iter())) {
                    *xt = xi + scale * di;
                }
                let res_try = residual_at(work, base, c_step, &s.x_try, &mut s.f, &mut s.jac);
                if res_try < best_res {
                    best_res = res_try;
                    best_scale = scale;
                }
                if res_try < res_full {
                    break;
                }
                scale *= 0.5;
            }
            if best_scale != scale {
                for (xt, (xi, di)) in s.x_try.iter_mut().zip(x.iter().zip(s.dx.iter())) {
                    *xt = xi + best_scale * di;
                }
            }
            x.copy_from_slice(&s.x_try);
            last_res = best_res;
            let dv =
                s.dx.iter()
                    .take(nv)
                    .fold(0.0f64, |m, d| m.max((best_scale * d).abs()));
            if dv < self.v_tol && best_res < 1.0e-9 {
                converged = true;
                break;
            }
        }
        // Loose final check, as in the DC solver: organic circuits push
        // nanoamp-scale currents, where the strict threshold can stall
        // a whisker high with the step already physically settled.
        if converged || last_res < 1.0e-9 {
            Ok(())
        } else {
            Err(CircuitError::NoConvergence {
                residual: last_res,
                iterations: self.max_iterations,
            })
        }
    }
}

/// NR per-iteration work buffers, allocated once per transient run.
pub(crate) struct Scratch {
    jac: DenseMatrix,
    f: Vec<f64>,
    rhs: Vec<f64>,
    dx: Vec<f64>,
    x_try: Vec<f64>,
}

impl Scratch {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            jac: DenseMatrix::zeros(n, n),
            f: vec![0.0; n],
            rhs: vec![0.0; n],
            dx: vec![0.0; n],
            x_try: vec![0.0; n],
        }
    }
}

/// Advances the trapezoidal companion history after a converged step of
/// width `h`: i_n = 2C/h · Δv − i_{n−1}.
pub(crate) fn update_cap_hist(
    work: &Circuit,
    x: &[f64],
    prev: &[f64],
    h: f64,
    cap_hist: &mut [f64],
) {
    let mut cap_idx = 0usize;
    for e in work.elements() {
        if let Element::Capacitor { a, b, farads } = e {
            let dv = (node_v(x, *a) - node_v(x, *b)) - (node_v(prev, *a) - node_v(prev, *b));
            cap_hist[cap_idx] = 2.0 * farads / h * dv - cap_hist[cap_idx];
            cap_idx += 1;
        }
    }
}

pub(crate) fn node_v(x: &[f64], id: NodeId) -> f64 {
    if id.index() == 0 {
        0.0
    } else {
        x[id.index() - 1]
    }
}

/// Evaluates the transient residual at `x` (max |error| over ALL rows —
/// node KCL and source branch equations; the latter carry a step's new
/// source values, so a node-only norm would be blind to the very update
/// the step must make) without factoring anything: the constant part comes
/// from `base`/`c_step`, only FET currents are stamped fresh. `f` and
/// `jac_scratch` are clobbered.
fn residual_at(
    work: &Circuit,
    base: &DenseMatrix,
    c_step: &[f64],
    x: &[f64],
    f: &mut [f64],
    jac_scratch: &mut DenseMatrix,
) -> f64 {
    base.mul_vec_into(x, f);
    for (fi, ci) in f.iter_mut().zip(c_step) {
        *fi += *ci;
    }
    for e in work.elements() {
        if let Element::Fet { d, g, s, model } = e {
            stamp_fet(x, *d, *g, *s, model.as_ref(), jac_scratch, f);
        }
    }
    f.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// Companion-model conductance of a capacitor at step size `h`.
fn companion_g(farads: f64, h: f64, integ: Integrator) -> f64 {
    match integ {
        Integrator::BackwardEuler => farads / h,
        Integrator::Trapezoidal => 2.0 * farads / h,
    }
}

/// Assembles the constant part of the transient Jacobian: gmin, resistors,
/// voltage-source incidence, and capacitor companion conductances. Valid
/// for the whole run — topology and step size never change mid-transient.
pub(crate) fn build_base(
    work: &Circuit,
    n: usize,
    nv: usize,
    h: f64,
    integ: Integrator,
) -> DenseMatrix {
    let ix = |id: NodeId| -> Option<usize> { id.index().checked_sub(1) };
    let mut base = DenseMatrix::zeros(n, n);
    for i in 0..nv {
        base.add(i, i, GMIN);
    }
    let mut src_idx = 0usize;
    for e in work.elements() {
        match e {
            Element::Resistor { a, b, ohms } => {
                let g = 1.0 / ohms;
                if let Some(ra) = ix(*a) {
                    base.add(ra, ra, g);
                    if let Some(rb) = ix(*b) {
                        base.add(ra, rb, -g);
                    }
                }
                if let Some(rb) = ix(*b) {
                    base.add(rb, rb, g);
                    if let Some(ra) = ix(*a) {
                        base.add(rb, ra, -g);
                    }
                }
            }
            Element::Capacitor { a, b, farads } => {
                let g = companion_g(*farads, h, integ);
                if let Some(ra) = ix(*a) {
                    base.add(ra, ra, g);
                    if let Some(rb) = ix(*b) {
                        base.add(ra, rb, -g);
                    }
                }
                if let Some(rb) = ix(*b) {
                    base.add(rb, rb, g);
                    if let Some(ra) = ix(*a) {
                        base.add(rb, ra, -g);
                    }
                }
            }
            Element::VSource { pos, neg, .. } => {
                let row = nv + src_idx;
                if let Some(rp) = ix(*pos) {
                    base.add(row, rp, 1.0);
                    base.add(rp, row, 1.0);
                }
                if let Some(rn) = ix(*neg) {
                    base.add(row, rn, -1.0);
                    base.add(rn, row, -1.0);
                }
                src_idx += 1;
            }
            Element::Fet { .. } => {}
        }
    }
    base
}

/// Assembles the residual terms that are constant across one step's NR
/// iterations: `-V(t)` on source branch rows and the capacitor companion
/// history currents:
///   BE:   i = g·(v − v_prev)            → constant part −g·v_prev
///   TRAP: i = g·(v − v_prev) − i_prev   → constant part −g·v_prev − i_prev
pub(crate) fn build_step_consts(
    work: &Circuit,
    prev: &[f64],
    cap_hist: &[f64],
    h: f64,
    integ: Integrator,
    nv: usize,
    c: &mut [f64],
) {
    let ix = |id: NodeId| -> Option<usize> { id.index().checked_sub(1) };
    c.fill(0.0);
    let mut src_idx = 0usize;
    let mut cap_idx = 0usize;
    for e in work.elements() {
        match e {
            Element::VSource { volts, .. } => {
                c[nv + src_idx] = -volts;
                src_idx += 1;
            }
            Element::Capacitor { a, b, farads } => {
                let g = companion_g(*farads, h, integ);
                let hist = match integ {
                    Integrator::BackwardEuler => 0.0,
                    Integrator::Trapezoidal => cap_hist[cap_idx],
                };
                let k = -g * (node_v(prev, *a) - node_v(prev, *b)) - hist;
                if let Some(ra) = ix(*a) {
                    c[ra] += k;
                }
                if let Some(rb) = ix(*b) {
                    c[rb] -= k;
                }
                cap_idx += 1;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;

    #[test]
    fn waveform_ramp_interpolates() {
        let w = Waveform::ramp(0.0, 5.0, 1.0, 2.0);
        assert_eq!(w.eval(0.0), 0.0);
        assert_eq!(w.eval(1.0), 0.0);
        assert!((w.eval(2.0) - 2.5).abs() < 1e-12);
        assert_eq!(w.eval(10.0), 5.0);
    }

    #[test]
    fn rc_charging_matches_analytic() {
        // R = 1 kΩ, C = 1 µF, step from 0 → 1 V: τ = 1 ms.
        let mut c = Circuit::new();
        let a = c.node("a");
        let out = c.node("out");
        let s = c.vsource(a, Circuit::GND, 0.0);
        c.resistor(a, out, 1.0e3);
        c.capacitor(out, Circuit::GND, 1.0e-6);
        let res = TranSolver::new(1.0e-5, 5.0e-3)
            .drive(s, Waveform::ramp(0.0, 1.0, 0.0, 1.0e-9))
            .run(&c)
            .unwrap();
        let wf = res.node_waveform(out);
        // At t = 1 ms the analytic value is 1 - e^-1 ≈ 0.632.
        let (_, v_tau) = wf
            .iter()
            .min_by(|x, y| {
                (x.0 - 1.0e-3)
                    .abs()
                    .partial_cmp(&(y.0 - 1.0e-3).abs())
                    .unwrap()
            })
            .copied()
            .unwrap();
        assert!((v_tau - 0.632).abs() < 0.02, "v(τ) = {v_tau}");
        // Fully settled by 5τ.
        assert!((wf.last().unwrap().1 - 1.0).abs() < 0.02);
    }

    #[test]
    fn dc_waveform_holds_initial_op() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let m = c.node("m");
        let s = c.vsource(a, Circuit::GND, 4.0);
        c.resistor(a, m, 1.0e3);
        c.resistor(m, Circuit::GND, 1.0e3);
        let res = TranSolver::new(1.0e-6, 1.0e-5)
            .drive(s, Waveform::Dc(4.0))
            .run(&c)
            .unwrap();
        for i in 0..res.len() {
            assert!((res.voltage_at(i, m) - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "tstep must be positive")]
    fn rejects_bad_time_axis() {
        let _ = TranSolver::new(0.0, 1.0);
    }

    #[test]
    fn split_stamps_match_full_stamping() {
        // The fast path computes f = base·x + c_step + FET stamps with the
        // constant part assembled once; it must agree with stamping
        // everything from scratch (the pre-split formulation) on a circuit
        // exercising every element kind.
        use crate::dc::{stamp_fet, stamp_static};
        use bdc_device::{SiliconMosModel, SiliconMosParams};
        use std::sync::Arc;

        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GND, 1.0);
        c.vsource(inp, Circuit::GND, 0.5);
        c.resistor(vdd, out, 10.0e3);
        c.capacitor(out, Circuit::GND, 2.0e-15);
        c.capacitor(inp, out, 0.5e-15);
        let model = Arc::new(SiliconMosModel::new(SiliconMosParams::nmos_45()));
        c.fet(out, inp, Circuit::GND, model);
        let nv = c.node_count() - 1;
        let n = nv + c.vsource_count();
        let h = 1.0e-12;
        let x: Vec<f64> = (0..n).map(|i| 0.05 + 0.11 * i as f64).collect();
        let prev: Vec<f64> = (0..nv).map(|i| 0.6 - 0.07 * i as f64).collect();
        let cap_hist = [3.0e-7, -1.5e-7];

        for integ in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
            // Fast path.
            let base = build_base(&c, n, nv, h, integ);
            let mut c_step = vec![0.0; n];
            build_step_consts(&c, &prev, &cap_hist, h, integ, nv, &mut c_step);
            let mut jac_fast = DenseMatrix::zeros(n, n);
            jac_fast.copy_from(&base);
            let mut f_fast = vec![0.0; n];
            base.mul_vec_into(&x, &mut f_fast);
            for (fi, ci) in f_fast.iter_mut().zip(&c_step) {
                *fi += *ci;
            }
            for e in c.elements() {
                if let Element::Fet { d, g, s, model } = e {
                    stamp_fet(&x, *d, *g, *s, model.as_ref(), &mut jac_fast, &mut f_fast);
                }
            }
            // Reference: stamp everything at once, companion models fused.
            let mut jac_ref = DenseMatrix::zeros(n, n);
            let mut f_ref = vec![0.0; n];
            stamp_static(&c, &x, GMIN, &mut jac_ref, &mut f_ref);
            let mut cap_idx = 0usize;
            for e in c.elements() {
                if let Element::Capacitor { a, b, farads } = e {
                    let dv =
                        (node_v(&x, *a) - node_v(&x, *b)) - (node_v(&prev, *a) - node_v(&prev, *b));
                    let g = companion_g(*farads, h, integ);
                    let i = match integ {
                        Integrator::BackwardEuler => g * dv,
                        Integrator::Trapezoidal => g * dv - cap_hist[cap_idx],
                    };
                    if let Some(ra) = a.index().checked_sub(1) {
                        f_ref[ra] += i;
                        jac_ref.add(ra, ra, g);
                        if let Some(rb) = b.index().checked_sub(1) {
                            jac_ref.add(ra, rb, -g);
                        }
                    }
                    if let Some(rb) = b.index().checked_sub(1) {
                        f_ref[rb] -= i;
                        jac_ref.add(rb, rb, g);
                        if let Some(ra) = a.index().checked_sub(1) {
                            jac_ref.add(rb, ra, -g);
                        }
                    }
                    cap_idx += 1;
                }
            }
            for r in 0..n {
                let scale = f_ref[r].abs().max(1.0);
                assert!(
                    (f_fast[r] - f_ref[r]).abs() < 1e-9 * scale,
                    "{integ:?} residual row {r}: {} vs {}",
                    f_fast[r],
                    f_ref[r]
                );
                for col in 0..n {
                    let (a, b) = (jac_fast.get(r, col), jac_ref.get(r, col));
                    assert!(
                        (a - b).abs() < 1e-9 * b.abs().max(1.0),
                        "{integ:?} jac ({r},{col}): {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn with_initial_state_matches_internal_dc_solve_bitwise() {
        // Seeding the transient with an externally solved operating point
        // must reproduce the solve-internally run exactly — this is the
        // contract that lets characterization reuse one DC solve across a
        // whole slew × load grid.
        let mut c = Circuit::new();
        let a = c.node("a");
        let out = c.node("out");
        let s = c.vsource(a, Circuit::GND, 0.0);
        c.resistor(a, out, 1.0e3);
        c.capacitor(out, Circuit::GND, 1.0e-6);
        let drive = Waveform::ramp(0.2, 1.0, 1.0e-4, 2.0e-4);
        let solver = TranSolver::new(1.0e-5, 1.0e-3).drive(s, drive.clone());

        let internal = solver.clone().run(&c).unwrap();
        let mut at_t0 = c.clone();
        at_t0.set_vsource(s, drive.eval(0.0));
        let op = DcSolver::new().solve(&at_t0).unwrap();
        let seeded = solver.with_initial_state(&op).run(&c).unwrap();

        assert_eq!(internal.times(), seeded.times());
        for i in 0..internal.len() {
            assert_eq!(
                internal.voltage_at(i, out),
                seeded.voltage_at(i, out),
                "step {i}"
            );
            assert_eq!(internal.voltage_at(i, a), seeded.voltage_at(i, a));
        }
    }

    #[test]
    fn trapezoidal_is_more_accurate_than_be_at_coarse_steps() {
        // RC driven by a smooth ramp (consistent zero initial current):
        // v(t) = k·(t − τ·(1 − e^{−t/τ})) during the ramp. At ~20 steps per
        // time constant the 2nd-order method must land closer.
        let r = 1.0e3;
        let cap = 1.0e-6;
        let tau = r * cap; // 1 ms
        let k = 1.0 / 0.5e-3; // 0→1 V over 0.5 ms
        let mut c = Circuit::new();
        let a = c.node("a");
        let out = c.node("out");
        let s = c.vsource(a, Circuit::GND, 0.0);
        c.resistor(a, out, r);
        c.capacitor(out, Circuit::GND, cap);
        let drive = Waveform::ramp(0.0, 1.0, 0.0, 0.5e-3);
        let t_meas = 4.5e-4;
        let expect = k * (t_meas - tau * (1.0 - (-t_meas / tau).exp()));
        let run = |integ: Integrator| {
            let res = TranSolver::new(5.0e-5, 4.5e-4)
                .with_integrator(integ)
                .drive(s, drive.clone())
                .run(&c)
                .unwrap();
            let wf = res.node_waveform(out);
            wf.last().unwrap().1
        };
        let be_err = (run(Integrator::BackwardEuler) - expect).abs();
        let trap_err = (run(Integrator::Trapezoidal) - expect).abs();
        assert!(
            trap_err < 0.25 * be_err,
            "trap err {trap_err:.5} should beat BE err {be_err:.5}"
        );
    }
}
