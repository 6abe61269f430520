//! Parameter sweeps over the experiment plan: grid parsing, per-point
//! overlays, and the incremental-recomputation engine behind `bdc sweep`.
//!
//! A sweep walks a one-dimensional parameter grid (today: the organic
//! threshold voltage, `organic.vt=start:end:count`) through the plan
//! scheduler. Each point runs at its own [`ParamOverlay`], so the
//! fine-grained stage cache (see [`crate::stage`]) recomputes exactly the
//! invalidation cone of the moved parameter — the organic cells, library,
//! synthesis and the experiments that declare the organic library — while
//! the silicon stages, IPC simulations and dependency-free experiments
//! stay warm from the first point onward.
//!
//! Two artifacts come out: a deterministic transcript
//! ([`render_transcript`], byte-identical for any worker count and any
//! warm/cold stage mix — the CI gate) and a telemetry manifest
//! ([`manifest_json`], wall times and stage reuse counters — explicitly
//! *outside* the byte-determinism contract, like the fault counters).
//!
//! **Resumability:** a checkpointed sweep ([`run_sweep_checkpointed`])
//! durably records every completed grid point (tmp + fsync + rename, the
//! same torn-write discipline as the artifact store) as it finishes.
//! After a crash — including SIGKILL mid-grid — `--resume` restores the
//! completed points byte-for-byte from their checkpoints and recomputes
//! only the unfinished ones, so the replayed transcript is identical to
//! what an uninterrupted sweep would have printed. A torn or foreign
//! checkpoint (wrong sweep identity, stale grid, parse failure) is
//! silently treated as *unfinished*, never trusted.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use bdc_device::TftParams;
use bdc_exec::json::Json;
use bdc_exec::{enter_scope, new_scope, par_map, scope_counters, StageCount};

use crate::registry::{self, NodeReport, RunReport};
use crate::stage::{stage_graph, ParamOverlay};

/// Where `bdc sweep` checkpoints completed grid points, one JSON file per
/// point, next to the manifest it feeds.
pub const DEFAULT_CHECKPOINT_DIR: &str = "results/sweep_points";

/// The swept knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepParam {
    /// The organic device threshold voltage, as the *physical* (signed,
    /// p-type, negative) V_T in volts. The nominal pentacene point is
    /// `-1.3` V; the overlay stores the delta against that magnitude.
    OrganicVt,
}

impl SweepParam {
    /// The spec-file spelling (`organic.vt`).
    pub fn name(self) -> &'static str {
        match self {
            SweepParam::OrganicVt => "organic.vt",
        }
    }
}

/// A parsed `bdc sweep --param` specification: a linear grid of `count`
/// points from `start` to `end`, both inclusive.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Which parameter the grid moves.
    pub param: SweepParam,
    /// First grid value (physical units).
    pub start: f64,
    /// Last grid value (physical units).
    pub end: f64,
    /// Number of grid points (`>= 1`; `1` pins the grid at `start`).
    pub count: usize,
}

impl SweepSpec {
    /// Parses `name=start:end:count` (e.g. `organic.vt=-1.4:-0.6:21`).
    ///
    /// # Errors
    /// A human-readable message for an unknown parameter name, a
    /// malformed grid, a non-finite bound, or a zero count.
    pub fn parse(spec: &str) -> Result<SweepSpec, String> {
        let (name, grid) = spec
            .split_once('=')
            .ok_or_else(|| format!("bad sweep spec `{spec}` (want name=start:end:count)"))?;
        let param = match name {
            "organic.vt" => SweepParam::OrganicVt,
            other => {
                return Err(format!(
                    "unknown sweep parameter `{other}` (try organic.vt)"
                ))
            }
        };
        let parts: Vec<&str> = grid.split(':').collect();
        let [start, end, count] = parts.as_slice() else {
            return Err(format!("bad sweep grid `{grid}` (want start:end:count)"));
        };
        let start: f64 = start
            .parse()
            .map_err(|_| format!("bad sweep start `{start}`"))?;
        let end: f64 = end.parse().map_err(|_| format!("bad sweep end `{end}`"))?;
        if !start.is_finite() || !end.is_finite() {
            return Err("sweep bounds must be finite".into());
        }
        let count: usize = count
            .parse()
            .map_err(|_| format!("bad sweep count `{count}`"))?;
        if count == 0 {
            return Err("sweep count must be at least 1".into());
        }
        Ok(SweepSpec {
            param,
            start,
            end,
            count,
        })
    }

    /// The grid values, endpoints inclusive; `count == 1` yields
    /// `[start]`.
    pub fn values(&self) -> Vec<f64> {
        if self.count == 1 {
            return vec![self.start];
        }
        (0..self.count)
            .map(|i| self.start + (self.end - self.start) * i as f64 / (self.count - 1) as f64)
            .collect()
    }

    /// The overlay pinning one grid value.
    pub fn overlay_for(&self, value: f64) -> ParamOverlay {
        match self.param {
            // `TftParams::vt0` is a magnitude (p-type convention); the
            // physical V_T is its negation, so a requested physical value
            // v maps to delta = (-v) - vt0_nominal. The nominal value
            // round-trips to the default overlay exactly.
            SweepParam::OrganicVt => ParamOverlay {
                organic_delta_vt: -value - TftParams::pentacene().vt0,
            },
        }
    }
}

/// One executed grid point.
pub struct SweepPoint {
    /// Grid index (0-based).
    pub index: usize,
    /// The physical parameter value at this point.
    pub value: f64,
    /// The overlay the plan ran at.
    pub overlay: ParamOverlay,
    /// Wall time of this point's plan execution, in seconds (telemetry).
    /// Points past the first run concurrently, so these spans overlap.
    pub wall_s: f64,
    /// Per-stage `(hits, misses)` deltas attributable to this point.
    pub stages: BTreeMap<String, StageCount>,
    /// The plan report (node texts, in catalogue order).
    pub report: RunReport,
}

impl SweepPoint {
    /// Total stage-cache `(hits, misses)` for this point.
    pub fn totals(&self) -> (u64, u64) {
        self.stages
            .values()
            .fold((0, 0), |(h, m), (sh, sm)| (h + sh, m + sm))
    }
}

/// What one sweep produced: the spec, mode, and every executed point in
/// grid order.
pub struct SweepReport {
    /// The parsed grid.
    pub spec: SweepSpec,
    /// Whether the plan ran at the quick budget.
    pub quick: bool,
    /// End-to-end sweep wall time, in seconds (telemetry). Points past
    /// the first run concurrently, so the per-point `wall_s` values
    /// overlap and their sum exceeds this.
    pub elapsed_s: f64,
    /// Points restored from a previous run's checkpoints instead of
    /// recomputed (0 for a non-resumed sweep).
    pub restored_points: usize,
    /// Per-point results, in grid order.
    pub points: Vec<SweepPoint>,
}

/// Runs `ids` (catalogue order, like `run_plan`) at every grid point of
/// `spec`, reusing every stage artifact whose inputs a point does not
/// move. The first point runs alone: it warms every overlay-independent
/// stage (silicon, IPC, dependency-free experiments) with full node
/// parallelism. The remaining points then fan out across the worker pool
/// — their miss cones are disjoint (each point's organic stages carry its
/// own overlay in their keys, and everything else is warm), so they
/// neither duplicate nor steal each other's work, and each runs inside
/// its own attribution scope so the manifest's per-point reuse stats stay
/// exact under concurrency. Helper threads that join a point's nested
/// fan-outs adopt that point's scope, so they change no tally.
///
/// # Errors
/// An unknown experiment id or a node cache-key collision (from the plan
/// scheduler), or a node failure at any point — a sweep with a failed
/// point must not pass for a complete grid.
pub fn run_sweep(spec: &SweepSpec, ids: &[&str], quick: bool) -> Result<SweepReport, String> {
    run_sweep_checkpointed(spec, ids, quick, None, false)
}

/// [`run_sweep`] with durable per-point checkpointing and crash resume.
///
/// With a `checkpoint_dir`, every completed point is recorded there
/// (tmp + fsync + rename) the moment it finishes — a SIGKILL mid-grid
/// loses at most the points still in flight. With `resume` also set, the
/// directory is scanned first: checkpoints matching this exact sweep
/// identity (parameter, grid bounds, budget, and experiment list) restore
/// their points without recomputation, and only the unfinished points
/// run. Without `resume` the directory is cleared first so stale points
/// from a different sweep can never leak into this one.
///
/// The first *pending* point runs alone (warming the overlay-independent
/// stages with full node parallelism, exactly like a cold sweep) and the
/// rest fan out across the worker pool. A point's own fan-outs (its plan
/// nodes, each organic library's characterization packs) recruit any core
/// the other points leave idle, so a grid whose point count does not
/// divide the worker count still keeps every core busy.
///
/// # Errors
/// See [`run_sweep`].
pub fn run_sweep_checkpointed(
    spec: &SweepSpec,
    ids: &[&str],
    quick: bool,
    checkpoint_dir: Option<&Path>,
    resume: bool,
) -> Result<SweepReport, String> {
    let values = spec.values();
    let identity = sweep_identity(spec, ids, quick);
    // Wall-clock feeds only the manifest's telemetry, never the
    // transcript bytes.
    #[expect(
        clippy::disallowed_methods,
        reason = "elapsed_s is sweep telemetry, not artifact bytes"
    )]
    let t_sweep = Instant::now();
    let mut slots: Vec<Option<SweepPoint>> = match (checkpoint_dir, resume) {
        (Some(dir), true) => load_checkpoints(dir, &identity, spec, quick, &values),
        (Some(dir), false) => {
            let _ = std::fs::remove_dir_all(dir);
            values.iter().map(|_| None).collect()
        }
        (None, _) => values.iter().map(|_| None).collect(),
    };
    if let Some(dir) = checkpoint_dir {
        let _ = std::fs::create_dir_all(dir);
    }
    let restored_points = slots.iter().filter(|s| s.is_some()).count();
    let pending: Vec<(usize, f64)> = values
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| slots[*i].is_none())
        .collect();
    if let Some(&(index, value)) = pending.first() {
        let point = run_point(spec, ids, quick, index, value)?;
        if let Some(dir) = checkpoint_dir {
            checkpoint_point(dir, &identity, &point);
        }
        slots[index] = Some(point);
        for point in par_map(&pending[1..], |&(index, value)| {
            let point = run_point(spec, ids, quick, index, value)?;
            if let Some(dir) = checkpoint_dir {
                checkpoint_point(dir, &identity, &point);
            }
            Ok::<SweepPoint, String>(point)
        }) {
            let point = point?;
            let index = point.index;
            slots[index] = Some(point);
        }
    }
    // Every slot is filled: restored points were loaded above and every
    // pending point either completed or propagated its error already.
    let points: Vec<SweepPoint> = slots.into_iter().flatten().collect();
    debug_assert_eq!(points.len(), spec.count);
    Ok(SweepReport {
        spec: spec.clone(),
        quick,
        elapsed_s: t_sweep.elapsed().as_secs_f64(),
        restored_points,
        points,
    })
}

/// The string every checkpoint binds itself to: a resume may only restore
/// points from a sweep over the same parameter, grid (bit-exact bounds),
/// budget, and experiment list.
fn sweep_identity(spec: &SweepSpec, ids: &[&str], quick: bool) -> String {
    format!(
        "{} {:016x}:{:016x}:{} quick={} ids={}",
        spec.param.name(),
        spec.start.to_bits(),
        spec.end.to_bits(),
        spec.count,
        quick,
        ids.join(",")
    )
}

/// The checkpoint file name for one grid point.
fn checkpoint_name(index: usize) -> String {
    format!("point_{index:04}.json")
}

/// Durably records one completed point: write to a tmp sibling, fsync,
/// rename into place. A crash at any step leaves either the old file or
/// the new one, never a torn mix; a torn *tmp* file is never read.
/// Returns whether the checkpoint landed (failure is non-fatal — the
/// point simply recomputes on resume).
pub fn checkpoint_point(dir: &Path, identity: &str, point: &SweepPoint) -> bool {
    let path = dir.join(checkpoint_name(point.index));
    let tmp = dir.join(format!("{}.tmp", checkpoint_name(point.index)));
    let bytes = checkpoint_json(identity, point).encode();
    let written = std::fs::File::create(&tmp)
        .and_then(|mut f| {
            use std::io::Write;
            f.write_all(bytes.as_bytes())?;
            f.sync_all()
        })
        .is_ok();
    written && std::fs::rename(&tmp, &path).is_ok()
}

/// The durable form of one completed point: everything the transcript and
/// manifest need to replay it byte-identically (node texts, stage
/// tallies) plus the sweep identity that gates restoration.
fn checkpoint_json(identity: &str, point: &SweepPoint) -> Json {
    Json::Obj(vec![
        ("bdc_sweep_checkpoint".into(), Json::Int(1)),
        ("identity".into(), Json::str(identity)),
        ("index".into(), Json::Int(point.index as i64)),
        ("value".into(), Json::Num(point.value)),
        ("wall_s".into(), Json::Num(point.wall_s)),
        (
            "stages".into(),
            Json::Obj(
                point
                    .stages
                    .iter()
                    .map(|(name, (h, m))| {
                        (
                            name.clone(),
                            Json::Obj(vec![
                                ("hits".into(), Json::Int(*h as i64)),
                                ("misses".into(), Json::Int(*m as i64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "nodes".into(),
            Json::Arr(
                point
                    .report
                    .nodes
                    .iter()
                    .map(|n| {
                        Json::Obj(vec![
                            ("id".into(), Json::str(n.id)),
                            ("wall_s".into(), Json::Num(n.wall_s)),
                            ("cache_hit".into(), Json::Bool(n.cache_hit)),
                            ("key".into(), Json::str(format!("{:016x}", n.key))),
                            ("attempts".into(), Json::Int(i64::from(n.attempts))),
                            ("text".into(), Json::str(n.text.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Scans the checkpoint directory for restorable points. A slot is `Some`
/// only when its file exists, parses, carries the matching sweep
/// identity, and round-trips its grid value bit-exactly — anything else
/// (torn write, foreign sweep, renamed experiment) degrades to
/// *unfinished* and recomputes.
fn load_checkpoints(
    dir: &Path,
    identity: &str,
    spec: &SweepSpec,
    quick: bool,
    values: &[f64],
) -> Vec<Option<SweepPoint>> {
    values
        .iter()
        .enumerate()
        .map(|(index, _)| {
            let raw = std::fs::read_to_string(dir.join(checkpoint_name(index))).ok()?;
            let json = bdc_exec::json::parse(&raw).ok()?;
            point_from_checkpoint(&json, identity, spec, quick, values, index)
        })
        .collect()
}

/// Reconstructs one [`SweepPoint`] from its checkpoint, validating the
/// identity binding and the grid value before trusting any of it.
fn point_from_checkpoint(
    json: &Json,
    identity: &str,
    spec: &SweepSpec,
    quick: bool,
    values: &[f64],
    index: usize,
) -> Option<SweepPoint> {
    if json.get("bdc_sweep_checkpoint")?.as_u64()? != 1 {
        return None;
    }
    if json.get("identity")?.as_str()? != identity {
        return None;
    }
    if json.get("index")?.as_u64()? as usize != index {
        return None;
    }
    let value = json.get("value")?.as_f64()?;
    if value.to_bits() != values[index].to_bits() {
        return None;
    }
    let wall_s = json.get("wall_s")?.as_f64()?;
    let mut stages = BTreeMap::new();
    if let Json::Obj(members) = json.get("stages")? {
        for (name, counts) in members {
            stages.insert(
                name.clone(),
                (
                    counts.get("hits")?.as_u64()?,
                    counts.get("misses")?.as_u64()?,
                ),
            );
        }
    }
    let mut nodes = Vec::new();
    for node in json.get("nodes")?.as_arr()? {
        let id = node.get("id")?.as_str()?;
        // Re-anchor on the catalogue's 'static id; an id the catalogue no
        // longer knows invalidates the whole checkpoint.
        let id = registry::NODES.iter().find(|n| n.id == id)?.id;
        nodes.push(NodeReport {
            id,
            wall_s: node.get("wall_s")?.as_f64()?,
            cache_hit: matches!(node.get("cache_hit")?, Json::Bool(true)),
            key: u64::from_str_radix(node.get("key")?.as_str()?, 16).ok()?,
            text: node.get("text")?.as_str()?.to_string(),
            attempts: u32::try_from(node.get("attempts")?.as_u64()?).ok()?,
            error: None,
        });
    }
    Some(SweepPoint {
        index,
        value,
        overlay: spec.overlay_for(value),
        wall_s,
        stages,
        report: RunReport {
            quick,
            workers: bdc_exec::workers(),
            max_retries: registry::DEFAULT_MAX_RETRIES,
            nodes,
            faults: Default::default(),
        },
    })
}

/// Runs one grid point inside a fresh attribution scope and packages its
/// report with the stage tallies credited to it.
fn run_point(
    spec: &SweepSpec,
    ids: &[&str],
    quick: bool,
    index: usize,
    value: f64,
) -> Result<SweepPoint, String> {
    let overlay = spec.overlay_for(value);
    let scope = new_scope();
    let _in_scope = enter_scope(scope);
    #[expect(
        clippy::disallowed_methods,
        reason = "wall_s is sweep telemetry, not artifact bytes"
    )]
    let t0 = Instant::now();
    let report =
        registry::run_plan_with_overlay(ids, quick, registry::DEFAULT_MAX_RETRIES, overlay)?;
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(failed) = report.failed().next() {
        return Err(format!(
            "sweep point {index} ({} = {value}): node {} failed: {}",
            spec.param.name(),
            failed.id,
            failed.error.as_deref().unwrap_or("unknown error")
        ));
    }
    Ok(SweepPoint {
        index,
        value,
        overlay,
        wall_s,
        stages: scope_counters(scope),
        report,
    })
}

/// The deterministic sweep output: every point's header plus its node
/// texts, in grid then catalogue order. Byte-identical across worker
/// counts and warm/cold cache states — this is what the CI sweep gate
/// diffs.
pub fn render_transcript(report: &SweepReport) -> String {
    let mut out = String::new();
    for point in &report.points {
        out.push_str(&format!(
            "==== sweep point {}: {} = {} ====\n",
            point.index,
            report.spec.param.name(),
            point.value
        ));
        for node in &point.report.nodes {
            out.push_str(&node.text);
        }
    }
    out
}

/// Distinct stage names sharing a content key, across every grid point —
/// must be zero, or one stage would silently serve another's bytes. The
/// same name repeating a key across points is fine (that is reuse).
pub fn stage_key_collisions(report: &SweepReport) -> usize {
    let mut by_key: BTreeMap<u64, String> = BTreeMap::new();
    let mut collisions = 0;
    for point in &report.points {
        for node in stage_graph(&point.overlay).nodes {
            match by_key.get(&node.key) {
                Some(existing) if *existing != node.name => collisions += 1,
                _ => {
                    by_key.insert(node.key, node.name);
                }
            }
        }
    }
    collisions
}

/// The sweep manifest the CLI writes to `results/sweep_manifest.json`:
/// telemetry only (wall times, stage reuse), plus the grid identity and
/// the cross-point stage-key collision count.
pub fn manifest_json(report: &SweepReport) -> Json {
    let mut total_hits = 0u64;
    let mut total_misses = 0u64;
    let mut incr_hits = 0u64;
    let mut incr_misses = 0u64;
    let mut total_wall = 0.0;
    let points: Vec<Json> = report
        .points
        .iter()
        .map(|p| {
            let (hits, misses) = p.totals();
            total_hits += hits;
            total_misses += misses;
            if p.index > 0 {
                incr_hits += hits;
                incr_misses += misses;
            }
            total_wall += p.wall_s;
            Json::Obj(vec![
                ("index".into(), Json::Int(p.index as i64)),
                ("value".into(), Json::Num(p.value)),
                ("wall_s".into(), Json::Num(p.wall_s)),
                ("stage_hits".into(), Json::Int(hits as i64)),
                ("stage_misses".into(), Json::Int(misses as i64)),
                ("reuse_ratio".into(), Json::Num(ratio(hits, misses))),
                (
                    "nodes_ok".into(),
                    Json::Int(p.report.nodes.iter().filter(|n| n.ok()).count() as i64),
                ),
                (
                    "stages".into(),
                    Json::Obj(
                        p.stages
                            .iter()
                            .map(|(name, (h, m))| {
                                (
                                    name.clone(),
                                    Json::Obj(vec![
                                        ("hits".into(), Json::Int(*h as i64)),
                                        ("misses".into(), Json::Int(*m as i64)),
                                    ]),
                                )
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("param".into(), Json::str(report.spec.param.name())),
        ("start".into(), Json::Num(report.spec.start)),
        ("end".into(), Json::Num(report.spec.end)),
        ("count".into(), Json::Int(report.spec.count as i64)),
        ("quick".into(), Json::Bool(report.quick)),
        (
            "restored_points".into(),
            Json::Int(report.restored_points as i64),
        ),
        (
            "stage_key_collisions".into(),
            Json::Int(stage_key_collisions(report) as i64),
        ),
        ("points".into(), Json::Arr(points)),
        (
            "total".into(),
            Json::Obj(vec![
                ("elapsed_s".into(), Json::Num(report.elapsed_s)),
                ("wall_s".into(), Json::Num(total_wall)),
                ("stage_hits".into(), Json::Int(total_hits as i64)),
                ("stage_misses".into(), Json::Int(total_misses as i64)),
                (
                    "incremental_hit_rate".into(),
                    Json::Num(ratio(incr_hits, incr_misses)),
                ),
            ]),
        ),
    ])
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_grids_inclusively() {
        let spec = SweepSpec::parse("organic.vt=-1.4:-0.6:21").expect("valid spec");
        assert_eq!(spec.param, SweepParam::OrganicVt);
        assert_eq!(spec.count, 21);
        let values = spec.values();
        assert_eq!(values.len(), 21);
        assert_eq!(values[0], -1.4);
        assert_eq!(values[20], -0.6);
        assert!(values.windows(2).all(|w| w[0] < w[1]));

        let single = SweepSpec::parse("organic.vt=-1.3:-0.6:1").expect("count 1");
        assert_eq!(single.values(), vec![-1.3]);
    }

    #[test]
    fn malformed_specs_are_rejected_with_hints() {
        for (bad, hint) in [
            ("organic.vt", "name=start:end:count"),
            ("organic.mu=-1:0:3", "unknown sweep parameter"),
            ("organic.vt=-1:0", "start:end:count"),
            ("organic.vt=-1:0:3:4", "start:end:count"),
            ("organic.vt=x:0:3", "bad sweep start"),
            ("organic.vt=-1:y:3", "bad sweep end"),
            ("organic.vt=-1:0:z", "bad sweep count"),
            ("organic.vt=-1:0:0", "at least 1"),
            ("organic.vt=nan:0:3", "finite"),
        ] {
            let err = SweepSpec::parse(bad).expect_err(bad);
            assert!(err.contains(hint), "`{bad}` → `{err}`");
        }
    }

    #[test]
    fn nominal_value_maps_to_the_default_overlay() {
        let spec = SweepSpec::parse("organic.vt=-1.3:-0.6:8").unwrap();
        let nominal = spec.overlay_for(-TftParams::pentacene().vt0);
        assert!(nominal.is_default(), "{nominal:?}");
        // A shallower (less negative) V_T is a *smaller* magnitude.
        let shallow = spec.overlay_for(-1.0);
        assert!(shallow.organic_delta_vt < 0.0, "{shallow:?}");
    }

    #[test]
    fn two_point_sweep_reuses_dependency_free_nodes() {
        let _env = crate::testenv::cache_env_lock();
        let dir = std::env::temp_dir().join(format!("bdc-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("BDC_CACHE_DIR", &dir);
        // fig03 declares NO_DEPS: its artifact key is overlay-independent,
        // so the second grid point must serve it from the first's cache.
        let spec = SweepSpec::parse("organic.vt=-1.3:-1.2:2").unwrap();
        let report = run_sweep(&spec, &["fig03"], true).expect("sweep runs");
        std::env::remove_var("BDC_CACHE_DIR");
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(report.points.len(), 2);
        let first = &report.points[0].stages;
        let second = &report.points[1].stages;
        assert_eq!(first.get("exp-fig03"), Some(&(0, 1)), "{first:?}");
        assert_eq!(second.get("exp-fig03"), Some(&(1, 0)), "{second:?}");
        // Same bytes at both points, and the transcript carries both.
        let texts: Vec<&str> = report
            .points
            .iter()
            .map(|p| p.report.nodes[0].text.as_str())
            .collect();
        assert_eq!(texts[0], texts[1]);
        let transcript = render_transcript(&report);
        assert!(transcript.starts_with("==== sweep point 0: organic.vt = -1.3 ====\n"));
        assert!(transcript.contains("==== sweep point 1: organic.vt = -1.2 ====\n"));

        assert_eq!(stage_key_collisions(&report), 0);
        let manifest = manifest_json(&report).encode();
        assert!(
            manifest.contains("\"stage_key_collisions\":0"),
            "{manifest}"
        );
        assert!(manifest.contains("\"param\":\"organic.vt\""), "{manifest}");
        assert!(manifest.contains("\"restored_points\":0"), "{manifest}");
    }

    #[test]
    fn resume_restores_checkpointed_points_byte_identically() {
        let _env = crate::testenv::cache_env_lock();
        let dir = std::env::temp_dir().join(format!("bdc-resume-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("BDC_CACHE_DIR", dir.join("cache"));
        let ckpt = dir.join("points");
        let spec = SweepSpec::parse("organic.vt=-1.3:-1.2:2").unwrap();

        // A fresh checkpointed sweep: both points computed and recorded.
        let cold = run_sweep_checkpointed(&spec, &["fig03"], true, Some(&ckpt), false)
            .expect("cold sweep runs");
        assert_eq!(cold.restored_points, 0);
        assert!(ckpt.join("point_0000.json").exists());
        assert!(ckpt.join("point_0001.json").exists());

        // Simulate a crash that lost point 1: its checkpoint vanishes.
        std::fs::remove_file(ckpt.join("point_0001.json")).unwrap();
        let resumed = run_sweep_checkpointed(&spec, &["fig03"], true, Some(&ckpt), true)
            .expect("resume runs");
        assert_eq!(resumed.restored_points, 1, "point 0 restores, 1 recomputes");
        assert_eq!(
            render_transcript(&resumed),
            render_transcript(&cold),
            "resume must replay the transcript byte-identically"
        );

        // Resuming a complete sweep recomputes nothing at all.
        let warm = run_sweep_checkpointed(&spec, &["fig03"], true, Some(&ckpt), true)
            .expect("idempotent resume");
        assert_eq!(warm.restored_points, 2);
        assert_eq!(render_transcript(&warm), render_transcript(&cold));
        let manifest = manifest_json(&warm).encode();
        assert!(manifest.contains("\"restored_points\":2"), "{manifest}");

        // A torn checkpoint is treated as unfinished, never trusted.
        std::fs::write(ckpt.join("point_0000.json"), "{\"bdc_sweep_ch").unwrap();
        let healed = run_sweep_checkpointed(&spec, &["fig03"], true, Some(&ckpt), true)
            .expect("torn checkpoint heals");
        assert_eq!(healed.restored_points, 1);
        assert_eq!(render_transcript(&healed), render_transcript(&cold));

        // A checkpoint from a *different* sweep (other grid) never
        // restores into this one, and a fresh (non-resume) run clears
        // the directory outright.
        let other = SweepSpec::parse("organic.vt=-1.3:-1.1:2").unwrap();
        let foreign = run_sweep_checkpointed(&other, &["fig03"], true, Some(&ckpt), true)
            .expect("foreign spec sweeps clean");
        assert_eq!(foreign.restored_points, 0);
        let fresh = run_sweep_checkpointed(&spec, &["fig03"], true, Some(&ckpt), false)
            .expect("fresh run clears checkpoints");
        assert_eq!(fresh.restored_points, 0);

        std::env::remove_var("BDC_CACHE_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
