//! Pass 1 of `bdc verify`: plan-graph analysis over the experiment
//! registry.
//!
//! The registry (`bdc_core::registry::NODES`) is the repo's dataflow
//! graph: 25 nodes, each with declared library dependencies, canonical
//! drivers, and a content address derived from [`node_cache_key`]. Until
//! now its soundness was only checked *dynamically* — `run_plan` rejects
//! key collisions among the nodes actually selected, at the one budget
//! actually used. This crate lifts the catalogue into an explicit static
//! IR ([`PlanIr`]) and proves the properties for every node at every
//! budget, before anything runs:
//!
//! * **PG001** — node ids are unique;
//! * **PG002** — no two `(node, mode)` pairs share a cache key, across the
//!   whole catalogue at both the quick and standard budgets;
//! * **PG003** — every input that reaches a render (`quick` flag,
//!   `SimBudget::outer`, `SimBudget::instructions`) perturbs the node's
//!   key: an under-keyed node would serve stale bytes when that input
//!   changes;
//! * **PG004/PG005** — the driver bipartite graph is sound: every claimed
//!   driver exists in the canonical catalogues, and every canonical driver
//!   is claimed by exactly one node (no orphans, no double claims);
//! * **PG006** — declared library deps match the reads a recording
//!   [`RunCtx`](bdc_core::registry::RunCtx) observes during a fresh
//!   render ([`audit_deps`], the one dynamic cross-validation);
//! * **PG007** — the dependency graph is acyclic ([`find_cycle`] is
//!   generic and unit-tested on synthetic graphs; today's node→library
//!   edges are bipartite, so a cycle would mean registry corruption);
//! * **PG008–PG010** — the fine-grained *stage* graph (device model →
//!   per-cell DC → per-edge NLDM → cell → library → synthesis, plus IPC)
//!   is acyclic, collision-free at every probed parameter point, and
//!   exactly input-sensitive: a device-parameter perturbation must move
//!   precisely the owning stage keys and their downstream cone — organic
//!   stages and organic-dependent experiment nodes — while silicon
//!   stages, IPC, and dependency-free nodes keep their keys
//!   ([`verify_stages`]).
//!
//! Findings flow through `bdc-lint`'s diagnostic machinery
//! ([`LintReport`]), and [`report_json`] renders the IR plus findings as
//! the deterministic `results/verify_report.json` artifact — no
//! timestamps, worker counts, or wall-clock anywhere, so the report is
//! byte-stable across runs and `BDC_WORKERS` settings (golden-tested).

use bdc_core::experiments::SimBudget;
use bdc_core::registry::{audit_node_deps, node_cache_key, node_cache_key_with, Dep, NODES};
use bdc_core::{stage_graph, ParamOverlay, Process};
use bdc_exec::json::Json;
use bdc_lint::{Diagnostic, LintReport, Location, Rule};

/// One registry node, lifted into the static IR.
#[derive(Debug, Clone)]
pub struct IrNode {
    /// Stable node id (`fig12`, `table-library`, …).
    pub id: &'static str,
    /// The retired per-figure binary this node replaced.
    pub legacy_bin: &'static str,
    /// Canonical drivers the node claims.
    pub drivers: Vec<&'static str>,
    /// Declared library dependencies, deduplicated, in `Process` order.
    pub deps: Vec<Process>,
    /// Content address at the quick budget.
    pub key_quick: u64,
    /// Content address at the standard budget.
    pub key_standard: u64,
}

/// The whole catalogue as a static dataflow IR.
#[derive(Debug, Clone)]
pub struct PlanIr {
    /// One entry per registry node, in catalogue order.
    pub nodes: Vec<IrNode>,
}

/// Lifts `NODES` into the IR.
pub fn build_ir() -> PlanIr {
    let quick = SimBudget::quick();
    let standard = SimBudget::standard();
    let nodes = NODES
        .iter()
        .map(|n| {
            let mut deps: Vec<Process> = Vec::new();
            for Dep::Library(p) in n.deps {
                if !deps.contains(p) {
                    deps.push(*p);
                }
            }
            deps.sort_by_key(|p| *p as u8);
            IrNode {
                id: n.id,
                legacy_bin: n.legacy_bin,
                drivers: n.drivers.to_vec(),
                deps,
                key_quick: node_cache_key(n, true, quick),
                key_standard: node_cache_key(n, false, standard),
            }
        })
        .collect();
    PlanIr { nodes }
}

/// Generic cycle detection over a directed graph given as an edge list on
/// vertices `0..n`. Returns one cycle as a vertex path (first == last), or
/// `None` when the graph is acyclic.
pub fn find_cycle(n: usize, edges: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        if a < n && b < n {
            adj[a].push(b);
        }
    }
    // 0 = unvisited, 1 = on stack, 2 = done.
    let mut state = vec![0u8; n];
    let mut stack: Vec<(usize, usize)> = Vec::new(); // (vertex, next-child index)
    let mut path: Vec<usize> = Vec::new();
    for start in 0..n {
        if state[start] != 0 {
            continue;
        }
        stack.push((start, 0));
        state[start] = 1;
        path.push(start);
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < adj[v].len() {
                let w = adj[v][*next];
                *next += 1;
                match state[w] {
                    0 => {
                        state[w] = 1;
                        stack.push((w, 0));
                        path.push(w);
                    }
                    1 => {
                        // Found: slice the current path from w onward.
                        let at = path.iter().position(|&x| x == w).unwrap_or(0);
                        let mut cycle = path[at..].to_vec();
                        cycle.push(w);
                        return Some(cycle);
                    }
                    _ => {}
                }
            } else {
                state[v] = 2;
                stack.pop();
                path.pop();
            }
        }
    }
    None
}

fn diag(rule: Rule, node: &str, message: String) -> Diagnostic {
    Diagnostic::new(rule, Location::Node(node.to_string()), message)
}

/// The canonical driver catalogue (experiments then extensions).
pub fn canonical_drivers() -> Vec<&'static str> {
    let mut all: Vec<&'static str> = bdc_core::experiments::driver_names().to_vec();
    all.extend_from_slice(bdc_core::extensions::driver_names());
    all
}

/// Runs every static plan-graph check (PG001–PG005, PG007) over the IR.
/// Purely static: nothing is rendered, no library is characterized, no
/// environment is read — safe to run anywhere, byte-stable everywhere.
pub fn verify_static(ir: &PlanIr) -> LintReport {
    let mut report = LintReport::new("plan-graph");

    // PG001: duplicate ids.
    for (i, n) in ir.nodes.iter().enumerate() {
        if ir.nodes[..i].iter().any(|m| m.id == n.id) {
            report.push(diag(
                Rule::DuplicateNodeId,
                n.id,
                format!("node id `{}` registered more than once", n.id),
            ));
        }
    }

    // PG002: global key collisions, across both budgets.
    let mut keys: Vec<(u64, String)> = Vec::new();
    for n in &ir.nodes {
        keys.push((n.key_quick, format!("{} (quick)", n.id)));
        keys.push((n.key_standard, format!("{} (standard)", n.id)));
    }
    keys.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    for pair in keys.windows(2) {
        if pair[0].0 == pair[1].0 {
            report.push(
                diag(
                    Rule::CacheKeyCollision,
                    &pair[1].1,
                    format!(
                        "cache key {:016x} is shared by {} and {}",
                        pair[0].0, pair[0].1, pair[1].1
                    ),
                )
                .with_hint("two nodes must never share a content address"),
            );
        }
    }

    // PG003: key sensitivity — every input that reaches a render fn
    // (`quick`, `budget.outer`, `budget.instructions`) must perturb the
    // key, at both base configurations.
    for (node, ir_node) in NODES.iter().zip(&ir.nodes) {
        for (mode, quick, budget, base) in [
            ("quick", true, SimBudget::quick(), ir_node.key_quick),
            (
                "standard",
                false,
                SimBudget::standard(),
                ir_node.key_standard,
            ),
        ] {
            if node_cache_key(node, quick, budget) != base {
                report.push(diag(
                    Rule::UnderKeyedNode,
                    ir_node.id,
                    format!("cache key is not a pure function of its inputs ({mode})"),
                ));
                continue;
            }
            let perturbed = [
                ("quick flag", node_cache_key(node, !quick, budget)),
                (
                    "budget.outer",
                    node_cache_key(
                        node,
                        quick,
                        SimBudget {
                            outer: budget.outer + 1,
                            ..budget
                        },
                    ),
                ),
                (
                    "budget.instructions",
                    node_cache_key(
                        node,
                        quick,
                        SimBudget {
                            instructions: budget.instructions + 1,
                            ..budget
                        },
                    ),
                ),
            ];
            for (input, key) in perturbed {
                if key == base {
                    report.push(
                        diag(
                            Rule::UnderKeyedNode,
                            ir_node.id,
                            format!(
                                "input `{input}` reaches the render but does not perturb \
                                 the {mode} cache key"
                            ),
                        )
                        .with_hint("add the input to node_cache_key or stale bytes will be served"),
                    );
                }
            }
        }
    }

    // PG004: claimed drivers must exist in the canonical catalogues.
    let canonical = canonical_drivers();
    for n in &ir.nodes {
        for d in &n.drivers {
            if !canonical.contains(d) {
                report.push(diag(
                    Rule::UnknownDriver,
                    n.id,
                    format!("claims driver `{d}` absent from the canonical catalogues"),
                ));
            }
        }
    }

    // PG005: every canonical driver claimed by exactly one node.
    for d in &canonical {
        let owners: Vec<&str> = ir
            .nodes
            .iter()
            .filter(|n| n.drivers.contains(d))
            .map(|n| n.id)
            .collect();
        match owners.len() {
            1 => {}
            0 => report.push(
                diag(
                    Rule::DriverCoverage,
                    &format!("driver:{d}"),
                    format!("canonical driver `{d}` is orphaned — no node claims it"),
                )
                .with_hint("register it on a node or retire the driver"),
            ),
            _ => report.push(diag(
                Rule::DriverCoverage,
                &format!("driver:{d}"),
                format!("canonical driver `{d}` claimed by {owners:?}"),
            )),
        }
    }

    // PG007: dependency cycles. Vertices: nodes then library resources.
    let lib_vertex = |p: Process| ir.nodes.len() + p as usize;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (i, n) in ir.nodes.iter().enumerate() {
        for p in &n.deps {
            edges.push((i, lib_vertex(*p)));
        }
    }
    if let Some(cycle) = find_cycle(ir.nodes.len() + 2, &edges) {
        let names: Vec<String> = cycle
            .iter()
            .map(|&v| match ir.nodes.get(v) {
                Some(n) => n.id.to_string(),
                None => format!("library#{}", v - ir.nodes.len()),
            })
            .collect();
        report.push(diag(
            Rule::PlanCycle,
            &names.first().cloned().unwrap_or_default(),
            format!("dependency cycle: {}", names.join(" -> ")),
        ));
    }

    report
}

/// Runs the stage-graph checks (PG008–PG010) and returns the number of
/// stages proved plus the findings. Purely static, like
/// [`verify_static`]: keys are derived, never rendered.
///
/// The probe compares the nominal parameter point against a perturbed
/// one (an organic ΔV_T of +0.25 V):
///
/// * **PG008** — the stage graph is acyclic at both points;
/// * **PG009** — the perturbation moves exactly the organic cone: every
///   organic stage key changes, no silicon or IPC stage key changes, and
///   at the experiment level a node re-keys iff it declares the organic
///   library;
/// * **PG010** — no two distinct stages share a content key, within
///   either point or across the two.
pub fn verify_stages() -> (usize, LintReport) {
    let mut report = LintReport::new("stage-graph");
    let nominal = ParamOverlay::default();
    let shifted = ParamOverlay {
        organic_delta_vt: 0.25,
    };
    let base = stage_graph(&nominal);
    let moved = stage_graph(&shifted);

    // PG008: acyclicity (checked at the nominal point; the graph's shape
    // is overlay-independent — only the keys move).
    if let Some(cycle) = find_cycle(base.nodes.len(), &base.edges()) {
        let names: Vec<&str> = cycle
            .iter()
            .filter_map(|&v| base.nodes.get(v).map(|n| n.name.as_str()))
            .collect();
        report.push(diag(
            Rule::StageCycle,
            names.first().copied().unwrap_or("stage"),
            format!("stage dependency cycle: {}", names.join(" -> ")),
        ));
    }

    // PG010: distinct stages never share a key — within either parameter
    // point, or across the two.
    let mut keyed: Vec<(u64, String)> = Vec::new();
    for (tag, graph) in [("nominal", &base), ("shifted", &moved)] {
        for n in &graph.nodes {
            keyed.push((n.key, format!("{} ({tag})", n.name)));
        }
    }
    keyed.sort();
    keyed.dedup();
    for pair in keyed.windows(2) {
        let same_stage = pair[0].1.split(' ').next() == pair[1].1.split(' ').next();
        if pair[0].0 == pair[1].0 && !same_stage {
            report.push(
                diag(
                    Rule::StageKeyCollision,
                    &pair[1].1,
                    format!(
                        "stage key {:016x} is shared by {} and {}",
                        pair[0].0, pair[0].1, pair[1].1
                    ),
                )
                .with_hint("two stages must never share a content address"),
            );
        }
    }

    // PG009, stage level: the organic cone moves, nothing else does.
    for (b, m) in base.nodes.iter().zip(&moved.nodes) {
        debug_assert_eq!(b.name, m.name);
        let organic_cone = b.name.contains("organic");
        if organic_cone && b.key == m.key {
            report.push(
                diag(
                    Rule::StageKeyInsensitive,
                    &b.name,
                    "a device V_T perturbation does not move this organic stage key".into(),
                )
                .with_hint("chain the device stage key into this stage's inputs"),
            );
        }
        if !organic_cone && b.key != m.key {
            report.push(
                diag(
                    Rule::StageKeyInsensitive,
                    &b.name,
                    "a stage outside the perturbed parameter's cone re-keyed".into(),
                )
                .with_hint("over-keying defeats incremental reuse across sweep points"),
            );
        }
    }

    // PG009, experiment level: a node re-keys iff it declares the organic
    // library — the contract `node_cache_key_with` carries for sweeps.
    for (mode, quick, budget) in [
        ("quick", true, SimBudget::quick()),
        ("standard", false, SimBudget::standard()),
    ] {
        for node in NODES {
            let organic_dep = node.deps.contains(&Dep::Library(Process::Organic));
            let unchanged = node_cache_key_with(node, quick, budget, &nominal)
                == node_cache_key_with(node, quick, budget, &shifted);
            if organic_dep && unchanged {
                report.push(diag(
                    Rule::StageKeyInsensitive,
                    node.id,
                    format!(
                        "declares the organic library but its {mode} key ignores a \
                         device V_T perturbation"
                    ),
                ));
            }
            if !organic_dep && !unchanged {
                report.push(
                    diag(
                        Rule::StageKeyInsensitive,
                        node.id,
                        format!(
                            "declares no organic dependency but its {mode} key moved \
                             under a device V_T perturbation"
                        ),
                    )
                    .with_hint("the node would needlessly recompute at every sweep point"),
                );
            }
        }
    }

    (base.nodes.len(), report)
}

/// PG006: cross-validates each node's declared library deps against the
/// reads a recording context observes during a fresh render. Dynamic (it
/// renders every node once, bypassing the artifact cache) — run it at the
/// quick budget in CI. A node whose render itself fails is also reported.
pub fn audit_deps(ir: &PlanIr, quick: bool) -> LintReport {
    let mut report = LintReport::new("dep-audit");
    for n in &ir.nodes {
        match audit_node_deps(n.id, quick) {
            Ok((declared, observed)) => {
                if declared != observed {
                    report.push(
                        diag(
                            Rule::DepMismatch,
                            n.id,
                            format!("declared deps {declared:?} but render read {observed:?}"),
                        )
                        .with_hint("fix the node's `deps` so the scheduler prewarms correctly"),
                    );
                }
            }
            Err(e) => report.push(diag(
                Rule::DepMismatch,
                n.id,
                format!("dependency audit could not render the node: {e}"),
            )),
        }
    }
    report
}

fn location_string(d: &Diagnostic) -> String {
    d.location.to_string()
}

/// Renders the IR plus findings as the deterministic verify-report JSON.
/// `audited` records whether the PG006 dynamic audit ran (and at which
/// budget); `stages` is the stage count [`verify_stages`] proved (0 when
/// the pass did not run). Everything else is static. Contains no timings,
/// seeds, worker counts, or absolute paths — byte-stable across runs by
/// construction.
pub fn report_json(ir: &PlanIr, report: &LintReport, audited: Option<bool>, stages: usize) -> Json {
    let nodes = ir
        .nodes
        .iter()
        .map(|n| {
            Json::Obj(vec![
                ("id".into(), Json::str(n.id)),
                ("legacy_bin".into(), Json::str(n.legacy_bin)),
                (
                    "drivers".into(),
                    Json::Arr(n.drivers.iter().map(|d| Json::str(*d)).collect()),
                ),
                (
                    "deps".into(),
                    Json::Arr(n.deps.iter().map(|p| Json::str(p.name())).collect()),
                ),
                (
                    "key_quick".into(),
                    Json::str(format!("{:016x}", n.key_quick)),
                ),
                (
                    "key_standard".into(),
                    Json::str(format!("{:016x}", n.key_standard)),
                ),
            ])
        })
        .collect();
    let findings = report
        .diagnostics
        .iter()
        .map(|d| {
            Json::Obj(vec![
                ("rule".into(), Json::str(d.rule.id())),
                ("severity".into(), Json::str(d.severity.to_string())),
                ("location".into(), Json::str(location_string(d))),
                ("message".into(), Json::str(&d.message)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("version".into(), Json::str("bdc-verify-v2")),
        ("nodes".into(), Json::Int(ir.nodes.len() as i64)),
        (
            "keys_checked".into(),
            Json::Int((ir.nodes.len() * 2) as i64),
        ),
        ("stages".into(), Json::Int(stages as i64)),
        (
            "dep_audit".into(),
            match audited {
                None => Json::str("skipped"),
                Some(true) => Json::str("quick"),
                Some(false) => Json::str("standard"),
            },
        ),
        ("catalogue".into(), Json::Arr(nodes)),
        ("findings".into(), Json::Arr(findings)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdc_lint::Severity;

    #[test]
    fn ir_covers_the_whole_catalogue() {
        let ir = build_ir();
        assert_eq!(ir.nodes.len(), NODES.len());
        assert!(ir.nodes.iter().any(|n| n.id == "fig12"));
        let fig11 = ir.nodes.iter().find(|n| n.id == "fig11").unwrap();
        assert_eq!(fig11.deps, vec![Process::Organic, Process::Silicon]);
    }

    #[test]
    fn registry_is_statically_sound() {
        // The acceptance gate: all 25 nodes collision-free and fully keyed.
        let ir = build_ir();
        let report = verify_static(&ir);
        assert!(report.diagnostics.is_empty(), "{report}");
        assert_eq!(report.count(Severity::Error), 0);
    }

    #[test]
    fn key_collisions_are_detected() {
        // A synthetic IR with two identical keys must trip PG002.
        let mut ir = build_ir();
        ir.nodes[1].key_quick = ir.nodes[0].key_quick;
        let mut keys: Vec<(u64, String)> = Vec::new();
        for n in &ir.nodes {
            keys.push((n.key_quick, n.id.into()));
        }
        keys.sort();
        assert!(keys.windows(2).any(|w| w[0].0 == w[1].0));
        // verify_static recomputes PG003 from NODES but PG002 from the IR.
        let report = verify_static(&ir);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == Rule::CacheKeyCollision),
            "{report}"
        );
    }

    #[test]
    fn find_cycle_detects_and_clears() {
        assert!(find_cycle(3, &[(0, 1), (1, 2)]).is_none());
        let cycle = find_cycle(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).expect("cycle");
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() >= 3);
        // Self-loop.
        assert!(find_cycle(1, &[(0, 0)]).is_some());
        // Out-of-range edges are ignored, not a panic.
        assert!(find_cycle(2, &[(0, 7), (9, 1)]).is_none());
    }

    #[test]
    fn report_json_is_deterministic_and_timeless() {
        let ir = build_ir();
        let report = verify_static(&ir);
        let a = report_json(&ir, &report, None, 47).encode();
        let b = report_json(&ir, &report, None, 47).encode();
        assert_eq!(a, b);
        for forbidden in ["wall", "workers", "time", "seed"] {
            assert!(!a.contains(forbidden), "report leaks `{forbidden}`");
        }
        assert!(a.contains("bdc-verify-v2"));
        assert!(a.contains("key_quick"));
        assert!(a.contains("\"stages\":47"));
    }

    #[test]
    fn stage_graph_is_statically_sound() {
        // The acceptance gate for the fine-grained cache: acyclic,
        // collision-free, and exactly input-sensitive.
        let (stages, report) = verify_stages();
        assert!(report.diagnostics.is_empty(), "{report}");
        // 2 processes × (1 device + 5×4 cell stages + lib + synth) + ipc.
        assert_eq!(stages, 47);
    }

    #[test]
    fn stage_insensitivity_is_detected_on_a_synthetic_graph() {
        // verify_stages derives keys from the real stage module, so a
        // healthy repo cannot trip PG009 — exercise the classifier
        // directly: an organic stage whose key ignores the perturbation
        // must be flagged by the same cone predicate the pass uses.
        let nominal = stage_graph(&ParamOverlay::default());
        let shifted = stage_graph(&ParamOverlay {
            organic_delta_vt: 0.25,
        });
        let lib_nom = nominal.node("lib-organic").expect("lib stage").key;
        let lib_shift = shifted.node("lib-organic").expect("lib stage").key;
        assert_ne!(lib_nom, lib_shift, "organic cone must move");
        let ipc_nom = nominal.node("ipc").expect("ipc stage").key;
        let ipc_shift = shifted.node("ipc").expect("ipc stage").key;
        assert_eq!(ipc_nom, ipc_shift, "ipc must stay outside the cone");
    }
}
