//! `perfbench-trace` — the benchmark's layer tracer.
//!
//! Replays a workload's work through the public functions of each crate
//! and times every call from the outside: nothing inside the program is
//! instrumented. Each call runs inside a span (name, start, end, parent);
//! `perfbench/run.py` turns the spans into per-layer self times.
//!
//! ```text
//! perfbench-trace replay --spans 0|1 --store DIR [--ref DIR] [--device]
//!     [--lib organic[:vt=VOLTS]] [--lib silicon] [--synth P:FE:BE[:SPLIT+SPLIT]]
//!     [--ipc WORKLOAD:OUTER:INSTRUCTIONS:FE:BE] [--load-all DIR]
//! perfbench-trace plan --out FILE
//! ```
//!
//! `replay` prints one JSON object: wall time, spans, exact counters and
//! the number of outputs that differ from the program's own artifacts in
//! `--ref`. `plan` runs the whole registry plan in-process twice (cold on
//! an empty `BDC_CACHE_DIR`, then warm) and prints plan-level counters.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bdc_cells::{
    assemble_organic_library, assemble_silicon_library, characterize_gate, cmos_gate,
    measure_static_power, organic_gate_shifted, parse_cell_text, parse_library, write_cell_text,
    write_library, Cell, CellLibrary, CharacterizeConfig, GateCircuit, LogicKind, OrganicSizing,
};
use bdc_core::corespec::stage_netlist;
use bdc_core::registry::{run_plan, NODES};
use bdc_core::stage::cell_artifact;
use bdc_core::{library_stage_key, measure_ipc, synthesize_core, CoreSpec, ParamOverlay};
use bdc_core::{Process, StageKind, TechKit};
use bdc_exec::json::Json;
use bdc_exec::{fnv1a, stage_counters, stage_delta, ArtifactCache};
use bdc_synth::pipeline::PipelineOptions;
use bdc_synth::{analyze, pipeline_cut, remap_for_library};
use bdc_uarch::Workload;

/// One timed call.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Span recorder plus exact work counters. With `on == false` the calls
/// run bare, which gives the untraced wall time the overhead compares to.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
    compared: u64,
    mismatches: Vec<String>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
            compared: 0,
            mismatches: Vec::new(),
        }
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.t0.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.t0.elapsed().as_secs_f64();
        out
    }

    fn add(&mut self, counter: &'static str, v: f64) {
        *self.counters.entry(counter).or_insert(0.0) += v;
    }

    /// Records one comparison against the program's own output.
    fn check(&mut self, what: String, ok: bool) {
        self.compared += 1;
        if !ok {
            self.mismatches.push(what);
        }
    }

    fn store(&mut self, cache: &ArtifactCache, name: &str, key: u64, text: &str) {
        let ok = self.span("exec.cache.store", |_| cache.store(name, key, text));
        self.check(format!("store {name}"), ok);
        self.add("exec.cache.stores", 1.0);
        self.add("exec.cache.store_bytes", text.len() as f64);
    }

    fn load(&mut self, cache: &ArtifactCache, name: &str, key: u64) -> Option<String> {
        let text = self.span("exec.cache.load", |_| cache.load(name, key));
        self.add("exec.cache.loads", 1.0);
        self.add(
            "exec.cache.load_bytes",
            text.as_ref().map_or(0, String::len) as f64,
        );
        text
    }
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench-trace: {msg}");
    std::process::exit(2);
}

fn process_named(name: &str) -> Process {
    match name {
        "organic" => Process::Organic,
        "silicon" => Process::Silicon,
        other => die(&format!("unknown process `{other}`")),
    }
}

fn num<T: std::str::FromStr>(raw: &str, what: &str) -> T {
    raw.parse()
        .unwrap_or_else(|_| die(&format!("bad {what} `{raw}`")))
}

/// Characterizes the five combinational cells of `process` the way
/// `build_organic_cell` / `build_silicon_cell` do (topology, transient
/// NLDM grid, static power), checks each against the program's cached
/// cell, stores it, then assembles the library and round-trips it through
/// Liberty text.
fn build_library(
    t: &mut Tracer,
    process: Process,
    delta_vt: f64,
    store: &ArtifactCache,
    reference: &ArtifactCache,
) -> CellLibrary {
    let overlay = ParamOverlay {
        organic_delta_vt: delta_vt,
    };
    let (cfg, vdd) = match process {
        Process::Organic => (CharacterizeConfig::organic(), 5.0),
        Process::Silicon => (CharacterizeConfig::silicon(), 1.0),
    };
    let sizing = OrganicSizing::library_default();
    let mut cells = Vec::new();
    for kind in LogicKind::all() {
        let (name, key) = cell_artifact(process, kind, &overlay);
        let cells_span = match process {
            Process::Organic => "cells.characterize.organic",
            Process::Silicon => "cells.characterize.silicon",
        };
        let (gate, timing, leakage_w): (GateCircuit, _, f64) = t.span(cells_span, |t| {
            let gate = match process {
                Process::Organic => organic_gate_shifted(kind, &sizing, vdd, -15.0, delta_vt),
                Process::Silicon => cmos_gate(kind, 450.0e-9, vdd),
            };
            let timing = t
                .span("circuit.tran", |_| characterize_gate(&gate, &cfg))
                .unwrap_or_else(|e| die(&format!("characterize {name}: {e}")));
            let leakage = t
                .span("circuit.dc", |_| measure_static_power(&gate))
                .unwrap_or_else(|e| die(&format!("static power {name}: {e}")));
            (gate, timing, leakage)
        });
        t.add(
            "circuit.tran_points",
            (cfg.slews.len() * cfg.loads.len() * 2) as f64,
        );
        // Area is layout bookkeeping build_*_cell keeps private; take
        // it from the program's own cached cell and compare the rest. The
        // reference reads are checks, not workload traffic: no span.
        let reference_text = reference.load(&name, key);
        let Some(reference_cell) = reference_text.as_deref().and_then(parse_cell_text) else {
            t.check(format!("reference {name} missing"), false);
            die(&format!("no reference artifact {name}-{key:016x} in --ref"));
        };
        let cell = Cell {
            kind: reference_cell.kind,
            area: reference_cell.area,
            input_cap: gate.input_cap,
            leakage_w,
            switching_energy: 2.0 * gate.input_cap * vdd * vdd,
            timing,
        };
        let text = write_cell_text(&cell);
        t.check(
            format!("cell {name}"),
            Some(&text) == reference_text.as_ref(),
        );
        t.store(store, &name, key, &text);
        cells.push(cell);
    }
    let lib = t.span("cells.assemble", |_| match process {
        Process::Organic => assemble_organic_library(cells, vdd, -15.0),
        Process::Silicon => assemble_silicon_library(cells, vdd),
    });
    let (text, parsed) = t.span("cells.liberty", |_| {
        let text = write_library(&lib);
        let parsed = parse_library(&text);
        (text, parsed)
    });
    let parsed = parsed.unwrap_or_else(|e| die(&format!("liberty round trip: {e}")));
    t.check(
        format!("liberty round trip {}", process.name()),
        write_library(&parsed) == text,
    );
    let lib_name = format!("lib-{}", process.name());
    let lib_key = library_stage_key(process, &overlay);
    let reference_lib = reference.load(&lib_name, lib_key);
    t.check(
        format!("library {lib_name}"),
        reference_lib.as_deref() == Some(text.as_str()),
    );
    t.store(store, &lib_name, lib_key, &text);
    parsed
}

/// Synthesizes one core design point whole, then maps and times each
/// stage netlist separately so mapping, STA and pipeline cuts show apart.
fn synth_point(t: &mut Tracer, kit: &TechKit, spec: &CoreSpec, store: &ArtifactCache) {
    let core = t.span("synth.core", |_| synthesize_core(kit, spec));
    let text = format!("{core:?}");
    let key = fnv1a(&["perfbench-synth", kit.process.name(), &format!("{spec:?}")]);
    t.store(store, &format!("synth-{}", kit.process.name()), key, &text);
    for kind in StageKind::all() {
        let net = t.span("synth.netlist", |_| {
            stage_netlist(kind, spec.fe_width, spec.be_pipes)
        });
        let (mapped, _) = t.span("synth.map", |_| remap_for_library(&net, &kit.lib));
        t.add("synth.gates", mapped.gates().len() as f64);
        let k = spec.substages(kind);
        if k == 1 {
            t.span("synth.sta", |_| analyze(&mapped, &kit.lib, &kit.sta));
        } else {
            let opts = PipelineOptions {
                stages: k,
                ..kit.pipe
            };
            t.span("synth.pipeline_cut", |_| {
                pipeline_cut(&mapped, &kit.lib, &kit.sta, &opts)
            });
        }
    }
}

fn parse_synth(raw: &str) -> (Process, CoreSpec) {
    let parts: Vec<&str> = raw.split(':').collect();
    if parts.len() < 3 || parts.len() > 4 {
        die(&format!("--synth wants P:FE:BE[:SPLIT+SPLIT], got `{raw}`"));
    }
    let mut spec = CoreSpec::with_widths(num(parts[1], "fe"), num(parts[2], "be"));
    if let Some(splits) = parts.get(3) {
        for s in splits.split('+') {
            spec.splits.push(
                StageKind::from_name(s).unwrap_or_else(|| die(&format!("unknown stage `{s}`"))),
            );
        }
    }
    (process_named(parts[0]), spec)
}

fn ipc_point(t: &mut Tracer, raw: &str, store: &ArtifactCache) {
    let parts: Vec<&str> = raw.split(':').collect();
    if parts.len() != 5 {
        die(&format!(
            "--ipc wants W:OUTER:INSTRUCTIONS:FE:BE, got `{raw}`"
        ));
    }
    let workload = Workload::all()
        .into_iter()
        .find(|w| w.name() == parts[0])
        .unwrap_or_else(|| die(&format!("unknown workload `{}`", parts[0])));
    let spec = CoreSpec::with_widths(num(parts[3], "fe"), num(parts[4], "be"));
    let stats = t.span("uarch.sim", |_| {
        measure_ipc(
            &spec,
            workload,
            num(parts[1], "outer"),
            num(parts[2], "instructions"),
        )
    });
    t.add("uarch.sim_instructions", stats.instructions as f64);
    t.add("uarch.sim_cycles", stats.cycles as f64);
    t.store(
        store,
        "ipc",
        fnv1a(&["perfbench-ipc", raw]),
        &format!("{stats:?}"),
    );
}

/// Loads every artifact in a cache directory, as a warm plan reads them.
fn load_all(t: &mut Tracer, dir: &Path) {
    let cache = ArtifactCache::new(dir);
    let mut entries: Vec<(String, u64)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| die(&format!("read {}: {e}", dir.display())))
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            let stem = name.strip_suffix(".txt")?;
            let (artifact, key) = stem.rsplit_once('-')?;
            Some((artifact.to_string(), u64::from_str_radix(key, 16).ok()?))
        })
        .collect();
    entries.sort();
    for (name, key) in entries {
        let text = t.load(&cache, &name, key);
        t.check(format!("load {name}"), text.is_some());
    }
}

fn cmd_replay(args: &[String]) {
    let mut on = None;
    let mut store_dir: Option<PathBuf> = None;
    let mut ref_dir: Option<PathBuf> = None;
    let mut steps: Vec<(String, String)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--spans" => on = Some(value() == "1"),
            "--store" => store_dir = Some(PathBuf::from(value())),
            "--ref" => ref_dir = Some(PathBuf::from(value())),
            "--device" => steps.push((flag.clone(), String::new())),
            "--lib" | "--synth" | "--ipc" | "--load-all" => steps.push((flag.clone(), value())),
            other => die(&format!("unknown flag `{other}`")),
        }
    }
    let on = on.unwrap_or_else(|| die("--spans 0|1 is required"));
    let store = ArtifactCache::new(store_dir.unwrap_or_else(|| die("--store is required")));
    let reference = ArtifactCache::new(ref_dir.unwrap_or_else(|| PathBuf::from(".")));

    let mut t = Tracer::new(on);
    let mut libs: BTreeMap<&'static str, CellLibrary> = BTreeMap::new();
    for (flag, value) in &steps {
        match flag.as_str() {
            "--device" => {
                t.span("device.fit", |_| {
                    let geometry = bdc_device::TftParams::pentacene();
                    let measured =
                        bdc_device::variation::synthetic_measured_curve(&geometry, -1.0, 161, 1);
                    let l1 = bdc_device::fit_level1(&measured, -1.0, &geometry);
                    let l61 = bdc_device::fit_level61(&measured, -1.0, &geometry);
                    if l1.is_err() || l61.is_err() {
                        die("device fit failed");
                    }
                });
            }
            "--lib" => {
                // `organic:vt=V` is the sweep's physical V_T, mapped to a
                // shift of the nominal device as `bdc sweep` maps it.
                let (p, delta_vt) = match value.split_once(":vt=") {
                    Some((p, vt)) => {
                        let v: f64 = num(vt, "vt");
                        (p, -v - bdc_device::TftParams::pentacene().vt0)
                    }
                    None => (value.as_str(), 0.0),
                };
                let process = process_named(p);
                let lib = build_library(&mut t, process, delta_vt, &store, &reference);
                libs.insert(process.name(), lib);
            }
            "--synth" => {
                let (process, spec) = parse_synth(value);
                let lib = libs.get(process.name()).unwrap_or_else(|| {
                    die(&format!(
                        "--synth {value} needs an earlier --lib {}",
                        process.name()
                    ))
                });
                let kit = TechKit::with_library(process, lib.clone());
                synth_point(&mut t, &kit, &spec, &store);
            }
            "--ipc" => ipc_point(&mut t, value, &store),
            "--load-all" => load_all(&mut t, Path::new(value)),
            _ => unreachable!("flags are filtered above"),
        }
    }
    let wall = t.t0.elapsed().as_secs_f64();

    let spans = t
        .spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("start".into(), Json::Num(s.start)),
                ("end".into(), Json::Num(s.end)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Int(-1), |p| Json::Int(p as i64)),
                ),
            ])
        })
        .collect();
    let counters = t
        .counters
        .iter()
        .map(|(k, v)| (k.to_string(), Json::Num(*v)))
        .collect();
    let out = Json::Obj(vec![
        ("wall_s".into(), Json::Num(wall)),
        ("spans".into(), Json::Arr(spans)),
        ("counters".into(), Json::Obj(counters)),
        ("compared".into(), Json::Int(t.compared as i64)),
        (
            "mismatches".into(),
            Json::Arr(t.mismatches.into_iter().map(Json::Str).collect()),
        ),
    ]);
    println!("{}", out.encode());
}

/// Runs the full quick plan cold, then warm, in this process.
fn cmd_plan(args: &[String]) {
    let out = match args {
        [flag, path] if flag == "--out" => PathBuf::from(path),
        _ => die("usage: perfbench-trace plan --out FILE"),
    };
    let ids: Vec<&str> = NODES.iter().map(|n| n.id).collect();
    let before = stage_counters();
    let t0 = Instant::now();
    let cold = run_plan(&ids, true).unwrap_or_else(|e| die(&format!("cold plan: {e}")));
    let cold_wall = t0.elapsed().as_secs_f64();
    let (hits, misses) = stage_delta(&before)
        .values()
        .fold((0, 0), |(h, m), &(dh, dm)| (h + dh, m + dm));
    let t1 = Instant::now();
    let warm = run_plan(&ids, true).unwrap_or_else(|e| die(&format!("warm plan: {e}")));
    let render = t1.elapsed().as_secs_f64();

    let cold_text: String = cold.nodes.iter().map(|n| n.text.as_str()).collect();
    let warm_text: String = warm.nodes.iter().map(|n| n.text.as_str()).collect();
    std::fs::write(&out, &cold_text)
        .unwrap_or_else(|e| die(&format!("write {}: {e}", out.display())));
    let node_sum: f64 = cold.nodes.iter().map(|n| n.wall_s).sum();
    let node_max = cold.nodes.iter().map(|n| n.wall_s).fold(0.0, f64::max);
    let retries: u32 = cold.nodes.iter().map(|n| n.attempts - 1).sum();
    let failed = cold.failed().count() + warm.failed().count();
    let cold_nodes = warm.nodes.iter().filter(|n| !n.cache_hit).count();
    let report = Json::Obj(vec![
        ("workers".into(), Json::Int(cold.workers as i64)),
        ("cold_wall_s".into(), Json::Num(cold_wall)),
        ("render_s".into(), Json::Num(render)),
        ("max_node_s".into(), Json::Num(node_max)),
        ("sum_node_s".into(), Json::Num(node_sum)),
        ("retries".into(), Json::Int(i64::from(retries))),
        ("failed".into(), Json::Int(failed as i64)),
        ("stage_hits".into(), Json::Int(hits as i64)),
        ("stage_misses".into(), Json::Int(misses as i64)),
        ("warm_misses".into(), Json::Int(cold_nodes as i64)),
        (
            "warm_matches_cold".into(),
            Json::Bool(warm_text == cold_text),
        ),
    ]);
    println!("{}", report.encode());
}

fn main() {
    if let Err(e) = bdc_exec::env_config() {
        die(&e);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("replay") => cmd_replay(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        _ => die("usage: perfbench-trace replay|plan ..."),
    }
}
