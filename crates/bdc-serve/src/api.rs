//! The experiment-serving API: parse a request into a canonical
//! [`ApiCall`], execute it against the flow, and render a deterministic
//! JSON body.
//!
//! Endpoints (see the README "Serving" section for `curl` examples):
//!
//! | endpoint | verb | answers |
//! |----------|------|---------|
//! | `/healthz` | GET | liveness |
//! | `/v1/metrics` | GET | counters + latency quantiles |
//! | `/v1/library` | GET | characterized library summary per process |
//! | `/v1/synth` | GET/POST | synthesized core for an explicit [`CoreSpec`] |
//! | `/v1/depth` | GET | the Figure-11 depth point at N stages |
//! | `/v1/width` | GET | the Figure-13/14 width point at (fe, be) |
//! | `/v1/ipc` | GET/POST | cycle-accurate IPC for (spec, workload) |
//! | `/v1/experiments` | GET | the experiment-registry catalogue |
//! | `/v1/experiment` | GET/POST | one rendered registry node, by id |
//! | `/v1/peer/artifact` | GET/POST | intra-fleet cache transfer (framed bytes) |
//!
//! Every computational endpoint accepts its parameters as query-string
//! pairs on GET or a JSON object on POST; both normalize into the same
//! [`ApiCall`], so the engine coalesces and caches them identically.
//! Execution dispatches into `bdc_core::registry`: the classic flow
//! endpoints map onto [`Query`] and the experiment endpoints onto the
//! registry catalogue, so a served body and a `bdc run` render can never
//! drift apart.
//!
//! **Determinism contract:** for a fixed [`ApiCall`], the response body is
//! byte-identical regardless of worker count, cache state, batching, or
//! transport — floats are rendered with shortest round-trip formatting
//! from bit-identical flow outputs (`tests/determinism.rs` pins this).

use std::sync::OnceLock;

use bdc_core::registry::{self, query::Query};
use bdc_core::{CoreSpec, Process, StageKind, TechKit};
use bdc_uarch::Workload;

use crate::http::{parse_query, Method, Request, Response};
use crate::json::{self, Json};
use crate::metrics::Endpoint;

/// Simulation budget bounds for `/v1/ipc` (keeps one request from tying
/// up the pool for minutes).
const MAX_OUTER: u64 = 2_000;
/// Instruction-cap bound for `/v1/ipc`.
const MAX_INSTRUCTIONS: u64 = 5_000_000;
/// Most stage splits a synth spec may carry.
const MAX_SPLITS: usize = 16;

/// A validated, canonical API request. Two requests that mean the same
/// query compare equal and share one cache key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiCall {
    /// `/v1/library`.
    Library {
        /// Which process library.
        process: Process,
    },
    /// `/v1/synth` — an explicit design point.
    Synth {
        /// Which process library.
        process: Process,
        /// The design point.
        spec: CoreSpec,
    },
    /// `/v1/depth` — the paper's split-the-critical-stage chain.
    Depth {
        /// Which process library.
        process: Process,
        /// Total pipeline stages (9–15).
        stages: usize,
    },
    /// `/v1/width` — a superscalar width point.
    Width {
        /// Which process library.
        process: Process,
        /// Front-end width (1–6).
        fe: usize,
        /// Back-end pipes (3–7).
        be: usize,
    },
    /// `/v1/ipc` — cycle-accurate simulation of one workload.
    Ipc {
        /// The design point simulated.
        spec: CoreSpec,
        /// Which workload kernel.
        workload: Workload,
        /// Outer-loop trip count.
        outer: u32,
        /// Retired-instruction cap.
        instructions: u64,
    },
    /// `/v1/experiment` — one rendered registry node.
    Experiment {
        /// Registry node id (validated against the catalogue at parse
        /// time, so execution cannot miss).
        id: String,
        /// Whether to render at the quick budget.
        quick: bool,
    },
}

impl ApiCall {
    /// The metrics endpoint this call belongs to.
    pub fn endpoint(&self) -> Endpoint {
        match self {
            ApiCall::Library { .. } => Endpoint::Library,
            ApiCall::Synth { .. } => Endpoint::Synth,
            ApiCall::Depth { .. } => Endpoint::Depth,
            ApiCall::Width { .. } => Endpoint::Width,
            ApiCall::Ipc { .. } => Endpoint::Ipc,
            ApiCall::Experiment { .. } => Endpoint::Experiment,
        }
    }

    /// Canonical content hash — the coalescing/caching key. Hashes the
    /// `Debug` form of the canonical call, so any representational
    /// variants (GET vs POST, query-parameter order) collapse. The
    /// nominal library *stage* keys are folded into the salt, so a
    /// device-model or characterization recipe change re-keys every
    /// cached response that could embody library-derived bytes.
    pub fn cache_key(&self) -> u64 {
        use bdc_core::{library_stage_key, ParamOverlay, Process};
        // The salt hashes compiled-in recipes only, and hashing them costs
        // more than a warm answer, so it is computed once per process.
        static LIBS: OnceLock<String> = OnceLock::new();
        let libs = LIBS.get_or_init(|| {
            let nominal = ParamOverlay::default();
            format!(
                "libs={:016x},{:016x}",
                library_stage_key(Process::Organic, &nominal),
                library_stage_key(Process::Silicon, &nominal)
            )
        });
        bdc_exec::fnv1a(&["bdc-serve-v2", libs, &format!("{self:?}")])
    }
}

/// How a parsed request routes.
pub enum Route {
    /// `/healthz`.
    Healthz,
    /// `/v1/metrics`.
    Metrics,
    /// `/v1/experiments` — the static registry catalogue.
    Experiments,
    /// `GET /v1/peer/artifact?name=&key=` — a peer shard asks for the
    /// framed bytes of one cache artifact.
    PeerFetch {
        /// Artifact name (validated: `[A-Za-z0-9_-]{1,64}`).
        name: String,
        /// Artifact cache key.
        key: u64,
    },
    /// `POST /v1/peer/artifact?name=&key=` — a peer shard offers the
    /// framed bytes of a freshly built artifact (body = the frame).
    PeerStore {
        /// Artifact name (validated as for [`Route::PeerFetch`]).
        name: String,
        /// Artifact cache key.
        key: u64,
    },
    /// A computational endpoint.
    Call(ApiCall),
    /// A routing/validation failure, already rendered.
    Error(Endpoint, Response),
}

/// Routes a parsed HTTP request.
pub fn route(req: &Request) -> Route {
    match req.path.as_str() {
        "/healthz" => Route::Healthz,
        "/v1/metrics" => Route::Metrics,
        "/v1/experiments" => Route::Experiments,
        "/v1/peer/artifact" => match parse_peer_params(req) {
            Ok((name, key)) => match req.method {
                Method::Get => Route::PeerFetch { name, key },
                Method::Post => Route::PeerStore { name, key },
            },
            Err(msg) => Route::Error(Endpoint::Peer, Response::error(400, &msg)),
        },
        "/v1/library" | "/v1/synth" | "/v1/depth" | "/v1/width" | "/v1/ipc" | "/v1/experiment" => {
            let endpoint = match req.path.as_str() {
                "/v1/library" => Endpoint::Library,
                "/v1/synth" => Endpoint::Synth,
                "/v1/depth" => Endpoint::Depth,
                "/v1/width" => Endpoint::Width,
                "/v1/experiment" => Endpoint::Experiment,
                _ => Endpoint::Ipc,
            };
            match parse_call(req) {
                Ok(call) => Route::Call(call),
                Err(msg) => Route::Error(endpoint, Response::error(400, &msg)),
            }
        }
        _ => Route::Error(
            Endpoint::Other,
            Response::error(404, &format!("no such endpoint `{}`", req.path)),
        ),
    }
}

/// Parses and validates the `/v1/peer/artifact` addressing parameters.
/// Peer requests carry raw framed bytes in the body (POST) so, unlike the
/// computational endpoints, the address lives entirely in the query
/// string; unknown parameters are rejected (the `BDC_FAULTS` discipline —
/// a typo must not silently address a different artifact).
fn parse_peer_params(req: &Request) -> Result<(String, u64), String> {
    let mut name = None;
    let mut key = None;
    for (k, v) in parse_query(&req.query) {
        match k.as_str() {
            "name" => name = Some(v),
            "key" => key = Some(v),
            other => return Err(format!("unknown peer parameter `{other}`")),
        }
    }
    let name = name.ok_or("`name` is required")?;
    let valid = !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_');
    if !valid {
        return Err(format!(
            "`name` must be 1-64 characters of [A-Za-z0-9_-], got `{name}`"
        ));
    }
    let key = key.ok_or("`key` is required")?;
    if key.len() != 16 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("`key` must be exactly 16 hex digits, got `{key}`"));
    }
    let key = u64::from_str_radix(&key, 16).map_err(|e| format!("`key`: {e}"))?;
    Ok((name, key))
}

/// Answers `GET /v1/peer/artifact`: the framed on-disk bytes of the
/// addressed artifact, verified before shipping (a corrupt local copy is a
/// 404 — the asking shard recomputes rather than trusting bad bytes).
/// Reads the cache directory directly and never computes, so a peer fetch
/// can never recurse into another peer fetch.
pub fn peer_fetch_response(name: &str, key: u64) -> Response {
    let cache = bdc_exec::ArtifactCache::shared();
    if !cache.is_enabled() {
        return Response::error(404, "artifact cache is disabled on this shard");
    }
    match std::fs::read_to_string(cache.path_for(name, key)) {
        Ok(raw) if bdc_exec::unframe_artifact(&raw).is_ok() => {
            Response::json(200, raw.into_bytes())
        }
        Ok(_) => Response::error(404, "artifact failed verification"),
        Err(_) => Response::error(404, "artifact not present"),
    }
}

/// Answers `POST /v1/peer/artifact`: verifies the framed body and stores
/// it as a replica (never re-offering it onward — a pushed artifact must
/// not trigger a push chain). A frame that fails verification is a 400;
/// storage failures degrade to `stored: false` per the cache's
/// failures-are-misses contract.
pub fn peer_store_response(name: &str, key: u64, body: &[u8]) -> Response {
    let raw = match std::str::from_utf8(body) {
        Ok(raw) => raw,
        Err(_) => return Response::error(400, "peer frame is not utf-8"),
    };
    let payload = match bdc_exec::unframe_artifact(raw) {
        Ok(payload) => payload,
        Err(e) => return Response::error(400, &format!("peer frame rejected: {e}")),
    };
    let stored = bdc_exec::ArtifactCache::shared().store_replica(name, key, payload);
    let body = if stored {
        "{\"stored\":true}"
    } else {
        "{\"stored\":false}"
    };
    Response::json(200, body.as_bytes().to_vec())
}

/// The merged parameter view: query pairs (GET) overlaid by JSON body
/// members (POST).
struct Params {
    pairs: Vec<(String, Json)>,
}

impl Params {
    fn from_request(req: &Request) -> Result<Params, String> {
        let mut pairs: Vec<(String, Json)> = parse_query(&req.query)
            .into_iter()
            .map(|(k, v)| (k, Json::Str(v)))
            .collect();
        if req.method == Method::Post && !req.body.is_empty() {
            let text = std::str::from_utf8(&req.body).map_err(|_| "body is not utf-8")?;
            match json::parse(text)? {
                Json::Obj(members) => pairs.extend(members),
                _ => return Err("body must be a JSON object".into()),
            }
        }
        Ok(Params { pairs })
    }

    fn get(&self, key: &str) -> Option<&Json> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    fn str_or(&self, key: &str, default: &str) -> String {
        match self.get(key) {
            Some(Json::Str(s)) => s.clone(),
            Some(v) => v.encode(),
            None => default.to_string(),
        }
    }

    /// An integer parameter that may arrive as a JSON number or a query
    /// string; bounds-checked.
    fn uint(&self, key: &str, default: u64, max: u64) -> Result<u64, String> {
        let v = match self.get(key) {
            None => return Ok(default),
            Some(v) => v,
        };
        let n = match v {
            Json::Int(i) if *i >= 0 => *i as u64,
            Json::Str(s) => s
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("`{key}` must be a non-negative integer, got `{s}`"))?,
            _ => return Err(format!("`{key}` must be a non-negative integer")),
        };
        if n > max {
            return Err(format!("`{key}` = {n} exceeds the limit {max}"));
        }
        Ok(n)
    }
}

fn parse_process(p: &Params) -> Result<Process, String> {
    match p.str_or("process", "organic").as_str() {
        "organic" => Ok(Process::Organic),
        "silicon" => Ok(Process::Silicon),
        other => Err(format!(
            "`process` must be `organic` or `silicon`, got `{other}`"
        )),
    }
}

fn parse_spec(p: &Params) -> Result<CoreSpec, String> {
    let fe = p.uint("fe_width", 1, 6)? as usize;
    let be = p.uint("be_pipes", 3, 7)? as usize;
    if fe < 1 {
        return Err("`fe_width` must be 1-6".into());
    }
    if !(3..=7).contains(&be) {
        return Err("`be_pipes` must be 3-7".into());
    }
    let mut splits = Vec::new();
    match p.get("splits") {
        None => {}
        Some(Json::Arr(items)) => {
            for item in items {
                let name = item.as_str().ok_or("`splits` entries must be strings")?;
                splits.push(parse_split(name)?);
            }
        }
        // Query-string form: splits=fetch,issue
        Some(Json::Str(s)) if s.is_empty() => {}
        Some(Json::Str(s)) => {
            for name in s.split(',') {
                splits.push(parse_split(name.trim())?);
            }
        }
        Some(_) => return Err("`splits` must be an array of stage names".into()),
    }
    if splits.len() > MAX_SPLITS {
        return Err(format!("at most {MAX_SPLITS} splits are supported"));
    }
    Ok(CoreSpec {
        fe_width: fe,
        be_pipes: be,
        splits,
    })
}

fn parse_split(name: &str) -> Result<StageKind, String> {
    let kind = StageKind::from_name(name).ok_or(format!("unknown stage `{name}`"))?;
    if !kind.splittable() {
        return Err(format!("stage `{name}` cannot be split"));
    }
    Ok(kind)
}

fn parse_workload(p: &Params) -> Result<Workload, String> {
    let name = p.str_or("workload", "dhrystone");
    Workload::all()
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or(format!("unknown workload `{name}`"))
}

fn parse_call(req: &Request) -> Result<ApiCall, String> {
    let p = Params::from_request(req)?;
    match req.path.as_str() {
        "/v1/library" => Ok(ApiCall::Library {
            process: parse_process(&p)?,
        }),
        "/v1/synth" => Ok(ApiCall::Synth {
            process: parse_process(&p)?,
            spec: parse_spec(&p)?,
        }),
        "/v1/depth" => {
            let stages = p.uint("stages", 9, 15)? as usize;
            if stages < 9 {
                return Err("`stages` must be 9-15".into());
            }
            Ok(ApiCall::Depth {
                process: parse_process(&p)?,
                stages,
            })
        }
        "/v1/width" => {
            let fe = p.uint("fe", 1, 6)? as usize;
            let be = p.uint("be", 3, 7)? as usize;
            if fe < 1 || be < 3 {
                return Err("`fe` must be 1-6 and `be` 3-7".into());
            }
            Ok(ApiCall::Width {
                process: parse_process(&p)?,
                fe,
                be,
            })
        }
        "/v1/ipc" => {
            // `budget=quick|full` presets, overridable by explicit knobs.
            let (outer0, instr0) = match p.str_or("budget", "quick").as_str() {
                "quick" => (25u64, 12_000u64),
                "full" => (400, 120_000),
                other => return Err(format!("`budget` must be `quick` or `full`, got `{other}`")),
            };
            Ok(ApiCall::Ipc {
                spec: parse_spec(&p)?,
                workload: parse_workload(&p)?,
                outer: p.uint("outer", outer0, MAX_OUTER)? as u32,
                instructions: p.uint("instructions", instr0, MAX_INSTRUCTIONS)?,
            })
        }
        "/v1/experiment" => {
            let id = p.str_or("id", "");
            if id.is_empty() {
                return Err("`id` is required (list ids at /v1/experiments)".into());
            }
            if registry::find(&id).is_none() {
                return Err(format!(
                    "unknown experiment id `{id}` (list ids at /v1/experiments)"
                ));
            }
            let quick = match p.str_or("budget", "quick").as_str() {
                "quick" => true,
                "standard" => false,
                other => {
                    return Err(format!(
                        "`budget` must be `quick` or `standard`, got `{other}`"
                    ))
                }
            };
            Ok(ApiCall::Experiment { id, quick })
        }
        _ => Err("unroutable".into()),
    }
}

// ---------------------------------------------------------------------------
// Execution: ApiCall → deterministic JSON response
// ---------------------------------------------------------------------------

/// Executes a call by dispatching into the registry's query layer (or,
/// for experiments, the registry itself). Pure in the call: the same call
/// yields a byte-identical response for any worker count or cache state.
pub fn execute(call: &ApiCall) -> Response {
    let result = match call {
        ApiCall::Library { process } => Query::Library { process: *process }.run(),
        ApiCall::Synth { process, spec } => Query::Synth {
            process: *process,
            spec: spec.clone(),
        }
        .run(),
        ApiCall::Depth { process, stages } => Query::Depth {
            process: *process,
            stages: *stages,
        }
        .run(),
        ApiCall::Width { process, fe, be } => Query::Width {
            process: *process,
            fe: *fe,
            be: *be,
        }
        .run(),
        ApiCall::Ipc {
            spec,
            workload,
            outer,
            instructions,
        } => Query::Ipc {
            spec: spec.clone(),
            workload: *workload,
            outer: *outer,
            instructions: *instructions,
        }
        .run(),
        ApiCall::Experiment { id, quick } => registry::run_one_json(id, *quick),
    };
    match result {
        Ok(body) => Response::json(200, body.encode().into_bytes()),
        Err(msg) => Response::error(500, &msg),
    }
}

/// First-order logic depth (in FO4 units) of the 9-stage baseline's
/// critical stage — the anchor of the analytic brownout model below.
const BASELINE_LOGIC_FO4: f64 = 24.0;
/// Fraction of the issue-width bound a real workload sustains, for the
/// analytic IPC estimate.
const ANALYTIC_IPC_UTILIZATION: f64 = 0.6;

/// The analytic quick path served during queue-pressure brownout: a
/// first-order estimate for the endpoints whose full answer needs
/// synthesis or simulation (`/v1/depth`, `/v1/width`, `/v1/ipc`). Depth
/// and width scale the baseline critical-path logic depth against the
/// characterized kit's FO4 delay and sequencing overhead — no synthesis,
/// no STA; IPC is the width-bound times a sustained-utilization factor —
/// no simulation. Returns `None` for calls with no cheap approximation
/// (library, synth, experiment), which queue as usual even in brownout.
///
/// Bodies are flagged `"degraded": true` (and the server adds an
/// `x-bdc-degraded` header) so a client can never mistake an estimate for
/// a flow answer; they bypass the engine entirely, so a degraded body can
/// never enter the response cache.
pub fn degraded_response(call: &ApiCall) -> Option<Response> {
    let analytic_period = |process: Process, logic_fo4: f64| {
        let kit = bdc_core::process::shared_kit(process);
        let logic = kit.lib.fo4_delay() * logic_fo4;
        let seq = kit.lib.dff.setup + kit.lib.dff.clk_to_q * (1.0 + kit.pipe.skew_fraction);
        logic + seq
    };
    let body = |mut members: Vec<(String, Json)>| {
        let mut all = vec![
            ("degraded".into(), Json::Bool(true)),
            ("model".into(), Json::str("first-order-v1")),
        ];
        all.append(&mut members);
        Some(Response::json(200, Json::Obj(all).encode().into_bytes()))
    };
    match call {
        ApiCall::Depth { process, stages } => {
            // Splitting the baseline into more stages divides its logic
            // depth; sequencing overhead is paid once per stage regardless.
            let period = analytic_period(*process, BASELINE_LOGIC_FO4 * 9.0 / *stages as f64);
            body(vec![
                ("process".into(), Json::str(process.name())),
                ("total_stages".into(), Json::Int(*stages as i64)),
                ("period_s".into(), Json::Num(period)),
                ("frequency_hz".into(), Json::Num(1.0 / period)),
            ])
        }
        ApiCall::Width { process, fe, be } => {
            // Wider machines pay superlinear wiring/mux depth; a small
            // per-lane penalty is the first-order form of that cost.
            let scale = 1.0 + 0.08 * (*fe as f64 - 1.0) + 0.05 * (*be as f64 - 3.0);
            let period = analytic_period(*process, BASELINE_LOGIC_FO4 * scale);
            body(vec![
                ("process".into(), Json::str(process.name())),
                ("fe_width".into(), Json::Int(*fe as i64)),
                ("be_pipes".into(), Json::Int(*be as i64)),
                ("period_s".into(), Json::Num(period)),
                ("frequency_hz".into(), Json::Num(1.0 / period)),
            ])
        }
        ApiCall::Ipc { spec, workload, .. } => {
            let bound = spec.fe_width.min(spec.be_pipes) as f64;
            body(vec![
                ("workload".into(), Json::str(workload.name())),
                ("spec".into(), bdc_core::registry::query::spec_json(spec)),
                ("ipc".into(), Json::Num(bound * ANALYTIC_IPC_UTILIZATION)),
            ])
        }
        ApiCall::Library { .. } | ApiCall::Synth { .. } | ApiCall::Experiment { .. } => None,
    }
}

/// Renders the `/v1/library` body from a kit (thin shim over
/// [`bdc_core::registry::query::library_json`], kept for tests and
/// in-process users).
pub fn library_response(kit: &TechKit) -> Response {
    match bdc_core::registry::query::library_json(kit) {
        Ok(body) => Response::json(200, body.encode().into_bytes()),
        Err(msg) => Response::error(500, &msg),
    }
}

/// Renders a synthesized-core body (thin shim over
/// [`bdc_core::registry::query::synth_json`], kept for tests and
/// in-process users).
pub fn synth_response(kit: &TechKit, spec: &CoreSpec, cuts: &[StageKind]) -> Response {
    let body = bdc_core::registry::query::synth_json(kit, spec, cuts);
    Response::json(200, body.encode().into_bytes())
}

/// The `/v1/experiments` body: the registry catalogue.
pub fn experiments_response() -> Response {
    Response::json(200, registry::catalogue_json().encode().into_bytes())
}

/// The `/healthz` body for the given `ok|degraded|draining` state. The
/// healthy body is byte-pinned to `{"status":"ok"}`; `degraded` still
/// answers 200 (the daemon is serving, just recently recovered from
/// faults), while `draining` answers 503 so load balancers stop routing
/// to a server that is shutting down.
pub fn healthz(status: &str) -> Response {
    let code = if status == "draining" { 503 } else { 200 };
    Response::json(code, format!("{{\"status\":\"{status}\"}}").into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path_query: &str) -> Request {
        let (path, query) = path_query.split_once('?').unwrap_or((path_query, ""));
        Request {
            method: Method::Get,
            path: path.into(),
            query: query.into(),
            body: Vec::new(),
            keep_alive: true,
            deadline_ms: None,
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: Method::Post,
            path: path.into(),
            query: String::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
            deadline_ms: None,
        }
    }

    fn call(req: &Request) -> ApiCall {
        match route(req) {
            Route::Call(c) => c,
            Route::Error(_, r) => {
                panic!("rejected: {}", String::from_utf8_lossy(&r.body))
            }
            _ => panic!("not a call"),
        }
    }

    #[test]
    fn get_and_post_normalize_to_the_same_call() {
        let a = call(&get(
            "/v1/synth?process=silicon&fe_width=2&be_pipes=4&splits=fetch,issue",
        ));
        let b = call(&post(
            "/v1/synth",
            r#"{"process":"silicon","fe_width":2,"be_pipes":4,"splits":["fetch","issue"]}"#,
        ));
        assert_eq!(a, b);
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn distinct_calls_have_distinct_keys() {
        let a = call(&get("/v1/width?process=organic&fe=1&be=3"));
        let b = call(&get("/v1/width?process=organic&fe=2&be=3"));
        assert_ne!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn defaults_fill_in() {
        match call(&get("/v1/ipc")) {
            ApiCall::Ipc {
                workload,
                outer,
                instructions,
                spec,
            } => {
                assert_eq!(workload, Workload::Dhrystone);
                assert_eq!(outer, 25);
                assert_eq!(instructions, 12_000);
                assert_eq!(spec, CoreSpec::baseline());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_out_of_range_parameters() {
        for bad in [
            "/v1/width?fe=0",
            "/v1/width?fe=7",
            "/v1/width?be=8",
            "/v1/depth?stages=8",
            "/v1/depth?stages=16",
            "/v1/synth?splits=retire",
            "/v1/synth?splits=nosuch",
            "/v1/ipc?workload=nosuch",
            "/v1/ipc?outer=99999",
            "/v1/library?process=copper",
        ] {
            match route(&get(bad)) {
                Route::Error(_, r) => assert_eq!(r.status, 400, "{bad}"),
                _ => panic!("accepted {bad}"),
            }
        }
    }

    #[test]
    fn unknown_path_is_404() {
        match route(&get("/v2/nope")) {
            Route::Error(e, r) => {
                assert_eq!(r.status, 404);
                assert_eq!(e, Endpoint::Other);
            }
            _ => panic!("routed"),
        }
    }

    #[test]
    fn malformed_post_body_is_400() {
        match route(&post("/v1/synth", "{not json")) {
            Route::Error(_, r) => assert_eq!(r.status, 400),
            _ => panic!("accepted"),
        }
    }

    #[test]
    fn peer_routes_validate_their_address() {
        match route(&get(
            "/v1/peer/artifact?name=lib-organic&key=00000000deadbeef",
        )) {
            Route::PeerFetch { name, key } => {
                assert_eq!(name, "lib-organic");
                assert_eq!(key, 0xdead_beef);
            }
            _ => panic!("valid fetch rejected"),
        }
        let mut store = post("/v1/peer/artifact", "");
        store.query = "name=x&key=0000000000000001".into();
        match route(&store) {
            Route::PeerStore { name, key } => {
                assert_eq!(name, "x");
                assert_eq!(key, 1);
            }
            _ => panic!("valid store rejected"),
        }
        for bad in [
            "/v1/peer/artifact",                                   // missing both
            "/v1/peer/artifact?name=lib",                          // missing key
            "/v1/peer/artifact?key=0000000000000001",              // missing name
            "/v1/peer/artifact?name=lib&key=01",                   // short key
            "/v1/peer/artifact?name=lib&key=000000000000000g",     // non-hex
            "/v1/peer/artifact?name=a/b&key=0000000000000001",     // bad name
            "/v1/peer/artifact?name=lib&key=0000000000000001&x=1", // unknown param
        ] {
            match route(&get(bad)) {
                Route::Error(e, r) => {
                    assert_eq!(r.status, 400, "{bad}");
                    assert_eq!(e, Endpoint::Peer, "{bad}");
                }
                _ => panic!("accepted {bad}"),
            }
        }
    }

    #[test]
    fn peer_store_rejects_unverifiable_frames() {
        let r = peer_store_response("x", 1, b"not a frame");
        assert_eq!(r.status, 400);
        let r = peer_store_response("x", 1, &[0xFF, 0xFE]);
        assert_eq!(r.status, 400);
    }

    #[test]
    fn degraded_quick_path_covers_exactly_the_synthesis_endpoints() {
        // Depth/width/ipc have a first-order estimate; everything else
        // queues as usual even in brownout.
        for (req, expect) in [
            (get("/v1/depth?stages=12"), true),
            (get("/v1/width?fe=2&be=4"), true),
            (get("/v1/ipc?workload=gzip"), true),
            (get("/v1/library"), false),
            (get("/v1/synth?fe_width=2"), false),
        ] {
            let c = call(&req);
            assert_eq!(degraded_response(&c).is_some(), expect, "{:?}", req.path);
        }
        let r = degraded_response(&call(&get("/v1/depth?stages=12"))).unwrap();
        assert_eq!(r.status, 200);
        let parsed = crate::json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert_eq!(parsed.get("degraded"), Some(&Json::Bool(true)));
        assert!(parsed.get("frequency_hz").and_then(Json::as_f64).unwrap() > 0.0);
        // Deeper pipelines must estimate faster — the model is monotone.
        let shallow = degraded_response(&call(&get("/v1/depth?stages=9"))).unwrap();
        let sp = crate::json::parse(std::str::from_utf8(&shallow.body).unwrap()).unwrap();
        assert!(
            parsed.get("frequency_hz").and_then(Json::as_f64)
                > sp.get("frequency_hz").and_then(Json::as_f64)
        );
    }

    #[test]
    fn ipc_execution_is_deterministic_and_cached() {
        let c = call(&get("/v1/ipc?workload=gzip&outer=5&instructions=4000"));
        let a = execute(&c);
        let b = execute(&c);
        assert_eq!(a.status, 200);
        assert_eq!(a.body, b.body);
        let parsed = crate::json::parse(std::str::from_utf8(&a.body).unwrap()).unwrap();
        assert!(parsed.get("ipc").and_then(Json::as_f64).unwrap() > 0.0);
    }
}
