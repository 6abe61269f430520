//! Sharded-fleet primitives: the seeded consistent-hash ring and the
//! hardened `BDC_SHARDS` / `BDC_RING_SEED` / `BDC_SHARD_ID` /
//! `BDC_PEER_PORTS` environment knobs.
//!
//! This module sits in `bdc-exec` (rather than `bdc-cluster`) because both
//! ends of the peer-fetch protocol need it below the serving layer: a
//! `bdc_serve` worker derives its artifact owners from the same ring the
//! `bdc-cluster` router routes requests with, and the artifact cache's
//! peer-fill hook (see [`crate::cache`]) is keyed off the validated
//! identity parsed here. `bdc-cluster` re-exports everything.
//!
//! **Determinism:** ring placement is a pure function of
//! `(seed, shard id, virtual-node index)` via [`task_seed`] — no ambient
//! state — so every process in a fleet that shares the env knobs computes
//! the identical ring, and a key's owner never depends on worker count or
//! construction order.

use crate::cache::fnv1a;
use crate::seed::{task_seed, SplitMix64};

/// Most shards a fleet may have (`BDC_SHARDS` upper bound). Generous for a
/// single-host fleet; keeps the ring and the peer-port list small.
pub const MAX_SHARDS: usize = 64;

/// Virtual nodes per shard in the default ring. 128 points per shard keeps
/// the max/min load ratio tight (≲2 at 1k keys) while the ring stays a few
/// KiB.
pub const DEFAULT_VNODES: usize = 128;

/// A validated snapshot of the cluster environment knobs.
///
/// `shards` and `ring_seed` describe the fleet topology every member must
/// agree on; `shard_id` and `peer_ports` are the *identity* knobs a
/// supervised `bdc_serve` worker additionally receives so its cache layer
/// can locate artifact owners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterEnv {
    /// `BDC_SHARDS`: fleet size, `1..=MAX_SHARDS`.
    pub shards: usize,
    /// `BDC_RING_SEED`: the seed every ring in the fleet is built from.
    pub ring_seed: u64,
    /// `BDC_SHARD_ID`: this process's shard index (`< shards`); `None` for
    /// fleet-level tools (the router, the supervisor) that are not a shard.
    pub shard_id: Option<usize>,
    /// `BDC_PEER_PORTS`: one loopback port per shard, in shard order;
    /// empty when peer fetch is not configured.
    pub peer_ports: Vec<u16>,
}

/// Parses `BDC_SHARDS`: an integer in `1..=MAX_SHARDS`.
///
/// # Errors
/// A one-line diagnostic naming the knob and the offending value.
pub fn parse_shards(raw: &str) -> Result<usize, String> {
    let n: usize = raw
        .trim()
        .parse()
        .map_err(|_| format!("BDC_SHARDS must be an integer in 1..={MAX_SHARDS}, got `{raw}`"))?;
    if !(1..=MAX_SHARDS).contains(&n) {
        return Err(format!(
            "BDC_SHARDS must be an integer in 1..={MAX_SHARDS}, got `{raw}`"
        ));
    }
    Ok(n)
}

/// Parses `BDC_RING_SEED`: any u64.
///
/// # Errors
/// A one-line diagnostic naming the knob and the offending value.
pub fn parse_ring_seed(raw: &str) -> Result<u64, String> {
    raw.trim()
        .parse::<u64>()
        .map_err(|_| format!("BDC_RING_SEED must be an unsigned integer, got `{raw}`"))
}

/// Parses `BDC_SHARD_ID`: an integer (range-checked against `BDC_SHARDS`
/// by [`cluster_env`]).
///
/// # Errors
/// A one-line diagnostic naming the knob and the offending value.
pub fn parse_shard_id(raw: &str) -> Result<usize, String> {
    raw.trim()
        .parse::<usize>()
        .map_err(|_| format!("BDC_SHARD_ID must be an unsigned integer, got `{raw}`"))
}

/// Parses `BDC_PEER_PORTS`: a comma-separated list of distinct TCP ports
/// (one per shard, in shard order; length checked by [`cluster_env`]).
///
/// # Errors
/// A one-line diagnostic naming the knob, the offending entry, and the
/// rule it broke (non-numeric, zero, duplicate, or over `MAX_SHARDS`
/// entries).
pub fn parse_peer_ports(raw: &str) -> Result<Vec<u16>, String> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err(
            "BDC_PEER_PORTS is set but empty; give a comma-separated port list like `8801,8802,8803`"
                .to_string(),
        );
    }
    let mut ports = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        let port: u16 = part
            .parse()
            .map_err(|_| format!("BDC_PEER_PORTS entry `{part}` is not a TCP port"))?;
        if port == 0 {
            return Err("BDC_PEER_PORTS entries must be nonzero ports".to_string());
        }
        if ports.contains(&port) {
            return Err(format!("BDC_PEER_PORTS lists port {port} twice"));
        }
        ports.push(port);
        if ports.len() > MAX_SHARDS {
            return Err(format!("BDC_PEER_PORTS lists more than {MAX_SHARDS} ports"));
        }
    }
    Ok(ports)
}

/// Reads and cross-validates the cluster knobs. Returns `Ok(None)` when
/// none of them is set (the common single-process case).
///
/// Cross-field rules: every other knob requires `BDC_SHARDS`;
/// `BDC_SHARD_ID` must be `< BDC_SHARDS`; `BDC_PEER_PORTS` must list
/// exactly one port per shard.
///
/// # Errors
/// A one-line diagnostic naming the offending knob, suitable for printing
/// verbatim before exiting 2.
#[expect(
    clippy::disallowed_methods,
    reason = "bdc-exec is where the BDC_* knobs are read and validated"
)]
pub fn cluster_env() -> Result<Option<ClusterEnv>, String> {
    let get = |name: &str| std::env::var(name).ok();
    let (shards_raw, seed_raw, id_raw, ports_raw) = (
        get("BDC_SHARDS"),
        get("BDC_RING_SEED"),
        get("BDC_SHARD_ID"),
        get("BDC_PEER_PORTS"),
    );
    if shards_raw.is_none() && seed_raw.is_none() && id_raw.is_none() && ports_raw.is_none() {
        return Ok(None);
    }
    let Some(shards_raw) = shards_raw else {
        return Err(
            "BDC_RING_SEED/BDC_SHARD_ID/BDC_PEER_PORTS require BDC_SHARDS to be set".to_string(),
        );
    };
    let shards = parse_shards(&shards_raw)?;
    let ring_seed = match seed_raw {
        Some(raw) => parse_ring_seed(&raw)?,
        None => 0,
    };
    let shard_id = match id_raw {
        Some(raw) => {
            let id = parse_shard_id(&raw)?;
            if id >= shards {
                return Err(format!(
                    "BDC_SHARD_ID is {id} but BDC_SHARDS is {shards}; the id must be < the count"
                ));
            }
            Some(id)
        }
        None => None,
    };
    let peer_ports = match ports_raw {
        Some(raw) => {
            let ports = parse_peer_ports(&raw)?;
            if ports.len() != shards {
                return Err(format!(
                    "BDC_PEER_PORTS lists {} port(s) but BDC_SHARDS is {shards}; give one port per shard",
                    ports.len()
                ));
            }
            ports
        }
        None => Vec::new(),
    };
    Ok(Some(ClusterEnv {
        shards,
        ring_seed,
        shard_id,
        peer_ports,
    }))
}

/// A seeded consistent-hash ring with virtual nodes.
///
/// Each shard contributes `vnodes` points placed by a pure function of
/// `(seed, shard, vnode)`; a key's owner is the shard whose point is the
/// first at or clockwise-after the key's slot. Removing a shard removes
/// only its points, so only the keys it owned move (~`1/N` of the space —
/// the minimal-remap property the proptests pin).
#[derive(Debug, Clone)]
pub struct Ring {
    /// Sorted `(position, shard)` points.
    points: Vec<(u64, usize)>,
    /// The distinct shard ids on the ring, ascending.
    shard_ids: Vec<usize>,
}

impl Ring {
    /// A ring over shards `0..shards` (the common fleet case).
    pub fn new(shards: usize, vnodes: usize, seed: u64) -> Ring {
        let ids: Vec<usize> = (0..shards).collect();
        Ring::from_ids(&ids, vnodes, seed)
    }

    /// A ring over an explicit shard-id set (used after removals).
    pub fn from_ids(ids: &[usize], vnodes: usize, seed: u64) -> Ring {
        let mut points = Vec::with_capacity(ids.len() * vnodes.max(1));
        for &shard in ids {
            for vnode in 0..vnodes.max(1) {
                let site = fnv1a(&["bdc-ring-v1", &shard.to_string(), &vnode.to_string()]);
                points.push((task_seed(seed, site), shard));
            }
        }
        // Sort by position; shard id breaks the (astronomically unlikely)
        // position tie so construction order can never matter.
        points.sort_unstable();
        let mut shard_ids = ids.to_vec();
        shard_ids.sort_unstable();
        shard_ids.dedup();
        Ring { points, shard_ids }
    }

    /// The same ring with one shard's points removed.
    pub fn without(&self, shard: usize, vnodes: usize, seed: u64) -> Ring {
        let ids: Vec<usize> = self
            .shard_ids
            .iter()
            .copied()
            .filter(|&s| s != shard)
            .collect();
        Ring::from_ids(&ids, vnodes, seed)
    }

    /// The distinct shard ids on the ring, ascending.
    pub fn shard_ids(&self) -> &[usize] {
        &self.shard_ids
    }

    /// The shard owning `slot` (see [`key_slot`] / [`artifact_slot`]).
    ///
    /// # Panics
    /// Panics on an empty ring (zero shards) — a construction error, not a
    /// runtime state.
    pub fn owner(&self, slot: u64) -> usize {
        assert!(!self.points.is_empty(), "ring has no shards");
        let idx = self.points.partition_point(|&(pos, _)| pos < slot);
        self.points[idx % self.points.len()].1
    }

    /// Every shard in failover order for `slot`: the owner first, then
    /// each further distinct shard in clockwise ring order. The router
    /// walks this list when a shard is down.
    pub fn replicas(&self, slot: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.shard_ids.len());
        if self.points.is_empty() {
            return order;
        }
        let start = self.points.partition_point(|&(pos, _)| pos < slot);
        for i in 0..self.points.len() {
            let shard = self.points[(start + i) % self.points.len()].1;
            if !order.contains(&shard) {
                order.push(shard);
                if order.len() == self.shard_ids.len() {
                    break;
                }
            }
        }
        order
    }
}

/// Maps an arbitrary 64-bit key (e.g. an [`crate::fnv1a`] cache key) to a
/// ring slot. The mix decorrelates ring position from any structure in the
/// key space.
pub fn key_slot(key: u64) -> u64 {
    SplitMix64::new(key).next_u64()
}

/// The ring slot of a cache artifact `(name, key)` — both the peer-fill
/// hook and the router's peer-endpoint proxying derive an artifact's
/// owning shard from this, so they can never disagree.
pub fn artifact_slot(name: &str, key: u64) -> u64 {
    key_slot(fnv1a(&["bdc-peer-v1", name, &format!("{key:016x}")]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_valid_knobs() {
        assert_eq!(parse_shards("3"), Ok(3));
        assert_eq!(parse_ring_seed("42"), Ok(42));
        assert_eq!(parse_shard_id("2"), Ok(2));
        assert_eq!(
            parse_peer_ports("8801, 8802,8803"),
            Ok(vec![8801, 8802, 8803])
        );
    }

    #[test]
    fn rejects_bad_knobs_with_diagnostics() {
        for (raw, knob) in [
            ("0", "BDC_SHARDS"),
            ("65", "BDC_SHARDS"),
            ("three", "BDC_SHARDS"),
            ("-1", "BDC_SHARDS"),
        ] {
            let err = parse_shards(raw).expect_err(raw);
            assert!(err.contains(knob), "{raw}: {err}");
        }
        assert!(parse_ring_seed("-1")
            .expect_err("-1")
            .contains("BDC_RING_SEED"));
        assert!(parse_ring_seed("1.5")
            .expect_err("1.5")
            .contains("BDC_RING_SEED"));
        for raw in ["", "8801,8801", "8801,0", "nope", "8801,,8803"] {
            let err = parse_peer_ports(raw).expect_err(raw);
            assert!(err.contains("BDC_PEER_PORTS"), "{raw}: {err}");
        }
    }

    #[test]
    fn ring_is_deterministic_and_owner_is_stable() {
        let a = Ring::new(4, DEFAULT_VNODES, 42);
        let b = Ring::new(4, DEFAULT_VNODES, 42);
        for key in 0..256u64 {
            let slot = key_slot(key);
            assert_eq!(a.owner(slot), b.owner(slot));
        }
        // A different seed shuffles placement.
        let c = Ring::new(4, DEFAULT_VNODES, 43);
        assert!((0..256u64).any(|k| a.owner(key_slot(k)) != c.owner(key_slot(k))));
    }

    #[test]
    fn replicas_start_at_the_owner_and_cover_every_shard() {
        let ring = Ring::new(5, DEFAULT_VNODES, 7);
        for key in 0..64u64 {
            let slot = key_slot(key);
            let reps = ring.replicas(slot);
            assert_eq!(reps[0], ring.owner(slot));
            let mut sorted = reps.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "distinct cover: {reps:?}");
        }
    }

    #[test]
    fn removal_only_moves_the_removed_shards_keys() {
        let ring = Ring::new(4, DEFAULT_VNODES, 11);
        let smaller = ring.without(2, DEFAULT_VNODES, 11);
        assert_eq!(smaller.shard_ids(), &[0, 1, 3]);
        for key in 0..512u64 {
            let slot = key_slot(key);
            let before = ring.owner(slot);
            if before != 2 {
                assert_eq!(smaller.owner(slot), before, "key {key} moved needlessly");
            } else {
                assert_ne!(smaller.owner(slot), 2);
            }
        }
    }

    #[test]
    fn artifact_slot_separates_names_and_keys() {
        assert_ne!(
            artifact_slot("lib-organic", 1),
            artifact_slot("lib-silicon", 1)
        );
        assert_ne!(
            artifact_slot("lib-organic", 1),
            artifact_slot("lib-organic", 2)
        );
        assert_eq!(artifact_slot("ipc", 9), artifact_slot("ipc", 9));
    }
}
