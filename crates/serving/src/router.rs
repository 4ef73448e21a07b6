//! Replica routing: spreading closed batches across TP replica groups.
//!
//! A multi-replica deployment runs N independent tensor-parallel groups
//! behind one admission queue (the simulated stand-in for vLLM-style
//! replica routing — see DESIGN.md's substitution table). The router
//! picks which replica executes each closed batch. Three policies:
//!
//! - **round-robin** — rotate through replicas regardless of load; the
//!   classic stateless baseline.
//! - **least-loaded** — pick the replica with the fewest queued tokens
//!   (ties broken toward the replica that frees up soonest, then the
//!   lowest id), i.e. join-the-shortest-queue in token units.
//! - **shape-affinity** — steer repeat [`GemmDims`] to the replica that
//!   tuned a plan for that shape already, so its warm plan cache is
//!   reused instead of re-tuning the same shape on N caches. Unseen
//!   shapes fall back to least-loaded and establish the affinity.
//! - **locality** — on a multi-node deployment, prefer replicas on the
//!   batch's *home node* (the node its session state would live on,
//!   derived deterministically from the shape) and spill across nodes
//!   only when the home node is overloaded past
//!   [`SPILL_SLACK_TOKENS`]; every spill is labelled so the server can
//!   account the inter-node migration penalty.
//!
//! Routing is pure state-machine logic over load snapshots: no clocks,
//! no randomness, deterministic for a given decision sequence.

// Routing is the one module that turns replica *ids* back into array
// accesses all over the server loop, so hold it to the stricter
// no-panic standard: every index is either proven in a comment or
// routed through `get`.
#![warn(clippy::indexing_slicing)]

use std::collections::HashMap;

use gpu_sim::gemm::GemmDims;

/// Which replica gets the next batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterPolicy {
    /// Rotate through replicas in id order.
    #[default]
    RoundRobin,
    /// Fewest queued tokens wins (ties: earliest free, lowest id).
    LeastLoaded,
    /// Repeat shapes go to the replica whose plan cache is warm for
    /// them; new shapes fall back to least-loaded.
    ShapeAffinity,
    /// Prefer replicas on the batch's home node; spill to another node
    /// only when the home node is overloaded (or has no healthy
    /// replica). Falls back to least-loaded on single-node deployments.
    Locality,
}

impl RouterPolicy {
    /// Stable label used in reports and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::LeastLoaded => "least-loaded",
            RouterPolicy::ShapeAffinity => "shape-affinity",
            RouterPolicy::Locality => "locality",
        }
    }

    /// Parses a CLI-style label (the inverse of [`RouterPolicy::label`]).
    pub fn parse(s: &str) -> Option<RouterPolicy> {
        match s {
            "round-robin" => Some(RouterPolicy::RoundRobin),
            "least-loaded" => Some(RouterPolicy::LeastLoaded),
            "shape-affinity" => Some(RouterPolicy::ShapeAffinity),
            "locality" => Some(RouterPolicy::Locality),
            _ => None,
        }
    }
}

/// A replica's load at routing time, as the router sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaLoad {
    /// Padded tokens sitting in the replica's dispatch queue.
    pub queued_tokens: u64,
    /// Virtual nanoseconds until the replica's current chain drains
    /// (0 when idle).
    pub busy_ns: u64,
    /// Node the replica is placed on (0 for single-node deployments).
    pub node: usize,
}

/// Extra queued tokens a home-node replica may carry, beyond double the
/// best remote replica's queue, before the locality policy spills the
/// batch across nodes.
pub const SPILL_SLACK_TOKENS: u64 = 2048;

/// The node a batch's session state lives on: a deterministic FNV-1a
/// hash of the GEMM shape folded over the node count (the simulated
/// stand-in for KV-cache placement of the session that produced the
/// shape).
pub fn home_node(dims: GemmDims, nodes: usize) -> usize {
    if nodes <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in [dims.m, dims.n, dims.k] {
        for b in part.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h % nodes as u64) as usize
}

/// One routing decision: the chosen replica and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Index of the chosen replica.
    pub replica: usize,
    /// Stable reason label, stamped onto the batch record.
    pub reason: &'static str,
}

/// Stateful batch router over a fixed replica set.
#[derive(Debug, Default)]
pub struct Router {
    policy: RouterPolicy,
    rr_next: usize,
    affinity: HashMap<GemmDims, usize>,
}

impl Router {
    /// A fresh router with no affinity history.
    pub fn new(policy: RouterPolicy) -> Self {
        Router {
            policy,
            rr_next: 0,
            affinity: HashMap::new(),
        }
    }

    /// The policy this router was built with.
    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// Routes among the replicas whose `eligible` flag is set —
    /// quarantined replicas stay in `loads` (indices are stable replica
    /// ids) but are never chosen. Returns `None` when no replica is
    /// eligible; the caller sheds the batch.
    pub fn route_among(
        &mut self,
        dims: GemmDims,
        loads: &[ReplicaLoad],
        eligible: &[bool],
    ) -> Option<RouteDecision> {
        assert_eq!(
            loads.len(),
            eligible.len(),
            "one eligibility flag per replica"
        );
        if !eligible.iter().any(|&e| e) {
            return None;
        }
        match self.policy {
            RouterPolicy::RoundRobin => {
                // Scan at most `len` slots from the rotor for the next
                // eligible replica; the any() guard above proves one
                // exists.
                for step in 0..loads.len() {
                    let replica = (self.rr_next + step) % loads.len();
                    if eligible.get(replica).copied().unwrap_or(false) {
                        self.rr_next = replica.wrapping_add(1);
                        return Some(RouteDecision {
                            replica,
                            reason: "round-robin",
                        });
                    }
                }
                None
            }
            RouterPolicy::LeastLoaded => Some(RouteDecision {
                replica: least_loaded(loads, eligible)?,
                reason: "least-loaded",
            }),
            RouterPolicy::ShapeAffinity => {
                if let Some(&r) = self.affinity.get(&dims) {
                    // Affinity entries are only ever inserted from
                    // `least_loaded` below, which returns an index
                    // `< loads.len()`; the replica count is fixed for
                    // the router's lifetime. A quarantined affine
                    // replica falls through and the shape re-homes.
                    if r < loads.len() && eligible.get(r).copied().unwrap_or(false) {
                        return Some(RouteDecision {
                            replica: r,
                            reason: "affinity-hit",
                        });
                    }
                }
                let replica = least_loaded(loads, eligible)?;
                self.affinity.insert(dims, replica);
                Some(RouteDecision {
                    replica,
                    reason: "affinity-new",
                })
            }
            RouterPolicy::Locality => {
                let nodes = loads.iter().map(|l| l.node).max().map_or(1, |m| m + 1);
                let home = home_node(dims, nodes);
                let local = least_loaded_where(loads, eligible, |l| l.node == home);
                let remote = least_loaded_where(loads, eligible, |l| l.node != home);
                match (local, remote) {
                    (Some(l), Some(r)) => {
                        // `least_loaded_where` only returns in-range
                        // indices, so these lookups always succeed.
                        let local_tokens = loads.get(l).map_or(0, |x| x.queued_tokens);
                        let remote_tokens = loads.get(r).map_or(0, |x| x.queued_tokens);
                        let overloaded = local_tokens
                            > remote_tokens
                                .saturating_mul(2)
                                .saturating_add(SPILL_SLACK_TOKENS);
                        if overloaded {
                            Some(RouteDecision {
                                replica: r,
                                reason: "locality-spill",
                            })
                        } else {
                            Some(RouteDecision {
                                replica: l,
                                reason: "locality-local",
                            })
                        }
                    }
                    (Some(l), None) => Some(RouteDecision {
                        replica: l,
                        reason: "locality-local",
                    }),
                    (None, Some(r)) => Some(RouteDecision {
                        replica: r,
                        reason: "locality-spill",
                    }),
                    (None, None) => None,
                }
            }
        }
    }
}

/// Index of the least-loaded eligible replica: fewest queued tokens,
/// then soonest free, then lowest id. `None` when nothing is eligible.
fn least_loaded(loads: &[ReplicaLoad], eligible: &[bool]) -> Option<usize> {
    least_loaded_where(loads, eligible, |_| true)
}

/// [`least_loaded`] restricted to replicas matching `pred` (the locality
/// policy's home-node / remote split).
fn least_loaded_where(
    loads: &[ReplicaLoad],
    eligible: &[bool],
    pred: impl Fn(&ReplicaLoad) -> bool,
) -> Option<usize> {
    loads
        .iter()
        .enumerate()
        .filter(|(i, l)| eligible.get(*i).copied().unwrap_or(false) && pred(l))
        .min_by_key(|(i, l)| (l.queued_tokens, l.busy_ns, *i))
        .map(|(i, _)| i)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn dims(m: u32) -> GemmDims {
        GemmDims::new(m, 2048, 704)
    }

    fn idle(n: usize) -> Vec<ReplicaLoad> {
        vec![ReplicaLoad::default(); n]
    }

    /// Routes with every replica eligible.
    fn route_all(router: &mut Router, dims: GemmDims, loads: &[ReplicaLoad]) -> RouteDecision {
        router
            .route_among(dims, loads, &vec![true; loads.len()])
            .unwrap()
    }

    #[test]
    fn round_robin_cycles_through_replicas() {
        let mut router = Router::new(RouterPolicy::RoundRobin);
        let loads = idle(3);
        let picks: Vec<usize> = (0..6)
            .map(|_| route_all(&mut router, dims(256), &loads).replica)
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_loaded_prefers_fewest_tokens_then_soonest_free() {
        let mut router = Router::new(RouterPolicy::LeastLoaded);
        let loads = vec![
            ReplicaLoad {
                queued_tokens: 512,
                busy_ns: 0,
                node: 0,
            },
            ReplicaLoad {
                queued_tokens: 128,
                busy_ns: 900,
                node: 0,
            },
            ReplicaLoad {
                queued_tokens: 128,
                busy_ns: 100,
                node: 0,
            },
        ];
        let d = route_all(&mut router, dims(256), &loads);
        assert_eq!((d.replica, d.reason), (2, "least-loaded"));
    }

    #[test]
    fn least_loaded_breaks_full_ties_by_lowest_id() {
        let mut router = Router::new(RouterPolicy::LeastLoaded);
        assert_eq!(route_all(&mut router, dims(256), &idle(4)).replica, 0);
    }

    #[test]
    fn shape_affinity_steers_repeats_to_the_same_replica() {
        let mut router = Router::new(RouterPolicy::ShapeAffinity);
        let mut loads = idle(3);
        let first = route_all(&mut router, dims(256), &loads);
        assert_eq!(first.reason, "affinity-new");
        // Pile load onto the affine replica; repeats must stick anyway.
        if let Some(l) = loads.get_mut(first.replica) {
            l.queued_tokens = 10_000;
        }
        let second = route_all(&mut router, dims(256), &loads);
        assert_eq!(second.replica, first.replica);
        assert_eq!(second.reason, "affinity-hit");
        // A new shape avoids the loaded replica.
        let other = route_all(&mut router, dims(512), &loads);
        assert_ne!(other.replica, first.replica);
        assert_eq!(other.reason, "affinity-new");
    }

    #[test]
    fn round_robin_skips_quarantined_replicas() {
        let mut router = Router::new(RouterPolicy::RoundRobin);
        let loads = idle(3);
        let eligible = vec![true, false, true];
        let picks: Vec<usize> = (0..4)
            .map(|_| {
                router
                    .route_among(dims(256), &loads, &eligible)
                    .unwrap()
                    .replica
            })
            .collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn affinity_rehomes_when_the_affine_replica_is_quarantined() {
        let mut router = Router::new(RouterPolicy::ShapeAffinity);
        let loads = idle(3);
        let first = route_all(&mut router, dims(256), &loads);
        assert_eq!((first.replica, first.reason), (0, "affinity-new"));
        let mut eligible = vec![true; 3];
        *eligible.get_mut(first.replica).unwrap() = false;
        let moved = router.route_among(dims(256), &loads, &eligible).unwrap();
        assert_eq!((moved.replica, moved.reason), (1, "affinity-new"));
        // The re-homed affinity sticks on later fully-eligible routes.
        let repeat = route_all(&mut router, dims(256), &loads);
        assert_eq!((repeat.replica, repeat.reason), (1, "affinity-hit"));
    }

    #[test]
    fn no_eligible_replica_routes_nowhere() {
        let mut router = Router::new(RouterPolicy::LeastLoaded);
        assert_eq!(
            router.route_among(dims(256), &idle(2), &[false, false]),
            None
        );
    }

    /// Four replicas over two nodes: 0/1 on node 0, 2/3 on node 1.
    fn two_node_loads() -> Vec<ReplicaLoad> {
        (0..4)
            .map(|i| ReplicaLoad {
                queued_tokens: 0,
                busy_ns: 0,
                node: i / 2,
            })
            .collect()
    }

    #[test]
    fn locality_prefers_the_home_node() {
        let mut router = Router::new(RouterPolicy::Locality);
        let loads = two_node_loads();
        let d = dims(256);
        let home = home_node(d, 2);
        let decision = route_all(&mut router, d, &loads);
        assert_eq!(decision.reason, "locality-local");
        assert_eq!(
            loads.get(decision.replica).unwrap().node,
            home,
            "local decision must land on the home node"
        );
        // Repeats keep landing locally (stateless w.r.t. history).
        assert_eq!(route_all(&mut router, d, &loads).reason, "locality-local");
    }

    #[test]
    fn locality_spills_only_past_the_slack() {
        let mut router = Router::new(RouterPolicy::Locality);
        let d = dims(256);
        let home = home_node(d, 2);
        let mut loads = two_node_loads();
        // Load the home node to just under the spill threshold: stays.
        for l in loads.iter_mut().filter(|l| l.node == home) {
            l.queued_tokens = SPILL_SLACK_TOKENS;
        }
        let stay = route_all(&mut router, d, &loads);
        assert_eq!(stay.reason, "locality-local");
        // Past double-remote + slack: spills to the other node.
        for l in loads.iter_mut().filter(|l| l.node == home) {
            l.queued_tokens = SPILL_SLACK_TOKENS + 1;
        }
        for l in loads.iter_mut().filter(|l| l.node != home) {
            l.queued_tokens = 0;
        }
        let spill = route_all(&mut router, d, &loads);
        assert_eq!(spill.reason, "locality-spill");
        assert_ne!(loads.get(spill.replica).unwrap().node, home);
    }

    #[test]
    fn locality_spills_when_the_home_node_is_quarantined() {
        let mut router = Router::new(RouterPolicy::Locality);
        let loads = two_node_loads();
        let d = dims(256);
        let home = home_node(d, 2);
        let eligible: Vec<bool> = loads.iter().map(|l| l.node != home).collect();
        let decision = router.route_among(d, &loads, &eligible).unwrap();
        assert_eq!(decision.reason, "locality-spill");
        assert_ne!(loads.get(decision.replica).unwrap().node, home);
    }

    #[test]
    fn locality_on_one_node_degenerates_to_least_loaded() {
        let mut router = Router::new(RouterPolicy::Locality);
        let mut loads = idle(3);
        loads.get_mut(0).unwrap().queued_tokens = 512;
        let decision = route_all(&mut router, dims(256), &loads);
        assert_eq!((decision.replica, decision.reason), (1, "locality-local"));
    }

    #[test]
    fn home_node_is_deterministic_and_in_range() {
        for m in [64, 128, 256, 512, 1024] {
            for nodes in [1, 2, 3, 4] {
                let h = home_node(dims(m), nodes);
                assert!(h < nodes);
                assert_eq!(h, home_node(dims(m), nodes));
            }
        }
        // Different shapes spread across nodes (not all on one).
        let homes: std::collections::HashSet<usize> =
            (1..64).map(|m| home_node(dims(m * 16), 2)).collect();
        assert_eq!(homes.len(), 2, "shapes must spread over both nodes");
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for policy in [
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastLoaded,
            RouterPolicy::ShapeAffinity,
            RouterPolicy::Locality,
        ] {
            assert_eq!(RouterPolicy::parse(policy.label()), Some(policy));
        }
        assert_eq!(RouterPolicy::parse("random"), None);
    }
}
