//! Multi-node serving: seeded determinism, node placement, locality
//! routing vs. round-robin, migration accounting, and the node →
//! replica → total rollup identities.

#![allow(clippy::unwrap_used)]

use flashoverlap::{FlashOverlapError, SystemSpec};
use serving::{home_node, serve, ArrivalProcess, RouterPolicy, ServeConfig};
use workloads::ServeMix;

/// Two nodes × two replicas per node over a node-spanning TP group,
/// overloaded enough that batches queue and the locality policy has
/// real spill decisions to make.
fn two_node_config() -> ServeConfig {
    let mut config = ServeConfig::new(SystemSpec::rtx4090(2).with_nodes(2));
    config.process = ArrivalProcess::Poisson { rate_rps: 2400.0 };
    config.requests = 160;
    config.replicas = 4;
    config.nodes = 2;
    config.router = RouterPolicy::Locality;
    config.seed = 11;
    config
}

/// `serve --requests 120 --rate 2400 --seed 11 --gpus 4 --nodes 2
/// --replicas 4 --router locality`: two GPUs per node, so a TP group's
/// collectives have an intra-node phase.
fn four_gpu_config() -> ServeConfig {
    let mut config = two_node_config();
    config.system = SystemSpec::rtx4090(4).with_nodes(2);
    config.requests = 120;
    config
}

#[test]
fn two_node_serve_is_byte_identical() {
    for config in [two_node_config(), four_gpu_config()] {
        let a = serve(&config).unwrap();
        let b = serve(&config).unwrap();
        assert_eq!(
            a.to_json().to_json(),
            b.to_json().to_json(),
            "same seed must produce a byte-identical two-node report"
        );
    }
}

#[test]
fn node_accounting_rolls_up_exactly() {
    for config in [two_node_config(), four_gpu_config()] {
        let report = serve(&config).unwrap();
        assert_eq!((report.nodes, report.router), (2, "locality"));
        assert_eq!(report.node_stats.len(), 2);
        // Node rows sum to the run totals and agree with the replica rows
        // they fold; the serve-level attribution identity survives
        // migration charges.
        report.check().unwrap();

        // Placement is replica id modulo node count, consistently stamped.
        for r in &report.replica_stats {
            assert_eq!(r.node, r.id % report.nodes);
        }
        for b in &report.batch_records {
            assert_eq!(b.node, b.replica % report.nodes);
        }
    }
}

#[test]
fn migration_is_charged_exactly_off_home_node() {
    let config = two_node_config();
    let report = serve(&config).unwrap();
    let tp = config.system.n_gpus as u32;
    let mix = ServeMix::default_mix();
    let mut total_migration = 0u64;
    let mut cross = 0u64;
    for b in &report.batch_records {
        let model = mix
            .entries()
            .iter()
            .map(|e| e.model)
            .find(|m| m.name == b.model)
            .expect("batch model comes from the mix");
        let dims =
            gpu_sim::gemm::GemmDims::new(b.padded_tokens, model.hidden, model.intermediate / tp);
        let home = home_node(dims, report.nodes);
        if b.node == home {
            assert_eq!(
                b.migration_ns, 0,
                "home-node batch {} must not pay migration",
                b.id
            );
        } else {
            assert!(
                b.migration_ns > 0,
                "cross-node batch {} must pay migration",
                b.id
            );
            cross += 1;
        }
        total_migration += b.migration_ns;
    }
    assert_eq!(cross, report.cross_node_batches);
    assert_eq!(total_migration, report.migration_ns);
    assert!(
        report.batch_records.len() as u64 > report.cross_node_batches,
        "locality routing must keep some batches on their home node"
    );
}

#[test]
fn hierarchical_collectives_cross_fewer_bytes_than_flat() {
    // Strict savings need multi-GPU nodes: with one GPU per node there
    // is no intra-node phase and the leader ring *is* the flat ring.
    for requests in [160, 120] {
        let config = ServeConfig {
            requests,
            ..four_gpu_config()
        };
        let report = serve(&config).unwrap();
        assert!(
            report.inter_bytes_hierarchical > 0,
            "a node-spanning TP group must cross nodes"
        );
        assert!(
            report.inter_bytes_hierarchical < report.inter_bytes_flat,
            "hierarchical ({}) must move fewer inter-node bytes than flat ({})",
            report.inter_bytes_hierarchical,
            report.inter_bytes_flat,
        );
    }
}

#[test]
fn locality_crosses_nodes_less_than_round_robin() {
    for config in [two_node_config(), four_gpu_config()] {
        let locality = serve(&config).unwrap();
        let round_robin = serve(&ServeConfig {
            router: RouterPolicy::RoundRobin,
            ..config
        })
        .unwrap();
        assert_eq!(locality.offered, round_robin.offered, "identical traffic");
        assert!(
            locality.cross_node_batches < round_robin.cross_node_batches,
            "locality ({}) must cross nodes less than round-robin ({})",
            locality.cross_node_batches,
            round_robin.cross_node_batches,
        );
        // The spill rate too: the routers may execute different batch
        // counts.
        let spill = |r: &serving::ServeReport| r.cross_node_batches as f64 / r.batches as f64;
        assert!(
            spill(&locality) < spill(&round_robin),
            "locality spill rate {:.3} must be below round-robin's {:.3}",
            spill(&locality),
            spill(&round_robin),
        );
        assert!(locality.migration_ns < round_robin.migration_ns);
    }
}

#[test]
fn single_node_runs_carry_no_cross_node_accounting() {
    let mut config = two_node_config();
    config.system = SystemSpec::rtx4090(2);
    config.nodes = 1;
    config.router = RouterPolicy::RoundRobin;
    let report = serve(&config).unwrap();
    assert_eq!(report.nodes, 1);
    assert_eq!(report.cross_node_batches, 0);
    assert_eq!(report.migration_ns, 0);
    assert_eq!(report.inter_bytes_hierarchical, 0);
    assert_eq!(report.inter_bytes_flat, 0);
    assert!(report.batch_records.iter().all(|b| b.migration_ns == 0));
    assert_eq!(report.node_stats.len(), 1);
}

#[test]
fn more_nodes_than_replicas_is_rejected() {
    let mut config = two_node_config();
    config.replicas = 2;
    config.nodes = 4;
    let err = serve(&config).unwrap_err();
    assert!(matches!(err, FlashOverlapError::BadInputs { .. }));
    let msg = format!("{err}");
    assert!(
        msg.contains("every node needs at least one replica"),
        "{msg}"
    );
}
