//! Venue symmetry under pruning: a stratified campaign over a real TCP
//! `serve` worker must be bit-identical to the in-process run — which
//! requires the prune map itself to survive the wire, since the
//! residual sampler is a pure function of `(seed, PruneMap)` — also when
//! the worker's cached golden pass carried no evidence and it had to
//! run the pass again with evidence.

use avf_inject::{Campaign, CampaignConfig, LocalBackend, PruneMode};
use avf_service::protocol::{delegated_job_key, geometry_fingerprint};
use avf_service::{spawn_local, RemoteBackend, ServeOptions, StoreCache};
use avf_sim::MachineConfig;
use avf_workloads::testkit::register_chain;

fn pruned_config() -> CampaignConfig {
    CampaignConfig {
        injections: 2_000,
        seed: 11,
        threads: 2,
        instr_budget: 6_000,
        ci_target: Some(0.16),
        batch_size: 64,
        prune: PruneMode::On,
        ..CampaignConfig::default()
    }
}

fn assert_identical(a: &avf_inject::CampaignReport, b: &avf_inject::CampaignReport) {
    assert_eq!(a.injections, b.injections);
    assert_eq!(a.stop, b.stop);
    assert_eq!(a.golden.digest, b.golden.digest);
    assert_eq!(a.batches.len(), b.batches.len());
    for (x, y) in a.targets.iter().zip(&b.targets) {
        assert_eq!(x.target, y.target);
        assert_eq!(x.counts, y.counts, "{}: outcome counts differ", x.target);
        assert_eq!(
            x.residual.to_bits(),
            y.residual.to_bits(),
            "{}: the wire-shipped map stratifies differently",
            x.target
        );
        assert_eq!(x.ci95().0.to_bits(), y.ci95().0.to_bits());
        assert_eq!(x.ci95().1.to_bits(), y.ci95().1.to_bits());
    }
    for (x, y) in a.batches.iter().zip(&b.batches) {
        assert_eq!(x.trials, y.trials);
        assert_eq!(x.widest, y.widest);
        assert_eq!(x.max_half_width.to_bits(), y.max_half_width.to_bits());
    }
}

#[test]
fn delegated_pruned_campaign_matches_local_with_the_map_shipped_back() {
    // The worker captures the evidence during its own golden pass,
    // builds the map, and returns it in JOB_READY — the driver samples
    // from a map that crossed the wire.
    let machine = MachineConfig::baseline();
    let program = register_chain();
    let config = pruned_config();

    let local = Campaign::new(&machine, &program, config.clone())
        .run_on(&LocalBackend::new(2))
        .expect("local pruned run");
    assert!(local.trials_saved() > 0, "pruning engaged");

    let addr = spawn_local(ServeOptions {
        threads: 2,
        ..ServeOptions::default()
    })
    .expect("bind loopback server");
    let remote = Campaign::new(&machine, &program, config)
        .run_on(&RemoteBackend::new(vec![addr.to_string()]))
        .expect("remote pruned run");
    assert_identical(&local, &remote);
}

#[test]
fn a_pruned_campaign_on_a_store_cached_without_evidence_regenerates_it_once() {
    let machine = MachineConfig::baseline();
    let program = register_chain();
    let config = CampaignConfig {
        checkpoint_interval: 750,
        ..pruned_config()
    };
    let unpruned = CampaignConfig {
        prune: PruneMode::Off,
        ci_target: None,
        injections: 64,
        ..config.clone()
    };
    let local = Campaign::new(&machine, &program, config.clone())
        .run_on(&LocalBackend::new(2))
        .expect("local pruned run");

    let cache = StoreCache::shared();
    let addr = spawn_local(ServeOptions {
        threads: 2,
        cache: cache.clone(),
        ..ServeOptions::default()
    })
    .expect("bind loopback server");
    let remote = || RemoteBackend::new(vec![addr.to_string()]);
    Campaign::new(&machine, &program, unpruned)
        .run_on(&remote())
        .expect("remote unpruned run");
    let key = delegated_job_key(&machine, &program, config.instr_budget, 750);
    let geometry = geometry_fingerprint(&machine, &program);
    let entry = cache
        .get(key, geometry)
        .expect("the unpruned pass is cached");
    assert!(
        entry.evidence.is_none(),
        "an unpruned pass records no evidence"
    );

    // A cache hit without evidence: the worker runs the pass again with
    // evidence and refreshes the entry.
    let regenerated = Campaign::new(&machine, &program, config.clone())
        .run_on(&remote())
        .expect("remote pruned run on the regenerated evidence");
    assert_identical(&local, &regenerated);
    let entry = cache.get(key, geometry).expect("still cached");
    assert!(entry.evidence.is_some(), "the entry now holds the evidence");

    let before = cache.stats();
    let hit = Campaign::new(&machine, &program, config)
        .run_on(&remote())
        .expect("remote pruned run on the cached evidence");
    assert_identical(&local, &hit);
    let after = cache.stats();
    assert_eq!(
        (after.hits - before.hits, after.misses - before.misses),
        (1, 0),
        "one plain store-cache hit"
    );
    assert!(
        std::sync::Arc::ptr_eq(
            &entry.checkpoints,
            &cache.get(key, geometry).expect("cached").checkpoints
        ),
        "a plain hit leaves the entry as it was"
    );
}
