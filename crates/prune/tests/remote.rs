//! Venue symmetry under pruning: a stratified campaign over a real TCP
//! `serve` worker must be bit-identical to the in-process run — which
//! requires the prune map itself to survive the wire, since the
//! residual sampler is a pure function of `(seed, PruneMap)`.

use avf_inject::{Campaign, CampaignConfig, LocalBackend, PruneMode};
use avf_service::{spawn_local, RemoteBackend, ServeOptions};
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
