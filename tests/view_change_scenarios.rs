//! Deep view-change scenarios: cascading faulty primaries, re-proposal of
//! prepared-but-uncommitted batches, rejection of forged NEW-VIEWs, and
//! the interaction of view changes with checkpoints.

use reptor::{
    batch_digest, ByzantineMode, Cluster, CounterService, Message, ReptorConfig, Request,
};

fn cluster(seed: u64, cfg: ReptorConfig) -> Cluster {
    Cluster::sim_transport(cfg, 1, seed, || Box::new(CounterService::default()))
}

#[test]
fn cascading_faulty_primaries_are_skipped() {
    // Views 0 and 1 both have silent primaries; the group must reach a
    // view whose primary is correct (view >= 2) and then make progress.
    let mut c = cluster(71, ReptorConfig::small());
    c.replicas[0].set_byzantine(ByzantineMode::SilentPrimary);
    c.replicas[1].set_byzantine(ByzantineMode::SilentPrimary);
    let client = c.clients[0].clone();
    for _ in 0..3 {
        client.submit(&mut c.sim, b"inc".to_vec());
    }
    assert!(
        c.run_until_completed(3, 15_000_000),
        "progress must resume under a correct primary"
    );
    c.settle();
    c.assert_safety();
    for r in &c.replicas[2..] {
        assert!(
            r.view() >= 2,
            "replica {} stuck in view {}",
            r.id(),
            r.view()
        );
    }
    // The metrics registry recorded the cascade: every correct replica
    // voted for at least the two view changes it sat through, and the
    // trace carries the view-change events.
    let snap = c.metrics_snapshot();
    for r in &c.replicas[2..] {
        let vc = snap.counter(&format!("reptor.r{}.view_changes", r.id()));
        assert!(
            vc >= 2,
            "replica {} counted {vc} view changes, expected >= 2",
            r.id()
        );
    }
    assert!(
        snap.trace
            .iter()
            .any(|ev| ev.layer == "reptor" && ev.event.contains("view_change")),
        "trace ring must carry the view-change events"
    );
}

#[test]
fn view_change_replays_prepared_batches_without_duplication() {
    // Run a workload across a forced view change; every request must
    // execute exactly once even if its batch was re-proposed.
    let mut c = cluster(72, ReptorConfig::small());
    let client = c.clients[0].clone();
    // Warm up in view 0.
    for _ in 0..4 {
        client.submit(&mut c.sim, b"inc".to_vec());
    }
    assert!(c.run_until_completed(4, 2_000_000));
    // Now the primary goes silent mid-stream.
    c.replicas[0].set_byzantine(ByzantineMode::SilentPrimary);
    for _ in 0..4 {
        client.submit(&mut c.sim, b"inc".to_vec());
    }
    assert!(c.run_until_completed(8, 15_000_000));
    c.settle();
    c.assert_safety();
    // Exactly-once execution shows up as the correct final counter value.
    let max = client
        .completions()
        .iter()
        .map(|cm| u64::from_le_bytes(cm.result.clone().try_into().unwrap()))
        .max()
        .unwrap();
    assert_eq!(
        max, 8,
        "each inc applied exactly once across the view change"
    );
    for r in &c.replicas[1..] {
        assert_eq!(r.stats().executed_requests, 8, "replica {}", r.id());
    }
}

#[test]
fn forged_new_view_with_bad_digest_is_rejected() {
    // A replica receiving a NEW-VIEW whose digests do not bind the batches
    // must ignore it and stay in its current view.
    let mut c = cluster(73, ReptorConfig::small());
    let client = c.clients[0].clone();
    client.submit(&mut c.sim, b"inc".to_vec());
    assert!(c.run_until_completed(1, 1_000_000));
    c.settle();

    let forged_batch = vec![Request {
        client: 99,
        timestamp: 1,
        payload: b"forged".to_vec(),
    }];
    let wrong_digest = batch_digest(&[]); // does not match forged_batch
    let view_before = c.replicas[2].view();
    // Inject directly into replica 2's handler, bypassing MACs (the worst
    // case: authentication already passed).
    let msg = Message::NewView {
        view: view_before + 1,
        pre_prepares: vec![(100, wrong_digest, forged_batch)],
        replica: ((view_before + 1) % 4) as u32,
    };
    c.replicas[2].inject_message(&mut c.sim, msg);
    c.settle();
    assert_eq!(
        c.replicas[2].view(),
        view_before,
        "forged NEW-VIEW must not install a view"
    );
    c.assert_safety();
}

#[test]
fn new_view_from_wrong_primary_is_rejected() {
    let mut c = cluster(74, ReptorConfig::small());
    let view_before = c.replicas[1].view();
    // Replica 3 is not the primary of view 1 (that is replica 1); replica
    // 2 claims otherwise.
    let msg = Message::NewView {
        view: view_before + 1,
        pre_prepares: vec![],
        replica: 3, // not primary(view 1)
    };
    c.replicas[2].inject_message(&mut c.sim, msg);
    c.settle();
    assert_eq!(c.replicas[2].view(), view_before);
}

#[test]
fn stale_view_messages_are_ignored() {
    // After moving to view 1, messages from view 0 must be dropped.
    let mut c = cluster(75, ReptorConfig::small());
    c.replicas[0].set_byzantine(ByzantineMode::SilentPrimary);
    let client = c.clients[0].clone();
    client.submit(&mut c.sim, b"inc".to_vec());
    assert!(c.run_until_completed(1, 10_000_000));
    c.settle();
    let r2_view = c.replicas[2].view();
    assert!(r2_view >= 1);
    let executed_before = c.replicas[2].last_executed();
    // A stale PRE-PREPARE from the deposed view-0 primary.
    let msg = Message::PrePrepare {
        view: 0,
        seq: 50,
        digest: batch_digest(&[]),
        batch: vec![],
    };
    c.replicas[2].inject_message(&mut c.sim, msg);
    c.settle();
    assert_eq!(c.replicas[2].view(), r2_view, "view unchanged");
    assert_eq!(c.replicas[2].last_executed(), executed_before);
}

#[test]
fn checkpoints_continue_after_view_change() {
    let cfg = ReptorConfig {
        checkpoint_interval: 4,
        batch_size: 1,
        ..ReptorConfig::small()
    };
    let mut c = cluster(76, cfg);
    c.replicas[0].set_byzantine(ByzantineMode::SilentPrimary);
    let client = c.clients[0].clone();
    for _ in 0..10 {
        client.submit(&mut c.sim, b"inc".to_vec());
    }
    assert!(c.run_until_completed(10, 20_000_000));
    c.settle();
    c.assert_safety();
    for r in &c.replicas[1..] {
        assert!(
            r.low_mark() >= 4,
            "replica {} checkpointing stalled after view change (low mark {})",
            r.id(),
            r.low_mark()
        );
    }
    // Checkpoint garbage collection actually freed log entries, and the
    // registry agrees with the per-replica stats.
    let snap = c.metrics_snapshot();
    for r in &c.replicas[1..] {
        let stable = snap.counter(&format!("reptor.r{}.checkpoints_stable", r.id()));
        let freed = snap.counter(&format!("reptor.r{}.checkpoint_gc_freed", r.id()));
        assert!(stable >= 1, "replica {} stabilised no checkpoint", r.id());
        assert_eq!(stable, r.stats().stable_checkpoints, "replica {}", r.id());
        assert!(
            freed >= 4,
            "replica {} freed only {freed} log entries at its checkpoints",
            r.id()
        );
    }
    assert!(
        snap.trace
            .iter()
            .any(|ev| ev.layer == "reptor" && ev.event.contains("checkpoint_stable")),
        "trace ring must carry the checkpoint events"
    );
}

#[test]
fn seven_replicas_survive_two_cascading_silent_primaries() {
    let cfg = ReptorConfig::for_f(2);
    let mut c = cluster(77, cfg);
    c.replicas[0].set_byzantine(ByzantineMode::SilentPrimary);
    c.replicas[1].set_byzantine(ByzantineMode::Crash);
    let client = c.clients[0].clone();
    for _ in 0..3 {
        client.submit(&mut c.sim, b"inc".to_vec());
    }
    assert!(c.run_until_completed(3, 25_000_000));
    c.settle();
    c.assert_safety();
    for r in &c.replicas[2..] {
        assert!(r.view() >= 2, "replica {} in view {}", r.id(), r.view());
        assert_eq!(r.stats().executed_requests, 3);
    }
}
