//! Integration tests spanning the whole workspace: PBFT agreement driven
//! over each of the three comm stacks (direct fabric, NIO-TCP, RUBIN-RDMA)
//! — the paper's end goal of an RDMA-enabled BFT protocol, exercised end
//! to end.

use reptor::{ByzantineMode, Client, CounterService, Replica, ReptorConfig, Stack, DOMAIN_SECRET};
use simnet::{Network, Simulator, TestBed};

struct World {
    sim: Simulator,
    net: Network,
    replicas: Vec<Replica>,
    client: Client,
}

fn build(kind: Stack, seed: u64) -> World {
    let cfg = ReptorConfig::small();
    let n = cfg.n;
    let (mut sim, net, hosts) = TestBed::cluster(seed, n + 1);
    let transports = kind.build(&mut sim, &net, &hosts);

    let replicas: Vec<Replica> = (0..n)
        .map(|i| {
            Replica::new(
                i as u32,
                cfg.clone(),
                DOMAIN_SECRET,
                transports[i].clone(),
                &net,
                hosts[i],
                Box::new(CounterService::default()),
            )
        })
        .collect();
    let client = Client::new(n as u32, cfg, DOMAIN_SECRET, transports[n].clone());
    World {
        sim,
        net,
        replicas,
        client,
    }
}

fn run_to_completion(w: &mut World, want: u64) {
    let mut guard: u64 = 0;
    while w.client.stats().completed < want {
        assert!(w.sim.step(), "simulation went idle before completion");
        guard += 1;
        assert!(guard < 20_000_000, "agreement stalled");
    }
}

fn assert_total_order(replicas: &[Replica]) {
    let logs: Vec<_> = replicas.iter().map(Replica::executed_log).collect();
    for a in &logs {
        for b in &logs {
            for (sa, da) in a {
                for (sb, db) in b {
                    if sa == sb {
                        assert_eq!(da, db, "divergent execution at seq {sa}");
                    }
                }
            }
        }
    }
}

#[test]
fn bft_counter_over_nio_tcp_stack() {
    let mut w = build(Stack::Nio, 101);
    let client = w.client.clone();
    for _ in 0..10 {
        client.submit(&mut w.sim, b"inc".to_vec());
    }
    run_to_completion(&mut w, 10);
    w.sim.run_until_idle();
    assert_total_order(&w.replicas);
    for r in &w.replicas {
        assert_eq!(r.stats().executed_requests, 10, "replica {}", r.id());
    }
    let last = client.completions().last().unwrap().result.clone();
    assert_eq!(last, 10u64.to_le_bytes());
}

#[test]
fn bft_counter_over_rubin_rdma_stack() {
    let mut w = build(Stack::Rubin, 102);
    let client = w.client.clone();
    for _ in 0..10 {
        client.submit(&mut w.sim, b"inc".to_vec());
    }
    run_to_completion(&mut w, 10);
    w.sim.run_until_idle();
    assert_total_order(&w.replicas);
    for r in &w.replicas {
        assert_eq!(r.stats().executed_requests, 10, "replica {}", r.id());
    }
    let last = client.completions().last().unwrap().result.clone();
    assert_eq!(last, 10u64.to_le_bytes());
}

#[test]
fn rdma_stack_commits_faster_than_tcp_stack() {
    // The paper's motivation end to end: agreement latency over RUBIN must
    // beat agreement latency over the NIO TCP stack.
    let latency = |kind: Stack| {
        let mut w = build(kind, 103);
        let client = w.client.clone();
        for _ in 0..10 {
            client.submit(&mut w.sim, b"inc".to_vec());
        }
        run_to_completion(&mut w, 10);
        let comps = client.completions();
        let total: u128 = comps.iter().map(|c| c.latency().as_nanos() as u128).sum();
        total / comps.len() as u128
    };
    let tcp = latency(Stack::Nio);
    let rdma = latency(Stack::Rubin);
    assert!(
        rdma < tcp,
        "RDMA agreement ({rdma}ns) must beat TCP agreement ({tcp}ns)"
    );
}

#[test]
fn byzantine_leader_tolerated_over_rubin_stack() {
    let mut w = build(Stack::Rubin, 104);
    w.replicas[0].set_byzantine(ByzantineMode::SilentPrimary);
    let client = w.client.clone();
    client.submit(&mut w.sim, b"inc".to_vec());
    run_to_completion(&mut w, 1);
    w.sim.run_until_idle();
    assert_total_order(&w.replicas);
    for r in &w.replicas[1..] {
        assert!(r.view() >= 1, "view change must have happened");
    }
}

#[test]
fn crashed_replica_tolerated_over_nio_stack() {
    let mut w = build(Stack::Nio, 105);
    w.replicas[2].set_byzantine(ByzantineMode::Crash);
    let client = w.client.clone();
    for _ in 0..5 {
        client.submit(&mut w.sim, b"inc".to_vec());
    }
    run_to_completion(&mut w, 5);
    w.sim.run_until_idle();
    assert_total_order(&w.replicas);
    assert_eq!(w.replicas[0].stats().executed_requests, 5);
    let _ = &w.net;
}
