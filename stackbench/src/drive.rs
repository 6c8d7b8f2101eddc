//! Builds each workload's system through the stack's public API, drives
//! the generated inputs through it, and checks the outputs.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use kvstore::{check_linearizable, kv_config, KvHarness, KvHistOp, KvStoreService, Stack};
use rdma_verbs::RnicModel;
use reptor::{
    ByzantineMode, Client, DurabilityConfig, EchoService, NioTransport, Replica, ReptorConfig,
    RubinTransport, Transport, DOMAIN_SECRET,
};
use rubin::RubinConfig;
use simnet::{CoreId, HostId, MetricsSnapshot, Nanos, Network, Simulator, TestBed};
use simnet_socket::TcpModel;

use crate::inputs::{Inputs, Workload, AGREE_DEPTH, KV_CAPACITY};
use crate::probe::thread_cpu_ns;
use crate::spans::Tracer;

/// Simulated time granted after the lease queries, so clients hold
/// leases before the first op.
const LEASE_SETTLE: Nanos = Nanos::from_millis(2);
/// Simulator events per op after which a trial stops and its unfinished
/// ops count as failed: over three times what the heaviest workload
/// needs. It bounds the host time and memory of a trial whose group has
/// stopped making progress (an agree-nio view-change storm grows without
/// bound) at the same simulated instant on every replay.
const MAX_EVENTS_PER_OP: u64 = 1_000;

/// Kind of one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// An ordered echo request (changes the echo service's op count).
    Echo,
    /// A KV read.
    Get,
    /// A KV write.
    Put,
    /// A KV delete.
    Del,
}

impl OpKind {
    /// The kind of a KV op.
    fn of(op: &KvHistOp) -> OpKind {
        match op {
            KvHistOp::Get { .. } => OpKind::Get,
            KvHistOp::Put { .. } => OpKind::Put,
            KvHistOp::Del { .. } => OpKind::Del,
        }
    }

    /// True for ops that change replicated state.
    pub fn is_write(self) -> bool {
        self != OpKind::Get
    }
}

/// One attempted op, in simulated ns.
#[derive(Debug, Clone)]
pub struct OpRec {
    /// The op's kind.
    pub kind: OpKind,
    /// When it fell due (equals `invoke` in a closed loop).
    pub due: u64,
    /// When the benchmark handed it to the client.
    pub invoke: u64,
    /// When its response arrived, if it did.
    pub done: Option<u64>,
}

/// One named correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// Check name.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

/// Everything one simulation of a workload produced.
#[derive(Debug)]
pub struct Run {
    /// Host CPU seconds of this thread from the first set-up call to the
    /// first op.
    pub setup_s: f64,
    /// Host CPU seconds of this thread in the measured phase.
    pub phase_cpu_s: f64,
    /// Host CPU seconds inside `check_linearizable` (0 on agree-*).
    pub lin_check_s: f64,
    /// Every attempted op.
    pub ops: Vec<OpRec>,
    /// Simulated ns at the phase start.
    pub phase_start: u64,
    /// Registry at the phase start.
    pub before: MetricsSnapshot,
    /// Registry at the phase end.
    pub after: MetricsSnapshot,
    /// Retransmissions by the agreement-path clients.
    pub client_retransmissions: u64,
    /// Peak of the open-loop queue (ops due but not yet issued).
    pub backlog_peak: u64,
    /// Restarted replica's `last_executed` behind the group maximum.
    pub recovery_lag_seqs: u64,
    /// Restarted replica's view behind the group maximum.
    pub recovery_view_lag: u64,
    /// Ops that completed with a wrong result.
    pub bad_results: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
}

/// Runs one simulation of `inputs`' workload.
pub fn run(inputs: &Inputs, tr: &mut Tracer) -> Run {
    match inputs.workload {
        Workload::AgreeRubin => run_agree(inputs, false, tr),
        Workload::AgreeNio => run_agree(inputs, true, tr),
        Workload::KvRead | Workload::KvFault => run_kv(inputs, tr),
    }
}

fn snapshot(net: &Network, sim: &Simulator) -> MetricsSnapshot {
    net.publish_sim_gauges(sim);
    net.metrics().snapshot()
}

struct AgreeGroup {
    sim: Simulator,
    net: Network,
    replicas: Vec<Replica>,
    client: Client,
}

fn build_agree(inputs: &Inputs, nio: bool, tr: &mut Tracer) -> AgreeGroup {
    let setup = tr.begin("setup");
    let cfg = ReptorConfig::small();
    let n = cfg.n;
    let s = tr.begin("setup.testbed");
    let (mut sim, net, hosts) = TestBed::cluster(inputs.seed, n + 1);
    tr.end(s);
    let nodes: Vec<(u32, HostId, CoreId)> = hosts
        .iter()
        .enumerate()
        .map(|(i, &h)| (i as u32, h, CoreId(0)))
        .collect();
    let s = tr.begin("setup.transports");
    let transports: Vec<Rc<dyn Transport>> = if nio {
        NioTransport::build_group(&mut sim, &net, &nodes, TcpModel::linux_xeon())
            .into_iter()
            .map(|t| Rc::new(t) as Rc<dyn Transport>)
            .collect()
    } else {
        RubinTransport::build_group(
            &mut sim,
            &net,
            &nodes,
            RnicModel::mt27520(),
            RubinConfig::paper(),
        )
        .into_iter()
        .map(|t| Rc::new(t) as Rc<dyn Transport>)
        .collect()
    };
    tr.end(s);
    let s = tr.begin("setup.handshake");
    sim.run_until_idle();
    tr.end(s);
    let s = tr.begin("setup.replicas");
    let replicas: Vec<Replica> = (0..n)
        .map(|i| {
            Replica::new(
                i as u32,
                cfg.clone(),
                DOMAIN_SECRET,
                transports[i].clone(),
                &net,
                hosts[i],
                Box::new(EchoService::default()),
            )
        })
        .collect();
    tr.end(s);
    let s = tr.begin("setup.clients");
    let client = Client::new(n as u32, cfg, DOMAIN_SECRET, transports[n].clone());
    tr.end(s);
    tr.end(setup);
    AgreeGroup {
        sim,
        net,
        replicas,
        client,
    }
}

fn run_agree(inputs: &Inputs, nio: bool, tr: &mut Tracer) -> Run {
    let cpu0 = thread_cpu_ns();
    let AgreeGroup {
        mut sim,
        net,
        replicas,
        client,
    } = build_agree(inputs, nio, tr);
    let setup_s = (thread_cpu_ns() - cpu0) as f64 / 1e9;

    let before = snapshot(&net, &sim);
    let phase_start = sim.now().as_nanos();
    let phase = tr.begin("phase");
    let cpu0 = thread_cpu_ns();
    let total = inputs.echo_sizes.len();
    let mut stamps: Vec<u64> = Vec::with_capacity(total);
    let mut events = 0u64;
    let max_events = MAX_EVENTS_PER_OP * total as u64;
    while (client.stats().completed as usize) < total && events < max_events {
        while stamps.len() < total && client.pending_count() < AGREE_DEPTH {
            let payload = inputs.echo_payload(stamps.len());
            let s = tr.begin("reptor.submit");
            stamps.push(client.submit(&mut sim, payload));
            tr.end(s);
        }
        let s = tr.begin("sim.step");
        let more = sim.step();
        tr.end(s);
        if !more {
            break;
        }
        events += 1;
    }
    let phase_cpu_s = (thread_cpu_ns() - cpu0) as f64 / 1e9;
    tr.end(phase);
    let after = snapshot(&net, &sim);

    let checks_span = tr.begin("checks");
    let s = tr.begin("check.echo");
    let completions: HashMap<u64, _> = client
        .completions()
        .into_iter()
        .map(|c| (c.timestamp, c))
        .collect();
    let mut ops = Vec::with_capacity(total);
    let mut bad = 0u64;
    for i in 0..total {
        // An op never submitted (the group stopped making progress) or
        // never answered counts as attempted and not done.
        match stamps.get(i).and_then(|ts| completions.get(ts)) {
            Some(c) => {
                if c.result != inputs.echo_payload(i) {
                    bad += 1;
                }
                ops.push(OpRec {
                    kind: OpKind::Echo,
                    due: c.submitted_at.as_nanos(),
                    invoke: c.submitted_at.as_nanos(),
                    done: Some(c.completed_at.as_nanos()),
                });
            }
            None => ops.push(OpRec {
                kind: OpKind::Echo,
                due: phase_start,
                invoke: phase_start,
                done: None,
            }),
        }
    }
    tr.end(s);
    let mut checks = vec![Check {
        name: "echo_results_match_payloads".into(),
        ok: bad == 0,
        detail: format!(
            "{bad} of {} completed echo results differ from their payloads",
            completions.len()
        ),
    }];
    let s = tr.begin("check.agreement");
    checks.push(agreement_check(&replicas));
    tr.end(s);
    tr.end(checks_span);

    Run {
        setup_s,
        phase_cpu_s,
        lin_check_s: 0.0,
        ops,
        phase_start,
        before,
        after,
        client_retransmissions: client.stats().retransmissions,
        backlog_peak: 0,
        recovery_lag_seqs: 0,
        recovery_view_lag: 0,
        bad_results: bad,
        checks,
    }
}

/// Honest replicas' executed logs agree on every sequence number they
/// both executed.
fn agreement_check(replicas: &[Replica]) -> Check {
    let logs: Vec<BTreeMap<u64, _>> = replicas
        .iter()
        .map(|r| r.executed_log().into_iter().collect())
        .collect();
    let mut compared = 0u64;
    let mut diverged = Vec::new();
    for (a, la) in logs.iter().enumerate() {
        for (b, lb) in logs.iter().enumerate().skip(a + 1) {
            for (seq, d) in la {
                if let Some(e) = lb.get(seq) {
                    compared += 1;
                    if d != e {
                        diverged.push(format!("r{a}/r{b}@{seq}"));
                    }
                }
            }
        }
    }
    Check {
        name: "executed_logs_agree".into(),
        ok: diverged.is_empty() && compared > 0,
        detail: format!(
            "{compared} common (seq, digest) pairs compared, {} diverged {:?}",
            diverged.len(),
            diverged.iter().take(4).collect::<Vec<_>>()
        ),
    }
}

fn build_kv(inputs: &Inputs, tr: &mut Tracer) -> KvHarness {
    let setup = tr.begin("setup");
    let cfg = if inputs.workload == Workload::KvFault {
        ReptorConfig {
            durability: Some(DurabilityConfig::default()),
            ..kv_config()
        }
    } else {
        kv_config()
    };
    let s = tr.begin("setup.harness");
    let mut h = KvHarness::build(
        Stack::Rubin,
        inputs.seed,
        inputs.kv_ops.len(),
        cfg,
        KV_CAPACITY,
    );
    tr.end(s);
    let s = tr.begin("setup.leases");
    for c in &h.clients {
        c.query_leases(&mut h.sim);
    }
    let settle = h.sim.now() + LEASE_SETTLE;
    h.sim.run_until(settle);
    tr.end(s);
    tr.end(setup);
    h
}

/// Drives the KV workloads. Each client has one op in flight, so
/// histories stay per-client sequential. kv-read is a closed loop: a
/// client issues its next op as soon as the previous one completes.
/// kv-fault is an open loop: ops fall due on the generated schedule and
/// queue per client, latency runs from the due time, and the view-0
/// primary crashes at 1/3 of the schedule and cold-restarts at 2/3.
fn run_kv(inputs: &Inputs, tr: &mut Tracer) -> Run {
    let cpu0 = thread_cpu_ns();
    let mut h = build_kv(inputs, tr);
    let setup_s = (thread_cpu_ns() - cpu0) as f64 / 1e9;
    let nc = inputs.kv_ops.len();
    let open = !inputs.due_ns.is_empty();

    let before = snapshot(&h.net, &h.sim);
    let start = h.sim.now().as_nanos();
    let sched_end = start + inputs.schedule_end_ns();
    let mut faults: VecDeque<(u64, bool)> = if inputs.workload == Workload::KvFault {
        let span = sched_end - start;
        VecDeque::from([(start + span / 3, true), (start + 2 * span / 3, false)])
    } else {
        VecDeque::new()
    };

    let phase = tr.begin("phase");
    let cpu0 = thread_cpu_ns();
    // Per client: next op to release, released-but-unissued (op, due)
    // queue, and (due, invoke) of every issued op.
    let mut next = vec![0usize; nc];
    let mut queue: Vec<VecDeque<(usize, u64)>> = vec![VecDeque::new(); nc];
    let mut issued: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nc];
    let mut backlog_peak = 0u64;
    let mut events = 0u64;
    loop {
        let now = h.sim.now().as_nanos();
        while let Some(&(at, crash)) = faults.front() {
            if at > now {
                break;
            }
            faults.pop_front();
            if crash {
                h.replicas[0].set_byzantine(ByzantineMode::Crash);
            } else {
                let s = tr.begin("reptor.restart");
                h.replicas[0].restart(&mut h.sim, Box::new(KvStoreService::new(KV_CAPACITY)));
                tr.end(s);
            }
        }
        for (c, client) in h.clients.iter().enumerate() {
            let ops = inputs.kv_ops[c].len();
            if open {
                while next[c] < ops && start + inputs.due_ns[c][next[c]] <= now {
                    queue[c].push_back((next[c], start + inputs.due_ns[c][next[c]]));
                    next[c] += 1;
                }
            } else if next[c] < ops && queue[c].is_empty() && !client.busy() {
                queue[c].push_back((next[c], now));
                next[c] += 1;
            }
        }
        for (c, client) in h.clients.iter().enumerate() {
            if client.busy() {
                continue;
            }
            let Some((i, due)) = queue[c].pop_front() else {
                continue;
            };
            issued[c].push((due, now));
            let s = tr.begin("kvstore.call");
            match inputs.kv_ops[c][i].clone() {
                KvHistOp::Get { key, .. } => client.get(&mut h.sim, key),
                KvHistOp::Put { key, val } => client.put(&mut h.sim, key, val),
                KvHistOp::Del { key } => client.del(&mut h.sim, key),
            }
            tr.end(s);
        }
        // Ops due but waiting behind their client's op in flight.
        let backlog: usize = queue.iter().map(VecDeque::len).sum();
        backlog_peak = backlog_peak.max(backlog as u64);
        let all_issued = (0..nc).all(|c| next[c] == inputs.kv_ops[c].len() && queue[c].is_empty());
        if all_issued && h.clients.iter().all(|c| !c.busy()) {
            break;
        }
        // Advance to the next instant something can change: an event, a
        // due op, or a scheduled fault — whichever comes first.
        let horizon = (0..nc)
            .filter_map(|c| inputs.due_ns.get(c)?.get(next[c]).map(|d| start + d))
            .chain(faults.front().map(|&(at, _)| at))
            .min();
        let mut stepped = false;
        for _ in 0..256 {
            match h.sim.next_event_time() {
                Some(t) if horizon.is_none_or(|hz| t.as_nanos() <= hz) => {}
                _ => break,
            }
            let s = tr.begin("sim.step");
            h.sim.step();
            tr.end(s);
            stepped = true;
            events += 1;
            // Re-sweep as soon as a client with work goes idle, so a
            // one-sided read's completion is not followed by a jump to
            // the next (stale) timer.
            let ready = h.clients.iter().enumerate().any(|(c, cl)| {
                !cl.busy() && (!queue[c].is_empty() || (!open && next[c] < inputs.kv_ops[c].len()))
            });
            if ready {
                break;
            }
        }
        if !stepped {
            match horizon {
                Some(hz) => {
                    let s = tr.begin("sim.run_until");
                    h.sim.run_until(Nanos::from_nanos(hz));
                    tr.end(s);
                }
                // Idle with work outstanding: the run stopped making
                // progress, and the ops left count as not done.
                None => break,
            }
        }
        if events >= MAX_EVENTS_PER_OP * inputs.total_ops() as u64 {
            break;
        }
    }
    let phase_cpu_s = (thread_cpu_ns() - cpu0) as f64 / 1e9;
    tr.end(phase);
    let after = snapshot(&h.net, &h.sim);

    let checks_span = tr.begin("checks");
    let s = tr.begin("check.history");
    let mut ops = Vec::with_capacity(inputs.total_ops());
    let mut mismatched = 0u64;
    let mut gets_completed = 0u64;
    for (c, client) in h.clients.iter().enumerate() {
        let hist = client.history();
        for (k, (due, invoke)) in issued[c].iter().enumerate() {
            let want = &inputs.kv_ops[c][k];
            let kind = OpKind::of(want);
            let event = hist.get(k);
            let same = event.is_some_and(|e| {
                e.invoke == *invoke
                    && match (&e.op, want) {
                        (KvHistOp::Get { key: a, .. }, KvHistOp::Get { key: b, .. }) => a == b,
                        (a, b) => a == b,
                    }
            });
            if !same {
                mismatched += 1;
            }
            let done = event.filter(|_| same).and_then(|e| e.response);
            if kind == OpKind::Get && done.is_some() {
                gets_completed += 1;
            }
            ops.push(OpRec {
                kind,
                due: *due,
                invoke: *invoke,
                done,
            });
        }
        if hist.len() != issued[c].len() {
            mismatched += 1;
        }
        // Ops never issued (the run stopped making progress) count as
        // attempted and not done.
        for op in &inputs.kv_ops[c][issued[c].len()..] {
            ops.push(OpRec {
                kind: OpKind::of(op),
                due: start,
                invoke: start,
                done: None,
            });
        }
    }
    tr.end(s);
    let completed = ops.iter().filter(|o| o.done.is_some()).count();
    let mut checks = vec![Check {
        name: "histories_match_inputs".into(),
        ok: mismatched == 0,
        detail: format!("{mismatched} client history entries differ from the issued ops"),
    }];
    let s = tr.begin("check.lin");
    let lin0 = thread_cpu_ns();
    let lin = check_linearizable(&h.history());
    let lin_check_s = (thread_cpu_ns() - lin0) as f64 / 1e9;
    tr.end(s);
    checks.push(Check {
        name: "history_linearizable".into(),
        ok: lin.is_ok(),
        detail: match lin {
            Ok(()) => format!("{completed} ops linearizable"),
            Err(e) => e,
        },
    });
    let onesided = prefix_sum(&after, "kv.", "kv_read_onesided")
        - prefix_sum(&before, "kv.", "kv_read_onesided");
    let fallback = prefix_sum(&after, "kv.", "kv_read_fallback")
        - prefix_sum(&before, "kv.", "kv_read_fallback");
    checks.push(Check {
        name: "read_paths_cover_gets".into(),
        ok: onesided + fallback == gets_completed,
        detail: format!(
            "kv_read_onesided {onesided} + kv_read_fallback {fallback} vs {gets_completed} completed Gets"
        ),
    });
    let s = tr.begin("check.agreement");
    checks.push(agreement_check(&h.replicas));
    tr.end(s);
    tr.end(checks_span);

    let max_exec = h
        .replicas
        .iter()
        .map(|r| r.last_executed())
        .max()
        .unwrap_or(0);
    let max_view = h.replicas.iter().map(|r| r.view()).max().unwrap_or(0);
    let (lag, view_lag) = if inputs.workload == Workload::KvFault {
        (
            max_exec - h.replicas[0].last_executed(),
            max_view - h.replicas[0].view(),
        )
    } else {
        (0, 0)
    };
    let retransmissions = h
        .clients
        .iter()
        .map(|c| c.client().stats().retransmissions)
        .sum();
    Run {
        setup_s,
        phase_cpu_s,
        lin_check_s,
        ops,
        phase_start: start,
        before,
        after,
        client_retransmissions: retransmissions,
        backlog_peak,
        recovery_lag_seqs: lag,
        recovery_view_lag: view_lag,
        bad_results: mismatched,
        checks,
    }
}

/// Sums the counters `<prefix><scope>.…<metric>`: keys under the full
/// layer prefix whose last component is exactly `metric`. Unlike a
/// suffix match over the whole registry, this never mixes in a mirrored
/// counter of another layer (`tcp.*.syscalls` vs `host.*.syscalls`).
pub fn prefix_sum(snap: &MetricsSnapshot, prefix: &str, metric: &str) -> u64 {
    snap.counters
        .range(prefix.to_string()..)
        .take_while(|(k, _)| k.starts_with(prefix))
        .filter(|(k, _)| k.rsplit('.').next() == Some(metric))
        .map(|(_, v)| v)
        .sum()
}
