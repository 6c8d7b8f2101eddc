//! Turns a run's op records, registry snapshots and host timings into the
//! named end-to-end and per-layer metrics, and checks that the registry's
//! per-layer counts add up.

use simnet::MetricsSnapshot;

use crate::drive::{prefix_sum, Check, OpKind, Run};
use crate::inputs::Workload;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What the value was computed over, for the human-readable summary.
    pub base: String,
    /// True for host-time measurements taken from traced repetitions.
    pub host: bool,
}

fn m(name: &'static str, value: f64, unit: &'static str, base: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        base: base.into(),
        host: false,
    }
}

/// A per-layer metric timed on the host in a traced repetition.
fn h(name: &'static str, value: f64, base: &'static str) -> Metric {
    Metric {
        host: true,
        ..m(name, value, "s", base)
    }
}

/// Linear-interpolated percentile of sorted `v` (`p` in 0..=100).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

/// Mean of the fastest 90 % of sorted `v`: the body of the latency
/// distribution without the outage and view-change tail (which
/// `lat_p99_us` and `unavail_ms` carry). Unlike the median it does not
/// sit on the cost model's exact one-sided read time whenever most ops
/// take it, so it moves with every seed and every change of the body.
fn mean90(v: &[f64]) -> f64 {
    let body = &v[..(v.len() * 9).div_ceil(10)];
    ratio(body.iter().sum(), body.len() as f64)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Simulated-time facts of one run, shared by both metric sets.
struct OpStats {
    attempted: usize,
    completed: usize,
    /// Due → response, µs, sorted.
    lat_us: Vec<f64>,
    /// Mean of the fastest 90 % of `lat_us`.
    lat_mean90_us: f64,
    /// Gets only, µs, sorted.
    get_us: Vec<f64>,
    /// Mean of the fastest 90 % of `get_us`.
    get_mean90_us: f64,
    writes: usize,
    sim_s: f64,
    unavail_ms: f64,
}

fn op_stats(run: &Run) -> OpStats {
    let done: Vec<_> = run
        .ops
        .iter()
        .filter_map(|o| o.done.map(|d| (o, d)))
        .collect();
    let lat_us = sorted(done.iter().map(|(o, d)| (d - o.due) as f64 / 1e3).collect());
    let get_us = sorted(
        done.iter()
            .filter(|(o, _)| o.kind == OpKind::Get)
            .map(|(o, d)| (d - o.due) as f64 / 1e3)
            .collect(),
    );
    // Sweep the writes' (due, done) intervals in time order: a gap runs
    // from the moment a write is outstanding and the previous write
    // completion (or the first due time of a busy stretch) to the next
    // completion. Completions sort before arrivals at the same instant.
    let mut edges: Vec<(u64, bool)> = done
        .iter()
        .filter(|(o, _)| o.kind.is_write())
        .flat_map(|&(o, d)| [(o.due, true), (d, false)])
        .collect();
    edges.sort_unstable();
    let writes = edges.len() / 2;
    let (mut outstanding, mut mark, mut gap) = (0usize, 0u64, 0u64);
    for (t, arrival) in edges {
        if arrival {
            if outstanding == 0 {
                mark = t;
            }
            outstanding += 1;
        } else {
            gap = gap.max(t - mark);
            mark = t;
            outstanding -= 1;
        }
    }
    let end = done
        .iter()
        .map(|&(_, d)| d)
        .max()
        .unwrap_or(run.phase_start);
    OpStats {
        attempted: run.ops.len(),
        completed: done.len(),
        lat_mean90_us: mean90(&lat_us),
        get_mean90_us: mean90(&get_us),
        lat_us,
        get_us,
        writes,
        sim_s: (end - run.phase_start) as f64 / 1e9,
        unavail_ms: gap as f64 / 1e6,
    }
}

/// Share of attempted ops that completed and passed every check.
pub fn ok_frac(run: &Run) -> f64 {
    let s = op_stats(run);
    ratio(
        s.completed.saturating_sub(run.bad_results as usize) as f64,
        s.attempted as f64,
    )
}

/// Host-side measurements of one repetition.
#[derive(Debug, Clone, Default)]
pub struct HostFacts {
    /// Thread CPU seconds of set-up.
    pub setup_s: f64,
    /// Peak resident set, MB.
    pub peak_rss_mb: f64,
}

/// The end-to-end metrics.
pub fn end_to_end(w: Workload, run: &Run, host: &HostFacts) -> Vec<Metric> {
    let s = op_stats(run);
    let n = s.lat_us.len();
    let (read_mean, read_base) = if w.is_kv() {
        (
            s.get_mean90_us,
            format!("fastest 90 % of {} Gets", s.get_us.len()),
        )
    } else {
        (
            s.lat_mean90_us,
            format!("fastest 90 % of {n} echo ops (no Gets on agree-*)"),
        )
    };
    let clock = if w == Workload::KvFault {
        "due time"
    } else {
        "submit"
    };
    vec![
        m("setup_s", host.setup_s, "s", "thread CPU s to the first op"),
        m(
            "lat_mean90_us",
            s.lat_mean90_us,
            "us",
            format!("fastest 90 % of {n} ops, from {clock} to reply"),
        ),
        m(
            "lat_p99_us",
            percentile(&s.lat_us, 99.0),
            "us",
            format!("{n} ops, {} beyond p99", n / 100),
        ),
        m("read_mean90_us", read_mean, "us", read_base),
        m(
            "tput_ops_s",
            ratio(s.completed as f64, s.sim_s),
            "ops/s",
            format!("{} ops over {:.4} simulated s", s.completed, s.sim_s),
        ),
        m(
            "unavail_ms",
            s.unavail_ms,
            "ms",
            format!(
                "longest stretch with a write outstanding and none completing, {} writes",
                s.writes
            ),
        ),
        m("peak_rss_mb", host.peak_rss_mb, "MB", "VmHWM at exit"),
    ]
}

fn delta(run: &Run, prefix: &str, metric: &str) -> f64 {
    (prefix_sum(&run.after, prefix, metric) - prefix_sum(&run.before, prefix, metric)) as f64
}

fn gauge_delta(run: &Run, key: &str) -> f64 {
    (run.after.gauge(key) - run.before.gauge(key)) as f64
}

/// Sum of the `pool.<name>.<field>` gauges over every pool.
fn pool_gauges(snap: &MetricsSnapshot, field: &str) -> i64 {
    snap.gauges
        .iter()
        .filter(|(k, _)| k.starts_with("pool.") && k.rsplit('.').next() == Some(field))
        .map(|(_, v)| v)
        .sum()
}

/// Median across replicas of one phase histogram's percentile, in µs.
fn phase_us(snap: &MetricsSnapshot, phase: &str, p99: bool) -> f64 {
    let v: Vec<f64> = snap
        .histograms
        .iter()
        .filter(|(k, _)| k.starts_with("reptor.r") && k.ends_with(&format!(".phase.{phase}")))
        .map(|(_, h)| if p99 { h.p99 } else { h.p50 } as f64 / 1e3)
        .collect();
    median(&v)
}

/// Host timings taken from the traced repetitions.
#[derive(Debug, Clone, Default)]
pub struct TraceFacts {
    /// Host seconds inside `Simulator::step`/`run_until`.
    pub step_s: f64,
    /// Host seconds inside `Client::submit`.
    pub submit_s: f64,
    /// Host seconds inside `KvClient::get/put/del`.
    pub call_s: f64,
    /// Host seconds of the measured phase outside every child span.
    pub driver_self_s: f64,
    /// Host seconds of set-up.
    pub setup_s: f64,
    /// Host seconds of the checks.
    pub checks_s: f64,
    /// `Digest::of` + `authenticate` + `verify` ns per KB of payload.
    pub crypto_ns_per_kb: f64,
}

/// The per-layer metrics, each normalised per completed op (or per
/// completed write / Get) with its base reported alongside.
pub fn per_layer(run: &Run, t: &TraceFacts) -> Vec<Metric> {
    let s = op_stats(run);
    let ops = s.completed as f64;
    let writes = s.writes as f64;
    let gets = s.get_us.len() as f64;
    let per_op = format!("per {} completed ops", s.completed);
    let per_write = format!("per {} completed writes", s.writes);
    let per_get = format!("per {} completed Gets", s.get_us.len());
    let d = |p: &str, k: &str| delta(run, p, k);
    let gen_wait = sorted(
        run.ops
            .iter()
            .filter(|o| o.done.is_some())
            .map(|o| (o.invoke - o.due) as f64 / 1e3)
            .collect(),
    );
    let system = sorted(
        run.ops
            .iter()
            .filter_map(|o| o.done.map(|d| (d - o.invoke) as f64 / 1e3))
            .collect(),
    );
    let fill: (f64, f64) = run
        .after
        .histograms
        .iter()
        .filter(|(k, _)| k.starts_with("reptor.r") && k.ends_with(".batch_fill_pct"))
        .fold((0.0, 0.0), |(sum, n), (_, h)| {
            (sum + h.mean as f64 * h.count as f64, n + h.count as f64)
        });
    let msgs = run
        .after
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("reptor.r") && k.ends_with("_sent"))
        .map(|(k, v)| v - run.before.counter(k))
        .sum::<u64>() as f64;
    let sends = d("rdma.", "sends_posted");
    let completions = d("rdma.", "signaled_completions") + d("rdma.", "unsignaled_completions");
    let polls = d("rubin.", "polls");
    let mut out = vec![
        m("base.ops_completed", ops, "count", "ops"),
        m(
            "ops.fail_frac",
            1.0 - ok_frac(run),
            "frac",
            format!("of {} attempted ops", s.attempted),
        ),
        m("base.writes_completed", writes, "count", "writes"),
        m("base.gets_completed", gets, "count", "Gets"),
        m("base.sim_s", s.sim_s, "s", "simulated measured phase"),
        m(
            "simnet.events_per_op",
            ratio(gauge_delta(run, "sim.events_executed"), ops),
            "events/op",
            &per_op,
        ),
        m(
            "simnet.cancelled_frac",
            ratio(
                gauge_delta(run, "sim.events_cancelled"),
                gauge_delta(run, "sim.events_scheduled"),
            ),
            "frac",
            "of events scheduled",
        ),
        m(
            "simnet.pool_miss_frac",
            ratio(
                (pool_gauges(&run.after, "misses") - pool_gauges(&run.before, "misses")) as f64,
                (pool_gauges(&run.after, "takes") - pool_gauges(&run.before, "takes")) as f64,
            ),
            "frac",
            "of pool takes",
        ),
        h("simnet.step_s", t.step_s, "traced host s in step/run_until"),
        m(
            "simnet.queue_high_water",
            run.after.gauge("sim.events_high_water") as f64,
            "events",
            "lifetime",
        ),
        m(
            "simnet.user_copy_bytes_per_op",
            ratio(d("host.", "user_copy_bytes"), ops),
            "B/op",
            &per_op,
        ),
        m(
            "simnet.dma_bytes_per_op",
            ratio(d("host.", "dma_bytes"), ops),
            "B/op",
            &per_op,
        ),
        m(
            "simnet.kernel_copy_bytes_per_op",
            ratio(d("host.", "kernel_copy_bytes"), ops),
            "B/op",
            &per_op,
        ),
        m(
            "simnet.kernel_crossings_per_op",
            ratio(d("host.", "kernel_crossings"), ops),
            "1/op",
            &per_op,
        ),
        m(
            "simnet.interrupts_per_op",
            ratio(d("host.", "interrupts"), ops),
            "1/op",
            &per_op,
        ),
        m(
            "rdma-verbs.sends_per_op",
            ratio(sends, ops),
            "1/op",
            &per_op,
        ),
        m(
            "rdma-verbs.inline_frac",
            ratio(d("rdma.", "inline_sends"), sends),
            "frac",
            "of sends posted",
        ),
        m(
            "rdma-verbs.signaled_frac",
            ratio(d("rdma.", "signaled_completions"), completions),
            "frac",
            "of send completions",
        ),
        m(
            "rdma-verbs.recv_posted_per_completed",
            ratio(d("rdma.", "recvs_posted"), d("rdma.", "recvs_completed")),
            "ratio",
            "recvs posted / completed",
        ),
        m(
            "rdma-verbs.stale_rkey_denied",
            d("rdma.", "stale_rkey_denied"),
            "count",
            "in phase",
        ),
        m("rubin.polls_per_op", ratio(polls, ops), "1/op", &per_op),
        m(
            "rubin.events_per_poll",
            ratio(d("rubin.", "events_dispatched"), polls),
            "ratio",
            "events dispatched / polls",
        ),
        m(
            "rubin.lends_per_op",
            ratio(d("rubin.", "lends"), ops),
            "1/op",
            &per_op,
        ),
        m(
            "rubin.reconnects",
            d("rubin_transport.", "reconnects_completed"),
            "count",
            "in phase",
        ),
        m(
            "simnet-socket.syscalls_per_op",
            ratio(d("tcp.", "syscalls"), ops),
            "1/op",
            &per_op,
        ),
        m(
            "simnet-socket.copies_per_op",
            ratio(d("tcp.", "copies"), ops),
            "1/op",
            &per_op,
        ),
        m(
            "simnet-socket.retransmits_per_op",
            ratio(d("tcp.", "retransmits"), ops),
            "1/op",
            &per_op,
        ),
        Metric {
            host: true,
            ..m(
                "bft-crypto.ns_per_kb",
                t.crypto_ns_per_kb,
                "ns/KB",
                "digest + authenticate + verify on the payload mix",
            )
        },
        m("reptor.msgs_per_op", ratio(msgs, ops), "1/op", &per_op),
        m(
            "reptor.batch_fill_pct",
            ratio(fill.0, fill.1),
            "%",
            format!("{} batches", fill.1),
        ),
    ];
    for (name, phase, p99) in [
        (
            "reptor.request_to_preprepare_p50_us",
            "request_to_preprepare",
            false,
        ),
        (
            "reptor.request_to_preprepare_p99_us",
            "request_to_preprepare",
            true,
        ),
        (
            "reptor.preprepare_to_prepared_p50_us",
            "preprepare_to_prepared",
            false,
        ),
        (
            "reptor.preprepare_to_prepared_p99_us",
            "preprepare_to_prepared",
            true,
        ),
        (
            "reptor.prepared_to_committed_p50_us",
            "prepared_to_committed",
            false,
        ),
        (
            "reptor.prepared_to_committed_p99_us",
            "prepared_to_committed",
            true,
        ),
        (
            "reptor.committed_to_executed_p50_us",
            "committed_to_executed",
            false,
        ),
        (
            "reptor.committed_to_executed_p99_us",
            "committed_to_executed",
            true,
        ),
    ] {
        out.push(m(
            name,
            phase_us(&run.after, phase, p99),
            "us",
            "median across replicas",
        ));
    }
    out.extend([
        m(
            "reptor.view_changes",
            d("reptor.", "view_changes"),
            "count",
            "in phase, all replicas",
        ),
        m(
            "reptor.client_retransmissions",
            run.client_retransmissions as f64,
            "count",
            "all clients",
        ),
        m(
            "reptor.catch_ups",
            d("reptor.", "catch_ups_applied"),
            "count",
            "in phase",
        ),
        m(
            "reptor.state_transfer_bytes",
            d("reptor.", "state_transfer_bytes"),
            "B",
            "in phase",
        ),
        m(
            "reptor.wal_bytes_per_write",
            ratio(d("reptor.", "wal_bytes_appended"), writes),
            "B/write",
            &per_write,
        ),
        m(
            "reptor.disk_writes_per_write",
            ratio(d("disk.", "writes"), writes),
            "1/write",
            &per_write,
        ),
        m(
            "reptor.wal_frames_replayed",
            d("reptor.", "wal_frames_replayed"),
            "count",
            "in phase",
        ),
        m(
            "reptor.recovery_lag_seqs",
            run.recovery_lag_seqs as f64,
            "seqs",
            "restarted replica behind the group at the end",
        ),
        m(
            "reptor.recovery_view_lag",
            run.recovery_view_lag as f64,
            "views",
            "restarted replica behind the group at the end",
        ),
        m(
            "reptor.lease_cell_writes_per_write",
            ratio(
                d("reptor.", "lease_cell_begins") + d("reptor.", "lease_cell_commits"),
                writes,
            ),
            "1/write",
            &per_write,
        ),
        h(
            "reptor.submit_s",
            t.submit_s,
            "traced host s in Client::submit",
        ),
        m(
            "kvstore.onesided_frac",
            ratio(d("kv.", "kv_read_onesided"), gets),
            "frac",
            &per_get,
        ),
        m(
            "kvstore.torn_frac",
            ratio(d("kv.", "kv_read_torn"), gets),
            "frac",
            &per_get,
        ),
        m(
            "kvstore.divergent_frac",
            ratio(d("kv.", "kv_read_divergent"), gets),
            "frac",
            &per_get,
        ),
        m(
            "kvstore.denied",
            d("kv.", "kv_read_denied"),
            "count",
            "in phase",
        ),
        m(
            "kvstore.backlog_peak",
            run.backlog_peak as f64,
            "ops",
            "open-loop queue",
        ),
        h(
            "kvstore.call_s",
            t.call_s,
            "traced host s in KvClient::get/put/del",
        ),
        h(
            "kvstore.lin_check_s",
            run.lin_check_s,
            "thread CPU s in check_linearizable",
        ),
        m(
            "ops.gen_wait_p99_us",
            percentile(&gen_wait, 99.0),
            "us",
            "due to invoke: how late the generator ran",
        ),
        m(
            "ops.system_p50_us",
            percentile(&system, 50.0),
            "us",
            "invoke to response",
        ),
        h("span.setup_s", t.setup_s, "traced set-up"),
        h(
            "span.driver_self_s",
            t.driver_self_s,
            "phase self time outside stack calls",
        ),
        h("span.checks_s", t.checks_s, "traced checks"),
    ]);
    out
}

/// Checks that the registry's per-layer counts add up: lifetime event
/// conservation, buffer-pool conservation, verbs completions, COP lanes
/// against executed batches, and the RDMA data path's zero kernel
/// crossings.
pub fn counter_checks(w: Workload, run: &Run) -> Vec<Check> {
    let a = &run.after;
    let g = |k: &str| a.gauge(k);
    let (sched, exec, canc, pend) = (
        g("sim.events_scheduled"),
        g("sim.events_executed"),
        g("sim.events_cancelled"),
        g("sim.events_pending"),
    );
    let (takes, returns, outstanding, misses, dropped, parked) = (
        pool_gauges(a, "takes"),
        pool_gauges(a, "returns"),
        pool_gauges(a, "outstanding"),
        pool_gauges(a, "misses"),
        pool_gauges(a, "dropped"),
        pool_gauges(a, "parked"),
    );
    let p = |prefix: &str, k: &str| prefix_sum(a, prefix, k);
    let (sig, unsig, sent) = (
        p("rdma.", "signaled_completions"),
        p("rdma.", "unsignaled_completions"),
        p("rdma.", "sends_completed"),
    );
    let (host_sys, tcp_sys) = (p("host.", "syscalls"), p("tcp.", "syscalls"));
    let mut checks = vec![
        Check {
            name: "sim_events_conserved".into(),
            ok: sched == exec + canc + pend,
            detail: format!("scheduled {sched} = executed {exec} + cancelled {canc} + pending {pend}"),
        },
        Check {
            name: "pool_buffers_conserved".into(),
            ok: takes == returns + outstanding && parked == returns - dropped - (takes - misses),
            detail: format!(
                "takes {takes} = returns {returns} + outstanding {outstanding}; parked {parked} = returns - dropped {dropped} - pool hits {}",
                takes - misses
            ),
        },
        Check {
            name: "verbs_completions_add_up".into(),
            ok: sig + unsig == sent && sent <= p("rdma.", "sends_posted"),
            detail: format!("signaled {sig} + unsignaled {unsig} = sends completed {sent}"),
        },
        Check {
            name: "socket_syscalls_within_host".into(),
            ok: tcp_sys <= host_sys && a.total("syscalls") == host_sys + tcp_sys,
            detail: format!(
                "tcp.* {tcp_sys} <= host.* {host_sys}; the suffix total {} counts both",
                a.total("syscalls")
            ),
        },
    ];
    if w != Workload::KvFault {
        // Without restarts a replica executes only batches one of its COP
        // lanes committed or that catch-up applied; lanes may be ahead (a
        // batch committed but not yet executed when the phase ends) or
        // count a sequence number twice (re-committed after a view change).
        let lanes = p("reptor.", "committed");
        let executed = p("reptor.", "batches_executed");
        let catch_ups = p("reptor.", "catch_ups_applied");
        checks.push(Check {
            name: "cop_lanes_cover_executed".into(),
            ok: executed <= lanes + catch_ups,
            detail: format!(
                "batches executed {executed} <= lane commits {lanes} + catch-ups applied {catch_ups}"
            ),
        });
    }
    if w != Workload::AgreeNio {
        let crossings = delta(run, "host.", "kernel_crossings");
        checks.push(Check {
            name: "rdma_path_bypasses_kernel".into(),
            ok: crossings == 0.0,
            detail: format!("{crossings} kernel crossings in the measured phase"),
        });
    }
    checks
}
