//! One benchmark for the replicated stack.
//!
//! ```text
//! stackbench --workload <agree-rubin|agree-nio|kv-read|kv-fault>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run is a number of independent trials of the workload (simulations
//! whose inputs are generated from seeds derived from `--seed`). Each
//! repetition of a trial runs in a fresh single-threaded child process.
//! The trials run in turn, and again from the first, until `--seconds` of
//! host time have passed; every trial runs once and the first one at
//! least twice. Every repetition of a trial must reproduce its first
//! repetition's simulated results exactly (the determinism self-check).
//! Simulated metrics are medians over the trials; host-time metrics are
//! medians over all repetitions. A fresh process per repetition keeps the
//! allocator state and the peak resident set of one repetition
//! independent of the others.
//!
//! With `--trace 1` every second round of trials records spans and the
//! per-layer metrics are printed instead of the end-to-end ones; the
//! spans of the last traced repetition are written to `stackbench/out/`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The exit code is 0 only if every correctness check held.

mod drive;
mod inputs;
mod probe;
mod report;
mod spans;

use std::hint::black_box;
use std::process::Command;
use std::time::{Duration, Instant};

use bft_crypto::{Digest, KeyTable};
use kvstore::KvHistOp;
use reptor::{KvOp, DOMAIN_SECRET};

use crate::drive::{Check, Run};
use crate::inputs::{trial_seed, Fnv, Inputs, Workload, REPLICAS};
use crate::report::{HostFacts, TraceFacts};
use crate::spans::Tracer;

/// Payloads of the crypto probe, and its minimum host time.
const CRYPTO_PAYLOADS: usize = 256;
const CRYPTO_MIN: Duration = Duration::from_millis(100);

const USAGE: &str = "usage: stackbench --workload <agree-rubin|agree-nio|kv-read|kv-fault> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

/// What one process does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Orchestrates the repetitions and prints the result.
    Main,
    /// One repetition of one trial, untraced.
    Run,
    /// One repetition of one trial with spans recorded.
    Traced,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    role: Role,
    trial: usize,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut role = Role::Main;
    let mut trial = 0;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            "--trial" => trial = value.parse().map_err(|_| format!("bad trial {value}"))?,
            "--role" => {
                role = match value.as_str() {
                    "run" => Role::Run,
                    "traced" => Role::Traced,
                    _ => return Err(format!("unknown role {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        role,
        trial,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ok = match args.role {
        Role::Main => orchestrate(&args),
        Role::Run | Role::Traced => repetition(&args, args.role == Role::Traced),
    };
    std::process::exit(if ok { 0 } else { 1 });
}

/// Digest of everything simulated: op timings and the whole registry.
fn fingerprint(run: &Run) -> u64 {
    let mut h = Fnv::new();
    for o in &run.ops {
        h.u64(o.kind as u64);
        h.u64(o.due);
        h.u64(o.invoke);
        h.u64(o.done.map_or(u64::MAX, |d| d));
    }
    h.bytes(run.before.to_json().as_bytes());
    h.bytes(run.after.to_json().as_bytes());
    h.finish()
}

/// Host ns per KB of `Digest::of` + `KeyTable::authenticate` + `verify`
/// over the workload's own payload mix.
fn crypto_ns_per_kb(inputs: &Inputs) -> f64 {
    let payloads: Vec<Vec<u8>> = if inputs.workload.is_kv() {
        inputs
            .kv_ops
            .iter()
            .flatten()
            .take(CRYPTO_PAYLOADS)
            .map(|op| match op.clone() {
                KvHistOp::Get { key, .. } => KvOp::Get(key).encode(),
                KvHistOp::Put { key, val } => KvOp::Put(key, val).encode(),
                KvHistOp::Del { key } => KvOp::Del(key).encode(),
            })
            .collect()
    } else {
        (0..CRYPTO_PAYLOADS.min(inputs.echo_sizes.len()))
            .map(|i| inputs.echo_payload(i))
            .collect()
    };
    let sender = KeyTable::new(REPLICAS as u32, DOMAIN_SECRET.to_vec());
    let receiver = KeyTable::new(0, DOMAIN_SECRET.to_vec());
    let receivers: Vec<u32> = (0..REPLICAS as u32).collect();
    let t0 = Instant::now();
    let mut bytes = 0usize;
    while t0.elapsed() < CRYPTO_MIN {
        for p in &payloads {
            black_box(Digest::of(black_box(p)));
            let auth = sender.authenticate(black_box(p), &receivers);
            assert!(receiver.verify(p, &auth), "authenticator must verify");
            bytes += p.len();
        }
    }
    t0.elapsed().as_nanos() as f64 / (bytes as f64 / 1024.0)
}

/// One repetition of one trial (child process): runs the simulation,
/// checks it, and reports on standard output, one `@` line per fact.
fn repetition(args: &Args, traced: bool) -> bool {
    let inputs = Inputs::generate(args.workload, trial_seed(args.seed, args.trial));
    let mut tr = Tracer::new(traced);
    let run = drive::run(&inputs, &mut tr);
    let completed = run.ops.iter().filter(|o| o.done.is_some()).count();
    let mut checks = run.checks.clone();
    checks.extend(report::counter_checks(args.workload, &run));
    let host = HostFacts {
        setup_s: run.setup_s,
        peak_rss_mb: probe::peak_rss_mb(),
    };
    let facts = if traced {
        TraceFacts {
            step_s: tr.total_s("sim."),
            submit_s: tr.total_s("reptor.submit"),
            call_s: tr.total_s("kvstore.call"),
            driver_self_s: tr.totals("phase").self_ns as f64 / 1e9,
            setup_s: tr.totals("setup").total_ns as f64 / 1e9,
            checks_s: tr.totals("checks").total_ns as f64 / 1e9,
            crypto_ns_per_kb: crypto_ns_per_kb(&inputs),
        }
    } else {
        TraceFacts::default()
    };
    println!("@fp {}", fingerprint(&run));
    println!("@host_ops_s {:?}", completed as f64 / run.phase_cpu_s);
    println!("@attempted {}", run.ops.len());
    println!(
        "@ok {}",
        (report::ok_frac(&run) * run.ops.len() as f64).round()
    );
    for c in &checks {
        println!("@check {} {} {}", u8::from(c.ok), c.name, c.detail);
    }
    for m in report::end_to_end(args.workload, &run, &host) {
        println!("@e2e {} {:?} {} {}", m.name, m.value, m.unit, m.base);
    }
    for m in report::per_layer(&run, &facts) {
        let tag = if m.host { "@hlayer" } else { "@layer" };
        println!("{tag} {} {:?} {} {}", m.name, m.value, m.unit, m.base);
    }
    if traced {
        let path = std::path::PathBuf::from(format!(
            "stackbench/out/spans-{}-{}.json",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = tr.write_json(&path, &run.ops) {
            eprintln!("stackbench: could not write {}: {e}", path.display());
        }
    }
    checks.iter().all(|c| c.ok)
}

/// One reported metric, as parsed from a repetition.
#[derive(Debug, Clone)]
struct Line {
    name: String,
    value: f64,
    unit: String,
    base: String,
    host: bool,
}

/// What one child process reported.
#[derive(Debug, Default)]
struct Report {
    trial: usize,
    traced: bool,
    exited_ok: bool,
    fingerprint: Option<u64>,
    /// Completed ops per thread CPU second of the measured phase.
    host_ops_s: Option<f64>,
    attempted: usize,
    ok_ops: usize,
    checks: Vec<Check>,
    e2e: Vec<Line>,
    layer: Vec<Line>,
}

/// Runs this binary as a child in `role` for `trial` and parses its
/// report. The child's standard error passes through; `output` waits for
/// its exit.
fn child(args: &Args, role: &str, trial: usize) -> Report {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let out = Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
            "--role",
            role,
            "--trial",
            &trial.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output();
    let mut r = Report {
        trial,
        traced: role == "traced",
        ..Report::default()
    };
    let Ok(out) = out else {
        return r;
    };
    r.exited_ok = out.status.success();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let Some((tag, rest)) = line.split_once(' ') else {
            continue;
        };
        let mut f = rest.splitn(4, ' ');
        let mut field = || f.next().unwrap_or("").to_string();
        match tag {
            "@fp" => r.fingerprint = field().parse().ok(),
            "@host_ops_s" => r.host_ops_s = field().parse().ok(),
            "@attempted" => r.attempted = field().parse().unwrap_or(0),
            "@ok" => r.ok_ops = field().parse::<f64>().unwrap_or(0.0) as usize,
            "@check" => {
                let mut f = rest.splitn(3, ' ');
                let ok = f.next() == Some("1");
                let name = f.next().unwrap_or("").to_string();
                let detail = f.next().unwrap_or("").to_string();
                r.checks.push(Check { name, ok, detail });
            }
            "@e2e" | "@layer" | "@hlayer" => {
                let l = Line {
                    name: field(),
                    value: field().parse().unwrap_or(f64::NAN),
                    unit: field(),
                    base: field(),
                    host: tag == "@hlayer",
                };
                if tag == "@e2e" {
                    r.e2e.push(l);
                } else {
                    r.layer.push(l);
                }
            }
            _ => {}
        }
    }
    r
}

/// Median of metric `name` over `reports`, with the sample count.
fn median_over<'a>(
    reports: impl Iterator<Item = &'a Report>,
    layer: bool,
    name: &str,
) -> (f64, usize) {
    let v: Vec<f64> = reports
        .filter_map(|r| {
            let list = if layer { &r.layer } else { &r.e2e };
            list.iter().find(|l| l.name == name).map(|l| l.value)
        })
        .collect();
    (report::median(&v), v.len())
}

/// The main process: spawns the set-up sampler and the repetitions,
/// cross-checks them, and prints the medians.
fn orchestrate(args: &Args) -> bool {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let trials = args.workload.trials();
    let seed0 = trial_seed(args.seed, 0);
    let digest = Inputs::generate(args.workload, seed0).digest();
    let other_seed = trial_seed(args.seed.wrapping_add(1), 0);
    let other = Inputs::generate(args.workload, other_seed).digest();
    let mut checks = vec![Check {
        name: "seed_changes_op_stream".into(),
        ok: digest != other,
        detail: format!(
            "op stream digest {digest:016x} (seed {seed0}) vs {other:016x} (seed {other_seed})"
        ),
    }];

    // Every trial once, then round after round from the first trial until
    // the time is up; the first trial always runs twice. With tracing,
    // every second round is traced, so the first traced repetition is the
    // first trial's second.
    let mut reps: Vec<Report> = Vec::new();
    while reps.len() <= trials || Instant::now() < deadline {
        let (round, trial) = (reps.len() / trials, reps.len() % trials);
        let traced = args.trace && round % 2 == 1;
        reps.push(child(args, if traced { "traced" } else { "run" }, trial));
    }
    let first_round = &reps[..trials];

    let differ = reps
        .iter()
        .filter(|r| r.fingerprint.is_none() || r.fingerprint != first_round[r.trial].fingerprint)
        .count();
    checks.push(Check {
        name: "same_seed_replays_identically".into(),
        ok: differ == 0,
        detail: format!(
            "{differ} of {} repetitions differ from their trial's first ({} trials)",
            reps.len() - trials,
            trials
        ),
    });
    checks.push(Check {
        name: "repetitions_exited_cleanly".into(),
        ok: reps.iter().all(|r| r.exited_ok),
        detail: format!(
            "{} of {} repetitions exited 0",
            reps.iter().filter(|r| r.exited_ok).count(),
            reps.len()
        ),
    });
    // Every repetition ran the same checks; a check fails if it failed in
    // any of them.
    for c in &reps[0].checks {
        let failed_in = reps
            .iter()
            .filter(|r| !r.checks.iter().any(|d| d.name == c.name && d.ok))
            .count();
        checks.push(Check {
            name: c.name.clone(),
            ok: failed_in == 0,
            detail: format!("{} (trial 0; fails in {failed_in} repetitions)", c.detail),
        });
    }
    let correct = checks.iter().all(|c| c.ok) && !reps[0].e2e.is_empty();

    let mut metrics: Vec<Line> = Vec::new();
    if args.trace {
        // Simulated counts are means over the trials, so an event that
        // only some trials see (a view change) still shows; host timings
        // are medians over the traced repetitions.
        for l in &reps[0].layer {
            let value = if l.host {
                median_over(reps.iter().filter(|r| r.traced), true, &l.name).0
            } else {
                let v: Vec<f64> = first_round
                    .iter()
                    .filter_map(|r| r.layer.iter().find(|m| m.name == l.name))
                    .map(|m| m.value)
                    .collect();
                v.iter().sum::<f64>() / v.len() as f64
            };
            metrics.push(Line { value, ..l.clone() });
        }
        // Host throughput is too noisy from run to run for an end-to-end
        // bound, so it is reported here. Trials differ in host cost, so the
        // tracing overhead compares traced and untraced repetitions of the
        // same trials.
        let host_ops = |pick: &dyn Fn(&Report) -> bool| {
            let v: Vec<f64> = reps
                .iter()
                .filter(|r| pick(r))
                .filter_map(|r| r.host_ops_s)
                .collect();
            (report::median(&v), v.len())
        };
        let traced_trials: Vec<usize> = reps.iter().filter(|r| r.traced).map(|r| r.trial).collect();
        let (all, n_all) = host_ops(&|r| !r.traced);
        let (plain, n_plain) = host_ops(&|r| !r.traced && traced_trials.contains(&r.trial));
        let (traced, n_traced) = host_ops(&|r| r.traced);
        for (name, value, unit, base) in [
            (
                "host_ops_s",
                all,
                "ops/s",
                format!("completed ops per thread CPU s, median of {n_all} untraced repetitions"),
            ),
            (
                "trace.host_ops_s_untraced",
                plain,
                "ops/s",
                format!("median of {n_plain} untraced repetitions"),
            ),
            (
                "trace.host_ops_s_traced",
                traced,
                "ops/s",
                format!("median of {n_traced} traced repetitions"),
            ),
            (
                "trace.overhead_frac",
                1.0 - traced / plain,
                "frac",
                "host_ops_s lost to tracing".to_string(),
            ),
        ] {
            metrics.push(Line {
                name: name.into(),
                value,
                unit: unit.into(),
                base,
                host: true,
            });
        }
    } else {
        for l in &reps[0].e2e {
            let (value, base) = match l.name.as_str() {
                "setup_s" | "peak_rss_mb" => {
                    let (v, n) = median_over(reps.iter(), false, &l.name);
                    (v, format!("median of {n} repetitions"))
                }
                _ if trials > 1 => {
                    let (v, n) = median_over(first_round.iter(), false, &l.name);
                    (v, format!("median of {n} trials; trial 0: {}", l.base))
                }
                _ => (l.value, l.base.clone()),
            };
            metrics.push(Line {
                value,
                base,
                ..l.clone()
            });
        }
    }

    let attempted: usize = first_round
        .iter()
        .map(|r| r.attempted)
        .sum::<usize>()
        .max(1);
    let ok_ops: usize = first_round.iter().map(|r| r.ok_ops).sum();
    let failed = if correct {
        attempted.saturating_sub(ok_ops)
    } else {
        attempted
    };
    println!(
        "stackbench workload={} seed={} seconds={} trace={} trials={trials} repetitions={} host_s={:.2}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        reps.len(),
        start.elapsed().as_secs_f64()
    );
    for c in &checks {
        let verdict = if c.ok { "ok  " } else { "FAIL" };
        println!("  check {:<32} {verdict}  {}", c.name, c.detail);
    }
    for m in &metrics {
        println!(
            "  {:<40} {:>16.4} {:<9} {}",
            m.name, m.value, m.unit, m.base
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    correct
}
