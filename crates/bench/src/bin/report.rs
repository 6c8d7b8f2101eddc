//! Regenerates the complete evaluation in one run and emits a markdown
//! report (the data behind `EXPERIMENTS.md`).
//!
//! Usage: `cargo run --release -p bench --bin report [msgs] > report.md`

use bench::{ablation, fig3, fig4, replicated};
use reptor::Stack;
use simnet::Series;

fn md_table(title: &str, unit: &str, series: &[Series]) {
    println!("\n### {title} ({unit})\n");
    print!("| payload |");
    for s in series {
        print!(" {} |", s.label);
    }
    println!();
    print!("|---|");
    for _ in series {
        print!("---|");
    }
    println!();
    let payloads: std::collections::BTreeSet<usize> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.payload_bytes))
        .collect();
    for p in payloads {
        let label = if p % 1024 == 0 {
            format!("{} KB", p / 1024)
        } else {
            format!("{p} B")
        };
        print!("| {label} |");
        for s in series {
            match s.value_at(p) {
                Some(v) => print!(" {v:.1} |"),
                None => print!(" – |"),
            }
        }
        println!();
    }
}

fn checks(title: &str, rows: Vec<(String, bool)>) {
    println!("\n**{title} shape checks:**\n");
    for (desc, ok) in rows {
        println!("- [{}] {desc}", if ok { "x" } else { " " });
    }
}

fn main() {
    let msgs = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100usize);

    println!("# RUBIN reproduction — full evaluation report");
    println!("\nDeterministic simulation; {msgs} messages per point.");

    println!("\n## Figure 3 — echo micro-benchmark");
    let (lat3, thr3) = fig3::run(msgs);
    md_table("Figure 3a — latency", "µs", &lat3);
    md_table("Figure 3b — throughput", "rps", &thr3);
    checks("Figure 3", fig3::shape_report(&lat3, &thr3));

    println!("\n## Figure 4 — selector comparison (window 30, batch 10)");
    let (lat4, thr4) = fig4::run(msgs);
    md_table("Figure 4a — latency", "µs", &lat4);
    md_table("Figure 4b — throughput", "rps", &thr4);
    checks("Figure 4", fig4::shape_report(&lat4, &thr4));

    println!("\n## Replicated system (paper §VII future work)");
    let (latr, thrr) = replicated::run(msgs as u64 / 2, 8);
    md_table("BFT request latency", "µs", &latr);
    md_table("BFT throughput", "req/s", &thrr);

    println!("\n### Mixed workloads\n");
    println!("| mix | stack | latency (µs) | req/s |");
    println!("|---|---|---|---|");
    for (mix, stack, r) in replicated::run_mixes(msgs as u64 / 2, 8) {
        println!("| {mix} | {stack} | {:.1} | {:.0} |", r.latency_us, r.rps);
    }

    println!("\n## Ablation of the §IV/§VII optimizations");
    let abl = ablation::run(msgs.min(100));
    md_table("Pipelined channel echo latency", "µs", &abl);

    let sidecar = write_metrics_sidecar(msgs.min(50));
    println!("\n---\nGenerated by `bench --bin report`; see EXPERIMENTS.md for analysis.");
    println!("Machine-readable metrics sidecar: `{sidecar}`.");
}

/// Re-runs one representative workload per stack with cross-layer metrics
/// enabled and writes the combined snapshots as a machine-readable JSON
/// sidecar next to the markdown report. Returns the sidecar path.
fn write_metrics_sidecar(msgs: usize) -> String {
    let (_, tcp) = fig3::tcp_echo_instrumented(4096, msgs);
    let (_, ch) = fig3::channel_echo_instrumented(4096, msgs, rubin::RubinConfig::paper());
    let (_, bft) = replicated::bft_echo_instrumented(Stack::Rubin, 1024, msgs as u64, 8, 0xB4);
    let (_, fast) = replicated::bft_configured_instrumented(
        Stack::Rubin,
        bench::workload::Mix::Fixed(1024),
        msgs as u64,
        8,
        0xB4,
        reptor::ReptorConfig {
            fast_path: true,
            ..reptor::ReptorConfig::small()
        },
    );
    let st = replicated::state_transfer_instrumented(0xB7);
    let pr = replicated::recovery_epoch_drill_instrumented(0xB8);
    let dd = replicated::durable_restart_drill_instrumented(0xB9);
    let json = format!(
        "{{\"tcp_echo\":{},\"rdma_channel_echo\":{},\"bft_rubin\":{},\"bft_rubin_fast_path\":{},\"bft_rubin_state_transfer\":{},\"bft_rubin_proactive_recovery\":{},\"durable_restart_drill\":{},\"durable_restart_drill_baseline\":{}}}",
        tcp.to_json(),
        ch.to_json(),
        bft.to_json(),
        fast.to_json(),
        st.to_json(),
        pr.to_json(),
        dd.durable.to_json(),
        dd.baseline.to_json()
    );
    simnet::metrics::validate_json(&json).expect("sidecar JSON must be valid");
    let path = std::env::var("REPORT_METRICS_PATH")
        .unwrap_or_else(|_| "target/report-metrics.json".to_string());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).expect("sidecar directory");
    }
    std::fs::write(&path, &json).expect("write sidecar");
    eprintln!("wrote metrics sidecar to {path} ({} bytes)", json.len());
    path
}
