//! Merge fresh Criterion-style medians with the recorded seed baseline into
//! `BENCH_fliptracker.json`, so the workspace's perf trajectory is tracked
//! from PR to PR.
//!
//! ```sh
//! bench_report <fresh.jsonl> <baseline.jsonl> <out.json>
//! ```
//!
//! Both inputs are JSON-lines files of
//! `{"name": ..., "median_ns": ..., "samples": ...}` records — the format the
//! vendored criterion shim appends when `CRITERION_JSON` is set (see
//! `ci.sh bench`, which wires the whole flow).

use std::collections::BTreeMap;

use serde::Serialize;

/// Before/after medians of one benchmark.
#[derive(Debug, Clone, Serialize)]
struct BenchEntry {
    /// Benchmark name (`group/function[/param]`).
    name: String,
    /// Seed ("before") median in nanoseconds, when recorded.
    before_ns: Option<u64>,
    /// Fresh ("after") median in nanoseconds.
    after_ns: Option<u64>,
    /// `before_ns / after_ns` — above 1.0 means faster than the seed.
    speedup: Option<f64>,
}

/// The whole report.
#[derive(Debug, Clone, Serialize)]
struct Report {
    /// Per-benchmark before/after medians.
    benchmarks: Vec<BenchEntry>,
    /// Tracing overhead ratio (traced / plain wall time, MG) before/after —
    /// the paper's Figure-4 cost, tracked by the ROADMAP.
    tracing_overhead_ratio_mg_before: Option<f64>,
    tracing_overhead_ratio_mg_after: Option<f64>,
    /// ACL construction speedup vs the seed (the Table-I hot path).
    acl_construction_speedup: Option<f64>,
    /// Figure-5 per-region site derivation: wall-time speedup of the
    /// `TraceScope::Window` shard path over a full reference trace (MG,
    /// region `mg_a`; fresh medians on both sides).
    fig5_window_site_derivation_speedup: Option<f64>,
    /// Figure-5 per-region tracing footprint: recorded events of the full
    /// reference trace over the `TraceScope::Window` trace (MG, `mg_a`) —
    /// how much trace memory the window path avoids.
    fig5_window_traced_events_ratio: Option<f64>,
    /// Figure-5 per-region site derivation for the promoted LU app
    /// (`lu_rhs`): wall-time speedup of the `TraceScope::Window` shard path
    /// over a full reference trace.
    fig5_window_site_derivation_speedup_lu: Option<f64>,
    /// Figure-5 per-region tracing footprint for the promoted LU app:
    /// recorded events of the full reference trace over the
    /// `TraceScope::Window` trace (`lu_rhs`).
    fig5_window_traced_events_ratio_lu: Option<f64>,
    /// Tracing overhead ratio (traced / plain, MG) with loop markers elided
    /// (`TraceOpts::skip_markers`) — the residual-overhead knob.
    tracing_overhead_ratio_mg_skip_markers: Option<f64>,
    /// Fused single-walk pattern analysis vs the *seed's* per-injection
    /// analysis stages (`acl_construction_mg` + `pattern_detection_mg`,
    /// same fault definition) — the trajectory-since-seed view.
    analysis_fused_vs_seed_speedup_mg: Option<f64>,
    /// Per-injection analyzed-campaign wall time: materialized faulty trace
    /// + legacy passes vs the streaming no-materialization path (MG).
    campaign_streaming_injection_speedup_mg: Option<f64>,
    /// Event-footprint win of the streaming campaign path: events the
    /// materialized faulty trace holds per injection vs the interned
    /// locations (the only per-run state) the streamed run retains.
    campaign_streaming_resident_events_ratio_mg: Option<f64>,
    /// Fork-point checkpoint executor vs cold-start executor: campaign wall
    /// time on LU region `lu_blts` (`Session::run_plan_cold` over
    /// `Session::run_plan`, warm checkpoint).
    campaign_checkpoint_speedup_lu: Option<f64>,
    /// Fork-point vs cold campaign wall time on MG region `mg_a`.
    campaign_checkpoint_speedup_mg: Option<f64>,
    /// Fork-point vs cold campaign wall time on LU's *last* main-loop
    /// iteration — the latest window in the registry, so the fork path skips
    /// nearly the whole clean prefix on every test.
    campaign_checkpoint_speedup_lu_last_iteration: Option<f64>,
    /// One-time snapshot capture cost on the LU last-iteration target, in
    /// nanoseconds (amortized over every test of the campaign).
    campaign_checkpoint_capture_ns_lu_last_iteration: Option<u64>,
    /// Per-test restore cost on the LU last-iteration target, in nanoseconds
    /// (a resume stopped at the snapshot's own step — pure restoration).
    campaign_checkpoint_restore_ns_lu_last_iteration: Option<u64>,
    /// Snapshot footprint on the LU last-iteration target: live memory cells
    /// captured in the image.
    campaign_checkpoint_snapshot_cells_lu_last_iteration: Option<u64>,
    /// Batched lockstep executor vs the serial campaign on MG's masked
    /// case (dead-window memory faults): masked lanes are classified from
    /// the clean-trace sweep instead of executing a faulty run each.
    campaign_batched_masked_speedup_mg: Option<f64>,
    /// Batched lockstep executor vs the serial campaign on LU's masked
    /// case.
    campaign_batched_masked_speedup_lu: Option<f64>,
    /// Cost of the per-test panic-isolation perimeter: one faulty-run
    /// execution inside `catch_unwind` over the raw run (IS).  ~1.0 means
    /// the robustness layer is free on the campaign hot path.
    campaign_catch_unwind_overhead_ratio: Option<f64>,
    /// Cost of crash-consistent report persistence: an atomic temp-file +
    /// checksum-footer write over a plain `fs::write` of the same payload
    /// (IS).  Reports are written once per shard, so even a few × is noise
    /// next to the campaign itself.
    campaign_report_checksum_write_overhead_ratio: Option<f64>,
    /// Campaign-server submit→final latency against a cold daemon (LU): the
    /// first submission pays the clean run, site derivation, and checkpoint
    /// capture of a fresh session.
    serve_submit_latency_cold_ns_lu: Option<u64>,
    /// Campaign-server submit→final latency once the daemon's session cache
    /// is hot (LU): the expensive artifacts are shared, so the job is
    /// injection work only.
    serve_submit_latency_warm_ns_lu: Option<u64>,
    /// Cold over warm submit→final latency (LU) — what keeping sessions
    /// resident buys every submission after the first.
    serve_cache_hit_speedup_lu: Option<f64>,
    /// Wall time of a 4-rank SPMD campaign over the same campaign executed
    /// as one-rank jobs (MG, identical computation-fault population): what
    /// the per-test exchange protocol and divergence comparison cost.
    campaign_spmd_overhead_ratio_mg: Option<f64>,
    /// Of the 4-rank MG tests whose corruption became observable
    /// (computation and message populations combined), the fraction that
    /// stayed inside the injected rank instead of crossing a communicator
    /// boundary.
    spmd_containment_rate_mg: Option<f64>,
}

/// Parse one `{"name":...,"median_ns":...}` timing line or one
/// `{"name":...,"count":...}` footprint line of the JSONL input (flat
/// formats under our control — no full JSON parse needed).
fn parse_line(line: &str, key: &str) -> Option<(String, u64)> {
    let name = line.split("\"name\":\"").nth(1)?.split('"').next()?;
    let value = line
        .split(&format!("\"{key}\":"))
        .nth(1)?
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()?;
    Some((name.to_string(), value))
}

/// Timing medians and footprint counters of a JSONL collection file, kept
/// separate so counters never masquerade as nanoseconds in the report.
fn load(path: &str) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("bench_report: warning: cannot read {path}; treating as empty");
        return (BTreeMap::new(), BTreeMap::new());
    };
    // Later lines win, so re-running a bench within one collection session
    // records the freshest value.
    let medians = text
        .lines()
        .filter_map(|l| parse_line(l, "median_ns"))
        .collect();
    let counts = text
        .lines()
        .filter_map(|l| parse_line(l, "count"))
        .collect();
    (medians, counts)
}

fn ratio(num: Option<&u64>, den: Option<&u64>) -> Option<f64> {
    match (num, den) {
        (Some(&n), Some(&d)) if d > 0 => Some(n as f64 / d as f64),
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [fresh_path, baseline_path, out_path] = match args.as_slice() {
        [a, b, c] => [a.clone(), b.clone(), c.clone()],
        _ => {
            eprintln!("usage: bench_report <fresh.jsonl> <baseline.jsonl> <out.json>");
            std::process::exit(2);
        }
    };

    let (fresh, fresh_counts) = load(&fresh_path);
    let (baseline, _) = load(&baseline_path);

    let mut names: Vec<&String> = baseline.keys().chain(fresh.keys()).collect();
    names.sort();
    names.dedup();

    let benchmarks: Vec<BenchEntry> = names
        .into_iter()
        .map(|name| {
            let before_ns = baseline.get(name).copied();
            let after_ns = fresh.get(name).copied();
            BenchEntry {
                name: name.clone(),
                before_ns,
                after_ns,
                speedup: ratio(before_ns.as_ref(), after_ns.as_ref()),
            }
        })
        .collect();

    let report = Report {
        tracing_overhead_ratio_mg_before: ratio(
            baseline.get("tracing_overhead/traced/MG"),
            baseline.get("tracing_overhead/plain/MG"),
        ),
        tracing_overhead_ratio_mg_after: ratio(
            fresh.get("tracing_overhead/traced/MG"),
            fresh.get("tracing_overhead/plain/MG"),
        ),
        acl_construction_speedup: ratio(
            baseline.get("analysis/acl_construction_mg"),
            fresh.get("analysis/acl_construction_mg"),
        ),
        fig5_window_site_derivation_speedup: ratio(
            fresh.get("tracing_overhead/fig5_sites_full/MG"),
            fresh.get("tracing_overhead/fig5_sites_window/MG"),
        ),
        fig5_window_traced_events_ratio: ratio(
            fresh_counts.get("fig5_trace/full_events/MG"),
            fresh_counts.get("fig5_trace/window_events/MG"),
        ),
        fig5_window_site_derivation_speedup_lu: ratio(
            fresh.get("tracing_overhead/fig5_sites_full/LU"),
            fresh.get("tracing_overhead/fig5_sites_window/LU"),
        ),
        fig5_window_traced_events_ratio_lu: ratio(
            fresh_counts.get("fig5_trace/full_events/LU"),
            fresh_counts.get("fig5_trace/window_events/LU"),
        ),
        tracing_overhead_ratio_mg_skip_markers: ratio(
            fresh.get("tracing_overhead/traced_skip_markers/MG"),
            fresh.get("tracing_overhead/plain/MG"),
        ),
        analysis_fused_vs_seed_speedup_mg: match (
            baseline.get("analysis/acl_construction_mg"),
            baseline.get("analysis/pattern_detection_mg"),
            fresh.get("analysis_fused/single_walk_crash_mg"),
        ) {
            (Some(&acl), Some(&det), Some(&fused)) if fused > 0 => {
                Some((acl + det) as f64 / fused as f64)
            }
            _ => None,
        },
        campaign_streaming_injection_speedup_mg: ratio(
            fresh.get("campaign_streaming/injection_materialized_mg"),
            fresh.get("campaign_streaming/injection_streaming_mg"),
        ),
        campaign_streaming_resident_events_ratio_mg: ratio(
            fresh_counts.get("campaign_streaming/materialized_trace_events/MG"),
            fresh_counts.get("campaign_streaming/streaming_resident_locations/MG"),
        ),
        campaign_checkpoint_speedup_lu: ratio(
            fresh.get("campaign_checkpoint/cold/LU@lu_blts"),
            fresh.get("campaign_checkpoint/fork/LU@lu_blts"),
        ),
        campaign_checkpoint_speedup_mg: ratio(
            fresh.get("campaign_checkpoint/cold/MG@mg_a"),
            fresh.get("campaign_checkpoint/fork/MG@mg_a"),
        ),
        campaign_checkpoint_speedup_lu_last_iteration: ratio(
            fresh.get("campaign_checkpoint/cold/LU@iter_last"),
            fresh.get("campaign_checkpoint/fork/LU@iter_last"),
        ),
        campaign_checkpoint_capture_ns_lu_last_iteration: fresh
            .get("campaign_checkpoint/capture/LU@iter_last")
            .copied(),
        campaign_checkpoint_restore_ns_lu_last_iteration: fresh
            .get("campaign_checkpoint/restore/LU@iter_last")
            .copied(),
        campaign_checkpoint_snapshot_cells_lu_last_iteration: fresh_counts
            .get("campaign_checkpoint/snapshot_cells/LU@iter_last")
            .copied(),
        campaign_batched_masked_speedup_mg: ratio(
            fresh.get("campaign_batched/serial/MG@masked"),
            fresh.get("campaign_batched/batched/MG@masked"),
        ),
        campaign_batched_masked_speedup_lu: ratio(
            fresh.get("campaign_batched/serial/LU@masked"),
            fresh.get("campaign_batched/batched/LU@masked"),
        ),
        campaign_catch_unwind_overhead_ratio: ratio(
            fresh.get("campaign_robustness/vm_run_caught/IS"),
            fresh.get("campaign_robustness/vm_run_raw/IS"),
        ),
        campaign_report_checksum_write_overhead_ratio: ratio(
            fresh.get("campaign_robustness/report_write_atomic/IS"),
            fresh.get("campaign_robustness/report_write_plain/IS"),
        ),
        serve_submit_latency_cold_ns_lu: fresh.get("campaign_serve/submit_cold/LU").copied(),
        serve_submit_latency_warm_ns_lu: fresh.get("campaign_serve/submit_warm/LU").copied(),
        serve_cache_hit_speedup_lu: ratio(
            fresh.get("campaign_serve/submit_cold/LU"),
            fresh.get("campaign_serve/submit_warm/LU"),
        ),
        campaign_spmd_overhead_ratio_mg: ratio(
            fresh.get("campaign_spmd/spmd4/MG"),
            fresh.get("campaign_spmd/serial/MG"),
        ),
        spmd_containment_rate_mg: ratio(
            fresh_counts.get("campaign_spmd/contained4/MG"),
            fresh_counts.get("campaign_spmd/divergent4/MG"),
        ),
        benchmarks,
    };

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json).expect("write report");
    println!("bench_report: wrote {out_path}");
    if let (Some(b), Some(a)) = (
        report.tracing_overhead_ratio_mg_before,
        report.tracing_overhead_ratio_mg_after,
    ) {
        println!("bench_report: tracing overhead ratio (MG): {b:.2}x -> {a:.2}x");
    }
    if let Some(s) = report.acl_construction_speedup {
        println!("bench_report: ACL construction speedup vs seed: {s:.2}x");
    }
    if let Some(s) = report.fig5_window_site_derivation_speedup {
        println!("bench_report: fig5 site derivation, window vs full trace: {s:.2}x faster");
    }
    if let Some(s) = report.fig5_window_traced_events_ratio {
        println!("bench_report: fig5 traced events, full vs window: {s:.1}x fewer recorded");
    }
    if let Some(s) = report.tracing_overhead_ratio_mg_skip_markers {
        println!("bench_report: tracing overhead ratio with skip_markers (MG): {s:.2}x");
    }
    if let (Some(s), Some(r)) = (
        report.fig5_window_site_derivation_speedup_lu,
        report.fig5_window_traced_events_ratio_lu,
    ) {
        println!(
            "bench_report: fig5 window path on promoted LU (lu_rhs): {s:.2}x faster site \
             derivation, {r:.1}x fewer recorded events"
        );
    }
    if let Some(s) = report.analysis_fused_vs_seed_speedup_mg {
        println!("bench_report: fused per-injection analysis vs seed stages (MG): {s:.1}x");
    }
    if let Some(s) = report.campaign_streaming_injection_speedup_mg {
        println!("bench_report: analyzed campaign injection, streaming vs materialized: {s:.2}x");
    }
    if let Some(s) = report.campaign_streaming_resident_events_ratio_mg {
        println!(
            "bench_report: streaming campaign resident state: {s:.0}x fewer entries than a \
             materialized faulty trace"
        );
    }
    for (label, speedup) in [
        ("LU lu_blts", report.campaign_checkpoint_speedup_lu),
        ("MG mg_a", report.campaign_checkpoint_speedup_mg),
        (
            "LU last iteration",
            report.campaign_checkpoint_speedup_lu_last_iteration,
        ),
    ] {
        if let Some(s) = speedup {
            println!("bench_report: fork-point campaign vs cold ({label}): {s:.2}x");
        }
    }
    if let (Some(c), Some(r)) = (
        report.campaign_checkpoint_capture_ns_lu_last_iteration,
        report.campaign_checkpoint_restore_ns_lu_last_iteration,
    ) {
        println!(
            "bench_report: checkpoint capture {c} ns once, restore {r} ns per test \
             (LU last iteration)"
        );
    }
    for (label, speedup) in [
        ("MG", report.campaign_batched_masked_speedup_mg),
        ("LU", report.campaign_batched_masked_speedup_lu),
    ] {
        if let Some(s) = speedup {
            println!("bench_report: batched lockstep vs serial, masked case ({label}): {s:.2}x");
        }
    }
    if let Some(r) = report.campaign_catch_unwind_overhead_ratio {
        println!("bench_report: catch_unwind perimeter on a faulty run (IS): {r:.3}x");
    }
    if let Some(r) = report.campaign_report_checksum_write_overhead_ratio {
        println!("bench_report: crash-consistent report write vs plain (IS): {r:.2}x");
    }
    if let Some(r) = report.campaign_spmd_overhead_ratio_mg {
        println!("bench_report: 4-rank SPMD campaign vs serial, same population (MG): {r:.2}x");
    }
    if let Some(r) = report.spmd_containment_rate_mg {
        println!(
            "bench_report: divergent 4-rank MG injections contained in their rank: {:.0}%",
            r * 100.0
        );
    }
}
