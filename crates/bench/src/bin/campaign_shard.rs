//! Cross-process campaign execution from serialized [`CampaignPlan`]s.
//!
//! This binary is the distribution story of the campaign machinery: a
//! coordinator writes a shard manifest of JSON plans, any number of worker
//! processes (possibly on other machines) execute one plan each, and the
//! coordinator merges the resulting reports — bit-identically to running the
//! whole campaign in one process.
//!
//! ```sh
//! campaign_shard plan    <app> <target> <class> <n_tests> <seed> <k> <dir>
//! campaign_shard run     <plan.json> [report.json]
//! campaign_shard merge   <report.json> <report.json>...
//! campaign_shard resume  <manifest-dir>
//! campaign_shard chaos   <app> <target> <class> <n_tests> <seed> <k> <dir> <chaos-seed>
//! campaign_shard stats   <app> <region> [out.jsonl]
//! campaign_shard speedup <app> <region:NAME|iter:N|iter:last> [out.jsonl]
//! campaign_shard overhead <app> [out.jsonl]
//! campaign_shard serve   <addr> [workers] [budget-mb] [port-file]
//! campaign_shard submit  <addr> <plan.json> [k]
//! campaign_shard watch   <addr> <job>
//! campaign_shard stats   <addr>
//! campaign_shard shutdown <addr>
//! campaign_shard serve-bench <app> [out.jsonl]
//! campaign_shard spmd-plan <app> <target|messages> <class> <n_tests> <seed> <ranks> <sweep|rank:N> <k> <dir>
//! campaign_shard spmd-run <plan.json> [report.json]
//! campaign_shard spmd-merge <report.json> <report.json>...
//! campaign_shard serial-vs-parallel <app> <n_tests> <seed> [out.jsonl]
//! ```
//!
//! * `plan` resolves the target's dynamic window in a session and writes
//!   `<dir>/plan.json` (the monolithic campaign) plus `<dir>/plan_shard_<i>.json`
//!   (the `k`-way shard manifest).  Targets: `whole`, `region:<name>`,
//!   `iter:<0-based index>`.  Classes: `internal`, `input`.
//! * `run` executes one plan in a fresh session (a plan that carries its
//!   window derives its sites from a region-scoped trace — no full trace is
//!   recorded) and writes the `CampaignReport` JSON.
//! * `merge` folds shard reports into one and prints the merged JSON.
//! * `resume` scans a manifest directory, re-executes exactly the shards
//!   whose `report_<i>.json` is missing or corrupt (a died worker, a
//!   truncated file), and prints the merged report — bit-identical to the
//!   monolithic campaign regardless of how many resume passes it took.
//! * `stats` records the traced footprint (event/operand counts) of
//!   Figure-5-style site derivation under `TraceScope::Window` vs. a full
//!   reference trace, plus the streaming campaign path's resident-event
//!   footprint, as JSON lines that `bench_report` folds into
//!   `BENCH_fliptracker.json`.
//! * `chaos` is the self-directed fault-injection drill: it writes a shard
//!   manifest, executes every shard under a seeded [`FailPlan`] (restore
//!   failures, verifier panics, mid-write crashes, on-disk corruption,
//!   transient I/O), then resumes the battered manifest and asserts the
//!   merged report is **byte-identical** to an undisturbed run.
//! * `speedup` measures the fork-point checkpoint executor against the
//!   cold-start executor on one campaign target (wall time of
//!   `Session::run_plan` vs `Session::run_plan_cold`, plus one-time capture
//!   cost, per-run restore cost, and snapshot footprint counters), in the
//!   same JSONL shape.  `iter:last` resolves to the final main-loop
//!   iteration — the latest window the registry offers, i.e. the longest
//!   clean prefix the fork path can skip.
//! * `overhead` times the robustness machinery itself: one faulty-run
//!   execution inside vs outside the `catch_unwind` perimeter, and a report
//!   write through the atomic temp-file + checksum protocol vs a plain
//!   `fs::write` — the numbers `bench_report` folds into the
//!   `campaign_*_overhead_ratio` fields to show the hot path is unaffected.
//! * `serve` runs the resident campaign daemon (`ftkr_serve`): plans arrive
//!   over a framed socket protocol, execute as shard jobs on a worker pool
//!   through a shared hot-session cache, and stream per-shard deltas to
//!   watchers.  `[port-file]` receives the bound address — how `ci.sh`
//!   discovers an ephemeral port.
//! * `submit` sends a plan file to a daemon and prints the job id; `watch`
//!   streams the job's deltas to stderr and prints the final merged
//!   `AnalyzedCampaignReport` JSON to stdout — byte-identical to
//!   `run --analyzed` of the same plan.  `stats <addr>` (an address has a
//!   `:`; an application name never does) prints the daemon's counters;
//!   `shutdown` drains it.
//! * `serve-bench` measures the cache's reason to exist: an in-process
//!   daemon serves the same plan twice, and the cold (first, cache-miss)
//!   and warm (hot-session) submit→final latencies land in the JSONL that
//!   `bench_report` folds into `serve_submit_latency_*` /
//!   `serve_cache_hit_speedup_*`.
//! * `spmd-plan` / `spmd-run` / `spmd-merge` are the multi-rank counterparts
//!   of `plan` / `run` / `merge`: each test runs as an `ranks`-way SPMD job
//!   with the fault in exactly one rank's VM (or, for the `messages` target,
//!   in one message payload), and the merged `SpmdCampaignReport` carries
//!   per-rank tallies plus masked/contained/spread divergence counts —
//!   byte-identical to the monolithic run for any shard split.
//! * `serial-vs-parallel` reproduces the Wu-et-al.-style comparison: the
//!   same application and the same computation-fault population executed at
//!   `nranks = 1` and `nranks = 4` (plus the message-payload population at
//!   both rank counts), printed as a table distinguishing contained from
//!   spread corruption, with timing and containment records for
//!   `bench_report` (`campaign_spmd_overhead_ratio_*`,
//!   `spmd_containment_rate_*`).

use std::process::exit;
use std::time::{Duration, Instant};

use fliptracker::{execute_plan, execute_plan_spmd, Session};
use ftkr_serve::{Client, Server, ServerConfig};
use ftkr_bench::shard::{
    resume_manifest, shard_report_path, write_report, write_report_chaos,
};
use ftkr_inject::{
    BatchContext, BatchScan, CampaignPlan, CampaignReport, CampaignTarget, FailPlan, FaultSite,
    IndexRange, RankTarget, SpmdCampaignReport, TargetClass,
};
use ftkr_vm::{Vm, VmConfig};

fn usage() -> ! {
    eprintln!(
        "usage:\n  campaign_shard plan   <app> <whole|region:NAME|iter:N> <internal|input> \
         <n_tests> <seed> <k> <dir>\n  campaign_shard run    <plan.json> [report.json]\n  \
         campaign_shard merge  <report.json> <report.json>...\n  \
         campaign_shard resume <manifest-dir>\n  \
         campaign_shard chaos  <app> <whole|region:NAME|iter:N> <internal|input> \
         <n_tests> <seed> <k> <dir> <chaos-seed>\n  \
         campaign_shard stats  <app> <region> [out.jsonl]\n  \
         campaign_shard speedup <app> <region:NAME|iter:N|iter:last> [out.jsonl]\n  \
         campaign_shard batched-bench <app> [out.jsonl]\n  \
         campaign_shard overhead <app> [out.jsonl]\n  \
         campaign_shard serve  <addr> [workers] [budget-mb] [port-file]\n  \
         campaign_shard submit <addr> <plan.json> [k]\n  \
         campaign_shard watch  <addr> <job>\n  \
         campaign_shard stats  <addr>\n  \
         campaign_shard shutdown <addr>\n  \
         campaign_shard serve-bench <app> [out.jsonl]\n  \
         campaign_shard spmd-plan <app> <whole|region:NAME|iter:N|messages> <internal|input> \
         <n_tests> <seed> <ranks> <sweep|rank:N> <k> <dir>\n  \
         campaign_shard spmd-run <plan.json> [report.json]\n  \
         campaign_shard spmd-merge <report.json> <report.json>...\n  \
         campaign_shard serial-vs-parallel <app> <n_tests> <seed> [out.jsonl]\n  \
         (run also accepts --analyzed for the pattern-enriched report and \
         --batched for the lockstep executor)"
    );
    exit(2);
}

fn parse_target(text: &str) -> CampaignTarget {
    if text == "whole" {
        return CampaignTarget::WholeProgram;
    }
    if text == "messages" {
        return CampaignTarget::Messages;
    }
    if let Some(name) = text.strip_prefix("region:") {
        return CampaignTarget::Region {
            name: name.to_string(),
        };
    }
    if let Some(index) = text.strip_prefix("iter:") {
        if let Ok(index) = index.parse() {
            return CampaignTarget::Iteration { index };
        }
    }
    eprintln!("campaign_shard: unknown target {text:?}");
    usage();
}

fn parse_class(text: &str) -> TargetClass {
    match text.to_ascii_lowercase().as_str() {
        "internal" => TargetClass::Internal,
        "input" => TargetClass::Input,
        other => {
            eprintln!("campaign_shard: unknown class {other:?}");
            usage();
        }
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("campaign_shard: cannot read {path}: {e}");
        exit(1);
    })
}

/// Read a report file, accepting both crash-consistent files (checksum
/// footer, written by `run`/`resume`) and bare JSON documents (stdout
/// captures).  A file that *has* a footer must verify: a torn or rotted
/// report is an error here, not silently parsed.
fn read_report(path: &str) -> String {
    let text = read(path);
    if text.contains(ftkr_bench::shard::CHECKSUM_PREFIX) {
        match ftkr_bench::shard::verify_checksum(&text) {
            Some(payload) => payload.to_string(),
            None => {
                eprintln!("campaign_shard: {path}: checksum footer does not match — torn write?");
                exit(1);
            }
        }
    } else {
        text
    }
}

/// Write a JSON document with a trailing newline (so files written by `run`
/// byte-match documents printed by `merge`).
fn write(path: &str, text: &str) {
    std::fs::write(path, format!("{text}\n")).unwrap_or_else(|e| {
        eprintln!("campaign_shard: cannot write {path}: {e}");
        exit(1);
    });
}

fn cmd_plan(args: &[String]) {
    let [app, target, class, n_tests, seed, k, dir] = args else {
        usage();
    };
    let target = parse_target(target);
    let class = parse_class(class);
    let n_tests: u64 = n_tests.parse().unwrap_or_else(|_| usage());
    let seed: u64 = seed.parse().unwrap_or_else(|_| usage());
    let k: usize = k.parse().unwrap_or_else(|_| usage());

    let session = Session::by_name(app).unwrap_or_else(|| {
        eprintln!("campaign_shard: unknown application {app:?}");
        exit(1);
    });
    let plan = session
        .plan(target, class, n_tests)
        .unwrap_or_else(|e| {
            eprintln!("campaign_shard: {e}");
            exit(1);
        })
        .with_seed(seed);

    std::fs::create_dir_all(dir).unwrap_or_else(|e| {
        eprintln!("campaign_shard: cannot create {dir}: {e}");
        exit(1);
    });
    let mono_path = format!("{dir}/plan.json");
    write(&mono_path, &plan.to_json());
    println!("{mono_path}");
    for (i, shard) in plan.shards(k).iter().enumerate() {
        let path = format!("{dir}/plan_shard_{i}.json");
        write(&path, &shard.to_json());
        println!("{path}");
    }
}

fn cmd_run(args: &[String]) {
    // `--analyzed` switches to the pattern-enriched report — the flavor the
    // campaign server streams, so `watch` output can be diffed against an
    // offline `run --analyzed` of the same plan.  `--batched` forces the
    // batched lockstep executor regardless of the plan's own flag — the CI
    // hook that diffs a batched run against the same plan run serially.
    let mut analyzed = false;
    let mut batched = false;
    let mut args = args;
    while let Some((flag, rest)) = args.split_first() {
        match flag.as_str() {
            "--analyzed" => analyzed = true,
            "--batched" => batched = true,
            _ => break,
        }
        args = rest;
    }
    if analyzed && batched {
        eprintln!("campaign_shard: --analyzed and --batched are mutually exclusive");
        exit(2);
    }
    let (plan_path, out) = match args {
        [plan] => (plan, None),
        [plan, out] => (plan, Some(out)),
        _ => usage(),
    };
    let mut plan = CampaignPlan::from_json(&read(plan_path)).unwrap_or_else(|e| {
        eprintln!("campaign_shard: {plan_path} is not a plan: {e}");
        exit(1);
    });
    if batched {
        plan = plan.with_batched();
    }
    let json = if analyzed {
        Session::by_name(&plan.app)
            .unwrap_or_else(|| {
                eprintln!("campaign_shard: unknown application {:?}", plan.app);
                exit(1);
            })
            .run_plan_analyzed(&plan)
            .unwrap_or_else(|e| {
                eprintln!("campaign_shard: {e}");
                exit(1);
            })
            .to_json()
    } else {
        execute_plan(&plan)
            .unwrap_or_else(|e| {
                eprintln!("campaign_shard: {e}");
                exit(1);
            })
            .to_json()
    };
    match out {
        // File output goes through the crash-consistent protocol (atomic
        // rename + checksum footer); stdout stays bare JSON.
        Some(path) => write_report(std::path::Path::new(path), &json).unwrap_or_else(|e| {
            eprintln!("campaign_shard: cannot write {path}: {e}");
            exit(1);
        }),
        None => println!("{json}"),
    }
}

fn cmd_merge(args: &[String]) {
    if args.is_empty() {
        usage();
    }
    let reports: Vec<(String, CampaignReport)> = args
        .iter()
        .map(|path| {
            let report = CampaignReport::from_json(&read_report(path)).unwrap_or_else(|e| {
                eprintln!("campaign_shard: {path} is not a report: {e}");
                exit(1);
            });
            (path.clone(), report)
        })
        .collect();
    let (first_path, first) = &reports[0];
    for (path, report) in &reports[1..] {
        if !first.same_campaign(report) {
            eprintln!(
                "campaign_shard: {path} (population {}, seed {}) is not a shard of the \
                 same campaign as {first_path} (population {}, seed {})",
                report.population, report.seed, first.population, first.seed
            );
            exit(1);
        }
    }
    let merged = reports
        .into_iter()
        .map(|(_, report)| report)
        .reduce(|a, b| a.merge(&b))
        .expect("at least one report");
    println!("{}", merged.to_json());
}

fn cmd_resume(args: &[String]) {
    let [dir] = args else {
        usage();
    };
    match resume_manifest(std::path::Path::new(dir)) {
        Ok(summary) => {
            eprintln!(
                "campaign_shard: {} shard(s) intact, re-executed {:?}",
                summary.intact.len(),
                summary.executed
            );
            println!("{}", summary.merged.to_json());
        }
        Err(e) => {
            eprintln!("campaign_shard: {e}");
            exit(1);
        }
    }
}

/// The chaos drill: run a sharded campaign with every harness fail point
/// armed, batter the manifest, resume it, and demand byte-identical
/// convergence with an undisturbed run.
fn cmd_chaos(args: &[String]) {
    let [app, target, class, n_tests, seed, k, dir, chaos_seed] = args else {
        usage();
    };
    let target = parse_target(target);
    let class = parse_class(class);
    let n_tests: u64 = n_tests.parse().unwrap_or_else(|_| usage());
    let seed: u64 = seed.parse().unwrap_or_else(|_| usage());
    let k: usize = k.parse().unwrap_or_else(|_| usage());
    let chaos_seed: u64 = chaos_seed.parse().unwrap_or_else(|_| usage());

    let session = Session::by_name(app).unwrap_or_else(|| {
        eprintln!("campaign_shard: unknown application {app:?}");
        exit(1);
    });
    let plan = session
        .plan(target, class, n_tests)
        .unwrap_or_else(|e| {
            eprintln!("campaign_shard: {e}");
            exit(1);
        })
        .with_seed(seed);

    std::fs::create_dir_all(dir).unwrap_or_else(|e| {
        eprintln!("campaign_shard: cannot create {dir}: {e}");
        exit(1);
    });
    let dir_path = std::path::Path::new(dir);
    write(&format!("{dir}/plan.json"), &plan.to_json());
    let shards = plan.shards(k);
    for (i, shard) in shards.iter().enumerate() {
        write(&format!("{dir}/plan_shard_{i}.json"), &shard.to_json());
    }

    // The undisturbed truth the battered manifest must converge to.
    let reference = session.run_plan(&plan).unwrap_or_else(|e| {
        eprintln!("campaign_shard: {e}");
        exit(1);
    });

    // Every fail site armed at ~20 %: restores fail, verifiers panic,
    // writes crash mid-flight, reports rot on disk, I/O flakes.
    let chaos = FailPlan::uniform(chaos_seed, 200);

    // Dozens of injected panics are *expected* here; silence their default
    // backtraces so the drill's progress stays readable.  Anything not
    // carrying the chaos tag is a real bug and still prints in full.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with(FailPlan::PANIC_TAG));
        if !injected {
            default_hook(info);
        }
    }));
    let mut tainted = 0usize;
    let mut dead_writes = 0usize;
    for (i, shard) in shards.iter().enumerate() {
        let report = session.run_plan_chaos(shard, chaos).unwrap_or_else(|e| {
            eprintln!("campaign_shard: {e}");
            exit(1);
        });
        if report.is_tainted() {
            tainted += 1;
        }
        if write_report_chaos(
            &shard_report_path(dir_path, i),
            &report.to_json(),
            chaos,
            i as u64,
        )
        .is_err()
        {
            // The "worker" died mid-write; whatever the crash left (an old
            // report, a stray .tmp, nothing) stays for resume to deal with.
            dead_writes += 1;
        }
    }
    eprintln!(
        "campaign_shard: chaos pass over {} shard(s): {tainted} tainted, \
         {dead_writes} died mid-write",
        shards.len()
    );

    let summary = resume_manifest(dir_path).unwrap_or_else(|e| {
        eprintln!("campaign_shard: resume after chaos failed: {e}");
        exit(1);
    });
    eprintln!(
        "campaign_shard: resume kept {} shard(s), re-executed {:?}",
        summary.intact.len(),
        summary.executed
    );
    if summary.merged.to_json() == reference.to_json() {
        println!(
            "chaos converged: {} tests, report byte-identical to the undisturbed run",
            summary.merged.n_tests
        );
    } else {
        eprintln!(
            "campaign_shard: CHAOS DIVERGED\n-- undisturbed --\n{}\n-- resumed --\n{}",
            reference.to_json(),
            summary.merged.to_json()
        );
        exit(1);
    }
}

fn cmd_stats(args: &[String]) {
    let (app, region, out) = match args {
        [app, region] => (app, region, None),
        [app, region, out] => (app, region, Some(out)),
        _ => usage(),
    };
    let session = Session::by_name(app).unwrap_or_else(|| {
        eprintln!("campaign_shard: unknown application {app:?}");
        exit(1);
    });
    let target = CampaignTarget::Region {
        name: region.clone(),
    };
    let (start, end) = session.target_window(&target).unwrap_or_else(|e| {
        eprintln!("campaign_shard: {e}");
        exit(1);
    });
    // The full reference trace is already materialized by the window
    // resolution above; a shard process would instead record only the
    // region's window.
    let full = session.clean_trace();
    let windowed = Vm::new(VmConfig::tracing_region(start, end))
        .run(&session.app().module)
        .expect("module verifies")
        .trace
        .expect("tracing enabled");

    // The no-materialization campaign path's footprint: a streamed faulty
    // run retains only the interned location table (plus O(1) scratch),
    // while the materialized per-injection analysis holds the full faulty
    // event stream and operand pool.
    let fault = full
        .iter()
        .skip(full.len() / 3)
        .find(|(_, e)| e.write.is_some())
        .map(|(i, _)| ftkr_vm::FaultSpec::in_result(i as u64, 40))
        .expect("trace has value-producing events");
    let faulty = Vm::new(ftkr_vm::VmConfig::tracing_with_fault(fault))
        .run(&session.app().module)
        .expect("module verifies")
        .trace
        .expect("tracing enabled");

    let records = [
        (format!("fig5_trace/full_events/{app}"), full.len() as u64),
        (format!("fig5_trace/full_operands/{app}"), full.num_operands() as u64),
        (format!("fig5_trace/window_events/{app}"), windowed.len() as u64),
        (
            format!("fig5_trace/window_operands/{app}"),
            windowed.num_operands() as u64,
        ),
        (
            format!("campaign_streaming/materialized_trace_events/{app}"),
            faulty.len() as u64,
        ),
        (
            format!("campaign_streaming/materialized_trace_operands/{app}"),
            faulty.num_operands() as u64,
        ),
        (
            format!("campaign_streaming/streaming_resident_locations/{app}"),
            faulty.num_locations() as u64,
        ),
    ];
    // `count`, not `median_ns`: these are footprint counters, and
    // bench_report keeps them out of the timing table.
    let mut lines = String::new();
    for (name, value) in records {
        lines.push_str(&format!("{{\"name\":\"{name}\",\"count\":{value}}}\n"));
    }
    match out {
        Some(path) => {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .unwrap_or_else(|e| {
                    eprintln!("campaign_shard: cannot open {path}: {e}");
                    exit(1);
                });
            f.write_all(lines.as_bytes()).expect("append stats");
        }
        None => print!("{lines}"),
    }
}

/// Median wall time of `f` in nanoseconds over `repeats` timed runs.
fn median_ns(repeats: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..repeats)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn cmd_speedup(args: &[String]) {
    let (app, target_text, out) = match args {
        [app, target] => (app, target, None),
        [app, target, out] => (app, target, Some(out)),
        _ => usage(),
    };
    let session = Session::by_name(app).unwrap_or_else(|| {
        eprintln!("campaign_shard: unknown application {app:?}");
        exit(1);
    });
    // `iter:last` is resolved here (plans carry absolute indices only).
    let (target, label) = if *target_text == "iter:last" {
        let index = session.iterations().len() - 1;
        (CampaignTarget::Iteration { index }, "iter_last".to_string())
    } else {
        let t = parse_target(target_text);
        let label = match &t {
            CampaignTarget::Region { name } => name.clone(),
            CampaignTarget::Iteration { index } => format!("iter_{index}"),
            CampaignTarget::WholeProgram | CampaignTarget::Messages => {
                eprintln!(
                    "campaign_shard: speedup needs a mid-run computation target, \
                     not `whole` or `messages`"
                );
                exit(1);
            }
        };
        (t, label)
    };
    const N_TESTS: u64 = 24;
    const SEED: u64 = 0xBE7C_4A5E;
    let plan = session
        .plan(target, TargetClass::Internal, N_TESTS)
        .unwrap_or_else(|e| {
            eprintln!("campaign_shard: {e}");
            exit(1);
        })
        .with_seed(SEED);

    // Warm every lazy cache both paths share (sites, clean trace, the
    // checkpoint), then verify once more that fork == cold before timing —
    // a speedup number for a divergent executor would be meaningless.
    let cold_report = session.run_plan_cold(&plan).expect("cold plan executes");
    let fork_report = session.run_plan(&plan).expect("forked plan executes");
    assert_eq!(
        fork_report.to_json(),
        cold_report.to_json(),
        "fork-point report diverged from the cold report"
    );

    let repeats = 5;
    let cold_ns = median_ns(repeats, || {
        let _ = session.run_plan_cold(&plan).unwrap();
    });
    let fork_ns = median_ns(repeats, || {
        let _ = session.run_plan(&plan).unwrap();
    });

    // One-time capture cost, per-run restore cost, snapshot footprint.  The
    // restore cost is isolated by resuming with `max_steps` equal to the
    // snapshot's own step: the resumed run hits the step limit before
    // executing a single instruction, so the wall time is restoration alone.
    let module = &session.app().module;
    let probe = Vm::new(VmConfig::default());
    // The executor forks at the earliest sampled site step; recover it from
    // the sites the plan resolves (the same derivation `run_plan` uses).
    let sites = session
        .sites(&plan.target, plan.class)
        .expect("target resolves");
    let fork_at = sites.iter().map(|s| s.at_step).min().unwrap_or(0);
    let mut captured = None;
    let capture_ns = median_ns(repeats, || {
        captured = probe.snapshot_at(module, fork_at).unwrap();
    });
    let snap = captured.expect("fork step is mid-run");
    let restore_ns = median_ns(repeats, || {
        let stopper = Vm::new(VmConfig {
            max_steps: snap.step(),
            ..VmConfig::default()
        });
        let _ = stopper
            .resume_from_decoded(module, session.decoded_module(), &snap)
            .unwrap();
    });

    let records = [
        (format!("campaign_checkpoint/cold/{app}@{label}"), cold_ns, "median_ns"),
        (format!("campaign_checkpoint/fork/{app}@{label}"), fork_ns, "median_ns"),
        (format!("campaign_checkpoint/capture/{app}@{label}"), capture_ns, "median_ns"),
        (format!("campaign_checkpoint/restore/{app}@{label}"), restore_ns, "median_ns"),
        (
            format!("campaign_checkpoint/snapshot_cells/{app}@{label}"),
            snap.memory_cells(),
            "count",
        ),
        (
            format!("campaign_checkpoint/snapshot_locations/{app}@{label}"),
            snap.num_locations() as u64,
            "count",
        ),
        (format!("campaign_checkpoint/fork_step/{app}@{label}"), snap.step(), "count"),
    ];
    let mut lines = String::new();
    for (name, value, key) in records {
        lines.push_str(&format!("{{\"name\":\"{name}\",\"{key}\":{value}}}\n"));
    }
    eprintln!(
        "campaign_shard: {app}@{label}: cold {cold_ns} ns, fork {fork_ns} ns \
         ({:.2}x), capture {capture_ns} ns, restore {restore_ns} ns, fork step {}",
        cold_ns as f64 / fork_ns.max(1) as f64,
        snap.step()
    );
    match out {
        Some(path) => {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .unwrap_or_else(|e| {
                    eprintln!("campaign_shard: cannot open {path}: {e}");
                    exit(1);
                });
            f.write_all(lines.as_bytes()).expect("append speedup records");
        }
        None => print!("{lines}"),
    }
}

/// Time a serial campaign against the batched lockstep executor on the
/// scenario the lockstep sweep exists for — the *masked case*: memory-cell
/// faults striking the application's global state in the dead window between
/// the last main-loop write and verification.  Nearly every such lane masks
/// (the corrupted cell is never read again inside the run), so the serial
/// executor pays a whole execution per test while the batched executor
/// classifies the lane from one sweep of the clean trace plus a memory
/// clone.  The two reports are held bit-identical before any number is
/// recorded.
fn cmd_batched_bench(args: &[String]) {
    let (app, out) = match args {
        [app] => (app, None),
        [app, out] => (app, Some(out)),
        _ => usage(),
    };
    let session = Session::by_name(app).unwrap_or_else(|| {
        eprintln!("campaign_shard: unknown application {app:?}");
        exit(1);
    });
    const N_TESTS: u64 = 48;
    const SEED: u64 = 0xBA7C_4ED0;
    let clean = session.clean_run();
    // The dead-window fault population: every global cell, struck one
    // dynamic step before the run completes.  Whatever the program still
    // reads past that point diverges and peels off; everything else is the
    // masked case the batched executor accelerates.
    let sites: Vec<FaultSite> = (0..clean.memory.globals_len())
        .map(|addr| FaultSite {
            at_step: clean.steps - 1,
            mem_addr: Some(addr),
            class: TargetClass::Input,
        })
        .collect();
    let campaign = session.campaign(SEED);
    let ctx = BatchContext::new(clean);
    let range = IndexRange::full(N_TESTS);

    // Warm the shared caches and hold the two executors bit-identical
    // before any number is recorded.
    let serial_report = campaign.run_range(&sites, range);
    let batched_report = campaign.run_range_batched(&sites, range, &ctx, None);
    assert_eq!(
        batched_report.to_json(),
        serial_report.to_json(),
        "batched report diverged from the serial report"
    );
    let scan = BatchScan::sweep(SEED, &sites, range, &ctx);

    let repeats = 5;
    let serial_ns = median_ns(repeats, || {
        let _ = campaign.run_range(&sites, range);
    });
    let batched_ns = median_ns(repeats, || {
        let _ = campaign.run_range_batched(&sites, range, &ctx, None);
    });

    let mut lines = String::new();
    for (name, value) in [
        (format!("campaign_batched/serial/{app}@masked"), serial_ns),
        (format!("campaign_batched/batched/{app}@masked"), batched_ns),
    ] {
        lines.push_str(&format!("{{\"name\":\"{name}\",\"median_ns\":{value}}}\n"));
    }
    eprintln!(
        "campaign_shard: {app} dead-window campaign ({} masked / {} diverged of {N_TESTS}): \
         serial {serial_ns} ns vs batched {batched_ns} ns ({:.2}x)",
        scan.masked(),
        scan.diverged(),
        serial_ns as f64 / batched_ns.max(1) as f64
    );
    append_records(out, &lines);
}

/// Time the robustness machinery against its unguarded counterparts: the
/// `catch_unwind` perimeter around one faulty-run execution, and the atomic
/// temp-file + checksum report write against a plain `fs::write`.
fn cmd_overhead(args: &[String]) {
    let (app, out) = match args {
        [app] => (app, None),
        [app, out] => (app, Some(out)),
        _ => usage(),
    };
    let session = Session::by_name(app).unwrap_or_else(|| {
        eprintln!("campaign_shard: unknown application {app:?}");
        exit(1);
    });
    let module = &session.app().module;

    let repeats = 7;
    let raw_ns = median_ns(repeats, || {
        let _ = Vm::new(VmConfig::default())
            .run(module)
            .expect("module verifies");
    });
    let caught_ns = median_ns(repeats, || {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Vm::new(VmConfig::default())
                .run(module)
                .expect("module verifies")
        }))
        .expect("clean run does not panic");
    });

    // A representative report payload for the write comparison.
    let plan = session
        .plan(CampaignTarget::WholeProgram, TargetClass::Internal, 8)
        .unwrap_or_else(|e| {
            eprintln!("campaign_shard: {e}");
            exit(1);
        });
    let payload = session
        .run_plan(&plan)
        .unwrap_or_else(|e| {
            eprintln!("campaign_shard: {e}");
            exit(1);
        })
        .to_json();
    let dir = std::env::temp_dir().join("ftkr_overhead");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let plain_path = dir.join("plain.json");
    let atomic_path = dir.join("atomic.json");
    let write_repeats = 41;
    let plain_ns = median_ns(write_repeats, || {
        std::fs::write(&plain_path, payload.as_bytes()).expect("plain write");
    });
    let atomic_ns = median_ns(write_repeats, || {
        write_report(&atomic_path, &payload).expect("atomic write");
    });
    let _ = std::fs::remove_dir_all(&dir);

    let records = [
        (format!("campaign_robustness/vm_run_raw/{app}"), raw_ns),
        (format!("campaign_robustness/vm_run_caught/{app}"), caught_ns),
        (format!("campaign_robustness/report_write_plain/{app}"), plain_ns),
        (format!("campaign_robustness/report_write_atomic/{app}"), atomic_ns),
    ];
    let mut lines = String::new();
    for (name, value) in records {
        lines.push_str(&format!("{{\"name\":\"{name}\",\"median_ns\":{value}}}\n"));
    }
    eprintln!(
        "campaign_shard: {app}: run {raw_ns} ns raw vs {caught_ns} ns caught ({:.3}x), \
         report write {plain_ns} ns plain vs {atomic_ns} ns atomic ({:.2}x)",
        caught_ns as f64 / raw_ns.max(1) as f64,
        atomic_ns as f64 / plain_ns.max(1) as f64
    );
    match out {
        Some(path) => {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .unwrap_or_else(|e| {
                    eprintln!("campaign_shard: cannot open {path}: {e}");
                    exit(1);
                });
            f.write_all(lines.as_bytes()).expect("append overhead records");
        }
        None => print!("{lines}"),
    }
}

/// Exit with the client-side rendering of a serve failure.
fn serve_fail(context: &str, e: ftkr_serve::ServeError) -> ! {
    eprintln!("campaign_shard: {context}: {e}");
    exit(1);
}

fn cmd_serve(args: &[String]) {
    let (addr, rest) = match args.split_first() {
        Some((addr, rest)) if rest.len() <= 3 => (addr, rest),
        _ => usage(),
    };
    let mut config = ServerConfig::default();
    if let Some(workers) = rest.first() {
        config.workers = workers.parse().unwrap_or_else(|_| usage());
    }
    if let Some(budget_mb) = rest.get(1) {
        let mb: u64 = budget_mb.parse().unwrap_or_else(|_| usage());
        config.cache_budget = mb << 20;
    }
    let server = Server::bind(addr, config).unwrap_or_else(|e| {
        eprintln!("campaign_shard: cannot bind {addr}: {e}");
        exit(1);
    });
    let bound = server.local_addr();
    // The port file is how scripts discover an ephemeral (`:0`) port.
    if let Some(port_file) = rest.get(2) {
        std::fs::write(port_file, bound.to_string()).unwrap_or_else(|e| {
            eprintln!("campaign_shard: cannot write {port_file}: {e}");
            exit(1);
        });
    }
    eprintln!("campaign_shard: serving campaigns on {bound}");
    let stats = server.run();
    eprintln!(
        "campaign_shard: drained: {} job(s) over {} shard(s) ({} lost, {} worker panic(s)), \
         cache {} hit(s) / {} miss(es)",
        stats.jobs_completed,
        stats.shards_executed + stats.shards_lost,
        stats.shards_lost,
        stats.worker_panics,
        stats.cache.hits,
        stats.cache.misses
    );
}

fn cmd_submit(args: &[String]) {
    let (addr, plan_path, k) = match args {
        [addr, plan] => (addr, plan, 0),
        [addr, plan, k] => (addr, plan, k.parse().unwrap_or_else(|_| usage())),
        _ => usage(),
    };
    let plan = CampaignPlan::from_json(&read(plan_path)).unwrap_or_else(|e| {
        eprintln!("campaign_shard: {plan_path} is not a plan: {e}");
        exit(1);
    });
    // Default shard count: one job per worker the default config would run.
    let k = if k == 0 { ServerConfig::default().workers as u64 } else { k };
    let mut client =
        Client::connect(addr.as_str()).unwrap_or_else(|e| serve_fail("cannot connect", e));
    let job = client
        .submit(&plan, k, FailPlan::none())
        .unwrap_or_else(|e| serve_fail("submit refused", e));
    println!("{job}");
}

fn cmd_watch(args: &[String]) {
    let [addr, job] = args else {
        usage();
    };
    let job: u64 = job.parse().unwrap_or_else(|_| usage());
    let mut client =
        Client::connect(addr.as_str()).unwrap_or_else(|e| serve_fail("cannot connect", e));
    let report = client
        .watch(job, |shard, done, total, _| {
            eprintln!("campaign_shard: job {job}: shard {shard} done ({done}/{total})");
        })
        .unwrap_or_else(|e| serve_fail("watch failed", e));
    println!("{report}");
}

fn cmd_server_stats(args: &[String]) {
    let [addr] = args else {
        usage();
    };
    let mut client =
        Client::connect(addr.as_str()).unwrap_or_else(|e| serve_fail("cannot connect", e));
    let stats = client.stats().unwrap_or_else(|e| serve_fail("stats refused", e));
    println!(
        "{}",
        serde_json::to_string_pretty(&stats).expect("stats serialize")
    );
}

fn cmd_shutdown(args: &[String]) {
    let [addr] = args else {
        usage();
    };
    let mut client =
        Client::connect(addr.as_str()).unwrap_or_else(|e| serve_fail("cannot connect", e));
    client
        .shutdown()
        .unwrap_or_else(|e| serve_fail("shutdown refused", e));
    eprintln!("campaign_shard: {addr} acknowledged shutdown and is draining");
}

/// Measure the session cache's payoff: submit→final latency of the same
/// plan against a cold daemon and against its now-hot session.
fn cmd_serve_bench(args: &[String]) {
    let (app, out) = match args {
        [app] => (app, None),
        [app, out] => (app, Some(out)),
        _ => usage(),
    };
    let session = Session::by_name(app).unwrap_or_else(|| {
        eprintln!("campaign_shard: unknown application {app:?}");
        exit(1);
    });
    // Few tests on purpose: the cold/warm gap is the *fixed* session
    // warm-up (clean run, sites, checkpoint), and a long injection tail
    // would drown the thing being measured.
    let region = session.app().regions[0].clone();
    let plan = session
        .plan(
            CampaignTarget::Region { name: region },
            TargetClass::Internal,
            4,
        )
        .unwrap_or_else(|e| {
            eprintln!("campaign_shard: {e}");
            exit(1);
        })
        .with_seed(0xC0DE);

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            cache_budget: u64::MAX,
            idle_timeout: Duration::from_secs(30),
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("campaign_shard: cannot bind an ephemeral port: {e}");
        exit(1);
    });
    let bound = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());

    let mut client =
        Client::connect(bound.as_str()).unwrap_or_else(|e| serve_fail("cannot connect", e));
    let round_trip = |client: &mut Client| -> u64 {
        let t0 = Instant::now();
        let job = client
            .submit(&plan, 2, FailPlan::none())
            .unwrap_or_else(|e| serve_fail("submit refused", e));
        let _ = client
            .watch(job, |_, _, _, _| {})
            .unwrap_or_else(|e| serve_fail("watch failed", e));
        t0.elapsed().as_nanos() as u64
    };
    // The cold number is inherently one-shot — the first submission pays
    // the clean run, site derivation, and checkpoint capture exactly once.
    let cold_ns = round_trip(&mut client);
    let mut warm_samples: Vec<u64> = (0..5).map(|_| round_trip(&mut client)).collect();
    warm_samples.sort_unstable();
    let warm_ns = warm_samples[warm_samples.len() / 2];
    client
        .shutdown()
        .unwrap_or_else(|e| serve_fail("shutdown refused", e));
    daemon.join().expect("daemon thread");

    let mut lines = String::new();
    for (name, value) in [
        (format!("campaign_serve/submit_cold/{app}"), cold_ns),
        (format!("campaign_serve/submit_warm/{app}"), warm_ns),
    ] {
        lines.push_str(&format!("{{\"name\":\"{name}\",\"median_ns\":{value}}}\n"));
    }
    eprintln!(
        "campaign_shard: {app}: submit→final {cold_ns} ns cold vs {warm_ns} ns warm \
         ({:.2}x cache-hit speedup)",
        cold_ns as f64 / warm_ns.max(1) as f64
    );
    match out {
        Some(path) => {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .unwrap_or_else(|e| {
                    eprintln!("campaign_shard: cannot open {path}: {e}");
                    exit(1);
                });
            f.write_all(lines.as_bytes()).expect("append serve records");
        }
        None => print!("{lines}"),
    }
}

/// Append JSONL records to `out`, or print them to stdout when no file was
/// given (the shared tail of the bench-record commands).
fn append_records(out: Option<&String>, lines: &str) {
    match out {
        Some(path) => {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .unwrap_or_else(|e| {
                    eprintln!("campaign_shard: cannot open {path}: {e}");
                    exit(1);
                });
            f.write_all(lines.as_bytes()).expect("append records");
        }
        None => print!("{lines}"),
    }
}

fn parse_rank_target(text: &str) -> RankTarget {
    if text == "sweep" {
        return RankTarget::Sweep;
    }
    if let Some(rank) = text.strip_prefix("rank:") {
        if let Ok(rank) = rank.parse() {
            return RankTarget::Rank(rank);
        }
    }
    eprintln!("campaign_shard: unknown rank target {text:?} (sweep or rank:N)");
    usage();
}

fn cmd_spmd_plan(args: &[String]) {
    let [app, target, class, n_tests, seed, ranks, rank_target, k, dir] = args else {
        usage();
    };
    let target = parse_target(target);
    let class = parse_class(class);
    let n_tests: u64 = n_tests.parse().unwrap_or_else(|_| usage());
    let seed: u64 = seed.parse().unwrap_or_else(|_| usage());
    let ranks: u32 = ranks.parse().unwrap_or_else(|_| usage());
    let rank_target = parse_rank_target(rank_target);
    let k: usize = k.parse().unwrap_or_else(|_| usage());

    let session = Session::by_name(app).unwrap_or_else(|| {
        eprintln!("campaign_shard: unknown application {app:?}");
        exit(1);
    });
    let plan = session
        .plan_spmd(target, class, n_tests, ranks, rank_target)
        .unwrap_or_else(|e| {
            eprintln!("campaign_shard: {e}");
            exit(1);
        })
        .with_seed(seed);

    std::fs::create_dir_all(dir).unwrap_or_else(|e| {
        eprintln!("campaign_shard: cannot create {dir}: {e}");
        exit(1);
    });
    let mono_path = format!("{dir}/plan.json");
    write(&mono_path, &plan.to_json());
    println!("{mono_path}");
    for (i, shard) in plan.shards(k).iter().enumerate() {
        let path = format!("{dir}/plan_shard_{i}.json");
        write(&path, &shard.to_json());
        println!("{path}");
    }
}

fn cmd_spmd_run(args: &[String]) {
    let (plan_path, out) = match args {
        [plan] => (plan, None),
        [plan, out] => (plan, Some(out)),
        _ => usage(),
    };
    let plan = CampaignPlan::from_json(&read(plan_path)).unwrap_or_else(|e| {
        eprintln!("campaign_shard: {plan_path} is not a plan: {e}");
        exit(1);
    });
    let json = execute_plan_spmd(&plan)
        .unwrap_or_else(|e| {
            eprintln!("campaign_shard: {e}");
            exit(1);
        })
        .to_json();
    match out {
        Some(path) => write_report(std::path::Path::new(path), &json).unwrap_or_else(|e| {
            eprintln!("campaign_shard: cannot write {path}: {e}");
            exit(1);
        }),
        None => println!("{json}"),
    }
}

fn cmd_spmd_merge(args: &[String]) {
    if args.is_empty() {
        usage();
    }
    let reports: Vec<(String, SpmdCampaignReport)> = args
        .iter()
        .map(|path| {
            let report = SpmdCampaignReport::from_json(&read_report(path)).unwrap_or_else(|e| {
                eprintln!("campaign_shard: {path} is not an SPMD report: {e}");
                exit(1);
            });
            (path.clone(), report)
        })
        .collect();
    let (first_path, first) = &reports[0];
    for (path, report) in &reports[1..] {
        if report.ranks != first.ranks || !first.report.same_campaign(&report.report) {
            eprintln!(
                "campaign_shard: {path} ({} ranks, population {}, seed {}) is not a shard \
                 of the same campaign as {first_path} ({} ranks, population {}, seed {})",
                report.ranks,
                report.report.population,
                report.report.seed,
                first.ranks,
                first.report.population,
                first.report.seed
            );
            exit(1);
        }
    }
    let merged = reports
        .into_iter()
        .map(|(_, report)| report)
        .reduce(|a, b| a.merge(&b))
        .expect("at least one report");
    println!("{}", merged.to_json());
}

fn cmd_serial_vs_parallel(args: &[String]) {
    let (app, n_tests, seed, out) = match args {
        [app, n, seed] => (app, n, seed, None),
        [app, n, seed, out] => (app, n, seed, Some(out)),
        _ => usage(),
    };
    let n_tests: u64 = n_tests.parse().unwrap_or_else(|_| usage());
    let seed: u64 = seed.parse().unwrap_or_else(|_| usage());
    let session = Session::by_name(app).unwrap_or_else(|| {
        eprintln!("campaign_shard: unknown application {app:?}");
        exit(1);
    });

    let plan_for = |target: CampaignTarget, ranks: u32| {
        session
            .plan_spmd(target, TargetClass::Internal, n_tests, ranks, RankTarget::Sweep)
            .unwrap_or_else(|e| {
                eprintln!("campaign_shard: {e}");
                exit(1);
            })
            .with_seed(seed)
    };
    let comp1 = plan_for(CampaignTarget::WholeProgram, 1);
    let comp4 = plan_for(CampaignTarget::WholeProgram, 4);
    let msg1 = plan_for(CampaignTarget::Messages, 1);
    let msg4 = plan_for(CampaignTarget::Messages, 4);

    let run = |plan: &CampaignPlan| {
        session.run_plan_spmd(plan).unwrap_or_else(|e| {
            eprintln!("campaign_shard: {e}");
            exit(1);
        })
    };
    // Reports first: this also warms the clean SPMD states and the site
    // list, so the timed runs below measure campaign execution only.
    let comp1_report = run(&comp1);
    let comp4_report = run(&comp4);
    let msg1_report = run(&msg1);
    let msg4_report = run(&msg4);

    let serial_ns = median_ns(3, || {
        run(&comp1);
    });
    let spmd_ns = median_ns(3, || {
        run(&comp4);
    });

    // The Wu-et-al.-style comparison table: the computation-fault population
    // (`sites × 64`) is identical in both columns — the serial column is the
    // same campaign executed as one-rank jobs — while the message population
    // is each rank count's own clean census.
    println!(
        "serial-vs-parallel {app}: n_tests {n_tests}, seed {seed}, \
         computation population {} (identical across columns)",
        comp1_report.report.population
    );
    println!("  {:<30} {:>10} {:>10}", "", "nranks=1", "nranks=4");
    let row = |label: &str, a: u64, b: u64| {
        println!("  {label:<30} {a:>10} {b:>10}");
    };
    println!("  computation faults (whole program)");
    let (c1, c4) = (&comp1_report, &comp4_report);
    row("    success", c1.report.counts.success, c4.report.counts.success);
    row("    failed", c1.report.counts.failed, c4.report.counts.failed);
    row("    crashed", c1.report.counts.crashed(), c4.report.counts.crashed());
    row("    masked", c1.divergence.masked, c4.divergence.masked);
    row("    contained", c1.divergence.contained, c4.divergence.contained);
    row("    spread", c1.divergence.spread, c4.divergence.spread);
    println!(
        "  message faults (census {} vs {} messages)",
        msg1_report.report.population / 64,
        msg4_report.report.population / 64
    );
    let (m1, m4) = (&msg1_report, &msg4_report);
    row("    success", m1.report.counts.success, m4.report.counts.success);
    row("    failed", m1.report.counts.failed, m4.report.counts.failed);
    row("    masked", m1.divergence.masked, m4.divergence.masked);
    row("    contained", m1.divergence.contained, m4.divergence.contained);
    row("    spread", m1.divergence.spread, m4.divergence.spread);

    let contained4 = c4.divergence.contained + m4.divergence.contained;
    let divergent4 =
        contained4 + c4.divergence.spread + m4.divergence.spread;
    eprintln!(
        "campaign_shard: {app}: serial {serial_ns} ns vs 4-rank {spmd_ns} ns per campaign \
         ({:.2}x overhead); {contained4}/{divergent4} divergent tests contained",
        spmd_ns as f64 / serial_ns.max(1) as f64
    );

    let mut lines = String::new();
    for (name, value) in [
        (format!("campaign_spmd/serial/{app}"), serial_ns),
        (format!("campaign_spmd/spmd4/{app}"), spmd_ns),
    ] {
        lines.push_str(&format!("{{\"name\":\"{name}\",\"median_ns\":{value}}}\n"));
    }
    for (name, value) in [
        (format!("campaign_spmd/contained4/{app}"), contained4),
        (format!("campaign_spmd/divergent4/{app}"), divergent4),
    ] {
        lines.push_str(&format!("{{\"name\":\"{name}\",\"count\":{value}}}\n"));
    }
    append_records(out, &lines);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "plan" => cmd_plan(rest),
            "run" => cmd_run(rest),
            "merge" => cmd_merge(rest),
            "resume" => cmd_resume(rest),
            "chaos" => cmd_chaos(rest),
            // `stats <addr>` asks a daemon; `stats <app> <region>` records
            // footprint counters.  An address always carries a `:`, an
            // application name never does.
            "stats" if rest.first().is_some_and(|a| a.contains(':')) => cmd_server_stats(rest),
            "stats" => cmd_stats(rest),
            "speedup" => cmd_speedup(rest),
            "batched-bench" => cmd_batched_bench(rest),
            "overhead" => cmd_overhead(rest),
            "serve" => cmd_serve(rest),
            "submit" => cmd_submit(rest),
            "watch" => cmd_watch(rest),
            "shutdown" => cmd_shutdown(rest),
            "serve-bench" => cmd_serve_bench(rest),
            "spmd-plan" => cmd_spmd_plan(rest),
            "spmd-run" => cmd_spmd_run(rest),
            "spmd-merge" => cmd_spmd_merge(rest),
            "serial-vs-parallel" => cmd_serial_vs_parallel(rest),
            _ => usage(),
        },
        None => usage(),
    }
}
