//! End-to-end and per-layer benchmark of the FlipTracker campaign executors.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--digests <dir>] [--freeze]
//! ```
//!
//! One process runs one workload as a closed loop: a single caller issues one
//! top-level call at a time, passes over the workload's items until
//! `--seconds` have elapsed.  Set-up (fresh sessions to ready-to-run) is
//! repeated and timed on its own.  Every report is checked outside the timed
//! region: against the frozen digests in `--digests` for the default seed,
//! against the reference executors on a sample of items for any other seed.
//! The last line of standard output is one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

mod adapter;
mod spans;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use adapter::{Bench, Digest, Workload, DEFAULT_SEED, PASS_SEEDS};
use spans::Spans;

/// Set-ups per run; `setup_s` is their median.  A fixed count, not a time
/// budget, so the heap the timed loop starts from (and with it
/// `peak_rss_mb`) does not depend on how fast the host ran the set-ups.
const SETUPS: usize = 9;
/// At least this many calls per run, so the 90th percentile keeps ten
/// samples beyond it.
const MIN_CALLS: usize = 110;
/// At least one pass per fault set, so the throughput median and the
/// memory peak of every run cover the same faults.
const MIN_PASSES: usize = PASS_SEEDS;
/// Items checked against the reference executors for a non-default seed.
const REFERENCE_SAMPLE: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    digests: PathBuf,
    freeze: bool,
}

fn parse_args() -> Result<Args, String> {
    const KEYS: [&str; 5] = ["workload", "seed", "seconds", "trace", "digests"];
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut freeze = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--freeze" {
            freeze = true;
            continue;
        }
        let key = flag
            .strip_prefix("--")
            .filter(|k| KEYS.contains(k))
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |k: &str, default: &str| map.get(k).cloned().unwrap_or_else(|| default.to_string());
    let name = map.get("workload").ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (one of {names:?})")
    })?;
    let seconds: f64 = get("seconds", "10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: get("seed", "0")
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace", "0").as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        digests: PathBuf::from(get("digests", "perfbench/digests")),
        freeze,
    })
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Process CPU time (user + system, all threads) in seconds.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime and stime, in USER_HZ (100 per second on Linux).
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn digest_path(dir: &Path, workload: Workload) -> PathBuf {
    dir.join(format!("{}.txt", workload.name()))
}

/// Frozen `label digest` lines for the default seed, in item order.
fn load_frozen(path: &Path) -> Vec<(String, Digest)> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .filter_map(|l| {
            let (label, hex) = l.split_once(' ')?;
            Some((
                label.to_string(),
                Digest(u64::from_str_radix(hex, 16).ok()?),
            ))
        })
        .collect()
}

extern "C" {
    /// glibc: return free heap memory to the operating system.
    fn malloc_trim(pad: usize) -> i32;
    /// glibc: set an allocator parameter.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX` parameter.
const M_ARENA_MAX: i32 = -8;

/// Serve every thread from one heap arena.  With one arena per thread, the
/// peak resident set size depends on which of the short-lived SPMD rank
/// threads lands on which arena, and moves by about a megabyte between runs
/// of the same inputs; with one arena it repeats to within a few percent.
fn single_heap_arena() {
    // SAFETY: mallopt takes no pointers; it is called before any thread
    // other than the main thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

/// Return freed heap pages to the operating system and forget the process's
/// peak resident set size, so the next `VmHWM` read covers the live data
/// plus whatever ran since, not memory the discarded set-ups freed.
fn reset_peak_rss() {
    // SAFETY: malloc_trim takes no pointers and only releases free heap
    // pages; it is safe to call at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The outcome of the timed loop.  Per-call vectors are indexed by
/// `pass_seed * items + item`.
#[derive(Default)]
struct Loop {
    /// Wall time of every call, in seconds.
    calls: Vec<f64>,
    /// Peak resident set size over the timed passes, in MB.
    peak_rss: f64,
    /// Passes run.
    passes: usize,
    /// Tests per second of each untraced pass.
    pass_rates: Vec<f64>,
    /// Tests per second of each traced pass (traced run only).
    traced_rates: Vec<f64>,
    /// CPU seconds and call wall seconds summed over traced passes.
    cpu: f64,
    traced_wall: f64,
    attempted: u64,
    harness_failures: u64,
    /// Tests per item, for charging a mismatched item's tests as failed.
    tests_by_item: Vec<u64>,
    /// First digest seen per item.
    first: Vec<Option<Digest>>,
    mismatched: Vec<bool>,
}

fn run_loop(bench: &Bench, args: &Args, frozen: Option<&[Digest]>, spans: &Spans) -> Loop {
    let n = bench.len();
    let mut out = Loop {
        tests_by_item: vec![0; n * PASS_SEEDS],
        first: vec![None; n * PASS_SEEDS],
        mismatched: vec![false; n * PASS_SEEDS],
        ..Loop::default()
    };
    let untraced = Spans::new(false);
    reset_peak_rss();
    let start = Instant::now();
    let mut pass = 0usize;
    while pass < MIN_PASSES * (1 + usize::from(args.trace))
        || out.calls.len() < MIN_CALLS
        || start.elapsed().as_secs_f64() < args.seconds
    {
        // The traced run alternates traced and untraced passes, so the
        // tracing overhead is measured inside one process.
        let traced = args.trace && pass % 2 == 1;
        let rec = if traced { spans } else { &untraced };
        // Both passes of a traced/untraced pair draw the same faults.
        let p = if args.trace { pass / 2 } else { pass } % PASS_SEEDS;
        let (mut tests, mut wall) = (0u64, 0.0f64);
        for i in 0..n {
            let k = p * n + i;
            let cpu0 = if traced { cpu_seconds() } else { 0.0 };
            let t0 = Instant::now();
            let reply = rec.with_id(rec.next_id(), || rec.time("call", || bench.call(i, p)));
            let dt = t0.elapsed().as_secs_f64();
            if traced {
                out.cpu += cpu_seconds() - cpu0;
                out.traced_wall += dt;
            }
            let summary = reply.summary();
            drop(reply);
            out.calls.push(dt);
            tests += summary.tests;
            wall += dt;
            out.attempted += summary.tests;
            out.harness_failures += summary.harness_failures;
            out.tests_by_item[k] += summary.tests;
            let first = *out.first[k].get_or_insert(summary.digest);
            let expected = frozen.map_or(first, |f| f[k]);
            if expected != summary.digest {
                out.mismatched[k] = true;
            }
        }
        let rate = tests as f64 / wall;
        if traced {
            out.traced_rates.push(rate);
        } else {
            out.pass_rates.push(rate);
        }
        pass += 1;
    }
    out.passes = pass;
    out.peak_rss = peak_rss_mb();
    out
}

fn main() -> ExitCode {
    single_heap_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let names = adapter::registry_names();

    // Set-up, repeated; the last one is kept for the timed loop.
    let setup_spans = Spans::new(args.trace);
    let mut setups = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let t0 = Instant::now();
        let b = Bench::setup(workload, args.seed, &names, &setup_spans);
        setups.push(t0.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");
    let n = bench.len();

    let path = digest_path(&args.digests, workload);
    if args.freeze {
        if args.seed != DEFAULT_SEED {
            eprintln!("perfbench: --freeze records the default seed only");
            return ExitCode::from(2);
        }
        let mut text = String::new();
        for p in 0..PASS_SEEDS {
            for i in 0..n {
                let d = bench.call(i, p).summary().digest;
                text += &format!("{}#{p} {:016x}\n", bench.label(i), d.0);
            }
        }
        if let Err(e) =
            std::fs::create_dir_all(&args.digests).and_then(|_| std::fs::write(&path, text))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!(
            "perfbench: froze {} digests into {}",
            n * PASS_SEEDS,
            path.display()
        );
        return ExitCode::SUCCESS;
    }
    let frozen: Option<Vec<Digest>> = (args.seed == DEFAULT_SEED).then(|| {
        let lines = load_frozen(&path);
        let key = |k: usize| format!("{}#{}", bench.label(k % n), k / n);
        let labels_match = lines.len() == n * PASS_SEEDS
            && lines.iter().enumerate().all(|(k, (l, _))| *l == key(k));
        if !labels_match {
            eprintln!(
                "perfbench: {} does not list this workload's {} calls",
                path.display(),
                n * PASS_SEEDS
            );
        }
        // A frozen file that does not match the items fails every call.
        (0..n * PASS_SEEDS)
            .map(|k| if labels_match { lines[k].1 } else { Digest(0) })
            .collect()
    });

    let call_spans = Spans::new(args.trace);
    let mut lp = run_loop(&bench, &args, frozen.as_deref(), &call_spans);

    // Non-default seeds: diff a deterministic sample of the calls made
    // against the reference executors.
    if frozen.is_none() {
        let stride = n.div_ceil(REFERENCE_SAMPLE).max(1);
        let seeds_run = lp.passes.min(PASS_SEEDS);
        for i in (0..n).filter(|i| i % stride == (args.seed as usize) % stride) {
            let p = (i / stride + args.seed as usize) % seeds_run;
            let k = p * n + i;
            let reference = bench.reference(i, p).summary().digest;
            if lp.first[k] != Some(reference) {
                eprintln!(
                    "perfbench: {}#{p} differs from its reference executor",
                    bench.label(i)
                );
                lp.mismatched[k] = true;
            }
        }
    }
    let mut mismatched_tests = 0;
    for k in (0..n * PASS_SEEDS).filter(|&k| lp.mismatched[k]) {
        eprintln!(
            "perfbench: report mismatch on {}#{}",
            bench.label(k % n),
            k / n
        );
        mismatched_tests += lp.tests_by_item[k];
    }
    let failed = (lp.harness_failures + mismatched_tests).min(lp.attempted);
    let correct = failed == 0;

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        let ms: Vec<f64> = lp.calls.iter().map(|s| s * 1e3).collect();
        metrics.push(("tests_per_s", quantile(&lp.pass_rates, 0.5), "1/s"));
        metrics.push(("call_ms_p50", quantile(&ms, 0.5), "ms"));
        metrics.push(("call_ms_p90", quantile(&ms, 0.9), "ms"));
        metrics.push(("setup_s", quantile(&setups, 0.5), "s"));
        metrics.push(("peak_rss_mb", lp.peak_rss, "MB"));
    } else {
        let layer_spans = Spans::new(true);
        bench.replay_layers(&layer_spans);
        let out_dir = Path::new(".bench_out");
        for (tag, sp) in [
            ("setup", &setup_spans),
            ("calls", &call_spans),
            ("layers", &layer_spans),
        ] {
            let file = out_dir.join(format!("{}-seed{}-{tag}.jsonl", workload.name(), args.seed));
            if let Err(e) = sp.write_jsonl(&file) {
                eprintln!("perfbench: cannot write {}: {e}", file.display());
            }
        }
        metrics = layer_metrics(&setup_spans, &layer_spans, &lp, workload);
    }

    let failed_ratio = failed as f64 / lp.attempted.max(1) as f64;
    for (name, value, unit) in &metrics {
        eprintln!("{}/{name} {value} {unit}", workload.name());
    }
    eprintln!(
        "{}/failed_ratio {failed_ratio} ratio ({} calls, {} passes, {} tests)",
        workload.name(),
        lp.calls.len(),
        lp.passes,
        lp.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        lp.attempted,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn layer_metrics(
    setup: &Spans,
    layers: &Spans,
    lp: &Loop,
    workload: Workload,
) -> Vec<(&'static str, f64, &'static str)> {
    let l = layers;
    let c = |name| l.counter(name) as f64;
    let tests = c("vm.tests");
    let executed = c("vm.executed_steps");
    let fork = c("vm.fork_steps");
    let jobs = c("mpi.census_jobs");
    let extract = l.total_ns("pipeline.acl_regions") - l.total_ns("pipeline.acl");
    vec![
        (
            "apps.session_open_ms",
            setup.median_ns("apps.session_open") / 1e6,
            "ms",
        ),
        ("apps.verify_us", l.mean_ns("apps.verify") / 1e3, "us"),
        (
            "ir.verify_us",
            l.mean_ns("ir.verify_executable") / 1e3,
            "us",
        ),
        ("ir.decode_ms", l.mean_ns("ir.decode") / 1e6, "ms"),
        (
            "vm.decoded_ns_per_step",
            ratio(l.total_ns("vm.resume_from_decoded"), executed),
            "ns",
        ),
        (
            "vm.legacy_ns_per_step",
            ratio(l.total_ns("vm.run.legacy"), c("vm.legacy_steps")),
            "ns",
        ),
        (
            "vm.visitor_ns_per_step",
            ratio(l.total_ns("vm.visit.noop"), c("vm.visited_steps")),
            "ns",
        ),
        (
            "vm.traced_ns_per_event",
            ratio(l.total_ns("vm.run.traced"), c("vm.traced_events")),
            "ns",
        ),
        ("vm.capture_ms", l.mean_ns("vm.snapshot_at") / 1e6, "ms"),
        ("vm.restore_us", l.mean_ns("vm.restore") / 1e3, "us"),
        ("vm.steps_per_test", ratio(executed, tests), "count"),
        ("vm.fork_skip_ratio", ratio(fork, fork + executed), "ratio"),
        (
            "trace.partition_ms",
            l.mean_ns("trace.partition") / 1e6,
            "ms",
        ),
        ("dddg.inputs_ms", l.mean_ns("dddg.from_slice") / 1e6, "ms"),
        (
            "dddg.extract_us",
            ratio(extract, l.self_ns("pipeline.acl_regions").len() as f64) / 1e3,
            "us",
        ),
        (
            "acl.ns_per_event",
            ratio(l.total_ns("acl.analyze_fused"), c("acl.events")),
            "ns",
        ),
        (
            "patterns.prime_ms",
            l.mean_ns("patterns.primed") / 1e6,
            "ms",
        ),
        (
            "patterns.ns_per_event",
            ratio(
                l.total_ns("vm.visit.detector") - l.total_ns("vm.visit.noop"),
                c("vm.visited_events"),
            ),
            "ns",
        ),
        (
            "patterns.events_per_test",
            ratio(c("vm.visited_events"), tests),
            "count",
        ),
        ("inject.sites_ms", setup.mean_ns("inject.sites") / 1e6, "ms"),
        (
            "inject.cpu_utilization",
            ratio(lp.cpu, lp.traced_wall * workload.workers() as f64),
            "ratio",
        ),
        (
            "inject.masked_lane_ratio",
            ratio(c("inject.masked_lanes"), c("inject.lanes")),
            "ratio",
        ),
        (
            "inject.sweep_us_per_lane",
            ratio(l.total_ns("inject.sweep"), c("inject.lanes")) / 1e3,
            "us",
        ),
        ("mpi.job_us", l.median_ns("mpi.run_spmd") / 1e3, "us"),
        (
            "mpi.messages_per_job",
            ratio(c("mpi.census_messages"), jobs),
            "count",
        ),
        (
            "mpi.bytes_per_job",
            ratio(c("mpi.census_bytes"), jobs),
            "count",
        ),
        (
            "bench.trace_overhead_ratio",
            ratio(
                quantile(&lp.pass_rates, 0.5),
                quantile(&lp.traced_rates, 0.5),
            ),
            "ratio",
        ),
    ]
}
