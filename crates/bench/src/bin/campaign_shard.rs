//! Cross-process campaign execution from serialized [`CampaignPlan`]s.
//!
//! This binary is the distribution story of the campaign machinery: a
//! coordinator writes a shard manifest of JSON plans, any number of worker
//! processes (possibly on other machines) execute one plan each, and the
//! coordinator merges the resulting reports — bit-identically to running the
//! whole campaign in one process.
//!
//! ```sh
//! campaign_shard plan    <app> <target> <class> <n_tests> <seed> [<ranks> <sweep|rank:N>] <k> <dir>
//! campaign_shard run     [--analyzed] <plan.json> [report.json]
//! campaign_shard merge   <report.json> <report.json>...
//! campaign_shard resume  <manifest-dir>
//! campaign_shard chaos   <app> <target> <class> <n_tests> <seed> <k> <dir> <chaos-seed>
//! campaign_shard serve   <addr> [workers] [budget-mb] [port-file]
//! campaign_shard submit  <addr> <plan.json> [k]
//! campaign_shard watch   <addr> <job>
//! campaign_shard stats   <addr>
//! campaign_shard shutdown <addr>
//! ```
//!
//! * `plan` checks that the target resolves in a session and writes
//!   `<dir>/plan.json` (the monolithic campaign) plus `<dir>/plan_shard_<i>.json`
//!   (the `k`-way shard manifest).  Targets: `whole`, `region:<name>`,
//!   `iter:<0-based index>`, and `messages` (SPMD plans only).  Classes:
//!   `internal`, `input`.  With `<ranks> <sweep|rank:N>` the plan is an SPMD
//!   plan: each test runs as a `ranks`-way job with the fault in exactly one
//!   rank's VM (swept across ranks, or pinned to rank `N`) or, for the
//!   `messages` target, in one message payload.
//! * `run` executes one plan in a fresh session (which records the clean
//!   trace and derives the plan's sites from it) and writes its report: a
//!   `CampaignReport`, or for a plan that [`CampaignPlan::is_spmd`] an
//!   `SpmdCampaignReport` with per-rank tallies and masked / contained /
//!   spread divergence counts.  A computation plan with `ranks: 1` is not
//!   SPMD and gets a plain report (`Session::run_plan_spmd` still gives its
//!   one-rank SPMD report).  `--analyzed` writes the pattern-enriched
//!   `AnalyzedCampaignReport` of a single-VM plan and refuses SPMD plans.
//! * `merge` folds shard reports into one and prints the merged JSON.  The
//!   first file decides the kind (an SPMD report has `ranks`, a plain one
//!   `counts`); every other file must be a shard of the same kind and
//!   campaign.
//! * `resume` scans a manifest directory, re-executes exactly the shards
//!   whose `report_<i>.json` is missing or corrupt (a died worker, a
//!   truncated file), and prints the merged report — bit-identical to the
//!   monolithic campaign regardless of how many resume passes it took.
//!   Single-VM manifests only.
//! * `chaos` is the self-directed fault-injection drill: it writes a shard
//!   manifest, executes every shard under a seeded [`FailPlan`] (restore
//!   failures, verifier panics, mid-write crashes, on-disk corruption,
//!   transient I/O), then resumes the battered manifest and asserts the
//!   merged report is **byte-identical** to an undisturbed run.
//! * `serve` runs the resident campaign daemon (`ftkr_serve`): plans arrive
//!   over a framed socket protocol, execute as shard jobs on a worker pool
//!   through a shared hot-session cache, and stream per-shard deltas to
//!   watchers.  `[port-file]` receives the bound address — how `ci.sh`
//!   discovers an ephemeral port.
//! * `submit` sends a plan file to a daemon and prints the job id; `watch`
//!   streams the job's deltas to stderr and prints the final merged
//!   `AnalyzedCampaignReport` JSON to stdout — byte-identical to
//!   `run --analyzed` of the same plan.  `stats <addr>` prints the daemon's
//!   counters; `shutdown` drains it.

use std::fmt::Display;
use std::process::exit;

use fliptracker::integrity::{verify_checksum, write_report, write_report_chaos, CHECKSUM_PREFIX};
use fliptracker::{execute_plan, execute_plan_spmd, PlanError, Session};
use ftkr_bench::shard::{resume_manifest, shard_report_path};
use ftkr_inject::{
    CampaignPlan, CampaignReport, CampaignTarget, FailPlan, RankTarget, SpmdCampaignReport,
    TargetClass,
};
use ftkr_serve::{Client, Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage:\n  campaign_shard plan   <app> <whole|region:NAME|iter:N|messages> \
         <internal|input> <n_tests> <seed> [<ranks> <sweep|rank:N>] <k> <dir>\n  \
         campaign_shard run    [--analyzed] <plan.json> [report.json]\n  \
         campaign_shard merge  <report.json> <report.json>...\n  \
         campaign_shard resume <manifest-dir>\n  \
         campaign_shard chaos  <app> <whole|region:NAME|iter:N> <internal|input> \
         <n_tests> <seed> <k> <dir> <chaos-seed>\n  \
         campaign_shard serve  <addr> [workers] [budget-mb] [port-file]\n  \
         campaign_shard submit <addr> <plan.json> [k]\n  \
         campaign_shard watch  <addr> <job>\n  \
         campaign_shard stats  <addr>\n  \
         campaign_shard shutdown <addr>\n  \
         (plan with <ranks> <sweep|rank:N> writes an SPMD plan, which run executes as \
         multi-rank jobs; --analyzed prints the pattern-enriched report of a single-VM plan)"
    );
    exit(2);
}

/// Exit with `campaign_shard: <message>` on stderr.
fn die(message: impl Display) -> ! {
    eprintln!("campaign_shard: {message}");
    exit(1);
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

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(format_args!("cannot read {path}: {e}")))
}

/// Read a report file, accepting both crash-consistent files (checksum
/// footer, written by `run`/`resume`) and bare JSON documents (stdout
/// captures).  A file that *has* a footer must verify: a torn or rotted
/// report is an error here, not silently parsed.
fn read_report(path: &str) -> String {
    let text = read(path);
    if !text.contains(CHECKSUM_PREFIX) {
        return text;
    }
    match verify_checksum(&text) {
        Some(payload) => payload.to_string(),
        None => die(format_args!(
            "{path}: checksum footer does not match — torn write?"
        )),
    }
}

/// Write a JSON document with a trailing newline (so files written by `run`
/// byte-match documents printed by `merge`).
fn write(path: &str, text: &str) {
    std::fs::write(path, format!("{text}\n"))
        .unwrap_or_else(|e| die(format_args!("cannot write {path}: {e}")));
}

/// Plan a campaign from `plan`'s arguments in a fresh session — an SPMD plan
/// ([`Session::plan_spmd`]) when they carry `<ranks> <sweep|rank:N>` — and
/// write `<dir>/plan.json` plus the `k`-way shard manifest.  Returns the
/// session, the plan, its shards and the paths written.
fn write_manifest(args: &[String]) -> (Session, CampaignPlan, Vec<CampaignPlan>, Vec<String>) {
    let [app, target, class, n_tests, seed, rest @ ..] = args else {
        usage();
    };
    let (spmd, k, dir) = match rest {
        [k, dir] => (None, k, dir),
        [ranks, rank_target, k, dir] => (Some((ranks, rank_target)), k, dir),
        _ => usage(),
    };
    let target = parse_target(target);
    let class = parse_class(class);
    let n_tests: u64 = n_tests.parse().unwrap_or_else(|_| usage());
    let seed: u64 = seed.parse().unwrap_or_else(|_| usage());
    let spmd = spmd.map(|(ranks, rank_target)| {
        let ranks: u32 = ranks.parse().unwrap_or_else(|_| usage());
        (ranks, parse_rank_target(rank_target))
    });
    let k: usize = k.parse().unwrap_or_else(|_| usage());

    let session =
        Session::by_name(app).unwrap_or_else(|| die(format_args!("unknown application {app:?}")));
    let plan = match spmd {
        None => session.plan(target, class, n_tests),
        Some((ranks, rank_target)) => session.plan_spmd(target, class, n_tests, ranks, rank_target),
    }
    .unwrap_or_else(|e| die(e))
    .with_seed(seed);

    std::fs::create_dir_all(dir).unwrap_or_else(|e| die(format_args!("cannot create {dir}: {e}")));
    let mut paths = vec![format!("{dir}/plan.json")];
    write(&paths[0], &plan.to_json());
    let shards = plan.shards(k);
    for (i, shard) in shards.iter().enumerate() {
        let path = format!("{dir}/plan_shard_{i}.json");
        write(&path, &shard.to_json());
        paths.push(path);
    }
    (session, plan, shards, paths)
}

fn cmd_plan(args: &[String]) {
    for path in write_manifest(args).3 {
        println!("{path}");
    }
}

fn cmd_run(args: &[String]) {
    // `--analyzed` switches to the pattern-enriched report — the flavor the
    // campaign server streams, so `watch` output can be diffed against an
    // offline `run --analyzed` of the same plan.
    let (analyzed, args) = match args.split_first() {
        Some((flag, rest)) if flag == "--analyzed" => (true, rest),
        _ => (false, args),
    };
    let (plan_path, out) = match args {
        [plan] => (plan, None),
        [plan, out] => (plan, Some(out)),
        _ => usage(),
    };
    let plan = CampaignPlan::from_json(&read(plan_path))
        .unwrap_or_else(|e| die(format_args!("{plan_path} is not a plan: {e}")));
    // The plan says which executor it needs.  The analyzed executor is
    // single-VM only and refuses an SPMD plan with `PlanError::SpmdPlan`.
    let json = if analyzed {
        Session::by_name(&plan.app)
            .ok_or_else(|| PlanError::UnknownApp(plan.app.clone()))
            .and_then(|session| session.run_plan_analyzed(&plan))
            .map(|report| report.to_json())
    } else if plan.is_spmd() {
        execute_plan_spmd(&plan).map(|report| report.to_json())
    } else {
        execute_plan(&plan).map(|report| report.to_json())
    }
    .unwrap_or_else(|e| die(e));
    match out {
        // File output goes through the crash-consistent protocol (atomic
        // rename + checksum footer); stdout stays bare JSON.
        Some(path) => write_report(std::path::Path::new(path), &json)
            .unwrap_or_else(|e| die(format_args!("cannot write {path}: {e}"))),
        None => println!("{json}"),
    }
}

/// A report `merge` reads.  The two kinds parse unambiguously: an SPMD
/// report has `ranks`, a plain report has `counts`.
enum Report {
    Plain(CampaignReport),
    Spmd(SpmdCampaignReport),
}

impl Report {
    fn read(path: &str) -> Report {
        let text = read_report(path);
        match SpmdCampaignReport::from_json(&text) {
            Ok(report) => Report::Spmd(report),
            Err(_) => CampaignReport::from_json(&text)
                .map(Report::Plain)
                .unwrap_or_else(|e| die(format_args!("{path} is not a report: {e}"))),
        }
    }

    /// The kind and what shards of one campaign share, for the mismatch
    /// message.
    fn campaign(&self) -> String {
        match self {
            Report::Plain(r) => format!("plain, population {}, seed {}", r.population, r.seed),
            Report::Spmd(r) => format!(
                "SPMD, {} ranks, population {}, seed {}",
                r.ranks, r.report.population, r.report.seed
            ),
        }
    }
}

fn cmd_merge(args: &[String]) {
    let Some((first_path, rest)) = args.split_first() else {
        usage();
    };
    // The first file decides the kind; every other file must be a shard of
    // the same kind and campaign.
    let merged = rest.iter().fold(Report::read(first_path), |merged, path| {
        match (merged, Report::read(path)) {
            (Report::Plain(a), Report::Plain(b)) if a.same_campaign(&b) => {
                Report::Plain(a.merge(&b))
            }
            (Report::Spmd(a), Report::Spmd(b))
                if a.ranks == b.ranks && a.report.same_campaign(&b.report) =>
            {
                Report::Spmd(a.merge(&b))
            }
            (merged, report) => die(format_args!(
                "{path} ({}) is not a shard of the same campaign as {first_path} ({})",
                report.campaign(),
                merged.campaign()
            )),
        }
    });
    match merged {
        Report::Plain(report) => println!("{}", report.to_json()),
        Report::Spmd(report) => println!("{}", report.to_json()),
    }
}

fn cmd_resume(args: &[String]) {
    let [dir] = args else {
        usage();
    };
    let summary = resume_manifest(std::path::Path::new(dir)).unwrap_or_else(|e| die(e));
    eprintln!(
        "campaign_shard: {} shard(s) intact, re-executed {:?}",
        summary.intact.len(),
        summary.executed
    );
    println!("{}", summary.merged.to_json());
}

/// The chaos drill: run a sharded campaign with every harness fail point
/// armed, batter the manifest, resume it, and demand byte-identical
/// convergence with an undisturbed run.
fn cmd_chaos(args: &[String]) {
    let (chaos_seed, plan_args) = match args.split_last() {
        Some((chaos_seed, plan_args)) if plan_args.len() == 7 => {
            let chaos_seed: u64 = chaos_seed.parse().unwrap_or_else(|_| usage());
            (chaos_seed, plan_args)
        }
        _ => usage(),
    };
    let (session, plan, shards, _) = write_manifest(plan_args);
    let dir_path = std::path::Path::new(&plan_args[6]);

    // The undisturbed truth the battered manifest must converge to.
    let reference = session.run_plan(&plan).unwrap_or_else(|e| die(e));

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
        let report = session
            .run_plan_chaos(shard, chaos)
            .unwrap_or_else(|e| die(e));
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

    let summary = resume_manifest(dir_path)
        .unwrap_or_else(|e| die(format_args!("resume after chaos failed: {e}")));
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

/// Exit with the client-side rendering of a serve failure.
fn serve_fail(context: &str, e: ftkr_serve::ServeError) -> ! {
    die(format_args!("{context}: {e}"))
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
    let server =
        Server::bind(addr, config).unwrap_or_else(|e| die(format_args!("cannot bind {addr}: {e}")));
    let bound = server.local_addr();
    // The port file is how scripts discover an ephemeral (`:0`) port.
    if let Some(port_file) = rest.get(2) {
        std::fs::write(port_file, bound.to_string())
            .unwrap_or_else(|e| die(format_args!("cannot write {port_file}: {e}")));
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
    let plan = CampaignPlan::from_json(&read(plan_path))
        .unwrap_or_else(|e| die(format_args!("{plan_path} is not a plan: {e}")));
    // Default shard count: one job per worker the default config would run.
    let k = if k == 0 {
        ServerConfig::default().workers as u64
    } else {
        k
    };
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
    let stats = client
        .stats()
        .unwrap_or_else(|e| serve_fail("stats refused", e));
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "plan" => cmd_plan(rest),
            "run" => cmd_run(rest),
            "merge" => cmd_merge(rest),
            "resume" => cmd_resume(rest),
            "chaos" => cmd_chaos(rest),
            "stats" => cmd_server_stats(rest),
            "serve" => cmd_serve(rest),
            "submit" => cmd_submit(rest),
            "watch" => cmd_watch(rest),
            "shutdown" => cmd_shutdown(rest),
            _ => usage(),
        },
        None => usage(),
    }
}
