//! The resident campaign daemon.
//!
//! One [`Server`] owns a `TcpListener`, a [`WorkerPool`] executing shard
//! jobs, and a [`SessionCache`] of hot per-application sessions.  The
//! lifecycle of a submission:
//!
//! 1. **Validate** — the plan's application is resolved through the cache
//!    and its site population derived (warming the session); a plan that
//!    does not resolve is refused with a typed [`WireError`] before any
//!    work is queued.
//! 2. **Split** — the plan becomes `k` shard plans via
//!    [`CampaignPlan::shards`]; each is one pool job.
//! 3. **Execute** — workers run shards through the *shared* hot session
//!    ([`Session::run_plan_analyzed`](fliptracker::Session::run_plan_analyzed));
//!    clean runs, DDDGs, site lists and
//!    fork-point checkpoints are computed once per application, not once
//!    per request.
//! 4. **Stream** — each completed shard is recorded and pushed to every
//!    watcher as a [`Response::Delta`]; when the last shard lands, the
//!    shard reports are merged in shard order into a [`Response::Final`]
//!    whose JSON is byte-identical to the offline execution of the plan.
//!
//! Robustness wiring (the PR 7 story, end-to-end): a worker panic is
//! absorbed at the job perimeter and the shard retried
//! ([`JOB_ATTEMPTS`] attempts); a shard that exhausts its retries is
//! degraded to all-harness-error tallies ([`CampaignReport::harness_lost`])
//! so the final report is visibly tainted instead of silently short;
//! malformed frames get typed protocol errors; idle connections time out;
//! shutdown stops accepting, drains in-flight jobs (watchers still get
//! their finals), then exits.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crossbeam::channel;
use fliptracker::AnalyzedCampaignReport;
use ftkr_inject::{CampaignPlan, CampaignReport, FailPlan, FailSite, IndexRange};

use crate::cache::SessionCache;
use crate::pool::WorkerPool;
use crate::proto::{JobStatus, Request, Response, ServeStats, WireError, WireErrorKind};
use crate::wire::{self, ProtocolError};

/// Attempts a shard job gets before it is degraded to harness-error
/// tallies: the first execution plus one retry after a worker death.
pub const JOB_ATTEMPTS: u32 = 2;

/// Chaos ordinal of a shard-job attempt — a pure function of the shard
/// index and attempt (independent of job id), so a [`FailSite::WorkerJob`]
/// schedule replays identically however submissions interleave.
pub fn job_ordinal(shard: u64, attempt: u32) -> u64 {
    shard * u64::from(JOB_ATTEMPTS) + u64::from(attempt)
}

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing shard jobs.
    pub workers: usize,
    /// Byte budget of the session cache.
    pub cache_budget: u64,
    /// How long a connection may sit idle between frames before the server
    /// closes it.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            cache_budget: 256 << 20,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// One submitted plan's book-keeping.
struct JobEntry {
    app: String,
    shards_total: u64,
    shards_done: u64,
    shards_lost: u64,
    /// Per-shard reports, indexed by shard; merged in index order at the
    /// end so the final bytes never depend on completion order.
    slots: Vec<Option<AnalyzedCampaignReport>>,
    /// Completed-shard deltas in completion order, replayed to late
    /// watchers before they go live.
    log: Vec<Response>,
    /// The merged report's canonical JSON, once every shard landed.
    final_json: Option<String>,
    /// Live watcher channels; pruned as watchers disconnect.
    subscribers: Vec<channel::Sender<Response>>,
}

impl JobEntry {
    fn status(&self, job: u64) -> JobStatus {
        JobStatus {
            job,
            app: self.app.clone(),
            shards_total: self.shards_total,
            shards_done: self.shards_done,
            shards_lost: self.shards_lost,
            done: self.final_json.is_some(),
        }
    }
}

/// State shared by the accept loop, connection handlers, and pool workers.
struct ServerState {
    cache: SessionCache,
    pool: WorkerPool,
    jobs: Mutex<HashMap<u64, JobEntry>>,
    next_job: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    shards_executed: AtomicU64,
    shards_lost: AtomicU64,
    /// Worker deaths absorbed at the shard-job perimeter (each attempt
    /// that panicked, whether or not a retry later saved the shard).
    worker_panics: AtomicU64,
    stop: AtomicBool,
    addr: SocketAddr,
    idle_timeout: Duration,
}

impl ServerState {
    fn stats(&self) -> ServeStats {
        ServeStats {
            jobs_submitted: self.jobs_submitted.load(Ordering::SeqCst),
            jobs_completed: self.jobs_completed.load(Ordering::SeqCst),
            shards_executed: self.shards_executed.load(Ordering::SeqCst),
            shards_lost: self.shards_lost.load(Ordering::SeqCst),
            // Job-perimeter catches plus anything that somehow unwound all
            // the way to the pool's own perimeter.
            worker_panics: self.worker_panics.load(Ordering::SeqCst) + self.pool.panics(),
            cache: self.cache.stats(),
        }
    }
}

/// The resident campaign daemon; see the module docs for the lifecycle.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind a daemon to `addr` (use port 0 for an ephemeral port; the bound
    /// address is [`Server::local_addr`]).  The daemon does not serve until
    /// [`Server::run`].
    pub fn bind(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(ServerState {
            cache: SessionCache::new(config.cache_budget),
            pool: WorkerPool::new(config.workers),
            jobs: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(1),
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            shards_executed: AtomicU64::new(0),
            shards_lost: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            addr: listener.local_addr()?,
            idle_timeout: config.idle_timeout,
        });
        Ok(Server { listener, state })
    }

    /// The address the daemon is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Serve until a [`Request::Shutdown`] arrives, then drain in-flight
    /// jobs, close every connection, and return the final counters.
    pub fn run(self) -> ServeStats {
        let mut handlers = Vec::new();
        for conn in self.listener.incoming() {
            if self.state.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            let state = Arc::clone(&self.state);
            if let Ok(h) = std::thread::Builder::new()
                .name("ftkr-serve-conn".to_string())
                .spawn(move || handle_connection(&state, stream))
            {
                handlers.push(h);
            }
        }
        // Drain: every queued shard executes, every watcher gets its Final.
        self.state.pool.join();
        for h in handlers {
            let _ = h.join();
        }
        self.state.stats()
    }
}

/// What a request handler tells the connection loop to do next.
enum Flow {
    Continue,
    Close,
}

/// Serve one client connection until it closes, idles out, or the server
/// stops.
fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // The read timeout doubles as the stop-flag poll interval.
    let tick = state.idle_timeout.min(Duration::from_millis(250)).max(Duration::from_millis(10));
    let _ = stream.set_read_timeout(Some(tick));
    let mut idle = Duration::ZERO;
    loop {
        match wire::recv::<Request>(&mut stream) {
            Ok(request) => {
                idle = Duration::ZERO;
                match handle_request(state, &mut stream, request) {
                    Flow::Continue => {}
                    Flow::Close => return,
                }
            }
            Err(ProtocolError::TimedOut) => {
                idle += tick;
                if idle >= state.idle_timeout || state.stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(ProtocolError::Eof) => return,
            Err(
                err @ (ProtocolError::BadMagic { .. }
                | ProtocolError::Oversized { .. }
                | ProtocolError::ChecksumMismatch { .. }
                | ProtocolError::BadJson(_)),
            ) => {
                // Typed refusal, then close: after garbage the stream's
                // framing can no longer be trusted.
                let _ = wire::send(
                    &mut stream,
                    &Response::Error(WireError::new(WireErrorKind::Protocol, &err)),
                );
                return;
            }
            Err(ProtocolError::Io(_)) => return,
        }
    }
}

/// Dispatch one parsed request.
fn handle_request(state: &Arc<ServerState>, stream: &mut TcpStream, request: Request) -> Flow {
    match request {
        Request::Submit { plan, shards, chaos } => {
            let response = match submit(state, plan, shards, chaos) {
                Ok(job) => Response::Submitted { job },
                Err(e) => Response::Error(e),
            };
            let _ = wire::send(stream, &response);
            Flow::Continue
        }
        Request::Status { job } => {
            let jobs = state.jobs.lock().expect("job table poisoned");
            let response = match jobs.get(&job) {
                Some(entry) => Response::Status(entry.status(job)),
                None => Response::Error(WireError::new(
                    WireErrorKind::UnknownJob,
                    &format_args!("job {job} was never submitted"),
                )),
            };
            drop(jobs);
            let _ = wire::send(stream, &response);
            Flow::Continue
        }
        Request::Watch { job } => watch(state, stream, job),
        Request::Stats => {
            let _ = wire::send(stream, &Response::Stats(state.stats()));
            Flow::Continue
        }
        Request::Shutdown => {
            state.stop.store(true, Ordering::SeqCst);
            let _ = wire::send(stream, &Response::ShuttingDown);
            // Poke the accept loop so it observes the stop flag.
            let _ = TcpStream::connect(state.addr);
            Flow::Close
        }
    }
}

/// Validate a submission, split it into shard jobs, and queue them.
fn submit(
    state: &Arc<ServerState>,
    plan: CampaignPlan,
    shards: u64,
    chaos: FailPlan,
) -> Result<u64, WireError> {
    if state.stop.load(Ordering::SeqCst) {
        return Err(WireError::new(
            WireErrorKind::ShuttingDown,
            &"the server is draining and accepts no new plans",
        ));
    }
    // The wire protocol streams `AnalyzedCampaignReport`s only, so SPMD
    // plans belong to `run_plan_spmd` / `campaign_shard spmd-run`.  Refuse
    // them up front with a typed error instead of failing every shard job
    // after queueing.
    if plan.is_spmd() {
        return Err(WireError::new(
            WireErrorKind::Plan,
            &format_args!(
                "plan requires the SPMD executor ({} ranks{}); the resident \
                 server runs single-VM campaigns only",
                plan.ranks,
                if matches!(plan.target, ftkr_inject::CampaignTarget::Messages) {
                    ", message-fault population"
                } else {
                    ""
                }
            ),
        ));
    }
    let session = state.cache.session(&plan.app).ok_or_else(|| {
        WireError::new(
            WireErrorKind::Plan,
            &format_args!("unknown application {:?}", plan.app),
        )
    })?;
    // Resolving the site list both validates the plan's target and warms
    // the session the shard jobs will share; its length fixes the
    // population every shard report (including degraded ones) must carry.
    let sites = session
        .sites(&plan.target, plan.class)
        .map_err(|e| WireError::new(WireErrorKind::Plan, &e))?;
    let population = sites.len() as u64 * 64;
    let seed = plan.seed;

    let k = shards.clamp(1, plan.n_tests.max(1)) as usize;
    let shard_plans = plan.shards(k);
    let job = state.next_job.fetch_add(1, Ordering::SeqCst);
    state.jobs_submitted.fetch_add(1, Ordering::SeqCst);
    state.jobs.lock().expect("job table poisoned").insert(
        job,
        JobEntry {
            app: plan.app.clone(),
            shards_total: shard_plans.len() as u64,
            shards_done: 0,
            shards_lost: 0,
            slots: vec![None; shard_plans.len()],
            log: Vec::new(),
            final_json: None,
            subscribers: Vec::new(),
        },
    );
    for (shard, shard_plan) in shard_plans.into_iter().enumerate() {
        let state = Arc::clone(state);
        state.clone_spawn(job, shard as u64, shard_plan, chaos, population, seed);
    }
    Ok(job)
}

impl ServerState {
    /// Queue one shard job on the pool (named helper so `submit` stays
    /// readable).
    #[allow(clippy::too_many_arguments)]
    fn clone_spawn(
        self: &Arc<Self>,
        job: u64,
        shard: u64,
        shard_plan: CampaignPlan,
        chaos: FailPlan,
        population: u64,
        seed: u64,
    ) {
        let state = Arc::clone(self);
        self.pool.spawn(move || {
            run_shard_job(&state, job, shard, &shard_plan, chaos, population, seed)
        });
    }
}

/// Execute one shard job: retry across worker deaths, degrade to
/// harness-error tallies when the retries are exhausted, and record the
/// result.
fn run_shard_job(
    state: &Arc<ServerState>,
    job: u64,
    shard: u64,
    shard_plan: &CampaignPlan,
    chaos: FailPlan,
    population: u64,
    seed: u64,
) {
    let mut report = None;
    for attempt in 0..JOB_ATTEMPTS {
        let executed = catch_unwind(AssertUnwindSafe(|| {
            // The server's own fail point: a firing schedule kills this
            // "worker" exactly as an assert or OOM in the executor would.
            chaos.trip(FailSite::WorkerJob, job_ordinal(shard, attempt));
            let session = state
                .cache
                .session(&shard_plan.app)
                .expect("validated at submission");
            session.run_plan_analyzed(shard_plan)
        }));
        match executed {
            Ok(Ok(r)) => {
                report = Some(r);
                break;
            }
            // A plan error past submission validation means the session
            // was rebuilt into a state that refuses the plan — degrade
            // like a lost worker rather than crash.
            Ok(Err(_)) => break,
            // The worker died (chaos or a real bug); the pool thread
            // survives and the next attempt retries from the cache.
            Err(_) => {
                state.worker_panics.fetch_add(1, Ordering::SeqCst);
                continue;
            }
        }
    }
    let (report, lost) = match report {
        Some(r) => {
            state.shards_executed.fetch_add(1, Ordering::SeqCst);
            (r, false)
        }
        None => {
            state.shards_lost.fetch_add(1, Ordering::SeqCst);
            let n = shard_plan
                .shard
                .intersect(IndexRange::full(shard_plan.n_tests))
                .len();
            (
                AnalyzedCampaignReport {
                    report: CampaignReport::harness_lost(n, population, seed),
                    patterns: Default::default(),
                    tests_with_patterns: 0,
                },
                true,
            )
        }
    };
    complete_shard(state, job, shard, report, lost);
}

/// Record a finished shard: store its report, stream the delta, and on the
/// last shard merge (in shard order) and finalize.
fn complete_shard(
    state: &Arc<ServerState>,
    job: u64,
    shard: u64,
    report: AnalyzedCampaignReport,
    lost: bool,
) {
    let mut jobs = state.jobs.lock().expect("job table poisoned");
    let Some(entry) = jobs.get_mut(&job) else {
        return;
    };
    entry.slots[shard as usize] = Some(report.clone());
    entry.shards_done += 1;
    if lost {
        entry.shards_lost += 1;
    }
    let delta = Response::Delta {
        job,
        shard,
        done: entry.shards_done,
        total: entry.shards_total,
        report: report.to_json(),
    };
    entry.log.push(delta.clone());
    entry.subscribers.retain(|tx| tx.send(delta.clone()).is_ok());

    if entry.shards_done == entry.shards_total {
        let merged = entry
            .slots
            .iter()
            .map(|slot| slot.as_ref().expect("every shard landed").clone())
            .reduce(|a, b| a.merge(&b))
            .expect("at least one shard");
        let final_json = merged.to_json();
        entry.final_json = Some(final_json.clone());
        let fin = Response::Final {
            job,
            report: final_json,
        };
        for tx in entry.subscribers.drain(..) {
            let _ = tx.send(fin.clone());
        }
        state.jobs_completed.fetch_add(1, Ordering::SeqCst);
    }
}

/// Stream a job to a watcher: replay the recorded deltas, then go live
/// until the final report is delivered.
fn watch(state: &Arc<ServerState>, stream: &mut TcpStream, job: u64) -> Flow {
    let (tx, rx) = channel::unbounded();
    {
        let mut jobs = state.jobs.lock().expect("job table poisoned");
        let Some(entry) = jobs.get_mut(&job) else {
            let _ = wire::send(
                stream,
                &Response::Error(WireError::new(
                    WireErrorKind::UnknownJob,
                    &format_args!("job {job} was never submitted"),
                )),
            );
            return Flow::Continue;
        };
        // Replay-then-subscribe under the table lock: no delta can land in
        // between, so the watcher sees every shard exactly once.
        for recorded in &entry.log {
            let _ = tx.send(recorded.clone());
        }
        match &entry.final_json {
            Some(final_json) => {
                let _ = tx.send(Response::Final {
                    job,
                    report: final_json.clone(),
                });
            }
            None => entry.subscribers.push(tx),
        }
    }
    while let Ok(response) = rx.recv() {
        let done = matches!(response, Response::Final { .. });
        if wire::send(stream, &response).is_err() {
            return Flow::Close;
        }
        if done {
            return Flow::Continue;
        }
    }
    // Every sender dropped without a Final — the job table entry vanished
    // (cannot happen in the current lifecycle); close defensively.
    Flow::Close
}
