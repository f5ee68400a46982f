//! Loopback integration suite: a real daemon on an ephemeral port, real
//! clients over TCP, and byte-identity diffs against offline execution.
//!
//! The contract under test: whatever path a plan takes through the server —
//! sharded across pool workers, through the shared session cache,
//! racing other tenants, even losing a worker mid-job to an injected death —
//! the final merged report a watcher receives is byte-identical to running
//! the same plan offline in a cold, single-threaded session.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use fliptracker::{AnalyzedCampaignReport, Session};
use ftkr_inject::{CampaignPlan, CampaignTarget, FailPlan, FailSite, TargetClass};
use ftkr_serve::proto::{Request, Response, WireErrorKind};
use ftkr_serve::server::{job_ordinal, Server, ServerConfig, JOB_ATTEMPTS};
use ftkr_serve::{wire, Client};

/// Spin up a daemon on an ephemeral loopback port; returns its address and
/// the thread handle that resolves to the final counters.
fn spawn_server(config: ServerConfig) -> (String, std::thread::JoinHandle<ftkr_serve::ServeStats>) {
    let server = Server::bind("127.0.0.1:0", config).expect("ephemeral bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        cache_budget: u64::MAX,
        idle_timeout: Duration::from_secs(5),
    }
}

/// A small plan against an application's first registry region.
fn small_plan(app: &str, n_tests: u64, seed: u64) -> CampaignPlan {
    let session = Session::by_name(app).expect("registry app");
    let region = session.app().regions[0].clone();
    session
        .plan(
            CampaignTarget::Region { name: region },
            TargetClass::Internal,
            n_tests,
        )
        .expect("plan resolves")
        .with_seed(seed)
}

/// The offline reference: the same plan in a cold, single-threaded session.
fn offline(plan: &CampaignPlan) -> String {
    Session::by_name(&plan.app)
        .expect("registry app")
        .run_plan_analyzed(plan)
        .expect("offline run")
        .to_json()
}

#[test]
fn concurrent_submissions_from_many_clients_match_offline_execution() {
    let (addr, server) = spawn_server(quick_config());
    let plans: Vec<CampaignPlan> = [(8, 11), (12, 23), (10, 47)]
        .iter()
        .map(|&(n, seed)| small_plan("IS", n, seed))
        .collect();

    let finals: Vec<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    let job = client.submit(plan, 3, FailPlan::none()).expect("submit");
                    let mut deltas = 0u64;
                    let report = client
                        .watch(job, |_, _, _, shard_json| {
                            // Every delta is itself a parseable shard report.
                            AnalyzedCampaignReport::from_json(shard_json).expect("delta parses");
                            deltas += 1;
                        })
                        .expect("watch to final");
                    assert_eq!(deltas, 3, "one delta per shard");
                    (i, report)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, served) in &finals {
        assert_eq!(served, &offline(&plans[*i]), "job {i} differs from offline");
    }

    let mut client = Client::connect(&addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_submitted, 3);
    assert_eq!(stats.jobs_completed, 3);
    assert_eq!(stats.shards_executed, 9);
    assert_eq!(stats.shards_lost, 0);
    // Three tenants, one application: at most one cold miss reached the
    // cache; everyone else shared the hot session.
    assert_eq!(stats.cache.misses, 1, "{:?}", stats.cache);
    assert!(stats.cache.hits >= 2, "{:?}", stats.cache);

    client.shutdown().expect("shutdown");
    let end = server.join().expect("server thread");
    assert_eq!(end.jobs_completed, 3);
}

/// A chaos schedule that kills the worker on shard 0's first attempt, lets
/// the retry through, and spares every other shard-job attempt.
fn one_death_schedule(shards: u64) -> FailPlan {
    (1u64..)
        .map(|seed| FailPlan {
            seed,
            worker_job: 512,
            ..FailPlan::none()
        })
        .find(|chaos| {
            chaos.fires(FailSite::WorkerJob, job_ordinal(0, 0))
                && !chaos.fires(FailSite::WorkerJob, job_ordinal(0, 1))
                && (1..shards).all(|s| {
                    (0..JOB_ATTEMPTS).all(|a| !chaos.fires(FailSite::WorkerJob, job_ordinal(s, a)))
                })
        })
        .expect("a one-death schedule exists")
}

#[test]
fn a_worker_killed_mid_job_is_retried_and_the_final_report_is_byte_identical() {
    let (addr, server) = spawn_server(quick_config());
    let plan = small_plan("IS", 10, 31);
    let chaos = one_death_schedule(3);

    let mut client = Client::connect(&addr).expect("connect");
    let job = client.submit(&plan, 3, chaos).expect("submit");
    let served = client.watch(job, |_, _, _, _| {}).expect("watch");
    assert_eq!(served, offline(&plan), "retried job differs from offline");

    let status = client.status(job).expect("status");
    assert!(status.done);
    assert_eq!(status.shards_lost, 0, "the retry saved the shard");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.worker_panics, 1, "exactly one injected worker death");
    assert_eq!(stats.shards_lost, 0);

    // The daemon survived its worker's death: it still serves new plans.
    let plan2 = small_plan("IS", 8, 77);
    let job2 = client
        .submit(&plan2, 2, FailPlan::none())
        .expect("submit after death");
    let served2 = client.watch(job2, |_, _, _, _| {}).expect("watch");
    assert_eq!(served2, offline(&plan2));

    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn exhausted_retries_degrade_the_job_instead_of_killing_the_daemon() {
    let (addr, server) = spawn_server(quick_config());
    let plan = small_plan("IS", 9, 13);
    // Every attempt of every shard job dies: the job degrades fully.
    let chaos = FailPlan {
        seed: 5,
        worker_job: 1024,
        ..FailPlan::none()
    };

    let mut client = Client::connect(&addr).expect("connect");
    let job = client.submit(&plan, 3, chaos).expect("submit");
    let served = client.watch(job, |_, _, _, _| {}).expect("watch");

    let report = AnalyzedCampaignReport::from_json(&served).expect("degraded report parses");
    assert_eq!(report.report.n_tests, 9);
    assert_eq!(
        report.report.counts.harness_errors, 9,
        "every test of every lost shard is a visible harness error"
    );
    let status = client.status(job).expect("status");
    assert_eq!(status.shards_lost, 3);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.shards_lost, 3);
    assert_eq!(stats.worker_panics, 3 * u64::from(JOB_ATTEMPTS));

    // Degradation, not death: a fault-free plan still round-trips.
    let plan2 = small_plan("IS", 8, 3);
    let job2 = client.submit(&plan2, 2, FailPlan::none()).expect("submit");
    let served2 = client.watch(job2, |_, _, _, _| {}).expect("watch");
    assert_eq!(served2, offline(&plan2));

    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn malformed_frames_get_typed_errors_and_the_daemon_keeps_serving() {
    let (addr, server) = spawn_server(quick_config());

    // A non-protocol peer: the server answers with a typed protocol error
    // frame, then closes.  (Exactly the two magic bytes' worth of garbage,
    // so the server consumes everything and closes with a clean FIN.)
    let mut raw = TcpStream::connect(&addr).expect("connect");
    raw.write_all(b"GE").expect("write garbage");
    let response: Response = wire::recv(&mut raw).expect("typed refusal");
    match response {
        Response::Error(e) => assert_eq!(e.kind, WireErrorKind::Protocol, "{e}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest)
        .expect("server closed the stream");
    assert!(rest.is_empty());

    // A corrupted frame: valid magic and length, payload flipped en route.
    let mut corrupt = TcpStream::connect(&addr).expect("connect");
    let mut frame = Vec::new();
    wire::send(&mut frame, &Request::Stats).expect("encode");
    let last = frame.len() - 1;
    frame[last] ^= 0x20;
    corrupt.write_all(&frame).expect("write corrupted");
    let response: Response = wire::recv(&mut corrupt).expect("typed refusal");
    match response {
        Response::Error(e) => {
            assert_eq!(e.kind, WireErrorKind::Protocol);
            assert!(e.detail.contains("checksum"), "{e}");
        }
        other => panic!("expected a checksum refusal, got {other:?}"),
    }

    // An unknown job id: typed, and the connection survives it.
    let mut client = Client::connect(&addr).expect("connect");
    match client.status(999) {
        Err(ftkr_serve::ServeError::Server(e)) => assert_eq!(e.kind, WireErrorKind::UnknownJob),
        other => panic!("expected an unknown-job refusal, got {other:?}"),
    }

    // None of it hurt the daemon: a real plan still round-trips.
    let plan = small_plan("IS", 8, 19);
    let job = client.submit(&plan, 2, FailPlan::none()).expect("submit");
    let served = client.watch(job, |_, _, _, _| {}).expect("watch");
    assert_eq!(served, offline(&plan));

    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn frames_at_the_cap_round_trip_and_one_byte_over_gets_a_typed_refusal() {
    // Both sides of the 16 MiB boundary, over a real socket.  At the cap:
    // a syntactically valid Stats request padded with whitespace to exactly
    // MAX_FRAME bytes must traverse the whole stack — framed, checksummed,
    // read in full, parsed, answered.  One byte over: the reader must refuse
    // from the header alone (never allocating the payload) with the typed
    // protocol error, and the writer must refuse to emit such a frame at
    // all.
    let (addr, server) = spawn_server(quick_config());

    // Exactly at the cap.
    let mut stats = serde_json::to_string(&Request::Stats).expect("encode");
    assert!(stats.len() <= ftkr_serve::MAX_FRAME as usize);
    stats.push_str(&" ".repeat(ftkr_serve::MAX_FRAME as usize - stats.len()));
    assert_eq!(stats.len(), ftkr_serve::MAX_FRAME as usize);
    let mut at_cap = TcpStream::connect(&addr).expect("connect");
    wire::write_frame(&mut at_cap, stats.as_bytes()).expect("a cap-sized frame is legal");
    match wire::recv::<Response>(&mut at_cap).expect("the server answered the padded request") {
        Response::Stats(_) => {}
        other => panic!("expected stats for the cap-sized request, got {other:?}"),
    }
    drop(at_cap);

    // One byte over: the writer side refuses before any bytes hit the wire.
    let over = vec![b' '; ftkr_serve::MAX_FRAME as usize + 1];
    let mut sink = Vec::new();
    match wire::write_frame(&mut sink, &over) {
        Err(ftkr_serve::ProtocolError::Oversized { len }) => {
            assert_eq!(len, ftkr_serve::MAX_FRAME + 1)
        }
        other => panic!("expected an oversized refusal from the writer, got {other:?}"),
    }
    assert!(
        sink.is_empty(),
        "a refused frame must not be partially written"
    );

    // One byte over, forged at the header: the server refuses from the
    // declared length alone and replies with the typed protocol error.
    let mut forged = TcpStream::connect(&addr).expect("connect");
    let mut header = Vec::new();
    header.extend_from_slice(&ftkr_serve::MAGIC);
    header.extend_from_slice(&(ftkr_serve::MAX_FRAME + 1).to_be_bytes());
    header.extend_from_slice(&0u64.to_be_bytes());
    forged.write_all(&header).expect("write forged header");
    let response: Response = wire::recv(&mut forged).expect("typed refusal");
    match response {
        Response::Error(e) => {
            assert_eq!(e.kind, WireErrorKind::Protocol);
            assert!(e.detail.contains("exceeds"), "{e}");
        }
        other => panic!("expected an oversized refusal, got {other:?}"),
    }
    let mut rest = Vec::new();
    forged
        .read_to_end(&mut rest)
        .expect("server closed the stream");
    assert!(rest.is_empty());

    // The refusals did not hurt the daemon.
    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn idle_connections_are_closed_by_the_server() {
    let (addr, server) = spawn_server(ServerConfig {
        workers: 1,
        cache_budget: u64::MAX,
        idle_timeout: Duration::from_millis(100),
    });

    let mut idle = TcpStream::connect(&addr).expect("connect");
    std::thread::sleep(Duration::from_millis(400));
    let mut buf = [0u8; 1];
    let n = idle.read(&mut buf).expect("clean close");
    assert_eq!(n, 0, "the server hung up on the idle connection");

    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn shutdown_drains_in_flight_jobs_before_the_server_exits() {
    let (addr, server) = spawn_server(quick_config());
    let plan = small_plan("IS", 12, 53);

    let mut submitter = Client::connect(&addr).expect("connect");
    let job = submitter
        .submit(&plan, 4, FailPlan::none())
        .expect("submit");

    // The watcher registers, then a second client orders a shutdown while
    // the shard jobs are (possibly) still queued.  The shutdown waits for
    // the first streamed delta — proof the watch is registered — because a
    // connection that only *races* the stop flag is legitimately refused.
    let (first_delta_tx, first_delta_rx) = std::sync::mpsc::channel();
    let watcher = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut client = Client::connect(&addr).expect("connect");
            client
                .watch(job, move |_, _, _, _| {
                    let _ = first_delta_tx.send(());
                })
                .expect("final despite shutdown")
        }
    });
    first_delta_rx.recv().expect("at least one delta streamed");
    let mut killer = Client::connect(&addr).expect("connect");
    killer.shutdown().expect("shutdown acknowledged");

    // Submissions after the stop flag are refused with a typed error.
    let refused = Client::connect(&addr).and_then(|mut c| c.submit(&plan, 2, FailPlan::none()));
    match refused {
        Err(ftkr_serve::ServeError::Server(e)) => {
            assert_eq!(e.kind, WireErrorKind::ShuttingDown)
        }
        // The accept loop may already be gone — a connection refusal is an
        // equally valid outcome of racing a shutdown.
        Err(ftkr_serve::ServeError::Protocol(_)) => {}
        Err(other) => panic!("expected a shutting-down refusal, got {other:?}"),
        Ok(_) => panic!("a submission after shutdown must not be accepted"),
    }

    let served = watcher.join().expect("watcher thread");
    assert_eq!(served, offline(&plan), "the drained job's report is intact");

    let stats = server.join().expect("server thread");
    assert_eq!(stats.jobs_completed, 1, "the in-flight job completed");
}

#[test]
fn a_second_submission_hits_the_session_cache() {
    let (addr, server) = spawn_server(quick_config());
    let plan = small_plan("IS", 8, 29);

    let mut client = Client::connect(&addr).expect("connect");
    let cold = client.submit(&plan, 2, FailPlan::none()).expect("submit");
    client.watch(cold, |_, _, _, _| {}).expect("watch");
    let after_cold = client.stats().expect("stats").cache;
    assert_eq!(after_cold.misses, 1);

    let warm = client.submit(&plan, 2, FailPlan::none()).expect("submit");
    client.watch(warm, |_, _, _, _| {}).expect("watch");
    let after_warm = client.stats().expect("stats").cache;
    assert_eq!(
        after_warm.misses, 1,
        "the second submission opened no session"
    );
    assert!(after_warm.hits > after_cold.hits);
    assert!(after_warm.resident_bytes > 0);

    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn spmd_plans_are_refused_up_front_with_a_typed_error() {
    let (addr, server) = spawn_server(quick_config());
    let mut client = Client::connect(&addr).expect("connect");

    // A multi-rank computation plan: refused before any shard is queued.
    let spmd = small_plan("MG", 8, 31).with_ranks(4, ftkr_inject::RankTarget::Sweep);
    match client.submit(&spmd, 2, FailPlan::none()) {
        Err(ftkr_serve::ServeError::Server(e)) => {
            assert_eq!(e.kind, WireErrorKind::Plan);
            assert!(
                e.detail.contains("SPMD"),
                "detail names the executor: {}",
                e.detail
            );
        }
        other => panic!("SPMD plan was not refused: {other:?}"),
    }

    // A message-fault plan is SPMD even at one rank.
    let messages =
        CampaignPlan::new("MG", CampaignTarget::Messages, TargetClass::Internal, 8).with_seed(31);
    match client.submit(&messages, 2, FailPlan::none()) {
        Err(ftkr_serve::ServeError::Server(e)) => assert_eq!(e.kind, WireErrorKind::Plan),
        other => panic!("message plan was not refused: {other:?}"),
    }

    // The refusals left the server healthy: a serial plan still runs.
    let plan = small_plan("MG", 6, 31);
    let job = client.submit(&plan, 2, FailPlan::none()).expect("submit");
    let report = client.watch(job, |_, _, _, _| {}).expect("watch");
    assert_eq!(report, offline(&plan));

    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}
