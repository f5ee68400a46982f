//! `ftkr_serve` — a resident campaign daemon serving plan traffic over
//! sockets.
//!
//! The offline workflow (`campaign_shard plan` → per-shard `run` → `merge`)
//! pays the fault-free prefix — clean trace, region partition, DDDGs, site
//! lists, fork-point checkpoints — once *per invocation*.  This crate keeps
//! those artifacts resident: a long-running server accepts
//! [`CampaignPlan`](ftkr_inject::CampaignPlan) submissions over a framed
//! socket protocol, splits them into shard jobs on a FIFO worker pool,
//! and executes every job through a shared byte-budgeted
//! [`cache::SessionCache`] — so the second submission against
//! an application starts injecting immediately.
//!
//! The layers, bottom-up:
//!
//! * [`wire`] — length-prefixed, FNV-1a-checksummed JSON frames (the same
//!   checksum the crash-consistent shard reports carry on disk).
//! * [`proto`] — the request/response vocabulary; reports travel as their
//!   canonical JSON text so socket and offline outputs are byte-identical.
//! * [`cache`] — the shared hot-[`Session`](fliptracker::Session) LRU.
//! * [`pool`] — panic-isolating workers over one FIFO job queue.
//! * [`server`] — job lifecycle: validate, shard, execute, stream deltas,
//!   merge, degrade lost shards to harness-error tallies.
//! * [`client`] — the typed client (`submit` / `status` / `watch` /
//!   `stats` / `shutdown`).

pub mod cache;
pub mod client;
pub mod pool;
pub mod proto;
pub mod server;
pub mod wire;

pub use cache::SessionCache;
pub use client::{Client, ServeError};
pub use pool::WorkerPool;
pub use proto::{CacheStats, JobStatus, Request, Response, ServeStats, WireError, WireErrorKind};
pub use server::{job_ordinal, Server, ServerConfig, JOB_ATTEMPTS};
pub use wire::{ProtocolError, MAGIC, MAX_FRAME};
