//! The typed client side of the campaign service.
//!
//! One [`Client`] wraps one connection; requests are framed through
//! [`crate::wire`] and every failure mode is a typed [`ServeError`] — a
//! transport-level [`ProtocolError`], a server-side [`WireError`] the
//! daemon refused the request with, or a protocol violation (the server
//! answered with a response the request cannot produce).

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use ftkr_inject::{CampaignPlan, FailPlan};

use crate::proto::{JobStatus, Request, Response, ServeStats, WireError};
use crate::wire::{self, ProtocolError};

/// Why a client call failed.
#[derive(Debug)]
pub enum ServeError {
    /// The transport failed (connection, framing, checksum, JSON).
    Protocol(ProtocolError),
    /// The server refused the request with a typed error.
    Server(WireError),
    /// The server answered with a response variant the request cannot
    /// produce — a protocol version skew or a server bug.
    Unexpected(Response),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Protocol(e) => write!(f, "transport failure: {e}"),
            ServeError::Server(e) => write!(f, "server refused the request: {e}"),
            ServeError::Unexpected(r) => write!(f, "unexpected response variant: {r:?}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Protocol(e) => Some(e),
            ServeError::Server(e) => Some(e),
            ServeError::Unexpected(_) => None,
        }
    }
}

impl From<ProtocolError> for ServeError {
    fn from(e: ProtocolError) -> Self {
        ServeError::Protocol(e)
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Protocol(ProtocolError::Io(e))
    }
}

/// A connection to a running campaign daemon.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a daemon at `addr` (e.g. `"127.0.0.1:7347"`).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream })
    }

    /// One request/response exchange.
    fn call(&mut self, request: &Request) -> Result<Response, ServeError> {
        wire::send(&mut self.stream, request)?;
        Ok(wire::recv(&mut self.stream)?)
    }

    /// Submit a plan for execution as `shards` shard jobs; returns the job
    /// id to poll or watch.  `chaos` arms the server's own fail points —
    /// [`FailPlan::none`] for normal service.
    pub fn submit(
        &mut self,
        plan: &CampaignPlan,
        shards: u64,
        chaos: FailPlan,
    ) -> Result<u64, ServeError> {
        match self.call(&Request::Submit {
            plan: plan.clone(),
            shards,
            chaos,
        })? {
            Response::Submitted { job } => Ok(job),
            Response::Error(e) => Err(ServeError::Server(e)),
            other => Err(ServeError::Unexpected(other)),
        }
    }

    /// Poll one job's progress.
    pub fn status(&mut self, job: u64) -> Result<JobStatus, ServeError> {
        match self.call(&Request::Status { job })? {
            Response::Status(status) => Ok(status),
            Response::Error(e) => Err(ServeError::Server(e)),
            other => Err(ServeError::Unexpected(other)),
        }
    }

    /// Subscribe to a job and block until its final report: already-recorded
    /// shard deltas are replayed first, then live ones stream in.
    /// `on_delta` observes every delta (shard index, done, total, shard
    /// report JSON); the returned string is the final merged report's JSON —
    /// byte-identical to the offline execution of the same plan.
    ///
    /// Watching can outlast the frame timeout of an idle connection, so the
    /// read timeout is lifted for the duration of the stream.
    pub fn watch(
        &mut self,
        job: u64,
        mut on_delta: impl FnMut(u64, u64, u64, &str),
    ) -> Result<String, ServeError> {
        wire::send(&mut self.stream, &Request::Watch { job })?;
        let _ = self.stream.set_read_timeout(None);
        let result = loop {
            match wire::recv::<Response>(&mut self.stream) {
                Ok(Response::Delta {
                    shard,
                    done,
                    total,
                    report,
                    ..
                }) => on_delta(shard, done, total, &report),
                Ok(Response::Final { report, .. }) => break Ok(report),
                Ok(Response::Error(e)) => break Err(ServeError::Server(e)),
                Ok(other) => break Err(ServeError::Unexpected(other)),
                Err(e) => break Err(ServeError::Protocol(e)),
            }
        };
        let _ = self.stream.set_read_timeout(Some(Duration::from_secs(30)));
        result
    }

    /// Fetch the server-wide counters.
    pub fn stats(&mut self) -> Result<ServeStats, ServeError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            Response::Error(e) => Err(ServeError::Server(e)),
            other => Err(ServeError::Unexpected(other)),
        }
    }

    /// Ask the daemon to stop accepting work, drain, and exit.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            Response::Error(e) => Err(ServeError::Server(e)),
            other => Err(ServeError::Unexpected(other)),
        }
    }
}
