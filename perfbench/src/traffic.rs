//! Load generation against a live `disc_cli::Server`: a timestamping
//! [`Sink`] and a closed loop that keeps a fixed number of requests in
//! flight from one generator thread.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use disc_cli::serve::{ServeConfig, Server, Sink};
use disc_cli::worker::{Op, Outcome, Reply, Request};
use disc_cli::{CounterSnapshot, ServeState};

use crate::gen::Req;

/// Longest a single reply may take before the run is declared hung.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// A reply reduced to what the benchmark checks and aggregates.
#[derive(Clone, Debug)]
pub enum Summary {
    Zoom {
        hash: u64,
        cached: bool,
    },
    Sweep {
        hashes: Vec<u64>,
    },
    Mutation {
        insert: bool,
        n: usize,
        invalidated: usize,
        drift: usize,
    },
    /// Shed, cancelled, panicked, failed — or a reply of the wrong kind.
    Failed(String),
}

impl Summary {
    pub fn of(reply: &Reply) -> Self {
        match &reply.outcome {
            Outcome::Zoomed { value, cached, .. } => Summary::Zoom {
                hash: value.hash,
                cached: *cached,
            },
            Outcome::Swept { steps } => Summary::Sweep {
                hashes: steps.iter().map(|s| s.hash).collect(),
            },
            Outcome::Inserted {
                n,
                invalidated,
                drift,
                ..
            } => Summary::Mutation {
                insert: true,
                n: *n,
                invalidated: *invalidated,
                drift: *drift,
            },
            Outcome::Deleted {
                n,
                invalidated,
                drift,
                ..
            } => Summary::Mutation {
                insert: false,
                n: *n,
                invalidated: *invalidated,
                drift: *drift,
            },
            other => Summary::Failed(format!("{} request ended {other:?}", reply.op)),
        }
    }
}

struct Delivered {
    id: u64,
    at: Instant,
    summary: Summary,
}

/// Timestamps each reply on the worker thread that finished it, before
/// handing it to the generator, so latency excludes the channel hop.
struct TimestampSink {
    tx: Sender<Delivered>,
}

impl Sink for TimestampSink {
    fn deliver(&self, reply: &Reply) {
        let at = Instant::now();
        // The receiver outlives every worker; a send error means the
        // run already failed and is unwinding.
        let _ = self.tx.send(Delivered {
            id: reply.id,
            at,
            summary: Summary::of(reply),
        });
    }

    fn info(&self, _line: &str) {}
}

/// One request of a phase, with its submit-to-reply latency.
#[derive(Clone, Debug)]
pub struct Record {
    pub id: u64,
    pub req: Req,
    pub latency: Duration,
    pub summary: Summary,
}

/// A started server plus the generator's side of its reply channel.
pub struct Live {
    server: Server,
    rx: Receiver<Delivered>,
    next_id: u64,
}

/// The wire request for a benchmark request: no deadline, so nothing is
/// cancelled.
pub fn request(id: u64, req: &Req) -> Request {
    let op = match req {
        Req::Zoom(r) => Op::Zoom { radius: *r },
        Req::Sweep(radii) => Op::Sweep {
            radii: radii.clone(),
        },
        Req::Insert(coords) => Op::Insert {
            coords: coords.clone(),
        },
        Req::Delete(ext) => Op::Delete {
            external: *ext as disc_metric::ObjId,
        },
    };
    Request {
        id,
        op,
        deadline: None,
    }
}

impl Live {
    /// `Server::start` with `workers` threads and enough queue slots
    /// that the closed loop never sheds.
    pub fn start(state: Arc<ServeState>, workers: usize) -> Self {
        let (tx, rx) = channel();
        let config = ServeConfig {
            workers,
            queue: 16,
            cache: 16,
        };
        let server = Server::start(state, config, Arc::new(TimestampSink { tx }));
        Self {
            server,
            rx,
            next_id: 1,
        }
    }

    pub fn state(&self) -> &ServeState {
        self.server.state()
    }

    fn submit(&mut self, req: &Req) -> (u64, Instant) {
        let id = self.next_id;
        self.next_id += 1;
        let at = Instant::now();
        self.server.submit(request(id, req));
        (id, at)
    }

    fn recv(&self) -> Result<Delivered, String> {
        self.rx
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|e| format!("no reply within {REPLY_TIMEOUT:?}: {e}"))
    }

    /// Sends one request and waits for its reply.
    pub fn call(&mut self, req: Req) -> Result<Record, String> {
        let (id, at) = self.submit(&req);
        let done = self.recv()?;
        if done.id != id {
            return Err(format!("reply for {} while waiting for {id}", done.id));
        }
        Ok(Record {
            id,
            req,
            latency: done.at.saturating_duration_since(at),
            summary: done.summary,
        })
    }

    /// Closed loop: keeps `in_flight` requests outstanding, submitting
    /// the next one as each reply arrives, until `stop(submitted)` holds;
    /// then waits for the stragglers. Records come back in submission
    /// order.
    pub fn closed_loop(
        &mut self,
        stream: &mut impl Iterator<Item = Req>,
        in_flight: usize,
        mut stop: impl FnMut(usize) -> bool,
    ) -> Result<Vec<Record>, String> {
        let mut pending: Vec<(u64, Instant, Req)> = Vec::new();
        let mut records = Vec::new();
        let mut submitted = 0;
        loop {
            while pending.len() < in_flight && !stop(submitted) {
                let Some(req) = stream.next() else { break };
                let (id, at) = self.submit(&req);
                pending.push((id, at, req));
                submitted += 1;
            }
            if pending.is_empty() {
                break;
            }
            let done = self.recv()?;
            let Some(pos) = pending.iter().position(|p| p.0 == done.id) else {
                return Err(format!("reply for unknown request {}", done.id));
            };
            let (id, at, req) = pending.swap_remove(pos);
            records.push(Record {
                id,
                req,
                latency: done.at.saturating_duration_since(at),
                summary: done.summary,
            });
        }
        records.sort_by_key(|r| r.id);
        Ok(records)
    }

    /// Drains and joins the pool; returns the final counters.
    pub fn shutdown(self) -> CounterSnapshot {
        self.server.drain(REPLY_TIMEOUT);
        self.server.shutdown()
    }
}
