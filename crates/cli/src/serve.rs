//! The serving core: a fixed worker pool behind a bounded admission
//! queue, exact counters, and the line protocol `disc serve` speaks.
//!
//! # Lifecycle
//!
//! [`Server::start`] takes the already-validated [`ServeState`] and
//! spawns `workers` threads, each looping `pop → execute → count →
//! deliver`. [`Server::submit`] never blocks: a request either enters
//! the queue, is served **degraded** from the per-radius cache (zoom at
//! a cached radius while saturated), or is **shed** with a typed
//! overload reply. [`Server::shutdown`] closes the queue, drains what
//! was admitted, joins every worker, and returns the final counter
//! snapshot.
//!
//! # Counter identities
//!
//! The counters are exact, not sampled. After `shutdown` (all admitted
//! work drained) they satisfy:
//!
//! ```text
//! submitted == admitted + degraded + shed
//! admitted  == completed + cancelled + panicked + failed
//! ```
//!
//! Deadline-expired requests land in `cancelled` whether they were born
//! expired at submit, expired in the queue, or expired mid-scan; a
//! panicking request lands in `panicked` and kills nothing else.
//!
//! The streaming verbs `insert` and `delete` ride the same queue:
//! mutations are admitted like any other request (never served
//! degraded), take the catalog write lock inside a worker, and
//! invalidate only the cache radii whose cover they broke.

use std::io::{self, BufRead, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::admission::Bounded;
use crate::cache::SolutionCache;
use crate::error::CliError;
use crate::state::ServeState;
use crate::worker::{execute, Op, Outcome, Reply, Request};

/// The longest request line [`run_lines`] reads, in bytes, not
/// counting its newline. A longer line is answered with a parse error
/// and skipped up to its newline without being buffered.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// The most radii one `sweep` request may name: each is a full solve.
pub const MAX_SWEEP_RADII: usize = 64;

/// Pool sizing for one serving process.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads (each runs one request at a time).
    pub workers: usize,
    /// Admission queue slots; a full queue sheds.
    pub queue: usize,
    /// Per-radius solution cache capacity (0 disables the degraded
    /// path).
    pub cache: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue: 16,
            cache: 16,
        }
    }
}

/// Exact request accounting; every field is a monotonic event count.
#[derive(Debug, Default)]
pub struct Counters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    degraded: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    panicked: AtomicU64,
    cache_hits: AtomicU64,
    drift: AtomicU64,
}

/// A point-in-time copy of every counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct CounterSnapshot {
    pub submitted: u64,
    pub admitted: u64,
    pub shed: u64,
    pub degraded: u64,
    pub completed: u64,
    pub cancelled: u64,
    pub failed: u64,
    pub panicked: u64,
    pub cache_hits: u64,
    /// Cumulative selection churn of the maintained `r_max` cover
    /// across every streaming mutation: Σ per-mutation
    /// `newly_selected + unselected` from
    /// [`disc_core::RepairableSolution`] repairs. Not a request count —
    /// excluded from the bookkeeping identities.
    pub drift: u64,
    /// Directed entries in the catalog's mutation overlay (two per edge
    /// inserted since the last compaction). Catalog state, not an event
    /// count: filled in by [`Server::counters`] and
    /// [`Server::shutdown`], excluded from the identities.
    pub appended: u64,
    /// Objects deleted since the last compaction whose slots are
    /// tombstoned in the overlay (catalog state, like `appended`).
    pub tombstoned: u64,
    /// Compactions the catalog has run so far.
    pub compactions: u64,
}

impl Counters {
    fn bump(field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies every counter at once.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            drift: self.drift.load(Ordering::Relaxed),
            appended: 0,
            tombstoned: 0,
            compactions: 0,
        }
    }

    fn record(&self, outcome: &Outcome) {
        match outcome {
            Outcome::Zoomed { cached, .. } => {
                Self::bump(&self.completed);
                if *cached {
                    Self::bump(&self.cache_hits);
                }
            }
            Outcome::Swept { .. } | Outcome::Slept { .. } => Self::bump(&self.completed),
            Outcome::Inserted { drift, .. } | Outcome::Deleted { drift, .. } => {
                Self::bump(&self.completed);
                self.drift.fetch_add(*drift as u64, Ordering::Relaxed);
            }
            Outcome::Cancelled => Self::bump(&self.cancelled),
            Outcome::Panicked => Self::bump(&self.panicked),
            Outcome::Failed { .. } => Self::bump(&self.failed),
            Outcome::Shed { .. } => Self::bump(&self.shed),
        }
    }
}

impl CounterSnapshot {
    /// The post-drain bookkeeping identities (see module docs); exact
    /// only once all admitted work has finished.
    pub fn is_consistent(&self) -> bool {
        self.submitted == self.admitted + self.degraded + self.shed
            && self.admitted == self.completed + self.cancelled + self.panicked + self.failed
    }
}

/// Where finished replies go. Implementations must tolerate delivery
/// from multiple worker threads at once.
pub trait Sink: Send + Sync {
    /// A finished request.
    fn deliver(&self, reply: &Reply);
    /// Out-of-band server information (ready banner, stats lines).
    fn info(&self, line: &str);
}

/// Renders one reply as a single JSON line.
pub fn render_reply(reply: &Reply) -> String {
    let head = format!("{{\"id\":{},\"op\":\"{}\"", reply.id, reply.op);
    match &reply.outcome {
        Outcome::Zoomed {
            value,
            cached,
            degraded,
        } => format!(
            "{head},\"status\":\"ok\",\"radius\":{},\"size\":{},\"hash\":\"{:#018x}\",\"cached\":{cached},\"degraded\":{degraded}}}",
            value.radius,
            value.solution.len(),
            value.hash,
        ),
        Outcome::Swept { steps } => {
            let rendered: Vec<String> = steps
                .iter()
                .map(|s| {
                    format!(
                        "{{\"radius\":{},\"size\":{},\"hash\":\"{:#018x}\"}}",
                        s.radius,
                        s.solution.len(),
                        s.hash
                    )
                })
                .collect();
            format!(
                "{head},\"status\":\"ok\",\"steps\":[{}]}}",
                rendered.join(",")
            )
        }
        Outcome::Slept { ms } => format!("{head},\"status\":\"ok\",\"slept_ms\":{ms}}}"),
        Outcome::Inserted {
            external,
            neighbors,
            n,
            invalidated,
            drift,
        }
        | Outcome::Deleted {
            external,
            neighbors,
            n,
            invalidated,
            drift,
        } => format!(
            "{head},\"status\":\"ok\",\"external\":{external},\"neighbors\":{neighbors},\"n\":{n},\"invalidated\":{invalidated},\"drift\":{drift}}}"
        ),
        Outcome::Cancelled => format!("{head},\"status\":\"cancelled\"}}"),
        Outcome::Panicked => format!("{head},\"status\":\"panicked\"}}"),
        Outcome::Shed { capacity } => {
            format!("{head},\"status\":\"shed\",\"queue_capacity\":{capacity}}}")
        }
        Outcome::Failed { error } => {
            format!("{head},\"status\":\"error\",\"error\":\"{}\"}}", escape(error))
        }
    }
}

/// Renders a counter snapshot as a single JSON line.
pub fn render_stats(snap: &CounterSnapshot) -> String {
    format!(
        "{{\"op\":\"stats\",\"submitted\":{},\"admitted\":{},\"shed\":{},\"degraded\":{},\"completed\":{},\"cancelled\":{},\"failed\":{},\"panicked\":{},\"cache_hits\":{},\"drift\":{},\"appended\":{},\"tombstoned\":{},\"compactions\":{}}}",
        snap.submitted,
        snap.admitted,
        snap.shed,
        snap.degraded,
        snap.completed,
        snap.cancelled,
        snap.failed,
        snap.panicked,
        snap.cache_hits,
        snap.drift,
        snap.appended,
        snap.tombstoned,
        snap.compactions,
    )
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// A [`Sink`] writing JSON lines to any shared writer.
pub struct JsonSink<W: Write + Send> {
    writer: Arc<Mutex<W>>,
}

impl<W: Write + Send> JsonSink<W> {
    /// Wraps a shared writer.
    pub fn new(writer: Arc<Mutex<W>>) -> Self {
        Self { writer }
    }

    fn write_line(&self, line: &str) {
        let mut w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        // A broken pipe at shutdown is not worth panicking over.
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

impl<W: Write + Send> Sink for JsonSink<W> {
    fn deliver(&self, reply: &Reply) {
        self.write_line(&render_reply(reply));
    }

    fn info(&self, line: &str) {
        self.write_line(line);
    }
}

/// The running pool. Dropping without [`Server::shutdown`] leaks the
/// worker threads' join handles but not the process — prefer an
/// explicit shutdown.
pub struct Server {
    state: Arc<ServeState>,
    queue: Arc<Bounded<Request>>,
    counters: Arc<Counters>,
    cache: Arc<SolutionCache>,
    sink: Arc<dyn Sink>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Spawns the worker pool over already-validated state.
    pub fn start(state: Arc<ServeState>, config: ServeConfig, sink: Arc<dyn Sink>) -> Self {
        let queue = Arc::new(Bounded::new(config.queue.max(1)));
        let counters = Arc::new(Counters::default());
        let cache = Arc::new(SolutionCache::new(config.cache));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                let queue = Arc::clone(&queue);
                let counters = Arc::clone(&counters);
                let cache = Arc::clone(&cache);
                let sink = Arc::clone(&sink);
                std::thread::spawn(move || {
                    while let Some(req) = queue.pop() {
                        // `execute` contains the catch_unwind: a
                        // panicking request becomes a `panicked` reply
                        // and this loop keeps going.
                        let reply = execute(&state, &cache, &req);
                        counters.record(&reply.outcome);
                        sink.deliver(&reply);
                    }
                })
            })
            .collect();
        Self {
            state,
            queue,
            counters,
            cache,
            sink,
            workers,
        }
    }

    /// The shared serving state.
    pub fn state(&self) -> &ServeState {
        &self.state
    }

    /// Current counter values, with the catalog's overlay figures.
    pub fn counters(&self) -> CounterSnapshot {
        with_overlay(self.counters.snapshot(), &self.state)
    }

    /// Submits one request; never blocks. Admission, degraded service,
    /// and shedding are all decided here:
    ///
    /// 1. deadline already expired → cancelled reply now, no queue slot;
    /// 2. queue slot free → admitted, a worker will reply;
    /// 3. queue full, zoom at a cached radius → degraded reply now;
    /// 4. otherwise → typed shed reply now.
    pub fn submit(&self, req: Request) {
        Counters::bump(&self.counters.submitted);
        // A request born expired (0 ms deadline) sheds cleanly through
        // the `cancelled` counter without consuming a queue slot,
        // reaching a worker, or touching the per-radius cache.
        if let Some(deadline) = req.deadline {
            if deadline.saturating_duration_since(Instant::now()).is_zero() {
                Counters::bump(&self.counters.admitted);
                Counters::bump(&self.counters.cancelled);
                self.sink.deliver(&Reply {
                    id: req.id,
                    op: req.op_name(),
                    outcome: Outcome::Cancelled,
                });
                return;
            }
        }
        match self.queue.try_push(req) {
            Ok(()) => Counters::bump(&self.counters.admitted),
            Err(rejected) => {
                let req = rejected.item;
                if let Op::Zoom { radius } = req.op {
                    if let Some(hit) = self.cache.get(radius) {
                        Counters::bump(&self.counters.degraded);
                        Counters::bump(&self.counters.cache_hits);
                        self.sink.deliver(&Reply {
                            id: req.id,
                            op: "zoom",
                            outcome: Outcome::Zoomed {
                                value: hit,
                                cached: true,
                                degraded: true,
                            },
                        });
                        return;
                    }
                }
                Counters::bump(&self.counters.shed);
                self.sink.deliver(&Reply {
                    id: req.id,
                    op: req.op_name(),
                    outcome: Outcome::Shed {
                        capacity: rejected.capacity,
                    },
                });
            }
        }
    }

    /// Blocks until every already-admitted request has been replied to
    /// (bounded by `timeout`). New submissions during the wait push the
    /// goalpost; use it from the single front-end thread.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let snap = self.counters.snapshot();
            let settled = snap.completed + snap.cancelled + snap.panicked + snap.failed;
            if settled >= snap.admitted && self.queue.is_empty() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Closes the queue, drains admitted work, joins every worker, and
    /// returns the final counters.
    pub fn shutdown(self) -> CounterSnapshot {
        self.queue.close();
        for handle in self.workers {
            if let Err(panic) = handle.join() {
                // Workers contain request panics; a panic escaping the
                // loop itself is a server bug worth surfacing loudly.
                std::panic::resume_unwind(panic);
            }
        }
        with_overlay(self.counters.snapshot(), &self.state)
    }
}

/// Fills in the overlay figures of `snap` from the live catalog
/// (read without compacting).
fn with_overlay(mut snap: CounterSnapshot, state: &ServeState) -> CounterSnapshot {
    let catalog = state.live_catalog();
    snap.appended = catalog.appended_entries() as u64;
    snap.tombstoned = catalog.tombstoned_slots() as u64;
    snap.compactions = catalog.compactions();
    snap
}

/// One parsed protocol line.
#[derive(Debug)]
pub enum LineCmd {
    /// A request to submit.
    Request(Request),
    /// Emit a counter snapshot.
    Stats,
    /// Drain and exit.
    Quit,
}

fn parse_kv(token: &str) -> Result<(&str, &str), String> {
    token
        .split_once('=')
        .ok_or_else(|| format!("expected key=value, got {token:?}"))
}

fn parse_u64(key: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{key} must be a non-negative integer, got {value:?}"))
}

fn parse_f64(key: &str, value: &str) -> Result<f64, String> {
    value
        .parse()
        .map_err(|_| format!("{key} must be a number, got {value:?}"))
}

/// Parses one line of the serve protocol.
///
/// Grammar (whitespace-separated):
///
/// ```text
/// stats
/// quit
/// id=<u64> zoom   r=<f64>           [deadline_ms=<u64>]
/// id=<u64> sweep  radii=<f64,...>   [deadline_ms=<u64>]
/// id=<u64> sleep  ms=<u64>          [deadline_ms=<u64>]
/// id=<u64> panic
/// id=<u64> insert coords=<f64,...>  [deadline_ms=<u64>]
/// id=<u64> delete ext=<u64>         [deadline_ms=<u64>]
/// ```
///
/// A sweep names at most [`MAX_SWEEP_RADII`] radii.
pub fn parse_line(line: &str) -> Result<LineCmd, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    match tokens.as_slice() {
        [] => Err("empty line".into()),
        ["stats"] => Ok(LineCmd::Stats),
        ["quit"] => Ok(LineCmd::Quit),
        [only] => Err(format!(
            "expected `stats`, `quit`, or `id=<n> <op> ...`, got {only:?}"
        )),
        [id_tok, op_tok, rest @ ..] => {
            let (key, value) = parse_kv(id_tok)?;
            if key != "id" {
                return Err(format!("first token must be id=<n>, got {id_tok:?}"));
            }
            let id = parse_u64("id", value)?;
            let mut radius = None;
            let mut radii = None;
            let mut ms = None;
            let mut deadline_ms = None;
            let mut coords = None;
            let mut ext = None;
            for token in rest {
                let (key, value) = parse_kv(token)?;
                match key {
                    "r" => radius = Some(parse_f64("r", value)?),
                    "radii" => {
                        if value.split(',').count() > MAX_SWEEP_RADII {
                            return Err(format!("radii takes at most {MAX_SWEEP_RADII} radii"));
                        }
                        let parsed: Result<Vec<f64>, String> = value
                            .split(',')
                            .map(|part| parse_f64("radii", part))
                            .collect();
                        radii = Some(parsed?);
                    }
                    "ms" => ms = Some(parse_u64("ms", value)?),
                    "deadline_ms" => deadline_ms = Some(parse_u64("deadline_ms", value)?),
                    "coords" => {
                        let parsed: Result<Vec<f64>, String> = value
                            .split(',')
                            .map(|part| parse_f64("coords", part))
                            .collect();
                        coords = Some(parsed?);
                    }
                    "ext" => ext = Some(parse_u64("ext", value)?),
                    other => return Err(format!("unknown parameter {other:?}")),
                }
            }
            let op = match *op_tok {
                "zoom" => Op::Zoom {
                    radius: radius.ok_or("zoom needs r=<radius>")?,
                },
                "sweep" => Op::Sweep {
                    radii: radii.ok_or("sweep needs radii=<r1,r2,...>")?,
                },
                "sleep" => Op::Sleep {
                    ms: ms.ok_or("sleep needs ms=<millis>")?,
                },
                "panic" => Op::Panic,
                "insert" => Op::Insert {
                    coords: coords.ok_or("insert needs coords=<c1,c2,...>")?,
                },
                "delete" => Op::Delete {
                    external: ext.ok_or("delete needs ext=<id>")? as disc_metric::ObjId,
                },
                other => return Err(format!("unknown op {other:?}")),
            };
            let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
            Ok(LineCmd::Request(Request { id, op, deadline }))
        }
    }
}

/// Reads one line into `buf`, newline excluded, buffering at most one
/// byte over [`MAX_LINE_BYTES`]; the rest of a longer line is skipped
/// up to its newline. Returns `None` at end of input, else whether the
/// line fit.
fn read_line_capped(input: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<Option<bool>> {
    buf.clear();
    // The cap plus one byte: room for the newline of a line that fits.
    let limit = MAX_LINE_BYTES as u64 + 1;
    if input.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_LINE_BYTES {
        buf.clear();
        input.skip_until(b'\n')?;
        return Ok(Some(false));
    }
    Ok(Some(true))
}

/// Runs the full serve loop over a line stream: banner, submit loop,
/// drain, final stats. This is `disc serve` minus the arg parsing —
/// tests drive it with in-memory readers and writers. A line longer
/// than [`MAX_LINE_BYTES`] is answered with a parse error and skipped.
pub fn run_lines(
    state: Arc<ServeState>,
    config: ServeConfig,
    mut input: impl BufRead,
    sink: Arc<dyn Sink>,
) -> Result<CounterSnapshot, CliError> {
    sink.info(&format!(
        "{{\"op\":\"ready\",\"snapshot\":\"{}\",\"metric\":\"{:?}\",\"n\":{},\"r_max\":{},\"workers\":{},\"queue\":{},\"cache\":{}}}",
        escape(&state.name),
        state.metric,
        state.n(),
        state.r_max,
        config.workers.max(1),
        config.queue.max(1),
        config.cache,
    ));
    let server = Server::start(state, config, Arc::clone(&sink));
    let mut buf = Vec::new();
    while let Some(fits) = read_line_capped(&mut input, &mut buf)? {
        let cmd = if fits {
            let line = std::str::from_utf8(&buf)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if line.trim().is_empty() {
                continue;
            }
            parse_line(line)
        } else {
            Err(format!("request line longer than {MAX_LINE_BYTES} bytes"))
        };
        match cmd {
            Ok(LineCmd::Request(req)) => server.submit(req),
            Ok(LineCmd::Stats) => sink.info(&render_stats(&server.counters())),
            Ok(LineCmd::Quit) => break,
            Err(msg) => sink.info(&format!(
                "{{\"op\":\"parse\",\"status\":\"error\",\"error\":\"{}\"}}",
                escape(&msg)
            )),
        }
    }
    server.drain(Duration::from_secs(3600));
    let snap = server.shutdown();
    sink.info(&render_stats(&snap));
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor, Read};

    #[test]
    fn capped_reader_keeps_at_most_the_cap_and_resyncs_at_the_newline() {
        let mut text = vec![b'a'; 3 * MAX_LINE_BYTES];
        text.extend_from_slice(b"\nstats\n");
        text.extend_from_slice(&vec![b' '; MAX_LINE_BYTES]);
        let mut input = BufReader::with_capacity(1000, Cursor::new(text));
        let mut buf = Vec::new();
        assert_eq!(read_line_capped(&mut input, &mut buf).unwrap(), Some(false));
        assert!(buf.capacity() <= 2 * MAX_LINE_BYTES, "{}", buf.capacity());
        assert_eq!(read_line_capped(&mut input, &mut buf).unwrap(), Some(true));
        assert_eq!(buf, b"stats");
        // A last line without a newline fits at exactly the cap.
        assert_eq!(read_line_capped(&mut input, &mut buf).unwrap(), Some(true));
        assert_eq!(buf.len(), MAX_LINE_BYTES);
        assert_eq!(read_line_capped(&mut input, &mut buf).unwrap(), None);

        let mut endless = BufReader::new(io::repeat(b'a').take(5 * MAX_LINE_BYTES as u64));
        assert_eq!(
            read_line_capped(&mut endless, &mut buf).unwrap(),
            Some(false)
        );
        assert!(buf.capacity() <= 2 * MAX_LINE_BYTES, "{}", buf.capacity());
        assert_eq!(read_line_capped(&mut endless, &mut buf).unwrap(), None);
    }

    #[test]
    fn sweeps_take_at_most_the_radii_cap() {
        let radii = |k: usize| {
            (1..=k)
                .map(|i| format!("{}", 1.0 / i as f64))
                .collect::<Vec<_>>()
                .join(",")
        };
        let at_cap = format!("id=1 sweep radii={}", radii(MAX_SWEEP_RADII));
        match parse_line(&at_cap) {
            Ok(LineCmd::Request(Request {
                op: Op::Sweep { radii },
                ..
            })) => assert_eq!(radii.len(), MAX_SWEEP_RADII),
            other => panic!("{other:?}"),
        }
        let over = format!("id=1 sweep radii={}", radii(MAX_SWEEP_RADII + 1));
        assert!(parse_line(&over).is_err());
    }
}
