//! The serving layers, measured in the traced run: LUT queries served
//! over loopback TCP by `Runtime::serve_http` and `Runtime::serve_fabric`,
//! driven by a load generator in this process (two threads, one
//! keep-alive connection each), and the replay of the calls a request
//! crosses on the server.
//!
//! Each served run has two phases: A, an open loop of Poisson arrivals at
//! a fixed rate, timed from when each request was due; B, a closed loop
//! with a fixed pipelining window per connection. The server's counters
//! are read from its shutdown snapshot.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pimdl_engine::fabric::FabricConfig;
use pimdl_engine::pipeline::ServingConfig;
use pimdl_engine::scheduler::{BatchingPolicy, TenantQuota};
use pimdl_engine::shapes::TransformerShape;
use pimdl_serve::codec::{self, LineBuffer};
use pimdl_serve::http::{self, HttpLimits, HttpParser};
use pimdl_serve::server::HttpConfig;
use pimdl_serve::{
    FabricHandle, FairBatcher, Frame, FrameDecoder, MetricsSnapshot, ModelRegistry, ReplicaModel,
    Request, Runtime, ServeConfig, ServeHandle, TaggedJob,
};
use pimdl_sim::{LutWorkload, PlatformConfig};
use pimdl_tensor::rng::DataRng;

use crate::checks::{self, Codes};
use crate::stats::{self, Outcome};
use crate::{err, WORKER_ARG};

/// Query shapes `n x CB` indices into `CT x F` tables. Model A is the
/// runtime's default shape (and every fabric table's); model B differs.
/// Each model's CT is drawn from the seed among `CT_CHOICES`: the host
/// work per query (`n x CB x F` gathers) stays the same, the simulated
/// kernel time moves slightly.
pub const MODEL_A: LutWorkload = LutWorkload {
    n: 64,
    cb: 96,
    ct: 16,
    f: 384,
};
pub const MODEL_B: LutWorkload = LutWorkload {
    n: 32,
    cb: 128,
    ct: 16,
    f: 512,
};
/// Distinct queries per model (or fabric table), cycled in order.
pub const CORPUS: usize = 32;
pub const CT_CHOICES: [usize; 3] = [15, 16, 17];
/// Tenants and their fair-share weights; connection `i` is tenant `i`.
pub const TENANTS: [(&str, u64); 2] = [("gold", 3), ("bronze", 1)];
pub const MAX_IN_FLIGHT: usize = 1024;
pub const MAX_BATCH: usize = 4;
pub const MAX_WAIT_S: f64 = 0.002;
pub const NUM_SHARDS: usize = 2;
/// Wall seconds one single-request service time of the cost model takes
/// after the clock speedup.
pub const SERVICE_WALL_S: f64 = 2e-4;
/// Phase A: total Poisson arrival rate over both connections (1/s), and
/// its share of the run.
pub const HTTP_RATE: f64 = 70.0;
pub const FABRIC_RATE: f64 = 70.0;
pub const PHASE_A_SHARE: f64 = 0.65;
/// Length of each traced served run, whichever workload is traced, so the
/// server's counters always cover the same load.
pub const COUNTER_RUN_S: f64 = 8.0;
/// Phase B: requests kept outstanding per connection.
pub const WINDOW: usize = 16;

fn platform() -> PlatformConfig {
    let mut p = PlatformConfig::upmem();
    p.num_pes = 64;
    p
}

fn serve_config(seed: u64, lut: LutWorkload) -> ServeConfig {
    ServeConfig {
        policy: BatchingPolicy {
            max_batch: MAX_BATCH,
            max_wait_s: MAX_WAIT_S,
        },
        base: ServingConfig {
            batch: 1,
            seq_len: 16,
            v: 4,
            ct: 16,
        },
        num_shards: NUM_SHARDS,
        queue_capacity: 4096,
        deadline_s: f64::INFINITY,
        lut,
        table_seed: seed,
    }
}

/// One served model (or fabric table) with its query corpus, the
/// benchmark's reference checksums and the pre-encoded request bytes.
struct Model {
    name: String,
    replica: Arc<ReplicaModel>,
    queries: Vec<Vec<u16>>,
    expected: Vec<f64>,
    wire: Vec<Vec<u8>>,
}

impl Model {
    fn new(name: &str, replica: Arc<ReplicaModel>, rng: &mut DataRng) -> Self {
        let w = replica.workload();
        let queries: Vec<Vec<u16>> = (0..CORPUS)
            .map(|_| (0..w.n * w.cb).map(|_| rng.index(w.ct) as u16).collect())
            .collect();
        let q = replica.table();
        let codes = Codes {
            codes: q.table().codes(),
            ct: q.ct(),
            f: q.f(),
            scale: q.table().scale(),
        };
        let expected = queries
            .iter()
            .map(|idx| checks::served_checksum(codes, idx, w.cb))
            .collect();
        Model {
            name: name.to_string(),
            replica,
            queries,
            expected,
            wire: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Proto {
    Http,
    Line,
}

enum Handle {
    Http(ServeHandle),
    Fabric(FabricHandle),
}

/// A running server with its models and the load generator's
/// connections. Dropping it shuts the server down.
struct Served {
    rt: Arc<Runtime>,
    proto: Proto,
    models: Vec<Model>,
    handle: Option<Handle>,
    conns: Vec<TcpStream>,
    speedup: f64,
}

impl Served {
    fn shutdown(&mut self) -> Result<MetricsSnapshot, String> {
        self.conns.clear();
        match self.handle.take() {
            Some(Handle::Http(h)) => h.shutdown().map_err(err),
            Some(Handle::Fabric(h)) => h.shutdown().map_err(err),
            None => Err("server already shut down".to_string()),
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if self.handle.is_some() {
            let _ = self.shutdown();
        }
    }
}

fn http_request(model: &str, tenant: &str, indices: &[u16]) -> Vec<u8> {
    let body = indices
        .iter()
        .map(u16::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let mut out = format!(
        "POST /v1/models/{model}/infer HTTP/1.1\r\nHost: perfbench\r\nX-Tenant: {tenant}\r\n\
         Content-Type: text/plain\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Starts the runtime and server, opens one connection per tenant and
/// warms up with one closed-loop round of every connection's corpus.
fn start(seed: u64, proto: Proto) -> Result<Served, String> {
    let mut rng = DataRng::new(seed);
    let mut draw_ct = |w: LutWorkload| LutWorkload {
        ct: CT_CHOICES[rng.index(CT_CHOICES.len())],
        ..w
    };
    let (model_a, model_b) = (draw_ct(MODEL_A), draw_ct(MODEL_B));
    let cfg = serve_config(seed, model_a);
    let rt = Arc::new(Runtime::new(platform(), TransformerShape::tiny(), cfg).map_err(err)?);
    let speedup = rt.service_model().batch_service_s(1).map_err(err)? / SERVICE_WALL_S;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
    let (models, handle) = match proto {
        Proto::Http => {
            let b = ReplicaModel::build(rt.service_model().engine(), model_b, seed.wrapping_add(1))
                .map_err(err)?;
            let models = vec![
                Model::new("enc-a", rt.replica_arc(), &mut rng),
                Model::new("enc-b", Arc::new(b), &mut rng),
            ];
            let mut registry = ModelRegistry::new();
            for m in &models {
                registry
                    .register(&m.name, Arc::clone(&m.replica))
                    .map_err(err)?;
            }
            let cfg = HttpConfig {
                tenants: TENANTS
                    .iter()
                    .map(|&(t, w)| Ok((t.to_string(), TenantQuota::new(w, MAX_IN_FLIGHT)?)))
                    .collect::<Result<_, pimdl_engine::EngineError>>()
                    .map_err(err)?,
                default_quota: None,
                ..HttpConfig::default()
            };
            let h = rt
                .serve_http(listener, speedup, cfg, registry)
                .map_err(err)?;
            (models, Handle::Http(h))
        }
        Proto::Line => {
            let tables: Vec<(String, u64)> = (0..2)
                .map(|i| (format!("table-{i}"), seed.wrapping_add(100 + i)))
                .collect();
            let models = tables
                .iter()
                .map(|(name, s)| {
                    Ok(Model::new(
                        name,
                        rt.build_replica(*s).map_err(err)?,
                        &mut rng,
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let mut fabric = FabricConfig::example();
            fabric.num_shards = NUM_SHARDS;
            // Deaths are EOF-detected; a huge virtual timeout keeps the
            // accelerated clock from expiring slow-but-alive workers.
            fabric.hello_timeout_s = 1e6;
            let exe = std::env::current_exe().map_err(err)?;
            let argv = vec![exe.to_string_lossy().into_owned(), WORKER_ARG.to_string()];
            let h = rt
                .serve_fabric(listener, speedup, fabric, tables, argv)
                .map_err(err)?;
            h.wait_all_ready(Duration::from_secs(60)).map_err(err)?;
            (models, Handle::Fabric(h))
        }
    };
    let addr = match &handle {
        Handle::Http(h) => h.addr(),
        Handle::Fabric(h) => h.addr(),
    };
    let mut served = Served {
        rt,
        proto,
        models,
        handle: Some(handle),
        conns: Vec::new(),
        speedup,
    };
    for (lane, m) in served.models.iter_mut().enumerate() {
        m.wire = m
            .queries
            .iter()
            .enumerate()
            .map(|(i, q)| match proto {
                Proto::Http => http_request(&m.name, TENANTS[lane].0, q),
                Proto::Line => codec::encode_query_for(&format!("q{i}"), q, Some(&m.name)),
            })
            .collect();
        let stream = TcpStream::connect(addr).map_err(err)?;
        stream.set_nodelay(true).map_err(err)?;
        served.conns.push(stream);
    }
    let warm = run_phase(&served, Phase::Closed { seconds: 0.0 })?;
    if warm.failed > 0 {
        return Err(format!("{} warm-up requests failed", warm.failed));
    }
    Ok(served)
}

/// One parsed response: whether it was served (200 / `R`), and if so its
/// correctness flag and checksum bits; for the line protocol, the corpus
/// index its tag names.
struct Reply {
    served: bool,
    correct: bool,
    bits: u64,
    tag: Option<usize>,
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Takes one complete HTTP response off the front of `buf`.
fn take_http(buf: &mut Vec<u8>) -> Result<Option<Reply>, String> {
    let Some(end) = find(buf, b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(err)?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .ok_or_else(|| format!("no Content-Length in {head:?}"))?;
    if buf.len() < end + 4 + len {
        return Ok(None);
    }
    let body = String::from_utf8(buf[end + 4..end + 4 + len].to_vec()).map_err(err)?;
    buf.drain(..end + 4 + len);
    if status != 200 {
        return Ok(Some(Reply {
            served: false,
            correct: false,
            bits: 0,
            tag: None,
        }));
    }
    let correct = body.contains("\"correct\":true");
    let bits = body
        .split("\"checksum_bits\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| format!("malformed infer body {body:?}"))?;
    Ok(Some(Reply {
        served: true,
        correct,
        bits,
        tag: None,
    }))
}

/// Takes one complete `R`/`E` line off the front of `buf`.
fn take_line(buf: &mut Vec<u8>) -> Result<Option<Reply>, String> {
    let Some(end) = buf.iter().position(|&b| b == b'\n') else {
        return Ok(None);
    };
    let line = String::from_utf8(buf[..end].to_vec()).map_err(err)?;
    buf.drain(..=end);
    let fields: Vec<&str> = line.split(' ').collect();
    let tag = fields
        .get(1)
        .and_then(|t| t.strip_prefix('q'))
        .and_then(|i| i.parse().ok());
    match fields.as_slice() {
        ["R", _, verdict, hex] => Ok(Some(Reply {
            served: true,
            correct: *verdict == "ok",
            bits: u64::from_str_radix(hex, 16).map_err(err)?,
            tag,
        })),
        ["E", ..] => Ok(Some(Reply {
            served: false,
            correct: false,
            bits: 0,
            tag,
        })),
        _ => Err(format!("malformed server line {line:?}")),
    }
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Poisson arrivals at `rate` (1/s) on this connection for `seconds`.
    Open { rate: f64, seconds: f64, seed: u64 },
    /// `WINDOW` requests outstanding; new sends stop after `seconds`, and
    /// at least one round of the corpus is sent.
    Closed { seconds: f64 },
}

#[derive(Debug, Default)]
struct PhaseStats {
    attempted: u64,
    failed: u64,
    /// `(key time, latency)` per served response, in seconds: keyed by
    /// due time in the open loop (latency from due to response) and by
    /// completion in the closed loop (latency from send to response).
    latency: Vec<(f64, f64)>,
    /// Seconds each send ran behind its due time (open loop).
    late: Vec<f64>,
}

impl PhaseStats {
    fn merge(&mut self, other: PhaseStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latency.extend(other.latency);
        self.late.extend(other.late);
    }
}

/// Runs one phase on every connection, one thread each, from a shared
/// start instant.
fn run_phase(s: &Served, phase: Phase) -> Result<PhaseStats, String> {
    let t0 = Instant::now();
    let results: Vec<Result<PhaseStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .conns
            .iter()
            .zip(&s.models)
            .enumerate()
            .map(|(lane, (conn, model))| {
                let phase = match phase {
                    Phase::Open {
                        rate,
                        seconds,
                        seed,
                    } => Phase::Open {
                        rate,
                        seconds,
                        seed: seed.wrapping_add(lane as u64),
                    },
                    closed => closed,
                };
                scope.spawn(move || drive(conn, model, s.proto, phase, t0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect()
    });
    let mut total = PhaseStats::default();
    for r in results {
        total.merge(r?);
    }
    Ok(total)
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> std::ffi::c_int;
}

/// Waits up to `seconds` for `conn` to turn readable. A socket read
/// timeout would round the wait up to the kernel tick (several ms), which
/// shows as generator lateness; `ppoll` waits on a high-resolution timer.
fn wait_readable(conn: &TcpStream, seconds: f64) -> Result<bool, String> {
    let mut fd = PollFd {
        fd: conn.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ns = (seconds.max(0.0) * 1e9) as i64;
    let timeout = Timespec {
        tv_sec: ns / 1_000_000_000,
        tv_nsec: ns % 1_000_000_000,
    };
    // SAFETY: `fd` and `timeout` are live, properly laid-out `struct
    // pollfd` / `struct timespec` values for the duration of the call; one
    // descriptor is passed, and a null signal mask leaves the mask as is.
    let n = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    if n < 0 {
        let e = std::io::Error::last_os_error();
        return if e.kind() == ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(format!("ppoll: {e}"))
        };
    }
    Ok(n > 0)
}

/// The load generator of one connection.
fn drive(
    mut conn: &TcpStream,
    m: &Model,
    proto: Proto,
    phase: Phase,
    t0: Instant,
) -> Result<PhaseStats, String> {
    let dues: Vec<f64> = match phase {
        Phase::Open {
            rate,
            seconds,
            seed,
        } => {
            let mut rng = DataRng::new(seed);
            let mut t = 0.0;
            let mut v = Vec::new();
            loop {
                t += -f64::from(rng.uniform(1e-7, 1.0)).ln() / rate;
                if t >= seconds {
                    break v;
                }
                v.push(t);
            }
        }
        Phase::Closed { .. } => Vec::new(),
    };
    let mut st = PhaseStats::default();
    // (corpus index, due, sent) of each outstanding request, oldest first.
    let mut outstanding: VecDeque<(usize, f64, f64)> = VecDeque::new();
    let mut buf = Vec::new();
    let mut scratch = [0u8; 16 * 1024];
    let mut next = 0usize;
    loop {
        let now = t0.elapsed().as_secs_f64();
        let can_send = match phase {
            Phase::Open { .. } => next < dues.len() && dues[next] <= now,
            Phase::Closed { seconds } => {
                outstanding.len() < WINDOW && (now < seconds || next < m.wire.len())
            }
        };
        if can_send {
            let idx = next % m.wire.len();
            let due = dues.get(next).copied().unwrap_or(now);
            conn.write_all(&m.wire[idx]).map_err(err)?;
            let sent = t0.elapsed().as_secs_f64();
            st.late.push(sent - due);
            outstanding.push_back((idx, due, sent));
            st.attempted += 1;
            next += 1;
            continue;
        }
        if outstanding.is_empty() {
            let finished = match phase {
                Phase::Open { .. } => next >= dues.len(),
                Phase::Closed { .. } => true,
            };
            if finished {
                return Ok(st);
            }
        }
        let wait = match phase {
            Phase::Open { .. } if next < dues.len() => (dues[next] - now).max(1e-4),
            _ => 0.05,
        };
        if outstanding.is_empty() {
            std::thread::sleep(Duration::from_secs_f64(wait));
            continue;
        }
        if !wait_readable(conn, wait)? {
            continue;
        }
        match conn.read(&mut scratch) {
            Ok(0) => return Err("server closed the connection".to_string()),
            Ok(n) => buf.extend_from_slice(&scratch[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(err(e)),
        }
        let recv = t0.elapsed().as_secs_f64();
        loop {
            let reply = match proto {
                Proto::Http => take_http(&mut buf)?,
                Proto::Line => take_line(&mut buf)?,
            };
            let Some(reply) = reply else { break };
            let pos = match reply.tag {
                Some(tag) => outstanding.iter().position(|&(i, _, _)| i == tag),
                None => (!outstanding.is_empty()).then_some(0),
            }
            .ok_or("response matches no outstanding request")?;
            let (idx, due, sent) = outstanding.remove(pos).ok_or("outstanding vanished")?;
            if !reply.served {
                st.failed += 1;
                continue;
            }
            checks::check_served(reply.correct, reply.bits, m.expected[idx])
                .map_err(|e| format!("{} query {idx}: {e}", m.name))?;
            st.latency.push(match phase {
                Phase::Open { .. } => (due, recv - due),
                Phase::Closed { .. } => (recv, recv - sent),
            });
        }
    }
}

struct Phases {
    a: PhaseStats,
    b: PhaseStats,
    snapshot: MetricsSnapshot,
}

fn phases(s: &mut Served, seed: u64, seconds: f64, rate: f64) -> Result<Phases, String> {
    let a = run_phase(
        s,
        Phase::Open {
            rate: rate / s.conns.len() as f64,
            seconds: seconds * PHASE_A_SHARE,
            seed,
        },
    )?;
    let b = run_phase(
        s,
        Phase::Closed {
            seconds: seconds * (1.0 - PHASE_A_SHARE),
        },
    )?;
    let snapshot = s.shutdown()?;
    Ok(Phases { a, b, snapshot })
}

/// Entry point of a fabric shard worker: `<addr> <shard_id> <speedup>
/// <spec-json>`, as `Runtime::serve_fabric` appends them.
pub fn worker_main(args: &[String]) -> Result<(), String> {
    let [addr, shard, speedup, spec] = args else {
        return Err(format!("worker needs 4 operands, got {}", args.len()));
    };
    pimdl_serve::fabric::shard_worker_main(
        addr,
        shard.parse().map_err(err)?,
        speedup.parse().map_err(err)?,
        spec,
    )
    .map_err(err)
}

/// Times `rounds` passes of `f` over every item, returning mean
/// microseconds per call.
fn per_call_us<T>(
    items: &[T],
    rounds: usize,
    mut f: impl FnMut(&T) -> Result<(), String>,
) -> Result<f64, String> {
    let t0 = Instant::now();
    for _ in 0..rounds {
        for it in items {
            f(it)?;
        }
    }
    Ok(t0.elapsed().as_secs_f64() / (rounds * items.len()) as f64 * 1e6)
}

/// Replays the calls one request crosses on the server, over model A's
/// corpus, timing each call's loop from outside. Returns the tracing
/// overhead of the HTTP and the fabric path: the summed per-call times
/// against one untimed loop making the same calls, in percent.
fn replay_layers(s: &Served, seconds: f64, out: &mut Outcome) -> Result<(f64, f64), String> {
    let m = &s.models[0];
    let reqs: Vec<Request> = m
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            m.replica
                .request_from_indices(i as u64, 0.0, f64::INFINITY, q.clone())
        })
        .collect::<Result<_, _>>()
        .map_err(err)?;
    let wire: Vec<Vec<u8>> = m
        .queries
        .iter()
        .map(|q| http_request(&m.name, "gold", q))
        .collect();
    let bodies: Vec<Vec<u8>> = m
        .queries
        .iter()
        .map(|q| {
            q.iter()
                .map(u16::to_string)
                .collect::<Vec<_>>()
                .join(",")
                .into_bytes()
        })
        .collect();
    let tenants: Vec<(String, TenantQuota)> = TENANTS
        .iter()
        .map(|&(t, w)| Ok((t.to_string(), TenantQuota::new(w, MAX_IN_FLIGHT)?)))
        .collect::<Result<_, pimdl_engine::EngineError>>()
        .map_err(err)?;
    let policy = BatchingPolicy {
        max_batch: MAX_BATCH,
        max_wait_s: MAX_WAIT_S,
    };
    let mut batcher = FairBatcher::new(policy, 512, &tenants, None).map_err(err)?;
    let batches: Vec<&[Request]> = reqs.chunks(MAX_BATCH).collect();
    let frames: Vec<Frame> = batches
        .iter()
        .enumerate()
        .map(|(i, b)| Frame::Execute {
            batch_id: i as u64,
            service_s: 1e-3,
            table: "table-0".to_string(),
            requests: b.to_vec(),
        })
        .collect();

    let parse = |bytes: &Vec<u8>| -> Result<(), String> {
        let mut p = HttpParser::new(HttpLimits::default());
        p.push(bytes);
        match p.next_request() {
            Ok(Some(_)) => Ok(()),
            other => Err(format!("request did not parse: {other:?}")),
        }
    };
    let body = |b: &Vec<u8>| http::parse_infer_body(b).map(|_| ()).map_err(err);
    let checksum = |r: &Request| -> Result<(), String> {
        let c = m.replica.checksum_of(&r.indices).map_err(err)?;
        let want = m.expected[r.id as usize % m.expected.len()];
        (c.to_bits() == want.to_bits())
            .then_some(())
            .ok_or_else(|| "checksum_of disagrees with the reference".to_string())
    };
    let execute = |r: &Request| -> Result<(), String> {
        m.replica
            .execute(r)
            .map_err(err)?
            .then_some(())
            .ok_or_else(|| "execute reported a mismatch".to_string())
    };
    let batch = |b: &&[Request]| -> Result<(), String> {
        let flags = m.replica.execute_batch(b).map_err(err)?;
        flags
            .iter()
            .all(|&f| f)
            .then_some(())
            .ok_or_else(|| "execute_batch reported a mismatch".to_string())
    };
    let mut admit = |r: &Request| -> Result<(), String> {
        let tenant = TENANTS[r.id as usize % TENANTS.len()].0;
        batcher
            .admit(TaggedJob {
                request: r.clone(),
                tenant: tenant.to_string(),
                model: m.name.clone(),
            })
            .map_err(|(_, why)| format!("admit refused: {why:?}"))?;
        let (_, jobs) = batcher.take_batch().ok_or("take_batch returned nothing")?;
        for j in jobs {
            batcher.release(&j.tenant);
        }
        Ok(())
    };
    let encode = |c: &f64| -> Result<(), String> {
        let body = http::infer_result_body(true, c.to_bits());
        let bytes = http::encode_response(200, "application/json", &body, true);
        (!bytes.is_empty())
            .then_some(())
            .ok_or_else(|| "empty response".to_string())
    };
    let frame = |f: &Frame| -> Result<(), String> {
        let bytes = f.encode().map_err(err)?;
        let mut d = FrameDecoder::new();
        d.push(&bytes);
        match d.next_frame().map_err(err)? {
            Some(back) if &back == f => Ok(()),
            _ => Err("frame did not round-trip".to_string()),
        }
    };
    let line = |q: &Vec<u16>| -> Result<(), String> {
        let bytes = codec::encode_query_for("q0", q, Some("table-0"));
        let mut lines = LineBuffer::new();
        lines.push(&bytes);
        let l = lines.pop_line().map_err(err)?.ok_or("no line")?;
        let parsed = codec::parse_query(&l).map_err(err)?;
        (parsed.indices == *q)
            .then_some(())
            .ok_or_else(|| "query did not round-trip".to_string())
    };

    // Untimed loops over the same calls, one request after another: the
    // HTTP path (parse, body, admit, checksum, execute, encode) and the
    // fabric path (line, admit, checksum, frame per batch, execute).
    let n = reqs.len();
    let http_pass = |admit: &mut dyn FnMut(&Request) -> Result<(), String>| -> Result<f64, String> {
        let t0 = Instant::now();
        for i in 0..n {
            parse(&wire[i])?;
            body(&bodies[i])?;
            admit(&reqs[i])?;
            checksum(&reqs[i])?;
            execute(&reqs[i])?;
            encode(&m.expected[i])?;
        }
        Ok(t0.elapsed().as_secs_f64() / n as f64 * 1e6)
    };
    let fabric_pass =
        |admit: &mut dyn FnMut(&Request) -> Result<(), String>| -> Result<f64, String> {
            let t0 = Instant::now();
            for i in 0..n {
                line(&m.queries[i])?;
                admit(&reqs[i])?;
                checksum(&reqs[i])?;
                if i % MAX_BATCH == 0 {
                    frame(&frames[i / MAX_BATCH])?;
                }
                execute(&reqs[i])?;
            }
            Ok(t0.elapsed().as_secs_f64() / n as f64 * 1e6)
        };
    // Rounds sized from one untimed pass so each half lasts about
    // `seconds / 2`.
    let pass_us = http_pass(&mut admit)?;
    let rounds = ((seconds / 4.0 / (pass_us * 1e-6 * n as f64)) as usize).max(1);
    let mut http_untraced = Vec::new();
    let mut fabric_untraced = Vec::new();
    for _ in 0..rounds {
        http_untraced.push(http_pass(&mut admit)?);
        fabric_untraced.push(fabric_pass(&mut admit)?);
    }

    let parse_us = per_call_us(&wire, rounds, parse)?;
    let body_us = per_call_us(&bodies, rounds, body)?;
    let checksum_us = per_call_us(&reqs, rounds, checksum)?;
    let execute_us = per_call_us(&reqs, rounds, execute)?;
    let batch_us = per_call_us(&batches, rounds, batch)?;
    let admit_us = per_call_us(&reqs, rounds, &mut admit)?;
    let encode_us = per_call_us(&m.expected, rounds, encode)?;
    let frame_us = per_call_us(&frames, rounds, frame)?;
    let line_us = per_call_us(&m.queries, rounds, line)?;

    out.push("http.parse_us", parse_us, "us");
    out.push("http.body_us", body_us, "us");
    out.push("shard.checksum_us", checksum_us, "us");
    out.push("shard.execute_us", execute_us, "us");
    out.push("shard.batch_us", batch_us, "us");
    out.push("registry.admit_us", admit_us, "us");
    out.push("http.encode_us", encode_us, "us");
    out.push("fabric.frame_us", frame_us, "us");
    out.push("codec.line_us", line_us, "us");
    out.push(
        "serve.service_ms",
        s.rt.service_model().batch_service_s(1).map_err(err)? * 1e3,
        "ms",
    );
    let http_traced = parse_us + body_us + admit_us + checksum_us + execute_us + encode_us;
    let fabric_traced = line_us + admit_us + checksum_us + frame_us / MAX_BATCH as f64 + execute_us;
    Ok((
        (http_traced / stats::median(&http_untraced) - 1.0) * 100.0,
        (fabric_traced / stats::median(&fabric_untraced) - 1.0) * 100.0,
    ))
}

/// The load generator's figures and the server's counters of one traced
/// served run. Counters that grow with the load are divided by the
/// requests or batches they served, so a faster server does not read as
/// a regression.
fn push_counters(suffix: &str, p: &Phases, speedup: f64, out: &mut Outcome) {
    out.attempted += p.a.attempted + p.b.attempted;
    out.failed += p.a.failed + p.b.failed;
    let snap = &p.snapshot;
    let mut late = p.a.late.clone();
    late.sort_by(f64::total_cmp);
    let late_p90_ms = stats::quantile(&late, 0.9) * 1e3;
    println!(
        "{suffix}: phase A (open loop): {} attempted, {} failed, generator late p50 {:.3} ms p90 {late_p90_ms:.3} ms; \
         phase B (closed loop, window {WINDOW}): {} attempted, {} failed; \
         server histogram (bucket-edge quantiles, reference only, wall time): p50 {:.3} ms, p95 {:.3} ms over {} completed",
        p.a.attempted,
        p.a.failed,
        stats::quantile(&late, 0.5) * 1e3,
        p.b.attempted,
        p.b.failed,
        snap.p50_latency_s / speedup * 1e3,
        snap.p95_latency_s / speedup * 1e3,
        snap.completed,
    );
    let per = |count: u64, of: u64| count as f64 / of.max(1) as f64;
    out.push(format!("loadgen.late_p90_ms.{suffix}"), late_p90_ms, "ms");
    out.push(format!("serve.mean_batch.{suffix}"), snap.mean_batch, "count");
    out.push(
        format!("serve.queue_depth_peak.{suffix}"),
        snap.queue_depth_peak as f64,
        "count",
    );
    out.push(
        format!("serve.shard_wakeups_per_batch.{suffix}"),
        per(snap.shard_wakeups, snap.batches),
        "ratio",
    );
    out.push(
        format!("reactor.polls_per_req.{suffix}"),
        per(snap.reactor.polls, snap.completed),
        "ratio",
    );
    out.push(
        format!("reactor.wakeups_per_req.{suffix}"),
        per(snap.reactor.wakeups, snap.completed),
        "ratio",
    );
    out.push(
        format!("reactor.spurious_share.{suffix}"),
        per(snap.reactor.spurious_wakeups, snap.reactor.wakeups),
        "ratio",
    );
    out.push(
        format!("reactor.wake_latency_us.{suffix}"),
        // The reactor stamps on its accelerated clock: back to wall time.
        snap.reactor.mean_wake_latency_s / speedup * 1e6,
        "us",
    );
}

/// Traced run of the serving layers: the replayed per-call times for
/// about `replay_s` seconds, then the server's own counters from a run of
/// [`COUNTER_RUN_S`] seconds of each served load.
pub fn trace(seed: u64, replay_s: f64, out: &mut Outcome) -> Result<(), String> {
    let mut s = start(seed, Proto::Http)?;
    let (http_overhead, fabric_overhead) = replay_layers(&s, replay_s, out)?;
    let p = phases(&mut s, seed, COUNTER_RUN_S, HTTP_RATE)?;
    push_counters("http", &p, s.speedup, out);
    let mut f = start(seed, Proto::Line)?;
    let p = phases(&mut f, seed, COUNTER_RUN_S, FABRIC_RATE)?;
    push_counters("fabric", &p, f.speedup, out);
    out.push("trace.overhead_pct.http", http_overhead, "%");
    out.push("trace.overhead_pct.fabric", fabric_overhead, "%");
    Ok(())
}
