//! The open-loop load generator.
//!
//! Requests follow a precomputed schedule of due times (a Poisson
//! process at a fixed rate), sent regardless of whether earlier requests
//! have been answered — the way independent users arrive. Each sender
//! thread owns one blocking keep-alive connection and takes every
//! `conns`-th request of the schedule, so a request that is due while
//! its connection is still busy goes out late. Every request is timed
//! from when it was due, which charges a stall to every request it
//! delays, and the generator reports how late it sent each one.

use overton::serving::net::wire::decode_predict_response;
use overton::serving::net::NetClient;
use overton::serving::{TraceReport, TraceStore};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One scheduled request: when it is due (from the schedule's start) and
/// which pre-encoded request body it sends.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub due: Duration,
    pub template: usize,
}

/// How a request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Status {
    /// Answered, and every answer passed the check.
    Ok,
    /// Turned away by admission control (`503`).
    Shed,
    /// A transport or HTTP error, or an answer that failed the check.
    Error(String),
}

/// One request's measurements.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub template: usize,
    /// How late the generator sent the request.
    pub late: Duration,
    /// From the due time to the end of reading the response.
    pub latency: Duration,
    /// When the request went out and when its response had been read.
    pub sent: Instant,
    pub done: Instant,
    pub status: Status,
    /// The server's span timeline, when the run is traced.
    pub trace: Option<TraceReport>,
    /// Client-side time spent decoding the response body.
    pub decode: Duration,
}

impl Outcome {
    pub fn failed(&self) -> bool {
        self.status != Status::Ok
    }
}

/// Checks the response body of one request against the expected one for
/// its template.
pub type Check<'a> = dyn Fn(usize, &[u8]) -> Result<(), String> + Sync + 'a;

/// The due times of a Poisson process at `rate` per second over `span`.
pub fn poisson_schedule(rate: f64, span: Duration, rng: &mut impl rand::Rng) -> Vec<Duration> {
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        t += -u.ln() / rate;
        if t >= span.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// Busy-waits, yielding, until `at`. A sleeping sender would let the
/// client's cores halt between requests, and on a virtual machine waking
/// a halted core can cost more than serving a request, by an amount that
/// varies with the host's load; spinning keeps that cost out of the
/// latencies.
fn wait_until(at: Instant) {
    while Instant::now() < at {
        std::thread::yield_now();
    }
}

/// Sends `plan` to `addr` over `conns` connections (one sender thread
/// each) and returns one outcome per planned request, in plan order.
/// `traces`, when given, tags every request with an `x-overton-trace`
/// id and collects the server's span timeline for it.
pub fn run_open_loop(
    addr: SocketAddr,
    bodies: &[Vec<u8>],
    plan: &[Planned],
    conns: usize,
    check: &Check,
    traces: Option<&Arc<TraceStore>>,
) -> Vec<Outcome> {
    let conns = conns.max(1);
    // A common origin a little in the future, so every sender is ready
    // before the first request falls due.
    let origin = Instant::now() + Duration::from_millis(20);
    let mut per_thread: Vec<Vec<(usize, Outcome)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = connect(addr);
                    let mut out = Vec::new();
                    for (i, p) in plan.iter().enumerate().skip(c).step_by(conns) {
                        let due_at = origin + p.due;
                        wait_until(due_at);
                        let sent = Instant::now();
                        let id = traces.map(|_| format!("pb-{i}"));
                        let mut outcome =
                            send(&mut client, &bodies[p.template], id.as_deref(), check, p);
                        outcome.done = Instant::now();
                        outcome.sent = sent;
                        outcome.latency = outcome.done.saturating_duration_since(due_at);
                        outcome.late = sent.saturating_duration_since(due_at);
                        if let (Some(store), Some(id)) = (traces, &id) {
                            outcome.trace = store.get(id);
                        }
                        if matches!(outcome.status, Status::Error(_)) {
                            // The connection state is unknown after a
                            // failed exchange; start a fresh one.
                            client = connect(addr);
                        }
                        out.push((i, outcome));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sender thread panicked")).collect()
    });
    let mut all: Vec<(usize, Outcome)> = per_thread.drain(..).flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, o)| o).collect()
}

fn connect(addr: SocketAddr) -> NetClient {
    NetClient::connect_with_timeout(addr, Duration::from_secs(10)).expect("connect to the server")
}

fn send(
    client: &mut NetClient,
    body: &[u8],
    trace: Option<&str>,
    check: &Check,
    planned: &Planned,
) -> Outcome {
    let headers: Vec<(&str, &str)> = trace.map(|id| ("x-overton-trace", id)).into_iter().collect();
    let mut outcome = Outcome {
        template: planned.template,
        late: Duration::ZERO,
        latency: Duration::ZERO,
        sent: Instant::now(),
        done: Instant::now(),
        status: Status::Ok,
        trace: None,
        decode: Duration::ZERO,
    };
    outcome.status = match client.request_with("POST", "/predict", Some(body), &headers) {
        Ok(response) if response.status == 200 => {
            let start = Instant::now();
            let decoded = decode_predict_response(&response.body);
            outcome.decode = start.elapsed();
            match decoded.and_then(|_| check(planned.template, &response.body)) {
                Ok(()) => Status::Ok,
                Err(e) => Status::Error(e),
            }
        }
        Ok(response) if response.status == 503 => Status::Shed,
        Ok(response) => Status::Error(format!("HTTP {}", response.status)),
        Err(e) => Status::Error(e.to_string()),
    };
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;

    /// A stub HTTP server that answers every request after a fixed delay,
    /// one connection per thread, until the listener is dropped.
    fn stub_server(delay: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    loop {
                        let mut len = 0;
                        let mut line = String::new();
                        loop {
                            line.clear();
                            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                                return;
                            }
                            if let Some(v) =
                                line.to_ascii_lowercase().strip_prefix("content-length:")
                            {
                                len = v.trim().parse().unwrap();
                            }
                            if line == "\r\n" {
                                break;
                            }
                        }
                        let mut body = vec![0; len];
                        reader.read_exact(&mut body).unwrap();
                        std::thread::sleep(delay);
                        let reply = "{\"results\":[]}";
                        let head = format!(
                            "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{reply}",
                            reply.len()
                        );
                        if writer.write_all(head.as_bytes()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    fn run(delay_ms: u64, rate: f64, secs: f64, conns: usize) -> Vec<Outcome> {
        let addr = stub_server(Duration::from_millis(delay_ms));
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let plan: Vec<Planned> = poisson_schedule(rate, Duration::from_secs_f64(secs), &mut rng)
            .into_iter()
            .map(|due| Planned { due, template: 0 })
            .collect();
        let ok: &Check = &|_, _| Ok(());
        run_open_loop(addr, &[b"{}".to_vec()], &plan, conns, ok, None)
    }

    fn median(mut v: Vec<f64>) -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }

    #[test]
    fn below_capacity_latency_is_the_stub_delay() {
        // 20 req/s over 2 connections against a 5 ms server: the
        // connections are mostly idle, so requests go out on time and
        // take the fixed delay.
        let out = run(5, 20.0, 1.5, 2);
        assert!(out.len() > 10);
        assert!(out.iter().all(|o| o.status == Status::Ok));
        let lat = median(out.iter().map(|o| o.latency.as_secs_f64() * 1e3).collect());
        assert!((5.0..8.0).contains(&lat), "median latency {lat} ms");
        let late = median(out.iter().map(|o| o.late.as_secs_f64() * 1e3).collect());
        assert!(late < 1.0, "median lateness {late} ms");
    }

    #[test]
    fn above_capacity_lateness_grows_and_counts_in_latency() {
        // One connection can do at most 100 req/s against a 10 ms
        // server; offering 300 req/s makes the backlog (and each
        // request's lateness) grow through the run, and the latency
        // timed from the due time includes that wait.
        let out = run(10, 300.0, 1.0, 1);
        let half = out.len() / 2;
        let first = median(out[..half].iter().map(|o| o.late.as_secs_f64()).collect());
        let second = median(out[half..].iter().map(|o| o.late.as_secs_f64()).collect());
        assert!(second > first + 0.1, "lateness did not grow: {first} -> {second}");
        for o in &out {
            assert!(o.latency >= o.late + Duration::from_millis(10));
        }
    }
}
