//! Open-loop load generation over keep-alive TCP connections.
//!
//! Arrivals are scheduled up front at fixed offsets from a start instant and striped over
//! at most `available_parallelism` client threads. A client thread never waits for a
//! reply before its next send: each thread keeps a pool of connections, writes every due
//! arrival on an idle one (opening another when all are busy), and collects replies as
//! they come. Latency is measured from each arrival's *scheduled* time, so a server stall
//! is charged to every request it delays. How late the generator itself sent, and which
//! arrivals it never sent, is recorded per arrival.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The two routes the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Route {
    Predict,
    Mine,
}

impl Route {
    pub fn label(self) -> &'static str {
        match self {
            Route::Predict => "predict",
            Route::Mine => "mine",
        }
    }
}

/// One scheduled request: when it is due, which route, and which pre-rendered request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub route: Route,
    pub request: usize,
}

/// Evenly spaced arrivals at `rate` per second over `duration`, the first at `phase`.
pub fn open_loop(rate: f64, duration: Duration, phase: Duration) -> Vec<Duration> {
    if rate <= 0.0 {
        return Vec::new();
    }
    let span = duration.saturating_sub(phase).as_secs_f64();
    let count = (span * rate).ceil().max(0.0) as u64;
    (0..count)
        .map(|i| phase + Duration::from_secs_f64(i as f64 / rate))
        .filter(|&due| due < duration)
        .collect()
}

/// Merges per-route arrival times into one schedule ordered by due time; request indices
/// count up per route in due order.
pub fn merge(routes: &[(Route, Vec<Duration>)]) -> Vec<Arrival> {
    let mut arrivals: Vec<Arrival> = routes
        .iter()
        .flat_map(|(route, dues)| {
            dues.iter().enumerate().map(|(request, &due)| Arrival {
                due,
                route: *route,
                request,
            })
        })
        .collect();
    arrivals.sort_by(|a, b| a.due.cmp(&b.due).then(a.route.cmp(&b.route)));
    arrivals
}

/// What happened to one arrival.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// When the request was written, relative to its due time (`None` = never sent).
    pub lateness: Option<Duration>,
    /// Completion relative to the due time, for a `200` reply.
    pub latency: Option<Duration>,
    /// The reply was not a `200`, the connection failed, or no reply came in time.
    pub failed: bool,
    /// The reply body, kept when the arrival was marked for checking.
    pub body: Option<Vec<u8>>,
}

/// Per-route accounting of one phase of load.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouteTally {
    pub scheduled: u64,
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub unsent: u64,
    /// Latency of each successful reply with its due time: (due s, latency ms).
    pub latencies: Vec<(f64, f64)>,
    pub lateness_ms: Vec<f64>,
    /// When the first and the last successful reply arrived, in seconds from the phase
    /// start.
    pub first_done_s: f64,
    pub last_done_s: f64,
}

impl RouteTally {
    pub fn add(&mut self, due: Duration, outcome: &Outcome) {
        self.scheduled += 1;
        match outcome.lateness {
            None => self.unsent += 1,
            Some(late) => {
                self.sent += 1;
                self.lateness_ms.push(late.as_secs_f64() * 1e3);
            }
        }
        if outcome.failed {
            self.failed += 1;
        } else if let Some(latency) = outcome.latency {
            self.succeeded += 1;
            self.latencies
                .push((due.as_secs_f64(), latency.as_secs_f64() * 1e3));
            let done = (due + latency).as_secs_f64();
            if self.succeeded == 1 || done < self.first_done_s {
                self.first_done_s = done;
            }
            self.last_done_s = self.last_done_s.max(done);
        }
    }

    /// Arrivals that failed or were never sent.
    pub fn bad(&self) -> u64 {
        self.failed + self.unsent
    }

    /// Replies per second between the first and the last successful reply.
    pub fn achieved(&self) -> f64 {
        let span = self.last_done_s - self.first_done_s;
        if self.succeeded < 2 || span <= 0.0 {
            0.0
        } else {
            (self.succeeded - 1) as f64 / span
        }
    }

    /// Latencies of successful replies, in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.latencies.iter().map(|&(_, ms)| ms).collect()
    }
}

/// Limits of one load phase.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// An arrival not sent this long after its due time is given up as unsent.
    pub give_up: Duration,
    /// Outstanding requests still unanswered this long after the last due time fail.
    pub drain: Duration,
    /// Most connections one client thread opens.
    pub max_connections: usize,
}

/// Longest a connection may sit idle before it is retired (well under the server's
/// default idle timeout of 5 s).
const MAX_IDLE: Duration = Duration::from_secs(2);

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Index (into the thread's arrival list) of the request awaiting its reply.
    pending: Option<usize>,
    /// The connection failed and is dropped.
    dead: bool,
    last_used: Instant,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
            pending: None,
            dead: false,
            last_used: Instant::now(),
        })
    }

    fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut written = 0;
        while written < bytes.len() {
            match self.stream.write(&bytes[written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(20))
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads what is available; `Ok(Some((status, body range)))` once a whole reply is in.
    fn poll(&mut self) -> std::io::Result<Option<(u16, std::ops::Range<usize>)>> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    if let Some(reply) = parse_reply(&self.buf)? {
                        return Ok(Some(reply));
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Blocks up to `timeout` for the pending reply.
    fn wait(
        &mut self,
        timeout: Duration,
    ) -> std::io::Result<Option<(u16, std::ops::Range<usize>)>> {
        self.stream.set_nonblocking(false)?;
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_micros(50))))?;
        let mut chunk = [0u8; 16 * 1024];
        let result = match self.stream.read(&mut chunk) {
            Ok(0) => Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                Ok(())
            }
            Err(e) => Err(e),
        };
        self.stream.set_nonblocking(true)?;
        result?;
        // The rest of a reply that arrived in pieces is read without blocking.
        match parse_reply(&self.buf)? {
            Some(reply) => Ok(Some(reply)),
            None => self.poll(),
        }
    }
}

/// Parses one complete HTTP/1.1 reply at the front of `buf`: its status and the byte
/// range of its body. `Ok(None)` while incomplete.
pub fn parse_reply(buf: &[u8]) -> std::io::Result<Option<(u16, std::ops::Range<usize>)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4) else {
        return Ok(None);
    };
    let head = &buf[..head_end];
    let bad = || std::io::Error::new(ErrorKind::InvalidData, "malformed reply head");
    let status: u16 = head
        .get(9..12)
        .and_then(|s| std::str::from_utf8(s).ok())
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let length = head
        .split(|&b| b == b'\n')
        .find_map(|line| {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            (line.len() > 15 && line[..15].eq_ignore_ascii_case(b"content-length:"))
                .then(|| {
                    std::str::from_utf8(&line[15..])
                        .ok()?
                        .trim()
                        .parse::<usize>()
                        .ok()
                })
                .flatten()
        })
        .ok_or_else(bad)?;
    if buf.len() < head_end + length {
        return Ok(None);
    }
    Ok(Some((status, head_end..head_end + length)))
}

/// Runs one phase: every arrival in `arrivals` is sent at `start + due` to `addr` using the
/// pre-rendered bytes `request(arrival)`; replies of arrivals for which `keep` is true are
/// returned with their outcomes. Outcomes are in `arrivals` order.
pub fn run<'a>(
    addr: &str,
    arrivals: &[Arrival],
    threads: usize,
    limits: Limits,
    request: &(dyn Fn(&Arrival) -> &'a [u8] + Sync),
    keep: &(dyn Fn(&Arrival) -> bool + Sync),
) -> Vec<Outcome> {
    let threads = threads.clamp(1, arrivals.len().max(1));
    // Connections open before the schedule starts, so set-up is not charged to it.
    let start = Instant::now() + Duration::from_millis(50);
    let last_due = arrivals.last().map_or(Duration::ZERO, |a| a.due);
    let mut outcomes = vec![Outcome::default(); arrivals.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                let mine: Vec<(usize, Arrival)> = arrivals
                    .iter()
                    .copied()
                    .enumerate()
                    .skip(k)
                    .step_by(threads)
                    .collect();
                scope.spawn(move || {
                    client(
                        addr,
                        &mine,
                        start,
                        start + last_due + limits.drain,
                        limits,
                        request,
                        keep,
                    )
                })
            })
            .collect();
        for handle in handles {
            for (index, outcome) in handle.join().expect("client thread panicked") {
                outcomes[index] = outcome;
            }
        }
    });
    outcomes
}

fn client<'a>(
    addr: &str,
    arrivals: &[(usize, Arrival)],
    start: Instant,
    deadline: Instant,
    limits: Limits,
    request: &(dyn Fn(&Arrival) -> &'a [u8] + Sync),
    keep: &(dyn Fn(&Arrival) -> bool + Sync),
) -> Vec<(usize, Outcome)> {
    let mut outcomes: Vec<Outcome> = vec![Outcome::default(); arrivals.len()];
    let mut conns: Vec<Conn> = (0..2).filter_map(|_| Conn::open(addr).ok()).collect();
    let mut next = 0;
    let finish = |conn: &mut Conn,
                  outcomes: &mut [Outcome],
                  reply: std::io::Result<Option<(u16, std::ops::Range<usize>)>>|
     -> bool {
        let Some(slot) = conn.pending else {
            return false;
        };
        match reply {
            Ok(None) => false,
            Ok(Some((status, body))) => {
                let outcome = &mut outcomes[slot];
                let (_, arrival) = arrivals[slot];
                if status == 200 {
                    outcome.latency = Some((Instant::now() - start).saturating_sub(arrival.due));
                } else {
                    outcome.failed = true;
                }
                if keep(&arrival) {
                    outcome.body = Some(conn.buf[body.clone()].to_vec());
                }
                conn.buf.drain(..body.end);
                conn.pending = None;
                conn.last_used = Instant::now();
                true
            }
            Err(_) => {
                outcomes[slot].failed = true;
                conn.pending = None;
                conn.dead = true;
                true
            }
        }
    };
    loop {
        let now = Instant::now();
        // Send every due arrival on an idle connection.
        while next < arrivals.len() {
            let (_, arrival) = arrivals[next];
            let due = start + arrival.due;
            if due > now {
                break;
            }
            if now > due + limits.give_up {
                next += 1; // never sent: `lateness` stays None
                continue;
            }
            // Connections idle long enough for the server to time them out are retired
            // rather than reused.
            for conn in conns.iter_mut().filter(|c| c.pending.is_none()) {
                conn.dead |= now.duration_since(conn.last_used) > MAX_IDLE;
            }
            let idle = match conns.iter().position(|c| c.pending.is_none() && !c.dead) {
                Some(idle) => Some(idle),
                None if conns.len() < limits.max_connections => Conn::open(addr).ok().map(|conn| {
                    conns.push(conn);
                    conns.len() - 1
                }),
                None => None,
            };
            let Some(idle) = idle else {
                break; // every connection is busy: wait for a reply first
            };
            let conn = &mut conns[idle];
            outcomes[next].lateness = Some(Instant::now().saturating_duration_since(due));
            conn.last_used = Instant::now();
            match conn.send(request(&arrival)) {
                Ok(()) => conn.pending = Some(next),
                Err(_) => {
                    outcomes[next].failed = true;
                    conn.dead = true;
                }
            }
            next += 1;
        }
        // Collect whatever replies are in.
        let mut progress = false;
        for conn in conns.iter_mut().filter(|c| c.pending.is_some()) {
            let reply = conn.poll();
            progress |= finish(conn, &mut outcomes, reply);
        }
        conns.retain(|c| !c.dead);
        let outstanding = conns.iter().filter(|c| c.pending.is_some()).count();
        if next >= arrivals.len() && outstanding == 0 {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            for conn in &conns {
                if let Some(slot) = conn.pending {
                    outcomes[slot].failed = true;
                }
            }
            break;
        }
        if progress {
            continue;
        }
        let until_send = arrivals
            .get(next)
            .map_or(deadline - now, |(_, a)| {
                (start + a.due).saturating_duration_since(now)
            })
            .min(deadline - now);
        match outstanding {
            0 => std::thread::sleep(until_send),
            1 => {
                // The common case: block on the one reply, timing it exactly.
                if let Some(conn) = conns.iter_mut().find(|c| c.pending.is_some()) {
                    let reply = conn.wait(until_send.min(Duration::from_millis(5)));
                    finish(conn, &mut outcomes, reply);
                }
            }
            _ => std::thread::sleep(until_send.min(Duration::from_micros(100))),
        }
    }
    arrivals
        .iter()
        .map(|(index, _)| *index)
        .zip(outcomes)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_spaces_arrivals_evenly_inside_the_window() {
        let dues = open_loop(4.0, Duration::from_secs(1), Duration::ZERO);
        let expected: Vec<Duration> = [0, 250, 500, 750]
            .iter()
            .map(|&ms| Duration::from_millis(ms))
            .collect();
        assert_eq!(dues, expected);
        let phased = open_loop(2.0, Duration::from_secs(2), Duration::from_millis(250));
        assert_eq!(
            phased,
            vec![
                Duration::from_millis(250),
                Duration::from_millis(750),
                Duration::from_millis(1250),
                Duration::from_millis(1750)
            ]
        );
        assert!(open_loop(0.0, Duration::from_secs(1), Duration::ZERO).is_empty());
    }

    #[test]
    fn merge_orders_by_due_time_and_numbers_requests_per_route() {
        let arrivals = merge(&[
            (
                Route::Predict,
                open_loop(2.0, Duration::from_secs(1), Duration::ZERO),
            ),
            (Route::Mine, vec![Duration::from_millis(100)]),
        ]);
        let seen: Vec<(u64, Route, usize)> = arrivals
            .iter()
            .map(|a| (a.due.as_millis() as u64, a.route, a.request))
            .collect();
        assert_eq!(
            seen,
            vec![
                (0, Route::Predict, 0),
                (100, Route::Mine, 0),
                (500, Route::Predict, 1)
            ]
        );
    }

    #[test]
    fn tally_separates_unsent_failed_and_late_arrivals() {
        let mut tally = RouteTally::default();
        tally.add(
            Duration::from_secs(1),
            &Outcome {
                lateness: Some(Duration::from_micros(100)),
                latency: Some(Duration::from_millis(2)),
                ..Outcome::default()
            },
        );
        tally.add(
            Duration::from_secs(2),
            &Outcome {
                lateness: Some(Duration::from_millis(3)),
                failed: true,
                ..Outcome::default()
            },
        );
        tally.add(Duration::from_secs(3), &Outcome::default()); // never sent
        assert_eq!(
            (
                tally.scheduled,
                tally.sent,
                tally.succeeded,
                tally.failed,
                tally.unsent
            ),
            (3, 2, 1, 1, 1)
        );
        assert_eq!(tally.bad(), 2);
        assert_eq!(tally.latencies_ms(), vec![2.0]);
        assert_eq!(tally.lateness_ms, vec![0.1, 3.0]);
        assert_eq!((tally.first_done_s, tally.last_done_s), (1.002, 1.002));
    }

    #[test]
    fn reply_parser_waits_for_the_whole_body() {
        let reply =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4\r\n\r\n{\"a\"";
        assert_eq!(parse_reply(&reply[..20]).unwrap(), None);
        assert_eq!(parse_reply(&reply[..reply.len() - 1]).unwrap(), None);
        let (status, body) = parse_reply(reply).unwrap().expect("complete");
        assert_eq!(status, 200);
        assert_eq!(&reply[body], b"{\"a\"");
        assert!(parse_reply(b"HTTP/1.1 2x0 OK\r\n\r\n").is_err());
    }

    #[test]
    fn run_charges_a_stalled_reply_to_latency_but_not_to_lateness() {
        // A one-shot server that answers its first request after 80 ms and the rest at
        // once. Open loop: the second arrival is still sent on time on a new connection.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let mut first = true;
            let mut handlers = Vec::new();
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                let delay = if first { 80 } else { 0 };
                first = false;
                handlers.push(std::thread::spawn(move || {
                    let mut buf = [0u8; 1024];
                    let mut seen = Vec::new();
                    while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                        let n = stream.read(&mut buf).unwrap();
                        seen.extend_from_slice(&buf[..n]);
                    }
                    std::thread::sleep(Duration::from_millis(delay));
                    stream
                        .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                        .unwrap();
                }));
            }
            for h in handlers {
                h.join().unwrap();
            }
        });
        let arrivals = merge(&[(
            Route::Predict,
            vec![Duration::ZERO, Duration::from_millis(20)],
        )]);
        let limits = Limits {
            give_up: Duration::from_secs(1),
            drain: Duration::from_secs(2),
            max_connections: 4,
        };
        // Only one pre-opened connection may be used per request; the test server
        // accepts exactly two, so both pre-opened connections carry one request each.
        let outcomes = run(
            &addr,
            &arrivals,
            1,
            limits,
            &|_| &b"GET / HTTP/1.1\r\n\r\n"[..],
            &|_| true,
        );
        server.join().unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| !o.failed));
        assert_eq!(outcomes[1].body.as_deref(), Some(&b"ok"[..]));
        let stalled = outcomes[0].latency.unwrap();
        let lateness = outcomes[1].lateness.unwrap();
        assert!(stalled >= Duration::from_millis(80), "{stalled:?}");
        assert!(
            lateness < Duration::from_millis(15),
            "second send waited: {lateness:?}"
        );
        assert!(outcomes[1].latency.unwrap() < Duration::from_millis(40));
    }
}
