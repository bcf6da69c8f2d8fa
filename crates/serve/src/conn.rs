//! Per-connection HTTP state machine for the event-loop transport.
//!
//! A [`Connection`] owns no socket — it is a pure byte-in/byte-out machine the reactor
//! drives: readable bytes go in through [`Connection::ingest`], complete requests come out
//! of [`Connection::next_request`], responses are queued with [`Connection::queue_response`]
//! / [`Connection::fail_and_close`], and pending output is flushed from
//! [`Connection::pending_write`]. Keeping it socket-free makes keep-alive, pipelining,
//! oversized-body draining and close semantics unit-testable without a network.
//!
//! Pipelining discipline: requests are parsed strictly one at a time — while one request
//! is in flight (`busy`), later buffered bytes wait. Responses therefore go out in request
//! order, which is the entirety of what HTTP/1.1 pipelining requires of a server.

use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::http::{self, Parsed, Request};

/// Bounded drain of an oversized declared body: bytes up to this are discarded so the 413
/// survives the close (closing with unread input makes the kernel send RST, which would
/// tear the response away from the client); past it we accept the RST.
const DRAIN_LIMIT: usize = 8 * 1024 * 1024;

/// The HTTP state of one client connection.
pub(crate) struct Connection {
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    written: usize,
    /// Bytes of an oversized body still to discard before the pending 413 goes out.
    drain_remaining: usize,
    /// The response to queue once the drain completes.
    after_drain: Option<(u16, String)>,
    /// A request has been handed off for handling; parsing is paused until its response
    /// is queued.
    busy: bool,
    /// The in-flight request asked for `Connection: close`.
    pending_close: bool,
    close_after_write: bool,
    peer_closed: bool,
    requests_parsed: u64,
    /// Statuses of protocol-level error responses (400/413) queued by the state machine
    /// itself; the transport drains these into the route error counters, since such
    /// requests never reach the dispatch layer that normally records them.
    queued_errors: Vec<u16>,
    /// Last moment bytes arrived or a response was queued (drives the idle timeout).
    last_activity: Instant,
    /// When the first byte of the request currently being received arrived — the start of
    /// the `recv_parse` latency span.
    recv_started: Option<Instant>,
    /// The `recv_started` of the request just returned by [`Connection::next_request`],
    /// handed to the transport through [`Connection::take_recv_started`].
    parsed_recv_started: Option<Instant>,
}

impl Connection {
    pub(crate) fn new(now: Instant) -> Connection {
        Connection {
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            drain_remaining: 0,
            after_drain: None,
            busy: false,
            pending_close: false,
            close_after_write: false,
            peer_closed: false,
            requests_parsed: 0,
            queued_errors: Vec::new(),
            last_activity: now,
            recv_started: None,
            parsed_recv_started: None,
        }
    }

    /// Appends bytes read from the socket.
    pub(crate) fn ingest(&mut self, bytes: &[u8], now: Instant) {
        if self.recv_started.is_none() && !bytes.is_empty() {
            self.recv_started = Some(now);
        }
        self.read_buf.extend_from_slice(bytes);
        self.last_activity = now;
    }

    /// Records that the peer sent EOF (no more bytes will arrive).
    pub(crate) fn mark_peer_closed(&mut self) {
        self.peer_closed = true;
    }

    /// Whether the reactor should keep reading: not past the buffer cap, and the peer is
    /// still open. The cap bounds per-connection memory; bytes beyond it wait in the
    /// kernel buffer (TCP back-pressure) until parsing catches up.
    pub(crate) fn wants_read(&self, max_body_bytes: usize) -> bool {
        !self.peer_closed && self.read_buf.len() < http::MAX_HEADER_BYTES + max_body_bytes + 4096
    }

    /// Advances the state machine: returns the next complete request to dispatch, or
    /// `None` when waiting (for bytes, for the in-flight response, or while draining an
    /// oversized body — in which case error responses may have been queued as a side
    /// effect). Call in a loop after every ingest and after every queued response.
    pub(crate) fn next_request(&mut self, max_body_bytes: usize) -> Option<Request> {
        loop {
            if self.busy || self.close_after_write {
                return None;
            }
            if self.drain_remaining > 0 {
                let take = self.drain_remaining.min(self.read_buf.len());
                self.read_buf.drain(..take);
                self.drain_remaining -= take;
                if self.drain_remaining > 0 {
                    if self.peer_closed {
                        // The full body will never arrive; give up on the clean close.
                        self.drain_remaining = 0;
                    } else {
                        return None;
                    }
                }
                if let Some((status, body)) = self.after_drain.take() {
                    self.fail_and_close(status, &body, None);
                }
                return None;
            }
            match http::parse_request(&self.read_buf, max_body_bytes) {
                Ok(Parsed::Complete { request, consumed }) => {
                    self.read_buf.drain(..consumed);
                    self.requests_parsed += 1;
                    self.pending_close = request.close;
                    self.busy = true;
                    self.parsed_recv_started = self.recv_started.take();
                    return Some(request);
                }
                Ok(Parsed::Partial) => {
                    if self.peer_closed && !self.read_buf.is_empty() {
                        let e = ServeError::BadRequest("connection closed mid-request".into());
                        self.fail_and_close(e.status(), &e.to_body(), None);
                    }
                    return None;
                }
                Ok(Parsed::Oversized {
                    consumed,
                    body_bytes,
                }) => {
                    self.read_buf.drain(..consumed);
                    self.drain_remaining = body_bytes.min(DRAIN_LIMIT);
                    let e = ServeError::PayloadTooLarge {
                        limit_bytes: max_body_bytes,
                    };
                    self.after_drain = Some((e.status(), e.to_body()));
                    continue;
                }
                Err(e) => {
                    self.fail_and_close(e.status(), &e.to_body(), e.retry_after());
                    return None;
                }
            }
        }
    }

    /// When the first byte of the request just parsed arrived (consumed on read; the
    /// transport turns it into the `recv_parse` span). `None` when the request's bytes
    /// were already buffered when parsing ran (pipelined follow-ups).
    pub(crate) fn take_recv_started(&mut self) -> Option<Instant> {
        self.parsed_recv_started.take()
    }

    /// Queues the response to the in-flight request, honoring its keep-alive preference,
    /// and resumes parsing. `requests_parsed` beyond the first on this connection are
    /// keep-alive reuses.
    pub(crate) fn queue_response(
        &mut self,
        status: u16,
        body: &str,
        retry_after_secs: Option<u64>,
        content_type: &str,
    ) {
        let keep_alive = !self.pending_close;
        self.write_buf.extend_from_slice(
            http::render_response(status, body, keep_alive, retry_after_secs, content_type)
                .as_bytes(),
        );
        self.busy = false;
        self.last_activity = Instant::now();
        if !keep_alive {
            self.close_after_write = true;
        }
    }

    /// Queues a connection-terminating response (framing errors, oversized bodies): the
    /// response goes out with `Connection: close`, buffered input is discarded, and the
    /// connection closes once flushed.
    pub(crate) fn fail_and_close(
        &mut self,
        status: u16,
        body: &str,
        retry_after_secs: Option<u64>,
    ) {
        self.write_buf.extend_from_slice(
            http::render_response(
                status,
                body,
                false,
                retry_after_secs,
                http::CONTENT_TYPE_JSON,
            )
            .as_bytes(),
        );
        self.busy = false;
        self.close_after_write = true;
        self.read_buf.clear();
        self.queued_errors.push(status);
        self.last_activity = Instant::now();
    }

    /// Drains the statuses of error responses the state machine queued on its own (so the
    /// transport can count them in the route error counters).
    pub(crate) fn take_errors(&mut self) -> Vec<u16> {
        std::mem::take(&mut self.queued_errors)
    }

    /// Unflushed response bytes.
    pub(crate) fn pending_write(&self) -> &[u8] {
        &self.write_buf[self.written..]
    }

    /// Whether response bytes are waiting to be flushed.
    pub(crate) fn wants_write(&self) -> bool {
        self.written < self.write_buf.len()
    }

    /// Records `n` bytes flushed to the socket.
    pub(crate) fn advance_write(&mut self, n: usize) {
        self.written += n;
        if self.written >= self.write_buf.len() {
            self.write_buf.clear();
            self.written = 0;
        }
    }

    /// Whether the connection is done and should be closed: its closing response is fully
    /// flushed, or the peer is gone with nothing in flight to answer.
    pub(crate) fn finished(&self) -> bool {
        if self.wants_write() {
            return false;
        }
        if self.close_after_write {
            return true;
        }
        self.peer_closed && !self.busy
    }

    /// Whether a request is currently being handled.
    pub(crate) fn busy(&self) -> bool {
        self.busy
    }

    /// Requests parsed so far (reuses = parsed − 1).
    pub(crate) fn requests_parsed(&self) -> u64 {
        self.requests_parsed
    }

    /// Whether the connection has sat idle past the timeout. In-flight requests are
    /// exempt: slow handling is the handler pool's business, not the client's fault —
    /// the timeout targets idle keep-alive connections and slowloris-style dribbled
    /// headers.
    pub(crate) fn idle_expired(&self, now: Instant, timeout: Duration) -> bool {
        !self.busy && now.duration_since(self.last_activity) > timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn conn() -> Connection {
        Connection::new(Instant::now())
    }

    fn drive(conn: &mut Connection, bytes: &[u8]) -> Option<Request> {
        conn.ingest(bytes, Instant::now());
        conn.next_request(1024)
    }

    fn flush_all(conn: &mut Connection) -> String {
        let out = String::from_utf8(conn.pending_write().to_vec()).unwrap();
        let n = conn.pending_write().len();
        conn.advance_write(n);
        out
    }

    #[test]
    fn recv_started_tracks_first_byte_of_each_request() {
        let mut c = conn();
        assert!(c.take_recv_started().is_none(), "nothing parsed yet");
        let first_byte = Instant::now();
        c.ingest(b"GET /health", first_byte);
        // Later bytes of the same request must not move the start-of-receive mark.
        c.ingest(b"z HTTP/1.1\r\n\r\n", Instant::now());
        assert!(c.next_request(1024).is_some());
        assert_eq!(
            c.take_recv_started(),
            Some(first_byte),
            "the mark is the FIRST byte's arrival"
        );
        assert!(c.take_recv_started().is_none(), "take is a take, not a get");

        // A second keep-alive request gets its own mark.
        c.queue_response(200, "{}", None, http::CONTENT_TYPE_JSON);
        flush_all(&mut c);
        let second_byte = Instant::now();
        c.ingest(b"GET /models HTTP/1.1\r\n\r\n", second_byte);
        assert!(c.next_request(1024).is_some());
        assert_eq!(c.take_recv_started(), Some(second_byte));
    }

    #[test]
    fn keep_alive_sequence_parses_requests_in_turn() {
        let mut c = conn();
        let request = drive(&mut c, b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(request.path, "/healthz");
        assert!(c.busy());
        assert!(c.next_request(1024).is_none(), "busy until response queued");

        c.queue_response(200, "{}", None, http::CONTENT_TYPE_JSON);
        assert!(!c.busy());
        let out = flush_all(&mut c);
        assert!(out.contains("Connection: keep-alive"));
        assert!(!c.finished(), "keep-alive connection stays open");

        let request = drive(&mut c, b"GET /models HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(request.path, "/models");
        assert_eq!(c.requests_parsed(), 2);
    }

    #[test]
    fn pipelined_requests_come_out_strictly_in_order() {
        let mut c = conn();
        let wire = b"POST /predict HTTP/1.1\r\nContent-Length: 3\r\n\r\none\
                     POST /predict HTTP/1.1\r\nContent-Length: 3\r\n\r\ntwo";
        let first = drive(&mut c, wire).unwrap();
        assert_eq!(first.body, "one");
        assert!(c.next_request(1024).is_none(), "second waits for first");
        c.queue_response(200, "r1", None, http::CONTENT_TYPE_JSON);
        let second = c.next_request(1024).unwrap();
        assert_eq!(second.body, "two");
        c.queue_response(200, "r2", None, http::CONTENT_TYPE_JSON);
        let out = flush_all(&mut c);
        let p1 = out.find("r1").unwrap();
        let p2 = out.find("r2").unwrap();
        assert!(p1 < p2, "responses flush in request order");
    }

    #[test]
    fn connection_close_request_closes_after_response() {
        let mut c = conn();
        let request = drive(
            &mut c,
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        assert!(request.close);
        c.queue_response(200, "{}", None, http::CONTENT_TYPE_JSON);
        assert!(!c.finished(), "response must flush first");
        let out = flush_all(&mut c);
        assert!(out.contains("Connection: close"));
        assert!(c.finished());
    }

    #[test]
    fn oversized_body_is_drained_then_answered_with_413() {
        let mut c = conn();
        // Declared 2000-byte body against a 1024 cap, delivered in two chunks.
        c.ingest(
            b"POST /predict HTTP/1.1\r\nContent-Length: 2000\r\n\r\n",
            Instant::now(),
        );
        c.ingest(&vec![b'x'; 1500], Instant::now());
        assert!(c.next_request(1024).is_none());
        assert!(!c.wants_write(), "413 held back until the body is drained");
        c.ingest(&vec![b'x'; 500], Instant::now());
        assert!(c.next_request(1024).is_none());
        let out = flush_all(&mut c);
        assert!(out.contains("413"));
        assert!(out.contains("payload_too_large"));
        assert!(c.finished(), "413 closes the connection");
    }

    #[test]
    fn oversized_body_cut_short_by_peer_close_still_answers() {
        let mut c = conn();
        c.ingest(
            b"POST /predict HTTP/1.1\r\nContent-Length: 2000\r\n\r\nonly-this",
            Instant::now(),
        );
        assert!(c.next_request(1024).is_none());
        c.mark_peer_closed();
        assert!(c.next_request(1024).is_none());
        assert!(flush_all(&mut c).contains("413"));
    }

    #[test]
    fn malformed_request_fails_and_closes() {
        let mut c = conn();
        assert!(drive(&mut c, b"GET / SPDY/9\r\n\r\n").is_none());
        let out = flush_all(&mut c);
        assert!(out.contains("400"));
        assert!(out.contains("Connection: close"));
        assert!(c.finished());
    }

    #[test]
    fn partial_header_then_eof_is_a_400() {
        let mut c = conn();
        assert!(drive(&mut c, b"GET /healthz HT").is_none());
        assert!(!c.wants_write());
        c.mark_peer_closed();
        assert!(c.next_request(1024).is_none());
        assert!(flush_all(&mut c).contains("connection closed mid-request"));
    }

    #[test]
    fn quiet_peer_close_finishes_without_a_response() {
        let mut c = conn();
        c.mark_peer_closed();
        assert!(c.next_request(1024).is_none());
        assert!(!c.wants_write());
        assert!(c.finished());
    }

    #[test]
    fn idle_timeout_spares_busy_connections() {
        let mut c = conn();
        let early = Instant::now();
        drive(
            &mut c,
            b"POST /predict HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
        )
        .unwrap();
        let later = early + Duration::from_secs(60);
        assert!(
            !c.idle_expired(later, Duration::from_secs(5)),
            "in-flight request is exempt"
        );
        c.queue_response(200, "{}", None, http::CONTENT_TYPE_JSON);
        assert!(
            c.idle_expired(later + Duration::from_secs(60), Duration::from_secs(5)),
            "idle keep-alive connection expires"
        );
    }

    #[test]
    fn read_cap_applies_back_pressure() {
        let mut c = conn();
        assert!(c.wants_read(1024));
        c.ingest(
            &vec![b'x'; http::MAX_HEADER_BYTES + 1024 + 4096 + 1],
            Instant::now(),
        );
        assert!(!c.wants_read(1024));
    }

    /// Feeds `chunks` in turn, answering every request that comes out so the next one can
    /// parse; returns the connection and the requests in order.
    fn drive_chunks(chunks: &[&[u8]]) -> (Connection, Vec<Request>) {
        let mut c = conn();
        let mut requests = Vec::new();
        for chunk in chunks {
            c.ingest(chunk, Instant::now());
            while let Some(request) = c.next_request(1024) {
                requests.push(request);
                c.queue_response(200, "{}", None, http::CONTENT_TYPE_JSON);
            }
        }
        (c, requests)
    }

    /// `wire` cut at each of `cuts` (reduced modulo its length + 1).
    fn split_at<'a>(wire: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
        let mut at: Vec<usize> = cuts.iter().map(|cut| cut % (wire.len() + 1)).collect();
        at.sort_unstable();
        let mut chunks = Vec::new();
        let mut from = 0;
        for to in at.into_iter().chain([wire.len()]) {
            chunks.push(&wire[from..to]);
            from = to;
        }
        chunks
    }

    /// HTTP fragments the arbitrary-bytes property splices between raw bytes, so its
    /// inputs reach header parsing, body framing and the oversized-body drain, not only
    /// the request-line scan that uniform bytes almost never get past.
    const FRAGMENTS: [&[u8]; 12] = [
        b"\r\n",
        b"\r\n\r\n",
        b" ",
        b": ",
        b"GET / HTTP/1.1",
        b"POST /predict HTTP/1.0",
        b"Content-Length: ",
        b"Transfer-Encoding: chunked",
        b"Connection: close",
        b"99999",
        b"12",
        b"+3",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn split_pipelined_requests_parse_like_the_whole_run(
            (specs, cuts) in (1usize..=4).prop_flat_map(|n| (
                prop::collection::vec(
                    (0usize..3, prop::bool::ANY, 0usize..48, 0u8..95),
                    n,
                ),
                (0usize..=12).prop_flat_map(|k| prop::collection::vec(0usize..4_096, k)),
            ))
        ) {
            let routes = [("POST", "/predict"), ("POST", "/mine"), ("GET", "/healthz")];
            let mut wire = Vec::new();
            for &(route, keep_alive, len, seed) in &specs {
                let (method, path) = routes[route];
                let body: String = (0..len)
                    .map(|i| char::from(b' ' + ((usize::from(seed) + 7 * i) % 95) as u8))
                    .collect();
                wire.extend(
                    format!(
                        "{method} {path}?q=1 HTTP/1.1\r\nHost: surf\r\n{}Content-Length: {len}\r\n\r\n{body}",
                        if keep_alive { "Connection: keep-alive\r\n" } else { "" },
                    )
                    .into_bytes(),
                );
            }
            let (_, whole) = drive_chunks(&[&wire]);
            prop_assert_eq!(whole.len(), specs.len());
            for (request, &(route, _, len, _)) in whole.iter().zip(&specs) {
                prop_assert_eq!(request.path.as_str(), routes[route].1);
                prop_assert_eq!(request.body.len(), len);
                prop_assert!(!request.close);
            }
            let (_, split) = drive_chunks(&split_at(&wire, &cuts));
            prop_assert_eq!(split, whole, "cut at {:?}", cuts);
        }

        #[test]
        fn arbitrary_bytes_never_panic_and_draw_only_a_400_or_413(
            (pieces, cut) in (
                (0usize..=128).prop_flat_map(|n| {
                    prop::collection::vec((0usize..2 * FRAGMENTS.len(), 0u8..=255), n)
                }),
                0usize..=1_024,
            )
        ) {
            // Half the pieces are raw bytes, half fragments; at most 512 bytes in all.
            let mut wire = Vec::new();
            for (pick, byte) in pieces {
                match FRAGMENTS.get(pick) {
                    Some(fragment) => wire.extend_from_slice(fragment),
                    None => wire.push(byte),
                }
            }
            wire.truncate(512);
            let (mut c, requests) = drive_chunks(&split_at(&wire, &[cut]));
            let mut parsed = requests.len();
            c.mark_peer_closed();
            while c.next_request(1024).is_some() {
                parsed += 1;
                c.queue_response(200, "{}", None, http::CONTENT_TYPE_JSON);
            }
            let errors = c.take_errors();
            prop_assert!(
                errors.iter().all(|&status| status == 400 || status == 413),
                "{errors:?} for {wire:?}"
            );
            if parsed == 0 && c.wants_write() {
                let out = String::from_utf8_lossy(c.pending_write()).into_owned();
                prop_assert!(
                    out.starts_with("HTTP/1.1 400 ") || out.starts_with("HTTP/1.1 413 "),
                    "{out}"
                );
            }
        }
    }
}
