//! Minimal HTTP/1.1 plumbing over `std::net` — incremental request parsing, response
//! rendering and a small keep-alive client.
//!
//! Hand-rolled for the same reason the workspace vendors serde: the build environment has no
//! route to a crates registry. Only the slice of HTTP/1.1 the subsystem needs is implemented:
//! `Content-Length` bodies, JSON payloads, persistent connections (keep-alive by default
//! for HTTP/1.1, honoring `Connection: close`), and hard limits on header and body sizes so
//! a misbehaving client cannot balloon server memory. Framing a server could read two ways
//! is refused rather than guessed at (RFC 9112 §6.3): a `Transfer-Encoding` header, a
//! `Content-Length` that is not plain digits, or two `Content-Length` headers that
//! disagree are all a `400`.
//!
//! The core of the module is [`parse_request`], an *incremental* parser over a byte buffer:
//! it either produces a complete request plus the number of bytes it consumed, reports that
//! more bytes are needed, or flags an oversized declared body for draining. The event-loop
//! transport calls it on per-connection buffers, which is what makes pipelining work:
//! whatever follows a parsed request in the buffer is simply the next request.

use std::io::{Read, Write};
use std::net::TcpStream;

use crate::error::ServeError;

/// Cap on the request line + headers; anything longer is rejected as malformed.
pub(crate) const MAX_HEADER_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path without query string (`/predict`).
    pub path: String,
    /// Decoded UTF-8 body (empty when the request carried none).
    pub body: String,
    /// Whether the client asked for the connection to close after this request
    /// (`Connection: close`, or HTTP/1.0 without `keep-alive`).
    pub close: bool,
}

/// Outcome of one [`parse_request`] attempt over a byte buffer.
#[derive(Debug)]
pub enum Parsed {
    /// A complete request; the first `consumed` bytes of the buffer belong to it (any
    /// remainder is the start of the next pipelined request).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer consumed by this request (headers + body).
        consumed: usize,
    },
    /// A syntactically valid prefix — feed more bytes and parse again.
    Partial,
    /// The declared body exceeds the limit. The headers span `consumed` bytes;
    /// `body_bytes` bytes of body follow on the wire (possibly not yet received) and must
    /// be discarded before a `413` can be delivered cleanly.
    Oversized {
        /// Bytes of the buffer holding the request line + headers + terminator.
        consumed: usize,
        /// The declared `Content-Length`.
        body_bytes: usize,
    },
}

/// Parses one request from the front of `buffer` without consuming it; the caller drains
/// the reported `consumed` bytes. See [`Parsed`] for the three outcomes.
///
/// # Errors
///
/// [`ServeError::BadRequest`] for malformed requests: oversized or non-UTF-8 headers, an
/// unparseable request line or `Content-Length`, conflicting `Content-Length` headers, a
/// `Transfer-Encoding` header, an unsupported protocol version, or a non-UTF-8 body.
pub fn parse_request(buffer: &[u8], max_body_bytes: usize) -> Result<Parsed, ServeError> {
    let Some(header_end) = find_header_end(buffer) else {
        if buffer.len() > MAX_HEADER_BYTES {
            return Err(ServeError::BadRequest("request headers too large".into()));
        }
        return Ok(Parsed::Partial);
    };
    if header_end > MAX_HEADER_BYTES {
        return Err(ServeError::BadRequest("request headers too large".into()));
    }

    let header_text = std::str::from_utf8(&buffer[..header_end])
        .map_err(|_| ServeError::BadRequest("headers are not valid UTF-8".into()))?;
    let mut lines = header_text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ServeError::BadRequest("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ServeError::BadRequest("request line has no path".into()))?;
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(ServeError::BadRequest(format!(
            "unsupported protocol `{version}`"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length: Option<usize> = None;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 defaults to close.
    let mut close = version == "HTTP/1.0";
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let length = parse_content_length(value)?;
                if content_length.is_some_and(|seen| seen != length) {
                    return Err(ServeError::BadRequest(
                        "conflicting Content-Length headers".into(),
                    ));
                }
                content_length = Some(length);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // Ignoring it would read a chunked body as the next pipelined request.
                return Err(ServeError::BadRequest(format!(
                    "Transfer-Encoding `{value}` is not supported; send a Content-Length body"
                )));
            } else if name.eq_ignore_ascii_case("connection") {
                if value.eq_ignore_ascii_case("close") {
                    close = true;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    close = false;
                }
            }
        }
    }

    let content_length = content_length.unwrap_or(0);
    let body_start = header_end + 4;
    if content_length > max_body_bytes {
        return Ok(Parsed::Oversized {
            consumed: body_start,
            body_bytes: content_length,
        });
    }
    if buffer.len() < body_start + content_length {
        return Ok(Parsed::Partial);
    }

    let body = std::str::from_utf8(&buffer[body_start..body_start + content_length])
        .map_err(|_| ServeError::BadRequest("body is not valid UTF-8".into()))?
        .to_string();
    Ok(Parsed::Complete {
        request: Request {
            method,
            path,
            body,
            close,
        },
        consumed: body_start + content_length,
    })
}

/// A `Content-Length` value: ASCII digits only. `usize::from_str` alone would also take a
/// leading `+`.
fn parse_content_length(value: &str) -> Result<usize, ServeError> {
    let digits_only = value.bytes().all(|b| b.is_ascii_digit());
    digits_only
        .then(|| value.parse().ok())
        .flatten()
        .ok_or_else(|| ServeError::BadRequest(format!("unparseable Content-Length `{value}`")))
}

fn find_header_end(buffer: &[u8]) -> Option<usize> {
    buffer.windows(4).position(|w| w == b"\r\n\r\n")
}

/// `Content-Type` of the JSON endpoints (every route except `/metrics`).
pub const CONTENT_TYPE_JSON: &str = "application/json";
/// `Content-Type` of the Prometheus text exposition served by `GET /metrics`.
pub const CONTENT_TYPE_METRICS: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Renders one response head + body. `keep_alive` selects the `Connection` header;
/// `retry_after_secs` adds a `Retry-After` header (the admission-control 503 contract);
/// `content_type` is [`CONTENT_TYPE_JSON`] for every route except `/metrics`.
pub fn render_response(
    status: u16,
    body: &str,
    keep_alive: bool,
    retry_after_secs: Option<u64>,
    content_type: &str,
) -> String {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let retry = retry_after_secs
        .map(|secs| format!("Retry-After: {secs}\r\n"))
        .unwrap_or_default();
    format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{retry}Connection: {connection}\r\n\r\n{body}",
        status_text(status),
        body.len(),
    )
}

/// Reason phrases for the status codes the subsystem emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// One parsed HTTP response, as returned by [`HttpClient`].
#[derive(Debug, Clone, PartialEq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Response headers in wire order (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// Decoded UTF-8 body.
    pub body: String,
}

impl HttpResponse {
    /// The first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A blocking keep-alive HTTP client: many requests over one connection. Used by the
/// load-generator bench, the keep-alive/pipelining e2e tests and (one-shot) the
/// `surf-serve query` subcommand.
///
/// Requests and responses may be decoupled — [`HttpClient::send`] twice, then
/// [`HttpClient::read_response`] twice — which is exactly HTTP/1.1 pipelining; responses
/// arrive in request order.
pub struct HttpClient {
    stream: TcpStream,
    buffer: Vec<u8>,
}

impl HttpClient {
    /// Connects to the server (30 s read/write timeouts, Nagle disabled).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection cannot be established or configured.
    pub fn connect(addr: &str) -> Result<HttpClient, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(std::time::Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            stream,
            buffer: Vec::new(),
        })
    }

    /// Writes one keep-alive request without waiting for the response.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] for socket errors.
    pub fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> Result<(), ServeError> {
        let body = body.unwrap_or_default();
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: surf\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len(),
        );
        self.stream.write_all(request.as_bytes())?;
        Ok(())
    }

    /// Writes raw bytes to the connection (for tests that need exact wire control, e.g.
    /// partial headers or back-to-back pipelined requests in one write).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] for socket errors.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ServeError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// Reads one complete response (headers + `Content-Length` body). Bytes beyond it are
    /// retained for the next call, so pipelined responses are read back one at a time.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection closes mid-response, the response is
    /// malformed, or a socket error occurs.
    pub fn read_response(&mut self) -> Result<HttpResponse, ServeError> {
        let mut chunk = [0u8; 4096];
        let header_end = loop {
            if let Some(end) = find_header_end(&self.buffer) {
                break end;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ServeError::Io("connection closed mid-response".into()));
            }
            self.buffer.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buffer[..header_end])
            .map_err(|_| ServeError::Io("response headers are not valid UTF-8".into()))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ServeError::Io("malformed response status line".into()))?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().map_err(|_| {
                        ServeError::Io("unparseable response Content-Length".into())
                    })?;
                }
                headers.push((name, value));
            }
        }
        let body_start = header_end + 4;
        while self.buffer.len() < body_start + content_length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ServeError::Io("connection closed mid-response".into()));
            }
            self.buffer.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8(self.buffer[body_start..body_start + content_length].to_vec())
            .map_err(|_| ServeError::Io("response body is not valid UTF-8".into()))?;
        self.buffer.drain(..body_start + content_length);
        Ok(HttpResponse {
            status,
            headers,
            body,
        })
    }

    /// One request/response round trip over the persistent connection.
    ///
    /// # Errors
    ///
    /// Any [`HttpClient::send`] or [`HttpClient::read_response`] error.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpResponse, ServeError> {
        self.send(method, path, body)?;
        self.read_response()
    }
}

/// Minimal blocking HTTP client: one request, one response, connection closed. Used by the
/// `surf-serve query` subcommand and the end-to-end tests.
///
/// # Errors
///
/// [`ServeError::Io`] for connection/socket errors or a malformed response.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), ServeError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(std::time::Duration::from_secs(30)))?;
    let body = body.unwrap_or_default();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(request.as_bytes())?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let text = String::from_utf8(response)
        .map_err(|_| ServeError::Io("response is not valid UTF-8".into()))?;
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| ServeError::Io("malformed response: no header terminator".into()))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ServeError::Io("malformed response status line".into()))?;
    Ok((status, payload.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_texts_cover_the_emitted_codes() {
        for status in [200u16, 400, 404, 405, 409, 413, 422, 500, 503] {
            assert_ne!(status_text(status), "Unknown");
        }
        assert_eq!(status_text(799), "Unknown");
    }

    #[test]
    fn parse_complete_request_reports_consumed_bytes() {
        let wire = b"POST /predict HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"x\"extra";
        match parse_request(wire, 1024).unwrap() {
            Parsed::Complete { request, consumed } => {
                assert_eq!(request.method, "POST");
                assert_eq!(request.path, "/predict");
                assert_eq!(request.body, "{\"x\"");
                assert!(!request.close, "HTTP/1.1 defaults to keep-alive");
                assert_eq!(&wire[consumed..], b"extra");
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn parse_partial_until_body_arrives() {
        let head = b"POST /p HTTP/1.1\r\nContent-Length: 10\r\n\r\n12345";
        assert!(matches!(
            parse_request(head, 1024).unwrap(),
            Parsed::Partial
        ));
        assert!(matches!(
            parse_request(b"GET /x HTT", 1024).unwrap(),
            Parsed::Partial
        ));
        assert!(matches!(parse_request(b"", 1024).unwrap(), Parsed::Partial));
    }

    #[test]
    fn connection_header_and_version_drive_the_close_flag() {
        let close = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        match parse_request(close, 1024).unwrap() {
            Parsed::Complete { request, .. } => assert!(request.close),
            other => panic!("{other:?}"),
        }
        let http10 = b"GET /healthz HTTP/1.0\r\n\r\n";
        match parse_request(http10, 1024).unwrap() {
            Parsed::Complete { request, .. } => assert!(request.close),
            other => panic!("{other:?}"),
        }
        let http10_ka = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        match parse_request(http10_ka, 1024).unwrap() {
            Parsed::Complete { request, .. } => assert!(!request.close),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_body_is_flagged_with_its_length() {
        let wire = b"POST /predict HTTP/1.1\r\nContent-Length: 9999\r\n\r\nstart";
        match parse_request(wire, 100).unwrap() {
            Parsed::Oversized {
                consumed,
                body_bytes,
            } => {
                assert_eq!(body_bytes, 9999);
                assert_eq!(
                    &wire[..consumed],
                    b"POST /predict HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"
                );
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_error() {
        assert!(
            parse_request(b"\r\n\r\n", 1024).is_err(),
            "empty request line"
        );
        assert!(parse_request(b"GET\r\n\r\n", 1024).is_err(), "no path");
        assert!(
            parse_request(b"GET / SPDY/3\r\n\r\n", 1024).is_err(),
            "bad protocol"
        );
        assert!(
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 1024).is_err(),
            "bad content-length"
        );
        let long = vec![b'x'; MAX_HEADER_BYTES + 8];
        assert!(parse_request(&long, 1024).is_err(), "oversized headers");
    }

    fn bad_request(wire: &[u8]) -> String {
        match parse_request(wire, 1024) {
            Err(ServeError::BadRequest(message)) => message,
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let wire = b"POST /predict HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\n{}abc";
        assert!(bad_request(wire).contains("conflicting Content-Length"));
        // Repeating the same value frames the body one way only, so it stays accepted.
        let repeated =
            b"POST /predict HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}";
        assert!(matches!(
            parse_request(repeated, 1024).unwrap(),
            Parsed::Complete { consumed, .. } if consumed == repeated.len()
        ));
    }

    #[test]
    fn signed_content_length_is_rejected() {
        assert_eq!(
            "+5".parse::<usize>().ok(),
            Some(5),
            "from_str alone takes the sign"
        );
        let wire = b"POST /predict HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello";
        assert!(bad_request(wire).contains("unparseable Content-Length"));
        let empty = b"POST /predict HTTP/1.1\r\nContent-Length:\r\n\r\n";
        assert!(bad_request(empty).contains("unparseable Content-Length"));
    }

    #[test]
    fn transfer_encoding_is_rejected() {
        // Ignored, the chunked body below would parse as a second pipelined request.
        let wire = b"POST /predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                     2\r\n{}\r\n0\r\n\r\n";
        assert!(bad_request(wire).contains("Transfer-Encoding"));
        let with_length =
            b"POST /predict HTTP/1.1\r\nContent-Length: 2\r\ntransfer-encoding: identity\r\n\r\n{}";
        assert!(bad_request(with_length).contains("Transfer-Encoding"));
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let wire: Vec<u8> =
            b"GET /healthz HTTP/1.1\r\n\r\nPOST /predict HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
                .to_vec();
        let Parsed::Complete { request, consumed } = parse_request(&wire, 1024).unwrap() else {
            panic!("first request should be complete");
        };
        assert_eq!(request.path, "/healthz");
        let Parsed::Complete { request, consumed } =
            parse_request(&wire[consumed..], 1024).unwrap()
        else {
            panic!("second request should be complete");
        };
        assert_eq!(request.path, "/predict");
        assert_eq!(request.body, "{}");
        assert_eq!(consumed, wire.len() - 25);
    }

    #[test]
    fn render_response_headers() {
        let ok = render_response(200, "{}", true, None, CONTENT_TYPE_JSON);
        assert!(ok.contains("Connection: keep-alive"));
        assert!(ok.contains("Content-Type: application/json"));
        assert!(!ok.contains("Retry-After"));
        let busy = render_response(503, "{}", true, Some(2), CONTENT_TYPE_JSON);
        assert!(busy.contains("HTTP/1.1 503 Service Unavailable"));
        assert!(busy.contains("Retry-After: 2"));
        let closing = render_response(400, "{}", false, None, CONTENT_TYPE_JSON);
        assert!(closing.contains("Connection: close"));
        let text = render_response(200, "a 1\n", true, None, CONTENT_TYPE_METRICS);
        assert!(text.contains("Content-Type: text/plain; version=0.0.4"));
    }
}
