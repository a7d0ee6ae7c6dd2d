//! Minimal HTTP/1.1 request/response handling on `std::net::TcpStream`.
//!
//! Only what the daemon needs: request-line + header parsing with hard
//! size limits, `Content-Length` bodies, and `Connection: close`
//! responses. Every malformed input maps to a [`HttpError`] carrying the
//! status code the server should answer with — parsing never panics.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use ses_metrics::{JsonValue, SCHEMA_VERSION};

/// Maximum accepted size of the request line plus all headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercased as received.
    pub method: String,
    /// Request path, e.g. `/v1/campaign` (query strings are kept verbatim).
    pub path: String,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw request body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value for `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A request-level failure with the HTTP status it maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// HTTP status code to answer with.
    pub status: u16,
    /// Human-readable description, returned in the structured error body.
    pub message: String,
}

impl HttpError {
    /// Build an error with `status` and `message`.
    pub fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Error",
    }
}

/// Read one request from `stream`, enforcing `max_body` on the body,
/// [`MAX_HEAD_BYTES`] on the head and one `deadline` on the whole request.
///
/// Truncated input (client closed before finishing the head or the
/// promised body) yields a 400, oversized input 413, and a request still
/// incomplete at `deadline` 408 — however slowly its bytes trickle in.
/// The caller answers with [`write_error`] and moves on.
pub fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
    deadline: Instant,
) -> Result<Request, HttpError> {
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 1024];
    let body_start;
    loop {
        let n = read_before(stream, &mut buf, deadline, "headers")?;
        head.extend_from_slice(&buf[..n]);
        let end = find_head_end(&head);
        if end.map_or(head.len(), |pos| pos + 4) > MAX_HEAD_BYTES {
            return Err(HttpError::new(413, "request head exceeds 16 KiB"));
        }
        if let Some(pos) = end {
            body_start = pos;
            break;
        }
    }

    let head_text = std::str::from_utf8(&head[..body_start])
        .map_err(|_| HttpError::new(400, "request head is not valid UTF-8"))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(
            400,
            format!("malformed request line: {request_line:?}"),
        ));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, format!("malformed header: {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::new(400, format!("invalid Content-Length: {v:?}")))?,
        None => 0,
    };
    if content_length > max_body {
        return Err(HttpError::new(
            413,
            format!("body of {content_length} bytes exceeds limit of {max_body}"),
        ));
    }

    let mut body = head[body_start + 4..].to_vec();
    while body.len() < content_length {
        let n = read_before(stream, &mut buf, deadline, "body")?;
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(content_length);

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// One `read` into `buf` that gives up at `deadline`; a closed
/// connection is a truncated request `part`.
fn read_before(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
    part: &str,
) -> Result<usize, HttpError> {
    let timed_out = || HttpError::new(408, format!("timed out reading request {part}"));
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(timed_out());
    }
    let _ = stream.set_read_timeout(Some(left));
    match stream.read(buf) {
        Ok(0) => Err(HttpError::new(
            400,
            format!("truncated request: connection closed before end of {part}"),
        )),
        Ok(n) => Ok(n),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            Err(timed_out())
        }
        Err(e) => Err(HttpError::new(400, format!("read error: {e}"))),
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Write a `Connection: close` response with a JSON body and optional
/// extra headers. Write errors (client hung up mid-response) are returned
/// for the caller to ignore — the daemon keeps serving either way.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Render the structured JSON error body for `err`.
pub fn error_body(err: &HttpError) -> String {
    let mut doc = JsonValue::object();
    doc.set("schema_version", SCHEMA_VERSION);
    doc.set("artifact", "error");
    doc.set("status", u64::from(err.status));
    doc.set("error", err.message.as_str());
    doc.render()
}

/// Answer `err` on `stream` with its structured JSON body; write failures
/// are swallowed (the client may already be gone).
pub fn write_error(stream: &mut TcpStream, err: &HttpError) {
    let body = error_body(err);
    let _ = write_response(stream, err.status, &[], &body);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    /// A client trickling one byte every 50 ms never lets a single read
    /// time out; the request's deadline still ends it.
    #[test]
    fn trickling_client_times_out_at_the_deadline() {
        use std::net::TcpListener;
        use std::time::Duration;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let head = b"GET /v1/healthz HTTP/1.1\r\nX-Slow: ";
            for byte in head.iter().cycle().take(200) {
                if s.write_all(&[*byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let (mut stream, _) = listener.accept().unwrap();
        let deadline = Duration::from_millis(300);
        let start = Instant::now();
        let err = read_request(&mut stream, 1024, start + deadline).unwrap_err();
        let took = start.elapsed();
        assert_eq!(err.status, 408, "{err:?}");
        assert!(
            took >= deadline && took < deadline + Duration::from_millis(100),
            "408 after {took:?}"
        );
        drop(stream);
        client.join().unwrap();
    }

    #[test]
    fn error_body_is_structured_json() {
        let err = HttpError::new(404, "no such route");
        let body = error_body(&err);
        let doc = JsonValue::parse(&body).unwrap();
        assert_eq!(doc.get("artifact").and_then(|v| v.as_str()), Some("error"));
        assert_eq!(doc.get("status").and_then(|v| v.as_u64()), Some(404));
        assert_eq!(
            doc.get("error").and_then(|v| v.as_str()),
            Some("no such route")
        );
    }
}
