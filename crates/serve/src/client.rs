//! Blocking HTTP/1.1 client for the serve daemon.
//!
//! One request per connection (the daemon always answers
//! `Connection: close`), so a request is connect → write → read-to-end →
//! parse. Used by the equivalence tests and the benchmark.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// First header value for `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 text (panics on invalid UTF-8 — artifacts are text).
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).expect("response body is UTF-8")
    }
}

fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: ser-repro\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

fn parse_response(raw: &[u8]) -> std::io::Result<Response> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator in response"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let body = raw[head_end + 4..].to_vec();
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// POST `body` (JSON text) to `path` on the daemon at `addr`.
pub fn http_post(addr: impl ToSocketAddrs, path: &str, body: &str) -> std::io::Result<Response> {
    request(addr, "POST", path, Some(body))
}

/// GET `path` on the daemon at `addr`.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<Response> {
    request(addr, "GET", path, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_response_with_headers_and_body() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\nX-Cache: hit\r\nConnection: close\r\n\r\nbody";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("x-cache"), Some("hit"));
        assert_eq!(r.body_str(), "body");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http at all").is_err());
    }
}
