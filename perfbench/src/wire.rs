//! The outside view: `prsim serve` as a child process pinned to one
//! CPU, driven over TCP with the line protocol, plus reply parsing.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a server may take to print `listening` (build included).
const LISTEN_TIMEOUT: Duration = Duration::from_secs(120);
/// Per-read socket deadline: a wedged server fails the run instead of
/// hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `prsim serve --listen` child. Dropping it kills and reaps
/// the process, so no server outlives an early error return.
pub struct Server {
    child: Child,
    /// The bound listener address.
    pub addr: SocketAddr,
    /// Spawn to `listening`: graph load, build and host open.
    pub setup: Duration,
}

impl Server {
    /// Spawns `prsim serve GRAPH --wal WAL --listen 127.0.0.1:0 EXTRA…`
    /// under `taskset -c CPU` and waits for its `listening` line.
    pub fn spawn(
        prsim: &Path,
        cpu: usize,
        graph: &Path,
        wal: &Path,
        extra: &[String],
    ) -> Result<Server, String> {
        let start = Instant::now();
        let mut child = Command::new("taskset")
            .arg("-c")
            .arg(cpu.to_string())
            .arg(prsim)
            .arg("serve")
            .arg(graph)
            .arg("--wal")
            .arg(wal)
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn taskset {}: {e}", prsim.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // The reader ends once the line arrives or the pipe closes, which
        // killing the child guarantees, so every path below can join it.
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let read = BufReader::new(stdout).read_line(&mut line).map(|_| line);
            let _ = tx.send(read);
        });
        let line = rx.recv_timeout(LISTEN_TIMEOUT);
        let setup = start.elapsed();
        let addr = match &line {
            Ok(Ok(line)) => line.trim().strip_prefix("listening ").map(str::parse),
            _ => None,
        };
        match addr {
            Some(Ok(addr)) => {
                reader.join().expect("stdout reader does not panic");
                Ok(Server { child, addr, setup })
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                reader.join().expect("stdout reader does not panic");
                Err(match line {
                    Ok(Ok(line)) => format!("server did not start: {:?}", line.trim()),
                    Ok(Err(e)) => format!("server stdout: {e}"),
                    Err(_) => "server never printed `listening`".into(),
                })
            }
        }
    }

    /// `VmHWM` (peak resident set) of the server process, in bytes.
    pub fn peak_rss_bytes(&self) -> Result<u64, String> {
        proc_status_kb(&format!("/proc/{}/status", self.child.id()), "VmHWM").map(|kb| kb * 1024)
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::open(self.addr)?;
        let (reply, _) = conn.request("shutdown")?;
        if reply != "ok bye" {
            return Err(format!("shutdown answered {reply:?}"));
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(())
    }

    /// SIGKILLs the server and reaps it.
    pub fn kill(mut self) -> Result<(), String> {
        self.child.kill().map_err(|e| format!("kill: {e}"))?;
        self.child.wait().map_err(|e| format!("wait: {e}"))?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A `kB` field of a `/proc/<pid>/status` file.
pub fn proc_status_kb(path: &str, key: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path} has no {key}"))
}

/// One client connection speaking the line protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    /// Connects with Nagle off and a read deadline.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|_| stream.set_read_timeout(Some(READ_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Writes one request line and reads its reply line; the duration
    /// runs from before the write to after the reply's newline.
    pub fn request(&mut self, request: &str) -> Result<(String, Duration), String> {
        let start = Instant::now();
        self.line.clear();
        let sent = self
            .writer
            .write_all(format!("{request}\n").as_bytes())
            .and_then(|_| self.reader.read_line(&mut self.line));
        let elapsed = start.elapsed();
        match sent {
            Ok(0) => Err(format!("connection closed on {request:?}")),
            Ok(_) => Ok((self.line.trim_end().to_owned(), elapsed)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                Err(format!("no reply to {request:?} within {READ_TIMEOUT:?}"))
            }
            Err(e) => Err(format!("{request:?}: {e}")),
        }
    }
}

/// The `key=value` fields of an `ok …` reply; `err …` is an error.
pub fn ok_fields(reply: &str) -> Result<BTreeMap<String, String>, String> {
    let body = reply
        .strip_prefix("ok")
        .filter(|rest| rest.is_empty() || rest.starts_with(' '))
        .ok_or_else(|| format!("server replied {reply:?}"))?;
    Ok(body
        .split_whitespace()
        .filter_map(|t| t.split_once('='))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect())
}

/// A numeric field of a parsed reply.
pub fn field(fields: &BTreeMap<String, String>, key: &str) -> Result<u64, String> {
    fields
        .get(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("reply lacks numeric {key}"))
}

/// A parsed `query` reply:
/// `ok epoch=E lsn=L node=U entries=N top K v:score …`.
#[derive(Debug, PartialEq)]
pub struct QueryReply {
    /// Source node echoed by the server.
    pub node: u32,
    /// Non-zero score entries before the top-K cut.
    pub entries: usize,
    /// The ranked `(node, score)` list.
    pub top: Vec<(u32, f64)>,
}

/// Parses a `query` reply; `err …` replies and malformed lines are
/// errors.
pub fn parse_query(reply: &str) -> Result<QueryReply, String> {
    let fields = ok_fields(reply)?;
    let node = field(&fields, "node")? as u32;
    let entries = field(&fields, "entries")? as usize;
    let mut tokens = reply.split_whitespace().skip_while(|t| *t != "top");
    let bad = || format!("malformed query reply {reply:?}");
    tokens.next().ok_or_else(bad)?;
    let k: usize = tokens.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    let top = tokens
        .take(k)
        .map(|t| {
            let (v, s) = t.split_once(':')?;
            Some((v.parse().ok()?, s.parse().ok()?))
        })
        .collect::<Option<Vec<_>>>()
        .filter(|top| top.len() == k)
        .ok_or_else(bad)?;
    Ok(QueryReply { node, entries, top })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_query_reply() {
        let r = parse_query("ok epoch=1 lsn=0 node=7 entries=42 top 2 7:1 3:0.015625").unwrap();
        assert_eq!(
            r,
            QueryReply {
                node: 7,
                entries: 42,
                top: vec![(7, 1.0), (3, 0.015625)],
            }
        );
        let r = parse_query("ok epoch=3 lsn=9 node=1 entries=0 top 0").unwrap();
        assert!(r.top.is_empty());
    }

    #[test]
    fn rejects_errors_and_truncated_replies() {
        assert!(parse_query("err retryable overloaded: shed").is_err());
        assert!(parse_query("ok epoch=1 lsn=0 node=7 entries=4 top 2 7:1").is_err());
        assert!(parse_query("ok epoch=1 lsn=0 node=7 entries=4 top 1 7:x").is_err());
        assert!(parse_query("ok epoch=1 lsn=0 entries=4 top 0").is_err());
        assert!(parse_query("okay node=1 entries=1 top 0").is_err());
    }

    #[test]
    fn parses_key_value_replies() {
        let f = ok_fields("ok lsn=12 queued=1").unwrap();
        assert_eq!(field(&f, "lsn"), Ok(12));
        assert!(field(&f, "epoch").is_err());
        let f = ok_fields("ok applied_lsn=5 epoch=6").unwrap();
        assert_eq!(field(&f, "applied_lsn"), Ok(5));
        assert!(ok_fields("err fatal parse unknown command").is_err());
        assert_eq!(ok_fields("ok").unwrap().len(), 0);
    }

    #[test]
    fn reads_proc_status_fields() {
        let kb = proc_status_kb("/proc/self/status", "VmRSS").unwrap();
        assert!(kb > 0);
        assert!(proc_status_kb("/proc/self/status", "NoSuchKey").is_err());
    }
}
