//! `questpro serve` at its file-descriptor limit.
//!
//! Once the process runs out of fds, every accept fails while the
//! pending connections keep the listener ready. The server must pause
//! accepting instead of spinning a CPU on that readiness, and must
//! serve again once connections close. Linux-only: it reads the server's
//! CPU time from `/proc`.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// User plus system CPU seconds the process has used so far.
fn cpu_seconds(pid: u32, ticks_per_s: f64) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("reading /proc stat");
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    ticks as f64 / ticks_per_s
}

fn clock_ticks_per_second() -> f64 {
    let out = Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .expect("running getconf");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("a numeric CLK_TCK")
}

fn get(addr: SocketAddr, method: &str, path: &str) -> Option<u16> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
    )
    .ok()?;
    let mut head = String::new();
    s.read_to_string(&mut head).ok()?;
    head.split_whitespace().nth(1)?.parse().ok()
}

struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn accept_pauses_at_the_fd_limit_instead_of_spinning() {
    let bin = env!("CARGO_BIN_EXE_questpro");
    let mut server = Server(
        Command::new("bash")
            .arg("-c")
            .arg(format!(
                "ulimit -n 64; exec {bin} serve --addr 127.0.0.1:0 --workers 2"
            ))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawning questpro serve"),
    );
    let mut stderr = BufReader::new(server.0.stderr.take().expect("piped stderr"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("the listening line");
    let addr: SocketAddr = line
        .trim()
        .rsplit("http://")
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in {line:?}"));
    let pid = server.0.id();
    let ticks = clock_ticks_per_second();

    // Far more connections than the server has fds for: the surplus
    // waits in the accept backlog, keeping the listener ready.
    let clients: Vec<TcpStream> = (0..100)
        .map(|_| TcpStream::connect(addr).expect("connecting"))
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    let before = cpu_seconds(pid, ticks);
    std::thread::sleep(Duration::from_secs(2));
    let used = cpu_seconds(pid, ticks) - before;
    assert!(
        used < 0.3,
        "the server burned {used:.2} s of CPU in 2 s at its fd limit"
    );

    // Once the clients close, the server reclaims their fds and serves.
    drop(clients);
    let deadline = Instant::now() + Duration::from_secs(15);
    while get(addr, "GET", "/healthz") != Some(200) {
        assert!(
            Instant::now() < deadline,
            "the server never served again after the clients closed"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(get(addr, "POST", "/shutdown"), Some(200));
    let status = server.0.wait().expect("waiting for the server");
    assert!(status.success(), "clean exit after shutdown: {status}");
    let mut rest = String::new();
    let _ = stderr.read_to_string(&mut rest);
}
