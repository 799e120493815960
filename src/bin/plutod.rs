//! `plutod` — the long-running compile service (ROADMAP item 4).
//!
//! Speaks `pluto-rpc/1`: one JSON request per line in, one JSON
//! response per line out, with a `pluto-log/1` record per request on
//! stderr. By default it serves stdin/stdout (ideal for piping and for
//! supervision); `--socket` serves a Unix domain socket instead, one
//! thread per connection, all connections sharing the schedule cache
//! and the `stats` aggregate.
//!
//! ```text
//! plutod [options]
//!
//!   --socket <path>    serve a Unix socket at <path> instead of stdio
//!                      (a stale socket file at <path> is replaced)
//!   --cache-cap <n>    bound the schedule cache to n entries
//!                      (default 1024; oldest evicted first)
//! ```
//!
//! Protocol quickstart (README "The compile service" has more):
//!
//! ```text
//! $ printf '%s\n' \
//!   '{"schema":"pluto-rpc/1","id":1,"method":"compile","source":"params N; array a[N]; for (i = 1; i < N; i++) { a[i] = a[i-1]; }"}' \
//!   '{"schema":"pluto-rpc/1","id":2,"method":"stats"}' | plutod
//! ```
//!
//! Request/response and stats/log schemas are documented in
//! PERFORMANCE.md §5.6–5.7 and pinned by `tests/daemon_golden.rs`.

use pluto_repro::daemon::Daemon;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("plutod: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut socket: Option<String> = None;
    let mut cache_cap = pluto_repro::daemon::DEFAULT_CACHE_CAP;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(it.next().ok_or("--socket expects a path")?),
            "--cache-cap" => {
                let v = it.next().ok_or("--cache-cap expects a number")?;
                cache_cap =
                    v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--cache-cap expects a positive number, got `{v}`")
                    })?;
            }
            "--help" | "-h" => {
                eprintln!("usage: plutod [--socket path] [--cache-cap n]");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }

    let daemon = Arc::new(Daemon::with_cache_cap(cache_cap));
    match socket {
        Some(path) => serve_socket(daemon, &path),
        None => serve_stdio(&daemon),
    }
}

/// Serves stdin → stdout until EOF: the piped/supervised mode.
fn serve_stdio(daemon: &Daemon) -> Result<ExitCode, String> {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin read failed: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let handled = daemon.handle_line(&line);
        eprintln!("{}", handled.log);
        writeln!(stdout, "{}", handled.response)
            .and_then(|()| stdout.flush())
            .map_err(|e| format!("stdout write failed: {e}"))?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Serves a Unix socket, one thread per connection; every connection
/// shares one daemon (one schedule cache, one `stats` aggregate).
fn serve_socket(daemon: Arc<Daemon>, path: &str) -> Result<ExitCode, String> {
    // A previous run's socket file would make bind fail; replace it.
    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot replace `{path}`: {e}")),
    }
    let listener =
        UnixListener::bind(path).map_err(|e| format!("cannot bind socket `{path}`: {e}"))?;
    eprintln!("plutod: serving pluto-rpc/1 on {path}");
    for stream in listener.incoming() {
        let stream = stream.map_err(|e| format!("accept failed: {e}"))?;
        let daemon = daemon.clone();
        std::thread::spawn(move || {
            let mut writer = match stream.try_clone() {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("plutod: connection clone failed: {e}");
                    return;
                }
            };
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                let handled = daemon.handle_line(&line);
                eprintln!("{}", handled.log);
                if writeln!(writer, "{}", handled.response)
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    break; // client hung up mid-response
                }
            }
        });
    }
    Ok(ExitCode::SUCCESS)
}
