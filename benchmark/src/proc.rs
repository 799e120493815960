//! Child processes: one-shot `plutoc` runs, started through a small
//! spawner process so that `wait4` reports their own peak RSS, and the
//! `plutod` stdio client, whose peak RSS is read from `/proc`.
//!
//! Why the detour: on Linux `exec` carries the peak RSS of the address
//! space it leaves into the new program's `ru_maxrss`, and `posix_spawn`
//! leaves the parent's. A child started by the harness itself can
//! therefore never report less than the harness's own peak (19 MiB once
//! the reference arrays exist), whatever it uses. The spawner is started
//! before the harness allocates anything and stays at about 2 MiB.

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads child rusage through the 64-bit Linux wait4 ABI and tunes glibc's allocator");

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then 14 longs of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

/// glibc's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Makes every allocation of 128 KiB or more in this process a mapping
/// of its own, for good. Left alone, glibc raises that threshold each
/// time such a block is freed, and whether the next kernel's arrays are
/// a fresh mapping or a piece of the heap — and with it their alignment
/// — depends on what ran before: `lu`'s run time then takes one of two
/// values 10 % apart from run to run. `false` when the allocator refuses.
pub fn fix_mmap_threshold() -> bool {
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets a tunable of the allocator.
    unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1 }
}

/// Restricts thread or process `pid` (0: the calling thread) to `mask`;
/// `false` when the kernel refuses.
fn set_affinity(pid: i32, mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a live `cpu_set_t`-sized buffer that the call
    // only reads.
    unsafe { sched_setaffinity(pid, std::mem::size_of::<CpuSet>(), mask) == 0 }
}

/// The processors the calling thread may run on, and the first of them
/// alone; `None` when the kernel does not say.
fn affinity() -> Option<(CpuSet, CpuSet)> {
    let mut all: CpuSet = [0; 16];
    // SAFETY: `all` is a live, writable `cpu_set_t`-sized buffer.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut all) } != 0 {
        return None;
    }
    let word = all.iter().position(|&w| w != 0)?;
    let mut first: CpuSet = [0; 16];
    first[word] = 1 << all[word].trailing_zeros();
    Some((all, first))
}

/// While it lives, the calling thread runs on the daemon's processor.
pub struct SharedCpu {
    restore: Option<CpuSet>,
}

impl Drop for SharedCpu {
    fn drop(&mut self) {
        if let Some(all) = &self.restore {
            set_affinity(0, all);
        }
    }
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reaped {
    /// Exit code; `None` when a signal killed the child.
    pub exit_code: Option<i32>,
    /// The child's peak RSS — or, when that is larger, the peak RSS the
    /// process that started it had reached by then.
    pub peak_rss_mb: f64,
}

/// Blocks until `child` ends and returns its exit code and `ru_maxrss`.
/// Consumes the child, so nothing can wait on the reaped pid again.
fn reap(child: Child) -> std::io::Result<Reaped> {
    let mut status = 0i32;
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel's `int` and 64-bit Linux `struct rusage` (checked by
        // the compile_error! above); the pid is a child of this process
        // that nothing else waits for, since `child` is owned here.
        let rc = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if rc >= 0 {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let exited = status & 0x7f == 0;
    Ok(Reaped {
        exit_code: exited.then_some((status >> 8) & 0xff),
        peak_rss_mb: usage.ru_maxrss as f64 / KIB_PER_MIB,
    })
}

/// Peak RSS so far (`VmHWM`) of the running process `pid` (`"self"`:
/// this one), in KiB: the high-water mark of the address space the
/// process has now, which `exec` starts afresh.
fn vm_hwm_kib(pid: &str) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

const KIB_PER_MIB: f64 = 1024.0;

/// Peak RSS of this process so far, in MiB.
pub fn own_peak_rss_mb() -> Result<f64, String> {
    Ok(vm_hwm_kib("self")? as f64 / KIB_PER_MIB)
}

/// Where the binaries under test live: next to this executable, which is
/// where one `CARGO_TARGET_DIR` puts all three.
pub fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate the harness: {e}"))?;
    let path = me.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "`{}` not found; build the repo's binaries first (benchmark/run.sh does)",
            path.display()
        ))
    }
}

/// Result of one `plutoc` process.
#[derive(Debug)]
pub struct Ran {
    pub stdout: String,
    pub stderr: String,
    pub wall: Duration,
    pub reaped: Reaped,
    /// Peak RSS of the spawner itself when the child ended: what
    /// `reaped.peak_rss_mb` cannot go below.
    pub spawner_rss_mb: f64,
}

/// Runs `program <args>` to completion as a child of this process:
/// stdout through a pipe, as a user of the tool receives it; stderr into
/// the file `scratch` (a file cannot fill up and block the child while
/// the pipe is drained). The wall time runs from before the spawn to
/// after the child is reaped.
fn run_child(
    program: &str,
    args: &[&str],
    scratch: &str,
) -> std::io::Result<(Vec<u8>, Duration, Reaped)> {
    let stderr_file = File::create(scratch)?;
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(stderr_file))
        .spawn()?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_end(&mut stdout);
    // Reaped whatever the read said: no child is left behind.
    let reaped = reap(child)?;
    let wall = start.elapsed();
    read?;
    Ok((stdout, wall, reaped))
}

/// The spawner's side: for every request line on `input` —
/// `<scratch file> TAB <program> [TAB <argument>]…` — runs the program
/// and answers on `output` with one header line
/// `ok TAB <exit code, -1 for a signal> TAB <child ru_maxrss KiB> TAB <own VmHWM KiB> TAB <wall ns> TAB <stdout bytes>`
/// followed by that many bytes of the child's stdout, or with
/// `err TAB <message>`. Ends when `input` does.
pub fn serve_spawns(input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
    for line in input.lines() {
        let line = line?;
        let mut fields = line.split('\t');
        let scratch = fields.next().unwrap_or("");
        let program = fields.next().unwrap_or("");
        let args: Vec<&str> = fields.collect();
        // Its own peak after the child's end: never below what it was
        // when the child was started.
        let own = || vm_hwm_kib("self").map_err(std::io::Error::other);
        match run_child(program, &args, scratch).and_then(|ran| Ok((ran, own()?))) {
            Ok(((stdout, wall, reaped), own_kib)) => {
                writeln!(
                    output,
                    "ok\t{}\t{}\t{own_kib}\t{}\t{}",
                    reaped.exit_code.unwrap_or(-1),
                    (reaped.peak_rss_mb * KIB_PER_MIB) as u64,
                    wall.as_nanos(),
                    stdout.len()
                )?;
                output.write_all(&stdout)?;
            }
            Err(e) => writeln!(output, "err\t{}", e.to_string().replace('\n', " "))?,
        }
        output.flush()?;
    }
    Ok(())
}

/// The harness's side of the spawner: this executable started again as
/// `pluto-benchmark --spawner`, before the harness has allocated
/// anything. Dropping it closes its stdin, which ends it, and reaps it.
pub struct Spawner {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Spawner {
    pub fn start() -> Result<Spawner, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate the harness: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--spawner")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the spawner: {e}"))?;
        Ok(Spawner {
            stdin: child.stdin.take(),
            stdout: BufReader::new(child.stdout.take().expect("stdout was piped")),
            child,
        })
    }

    /// Runs `program <args>` to completion through the spawner.
    pub fn run(&mut self, program: &Path, args: &[&str], scratch: &Path) -> Result<Ran, String> {
        let fail = |what: String| format!("{} {}: {what}", program.display(), args.join(" "));
        let request = request_line(program, args, scratch).map_err(fail)?;
        let stdin = self.stdin.as_mut().expect("open until dropped");
        stdin
            .write_all(request.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| fail(format!("cannot reach the spawner: {e}")))?;
        read_answer(&mut self.stdout, scratch).map_err(fail)
    }
}

/// One request to the spawner. Neither the paths nor the arguments may
/// contain a tab or a newline.
fn request_line(program: &Path, args: &[&str], scratch: &Path) -> Result<String, String> {
    let mut line = format!("{}\t{}", scratch.display(), program.display());
    for a in args {
        line.push('\t');
        line.push_str(a);
    }
    if line.contains('\n') || line.matches('\t').count() != args.len() + 1 {
        return Err("a path or an argument contains a tab or a newline".to_string());
    }
    line.push('\n');
    Ok(line)
}

/// Reads the spawner's answer to one request.
fn read_answer(from: &mut impl BufRead, scratch: &Path) -> Result<Ran, String> {
    let mut header = String::new();
    from.read_line(&mut header)
        .map_err(|e| format!("cannot read the spawner's answer: {e}"))?;
    let fields: Vec<&str> = header.trim_end_matches('\n').split('\t').collect();
    let numbers: Vec<i64> = fields[1..].iter().map_while(|f| f.parse().ok()).collect();
    let ("ok", &[exit_code, peak_kib, spawner_kib, wall_ns, len]) = (fields[0], &numbers[..])
    else {
        return Err(format!("the spawner said `{}`", header.trim_end()));
    };
    let mut stdout = vec![0; len as usize];
    from.read_exact(&mut stdout)
        .map_err(|e| format!("cannot read the child's output: {e}"))?;
    Ok(Ran {
        stdout: String::from_utf8(stdout).map_err(|e| e.to_string())?,
        stderr: std::fs::read_to_string(scratch)
            .map_err(|e| format!("cannot read {}: {e}", scratch.display()))?,
        wall: Duration::from_nanos(wall_ns as u64),
        reaped: Reaped {
            exit_code: (exit_code >= 0).then_some(exit_code as i32),
            peak_rss_mb: peak_kib as f64 / KIB_PER_MIB,
        },
        spawner_rss_mb: spawner_kib as f64 / KIB_PER_MIB,
    })
}

impl Drop for Spawner {
    fn drop(&mut self) {
        self.stdin.take();
        // Errors cannot be returned from here, and there is no result to lose.
        let _ = self.child.wait();
    }
}

/// A `plutod` child served over its stdio, closed loop: one request
/// line out, one response line back. Dropping it ends and reaps the
/// daemon, so no error path leaves the process behind.
///
/// The daemon is pinned to one processor, which the client joins for
/// the timed request loops ([`Plutod::share_cpu`]). In a closed loop of
/// one client the two never run at the same time, so sharing costs
/// nothing — while on two processors each round trip wakes an idle one
/// twice, which on this virtual machine costs nothing in some periods
/// and 50 µs in others (hit p50 221 or 277 µs for many minutes each,
/// switched by an unrelated burst of load such as a build).
pub struct Plutod {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// The request line plus its newline, so that one write sends both.
    outgoing: Vec<u8>,
    /// The client's processors and the daemon's one; `None` when
    /// pinning is not possible, and both then run where they like.
    cpus: Option<(CpuSet, CpuSet)>,
}

impl Plutod {
    /// Starts `plutod --cache-cap <cap>`; its per-request log (stderr)
    /// is discarded.
    pub fn start(plutod: &Path, cache_cap: usize) -> Result<Plutod, String> {
        let mut child = Command::new(plutod)
            .args(["--cache-cap", &cache_cap.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start plutod: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        // Before the first request: threads the daemon starts later
        // inherit the restriction.
        let cpus = affinity().filter(|(_, one)| set_affinity(child.id() as i32, one));
        Ok(Plutod {
            child: Some(child),
            stdin,
            stdout,
            outgoing: Vec::new(),
            cpus,
        })
    }

    /// Moves the calling thread onto the daemon's processor until the
    /// returned guard is dropped.
    pub fn share_cpu(&self) -> SharedCpu {
        let restore = self
            .cpus
            .and_then(|(all, one)| set_affinity(0, &one).then_some(all));
        SharedCpu { restore }
    }

    /// Sends one request line and reads the response line into `response`
    /// (cleared first). Returns the time from the first byte written to
    /// the full line read.
    pub fn request(&mut self, line: &str, response: &mut String) -> Result<Duration, String> {
        response.clear();
        let stdin = self.stdin.as_mut().ok_or("plutod was shut down")?;
        self.outgoing.clear();
        self.outgoing.extend_from_slice(line.as_bytes());
        self.outgoing.push(b'\n');
        let start = Instant::now();
        stdin
            .write_all(&self.outgoing)
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("plutod: write failed: {e}"))?;
        let n = self
            .stdout
            .read_line(response)
            .map_err(|e| format!("plutod: read failed: {e}"))?;
        let took = start.elapsed();
        if n == 0 {
            return Err("plutod closed its stdout".to_string());
        }
        Ok(took)
    }

    /// Closes the daemon's stdin, which ends it, and reaps it; `None`
    /// when that has been done before.
    fn end(&mut self) -> Option<std::io::Result<Reaped>> {
        self.stdin.take();
        self.child.take().map(reap)
    }

    /// Ends the daemon and returns how it exited and its peak RSS: its
    /// `VmHWM`, read while it still waits for the next request.
    pub fn shutdown(&mut self) -> Result<Reaped, String> {
        let pid = self
            .child
            .as_ref()
            .ok_or("plutod was shut down before")?
            .id();
        let peak_kib = vm_hwm_kib(&pid.to_string())?;
        let reaped = self
            .end()
            .expect("checked above")
            .map_err(|e| format!("plutod: wait failed: {e}"))?;
        Ok(Reaped {
            peak_rss_mb: peak_kib as f64 / KIB_PER_MIB,
            ..reaped
        })
    }
}

impl Drop for Plutod {
    fn drop(&mut self) {
        // Errors cannot be returned from here; `shutdown` reports them.
        let _ = self.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawner_protocol_round_trips_output_exit_code_and_rss() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&out).unwrap();
        let scratch = out.join("test-spawner.stderr");
        let sh = Path::new("/bin/sh");
        let script = "printf 'two\\nlines\\n'; echo oops >&2; exit 3";
        let mut requests = request_line(sh, &["-c", script], &scratch).unwrap();
        let unused = out.join("test-spawner-2.stderr");
        requests += &request_line(Path::new("/no/such/program"), &[], &unused).unwrap();
        let mut answers = Vec::new();
        serve_spawns(requests.as_bytes(), &mut answers).unwrap();

        let mut answers = &answers[..];
        let ran = read_answer(&mut answers, &scratch).unwrap();
        assert_eq!(ran.stdout, "two\nlines\n");
        assert_eq!(ran.stderr, "oops\n");
        assert_eq!(ran.reaped.exit_code, Some(3));
        assert!(ran.wall > Duration::ZERO);
        assert!(ran.reaped.peak_rss_mb > 0.0 && ran.spawner_rss_mb > 0.0);
        let missing = read_answer(&mut answers, &scratch).unwrap_err();
        assert!(missing.contains("err\t"), "{missing}");
        assert!(answers.is_empty());

        assert!(request_line(sh, &["a\tb"], &scratch).is_err());
        assert!(request_line(sh, &["a\nb"], &scratch).is_err());
    }
}
