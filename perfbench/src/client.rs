//! Closed-loop, single-client load generator for a `weakgpu serve` daemon.
//!
//! Each session spawns the daemon on a fresh copy of the warm cache
//! file, sends the request stream one line at a time (the next request
//! only after the previous response arrived), ends it with `shutdown`,
//! and waits for the daemon to flush its cache and exit. Every response
//! is checked against the in-process verdict before any time counts.

use std::collections::BTreeSet;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::os::raw::{c_int, c_long};
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::Instant;

use weakgpu_axiom::enumerate::ModelOutcomes;
use weakgpu_harness::json::{self, Json};

use crate::requests::{Class, Stream};

/// What one session measured.
pub struct Session {
    /// Spawn until the first response (cache-file load, model load and
    /// one warm hit).
    pub setup_s: f64,
    /// Spawn until the daemon exited after `shutdown`.
    pub wall_s: f64,
    /// The daemon's peak resident set over its whole life, the cache
    /// flush after `shutdown` included (`ru_maxrss` from `wait4`).
    pub peak_rss_kb: u64,
    /// Request latencies (write to read) after the opening probe.
    pub latencies_us: Vec<(Class, f64)>,
    /// Verdict requests sent, the probe included.
    pub attempted: u64,
    /// Responses that were not `ok` or disagreed with the expectation,
    /// plus a failed shutdown or exit.
    pub failed: u64,
    /// First mismatch, for the report.
    pub first_error: Option<String>,
}

/// The fields of a verdict response the gate compares.
#[derive(Debug, PartialEq, Eq)]
pub struct Expected {
    pub test: String,
    pub num_candidates: u64,
    pub num_allowed: u64,
    pub condition_witnessed: bool,
    pub allowed_outcomes: BTreeSet<String>,
}

impl Expected {
    pub fn new(test: &str, v: &ModelOutcomes) -> Self {
        Expected {
            test: test.to_owned(),
            num_candidates: v.num_candidates as u64,
            num_allowed: v.num_allowed as u64,
            condition_witnessed: v.condition_witnessed,
            allowed_outcomes: v.allowed_outcomes.iter().map(|o| o.to_string()).collect(),
        }
    }
}

/// Checks one response line; `Err` describes the first disagreement.
pub fn check_response(line: &str, id: usize, want: &Expected, cached: bool) -> Result<(), String> {
    let v = json::parse(line).map_err(|e| format!("response {id} is not JSON: {e}"))?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("response {id} lacks {k}"));
    let as_bool = |j: &Json| match j {
        Json::Bool(b) => Some(*b),
        _ => None,
    };
    if field("ok").ok().and_then(as_bool) != Some(true) {
        return Err(format!("response {id} not ok: {line}"));
    }
    if field("id")?.as_u64() != Some(id as u64) {
        return Err(format!("response {id} answers another id"));
    }
    let outcomes: BTreeSet<String> = field("allowed_outcomes")?
        .as_arr()
        .ok_or_else(|| format!("response {id}: allowed_outcomes is not an array"))?
        .iter()
        .map(|o| o.as_str().unwrap_or_default().to_owned())
        .collect();
    let got = Expected {
        test: field("test")?.as_str().unwrap_or_default().to_owned(),
        num_candidates: field("num_candidates")?.as_u64().unwrap_or(u64::MAX),
        num_allowed: field("num_allowed")?.as_u64().unwrap_or(u64::MAX),
        condition_witnessed: as_bool(field("condition_witnessed")?)
            .unwrap_or(!want.condition_witnessed),
        allowed_outcomes: outcomes,
    };
    if &got != want {
        return Err(format!(
            "response {id} disagrees with the in-process verdict: got {got:?}, want {want:?}"
        ));
    }
    if as_bool(field("cached")?) != Some(cached) {
        return Err(format!("response {id}: cached should be {cached}"));
    }
    Ok(())
}

/// Linux's `struct rusage`: two `struct timeval`s, then 14 `long`s, the
/// first of which, `ru_maxrss`, is the peak resident set in kilobytes.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    times: [c_long; 4],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut RUsage) -> c_int;
}

/// Reaps `child` and returns its exit status and peak resident set in
/// kilobytes, which `Child::wait` does not report.
fn wait_with_peak_rss(child: &Child) -> io::Result<(ExitStatus, u64)> {
    let pid = c_int::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status: c_int = 0;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `pid` is this process's unreaped child, and both
        // pointers are to live locals of the types `wait4` writes.
        if unsafe { wait4(pid, &mut status, 0, &mut usage) } == pid {
            let kb = u64::try_from(usage.maxrss).unwrap_or(0);
            return Ok((ExitStatus::from_raw(status), kb));
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Runs one session against `weakgpu serve --cache-file work_cache`,
/// starting from a copy of `pristine_cache`.
///
/// # Errors
///
/// Only on failures that leave nothing to measure (the daemon cannot be
/// spawned, a pipe breaks); wrong answers are counted in the session.
pub fn run_session(
    weakgpu: &Path,
    pristine_cache: &Path,
    work_cache: &Path,
    stream: &Stream,
    expected: &[Expected],
) -> Result<Session, String> {
    std::fs::copy(pristine_cache, work_cache)
        .map_err(|e| format!("copy {}: {e}", pristine_cache.display()))?;
    let t0 = Instant::now();
    let mut child = Command::new(weakgpu)
        .arg("serve")
        .arg("--cache-file")
        .arg(work_cache)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", weakgpu.display()))?;
    let mut session = Session {
        setup_s: 0.0,
        wall_s: 0.0,
        peak_rss_kb: 0,
        latencies_us: Vec::with_capacity(stream.requests.len()),
        attempted: 0,
        failed: 0,
        first_error: None,
    };
    if let Err(e) = converse(&mut child, &mut session, t0, stream, expected) {
        // Nothing left to measure: stop the daemon before reporting.
        let _ = child.kill();
        let _ = child.wait();
        return Err(e);
    }
    let (status, peak_rss_kb) =
        wait_with_peak_rss(&child).map_err(|e| format!("wait for daemon: {e}"))?;
    session.wall_s = t0.elapsed().as_secs_f64();
    session.peak_rss_kb = peak_rss_kb;
    if !status.success() {
        fail(&mut session, format!("daemon exited with {status}"));
    }
    Ok(session)
}

fn fail(s: &mut Session, msg: String) {
    s.failed += 1;
    s.first_error.get_or_insert(msg);
}

/// The request/response loop of one session, up to closing the
/// daemon's input after `shutdown`.
fn converse(
    child: &mut Child,
    session: &mut Session,
    t0: Instant,
    stream: &Stream,
    expected: &[Expected],
) -> Result<(), String> {
    let mut input = BufWriter::new(child.stdin.take().expect("stdin is piped"));
    let mut output = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    let io = |e: std::io::Error| format!("daemon pipe: {e}");
    for (id, req) in stream.requests.iter().enumerate() {
        line.clear();
        let start = Instant::now();
        input.write_all(req.line.as_bytes()).map_err(io)?;
        input.write_all(b"\n").map_err(io)?;
        input.flush().map_err(io)?;
        output.read_line(&mut line).map_err(io)?;
        let end = Instant::now();
        session.attempted += 1;
        if id == 0 {
            session.setup_s = (end - t0).as_secs_f64();
        } else {
            session
                .latencies_us
                .push((req.class, (end - start).as_secs_f64() * 1e6));
        }
        if let Err(msg) =
            check_response(line.trim_end(), id, &expected[req.slot], req.class.cached())
        {
            fail(session, msg);
        }
    }
    line.clear();
    writeln!(input, "{}", stream.shutdown_line()).map_err(io)?;
    input.flush().map_err(io)?;
    output.read_line(&mut line).map_err(io)?;
    if !line.contains("\"shutting_down\": true") {
        fail(session, format!("shutdown not acknowledged: {line:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakgpu_litmus::{corpus, ThreadScope};

    fn mp_expected() -> (Expected, String) {
        let test = corpus::mp(ThreadScope::InterCta, None);
        let model = weakgpu_models::ptx_model();
        let v =
            weakgpu_axiom::enumerate::model_outcomes(&test, &*model, &Default::default()).unwrap();
        let outcomes: Vec<String> = v
            .allowed_outcomes
            .iter()
            .map(|o| json::escape(&o.to_string()))
            .collect();
        let line = format!(
            "{{\"id\": 4, \"ok\": true, \"test\": {}, \"model\": \"ptx\", \"num_candidates\": {}, \"num_allowed\": {}, \"condition_witnessed\": {}, \"allowed_outcomes\": [{}], \"cached\": false}}",
            json::escape(test.name()),
            v.num_candidates,
            v.num_allowed,
            v.condition_witnessed,
            outcomes.join(", ")
        );
        (Expected::new(test.name(), &v), line)
    }

    #[test]
    fn gate_accepts_the_matching_response_only() {
        let (want, line) = mp_expected();
        assert_eq!(check_response(&line, 4, &want, false), Ok(()));
        assert!(
            check_response(&line, 4, &want, true).is_err(),
            "cache class"
        );
        assert!(check_response(&line, 5, &want, false).is_err(), "id");
        let fewer = line.replace(
            &format!("\"num_allowed\": {}", want.num_allowed),
            &format!("\"num_allowed\": {}", want.num_allowed + 1),
        );
        assert!(check_response(&fewer, 4, &want, false).is_err(), "count");
        let err = "{\"id\": 4, \"ok\": false, \"error\": \"boom\"}";
        assert!(check_response(err, 4, &want, false).is_err(), "not ok");
    }
}
