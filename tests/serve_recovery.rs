//! End-to-end crash recovery of the live service: a `psbench serve` process
//! with `--state-dir` is SIGKILLed mid-session, restarted, and must resume
//! the session by journal replay — the final drained result byte-identical
//! to an offline `psbench simulate` of the trace the session exported. Plus:
//! SIGTERM drains to a checkpoint and exits cleanly, and a sweep under a
//! `PSBENCH_FAULTS` plan either completes correctly or fails loudly while
//! `store verify` stays clean. A session that cancelled a job publishes
//! nothing to the store.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

use psbench::serve::run_script;

fn scratch_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("psbench-serve-rec-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// Spawn `psbench serve` on an ephemeral port and parse the bound address
/// from its `listening on …` line.
fn spawn_serve(state_dir: &Path) -> (Child, SocketAddr) {
    spawn_serve_with(state_dir, &[])
}

/// [`spawn_serve`] with extra `serve` arguments.
fn spawn_serve_with(state_dir: &Path, extra: &[&str]) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_psbench"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--scheduler",
            "easy",
            "--machine",
            "64",
            "--state-dir",
            state_dir.to_str().unwrap(),
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn psbench serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("serve prints its address")
        .expect("readable stdout");
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .parse()
        .expect("parseable listen address");
    // Keep draining stdout in the background so the child never blocks on a
    // full pipe (it also prints the sigterm checkpoint line on shutdown).
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

#[test]
fn sigkilled_server_resumes_and_drain_matches_offline_simulate() {
    let dir = scratch_dir("sigkill");
    let (mut child, addr) = spawn_serve(&dir);

    // First leg: a named session takes real work, then the process dies hard
    // mid-session — no drain, no shutdown hook, exactly like a crash.
    let first_leg = [
        "hello psbench-serve/1 session=prod",
        "submit id=1 submit=0 runtime=900 procs=64 seq=1",
        "submit id=2 submit=30 runtime=300 procs=16 estimate=450 seq=2",
        "submit id=3 submit=60 runtime=120 procs=8 user=3 seq=3",
        "advance to=200 seq=4",
        "cancel id=99 seq=5", // unknown job: deterministic err, journaled
    ];
    let transcript = run_script(addr, &first_leg).expect("first leg runs");
    assert!(
        transcript.replies[0].contains("session=prod seq=0 resumed=false"),
        "{}",
        transcript.replies[0]
    );
    assert!(transcript.replies[5].starts_with("err cancel:"));
    child.kill().expect("SIGKILL the server");
    child.wait().expect("reap the killed server");

    // Second leg: a fresh process on the same state dir replays the journal
    // and the session carries on where seq 5 left it.
    let (child, addr) = spawn_serve(&dir);
    let second_leg = [
        "hello psbench-serve/1 session=prod",
        "submit id=4 submit=400 runtime=60 procs=32 seq=6",
        "advance to=2000 seq=7",
        "trace",
        "drain seq=8",
        "bye",
    ];
    let transcript = run_script(addr, &second_leg).expect("second leg runs");
    assert!(
        transcript.replies[0].contains("session=prod seq=5 resumed=true"),
        "restart must resume the journaled session: {}",
        transcript.replies[0]
    );
    let trace = transcript.payload("trace").expect("trace payload").clone();
    let drain = transcript.payload("drain").expect("drain payload").clone();
    kill_term(&child);
    wait_clean(child);

    // Offline leg: `psbench simulate` of the exported trace must produce the
    // exact bytes the recovered session drained.
    let trace_path = dir.join("prod.swf");
    std::fs::write(&trace_path, &trace.body).unwrap();
    let result_path = dir.join("prod.result");
    let out = psbench(&[
        "simulate",
        trace_path.to_str().unwrap(),
        "--scheduler",
        "easy",
        "--result-out",
        result_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "offline simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&result_path).unwrap(),
        drain.body,
        "recovered online drain != offline simulate of the exported trace"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn psbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_psbench"))
        .args(args)
        .output()
        .expect("psbench binary runs")
}

fn kill_term(child: &Child) {
    let ok = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs")
        .success();
    assert!(ok, "kill -TERM failed");
}

fn wait_clean(mut child: Child) {
    let status = child.wait().expect("server exits");
    assert!(status.success(), "server exit status {status:?}");
}

#[test]
fn sigterm_checkpoints_journals_and_exits_cleanly() {
    let dir = scratch_dir("sigterm");
    let (mut child, addr) = spawn_serve(&dir);
    let transcript = run_script(
        addr,
        &[
            "hello psbench-serve/1 session=night",
            "submit id=1 submit=0 runtime=100 procs=4 seq=1",
        ],
    )
    .expect("session runs");
    assert!(!transcript.has_errors(), "{:?}", transcript.replies);

    kill_term(&child);
    let status = child.wait().expect("server exits on SIGTERM");
    assert!(status.success(), "SIGTERM exit status {status:?}");
    assert!(
        dir.join("sessions").join("night.journal").exists(),
        "checkpoint must leave the session journal on disk"
    );

    // And the checkpointed session resumes on the next start.
    let (child, addr) = spawn_serve(&dir);
    let transcript = run_script(
        addr,
        &["hello psbench-serve/1 session=night", "drain seq=2", "bye"],
    )
    .expect("resumed session runs");
    assert!(
        transcript.replies[0].contains("session=night seq=1 resumed=true"),
        "{}",
        transcript.replies[0]
    );
    kill_term(&child);
    wait_clean(child);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `sweep grid` invocation under a seeded fault plan. Whatever the plan
/// does, two things must hold afterwards: the store verifies clean, and a
/// clean rerun converges on a correct, complete sweep.
#[test]
fn faulted_sweeps_fail_loudly_and_the_store_stays_verifiable() {
    let dir = scratch_dir("faults");
    let store = dir.join("store");
    let grid = |extra_env: Option<&str>| -> Output {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_psbench"));
        cmd.args([
            "sweep",
            "grid",
            "--store",
            store.to_str().unwrap(),
            "--models",
            "lublin99",
            "--schedulers",
            "fcfs,easy",
            "--loads",
            "1.0,0.6",
            "--seeds",
            "1",
            "--jobs",
            "40",
            "--machine",
            "64",
            "--threads",
            "2",
            "--format",
            "csv",
        ]);
        match extra_env {
            Some(plan) => cmd.env("PSBENCH_FAULTS", plan),
            None => cmd.env_remove("PSBENCH_FAULTS"),
        };
        cmd.output().expect("psbench sweep grid runs")
    };

    // A fault matrix: several seeds, mixed transient and torn writes. Each
    // run either completes or fails loudly — and must never corrupt the
    // store either way.
    let mut failures = 0usize;
    for seed in 1..=4u64 {
        let out = grid(Some(&format!("seed={seed},err=120,short=80")));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("fault injection active"),
            "fault plan warning missing: {stderr}"
        );
        if !out.status.success() {
            failures += 1;
            assert!(
                stderr.contains("injected fault:"),
                "failure must name the injected fault: {stderr}"
            );
        }
        let verify = psbench(&["store", "verify", "--store", store.to_str().unwrap()]);
        assert!(
            verify.status.success(),
            "store verify found problems after faulted run (seed {seed}): {}",
            String::from_utf8_lossy(&verify.stdout)
        );
    }

    // A clean resume completes the grid; its report equals a from-scratch
    // clean sweep in a fresh store, so fault debris changed nothing.
    let resumed = grid(None);
    assert!(
        resumed.status.success(),
        "clean resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let fresh_store = dir.join("fresh");
    let fresh = {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_psbench"));
        cmd.args([
            "sweep",
            "grid",
            "--store",
            fresh_store.to_str().unwrap(),
            "--models",
            "lublin99",
            "--schedulers",
            "fcfs,easy",
            "--loads",
            "1.0,0.6",
            "--seeds",
            "1",
            "--jobs",
            "40",
            "--machine",
            "64",
            "--threads",
            "2",
            "--format",
            "csv",
        ]);
        cmd.env_remove("PSBENCH_FAULTS");
        cmd.output().expect("fresh sweep runs")
    };
    assert!(fresh.status.success());
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&fresh.stdout),
        "resumed-after-faults report drifted from a clean sweep"
    );
    // Nothing about the fault matrix is asserted beyond the invariants —
    // but with these seeds at least one run should actually have failed,
    // or the matrix is not exercising the error path at all.
    assert!(failures > 0, "no faulted run failed; raise the rates");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cancel is not expressible in the exported trace, so a drained session
/// that cancelled a job must not publish its result under the trace's cell
/// key: a later `psbench simulate --store` of that trace would be a cache hit
/// returning a result the trace does not produce.
#[test]
fn a_session_that_cancelled_publishes_nothing_under_its_trace_key() {
    use psbench::store::{fingerprint_source, ArtifactKind, ArtifactStore};

    let dir = scratch_dir("cancel-store");
    let store_dir = dir.join("store");
    let (child, addr) = spawn_serve_with(
        &dir.join("state"),
        &["--store", store_dir.to_str().unwrap()],
    );
    let transcript = run_script(
        addr,
        &[
            "hello psbench-serve/1 session=cancels",
            "submit id=1 submit=0 runtime=900 procs=64 seq=1",
            // Waits behind the full-machine job, so it is still queued.
            "submit id=2 submit=30 runtime=300 procs=16 seq=2",
            "cancel id=2 seq=3",
            "trace",
            "drain seq=4",
            "bye",
        ],
    )
    .expect("session runs");
    assert!(!transcript.has_errors(), "{:?}", transcript.replies);
    assert!(transcript.replies[3].starts_with("ok cancel"));
    let drain = transcript.payload("drain").expect("drain payload").clone();
    assert!(
        !drain.head.contains("stored="),
        "a cancelled session was published: {}",
        drain.head
    );
    let trace = transcript.payload("trace").expect("trace payload").clone();
    kill_term(&child);
    wait_clean(child);

    let text = String::from_utf8(trace.body.clone()).unwrap();
    let log = psbench::swf::parse_str(&text, &psbench::swf::ParseOptions::default()).unwrap();
    let trace_fp = fingerprint_source(log.as_source("cancels")).unwrap();
    let cell = psbench::core::trace_cell_key(trace_fp, "easy", 64, false);
    let store = ArtifactStore::open(&store_dir).unwrap();
    assert!(
        !store.has(ArtifactKind::Result, cell),
        "the store holds a result under the cancelled session's trace key"
    );

    // And the store-backed offline run of the trace computes the trace's own
    // result instead of returning the drained one.
    let trace_path = dir.join("cancels.swf");
    std::fs::write(&trace_path, &trace.body).unwrap();
    let simulate = |extra: &[&str], out: &str| {
        let path = dir.join(out);
        let mut args = vec![
            "simulate",
            trace_path.to_str().unwrap(),
            "--scheduler",
            "easy",
            "--out",
            path.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let run = psbench(&args);
        assert!(
            run.status.success(),
            "simulate failed: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        std::fs::read(path).unwrap()
    };
    let offline = simulate(&[], "offline.md");
    let warm = simulate(&["--store", store_dir.to_str().unwrap()], "warm.md");
    assert_eq!(offline, warm, "store-backed simulate of the trace drifted");
    let _ = std::fs::remove_dir_all(&dir);
}
