//! End-to-end test of the serving subsystem: a real `triad-serve` TCP server
//! on an ephemeral port, driven only through sockets.
//!
//! Covers the full acceptance surface: fit over the wire on an archive
//! dataset, eight concurrent detects through one executor permit that must
//! all be answered identically without a timeout (asserted via the `stats`
//! counters), detection correctness within ±100 points of the ground-truth
//! event, bit-for-bit identical responses across
//! evict/reload, and a graceful shutdown that drains an in-flight request.
//! A second case sends hostile request lines over a raw socket: a request
//! padded with a 4 MiB string must be answered within seconds, and a
//! non-finite number must be refused with an error envelope. The same case
//! holds the parser to RFC 8259: an escaped surrogate pair decodes to the
//! same name as raw UTF-8, while a lone surrogate or `007` gets an error
//! envelope.

mod common;

use common::{easy_dataset, spawn_server, stat_counter, wait_until, CLIENT_TIMEOUT};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;
use triad_serve::{json, Client, ServeConfig, Value};

fn range_of(v: &Value, key: &str) -> (usize, usize) {
    let arr = v.get(key).and_then(Value::as_arr).unwrap_or_else(|| {
        panic!("response missing range {key}: {v}");
    });
    (
        arr[0].as_u64().expect("range start") as usize,
        arr[1].as_u64().expect("range end") as usize,
    )
}

#[test]
fn serve_fit_concurrent_detect_evict_shutdown() {
    let models_dir = common::tmp_dir("serve_e2e");
    let (handle, addr) = spawn_server(ServeConfig {
        workers: 10,
        // One executor permit: the concurrent detects queue for it and run
        // one after another on their own connection workers.
        executors: 1,
        request_timeout_ms: 120_000,
        idle_timeout_ms: 120_000,
        cache_capacity: 4,
        ..common::ephemeral_serve_cfg(&models_dir)
    });

    let ds = easy_dataset();
    let anomaly = ds.anomaly_in_test();
    let test: Vec<f64> = ds.test().to_vec();

    // --- fit over the wire -------------------------------------------------
    let mut ctl = Client::connect(&addr, CLIENT_TIMEOUT).expect("connect");
    let health = ctl.health().expect("health");
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));

    let fit = ctl
        .fit(
            "ucr-level-shift",
            ds.train(),
            vec![
                ("epochs", Value::Num(5.0)),
                ("depth", Value::Num(3.0)),
                ("hidden", Value::Num(12.0)),
                ("merlin_step", Value::Num(4.0)),
                ("seed", Value::Num(0.0)),
            ],
        )
        .expect("fit");
    assert!(fit.get("bytes").and_then(Value::as_u64).unwrap() > 0);
    let listed = ctl.list().expect("list");
    assert_eq!(
        listed.get("models").and_then(Value::as_arr).unwrap().len(),
        1
    );

    // --- 8 concurrent detects -----------------------------------------------
    let n_clients = 8;
    let barrier = Arc::new(Barrier::new(n_clients));
    let mut joins = Vec::new();
    for _ in 0..n_clients {
        let addr = addr.clone();
        let test = test.clone();
        let barrier = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let mut c = Client::connect(&addr, CLIENT_TIMEOUT).expect("connect");
            barrier.wait();
            c.detect("ucr-level-shift", &test).expect("detect")
        }));
    }
    let responses: Vec<Value> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    assert_eq!(responses.len(), n_clients);
    // Identical requests ⇒ byte-identical responses (deterministic JSON).
    let first = responses[0].to_string();
    for r in &responses[1..] {
        assert_eq!(r.to_string(), first, "concurrent responses diverged");
    }

    let stats = ctl.stats().expect("stats");
    let counter = |k: &str| stat_counter(&stats, k);
    assert_eq!(counter("detect_total"), n_clients as u64);
    assert_eq!(counter("timeouts_total"), 0);

    // --- detection is correct within ±100 points ---------------------------
    let det = &responses[0];
    let (sel_start, sel_end) = range_of(det, "selected");
    let lo = anomaly.start.saturating_sub(100);
    let hi = anomaly.end + 100;
    assert!(
        sel_start < hi && sel_end > lo,
        "selected window {sel_start}..{sel_end} misses anomaly {anomaly:?} (±100)"
    );
    let (reg_start, reg_end) = range_of(det, "region");
    assert!(
        reg_start < hi && reg_end > lo,
        "flagged region {reg_start}..{reg_end} misses anomaly {anomaly:?} (±100)"
    );

    // --- evict, reload from disk, bit-for-bit identical ---------------------
    let evicted = ctl.evict("ucr-level-shift").expect("evict");
    assert_eq!(
        evicted.get("was_loaded").and_then(Value::as_bool),
        Some(true)
    );
    let misses_before = counter("cache_misses");
    let reloaded = ctl
        .detect("ucr-level-shift", &test)
        .expect("detect after evict");
    assert_eq!(
        reloaded.to_string(),
        first,
        "detection after evict/reload is not bit-identical"
    );
    let stats2 = ctl.stats().expect("stats");
    let misses_after = stats2.get("cache_misses").and_then(Value::as_u64).unwrap();
    assert!(
        misses_after > misses_before,
        "reload did not go through the disk-load path"
    );

    // --- graceful shutdown drains an in-flight detect -----------------------
    let base_requests = stat_counter(&ctl.stats().expect("stats"), "requests_total");
    let inflight = {
        let addr = addr.clone();
        let test = test.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr, CLIENT_TIMEOUT).expect("connect");
            c.detect("ucr-level-shift", &test)
        })
    };
    // Wait until the in-flight detect's request line has actually been read
    // by the server — requests_total must move past the baseline plus our
    // own stats polls — then ask for shutdown on a separate connection.
    let mut polls = 0u64;
    wait_until(
        "in-flight detect to reach the server",
        Duration::from_secs(30),
        || {
            polls += 1;
            stat_counter(&ctl.stats().expect("stats"), "requests_total") > base_requests + polls
        },
    );
    let bye = ctl.shutdown().expect("shutdown verb");
    assert_eq!(bye.get("draining").and_then(Value::as_bool), Some(true));
    let drained = inflight
        .join()
        .unwrap()
        .expect("in-flight detect was dropped");
    assert_eq!(
        drained.to_string(),
        first,
        "drained in-flight response differs"
    );
    // All threads must exit; new connections must be refused afterwards.
    handle.wait();
    assert!(
        Client::connect(&addr, Duration::from_millis(500)).is_err(),
        "server still accepting after shutdown"
    );
    let _ = std::fs::remove_dir_all(&models_dir);
}

/// Write one raw request line, read one response line and parse it.
fn raw_call(conn: &mut BufReader<TcpStream>, line: &str) -> Value {
    let w = conn.get_mut();
    w.write_all(line.as_bytes()).expect("send");
    w.write_all(b"\n").expect("send");
    w.flush().expect("flush");
    let mut buf = String::new();
    let n = conn
        .read_line(&mut buf)
        .expect("response within the read timeout");
    assert!(n > 0, "server closed the connection");
    json::parse(buf.trim()).expect("response is JSON")
}

#[test]
fn long_strings_and_non_finite_numbers_get_prompt_envelopes() {
    let models_dir = common::tmp_dir("serve_e2e_hostile");
    let (handle, addr) = spawn_server(common::ephemeral_serve_cfg(&models_dir));
    let stream = TcpStream::connect(&addr).expect("connect");
    // String parsing is linear: 4 MiB parses in milliseconds, so 20 s is a
    // wide margin that a per-character rescan of the input would blow.
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut conn = BufReader::new(stream);

    let pad = "a".repeat(4 << 20);
    let padded = raw_call(&mut conn, &format!(r#"{{"verb":"health","pad":"{pad}"}}"#));
    assert_eq!(padded.get("ok").and_then(Value::as_bool), Some(true));

    // The connection survives and keeps answering.
    let again = raw_call(&mut conn, r#"{"verb":"health"}"#);
    assert_eq!(again.get("ok").and_then(Value::as_bool), Some(true));

    // A `\u`-escaping client (Python's default `json.dumps`) sends U+1F600
    // as a surrogate pair; it must arrive as the one character a raw-UTF-8
    // client would send. The id is echoed as is, and the stream name comes
    // back inside the name-validation error.
    let escaped = raw_call(
        &mut conn,
        r#"{"verb":"stream.poll","id":"\ud83d\ude00","stream":"s\uD83D\uDE00"}"#,
    );
    let raw = raw_call(
        &mut conn,
        r#"{"verb":"stream.poll","id":"😀","stream":"s😀"}"#,
    );
    assert_eq!(
        escaped.get("id").and_then(Value::as_str),
        Some("😀"),
        "{escaped}"
    );
    assert_eq!(escaped.to_string(), raw.to_string());
    let error = escaped.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(error.contains("\"s😀\""), "{escaped}");
    assert!(!error.contains('\u{FFFD}'), "{escaped}");

    // A non-finite number, a lone surrogate and a leading zero are not JSON.
    for line in [
        r#"{"verb":"detect","model":"m","series":[1,2,1e999,3]}"#,
        r#"{"verb":"stream.poll","stream":"s\ud83d"}"#,
        r#"{"verb":"detect","model":"m","series":[1,007,3]}"#,
    ] {
        let refused = raw_call(&mut conn, line);
        assert_eq!(
            refused.get("ok").and_then(Value::as_bool),
            Some(false),
            "{refused}"
        );
        let error = refused.get("error").and_then(Value::as_str).unwrap_or("");
        assert!(
            error.contains("bad JSON"),
            "not refused by the parser: {refused}"
        );
    }

    let bye = raw_call(&mut conn, r#"{"verb":"shutdown"}"#);
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    handle.wait();
    let _ = std::fs::remove_dir_all(&models_dir);
}
