//! The one stream runtime, [`FleetManager`], at its edges:
//!
//! * a full shard queue sheds the whole batch, and `dropped_backpressure`
//!   accounts for exactly the points shed;
//! * bad stream or model names are rejected before any shard is touched;
//! * re-opening an open stream is refused, and each shard loads a shared
//!   model at most once;
//! * a corrupt file in the checkpoint store counts in `checkpoint_failures`
//!   at startup without aborting it;
//! * a server started without a checkpoint directory keeps its open streams
//!   in `<models>/_fleet` across a restart, and closing a stream leaves no
//!   files behind;
//! * state that no longer matches its model (refit under the same name with
//!   another geometry) is discarded by `close` or `open` instead of pinning
//!   the stream name and its files;
//! * `stats` has the same shape with and without a fleet budget.

mod common;

use common::{
    connect, easy_dataset, ephemeral_serve_cfg, push_with_retry, quick_cfg, spawn_server, tmp_dir,
    tmp_dir_created, wait_for_seq,
};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use triad_core::{persist, TriAd, TriadConfig};
use triad_fleet::{DriftPolicy, FleetConfig, FleetManager};
use triad_serve::{proto, ServeConfig, Value};
use triad_stream::{ModelLoader, ShardMetrics, StreamError};

/// Fits the quick config on the easy dataset's training split.
fn fit_loader() -> ModelLoader {
    fit_loader_with(quick_cfg(0))
}

fn fit_loader_with(cfg: TriadConfig) -> ModelLoader {
    Arc::new(move |_name: &str| {
        TriAd::new(cfg.clone())
            .fit(easy_dataset().train())
            .map_err(|e| e.to_string())
    })
}

/// The quick config with a longer window: a model of another geometry.
fn wide_cfg() -> TriadConfig {
    TriadConfig {
        window_periods: 3.5,
        ..quick_cfg(0)
    }
}

fn fleet(dir: &Path, shards: usize, queue_capacity: usize, loader: ModelLoader) -> FleetManager {
    FleetManager::new(
        FleetConfig {
            shards,
            queue_capacity,
            store_dir: dir.to_path_buf(),
            drift: DriftPolicy {
                enabled: false,
                ..DriftPolicy::default()
            },
            ..FleetConfig::default()
        },
        loader,
        None,
    )
    .expect("fleet")
}

fn shard_sum(
    mgr: &FleetManager,
    counter: impl Fn(&ShardMetrics) -> &std::sync::atomic::AtomicU64,
) -> u64 {
    mgr.shard_metrics()
        .iter()
        .map(|m| ShardMetrics::get(counter(m)))
        .sum()
}

#[test]
fn full_queue_sheds_the_batch_and_accounts_every_dropped_point() {
    let dir = tmp_dir("runtime_backpressure");
    // The loader reports that it is running, then blocks until released:
    // the single shard is wedged inside `open` with an empty queue.
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let worker_gate = Arc::clone(&gate);
    let fit = fit_loader();
    let loader: ModelLoader = Arc::new(move |name: &str| {
        let _ = entered_tx.send(());
        let (open, cv) = &*worker_gate;
        let mut released = open.lock().map_err(|_| "gate poisoned".to_string())?;
        while !*released {
            released = cv.wait(released).map_err(|_| "gate poisoned".to_string())?;
        }
        fit(name)
    });
    let mgr = Arc::new(fleet(&dir, 1, 1, loader));
    let opener = {
        let mgr = Arc::clone(&mgr);
        std::thread::spawn(move || mgr.open("wedge", "m"))
    };
    entered_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("shard never started loading the model");

    // Depth-1 queue: the first batch is queued, every later one is shed
    // whole, with its points in the drop account.
    let batch = [1.0, 2.0, 3.0];
    let mut queued = 0usize;
    let mut dropped = 0usize;
    for _ in 0..8 {
        let ticket = mgr.push("wedge", &batch).expect("push");
        assert_eq!(ticket.shard, 0);
        if ticket.queued {
            assert_eq!(ticket.dropped, 0);
            queued += 1;
        } else {
            assert_eq!(ticket.dropped, batch.len());
            dropped += ticket.dropped;
        }
    }
    assert_eq!(queued, 1, "only the first batch fits a depth-1 queue");
    assert_eq!(dropped, 7 * batch.len());
    assert_eq!(shard_sum(&mgr, |m| &m.dropped_backpressure), dropped as u64);
    assert_eq!(shard_sum(&mgr, |m| &m.ingested), batch.len() as u64);

    // Release the shard: the queued batch lands after the open completes.
    {
        let (open, cv) = &*gate;
        *open.lock().expect("gate") = true;
        cv.notify_all();
    }
    opener.join().expect("join").expect("open");
    let mut seq = 0;
    common::wait_until(
        "queued batch to be ingested",
        Duration::from_secs(60),
        || {
            seq = mgr.poll("wedge").expect("poll").seq;
            seq >= batch.len() as u64
        },
    );
    assert_eq!(seq, batch.len() as u64, "shed batches must never land");
    drop(mgr);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_names_are_rejected_before_any_shard_is_touched() {
    let dir = tmp_dir("runtime_names");
    let calls = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&calls);
    let loader: ModelLoader = Arc::new(move |_name: &str| {
        counted.fetch_add(1, Ordering::SeqCst);
        Err("no model should be loaded".into())
    });
    let mgr = fleet(&dir, 1, 16, loader);
    let long = "z".repeat(65);
    let bad_names = ["", ".hidden", "-flag", "a b", "x/y", "..", long.as_str()];
    for bad in bad_names {
        assert!(
            matches!(mgr.open(bad, "m"), Err(StreamError::BadName(_))),
            "accepted stream name {bad:?}"
        );
        assert!(
            matches!(mgr.open("ok", bad), Err(StreamError::BadName(_))),
            "accepted model name {bad:?}"
        );
        assert!(matches!(
            mgr.push(bad, &[1.0]),
            Err(StreamError::BadName(_))
        ));
        assert!(matches!(mgr.poll(bad), Err(StreamError::BadName(_))));
        assert!(matches!(mgr.close(bad), Err(StreamError::BadName(_))));
        assert!(matches!(
            mgr.checkpoint(Some(bad)),
            Err(StreamError::BadName(_))
        ));
    }
    assert_eq!(calls.load(Ordering::SeqCst), 0, "a shard loaded a model");
    assert_eq!(shard_sum(&mgr, |m| &m.ingested), 0);
    assert_eq!(shard_sum(&mgr, |m| &m.dropped_backpressure), 0);
    assert!(mgr.streams().is_empty());
    drop(mgr);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_open_is_refused_and_each_shard_loads_the_model_once() {
    let dir = tmp_dir("runtime_duplicate");
    let calls = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&calls);
    let fit = fit_loader();
    let loader: ModelLoader = Arc::new(move |name: &str| {
        counted.fetch_add(1, Ordering::SeqCst);
        fit(name)
    });
    let mgr = fleet(&dir, 2, 1024, loader);
    let names = ["alpha", "beta", "gamma", "delta"];
    for s in names {
        mgr.open(s, "m").expect("open");
    }
    assert!(matches!(
        mgr.open("alpha", "m"),
        Err(StreamError::DuplicateStream(_))
    ));

    let ds = easy_dataset();
    let test = ds.test();
    let mut shards = std::collections::BTreeSet::new();
    for s in names {
        for chunk in test.chunks(128) {
            let ticket = mgr.push(s, chunk).expect("push");
            assert!(ticket.queued, "queue too small for the test");
            shards.insert(ticket.shard);
        }
    }
    let offline = TriAd::new(quick_cfg(0))
        .fit(ds.train())
        .expect("fit")
        .detect(test);
    for s in names {
        let report = mgr.close(s).expect("close");
        assert_eq!(report.status.seq, test.len() as u64);
        assert_eq!(report.detection.as_ref(), Some(&offline), "{s}");
    }
    let loads = calls.load(Ordering::SeqCst);
    assert!(
        (1..=shards.len()).contains(&loads),
        "{loads} model loads for {} hosting shards",
        shards.len()
    );
    drop(mgr);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unrestorable_state_is_discarded_on_open_and_the_retry_starts_fresh() {
    let dir = tmp_dir_created("runtime_unrestorable");
    // The second manager starts over an empty store, so `s` is not adopted
    // at startup: its later `open` finds the state on disk and tries to
    // resume it under a model whose window no longer matches.
    let stale = fleet(&dir, 1, 16, fit_loader_with(wide_cfg()));
    let writer = fleet(&dir, 1, 16, fit_loader());
    writer.open("s", "m").expect("open");
    writer
        .push("s", &easy_dataset().test()[..300])
        .expect("push");
    assert_eq!(writer.checkpoint(Some("s")).expect("checkpoint"), 1);
    drop(writer);
    assert!(!files_under(&dir).is_empty());

    assert!(stale.open("s", "m").is_err(), "resumed a mismatched model");
    assert_eq!(files_under(&dir), Vec::<String>::new());
    stale.open("s", "m").expect("retry opens afresh");
    assert_eq!(stale.poll("s").expect("poll").seq, 0);
    drop(stale);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_store_file_counts_as_checkpoint_failure_and_startup_survives() {
    let dir = tmp_dir_created("runtime_corrupt");
    std::fs::write(dir.join("broken.g00000001.ckpt"), b"not a checkpoint").expect("write");
    let mgr = fleet(&dir, 1, 16, fit_loader());
    assert!(mgr.streams().is_empty());
    assert_eq!(shard_sum(&mgr, |m| &m.checkpoint_failures), 1);
    drop(mgr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `dir`, recursively, as sorted full paths.
fn files_under(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(files_under(&path));
        } else {
            out.push(path.display().to_string());
        }
    }
    out.sort();
    out
}

#[test]
fn server_without_checkpoint_dir_resumes_open_streams_from_the_models_dir() {
    let models = tmp_dir_created("runtime_resume_models");
    let ds = easy_dataset();
    let fitted = TriAd::new(quick_cfg(0)).fit(ds.train()).expect("fit");
    persist::save_file(&models.join("m.triad"), &fitted).expect("save model");
    let test = ds.test().to_vec();
    let cut = test.len() / 2 + 5; // off-stride
    let cfg = || ServeConfig {
        workers: 2,
        executors: 1,
        ..ephemeral_serve_cfg(&models)
    };
    let store = models.join("_fleet");

    let (handle, addr) = spawn_server(cfg());
    let mut ctl = connect(&addr);
    ctl.stream_open("s1", "m").expect("stream.open");
    push_with_retry(&mut ctl, "s1", &test[..cut], 64);
    let before = wait_for_seq(&mut ctl, "s1", cut as u64);
    ctl.shutdown().expect("shutdown");
    handle.wait();
    assert!(
        files_under(&store).iter().any(|f| f.ends_with(".ckpt")),
        "shutdown wrote no checkpoint under {store:?}"
    );

    let (handle, addr) = spawn_server(cfg());
    let mut ctl = connect(&addr);
    let listed = ctl.stream_list().expect("stream.list");
    assert_eq!(
        listed.get("streams").map(|v| v.to_string()),
        Some("[\"s1\"]".to_string())
    );
    let after = ctl.stream_poll("s1").expect("stream.poll");
    for key in ["seq", "windows_scored", "events", "live", "last_deviance"] {
        assert_eq!(after.get(key), before.get(key), "{key} changed on restart");
    }
    push_with_retry(&mut ctl, "s1", &test[cut..], 64);
    wait_for_seq(&mut ctl, "s1", test.len() as u64);
    let closed = ctl.stream_close("s1").expect("stream.close");
    assert_eq!(closed.get("finalize_error"), Some(&Value::Null));
    assert_eq!(
        closed.get("detection").map(|v| v.to_string()),
        Some(proto::detection_fields("s1", &fitted.detect(&test)).to_string()),
        "the restart is visible in the final detection"
    );
    assert_eq!(files_under(&store), Vec::<String>::new());
    ctl.shutdown().expect("shutdown 2");
    handle.wait();
    let _ = std::fs::remove_dir_all(&models);
}

#[test]
fn close_discards_a_stream_whose_model_was_refit_with_another_geometry() {
    let models = tmp_dir_created("runtime_refit_models");
    let ds = easy_dataset();
    let save = |cfg: TriadConfig| {
        let fitted = TriAd::new(cfg).fit(ds.train()).expect("fit");
        persist::save_file(&models.join("m.triad"), &fitted).expect("save model");
    };
    save(quick_cfg(0));
    let cfg = || ServeConfig {
        workers: 1,
        executors: 1,
        ..ephemeral_serve_cfg(&models)
    };
    let store = models.join("_fleet");
    let test = ds.test();

    let (handle, addr) = spawn_server(cfg());
    let mut ctl = connect(&addr);
    ctl.stream_open("s1", "m").expect("stream.open");
    push_with_retry(&mut ctl, "s1", &test[..300], 64);
    wait_for_seq(&mut ctl, "s1", 300);
    ctl.shutdown().expect("shutdown");
    handle.wait();
    assert!(
        !files_under(&store).is_empty(),
        "shutdown wrote no checkpoint"
    );

    save(wide_cfg());
    let (handle, addr) = spawn_server(cfg());
    let mut ctl = connect(&addr);
    assert!(
        ctl.stream_close("s1").is_err(),
        "closed with a mismatched model"
    );
    assert_eq!(files_under(&store), Vec::<String>::new());
    assert!(
        ctl.stream_poll("s1").is_err(),
        "the stream outlived its close"
    );
    ctl.stream_open("s1", "m").expect("the name is free again");
    ctl.stream_close("s1").expect("stream.close");
    ctl.shutdown().expect("shutdown 2");
    handle.wait();
    let _ = std::fs::remove_dir_all(&models);
}

/// The key structure of a JSON value: object keys in order, recursively;
/// arrays by their elements' shapes; scalars erased.
fn shape(v: &Value) -> String {
    match v {
        Value::Obj(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{k}:{}", shape(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
        Value::Arr(items) => {
            let inner: Vec<String> = items.iter().map(shape).collect();
            format!("[{}]", inner.join(","))
        }
        _ => "_".into(),
    }
}

#[test]
fn stats_have_the_same_keys_with_and_without_a_fleet_budget() {
    let mut shapes = Vec::new();
    for (tag, budget) in [
        ("runtime_stats_flat", None),
        ("runtime_stats_budget", Some(1 << 20)),
    ] {
        let models = tmp_dir_created(tag);
        let (handle, addr) = spawn_server(ServeConfig {
            workers: 1,
            executors: 1,
            stream_shards: 2,
            fleet_budget_bytes: budget,
            ..ephemeral_serve_cfg(&models)
        });
        let mut ctl = connect(&addr);
        let stats = ctl.stats().expect("stats");
        let text = ctl.stats_text().expect("stats text");
        let names: Vec<String> = text
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .map(str::to_string)
            .collect();
        assert!(
            stats.get("streams").and_then(|s| s.get("fleet")).is_some(),
            "{tag}: no fleet section"
        );
        shapes.push((shape(&stats), names));
        ctl.shutdown().expect("shutdown");
        handle.wait();
        let _ = std::fs::remove_dir_all(&models);
    }
    assert_eq!(shapes[0], shapes[1]);
}
