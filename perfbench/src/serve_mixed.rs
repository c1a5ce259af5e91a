//! `serve-mixed`: a real server over loopback TCP in fast mode.
//!
//! Set-up fits one model per anomaly kind and saves each fit under two
//! names (twelve model files), then starts `triad_serve` with `nproc`
//! detection threads, workers, executors and stream shards, the default
//! batching policy and the default registry cache of eight models. One
//! closed-loop client connection then plays seeded rounds of:
//!
//! * seven `detect` requests — the six `m<k>a` names every round (always
//!   cached after warm-up) and one `m<k>b` name cycling through all six
//!   (never cached, so exactly one detect per round reloads from disk);
//! * four ingest operations on the current flat-tier stream: `stream.push`
//!   of a 256-point chunk, then `stream.poll` until the chunk's last
//!   sequence number is confirmed; `stream.open` before a stream's first
//!   chunk and `stream.close` after its last.
//!
//! Every detect response and every close-time detection must equal an
//! in-process `try_detect` of the same series at the same mode and thread
//! count.

use crate::data::{self, Case};
use crate::layers::{self, Counts, Subject};
use crate::phase::{self, FitProbe, Job, Refs};
use crate::report::Report;
use crate::stats::{median, samples_for};
use crate::trace::Trace;
use crate::{peak_rss_mb, Ctx};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use triad_core::{persist, FittedTriad, NumericMode, TriadDetection};
use triad_serve::{json, proto, ServeConfig, ServerHandle, Value};

/// Names each fit is saved under.
const TAGS: [&str; 2] = ["a", "b"];
/// Points per `stream.push`.
const CHUNK: usize = 256;
/// Ingest operations per round.
const INGESTS_PER_ROUND: usize = 4;
/// Rounds per pass of a traced run, and untraced/traced pass pairs.
const TRACE_PASS: usize = 6;
const TRACE_ROUNDS: usize = 2;

/// Set-ups timed per run (`setup_s` is their median), besides the
/// workload's own; a set-up is six fits, a second server start and stop.
const SETUPS: usize = 15;

/// One line-delimited JSON connection, timed and traced by the client.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
            .map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// One request → one response; `ok:false` is an error. With `detail`
    /// the client-side JSON encode and parse get their own spans.
    fn call(&mut self, request: &Value, detail: bool) -> Result<Value, String> {
        let line = if detail {
            let _s = obs::span("serve.json_encode");
            request.to_string()
        } else {
            request.to_string()
        };
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut buf = String::new();
        let n = self
            .reader
            .read_line(&mut buf)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        let mut resp = if detail {
            let _s = obs::span("serve.json_parse");
            json::parse(buf.trim())
        } else {
            json::parse(buf.trim())
        }?;
        if resp.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(resp
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("no ok field")
                .to_string());
        }
        // A traced server tags responses with its span id; drop it so
        // traced and untraced responses compare equal.
        if let Value::Obj(fields) = &mut resp {
            fields.retain(|(k, _)| k != "trace_id");
        }
        Ok(resp)
    }
}

fn req(verb: &str, fields: Vec<(&str, Value)>) -> Value {
    let mut all = vec![("verb", Value::from(verb))];
    all.extend(fields);
    Value::obj(all)
}

struct Served {
    handle: ServerHandle,
    dir: PathBuf,
    cases: Vec<Case>,
    /// Prebuilt detect request per model name, and the case it serves.
    detects: BTreeMap<String, (usize, Value)>,
}

fn model_name(case: usize, tag: &str) -> String {
    format!("m{case}{tag}")
}

fn setup(
    ctx: &Ctx,
    index: usize,
    rep: &mut Report,
    fits: &mut Vec<(f64, usize)>,
) -> Result<Served, String> {
    let dir = ctx.work.join(format!("models-{index}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir:?}: {e}"))?;
    let cases = data::one_per_kind(ctx.seed);
    let mut detects = BTreeMap::new();
    for (k, case) in cases.iter().enumerate() {
        let (fitted, secs) = data::fit(case, 1, NumericMode::Fast)?;
        rep.ok();
        fits.push((secs, fitted.report().n_windows));
        for tag in TAGS {
            let name = model_name(k, tag);
            persist::save_file(&dir.join(format!("{name}.triad")), &fitted)
                .map_err(|e| e.to_string())?;
            let request = req(
                "detect",
                vec![
                    ("model", name.as_str().into()),
                    ("series", Value::num_arr(&case.test)),
                ],
            );
            detects.insert(name, (k, request));
        }
    }
    let n = data::nproc();
    let handle = triad_serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        models_dir: dir.clone(),
        workers: n,
        threads: n,
        numeric_mode: NumericMode::Fast,
        executors: n,
        stream_shards: n,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    Ok(Served {
        handle,
        dir,
        cases,
        detects,
    })
}

impl Served {
    /// In-process references: one job per case, with the model as the
    /// server runs it.
    fn refs(&self, rng: &mut StdRng) -> Result<Refs, String> {
        let models = (0..self.cases.len())
            .map(|k| self.load(k))
            .collect::<Result<_, _>>()?;
        let jobs = self
            .cases
            .iter()
            .enumerate()
            .map(|(k, c)| Job {
                label: model_name(k, TAGS[0]),
                model: k,
                series: c.test.clone(),
            })
            .collect();
        Ok(Refs::new(models, jobs, rng))
    }

    fn stop(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// The model as the server runs it: loaded from its file with the
    /// server's thread count and numeric mode.
    fn load(&self, case: usize) -> Result<FittedTriad, String> {
        let path = self
            .dir
            .join(format!("{}.triad", model_name(case, TAGS[0])));
        let mut fitted = persist::load_file(&path).map_err(|e| e.to_string())?;
        fitted.set_threads(data::nproc());
        fitted.set_numeric_mode(NumericMode::Fast);
        Ok(fitted)
    }
}

struct OpenStream {
    name: String,
    case: usize,
    offset: usize,
}

/// Client state and samples across rounds.
struct Traffic {
    conn: Conn,
    rng: StdRng,
    stream: Option<OpenStream>,
    streams_opened: usize,
    rounds: usize,
    requests: usize,
    detect_ms: Vec<f64>,
    detect_case: Vec<usize>,
    ingest_ms: Vec<f64>,
    ingest_busy_s: f64,
    points: usize,
    /// Per round: requests per second of round wall time.
    requests_per_s: Vec<f64>,
    /// Per round: stream points per second of ingest time.
    points_per_s: Vec<f64>,
    /// First response per model name; later ones must equal it.
    first: BTreeMap<String, Value>,
    /// Close-time detections: (stream, case, detection body).
    closed: Vec<(String, usize, Value)>,
}

enum Op {
    Detect(String),
    Ingest,
}

impl Traffic {
    fn new(conn: Conn, seed: u64) -> Traffic {
        Traffic {
            conn,
            rng: StdRng::seed_from_u64(seed),
            stream: None,
            streams_opened: 0,
            rounds: 0,
            requests: 0,
            detect_ms: Vec::new(),
            detect_case: Vec::new(),
            ingest_ms: Vec::new(),
            ingest_busy_s: 0.0,
            points: 0,
            requests_per_s: Vec::new(),
            points_per_s: Vec::new(),
            first: BTreeMap::new(),
            closed: Vec::new(),
        }
    }

    /// Forget the samples gathered so far (after warm-up).
    fn clear_samples(&mut self) {
        self.detect_ms.clear();
        self.detect_case.clear();
        self.ingest_ms.clear();
        self.requests_per_s.clear();
        self.points_per_s.clear();
    }

    fn call(&mut self, request: &Value, detail: bool) -> Result<Value, String> {
        self.requests += 1;
        self.conn.call(request, detail)
    }

    fn detect(&mut self, served: &Served, name: &str, rep: &mut Report) {
        let (case, request) = &served.detects[name];
        let t0 = Instant::now();
        let resp = self.call(request, true);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match resp {
            Ok(resp) => {
                self.detect_ms.push(ms);
                self.detect_case.push(*case);
                let first = self
                    .first
                    .entry(name.to_string())
                    .or_insert_with(|| resp.clone());
                let same = *first == resp;
                rep.check(same, || {
                    format!("detect {name}: response changed between repeats")
                });
            }
            Err(e) => rep.fail(format!("detect {name}: {e}")),
        }
    }

    fn ingest(&mut self, served: &Served, rep: &mut Report) -> Result<(), String> {
        if self.stream.is_none() {
            let case = self.streams_opened % served.cases.len();
            let name = format!("s{}", self.streams_opened);
            self.streams_opened += 1;
            let open = req(
                "stream.open",
                vec![
                    ("stream", name.as_str().into()),
                    ("model", model_name(case, TAGS[0]).into()),
                ],
            );
            self.call(&open, false)
                .map_err(|e| format!("stream.open {name}: {e}"))?;
            rep.ok();
            self.stream = Some(OpenStream {
                name,
                case,
                offset: 0,
            });
        }
        let Some(OpenStream { name, case, offset }) = self.stream.take() else {
            return Err("no open stream".into());
        };
        let test = &served.cases[case].test;
        let end = (offset + CHUNK).min(test.len());
        let push = req(
            "stream.push",
            vec![
                ("stream", name.as_str().into()),
                ("points", Value::num_arr(&test[offset..end])),
            ],
        );
        let poll = req("stream.poll", vec![("stream", name.as_str().into())]);
        let t0 = Instant::now();
        let mut confirmed = false;
        for attempt in 0..10_000 {
            let queued = self
                .call(&push, false)?
                .get("queued")
                .and_then(Value::as_bool);
            if queued == Some(true) {
                break;
            }
            rep.retried += 1;
            if attempt == 9_999 {
                return Err(format!("stream {name}: shard queue never accepted a push"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        for _ in 0..10_000 {
            let seq = self.call(&poll, false)?.get("seq").and_then(Value::as_u64);
            if seq >= Some(end as u64) {
                confirmed = true;
                break;
            }
            rep.retried += 1;
        }
        let secs = t0.elapsed().as_secs_f64();
        if !rep.check(confirmed, || {
            format!("stream {name}: poll never confirmed seq {end}")
        }) {
            self.stream = Some(OpenStream { name, case, offset });
            return Ok(());
        }
        self.ingest_ms.push(secs * 1e3);
        self.ingest_busy_s += secs;
        self.points += end - offset;
        if end < test.len() {
            self.stream = Some(OpenStream {
                name,
                case,
                offset: end,
            });
            return Ok(());
        }
        let close = req("stream.close", vec![("stream", name.as_str().into())]);
        let resp = self
            .call(&close, false)
            .map_err(|e| format!("stream.close {name}: {e}"))?;
        let refused = resp
            .get("finalize_error")
            .is_some_and(|e| *e != Value::Null);
        let detection = resp.get("detection").cloned().unwrap_or(Value::Null);
        rep.check(!refused && detection != Value::Null, || {
            format!("stream {name}: close returned no detection")
        });
        self.closed.push((name, case, detection));
        Ok(())
    }

    /// One seeded round: seven detects and four ingests, interleaved.
    /// Returns its wall time.
    fn round(&mut self, served: &Served, rep: &mut Report) -> Result<f64, String> {
        let kinds = served.cases.len();
        let mut ops: Vec<Op> = (0..kinds)
            .map(|k| Op::Detect(model_name(k, TAGS[0])))
            .collect();
        ops.push(Op::Detect(model_name(self.rounds % kinds, TAGS[1])));
        ops.extend((0..INGESTS_PER_ROUND).map(|_| Op::Ingest));
        let (requests, points, busy) = (self.requests, self.points, self.ingest_busy_s);
        let t0 = Instant::now();
        for i in data::shuffled(ops.len(), &mut self.rng) {
            match &ops[i] {
                Op::Detect(name) => self.detect(served, name, rep),
                Op::Ingest => self.ingest(served, rep)?,
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        self.rounds += 1;
        self.requests_per_s
            .push((self.requests - requests) as f64 / wall);
        let busy = self.ingest_busy_s - busy;
        if busy > 0.0 {
            self.points_per_s.push((self.points - points) as f64 / busy);
        }
        Ok(wall)
    }
}

fn stat(stats: &Value, key: &str) -> f64 {
    stats.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Every TCP detection must equal the in-process one.
fn verify(traffic: &Traffic, served: &Served, dets: &[TriadDetection], rep: &mut Report) {
    for (name, resp) in &traffic.first {
        let case = served.detects[name].0;
        let want = proto::detect_response(None, proto::detection_fields(name, &dets[case]));
        rep.check(*resp == want, || {
            format!("detect {name}: TCP response differs from in-process try_detect")
        });
    }
    for (stream, case, detection) in &traffic.closed {
        let want = proto::detection_fields(stream, &dets[*case]);
        rep.check(*detection == want, || {
            format!("stream {stream}: close detection differs from in-process try_detect")
        });
    }
}

fn region_of(resp: &Value) -> Option<Range<usize>> {
    let r = resp.get("region")?.as_arr()?;
    Some(r.first()?.as_u64()? as usize..r.get(1)?.as_u64()? as usize)
}

/// One round of traffic, then two reference detections and, in the timed
/// phase, one refit — each outside the round's own timings.
fn step(
    traffic: &mut Traffic,
    refs: &mut Refs,
    probe: Option<&mut FitProbe>,
    served: &Served,
    rep: &mut Report,
) -> Result<f64, String> {
    let t0 = Instant::now();
    traffic.round(served, rep)?;
    refs.tick(rep)?;
    refs.tick(rep)?;
    if let Some(probe) = probe {
        probe.tick(rep)?;
    }
    Ok(t0.elapsed().as_secs_f64())
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::default();
    let mut fits = Vec::new();
    // The workload's own set-up, cold at process start, is not timed.
    let served = setup(ctx, 0, &mut rep, &mut fits)?;
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x5EED);
    let mut refs = served.refs(&mut rng)?;
    let mut traffic = Traffic::new(Conn::connect(served.handle.addr())?, ctx.seed);
    // Warm-up: load every hot model once, untimed.
    traffic.round(&served, &mut rep)?;
    traffic.clear_samples();

    if ctx.trace {
        let (mut misses, mut batched, mut batches) = (0.0, 0.0, 0.0);
        let trace_overhead = layers::alternate(TRACE_ROUNDS, |traced| {
            let before = traffic.call(&req("stats", vec![]), false)?;
            let (ms, cases) = (traffic.detect_ms.len(), traffic.detect_case.len());
            let mut wall = 0.0;
            for _ in 0..TRACE_PASS {
                wall += step(&mut traffic, &mut refs, None, &served, &mut rep)?;
            }
            let after = traffic.call(&req("stats", vec![]), false)?;
            if traced {
                let delta = |key: &str| stat(&after, key) - stat(&before, key);
                misses += delta("cache_misses");
                batched += delta("batched_requests");
                batches += delta("batches_total");
            } else {
                // Only traced round trips are set against the in-process
                // detections.
                traffic.detect_ms.truncate(ms);
                traffic.detect_case.truncate(cases);
            }
            Ok(wall)
        })?;
        let dets = refs.complete(&mut rep)?;
        verify(&traffic, &served, &dets, &mut rep);
        let ref_ms: Vec<f64> = refs
            .by_job
            .iter()
            .map(|t| median(t).unwrap_or(0.0))
            .collect();
        let overhead: Vec<f64> = traffic
            .detect_ms
            .iter()
            .zip(&traffic.detect_case)
            .map(|(rtt, &k)| rtt - ref_ms[k])
            .collect();
        let subjects: Vec<Subject> = served
            .cases
            .iter()
            .zip(&refs.models)
            .enumerate()
            .map(|(k, (c, m))| Subject {
                name: model_name(k, TAGS[0]),
                fitted: m,
                train: &c.train,
                test: &c.test,
            })
            .collect();
        let parts = layers::replay(&subjects, &ctx.work.join("store"), ctx.seed, &mut rep)?;
        obs::set_enabled(false);
        drop(subjects);
        drop(traffic);
        served.stop();
        let trace = Trace::collect();
        let counts = Counts {
            serve_cache_misses: misses,
            serve_batch_size: batched / batches.max(1.0),
            ..Counts::default()
        };
        layers::emit(
            &trace,
            &parts,
            &layers::fit_us_per_window_epoch(&fits),
            &counts,
            &overhead,
            trace_overhead,
            &mut rep,
        );
        return Ok(rep);
    }

    // Each timed set-up starts a second server and stops it.
    let need = samples_for(0.9);
    let mut probe = FitProbe::new(ctx.seed, NumericMode::Fast, &mut rng);
    let setup_s = phase::segmented(
        ctx,
        SETUPS,
        &mut rep,
        |seg, rep| setup(ctx, seg + 1, rep, &mut fits),
        Served::stop,
        |rep| {
            let secs = step(&mut traffic, &mut refs, Some(&mut probe), &served, rep)?;
            let fewest = traffic.detect_ms.len().min(traffic.ingest_ms.len());
            Ok((secs, fewest.min(refs.ms.len()) < need))
        },
    )?;
    let dets = refs.complete(&mut rep)?;
    verify(&traffic, &served, &dets, &mut rep);
    let predictions: Vec<Option<Range<usize>>> = (0..served.cases.len())
        .map(|k| {
            traffic
                .first
                .get(&model_name(k, TAGS[0]))
                .and_then(region_of)
        })
        .collect();
    let events: Vec<Range<usize>> = served.cases.iter().map(|c| c.anomaly.clone()).collect();
    let accuracy =
        evalkit::eventwise::accuracy(&predictions, &events, evalkit::eventwise::DEFAULT_MARGIN);
    // The connection closes before shutdown, which waits for its worker.
    let Traffic {
        conn,
        detect_ms: rtt,
        ingest_ms,
        requests_per_s,
        points_per_s,
        ..
    } = traffic;
    drop(conn);
    served.stop();

    rep.put(
        "setup_s",
        "s",
        median(&setup_s).unwrap_or(0.0),
        setup_s.len(),
    );
    let (fit_s, fits_timed) = probe.finish(&mut rep)?;
    rep.put("fit_s", "s", fit_s, fits_timed);
    rep.percentile("detect_ms_p50", "ms", &refs.ms, 0.5)?;
    rep.percentile("detect_ms_p90", "ms", &refs.ms, 0.9)?;
    rep.put("ucr_accuracy", "ratio", accuracy, events.len());
    rep.percentile("request_ms_p50", "ms", &rtt, 0.5)?;
    rep.percentile("request_ms_p90", "ms", &rtt, 0.9)?;
    rep.percentile("requests_per_s", "1/s", &requests_per_s, 0.5)?;
    rep.percentile("ingest_ms_p50", "ms", &ingest_ms, 0.5)?;
    rep.percentile("ingest_ms_p90", "ms", &ingest_ms, 0.9)?;
    rep.percentile("points_per_s", "1/s", &points_per_s, 0.5)?;
    rep.put("peak_rss_mb", "MiB", peak_rss_mb()?, 1);
    rep.note(format!(
        "request_ms is detect round trips; requests_per_s counts every verb; {} threads/workers/executors/shards",
        data::nproc()
    ));
    Ok(rep)
}
