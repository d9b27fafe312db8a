//! `nsbench` — end-to-end and per-layer benchmark of the shipped
//! `neusight` binaries.
//!
//! ```text
//! nsbench --neusight PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run trains a standard-scale predictor with `neusight train`,
//! publishes two identical-weight registry versions, boots `neusight
//! serve` (or `neusight router --replicas 2`) with default flags, warms
//! it, and drives it with two closed-loop clients. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` replays the same seeded stream with
//! spans around each layer's public calls and prints the per-layer
//! metrics. The last stdout line is one JSON object. A body that differs
//! from the in-process service's, a forecast that differs from
//! `expected_forecasts.txt`, a wrong `X-Model-Version`, or any failed
//! request makes the run exit non-zero. See `METRICS.md`.

mod client;
mod inproc;
mod keys;
mod load;
mod procs;
mod stats;
mod trace;

use keys::Key;
use load::{Plan, Reload};
use procs::{BenchResult, Env, Server, VERSIONS};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Request rates that turn `--seconds` into a fixed request count: a
/// faster server finishes sooner instead of seeing more keys, so
/// `rss_peak_mb` does not punish speed. At `--seconds 10` the timed pass
/// takes about 24 s (`sweep_cold`, three p99 chunks) and 12 s
/// (`fleet_zipf_reload`) on a 2-core host.
const SWEEP_RATE: usize = 300;
const FLEET_RATE: usize = 250;
/// Fewest timed requests: p99 then has at least 10 samples beyond it.
const MIN_REQUESTS: usize = 1000;
/// `fleet_zipf_reload` sends a rolling reload at the start of every span
/// of this many requests; throughput and p50 are taken per span.
const FLEET_SPAN: usize = 500;
/// Reloads of the traced single-server lifecycle block, and the requests
/// after each reload whose latency counts as post-reload.
const RELOADS: usize = 4;
const POST_RELOAD_WINDOW: usize = 250;
/// Response bodies byte-compared against the in-process service per run.
const SAMPLED_BODIES: usize = 48;
/// Requests replayed in-process by the traced run (enough for a p99 of
/// per-request spans), and requests of the tracing on/off comparison.
const REPLAY_REQUESTS: usize = 1000;
const OVERHEAD_REQUESTS: usize = 400;
const FORWARD_CALLS: usize = 2000;
/// Warm-up requests sent before timing (none of them timed).
const SWEEP_WARMUP: usize = 16;
const FLEET_WARMUP: usize = 256;
/// Served forecasts of the fixed accuracy list, one line per graph:
/// `model gpu batch mode total_ms body-digest`.
const EXPECTED_FORECASTS: &str = include_str!("../expected_forecasts.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SweepCold,
    FleetZipfReload,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "sweep_cold" => Some(Workload::SweepCold),
            "fleet_zipf_reload" => Some(Workload::FleetZipfReload),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep_cold",
            Workload::FleetZipfReload => "fleet_zipf_reload",
        }
    }

    /// Router replicas; 0 means a single `neusight serve`.
    fn replicas(self) -> usize {
        match self {
            Workload::FleetZipfReload => 2,
            Workload::SweepCold => 0,
        }
    }
}

struct Args {
    neusight: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(name.to_owned(), value);
    }
    let take = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let number = |name: &str| -> Result<u64, String> {
        take(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a whole number"))
    };
    let workload = take("workload")?;
    let args = Args {
        neusight: PathBuf::from(take("neusight")?),
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: number("seed")?,
        seconds: number("seconds")?.max(1),
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    };
    if flags.len() != 5 {
        return Err("expected exactly --neusight --workload --seed --seconds --trace".to_owned());
    }
    Ok(args)
}

/// The workload's requests: distinct raw requests plus index streams for
/// the timed pass, the warm-up and the traced run's lifecycle block.
struct Streams {
    keys: Vec<Key>,
    raw: Vec<Vec<u8>>,
    timed: Vec<u32>,
    reloads: Vec<Reload>,
    warm: Vec<u32>,
    lifecycle: Vec<u32>,
}

fn streams(args: &Args) -> Streams {
    let seconds = args.seconds as usize;
    let range = |a: usize, b: usize| (a as u32..b as u32).collect::<Vec<u32>>();
    let (keys, timed, reloads, warm, lifecycle) = match args.workload {
        Workload::SweepCold => {
            let n = (SWEEP_RATE * seconds).max(MIN_REQUESTS);
            let life = RELOADS * POST_RELOAD_WINDOW;
            let keys = keys::sweep_cold(args.seed, n + life + SWEEP_WARMUP);
            let all = keys.len();
            (
                keys,
                range(0, n),
                Vec::new(),
                range(n + life, all),
                range(n, n + life),
            )
        }
        Workload::FleetZipfReload => {
            let n = (FLEET_RATE * seconds).max(MIN_REQUESTS);
            let mut keys = keys::fleet_zipf(args.seed, n);
            keys.extend(keys::fleet_zipf(args.seed ^ 0x5741_524D, FLEET_WARMUP));
            (
                keys,
                range(0, n),
                rolling_reloads(n, (n / FLEET_SPAN).max(1)),
                range(n, n + FLEET_WARMUP),
                Vec::new(),
            )
        }
    };
    let raw = keys
        .iter()
        .map(|k| client::post("/v1/predict", &k.body()))
        .collect();
    Streams {
        keys,
        raw,
        timed,
        reloads,
        warm,
        lifecycle,
    }
}

/// `count` reloads, one at the start of each of `count` equal spans of
/// `n` requests, alternating between the registry versions (the server
/// boots on the latest, `VERSIONS[1]`).
fn rolling_reloads(n: usize, count: usize) -> Vec<Reload> {
    (0..count)
        .map(|j| Reload {
            at: n * j / count,
            version: VERSIONS[j % 2],
        })
        .collect()
}

/// Seeded positions of the timed stream whose bodies are kept.
fn body_sample(seed: u64, positions: usize) -> Vec<bool> {
    let mut keep = vec![false; positions];
    let mut rng = keys::Rng::new(seed ^ 0x424F_4459);
    let mut kept = 0;
    while kept < SAMPLED_BODIES.min(positions) {
        let i = rng.below(positions as u64) as usize;
        kept += usize::from(!keep[i]);
        keep[i] = true;
    }
    keep
}

struct Counters {
    hits: f64,
    requests: f64,
    batches: f64,
    queue_wait_ns: f64,
    queue_waits: f64,
}

/// Serving counters of each replica (or of the single server).
fn counters(server: &Server) -> BenchResult<Vec<Counters>> {
    server
        .serving_addrs()
        .into_iter()
        .map(|addr| {
            let m = procs::scrape(addr)?;
            let get = |name: &str| m.get(name).copied().unwrap_or(0.0);
            Ok(Counters {
                hits: get("neusight_serve_response_cache_hits"),
                requests: get("neusight_serve_batch_size_sum"),
                batches: get("neusight_serve_batch_size_count"),
                queue_wait_ns: get("neusight_serve_queue_wait_ns_sum"),
                queue_waits: get("neusight_serve_queue_wait_ns_count"),
            })
        })
        .collect()
}

/// Served `total_ms` and body of each fixed-list forecast, sent one at a
/// time.
fn served_forecasts(server: &Server, keys: &[Key]) -> BenchResult<Vec<(f64, Vec<u8>)>> {
    let mut conn = client::Conn::connect(server.addr()).map_err(|e| e.to_string())?;
    keys.iter()
        .map(|key| {
            let reply = conn
                .send(&client::post("/v1/predict", &key.body()))
                .map_err(|e| e.to_string())?;
            if reply.status != 200 {
                return Err(format!("accuracy request answered {}", reply.status));
            }
            let text = String::from_utf8_lossy(&reply.body);
            let response: neusight_serve::PredictResponse =
                serde_json::from_str(&text).map_err(|e| e.to_string())?;
            Ok((response.total_ms, reply.body))
        })
        .collect()
}

/// FNV-1a, 64-bit: a short digest of a served body.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// One line of `expected_forecasts.txt` per fixed-list graph.
fn forecast_lines(keys: &[Key], served: &[(f64, Vec<u8>)]) -> Vec<String> {
    keys.iter()
        .zip(served)
        .map(|(k, (total_ms, body))| {
            let mode = if k.train { "training" } else { "inference" };
            format!(
                "{} {} {} {mode} {total_ms} {:016x}",
                k.model,
                k.gpu,
                k.batch,
                fnv1a(body)
            )
        })
        .collect()
}

/// Served lines that differ from `expected_forecasts.txt` (a missing or
/// extra line counts as differing).
fn forecast_mismatches(served: &[String]) -> usize {
    let expected: Vec<&str> = EXPECTED_FORECASTS
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let differ = expected
        .iter()
        .zip(served)
        .filter(|(e, s)| **e != s.as_str())
        .count();
    differ + expected.len().abs_diff(served.len())
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Report {
    attempted: usize,
    failed: usize,
    correct: bool,
    metrics: BTreeMap<String, (f64, &'static str)>,
    notes: Vec<String>,
}

fn run(args: &Args, origin: Instant) -> BenchResult<Report> {
    let target = PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_owned()),
    );
    let root = target.join("nsbench");
    let dir = root.join(format!(
        "run-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let _scratch = Scratch(dir.clone());
    let dir = std::fs::canonicalize(&dir).map_err(|e| e.to_string())?;
    let neusight = std::fs::canonicalize(&args.neusight)
        .map_err(|e| format!("no neusight binary at {}: {e}", args.neusight.display()))?;
    let env = Env { neusight, dir };
    let s = streams(args);
    let mut tracer = Tracer::new(origin);
    let phase = |what: &str| eprintln!("nsbench: {:8.3} s  {what}", origin.elapsed().as_secs_f64());

    // Set-up: train the standard-scale predictor, publish, boot, warm.
    if args.trace {
        let ns = inproc::train(&mut tracer)?;
        ns.save(&env.predictor()).map_err(|e| e.to_string())?;
    } else {
        let predictor = env.predictor();
        env.run(&[
            "train",
            "--out",
            predictor.to_str().ok_or("non-UTF-8 path")?,
        ])?;
    }
    // The fleet reloads during its timed pass; a single server only in
    // the traced run's lifecycle block, so only then does it need the
    // registry (`publish` is part of the fleet's set-up time).
    let registry = args.workload.replicas() > 0 || args.trace;
    if registry {
        env.publish()?;
    }
    let version = if registry { VERSIONS[1] } else { "unversioned" };
    phase("set-up: trained and published");
    let boot = Instant::now();
    let mut server = env.boot(args.workload.replicas(), registry)?;
    tracer.record("serve.boot", 0, boot, Instant::now());
    let addr = server.addr();
    let plan = |stream, reloads, keep_body, trace| Plan {
        addr,
        raw: &s.raw,
        stream,
        reloads,
        post_reload_window: POST_RELOAD_WINDOW,
        version: version.to_owned(),
        keep_body,
        trace,
        origin,
    };
    let (warm, _) = load::run(&plan(&s.warm, &[], &[], false));
    if warm.failed > 0 {
        return Err(format!("warm-up failed: {:?}", warm.errors));
    }

    // Timed pass.
    let before = counters(&server)?;
    let keep = body_sample(args.seed, s.timed.len().min(MIN_REQUESTS * 10));
    let setup_s = origin.elapsed().as_secs_f64();
    phase("set-up done; timing");
    let (mut outcome, client_spans) = load::run(&plan(&s.timed, &s.reloads, &keep, args.trace));
    phase("timed pass done");
    let after = counters(&server)?;
    let rss_peak_mb = server.rss_peak_mb()?;
    tracer.absorb(client_spans);

    // The traced run's lifecycle block (the fleet reloads during its
    // timed pass already).
    let lifecycle = if args.trace && !s.lifecycle.is_empty() {
        let reloads: Vec<Reload> = (0..RELOADS)
            .map(|j| Reload {
                at: j * POST_RELOAD_WINDOW,
                version: VERSIONS[j % 2],
            })
            .collect();
        let (block, _) = load::run(&plan(&s.lifecycle, &reloads, &[], false));
        Some(block)
    } else {
        None
    };

    phase("lifecycle block done");
    let mape_keys = keys::mape_keys();
    let served = served_forecasts(&server, &mape_keys)?;
    server.stop();
    drop(server);
    phase("accuracy list served, server stopped");
    let totals: Vec<f64> = served.iter().map(|(total_ms, _)| *total_ms).collect();
    let forecast_mape_pct = inproc::forecast_mape_pct(&mape_keys, &totals)?;
    let lines = forecast_lines(&mape_keys, &served);
    let forecast_bad = forecast_mismatches(&lines);

    // Correctness: sampled bodies against the in-process service.
    let sampled: Vec<(Key, Vec<u8>)> = outcome
        .bodies
        .drain(..)
        .map(|(position, body)| (s.keys[s.timed[position] as usize].clone(), body))
        .collect();
    let mismatches = inproc::mismatched_bodies(&env.predictor(), &sampled)?;
    phase("accuracy and bodies checked");
    let mut notes = outcome.errors.clone();
    if mismatches > 0 {
        notes.push(format!(
            "{mismatches} of {} sampled bodies differ from the in-process service",
            sampled.len()
        ));
    }
    if forecast_bad > 0 {
        let path = root.join("expected_forecasts.actual.txt");
        std::fs::write(&path, lines.join("\n") + "\n").map_err(|e| e.to_string())?;
        notes.push(format!(
            "{forecast_bad} of {} fixed-list forecasts differ from nsbench/expected_forecasts.txt; served lines written to {}",
            lines.len(),
            path.display()
        ));
    }
    let failed = outcome.failed + mismatches + forecast_bad;
    let attempted = outcome.attempted + lines.len();
    let passed = attempted - failed;

    let mut metrics = BTreeMap::new();
    if args.trace {
        let reloads = lifecycle.as_ref().unwrap_or(&outcome);
        let (mut counted, mut failed_traced) = (attempted, failed);
        if let Some(block) = &lifecycle {
            counted += block.attempted;
            failed_traced += block.failed;
            notes.extend(block.errors.iter().cloned());
        }
        http_layers(&before, &after, &outcome, reloads, &mut metrics)?;
        replay_layers(args, &env, &s, &mut tracer, &mut metrics)?;
        phase("in-process replay done");
        let path = root.join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tracer.write_jsonl(&path).map_err(|e| e.to_string())?;
        notes.push(format!("spans written to {}", path.display()));
        return Ok(Report {
            attempted: counted,
            failed: failed_traced,
            correct: failed_traced == 0,
            metrics,
            notes,
        });
    }
    let span_starts: Vec<usize> = s.reloads.iter().map(|r| r.at).collect();
    let pass = stats::chunked(
        &outcome.done_s,
        &outcome.latencies_ms,
        &outcome.positions,
        &span_starts,
    )?;
    phase(&format!("chunk throughputs {:.1?}", pass.rates));
    metrics.insert("throughput_rps".to_owned(), (pass.throughput, "req/s"));
    metrics.insert("latency_p50_ms".to_owned(), (pass.p50, "ms"));
    metrics.insert("latency_p99_ms".to_owned(), (pass.p99, "ms"));
    metrics.insert(
        "success_ratio".to_owned(),
        (passed as f64 / attempted as f64, "fraction"),
    );
    metrics.insert("rss_peak_mb".to_owned(), (rss_peak_mb, "MB"));
    metrics.insert("forecast_mape_pct".to_owned(), (forecast_mape_pct, "%"));
    metrics.insert("setup_s".to_owned(), (setup_s, "s"));
    notes.push(format!(
        "{} latency samples (throughput and p50: median over {} chunks; p99: median over chunks of >= 1000, >= 10 beyond each), {} bodies byte-checked, {} fixed-list forecasts checked, {:.3} s timed window",
        outcome.latencies_ms.len(),
        pass.rates.len(),
        sampled.len(),
        lines.len(),
        outcome.window_s
    ));
    Ok(Report {
        attempted,
        failed,
        correct: failed == 0,
        metrics,
        notes,
    })
}

/// Per-layer metrics of the in-process replay.
fn replay_layers(
    args: &Args,
    env: &Env,
    s: &Streams,
    tracer: &mut Tracer,
    metrics: &mut BTreeMap<String, (f64, &'static str)>,
) -> BenchResult<()> {
    let replay_len = REPLAY_REQUESTS.min(s.timed.len());
    let replay_keys: Vec<Key> = s.timed[..replay_len]
        .iter()
        .map(|&i| s.keys[i as usize].clone())
        .collect();
    let replay_reloads: Vec<Reload> = s
        .reloads
        .iter()
        .filter(|r| r.at < replay_len)
        .map(|r| Reload {
            at: r.at,
            version: r.version,
        })
        .collect();
    let replay = inproc::replay(
        tracer,
        &env.predictor(),
        &env.models(),
        &replay_keys,
        args.workload.replicas(),
        &replay_reloads,
        OVERHEAD_REQUESTS.min(replay_len),
    )?;
    inproc::mlp_forward(tracer, FORWARD_CALLS);

    let durations = tracer.durations_us();
    let once_s = |name: &str| -> BenchResult<f64> {
        durations
            .get(name)
            .and_then(|d| d.first())
            .map(|us| us / 1e6)
            .ok_or_else(|| format!("no `{name}` span"))
    };
    metrics.insert("data.collect_s".to_owned(), (once_s("data.collect")?, "s"));
    metrics.insert("nn.train_s".to_owned(), (once_s("nn.train")?, "s"));
    metrics.insert("serve.boot_s".to_owned(), (once_s("serve.boot")?, "s"));
    inproc::span_percentiles(
        tracer,
        &[
            ("graph.build", "graph.build_us"),
            ("core.plan_launch", "core.plan_launch_us"),
            ("core.predict", "core.predict_us"),
            ("core.predict_warm", "core.predict_warm_us"),
            ("nn.forward_r1", "nn.forward_r1_us"),
            ("nn.forward_r8", "nn.forward_r8_us"),
            ("nn.forward_r64", "nn.forward_r64_us"),
            ("serve.service.predict", "serve.service.predict_us"),
            ("serve.serialize", "serve.serialize_us"),
            ("serve.http.parse", "serve.http.parse_us"),
            ("serve.http.render", "serve.http.render_us"),
            ("router.route", "router.route_us"),
        ],
        metrics,
    )?;
    metrics.insert(
        "core.cache_hit_ratio".to_owned(),
        (replay.cache_hit_ratio, "fraction"),
    );
    metrics.insert(
        "core.unique_ops_per_request".to_owned(),
        (replay.unique_ops_per_request, "count"),
    );
    metrics.insert(
        "core.plan_launch_share_pct".to_owned(),
        (replay.plan_launch_share_pct, "%"),
    );
    metrics.insert(
        "obs.tracing_overhead_pct".to_owned(),
        (replay.tracing_overhead_pct, "%"),
    );

    Ok(())
}

/// Per-layer metrics of the traced HTTP pass: server counters, reload
/// timings (from `reloads`, the pass that reloaded) and client tracing
/// cost. The server runs the same way in traced and untraced runs; only
/// the client records spans, so `bench.trace_overhead_pct` is about 0 by
/// construction (its sign follows block-to-block noise). It bounds what
/// client-side span recording adds to the traced HTTP figures.
fn http_layers(
    before: &[Counters],
    after: &[Counters],
    outcome: &load::Outcome,
    reloads: &load::Outcome,
    metrics: &mut BTreeMap<String, (f64, &'static str)>,
) -> BenchResult<()> {
    let delta = |f: fn(&Counters) -> f64| -> f64 {
        before.iter().zip(after).map(|(b, a)| f(a) - f(b)).sum()
    };
    let requests = delta(|c| c.requests);
    metrics.insert(
        "serve.memo_hit_ratio".to_owned(),
        (delta(|c| c.hits) / requests.max(1.0), "fraction"),
    );
    metrics.insert(
        "serve.dispatch.batch_size_mean".to_owned(),
        (requests / delta(|c| c.batches).max(1.0), "count"),
    );
    metrics.insert(
        "serve.queue.wait_us".to_owned(),
        (
            delta(|c| c.queue_wait_ns) / delta(|c| c.queue_waits).max(1.0) / 1e3,
            "us",
        ),
    );
    let owner_ratio = before
        .iter()
        .zip(after)
        .map(|(b, a)| (a.hits - b.hits) / (a.requests - b.requests).max(1.0))
        .fold(f64::INFINITY, f64::min);
    metrics.insert(
        "router.owner_memo_hit_ratio".to_owned(),
        (owner_ratio, "fraction"),
    );
    if reloads.reload_ms.is_empty() {
        return Err("no reload completed".to_owned());
    }
    metrics.insert(
        "lifecycle.reload_ms".to_owned(),
        (stats::median(&reloads.reload_ms), "ms"),
    );
    metrics.insert(
        "lifecycle.post_reload_p99_ms".to_owned(),
        (stats::percentile(&reloads.post_reload_ms, 0.99)?, "ms"),
    );
    metrics.insert(
        "bench.trace_overhead_pct".to_owned(),
        (
            100.0 * (stats::median(&outcome.traced_ms) / stats::median(&outcome.untraced_ms) - 1.0),
            "%",
        ),
    );
    Ok(())
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args, origin) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("nsbench: {} seed {}: {e}", args.workload.name(), args.seed);
            return ExitCode::from(1);
        }
    };
    println!(
        "nsbench {} seed {} trace {}: {} attempted, {} failed",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed
    );
    for note in &report.notes {
        println!("  {note}");
    }
    let mut json = Vec::new();
    for (name, (value, unit)) in &report.metrics {
        if !value.is_finite() {
            eprintln!("nsbench: metric {name} is not finite ({value})");
            return ExitCode::from(1);
        }
        println!("  {name:<34} {value:>14.4} {unit}");
        json.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
    }
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        report.correct,
        report.attempted,
        report.failed,
        json.join(",")
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
