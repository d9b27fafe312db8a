//! Model-lifecycle tests: the versioned registry, canary-gated hot
//! reload, shadow scoring, automatic rollback, and the router's rolling
//! fleet swap — all against real servers on ephemeral sockets.
//!
//! Covers the contracts ISSUE 10 pins down: corrupted, truncated, and
//! deliberately-regressed candidates are rejected by the gate (409) and
//! never serve a single byte — with zero non-200s for live traffic
//! during every attempt; a good candidate promotes atomically (the
//! `X-Model-Version` header flips, responses stay bitwise identical for
//! identical weights, `model.stale_hits.total` stays zero); the shadow
//! stage scores live traffic before promoting; the router rolls a
//! 3-replica fleet one drained replica at a time and aborts the roll on
//! the first rejection; cache gossip refuses entries from a replica
//! serving a different model version; and a reload blocked on its
//! candidate never stalls other connections.

use neusight::core::{NeuSight, NeuSightConfig, Registry};
use neusight::gpu::DType;
use neusight::router::{Router, RouterConfig};
use neusight::serve::{Client, RunningServer, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One tiny training sweep shared by every test; training is
/// deterministic, so every model published from it has identical
/// weights — which is what makes pre/post-swap responses bitwise
/// comparable.
fn training_data() -> &'static neusight::data::KernelDataset {
    static DATA: OnceLock<neusight::data::KernelDataset> = OnceLock::new();
    DATA.get_or_init(|| {
        neusight::data::collect_training_set(
            &neusight::data::training_gpus(),
            neusight::data::SweepScale::Tiny,
            DType::F32,
        )
    })
}

fn tiny_neusight() -> NeuSight {
    NeuSight::train(training_data(), &NeuSightConfig::tiny()).expect("tiny training")
}

/// A fresh registry directory seeded with the trained model as `v0001`.
fn seeded_registry(tag: &str) -> (Registry, PathBuf) {
    let dir = std::env::temp_dir().join(format!("neusight-lifecycle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Registry::open(&dir);
    let model = tiny_neusight();
    let mape = neusight::serve::golden_mape(&model).expect("golden mape");
    registry
        .publish("v0001", None, Some(mape), &model)
        .expect("publish v0001");
    (registry, dir)
}

/// Spawns a replica serving the registry's `v0001` with reloads enabled.
fn spawn_versioned(dir: &std::path::Path) -> RunningServer {
    let registry = Registry::open(dir);
    let artifact = registry.load("v0001").expect("load v0001");
    let config = ServeConfig {
        model_version: Some(artifact.manifest.version.clone()),
        models_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    };
    Server::spawn(config, artifact.model).expect("spawn versioned replica")
}

const BODIES: [&str; 6] = [
    r#"{"model":"bert","gpu":"H100","batch":2}"#,
    r#"{"model":"bert","gpu":"V100","batch":1}"#,
    r#"{"model":"gpt2","gpu":"T4","batch":1}"#,
    r#"{"model":"gpt2","gpu":"V100","batch":1,"train":true}"#,
    r#"{"model":"resnet50","gpu":"H100","batch":4}"#,
    r#"{"model":"vgg16","gpu":"T4","batch":2}"#,
];

/// Drives `/v1/predict` from a background thread until `stop` flips,
/// counting every answer that is not a 200. The acceptance bar for the
/// whole lifecycle is that this counter stays at zero across staging,
/// rejection, rollback, and promotion.
fn spawn_load(
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    failures: Arc<AtomicU64>,
) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect load");
        let mut sent = 0u64;
        while !stop.load(Ordering::Relaxed) {
            let body = BODIES[(sent % BODIES.len() as u64) as usize];
            match client.post_json("/v1/predict", body) {
                Ok(response) if response.status == 200 => {}
                Ok(response) => {
                    failures.fetch_add(1, Ordering::Relaxed);
                    eprintln!("load saw {}: {}", response.status, response.text());
                }
                Err(e) => {
                    failures.fetch_add(1, Ordering::Relaxed);
                    eprintln!("load saw io error: {e}");
                }
            }
            sent += 1;
        }
        sent
    })
}

#[test]
fn corrupted_truncated_and_regressed_candidates_never_serve() {
    neusight::obs::set_enabled(true);
    let rollbacks = neusight::obs::metrics::counter("model.rollbacks.total");
    let stale = neusight::obs::metrics::counter("model.stale_hits.total");
    let rollbacks_before = rollbacks.get();

    let (registry, dir) = seeded_registry("chaos");

    // Three poisoned candidates: one with a byte flipped under the
    // envelope seal, one truncated mid-artifact, and one whose weights
    // were deliberately mangled so the canary MAPE regresses.
    let good = registry.load("v0001").expect("reload good").model;
    registry
        .publish("corrupt", Some("v0001"), None, &good)
        .expect("publish corrupt");
    let corrupt_path = registry.path_of("corrupt");
    let mut bytes = std::fs::read(&corrupt_path).expect("read corrupt");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&corrupt_path, &bytes).expect("flip byte");

    registry
        .publish("truncated", Some("v0001"), None, &good)
        .expect("publish truncated");
    let truncated_path = registry.path_of("truncated");
    let whole = std::fs::read(&truncated_path).expect("read truncated");
    std::fs::write(&truncated_path, &whole[..whole.len() / 2]).expect("truncate");

    let mut regressed = good.clone();
    regressed.map_predictor_parameters(|w| w * 17.0 + 3.0);
    registry
        .publish("regressed", Some("v0001"), None, &regressed)
        .expect("publish regressed");

    let server = spawn_versioned(&dir);
    let stop = Arc::new(AtomicBool::new(false));
    let failures = Arc::new(AtomicU64::new(0));
    let load = spawn_load(server.addr(), Arc::clone(&stop), Arc::clone(&failures));

    let mut admin = Client::connect(server.addr()).expect("connect admin");
    for (candidate, stage) in [
        ("corrupt", "staged"),
        ("truncated", "staged"),
        ("regressed", "canary"),
    ] {
        let reply = admin
            .post_json(
                "/v1/admin/reload",
                &format!(r#"{{"version":"{candidate}"}}"#),
            )
            .expect("reload");
        let text = reply.text();
        assert_eq!(reply.status, 409, "`{candidate}` must be rejected: {text}");
        assert!(text.contains("\"status\":\"rejected\""), "{text}");
        assert!(
            text.contains(&format!("\"stage\":\"{stage}\"")),
            "`{candidate}` rejected at the wrong stage: {text}"
        );

        // The serving model never moved.
        let status = admin.get("/v1/admin/model").expect("model status");
        assert!(
            status.text().contains("\"version\":\"v0001\""),
            "{}",
            status.text()
        );
        let probe = admin.post_json("/v1/predict", BODIES[0]).expect("probe");
        assert_eq!(probe.status, 200);
        assert_eq!(probe.header("x-model-version"), Some("v0001"));
    }

    stop.store(true, Ordering::Relaxed);
    let sent = load.join().expect("load thread");
    assert!(sent > 0, "load thread never got a request off");
    assert_eq!(
        failures.load(Ordering::Relaxed),
        0,
        "live traffic saw non-200s while poisoned candidates were staged"
    );
    assert!(
        rollbacks.get() >= rollbacks_before + 3,
        "each rejected candidate must count a rollback"
    );
    assert_eq!(stale.get(), 0, "a stale memoized response was served");

    server.shutdown_and_join().expect("server drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn good_candidate_promotes_and_the_version_header_flips() {
    neusight::obs::set_enabled(true);
    let stale = neusight::obs::metrics::counter("model.stale_hits.total");
    let (registry, dir) = seeded_registry("promote");
    let server = spawn_versioned(&dir);
    let mut client = Client::connect(server.addr()).expect("connect");

    // Reference bytes from the v0001 epoch.
    let mut reference = Vec::new();
    for body in &BODIES {
        let reply = client.post_json("/v1/predict", body).expect("predict");
        assert_eq!(reply.status, 200, "{}", reply.text());
        assert_eq!(reply.header("x-model-version"), Some("v0001"));
        reference.push(reply.body);
    }

    // Publish the same weights as v0002 and promote. Canary compares a
    // model against itself, so the gate passes and the swap is atomic.
    let model = registry.load("v0001").expect("load").model;
    let mape = neusight::serve::golden_mape(&model).expect("mape");
    registry
        .publish("v0002", Some("v0001"), Some(mape), &model)
        .expect("publish v0002");
    let reply = client
        .post_json("/v1/admin/reload", r#"{"version":"v0002"}"#)
        .expect("reload");
    let text = reply.text();
    assert_eq!(reply.status, 200, "{text}");
    assert!(text.contains("\"status\":\"serving\""), "{text}");
    assert!(text.contains("\"version\":\"v0002\""), "{text}");

    // Every surface agrees on the new version...
    let health = client.get("/healthz").expect("healthz");
    assert!(
        health.text().contains("\"model_version\":\"v0002\""),
        "{}",
        health.text()
    );
    let status = client.get("/v1/admin/model").expect("model status");
    assert!(
        status.text().contains("\"version\":\"v0002\""),
        "{}",
        status.text()
    );
    assert!(
        status.text().contains("\"previous\":\"v0001\""),
        "{}",
        status.text()
    );
    let metrics = client.get("/metrics").expect("metrics");
    let metrics_text = metrics.text();
    assert!(
        metrics_text.contains("neusight_model_info{"),
        "{metrics_text}"
    );
    assert!(metrics_text.contains("version=\"v0002\""), "{metrics_text}");

    // ...and identical weights produce bitwise-identical responses under
    // the new epoch: the swap re-keyed the memo without perturbing a
    // byte, and no stale body ever surfaced.
    for (body, expected) in BODIES.iter().zip(&reference) {
        let reply = client
            .post_json("/v1/predict", body)
            .expect("predict v0002");
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("x-model-version"), Some("v0002"));
        assert_eq!(
            &reply.body, expected,
            "response bytes diverged across an identical-weights swap for {body}"
        );
    }
    assert_eq!(stale.get(), 0, "a stale memoized response was served");

    server.shutdown_and_join().expect("server drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shadow_stage_scores_live_traffic_before_promoting() {
    neusight::obs::set_enabled(true);
    let (registry, dir) = seeded_registry("shadow");
    let server = spawn_versioned(&dir);
    let mut client = Client::connect(server.addr()).expect("connect");

    let model = registry.load("v0001").expect("load").model;
    registry
        .publish("v0003", Some("v0001"), None, &model)
        .expect("publish v0003");
    let reply = client
        .post_json(
            "/v1/admin/reload",
            r#"{"version":"v0003","shadow_samples":3}"#,
        )
        .expect("reload");
    let text = reply.text();
    assert_eq!(reply.status, 202, "{text}");
    assert!(text.contains("\"status\":\"shadowing\""), "{text}");

    // While the candidate shadows, the old model keeps serving (and says
    // so). Distinct bodies dodge the response memo so each predict is a
    // real scoring opportunity; identical weights diverge by exactly
    // zero, so after three samples the candidate must promote.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        for batch in 1..=8 {
            let body = format!(r#"{{"model":"bert","gpu":"V100","batch":{batch}}}"#);
            let reply = client
                .post_json("/v1/predict", &body)
                .expect("shadow predict");
            assert_eq!(reply.status, 200, "{}", reply.text());
        }
        let status = client.get("/v1/admin/model").expect("model status");
        let text = status.text();
        if text.contains("\"version\":\"v0003\"") {
            assert!(
                text.contains("\"state\":\"serving\"") || text.contains("\"state\":\"observing\""),
                "{text}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "shadow never promoted an identical-weights candidate: {text}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let probe = client.post_json("/v1/predict", BODIES[0]).expect("probe");
    assert_eq!(probe.header("x-model-version"), Some("v0003"));

    server.shutdown_and_join().expect("server drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn router_rolls_the_fleet_and_aborts_on_a_poisoned_candidate() {
    neusight::obs::set_enabled(true);
    let (registry, dir) = seeded_registry("roll");

    let replicas: Vec<RunningServer> = (0..3).map(|_| spawn_versioned(&dir)).collect();
    let config = RouterConfig {
        upstreams: replicas
            .iter()
            .enumerate()
            .map(|(i, r)| (format!("replica-{i}"), r.addr()))
            .collect(),
        ..RouterConfig::default()
    };
    let router = Router::spawn(config).expect("spawn router");

    let model = registry.load("v0001").expect("load").model;
    let mape = neusight::serve::golden_mape(&model).expect("mape");
    registry
        .publish("v0004", Some("v0001"), Some(mape), &model)
        .expect("publish v0004");

    let stop = Arc::new(AtomicBool::new(false));
    let failures = Arc::new(AtomicU64::new(0));
    let load = spawn_load(router.addr(), Arc::clone(&stop), Arc::clone(&failures));

    // Roll the whole fleet through the router: one drained replica at a
    // time, and the version header seen *through* the router flips.
    let mut admin = Client::connect(router.addr()).expect("connect router");
    let reply = admin
        .post_json("/v1/admin/reload", r#"{"version":"v0004"}"#)
        .expect("rolling reload");
    let text = reply.text();
    assert_eq!(reply.status, 200, "{text}");
    assert!(text.contains("\"status\":\"complete\""), "{text}");
    assert!(text.contains("\"promoted\":3"), "{text}");

    let status = admin.get("/v1/admin/model").expect("fleet model status");
    let text = status.text();
    assert!(
        text.contains("\"versions\":[\"v0004\"]"),
        "fleet should converge on one version: {text}"
    );
    let probe = admin.post_json("/v1/predict", BODIES[0]).expect("probe");
    assert_eq!(probe.status, 200);
    assert_eq!(probe.header("x-model-version"), Some("v0004"));

    // A poisoned candidate aborts the roll at the first replica and the
    // fleet keeps serving v0004.
    registry
        .publish("bad-roll", Some("v0004"), None, &model)
        .expect("publish bad-roll");
    let bad_path = registry.path_of("bad-roll");
    let mut bytes = std::fs::read(&bad_path).expect("read bad-roll");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&bad_path, &bytes).expect("poison bad-roll");

    let reply = admin
        .post_json("/v1/admin/reload", r#"{"version":"bad-roll"}"#)
        .expect("poisoned roll");
    let text = reply.text();
    assert_eq!(reply.status, 409, "{text}");
    assert!(text.contains("\"status\":\"aborted\""), "{text}");
    let status = admin.get("/v1/admin/model").expect("fleet model status");
    assert!(
        status.text().contains("\"versions\":[\"v0004\"]"),
        "{}",
        status.text()
    );

    stop.store(true, Ordering::Relaxed);
    let sent = load.join().expect("load thread");
    assert!(sent > 0, "load thread never got a request off");
    assert_eq!(
        failures.load(Ordering::Relaxed),
        0,
        "routed traffic saw non-200s during the rolling swap"
    );

    router.shutdown_and_join().expect("router drain");
    for replica in replicas {
        replica.shutdown_and_join().expect("replica drain");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gossip_refuses_cache_entries_from_a_different_model_version() {
    neusight::obs::set_enabled(true);
    let spawn_with = |version: &str| {
        let config = ServeConfig {
            model_version: Some(version.to_owned()),
            ..ServeConfig::default()
        };
        Server::spawn(config, tiny_neusight()).expect("spawn versioned")
    };
    let donor = spawn_with("vA");
    let skewed = spawn_with("vB");
    let peer = spawn_with("vA");

    let mut donor_client = Client::connect(donor.addr()).expect("connect donor");
    for body in &BODIES[..3] {
        let reply = donor_client.post_json("/v1/predict", body).expect("warm");
        assert_eq!(reply.status, 200, "{}", reply.text());
    }
    let export = donor_client.get("/v1/cache/export").expect("export");
    assert_eq!(export.status, 200);

    // Version skew: a vB replica must refuse vA's entries wholesale —
    // a cache body computed by different weights is poison, and during
    // a rolling swap skewed replicas gossip at each other constantly.
    let mut skewed_client = Client::connect(skewed.addr()).expect("connect skewed");
    let refused = skewed_client
        .post_octets("/v1/cache/import", &export.body)
        .expect("import skewed");
    assert_eq!(refused.status, 400, "{}", refused.text());
    assert!(refused.text().contains("version"), "{}", refused.text());

    // Same version imports fine.
    let mut peer_client = Client::connect(peer.addr()).expect("connect peer");
    let accepted = peer_client
        .post_octets("/v1/cache/import", &export.body)
        .expect("import peer");
    assert_eq!(accepted.status, 200, "{}", accepted.text());

    for server in [donor, skewed, peer] {
        server.shutdown_and_join().expect("server drain");
    }
}

/// A reload runs off the event loop. The candidate here is a FIFO with
/// no data yet, so the reload gate blocks reading it. While it blocks,
/// other connections still get answers; once the artifact bytes arrive,
/// the reload connection gets the gate's decision.
#[test]
fn a_blocked_reload_does_not_stall_other_connections() {
    neusight::obs::set_enabled(true);
    let (registry, dir) = seeded_registry("fifo");
    let model = registry.load("v0001").expect("load").model;
    let mape = neusight::serve::golden_mape(&model).expect("mape");
    registry
        .publish("v0005", Some("v0001"), Some(mape), &model)
        .expect("publish v0005");
    let artifact = std::fs::read(registry.path_of("v0005")).expect("read v0005");
    let fifo = dir.join("candidate.fifo");
    let made = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("run mkfifo");
    assert!(made.success(), "mkfifo failed");

    let server = spawn_versioned(&dir);
    let addr = server.addr();
    let body = format!(
        r#"{{"path":{}}}"#,
        neusight::serve::http::json_string(&fifo.display().to_string())
    );
    let reload = std::thread::spawn(move || {
        let mut admin = Client::connect(addr).expect("connect admin");
        admin.post_json("/v1/admin/reload", &body).expect("reload")
    });

    // Opening the write end blocks until the reload has opened the read
    // end; holding it open without writing keeps the reload blocked.
    let mut writer = std::fs::OpenOptions::new()
        .write(true)
        .open(&fifo)
        .expect("open fifo for writing");

    let mut client = Client::connect(addr).expect("connect");
    let health = client
        .get("/healthz")
        .expect("healthz during a blocked reload");
    assert_eq!(health.status, 200, "{}", health.text());
    let predict = client
        .post_json("/v1/predict", BODIES[0])
        .expect("predict during a blocked reload");
    assert_eq!(predict.status, 200, "{}", predict.text());
    assert_eq!(predict.header("x-model-version"), Some("v0001"));

    std::io::Write::write_all(&mut writer, &artifact).expect("write artifact");
    drop(writer);
    let reply = reload.join().expect("reload thread");
    let text = reply.text();
    assert_eq!(reply.status, 200, "{text}");
    assert!(text.contains("\"version\":\"v0005\""), "{text}");

    server.shutdown_and_join().expect("server drain");
    let _ = std::fs::remove_dir_all(&dir);
}
