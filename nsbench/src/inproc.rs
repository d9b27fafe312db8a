//! The in-process half of the traced run: the workload's seeded request
//! stream replayed through each layer's public functions, one span per
//! call, and the forecast-accuracy and body-correctness references.

use crate::keys::Key;
use crate::load::Reload;
use crate::procs::BenchResult;
use crate::trace::Tracer;
use crate::{client, stats};
use neusight_core::{NeuSight, NeuSightConfig, Registry};
use neusight_gpu::{catalog, DType, GpuSpec, OpClass, OpDesc};
use neusight_nn::{Matrix, Mlp};
use neusight_router::{HashRing, RouteKey};
use neusight_serve::http::{parse_head, HeadParse, Response};
use neusight_serve::{PredictResponse, PredictService};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// Loads the served predictor from its file.
pub fn load(path: &Path) -> BenchResult<NeuSight> {
    NeuSight::load(path).map_err(|e| format!("cannot load {}: {e}", path.display()))
}

fn spec(gpu: &str) -> BenchResult<GpuSpec> {
    catalog::gpu(gpu).map_err(|e| e.to_string())
}

fn graph_for(key: &Key) -> BenchResult<neusight_graph::Graph> {
    let canonical = PredictService::canonical_model(key.model).map_err(|e| e.message)?;
    let graph = neusight_graph::workload_graph(&canonical, key.batch, key.train)
        .map_err(|e| e.to_string())?;
    Ok(if key.fused {
        neusight_graph::fuse_graph(&graph)
    } else {
        graph
    })
}

/// Mean absolute percentage error of served `total_ms` against the
/// simulator's `execute_graph` over the same graphs.
pub fn forecast_mape_pct(keys: &[Key], served_total_ms: &[f64]) -> BenchResult<f64> {
    let mut sum = 0.0;
    for (key, served) in keys.iter().zip(served_total_ms) {
        let spec = spec(key.gpu)?;
        let sim = neusight_sim::SimulatedGpu::new(spec).execute_graph(&graph_for(key)?, DType::F32);
        let truth = sim.total_s * 1e3;
        sum += (served - truth).abs() / truth;
    }
    Ok(100.0 * sum / keys.len() as f64)
}

/// How many served bodies differ from the in-process service's body for
/// the same request.
pub fn mismatched_bodies(predictor: &Path, served: &[(Key, Vec<u8>)]) -> BenchResult<usize> {
    let service = PredictService::new(load(predictor)?);
    let mut bad = 0;
    for (key, body) in served {
        let expected = service
            .predict_batch_serialized(&[key.request()])
            .pop()
            .expect("one request in, one body out")
            .map_err(|e| e.message)?;
        if expected.as_bytes() != body.as_slice() {
            bad += 1;
        }
    }
    Ok(bad)
}

/// A replica as the replay sees it: the core predictor that `core.*`
/// spans time, and a separate service (with its own caches) that the
/// `serve.*` spans time, so neither warms the other.
struct Replica {
    core: NeuSight,
    service: PredictService,
    /// `(GPU, op)` pairs already predicted by `core`: the next
    /// `plan_launch` for them would be a cache hit, so it is not timed.
    planned: HashSet<(&'static str, OpDesc)>,
}

impl Replica {
    fn new(predictor: &Path) -> BenchResult<Replica> {
        Ok(Replica {
            core: load(predictor)?,
            service: PredictService::new(load(predictor)?),
            planned: HashSet::new(),
        })
    }

    /// A model reload: a fresh generation with empty caches on both sides.
    fn reload(&mut self, predictor: &Path, models: &Path, version: &str) -> BenchResult<()> {
        let artifact = Registry::open(models)
            .load(version)
            .map_err(|e| e.to_string())?;
        self.service.install_model(version, artifact.model);
        self.core = load(predictor)?;
        self.planned.clear();
        Ok(())
    }
}

fn lookups(ns: &NeuSight) -> (u64, u64) {
    ns.prediction_cache_shard_stats()
        .iter()
        .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses))
}

/// What the replay measured besides span durations.
pub struct Replay {
    pub cache_hit_ratio: f64,
    pub unique_ops_per_request: f64,
    pub plan_launch_share_pct: f64,
    pub tracing_overhead_pct: f64,
}

/// Replays `keys` through route → graph → core → service → HTTP codec,
/// recording one span per public call. `replicas` mirrors the fleet
/// (1 for a single server); `reloads` are applied at the same stream
/// positions as over HTTP.
pub fn replay(
    tracer: &mut Tracer,
    predictor: &Path,
    models: &Path,
    keys: &[Key],
    replicas: usize,
    reloads: &[Reload],
    overhead_requests: usize,
) -> BenchResult<Replay> {
    let names: Vec<String> = (0..replicas.max(1))
        .map(|i| format!("replica-{i}"))
        .collect();
    let ring = HashRing::new(names.clone());
    // Route cost is measured on a two-member ring for every workload.
    let route_ring = HashRing::new(["replica-0".to_owned(), "replica-1".to_owned()]);
    let mut fleet: Vec<Replica> = names
        .iter()
        .map(|_| Replica::new(predictor))
        .collect::<BenchResult<_>>()?;
    let trained: HashSet<String> = fleet[0].core.trained_classes().into_iter().collect();
    let (mut hits, mut misses, mut unique_total) = (0u64, 0u64, 0usize);
    let mut render_buf = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        let id = i as u64;
        if let Some(reload) = reloads.iter().find(|r| r.at == i) {
            for replica in &mut fleet {
                replica.reload(predictor, models, reload.version)?;
            }
        }
        let route_key = RouteKey::from_predict(key.model, key.gpu);
        tracer.time("router.route", id, || {
            route_ring.route(&route_key).map(str::len)
        });
        let owner = ring.route(&route_key).expect("ring has members");
        let replica = &mut fleet[names.iter().position(|n| n == owner).expect("member")];
        let spec = spec(key.gpu)?;

        let graph = tracer.time("graph.build", id, || graph_for(key))?;
        let unique: HashSet<&OpDesc> = graph.iter().map(|node| &node.op).collect();
        unique_total += unique.len();
        for op in unique {
            let class = op.op_class();
            let planned =
                class != OpClass::MemoryBound && op.flops() > 0.0 && trained.contains(class.name());
            if planned && replica.planned.insert((key.gpu, op.clone())) {
                tracer
                    .time("core.plan_launch", id, || {
                        replica.core.plan_launch(op, &spec)
                    })
                    .map_err(|e| e.to_string())?;
            }
        }
        let (h0, m0) = lookups(&replica.core);
        tracer
            .time("core.predict", id, || {
                replica.core.predict_graph_batch(&[(&graph, &spec)])
            })
            .map_err(|e| e.to_string())?;
        let (h1, m1) = lookups(&replica.core);
        hits += h1 - h0;
        misses += m1 - m0;
        tracer
            .time("core.predict_warm", id, || {
                replica.core.predict_graph_batch(&[(&graph, &spec)])
            })
            .map_err(|e| e.to_string())?;

        let request = [key.request()];
        let body = tracer
            .time("serve.service.predict", id, || {
                replica.service.predict_batch_serialized(&request)
            })
            .pop()
            .expect("one request in, one body out")
            .map_err(|e| e.message)?;
        let response: PredictResponse =
            serde_json::from_str(&body).map_err(|e| format!("served body does not parse: {e}"))?;
        tracer
            .time("serve.serialize", id, || serde_json::to_string(&response))
            .map_err(|e| e.to_string())?;
        let raw = client::post("/v1/predict", &key.body());
        let parsed = tracer.time("serve.http.parse", id, || {
            matches!(parse_head(&raw), HeadParse::Complete(_))
        });
        if !parsed {
            return Err("parse_head rejected a benchmark request".to_owned());
        }
        let rendered = Response::json(200, body.to_string());
        render_buf.clear();
        tracer.time("serve.http.render", id, || {
            rendered.render_into(&mut render_buf, true)
        });
    }
    let durations = tracer.durations_us();
    let total = |name: &str| durations.get(name).map_or(0.0, |d| d.iter().sum::<f64>());
    Ok(Replay {
        cache_hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
        unique_ops_per_request: unique_total as f64 / keys.len().max(1) as f64,
        plan_launch_share_pct: 100.0 * total("core.plan_launch") / total("core.predict"),
        tracing_overhead_pct: tracing_overhead_pct(predictor, &keys[..overhead_requests])?,
    })
}

/// `predict_batch_serialized` on a fresh service with request tracing
/// alternately on (the default) and off: the median cost of tracing.
fn tracing_overhead_pct(predictor: &Path, keys: &[Key]) -> BenchResult<f64> {
    let service = PredictService::new(load(predictor)?);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for (i, key) in keys.iter().enumerate() {
        let traced = i % 2 == 0;
        neusight_obs::set_tracing(traced);
        let request = [key.request()];
        let start = Instant::now();
        std::hint::black_box(service.predict_batch_serialized(&request));
        let us = start.elapsed().as_secs_f64() * 1e6;
        if traced { &mut on } else { &mut off }.push(us);
    }
    neusight_obs::set_tracing(true);
    Ok(100.0 * (stats::median(&on) / stats::median(&off) - 1.0))
}

/// `Mlp::forward` on an MLP of the served shape at 1, 8 and 64 rows.
pub fn mlp_forward(tracer: &mut Tracer, calls: usize) {
    let hidden = neusight_core::PredictorConfig::standard(OpClass::Bmm).hidden;
    let mlp = Mlp::new(neusight_core::features::NUM_FEATURES, &hidden, 2, 7);
    for (name, rows) in [
        ("nn.forward_r1", 1),
        ("nn.forward_r8", 8),
        ("nn.forward_r64", 64),
    ] {
        let input = Matrix::from_fn(rows, neusight_core::features::NUM_FEATURES, |r, c| {
            ((r * 7 + c * 3) % 11) as f32 * 0.1
        });
        for call in 0..calls {
            tracer.time(name, call as u64, || {
                mlp.forward(std::hint::black_box(&input))
            });
        }
    }
}

/// Collect + train the standard-scale predictor in-process, one span each.
pub fn train(tracer: &mut Tracer) -> BenchResult<NeuSight> {
    let gpus = neusight_data::training_gpus();
    let data = tracer.time("data.collect", 0, || {
        neusight_data::collect_training_set(&gpus, neusight_data::SweepScale::Standard, DType::F32)
    });
    tracer
        .time("nn.train", 0, || {
            NeuSight::train(&data, &NeuSightConfig::standard())
        })
        .map_err(|e| e.to_string())
}

/// `p50`/`p99` of every per-call span, in the span's unit.
pub fn span_percentiles(
    tracer: &Tracer,
    names: &[(&'static str, &'static str)],
    metrics: &mut BTreeMap<String, (f64, &'static str)>,
) -> BenchResult<()> {
    let durations = tracer.durations_us();
    for &(span, metric) in names {
        let samples = durations
            .get(span)
            .ok_or_else(|| format!("no `{span}` spans recorded"))?;
        metrics.insert(format!("{metric}.p50"), (stats::median(samples), "us"));
        let p99 = stats::percentile(samples, 0.99).map_err(|e| format!("{metric}: {e}"))?;
        metrics.insert(format!("{metric}.p99"), (p99, "us"));
    }
    Ok(())
}
