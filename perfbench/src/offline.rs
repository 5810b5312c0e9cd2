//! `offline_xgb` / `offline_cnn`: the LoCEC batch pipeline, driven the
//! way the CLI stages drive it, from an in-memory world to answers served
//! off the reloaded snapshots.
//!
//! One pass: `phase1::divide` → `community_ground_truth` →
//! `CommunityClassifier::train`/`predict_all` → `EdgeClassifier::train`/
//! `evaluate_on`/`predict_all` → world/division/model snapshot save and
//! load → a serve daemon bound on the reloaded snapshots answering
//! closed-loop classify-edge queries. Passes repeat until `--seconds` is
//! used up; end-to-end metrics are medians over passes.

use crate::common::{
    bits, cli_config, division_digest, hardware_threads, hist_pct_us, hist_sum_s, model_name,
    obs_delta, obs_now, repeated_setup, synth_world, Gates, ScratchDir,
};
use crate::layers::Values;
use crate::schedule::{SplitMix, Zipf, ZIPF_S};
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};
use crate::{Args, Report};
use locec_core::ground_truth::community_ground_truth;
use locec_core::phase1;
use locec_core::phase2::CommunityClassifier;
use locec_core::phase3::EdgeClassifier;
use locec_core::pipeline::split_communities;
use locec_core::{CommunityModelKind, LocecConfig};
use locec_graph::NodeId;
use locec_obs::json::Value;
use locec_obs::MetricsSnapshot;
use locec_serve::{EdgeOutcome, ServeAssets, ServeClient, Server};
use locec_store::{
    load_community_model, load_division, load_edge_model, save_community_model, save_division,
    save_edge_model, InferenceWorld, StoredWorld,
};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Shape of one offline workload.
pub struct OfflineSpec {
    /// Users in the synthetic world.
    pub users: usize,
    /// Phase II model.
    pub model: CommunityModelKind,
}

/// Classify-edge queries served per pass.
const QUERIES: usize = 2_000;

/// Set-ups per run; `setup_s` is their median. Offline set-up is only
/// world generation, so it is cheap enough to repeat often.
const SETUP_REPS: usize = 9;

/// Passes a traced run makes at least: a first (warm-up) pass, then a
/// traced and an untraced one to compare.
const TRACED_MIN_PASSES: usize = 3;

struct Setup {
    world: StoredWorld,
    queries: Vec<(u32, u32)>,
}

fn setup(spec: &OfflineSpec, seed: u64, world_times: &mut Vec<f64>) -> Result<Setup, String> {
    let t = Instant::now();
    let world = synth_world(spec.users, seed);
    world_times.push(t.elapsed().as_secs_f64());
    // Skewed sources, each paired with one of its friends, in a random
    // endpoint order (the daemon must canonicalize either way).
    let graph = &world.graph;
    let zipf = Zipf::new(graph.num_nodes(), ZIPF_S, seed);
    let mut rng = SplitMix::new(seed ^ 0x0FF1_1AE5);
    let mut queries = Vec::with_capacity(QUERIES);
    while queries.len() < QUERIES {
        let u = zipf.pick(&mut rng);
        let friends = graph.neighbors(NodeId(u));
        if friends.is_empty() {
            continue;
        }
        let v = friends[rng.below(friends.len())].0;
        queries.push(if rng.next_u64() & 1 == 0 {
            (u, v)
        } else {
            (v, u)
        });
    }
    Ok(Setup { world, queries })
}

/// One layer call's wall time and `locec_obs` delta (traced passes only).
struct LayerSample {
    name: &'static str,
    secs: f64,
    obs: MetricsSnapshot,
}

/// Wraps the calls into one layer's public functions: a span, and a
/// recorder snapshot delta around it, when the pass is traced.
struct Layers<'t> {
    tracer: &'t mut Tracer,
    pass: u64,
    samples: Vec<LayerSample>,
}

impl Layers<'_> {
    fn run<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.tracer.enabled() {
            return f();
        }
        let before = obs_now();
        let id = self.tracer.begin(name, self.pass);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.tracer.end(id);
        let obs = obs_delta(&before, &obs_now());
        self.samples.push(LayerSample { name, secs, obs });
        out
    }

    fn get(&self, name: &str) -> Option<&LayerSample> {
        self.samples.iter().find(|s| s.name == name)
    }
}

/// What one pass measured.
struct Pass {
    traced: bool,
    edges_per_s: f64,
    freshness_s: f64,
    latencies_us: Vec<f64>,
    f1: f64,
    predictions_digest: u64,
    communities: usize,
    layers: Values,
}

fn digest_labels(labels: &[locec_synth::types::RelationType]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for l in labels {
        l.label().hash(&mut h);
    }
    h.finish()
}

#[allow(clippy::too_many_lines)]
fn run_pass(
    setup: &Setup,
    config: &LocecConfig,
    index: u64,
    tracer: &mut Tracer,
    gates: &mut Gates,
) -> Result<Pass, String> {
    let world = &setup.world;
    let traced = tracer.enabled();
    let dir = ScratchDir::new(&format!("pass{index}"))?;
    let (world_path, division_path) = (dir.file("world.lsnap"), dir.file("division.lsnap"));
    let (model_path, edge_model_path) = (dir.file("model.lsnap"), dir.file("edge.lsnap"));
    let pass_before = traced.then(obs_now);

    let t0 = Instant::now();
    let root = tracer.begin("offline.pass", index);
    let mut l = Layers {
        tracer,
        pass: index,
        samples: Vec::new(),
    };
    let data = world.dataset();
    let division = l.run("phase1.divide", || phase1::divide(&world.graph, config));
    let community_train = l.run("phase2.ground_truth", || {
        let train_map: HashMap<_, _> = world.train_edges.iter().copied().collect();
        let labeled = community_ground_truth(
            &world.graph,
            &division,
            &train_map,
            config.community_label_min_coverage,
        );
        split_communities(&labeled, 0.8, config.seed).0
    });
    if community_train.is_empty() {
        return Err("no community got a ground-truth label".into());
    }
    let mut model = l.run("phase2.train", || {
        CommunityClassifier::train(&data, &division, &community_train, config)
    });
    let agg = l.run("phase2.predict_all", || {
        model.predict_all(&data, &division, config)
    });
    let edge_model = l.run("phase3.train", || {
        EdgeClassifier::train(
            &world.graph,
            &division,
            &agg,
            &world.train_edges,
            &config.lr,
        )
    });
    let eval = l.run("phase3.eval", || {
        edge_model.evaluate_on(&world.graph, &division, &agg, &world.test_edges)
    });
    let predictions = l.run("phase3.predict_all", || {
        edge_model.predict_all(&world.graph, &division, &agg, config.threads)
    });
    let store = |r: Result<(), locec_store::SnapshotError>| r.map_err(|e| e.to_string());
    l.run("store.world_save", || store(world.save(&world_path)))?;
    l.run("store.division_save", || {
        store(save_division(&division_path, &world.graph, &division))
    })?;
    l.run("store.models_save", || {
        store(save_community_model(&model_path, &mut model))?;
        store(save_edge_model(&edge_model_path, &edge_model))
    })?;
    let loaded_world = l
        .run("store.world_load", || StoredWorld::load(&world_path))
        .map_err(|e| e.to_string())?;
    let loaded_division = l
        .run("store.division_load", || load_division(&division_path))
        .map_err(|e| e.to_string())?;
    let (loaded_model, loaded_edge_model) = l
        .run("store.models_load", || {
            Ok::<_, locec_store::SnapshotError>((
                load_community_model(&model_path)?,
                load_edge_model(&edge_model_path)?,
            ))
        })
        .map_err(|e| e.to_string())?;
    let roundtrip_s = t0.elapsed().as_secs_f64();
    // The thirteen layer calls above, one operation each.
    gates.attempted += 13;

    // `locec serve` on the snapshot files: like the CLI daemon, it loads
    // the world's inference columns, the division and both models itself.
    let k = match &loaded_model {
        CommunityClassifier::Cnn(cnn) => cnn.input_shape().0,
        CommunityClassifier::Xgb(_) => config.k,
    };
    let (server, daemon, mut client) = l.run("serve.bind", || {
        let snap = |e: locec_store::SnapshotError| e.to_string();
        let served = InferenceWorld::load(&world_path).map_err(snap)?;
        let served_division = load_division(&division_path).map_err(snap)?;
        let assets = ServeAssets {
            community_model: load_community_model(&model_path).map_err(snap)?,
            edge_model: load_edge_model(&edge_model_path).map_err(snap)?,
            k,
            row_order: config.row_order,
            seed: config.seed,
        };
        let server = Arc::new(
            Server::bind(served, assets, served_division, "127.0.0.1:0")
                .map_err(|e| e.to_string())?,
        );
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let runner = Arc::clone(&server);
        let daemon = std::thread::spawn(move || runner.run());
        let client = ServeClient::connect(&addr).map_err(|e| e.to_string())?;
        Ok::<_, String>((server, daemon, client))
    })?;
    let serve_before = traced.then(obs_now);
    let qid = l.tracer.begin("serve.queries", index);
    let mut latencies_us = Vec::with_capacity(setup.queries.len());
    let mut replies = Vec::with_capacity(setup.queries.len());
    let mut first_reply_s = None;
    let mut client_errors = 0u64;
    for (i, &(u, v)) in setup.queries.iter().enumerate() {
        let sent = Instant::now();
        let reply = client.classify_edge(u, v);
        let replied = Instant::now();
        first_reply_s.get_or_insert_with(|| t0.elapsed().as_secs_f64());
        l.tracer.record("serve.request", i as u64, sent, replied);
        latencies_us.push((replied - sent).as_secs_f64() * 1e6);
        match reply {
            Ok(r) => replies.push(Some(r.outcome)),
            Err(e) => {
                client_errors += 1;
                gates.fail(format!("classify-edge({u},{v}) failed: {e}"));
                replies.push(None);
            }
        }
    }
    l.tracer.end(qid);
    let serve_obs = serve_before.map(|b| obs_delta(&b, &obs_now()));
    l.tracer.end(root);
    let pass_s = t0.elapsed().as_secs_f64();
    drop(client);
    server.stop();
    match daemon.join() {
        Ok(Ok(_)) => gates.ok(),
        Ok(Err(e)) => gates.fail(format!("daemon ended with error: {e}")),
        Err(_) => gates.fail("daemon thread panicked".into()),
    }

    // --- gates, outside the timed pass ---
    // The snapshot round trip is deterministic: the first pass checks it
    // bitwise, and every later pass must reproduce the first pass's labels
    // (checked in `run`).
    if index == 0 {
        gates.check(
            division_digest(&loaded_division) == division_digest(&division),
            || "reloaded division differs from the in-memory one".into(),
        );
        let loaded_data = loaded_world.dataset();
        let loaded_agg = loaded_model.predict_all(&loaded_data, &loaded_division, config);
        gates.check(
            loaded_agg
                .embeddings
                .iter()
                .zip(&agg.embeddings)
                .all(|(a, b)| bits(a) == bits(b))
                && loaded_agg.embeddings.len() == agg.embeddings.len(),
            || "community embeddings from the reloaded snapshots differ".into(),
        );
        let loaded_predictions = loaded_edge_model.predict_all(
            &loaded_world.graph,
            &loaded_division,
            &loaded_agg,
            config.threads,
        );
        gates.check(loaded_predictions == predictions, || {
            "edge labels from the reloaded snapshots differ from the in-memory ones".into()
        });
        let loaded_eval = loaded_edge_model.evaluate_on(
            &loaded_world.graph,
            &loaded_division,
            &loaded_agg,
            &loaded_world.test_edges,
        );
        gates.check(
            loaded_eval.overall.f1.to_bits() == eval.overall.f1.to_bits(),
            || "held-out F1 from the reloaded snapshots differs".into(),
        );
    }
    for (&(u, v), reply) in setup.queries.iter().zip(&replies) {
        let Some(reply) = reply else { continue };
        let edge = world.graph.edge_between(NodeId(u), NodeId(v));
        let want = edge.and_then(|e| {
            Some((
                edge_model
                    .predict(&world.graph, &division, &agg, e)?
                    .label() as u8,
                edge_model.predict_proba(&world.graph, &division, &agg, e)?,
            ))
        });
        let pass = match (reply, want) {
            (EdgeOutcome::Classified { label, proba }, Some((wl, wp))) => {
                *label == wl && bits(proba) == bits(&wp)
            }
            _ => false,
        };
        gates.check(pass, || {
            format!("served classify-edge({u},{v}) differs from offline")
        });
    }

    let mut layers = Values::default();
    if traced {
        let pass_obs = obs_delta(&pass_before.unwrap_or_default(), &obs_now());
        fill_layers(&mut layers, &l, &pass_obs, pass_s, config);
        if let Some(d) = &serve_obs {
            let client_s: f64 = latencies_us.iter().sum::<f64>() / 1e6;
            layers.set(
                "serve.edge_compute_p50_us",
                hist_pct_us(d, "serve.edge_nanos", 0.5),
            );
            layers.set(
                "serve.edge_compute_p99_us",
                hist_pct_us(d, "serve.edge_nanos", 0.99),
            );
            if client_s > 0.0 {
                layers.set(
                    "serve.wire_share",
                    1.0 - hist_sum_s(d, "serve.edge_nanos") / client_s,
                );
            }
            layers.set(
                "serve.connection_errors",
                (d.counter("serve.connection_errors") + client_errors) as f64,
            );
        }
        layers.set(
            "serve.memo_first_touch_share",
            first_touch_share(&world.graph, &division, &setup.queries),
        );
    }
    Ok(Pass {
        traced,
        edges_per_s: world.graph.num_edges() as f64 / roundtrip_s,
        freshness_s: first_reply_s.unwrap_or(pass_s),
        latencies_us,
        f1: eval.overall.f1,
        predictions_digest: digest_labels(&predictions),
        communities: division.num_communities(),
        layers,
    })
}

/// Share of queries that reached a community no earlier query of the
/// same daemon touched (each one pays a lazy embedding computation).
fn first_touch_share(
    graph: &locec_graph::CsrGraph,
    division: &locec_core::DivisionResult,
    queries: &[(u32, u32)],
) -> f64 {
    let mut seen = HashSet::new();
    let mut first = 0usize;
    for &(u, v) in queries {
        let (u, v) = (NodeId(u), NodeId(v));
        let touched = [
            division.community_index_of(graph, v, u),
            division.community_index_of(graph, u, v),
        ];
        let mut new = false;
        for c in touched.into_iter().flatten() {
            new |= seen.insert(c);
        }
        first += usize::from(new);
    }
    first as f64 / queries.len().max(1) as f64
}

fn fill_layers(
    v: &mut Values,
    l: &Layers<'_>,
    pass: &MetricsSnapshot,
    pass_s: f64,
    config: &LocecConfig,
) {
    let secs = |name: &str| l.get(name).map_or(0.0, |s| s.secs);
    for (metric, span) in [
        ("phase1.divide_s", "phase1.divide"),
        ("phase2.ground_truth_s", "phase2.ground_truth"),
        ("phase2.train_s", "phase2.train"),
        ("phase2.predict_all_s", "phase2.predict_all"),
        ("phase3.train_s", "phase3.train"),
        ("phase3.eval_s", "phase3.eval"),
        ("phase3.predict_all_s", "phase3.predict_all"),
        ("store.world_save_s", "store.world_save"),
        ("store.world_load_s", "store.world_load"),
        ("store.division_save_s", "store.division_save"),
        ("store.division_load_s", "store.division_load"),
        ("store.models_save_s", "store.models_save"),
        ("store.models_load_s", "store.models_load"),
    ] {
        v.set(metric, secs(span));
    }
    if let Some(d) = l.get("phase1.divide") {
        v.set(
            "phase1.ego_p50_us",
            hist_pct_us(&d.obs, "phase1.ego_nanos", 0.5),
        );
        v.set(
            "phase1.ego_p99_us",
            hist_pct_us(&d.obs, "phase1.ego_nanos", 0.99),
        );
        v.set("phase1.gn_runs", d.obs.counter("phase1.gn_runs") as f64);
        v.set(
            "phase1.louvain_fallbacks",
            d.obs.counter("phase1.louvain_fallbacks") as f64,
        );
    }
    let participants = config.threads.clamp(1, hardware_threads()) as f64;
    v.set(
        "runtime.pool_busy_share",
        pass.counter("pool.busy_nanos") as f64 / 1e9 / (pass_s * participants),
    );
    v.set("runtime.pool_chunks", pass.counter("pool.chunks") as f64);
    v.set("runtime.pool_steals", pass.counter("pool.steals") as f64);
    v.set("ml.gemm_s", pass.counter("ml.gemm_nanos") as f64 / 1e9);
    v.set("ml.gemm_calls", pass.counter("ml.gemm_calls") as f64);
    v.set("ml.im2col_s", pass.counter("ml.im2col_nanos") as f64 / 1e9);
    v.set("ml.im2col_calls", pass.counter("ml.im2col_calls") as f64);
    if let Some(d) = l.get("phase2.train").filter(|d| d.secs > 0.0) {
        v.set(
            "ml.train_samples_per_s",
            d.obs.counter("ml.train_samples") as f64 / d.secs,
        );
    }
    if let Some(d) = l.get("phase2.predict_all").filter(|d| d.secs > 0.0) {
        v.set(
            "ml.infer_samples_per_s",
            d.obs.counter("ml.infer_samples") as f64 / d.secs,
        );
    }
    v.set(
        "store.bytes_written",
        pass.counter("store.bytes_written") as f64,
    );
    v.set("store.bytes_read", pass.counter("store.bytes_read") as f64);
    v.set("store.crc_s", hist_sum_s(pass, "store.crc_nanos"));
}

/// Runs an offline workload.
pub fn run(spec: &OfflineSpec, args: &Args) -> Result<Report, String> {
    let config = cli_config(spec.model);
    let mut gates = Gates::default();
    let mut world_times = Vec::new();
    let (setup, setup_times) =
        repeated_setup(SETUP_REPS, || setup(spec, args.seed, &mut world_times))?;
    let world = &setup.world;

    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    loop {
        // Traced runs alternate traced and untraced passes, so the cost of
        // tracing itself is measured in the same run.
        let index = passes.len() as u64;
        tracer.set_enabled(args.trace && index.is_multiple_of(2));
        let t = Instant::now();
        passes.push(run_pass(&setup, &config, index, &mut tracer, &mut gates)?);
        let last = t.elapsed().as_secs_f64();
        let used = started.elapsed().as_secs_f64();
        let need_more = args.trace && passes.len() < TRACED_MIN_PASSES;
        if !need_more && used + last > args.seconds {
            break;
        }
    }

    // Same inputs, same outputs: every pass must agree with the first.
    for p in &passes[1..] {
        gates.check(
            p.predictions_digest == passes[0].predictions_digest
                && p.f1.to_bits() == passes[0].f1.to_bits(),
            || "a later pass produced different edge labels".into(),
        );
    }

    let col = |f: fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let mut latencies: Vec<f64> = passes.iter().flat_map(|p| p.latencies_us.clone()).collect();
    let p50 = percentile(&mut latencies, 0.5);
    let p99 = percentile(&mut latencies, 0.99);

    let mut e2e = Values::default();
    e2e.set("setup_s", median(&setup_times).unwrap_or(0.0));
    e2e.set(
        "edges_per_s",
        median(&col(|p| p.edges_per_s)).unwrap_or(0.0),
    );
    e2e.set("edge_f1", passes[0].f1);
    e2e.set(
        "freshness_s",
        median(&col(|p| p.freshness_s)).unwrap_or(0.0),
    );

    let mut layers = Values::default();
    if args.trace {
        let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
        let names: BTreeSet<&'static str> = traced.iter().flat_map(|p| p.layers.names()).collect();
        for name in names {
            let vals: Vec<f64> = traced.iter().filter_map(|p| p.layers.get(name)).collect();
            if let Some(x) = median(&vals) {
                layers.set(name, x);
            }
        }
        layers.set("p50_us", p50.map_or(0.0, |p| p.value));
        layers.set("p99_us", p99.map_or(0.0, |p| p.value));
        layers.set("synth.world_s", median(&world_times).unwrap_or(0.0));
        layers.set(
            "bench.unattributed_share",
            trace::unattributed_share(tracer.spans(), "offline.pass"),
        );
        // The first pass also pays warm-up (pool start, page faults), so
        // the comparison leaves it out.
        let later = |traced: bool| -> Vec<f64> {
            passes[1..]
                .iter()
                .filter(|p| p.traced == traced)
                .map(|p| p.freshness_s)
                .collect()
        };
        let on = median(&later(true));
        let off = median(&later(false));
        if let (Some(on), Some(off)) = (on, off) {
            layers.set("bench.trace_overhead", on / off - 1.0);
        }
    }

    let provenance = vec![
        (
            "model".to_owned(),
            Value::Str(model_name(spec.model).into()),
        ),
        ("users".to_owned(), Value::Uint(spec.users as u64)),
        (
            "nodes".to_owned(),
            Value::Uint(world.graph.num_nodes() as u64),
        ),
        (
            "edges".to_owned(),
            Value::Uint(world.graph.num_edges() as u64),
        ),
        (
            "communities".to_owned(),
            Value::Uint(passes[0].communities as u64),
        ),
        ("passes".to_owned(), Value::Uint(passes.len() as u64)),
        (
            "pass_edges_per_s".to_owned(),
            Value::Array(passes.iter().map(|p| Value::Float(p.edges_per_s)).collect()),
        ),
        (
            "pass_freshness_s".to_owned(),
            Value::Array(passes.iter().map(|p| Value::Float(p.freshness_s)).collect()),
        ),
        ("queries_per_pass".to_owned(), Value::Uint(QUERIES as u64)),
        (
            "pipeline_threads".to_owned(),
            Value::Uint(config.threads as u64),
        ),
        (
            "setup_reps".to_owned(),
            Value::Uint(setup_times.len() as u64),
        ),
        crate::percentile_field("p50_us", p50),
        crate::percentile_field("p99_us", p99),
    ];
    Ok(Report {
        gates,
        e2e,
        layers,
        provenance,
        traces: vec![trace::to_json("offline", tracer.spans())],
    })
}
