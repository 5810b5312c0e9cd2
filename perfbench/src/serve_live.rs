//! `serve_live`: a `locec_serve` daemon on the XGB stack, answering reads
//! over loopback TCP while a writer replays edge-event batches through the
//! incremental update path and hot-reloads the daemon after each one.
//!
//! * Reader: one connection, requests due at a fixed offered rate (open
//!   loop), mix classify-edge : community-of : top-k = 8 : 1 : 1 over
//!   Zipf-skewed sources. Latency runs from each request's due time to
//!   its reply, so a stalled reply makes the requests behind it late.
//!   `edges_per_s` counts the classify-edge replies that met
//!   [`LATENCY_LIMIT_NS`]: the offered edge rate while the daemon keeps
//!   up, less as soon as its replies fall behind.
//! * Writer: one connection, batches handed to it at an even cadence over
//!   the window. Per batch, the chain `locec evolve` +
//!   `locec divide --update` run — `apply_world_delta` →
//!   `GraphDelta::new`/`apply_delta` → `dirty_egos` → `divide_egos` →
//!   `splice_update_owned` → `StoredWorld::save` + `save_division` — then
//!   `status` and `ServeClient::reload(world, division)`.
//!
//! Set-up builds everything the program under test receives: the world,
//! the trained models, the delta batches, the query schedule and the
//! expected answer of every scheduled classify-edge for every epoch. The
//! reference data it keeps for the checks is compact (answers stored as
//! per-pair changes, friends of the queried nodes only), so it adds
//! little to the process's peak RSS; its size is in the provenance.

use crate::common::{
    bits, cli_config, division_digest, hist_count, hist_pct_us, hist_sum_s, obs_delta, obs_now,
    peak_rss_mb, repeated_setup, synth_world, Gates, ScratchDir,
};
use crate::layers::Values;
use crate::schedule::{latencies, lateness, SplitMix, Timing, Zipf, ZIPF_S};
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};
use crate::{percentile_field, Args, Report};
use locec_core::ground_truth::community_ground_truth;
use locec_core::phase1::{self, divide_egos, splice_update_owned};
use locec_core::phase2::CommunityClassifier;
use locec_core::phase3::EdgeClassifier;
use locec_core::pipeline::split_communities;
use locec_core::{CommunityModelKind, DivisionResult, LocecConfig};
use locec_graph::{dirty_egos, CsrGraph, GraphDelta, NodeId};
use locec_obs::json::Value;
use locec_serve::{EdgeOutcome, ServeAssets, ServeClient, ServeError, ServeSummary, Server};
use locec_store::{
    apply_world_delta, load_community_model, load_division, load_edge_model, save_community_model,
    save_division, save_edge_model, InferenceWorld, SnapshotError, StoredWorld,
};
use locec_synth::evolve::{EvolveConfig, WorldDelta};
use std::collections::{HashMap, HashSet};
use std::mem::size_of;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Users in the served world.
const USERS: usize = 20_000;
/// Offered request rate (requests per second), about a quarter of one connection's capacity at the median service
/// time. Gaps this short also keep the host from parking idle vCPUs
/// between requests, which at 1000–3000/s made the median swing by a
/// third from run to run.
const RATE: f64 = 6_000.0;
/// Latency limit of `edges_per_s`: a classify-edge reply counts when it
/// arrives within this long of its due time. About 25 median service
/// times, so a daemon that keeps up meets it for nearly every reply and
/// one that builds a backlog misses it for the requests behind the stall.
const LATENCY_LIMIT_NS: u64 = 1_000_000;
/// Update batches replayed per run, handed to the writer at an even
/// cadence over the window. `freshness_s` is their median;
/// batches differ in how many egos they dirty, so fewer made it swing
/// with the seed.
const BATCHES: usize = 14;
/// Edge churn per batch, as a share of the edge count, half inserts and
/// half removes.
const CHURN: f64 = 0.001;
/// Verb weights: classify-edge, community-of, top-k.
const MIX: [u64; 3] = [8, 1, 1];
/// One classify-edge in this many targets an edge a batch inserts or
/// removes, so removed edges must start answering `NoSuchEdge`.
const CHURN_QUERY_EVERY: u64 = 20;
/// `k` of the top-k reads.
const TOP_K: u32 = 8;
/// Edge classes of the Phase III model (the length of a probability
/// vector).
const CLASSES: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
// `Friends::churned` keeps one bit per epoch.
const _: () = assert!(BATCHES < 32);

fn snap(e: SnapshotError) -> String {
    e.to_string()
}

fn serr(e: ServeError) -> String {
    e.to_string()
}

#[derive(Clone, Copy, Debug)]
enum Verb {
    /// classify-edge of `pairs[pair]`, endpoints swapped when `flip`.
    Edge { pair: u32, flip: bool },
    /// community-of a node.
    Community(u32),
    /// top-k-intimate of a node.
    TopK(u32),
}

/// A community an answer reads, as `(ego, position among the ego's
/// communities)`. It stays the same across epochs for an ego no batch
/// re-divided; [`EpochRef::first`] turns it into that epoch's global
/// community index. The position is `u32::MAX` for an uncovered slot.
type Touch = (u32, u32);

/// The expected classify-edge answer of one pair in one epoch, plus the
/// communities the answer reads (for first-touch accounting).
#[derive(Clone, Debug, PartialEq)]
enum Expected {
    Classified {
        label: u8,
        proba: [u32; CLASSES],
        touches: [Touch; 2],
    },
    NoSuchEdge,
}

/// What set-up knows about one serving epoch's division.
struct EpochRef {
    /// Global index of each ego's first community (communities are in
    /// ego order).
    first: Vec<u32>,
    division_digest: u64,
    communities: usize,
}

impl EpochRef {
    fn new(division: &DivisionResult, nodes: usize) -> Self {
        let mut first = vec![u32::MAX; nodes];
        for (i, c) in division.communities.iter().enumerate().rev() {
            if let Some(f) = first.get_mut(c.ego.0 as usize) {
                *f = i as u32;
            }
        }
        EpochRef {
            first,
            division_digest: division_digest(division),
            communities: division.num_communities(),
        }
    }

    /// The global community index of `touch` in this epoch.
    fn global(&self, (ego, pos): Touch) -> Option<u32> {
        let first = *self.first.get(ego as usize)?;
        (pos != u32::MAX && first != u32::MAX).then(|| first + pos)
    }
}

/// The expected classify-edge answer of every scheduled pair in every
/// epoch, stored as changes: an entry holds from its epoch until the
/// pair's next entry. Most pairs never change, so this stays near one
/// entry per pair however many epochs there are.
struct Answers {
    /// `entries[start[p]..start[p + 1]]` are pair `p`'s, by epoch.
    start: Vec<u32>,
    entries: Vec<(u32, Expected)>,
    epochs: u64,
}

impl Answers {
    /// Builds from `changes` — `(pair, epoch, answer)` in epoch order —
    /// for `pairs` pairs and `epochs` epochs.
    fn new(mut changes: Vec<(u32, u32, Expected)>, pairs: usize, epochs: usize) -> Self {
        // Stable: each pair's entries stay in epoch order.
        changes.sort_by_key(|c| c.0);
        let mut start = vec![0u32; pairs + 1];
        for c in &changes {
            start[c.0 as usize + 1] += 1;
        }
        for p in 0..pairs {
            start[p + 1] += start[p];
        }
        Answers {
            start,
            entries: changes.into_iter().map(|(_, e, x)| (e, x)).collect(),
            epochs: epochs as u64,
        }
    }

    /// Pair `pair`'s expected answer in `epoch` (1-based).
    fn get(&self, pair: u32, epoch: u64) -> Option<&Expected> {
        if epoch == 0 || epoch > self.epochs {
            return None;
        }
        let p = pair as usize;
        let run = self
            .entries
            .get(*self.start.get(p)? as usize..*self.start.get(p + 1)? as usize)?;
        run.iter()
            .rev()
            .find(|(from, _)| u64::from(*from) <= epoch)
            .map(|(_, x)| x)
    }

    fn bytes(&self) -> usize {
        self.start.len() * size_of::<u32>() + self.entries.len() * size_of::<(u32, Expected)>()
    }
}

/// What the community-of and top-k checks read of each epoch's graph:
/// every queried node's degree per epoch and its friends in the base
/// world, plus in which epochs each churned pair is an edge (every other
/// pair is an edge in all epochs or in none).
struct Friends {
    row: HashMap<u32, usize>,
    /// `degree[row * epochs + epoch - 1]`.
    degree: Vec<u32>,
    /// Sorted friends in the base world, by row.
    base: Vec<Vec<u32>>,
    /// Canonical churned pair → bit `epoch - 1` set when it is an edge.
    churned: HashMap<(u32, u32), u32>,
    epochs: usize,
}

impl Friends {
    fn degree(&self, u: u32, epoch: u64) -> Option<usize> {
        let e = usize::try_from(epoch).ok()?.checked_sub(1)?;
        (e < self.epochs)
            .then(|| self.row.get(&u))
            .flatten()
            .and_then(|&r| self.degree.get(r * self.epochs + e))
            .map(|&d| d as usize)
    }

    fn has_edge(&self, u: u32, v: u32, epoch: u64) -> bool {
        let Some(e) = epoch.checked_sub(1).filter(|&e| e < self.epochs as u64) else {
            return false;
        };
        match self.churned.get(&(u.min(v), u.max(v))) {
            Some(bits) => bits >> e & 1 == 1,
            None => self
                .row
                .get(&u)
                .is_some_and(|&r| self.base[r].binary_search(&v).is_ok()),
        }
    }

    fn bytes(&self) -> usize {
        let friends: usize = self.base.iter().map(Vec::len).sum();
        (self.degree.len() + friends) * size_of::<u32>()
            + self.row.len() * size_of::<(u32, usize)>()
            + self.churned.len() * size_of::<((u32, u32), u32)>()
    }
}

struct Setup {
    dir: ScratchDir,
    base_world: PathBuf,
    base_division: PathBuf,
    deltas: Vec<WorldDelta>,
    pairs: Vec<(u32, u32)>,
    schedule: Vec<Verb>,
    /// `epochs[e - 1]` is served as epoch `e` (1 = the base world).
    epochs: Vec<EpochRef>,
    answers: Answers,
    friends: Friends,
    /// Held-out edges of the final world with their labels, and the
    /// expected answers for them at the final epoch.
    final_test: Vec<((u32, u32), usize, Expected)>,
    server: Arc<Server>,
    addr: String,
    world_s: f64,
    num_nodes: usize,
    num_edges: usize,
}

impl Setup {
    /// Bytes of reference data the checks keep through the window
    /// (hash-table overhead left out).
    fn reference_bytes(&self) -> usize {
        let first: usize = self.epochs.iter().map(|e| e.first.len()).sum();
        self.answers.bytes()
            + self.friends.bytes()
            + first * size_of::<u32>()
            + self.schedule.len() * size_of::<Verb>()
            + self.pairs.len() * size_of::<(u32, u32)>()
            + self.final_test.len() * size_of::<((u32, u32), usize, Expected)>()
    }
}

fn expected_answers(
    world: &StoredWorld,
    division: &DivisionResult,
    epoch: &EpochRef,
    model: &CommunityClassifier,
    edge_model: &EdgeClassifier,
    config: &LocecConfig,
    pairs: &[(u32, u32)],
) -> Result<Vec<Expected>, String> {
    let agg = model.predict_all(&world.dataset(), division, config);
    let graph = &world.graph;
    let touch = |ego: NodeId, friend: NodeId| -> Touch {
        let pos = division
            .community_index_of(graph, ego, friend)
            .zip(epoch.first.get(ego.0 as usize))
            .map_or(u32::MAX, |(i, &first)| i - first);
        (ego.0, pos)
    };
    pairs
        .iter()
        .map(|&(u, v)| {
            let Some(e) = graph.edge_between(NodeId(u), NodeId(v)) else {
                return Ok(Expected::NoSuchEdge);
            };
            let (a, b) = graph.endpoints(e);
            match (
                edge_model.predict(graph, division, &agg, e),
                edge_model.predict_proba(graph, division, &agg, e),
            ) {
                (Some(label), Some(proba)) => Ok(Expected::Classified {
                    label: label.label() as u8,
                    proba: bits(&proba).try_into().map_err(|p: Vec<u32>| {
                        format!("{} edge classes, the benchmark expects {CLASSES}", p.len())
                    })?,
                    touches: [touch(b, a), touch(a, b)],
                }),
                // An uncovered edge has no offline answer; the gate will
                // flag whatever the daemon says.
                _ => Ok(Expected::NoSuchEdge),
            }
        })
        .collect()
}

fn schedule(
    graph: &CsrGraph,
    deltas: &[WorldDelta],
    seed: u64,
    len: usize,
) -> (Vec<(u32, u32)>, Vec<Verb>) {
    let zipf = Zipf::new(graph.num_nodes(), ZIPF_S, seed);
    let mut rng = SplitMix::new(seed ^ 0x5E4E_11FE);
    let churned: Vec<(u32, u32)> = deltas
        .iter()
        .flat_map(|d| d.batches.iter())
        .flat_map(|b| b.inserts.iter().chain(&b.removes).copied())
        .collect();
    let mut index: HashMap<(u32, u32), u32> = HashMap::new();
    let mut pairs = Vec::new();
    let mut verbs = Vec::with_capacity(len);
    let total: u64 = MIX.iter().sum();
    let mut edge_reads = 0u64;
    while verbs.len() < len {
        let roll = rng.next_u64() % total;
        let u = zipf.pick(&mut rng);
        if roll >= MIX[0] {
            verbs.push(if roll < MIX[0] + MIX[1] {
                Verb::Community(u)
            } else {
                Verb::TopK(u)
            });
            continue;
        }
        edge_reads += 1;
        let pair = if edge_reads.is_multiple_of(CHURN_QUERY_EVERY) && !churned.is_empty() {
            churned[rng.below(churned.len())]
        } else {
            let friends = graph.neighbors(NodeId(u));
            if friends.is_empty() {
                continue;
            }
            (u, friends[rng.below(friends.len())].0)
        };
        // Answers are keyed by the canonical pair; the endpoint order sent
        // is drawn per request (the daemon must canonicalize).
        let key = (pair.0.min(pair.1), pair.0.max(pair.1));
        let next = pairs.len() as u32;
        let pair = *index.entry(key).or_insert_with(|| {
            pairs.push(key);
            next
        });
        verbs.push(Verb::Edge {
            pair,
            flip: rng.next_u64() & 1 == 1,
        });
    }
    (pairs, verbs)
}

#[allow(clippy::too_many_lines)]
fn setup(seed: u64, seconds: f64, rep: usize) -> Result<Setup, String> {
    let dir = ScratchDir::new(&format!("serve-setup{rep}"))?;
    let t = Instant::now();
    let world = synth_world(USERS, seed);
    let world_s = t.elapsed().as_secs_f64();
    let config = cli_config(CommunityModelKind::Xgb);

    // Offline training exactly as `locec divide` + `aggregate` + `train`.
    let division = phase1::divide(&world.graph, &config);
    let train_map: HashMap<_, _> = world.train_edges.iter().copied().collect();
    let labeled = community_ground_truth(
        &world.graph,
        &division,
        &train_map,
        config.community_label_min_coverage,
    );
    let (community_train, _) = split_communities(&labeled, 0.8, config.seed);
    if community_train.is_empty() {
        return Err("no community got a ground-truth label".into());
    }
    let data = world.dataset();
    let mut model = CommunityClassifier::train(&data, &division, &community_train, &config);
    let agg = model.predict_all(&data, &division, &config);
    let edge_model = EdgeClassifier::train(
        &world.graph,
        &division,
        &agg,
        &world.train_edges,
        &config.lr,
    );
    drop(agg);

    // Snapshot files the daemon and the writer start from.
    let base_world = dir.file("world-0.lsnap");
    let base_division = dir.file("division-0.lsnap");
    let (model_path, edge_path) = (dir.file("model.lsnap"), dir.file("edge.lsnap"));
    world.save(&base_world).map_err(snap)?;
    save_division(&base_division, &world.graph, &division).map_err(snap)?;
    save_community_model(&model_path, &mut model).map_err(snap)?;
    save_edge_model(&edge_path, &edge_model).map_err(snap)?;

    // The batches, each generated against the world it will be applied
    // to. Only the current world is kept, here and below: a world per
    // epoch would dominate the process's memory.
    let (num_nodes, num_edges) = (world.graph.num_nodes(), world.graph.num_edges());
    let mut deltas = Vec::with_capacity(BATCHES);
    let mut evolved: Option<StoredWorld> = None;
    for b in 0..BATCHES {
        let current = evolved.as_ref().unwrap_or(&world);
        let delta = WorldDelta::generate(
            &current.graph,
            &EvolveConfig {
                seed: seed.wrapping_mul(1_000).wrapping_add(b as u64 + 1),
                insert_fraction: CHURN / 2.0,
                remove_fraction: CHURN / 2.0,
                batches: 1,
                ..EvolveConfig::default()
            },
        );
        evolved = Some(apply_world_delta(current, &delta).map_err(snap)?);
        deltas.push(delta);
    }
    drop(evolved);

    let len = (RATE * seconds).ceil() as usize + 1;
    let (pairs, verbs) = schedule(&world.graph, &deltas, seed, len);

    // Reference divisions (incremental, from set-up's own chain), and for
    // every epoch the expected answer of every scheduled pair and what the
    // community-of and top-k checks read of its graph.
    let epoch_count = BATCHES + 1;
    let mut row = HashMap::new();
    let mut base = Vec::new();
    for verb in &verbs {
        if let Verb::Community(u) | Verb::TopK(u) = *verb {
            row.entry(u).or_insert_with(|| {
                let mut f: Vec<u32> = world
                    .graph
                    .neighbors(NodeId(u))
                    .iter()
                    .map(|n| n.0)
                    .collect();
                f.sort_unstable();
                base.push(f);
                base.len() - 1
            });
        }
    }
    let churned = deltas
        .iter()
        .flat_map(|d| d.batches.iter())
        .flat_map(|b| b.inserts.iter().chain(&b.removes))
        .map(|&(u, v)| ((u.min(v), u.max(v)), 0))
        .collect();
    let mut friends = Friends {
        degree: vec![0; row.len() * epoch_count],
        row,
        base,
        churned,
        epochs: epoch_count,
    };
    let mut epochs = Vec::with_capacity(epoch_count);
    let mut changes = Vec::new();
    let mut last: Vec<Expected> = Vec::new();
    let mut reference = division;
    let mut current = world;
    for e in 0..epoch_count {
        if e > 0 {
            let next = apply_world_delta(&current, &deltas[e - 1]).map_err(snap)?;
            let (ins, _, rem) = deltas[e - 1].flatten();
            let gd = GraphDelta::new(next.graph.num_nodes(), ins, rem)?;
            let dirty = dirty_egos(&current.graph, &gd);
            reference = phase1::divide_update(&next.graph, &reference, &dirty, &config);
            current = next;
        }
        let graph = &current.graph;
        let epoch = EpochRef::new(&reference, graph.num_nodes());
        let answers = expected_answers(
            &current,
            &reference,
            &epoch,
            &model,
            &edge_model,
            &config,
            &pairs,
        )?;
        for (p, x) in answers.iter().enumerate() {
            if last.get(p) != Some(x) {
                changes.push((p as u32, e as u32 + 1, x.clone()));
            }
        }
        last = answers;
        for (&u, &r) in &friends.row {
            friends.degree[r * epoch_count + e] = graph.degree(NodeId(u)) as u32;
        }
        for (&(u, v), present) in &mut friends.churned {
            *present |= u32::from(graph.has_edge(NodeId(u), NodeId(v))) << e;
        }
        epochs.push(epoch);
    }
    drop(last);
    let answers = Answers::new(changes, pairs.len(), epoch_count);
    let test_pairs: Vec<(u32, u32)> = current
        .test_edges
        .iter()
        .map(|&(e, _)| {
            let (a, b) = current.graph.endpoints(e);
            (a.0, b.0)
        })
        .collect();
    let test_expected = expected_answers(
        &current,
        &reference,
        epochs.last().ok_or("no epochs")?,
        &model,
        &edge_model,
        &config,
        &test_pairs,
    )?;
    let final_test = test_pairs
        .into_iter()
        .zip(&current.test_edges)
        .zip(test_expected)
        .map(|((p, &(_, label)), x)| (p, label.label(), x))
        .collect();
    drop(current);

    // `locec serve --world --division --model --edge-model`.
    let assets = ServeAssets {
        community_model: load_community_model(&model_path).map_err(snap)?,
        edge_model: load_edge_model(&edge_path).map_err(snap)?,
        k: config.k,
        row_order: config.row_order,
        seed: config.seed,
    };
    let server = Server::bind(
        InferenceWorld::load(&base_world).map_err(snap)?,
        assets,
        load_division(&base_division).map_err(snap)?,
        "127.0.0.1:0",
    )
    .map_err(serr)?;
    let addr = server.local_addr().map_err(serr)?.to_string();
    Ok(Setup {
        dir,
        base_world,
        base_division,
        deltas,
        pairs,
        schedule: verbs,
        epochs,
        answers,
        friends,
        final_test,
        server: Arc::new(server),
        addr,
        world_s,
        num_nodes,
        num_edges,
    })
}

/// Sleeps until `deadline`; returns at once if it has passed. The
/// generator does not spin: on two hardware threads a spinning reader
/// starves the daemon. How late it wakes is reported as
/// `serve.send_late_p99_us` and kept out of latency (see `latencies`).
fn wait_until(deadline: Instant) {
    if let Some(left) = deadline.checked_duration_since(Instant::now()) {
        std::thread::sleep(left);
    }
}

/// Sends classify-edge for scheduled pair `p` (endpoints swapped when
/// `flip`) and checks the reply bitwise against set-up's answer for the
/// epoch that served it. Returns that epoch and the global indices of the
/// communities the answer read (`u32::MAX` where unknown).
fn classify(
    client: &mut ServeClient,
    setup: &Setup,
    gates: &mut Gates,
    p: u32,
    flip: bool,
) -> Result<(u64, [u32; 2]), String> {
    let (a, b) = setup.pairs[p as usize];
    let (u, v) = if flip { (b, a) } else { (a, b) };
    let r = client.classify_edge(u, v).map_err(serr)?;
    let epoch = r.epoch;
    let want = setup.answers.get(p, epoch);
    let ok = match (&r.outcome, want) {
        (
            EdgeOutcome::Classified { label, proba },
            Some(Expected::Classified {
                label: wl,
                proba: wp,
                ..
            }),
        ) => label == wl && bits(proba) == wp,
        (EdgeOutcome::NoSuchEdge, Some(Expected::NoSuchEdge)) => true,
        _ => false,
    };
    gates.check(ok, || {
        format!(
            "classify-edge({u},{v}) at epoch {epoch}: got {:?}, want {want:?}",
            r.outcome
        )
    });
    let mut touched = [u32::MAX; 2];
    if let (Some(Expected::Classified { touches, .. }), Some(e)) =
        (want, setup.epochs.get(epoch.wrapping_sub(1) as usize))
    {
        for (t, &touch) in touched.iter_mut().zip(touches) {
            *t = e.global(touch).unwrap_or(u32::MAX);
        }
    }
    Ok((epoch, touched))
}

/// Sends classify-edge(`u`, `v`) and checks the reply bitwise against
/// `want` at the final epoch. Returns the label the daemon gave, if it
/// classified the edge.
fn classify_final(
    client: &mut ServeClient,
    (u, v): (u32, u32),
    want: &Expected,
    final_epoch: u64,
    gates: &mut Gates,
) -> Result<Option<u8>, String> {
    let r = client.classify_edge(u, v).map_err(serr)?;
    let ok = r.epoch == final_epoch
        && match (&r.outcome, want) {
            (
                EdgeOutcome::Classified { label, proba },
                Expected::Classified {
                    label: wl,
                    proba: wp,
                    ..
                },
            ) => label == wl && bits(proba) == wp,
            _ => false,
        };
    gates.check(ok, || {
        format!(
            "classify-edge({u},{v}) at epoch {}: got {:?}, want {want:?} at epoch {final_epoch}",
            r.epoch, r.outcome
        )
    });
    Ok(match r.outcome {
        EdgeOutcome::Classified { label, .. } => Some(label),
        _ => None,
    })
}

/// What the reader saw.
struct ReaderOut {
    client: ServeClient,
    /// Open-loop requests.
    timings: Vec<Timing>,
    traced: Vec<bool>,
    /// First time (ns since the window opened) a reply carried epoch `e`,
    /// indexed by `e - 1`.
    first_seen: Vec<Option<u64>>,
    touches: u64,
    first_touches: u64,
    gates: Gates,
    client_errors: u64,
    spans: Vec<trace::Span>,
}

#[allow(clippy::too_many_lines)]
fn reader(
    setup: Arc<Setup>,
    start: Instant,
    window: Duration,
    trace: bool,
    origin: Instant,
) -> Result<ReaderOut, String> {
    let mut client = ServeClient::connect(&setup.addr).map_err(serr)?;
    let mut tracer = Tracer::new(trace, origin);
    let mut gates = Gates::default();
    let interval = Duration::from_secs_f64(1.0 / RATE);
    let mut out_timings = Vec::with_capacity(setup.schedule.len());
    let mut traced_flags = Vec::with_capacity(setup.schedule.len());
    let mut first_seen = vec![None; setup.epochs.len()];
    let mut seen_in_epoch: HashSet<u32> = HashSet::new();
    let mut memo_epoch = 0u64;
    let (mut touches, mut first_touches, mut client_errors) = (0u64, 0u64, 0u64);
    let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;

    // Open loop, beside the writer.
    for (i, verb) in setup.schedule.iter().enumerate() {
        let due = start + interval * i as u32;
        if due >= start + window {
            break;
        }
        wait_until(due);
        let sent = Instant::now();
        let reply: Result<(u64, Vec<u32>), String> = match *verb {
            Verb::Edge { pair, flip } => classify(&mut client, &setup, &mut gates, pair, flip)
                .map(|(epoch, touched)| (epoch, touched.to_vec())),
            Verb::Community(u) => client.communities_of(u).map_err(serr).map(|r| {
                let degree = setup.friends.degree(u, r.epoch);
                gates.check(degree == Some(r.memberships.len()), || {
                    format!(
                        "community-of({u}) at epoch {}: {} memberships, degree {degree:?}",
                        r.epoch,
                        r.memberships.len()
                    )
                });
                (r.epoch, r.memberships.iter().map(|m| m.community).collect())
            }),
            Verb::TopK(u) => client.top_k_intimate(u, TOP_K).map_err(serr).map(|r| {
                let f = &setup.friends;
                let ok = f
                    .degree(u, r.epoch)
                    .is_some_and(|d| r.neighbors.len() == d.min(TOP_K as usize))
                    && r.neighbors.iter().all(|&(v, _)| f.has_edge(u, v, r.epoch));
                gates.check(ok, || {
                    format!("top-k({u}) at epoch {} is not {TOP_K} friends", r.epoch)
                });
                (r.epoch, Vec::new())
            }),
        };
        let replied = Instant::now();
        let traced = trace && i % 2 == 0;
        tracer.set_enabled(traced);
        tracer.record("serve.request", i as u64, sent, replied);
        traced_flags.push(traced);
        out_timings.push(Timing {
            due: ns(due),
            sent: ns(sent),
            replied: ns(replied),
        });
        match reply {
            Ok((epoch, touched)) => {
                if let Some(slot) = first_seen.get_mut(epoch.wrapping_sub(1) as usize) {
                    slot.get_or_insert(ns(replied));
                }
                if matches!(verb, Verb::TopK(_)) {
                    continue;
                }
                if epoch != memo_epoch {
                    memo_epoch = epoch;
                    seen_in_epoch.clear();
                }
                let mut new = false;
                for c in touched.into_iter().filter(|&c| c != u32::MAX) {
                    new |= seen_in_epoch.insert(c);
                }
                touches += 1;
                first_touches += u64::from(new);
            }
            Err(e) => {
                client_errors += 1;
                gates.fail(format!("read {i} failed: {e}"));
            }
        }
    }

    Ok(ReaderOut {
        client,
        timings: out_timings,
        traced: traced_flags,
        first_seen,
        touches,
        first_touches,
        gates,
        client_errors,
        spans: tracer.into_spans(),
    })
}

/// One update batch as the writer measured it.
#[derive(Default)]
struct Batch {
    handed_ns: u64,
    layers: Vec<(&'static str, f64)>,
    dirty: usize,
    memo_fill: f64,
    reload_rtt_s: f64,
    division_digest: u64,
    store: (u64, u64, f64),
}

struct WriterOut {
    batches: Vec<Batch>,
    gates: Gates,
    spans: Vec<trace::Span>,
}

#[allow(clippy::too_many_lines)]
fn writer(
    setup: Arc<Setup>,
    start: Instant,
    window: Duration,
    trace: bool,
    origin: Instant,
) -> Result<WriterOut, String> {
    // The writer owns its state, loaded from the files the daemon started
    // from, as `locec divide --update` would load it.
    let mut world = StoredWorld::load(&setup.base_world).map_err(snap)?;
    let mut division = load_division(&setup.base_division).map_err(snap)?;
    let mut control = ServeClient::connect(&setup.addr).map_err(serr)?;
    let config = LocecConfig {
        // One pool participant: reader plus writer stay within two
        // hardware threads.
        threads: 1,
        ..cli_config(CommunityModelKind::Xgb)
    };
    let mut tracer = Tracer::new(trace, origin);
    let mut gates = Gates::default();
    let mut batches = Vec::with_capacity(setup.deltas.len());
    let cadence = window / (setup.deltas.len() as u32 + 1);
    for (b, delta) in setup.deltas.iter().enumerate() {
        let handed = start + cadence * (b as u32 + 1);
        wait_until(handed);
        let before = trace.then(obs_now);
        let mut batch = Batch {
            handed_ns: handed.saturating_duration_since(start).as_nanos() as u64,
            ..Batch::default()
        };
        let root = tracer.begin("update.batch", b as u64);
        macro_rules! layer {
            ($name:literal, $e:expr) => {{
                let id = tracer.begin($name, b as u64);
                let t = Instant::now();
                let out = $e;
                batch.layers.push(($name, t.elapsed().as_secs_f64()));
                tracer.end(id);
                out
            }};
        }
        let evolved =
            layer!("store.apply_world_delta", apply_world_delta(&world, delta)).map_err(snap)?;
        let (graph_delta, applied) = layer!("graph.apply_delta", {
            let (ins, _, rem) = delta.flatten();
            let gd = GraphDelta::new(world.graph.num_nodes(), ins, rem)?;
            let applied = world.graph.apply_delta(&gd)?;
            Ok::<_, &'static str>((gd, applied))
        })?;
        let dirty = layer!("graph.dirty_egos", dirty_egos(&world.graph, &graph_delta));
        let fresh = layer!(
            "phase1.update",
            divide_egos(&applied.graph, &dirty, &config)
        );
        division = layer!(
            "phase1.splice",
            splice_update_owned(
                &applied.graph,
                std::mem::take(&mut division),
                &dirty,
                fresh,
                config.threads
            )
        );
        let world_path = setup.dir.file(&format!("world-{}.lsnap", b + 1));
        let division_path = setup.dir.file(&format!("division-{}.lsnap", b + 1));
        layer!("store.world_save", evolved.save(&world_path)).map_err(snap)?;
        layer!(
            "store.division_save",
            save_division(&division_path, &applied.graph, &division)
        )
        .map_err(snap)?;
        let status = layer!("serve.status", control.status()).map_err(serr)?;
        let reload = layer!(
            "serve.reload",
            control.reload(
                Some(&world_path.display().to_string()),
                &division_path.display().to_string()
            )
        )
        .map_err(serr)?;
        tracer.end(root);
        batch.reload_rtt_s = batch.layers.last().map_or(0.0, |l| l.1);
        batch.dirty = dirty.len();
        batch.memo_fill = status.cached_embeddings as f64 / status.num_communities.max(1) as f64;
        batch.division_digest = division_digest(&division);
        if let Some(before) = before {
            let d = obs_delta(&before, &obs_now());
            batch.store = (
                d.counter("store.bytes_written"),
                d.counter("store.bytes_read"),
                hist_sum_s(&d, "store.crc_nanos"),
            );
        }
        let want_epoch = b as u64 + 2;
        gates.check(
            reload
                .outcome
                .as_ref()
                .is_ok_and(|&(id, _)| id == want_epoch),
            || {
                format!(
                    "reload after batch {b}: {:?}, want epoch {want_epoch}",
                    reload.outcome
                )
            },
        );
        gates.check(
            batch.division_digest == setup.epochs[b + 1].division_digest,
            || format!("spliced division after batch {b} differs from set-up's reference"),
        );
        gates.check(
            applied.graph.num_edges() == evolved.graph.num_edges(),
            || format!("graph delta and world delta disagree after batch {b}"),
        );
        // The files of the previous epoch are no longer served.
        if b > 0 {
            std::fs::remove_file(setup.dir.file(&format!("world-{b}.lsnap"))).ok();
            std::fs::remove_file(setup.dir.file(&format!("division-{b}.lsnap"))).ok();
        }
        world = evolved;
        batches.push(batch);
    }
    Ok(WriterOut {
        batches,
        gates,
        spans: tracer.into_spans(),
    })
}

fn join<T>(h: JoinHandle<Result<T, String>>, what: &str) -> Result<T, String> {
    h.join().map_err(|_| format!("{what} thread panicked"))?
}

#[allow(clippy::too_many_lines)]
pub fn run(args: &Args) -> Result<Report, String> {
    let mut world_times = Vec::new();
    let mut rep = 0;
    let (setup, setup_times) = repeated_setup(SETUP_REPS, || {
        rep += 1;
        let s = setup(args.seed, args.seconds, rep)?;
        world_times.push(s.world_s);
        Ok(s)
    })?;
    let setup = Arc::new(setup);
    let setup_peak_rss_mb = peak_rss_mb();
    let mut gates = Gates::default();

    let daemon: JoinHandle<Result<ServeSummary, ServeError>> = {
        let server = Arc::clone(&setup.server);
        std::thread::spawn(move || server.run())
    };
    let window = Duration::from_secs_f64(args.seconds);
    let origin = Instant::now();
    let before = obs_now();
    // Both threads connect before the window opens.
    let start = Instant::now() + Duration::from_millis(50);
    let r = {
        let s = Arc::clone(&setup);
        let trace = args.trace;
        std::thread::spawn(move || reader(s, start, window, trace, origin))
    };
    let w = {
        let s = Arc::clone(&setup);
        let trace = args.trace;
        std::thread::spawn(move || writer(s, start, window, trace, origin))
    };
    let reader_out = join(r, "reader");
    let writer_out = join(w, "writer");
    let window_obs = obs_delta(&before, &obs_now());
    let (mut reader_out, writer_out) = match (reader_out, writer_out) {
        (Ok(r), Ok(w)) => (r, w),
        (r, w) => {
            setup.server.stop();
            let _ = daemon.join();
            return Err(r.err().or(w.err()).unwrap_or_default());
        }
    };

    // edge_f1 from the daemon's own answers at the final epoch.
    let final_epoch = setup.epochs.len() as u64;
    let mut y_true = Vec::with_capacity(setup.final_test.len());
    let mut y_pred = Vec::with_capacity(setup.final_test.len());
    for (pair, label, want) in &setup.final_test {
        match classify_final(&mut reader_out.client, *pair, want, final_epoch, &mut gates) {
            Ok(Some(got)) => {
                y_true.push(*label);
                y_pred.push(got as usize);
            }
            Ok(None) => {}
            Err(e) => gates.fail(format!("held-out classify-edge{pair:?}: {e}")),
        }
    }
    drop(reader_out.client);
    setup.server.stop();
    match daemon.join() {
        Ok(Ok(_)) => gates.ok(),
        Ok(Err(e)) => gates.fail(format!("daemon ended with error: {e}")),
        Err(_) => gates.fail("daemon thread panicked".into()),
    }
    let edge_f1 = locec_ml::metrics::evaluate(&y_true, &y_pred, 3).overall.f1;

    // The first batch's spliced division equals a full divide of the
    // evolved graph, rebuilt from the base snapshot once the window is over.
    let base = StoredWorld::load(&setup.base_world).map_err(snap)?;
    let first = apply_world_delta(&base, &setup.deltas[0]).map_err(snap)?;
    drop(base);
    let full = phase1::divide(&first.graph, &cli_config(CommunityModelKind::Xgb));
    gates.check(
        writer_out.batches.first().map(|b| b.division_digest) == Some(division_digest(&full)),
        || "first batch's spliced division differs from a full divide".into(),
    );
    drop((first, full));

    // --- end-to-end ---
    let timings = &reader_out.timings;
    let latency_ns = latencies(timings);
    let mut latency_us: Vec<f64> = latency_ns.iter().map(|&l| l as f64 / 1e3).collect();
    let p50 = percentile(&mut latency_us, 0.5);
    let p99 = percentile(&mut latency_us, 0.99);
    let mut late_us: Vec<f64> = lateness(timings).iter().map(|&l| l as f64 / 1e3).collect();
    let mut service_us: Vec<f64> = timings
        .iter()
        .map(|t| (t.replied - t.sent) as f64 / 1e3)
        .collect();
    let freshness: Vec<f64> = writer_out
        .batches
        .iter()
        .enumerate()
        .filter_map(|(b, batch)| {
            // The first reply from any epoch that contains batch b.
            let seen = reader_out.first_seen[b + 1..].iter().flatten().min()?;
            Some(seen.saturating_sub(batch.handed_ns) as f64 / 1e9)
        })
        .collect();
    gates.check(freshness.len() == writer_out.batches.len(), || {
        format!(
            "only {} of {} batches were observed in a reply",
            freshness.len(),
            writer_out.batches.len()
        )
    });
    // Classify-edge replies that met the latency limit, per second.
    let edge_replies = setup
        .schedule
        .iter()
        .zip(&latency_ns)
        .filter(|(v, _)| matches!(v, Verb::Edge { .. }));
    let (edge_count, edge_within) = edge_replies.fold((0u64, 0u64), |(n, w), (_, &l)| {
        (n + 1, w + u64::from(l <= LATENCY_LIMIT_NS))
    });
    let mut e2e = Values::default();
    e2e.set("setup_s", median(&setup_times).unwrap_or(0.0));
    e2e.set("edges_per_s", edge_within as f64 / args.seconds);
    e2e.set("edge_f1", edge_f1);
    e2e.set("freshness_s", median(&freshness).unwrap_or(0.0));

    // --- per-layer ---
    let mut layers = Values::default();
    if args.trace {
        let per_batch = |name: &str| -> f64 {
            let v: Vec<f64> = writer_out
                .batches
                .iter()
                .filter_map(|b| b.layers.iter().find(|l| l.0 == name).map(|l| l.1))
                .collect();
            median(&v).unwrap_or(0.0)
        };
        for (metric, span) in [
            ("store.apply_world_delta_s", "store.apply_world_delta"),
            ("graph.apply_delta_s", "graph.apply_delta"),
            ("graph.dirty_egos_s", "graph.dirty_egos"),
            ("phase1.update_s", "phase1.update"),
            ("phase1.splice_s", "phase1.splice"),
            ("store.world_save_s", "store.world_save"),
            ("store.division_save_s", "store.division_save"),
            ("serve.reload_rtt_s", "serve.reload"),
        ] {
            layers.set(metric, per_batch(span));
        }
        let col = |f: fn(&Batch) -> f64| {
            median(&writer_out.batches.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        layers.set("phase1.dirty_egos", col(|b| b.dirty as f64));
        layers.set("serve.memo_fill", col(|b| b.memo_fill));
        layers.set("store.bytes_written", col(|b| b.store.0 as f64));
        layers.set("store.bytes_read", col(|b| b.store.1 as f64));
        layers.set("store.crc_s", col(|b| b.store.2));
        let reloads = hist_count(&window_obs, "serve.reload_nanos");
        layers.set(
            "serve.reload_server_s",
            hist_sum_s(&window_obs, "serve.reload_nanos") / reloads.max(1) as f64,
        );
        layers.set(
            "serve.edge_compute_p50_us",
            hist_pct_us(&window_obs, "serve.edge_nanos", 0.5),
        );
        layers.set(
            "serve.edge_compute_p99_us",
            hist_pct_us(&window_obs, "serve.edge_nanos", 0.99),
        );
        layers.set(
            "serve.community_compute_p50_us",
            hist_pct_us(&window_obs, "serve.community_nanos", 0.5),
        );
        layers.set(
            "serve.top_k_compute_p50_us",
            hist_pct_us(&window_obs, "serve.top_k_nanos", 0.5),
        );
        let compute_s: f64 = [
            "serve.edge_nanos",
            "serve.community_nanos",
            "serve.top_k_nanos",
        ]
        .iter()
        .map(|h| hist_sum_s(&window_obs, h))
        .sum();
        let client_s: f64 = timings
            .iter()
            .map(|t| (t.replied - t.sent) as f64 / 1e9)
            .sum();
        if client_s > 0.0 {
            layers.set("serve.wire_share", 1.0 - compute_s / client_s);
        }
        layers.set(
            "serve.memo_first_touch_share",
            reader_out.first_touches as f64 / reader_out.touches.max(1) as f64,
        );
        layers.set(
            "serve.send_late_p99_us",
            percentile(&mut late_us.clone(), 0.99).map_or(0.0, |p| p.value),
        );
        layers.set(
            "serve.connection_errors",
            (window_obs.counter("serve.connection_errors") + reader_out.client_errors) as f64,
        );
        layers.set("p50_us", p50.map_or(0.0, |p| p.value));
        layers.set("p99_us", p99.map_or(0.0, |p| p.value));
        layers.set("synth.world_s", median(&world_times).unwrap_or(0.0));
        layers.set(
            "bench.unattributed_share",
            trace::unattributed_share(&writer_out.spans, "update.batch"),
        );
        let split = |traced: bool| -> Option<f64> {
            let mut v: Vec<f64> = latency_ns
                .iter()
                .zip(&reader_out.traced)
                .filter(|(_, &t)| t == traced)
                .map(|(&l, _)| l as f64)
                .collect();
            percentile(&mut v, 0.5).map(|p| p.value)
        };
        if let (Some(on), Some(off)) = (split(true), split(false)) {
            layers.set("bench.trace_overhead", on / off - 1.0);
        }
    }

    gates.absorb(std::mem::take(&mut reader_out.gates));
    gates.absorb(writer_out.gates);
    let provenance = vec![
        ("model".to_owned(), Value::Str("xgb".into())),
        ("users".to_owned(), Value::Uint(USERS as u64)),
        ("nodes".to_owned(), Value::Uint(setup.num_nodes as u64)),
        ("edges".to_owned(), Value::Uint(setup.num_edges as u64)),
        (
            "communities".to_owned(),
            Value::Uint(setup.epochs[0].communities as u64),
        ),
        ("offered_rate_per_s".to_owned(), Value::Float(RATE)),
        (
            "mix_edge_community_topk".to_owned(),
            Value::Str(format!("{}:{}:{}", MIX[0], MIX[1], MIX[2])),
        ),
        ("update_batches".to_owned(), Value::Uint(BATCHES as u64)),
        (
            "update_cadence_s".to_owned(),
            Value::Float(args.seconds / (BATCHES + 1) as f64),
        ),
        ("churn_per_batch".to_owned(), Value::Float(CHURN)),
        ("requests".to_owned(), Value::Uint(timings.len() as u64)),
        (
            "latency_limit_us".to_owned(),
            Value::Float(LATENCY_LIMIT_NS as f64 / 1e3),
        ),
        (
            "edge_replies_within_limit".to_owned(),
            Value::Str(format!("{edge_within} of {edge_count}")),
        ),
        (
            "reference_mb".to_owned(),
            Value::Float(setup.reference_bytes() as f64 / (1 << 20) as f64),
        ),
        (
            "setup_peak_rss_mb".to_owned(),
            Value::Float(setup_peak_rss_mb),
        ),
        (
            "freshness_samples".to_owned(),
            Value::Uint(freshness.len() as u64),
        ),
        (
            "held_out_edges".to_owned(),
            Value::Uint(y_true.len() as u64),
        ),
        (
            "setup_reps".to_owned(),
            Value::Uint(setup_times.len() as u64),
        ),
        percentile_field("p50_us", p50),
        percentile_field("p99_us", p99),
        percentile_field("late_p50_us", percentile(&mut late_us, 0.5)),
        percentile_field("late_p99_us", percentile(&mut late_us, 0.99)),
        percentile_field("service_p50_us", percentile(&mut service_us, 0.5)),
        percentile_field("service_p99_us", percentile(&mut service_us, 0.99)),
    ];
    Ok(Report {
        gates,
        e2e,
        layers,
        provenance,
        traces: vec![
            trace::to_json("reader", &reader_out.spans),
            trace::to_json("writer", &writer_out.spans),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classified(label: u8) -> Expected {
        Expected::Classified {
            label,
            proba: [u32::from(label); CLASSES],
            touches: [(0, 0); 2],
        }
    }

    #[test]
    fn an_answer_holds_until_the_pair_changes() {
        // Changes arrive in epoch order, pairs interleaved.
        let changes = vec![
            (1, 1, classified(0)),
            (0, 1, classified(2)),
            (1, 3, Expected::NoSuchEdge),
            (1, 4, classified(1)),
        ];
        let a = Answers::new(changes, 2, 5);
        assert_eq!(a.get(0, 1), Some(&classified(2)));
        assert_eq!(a.get(0, 5), Some(&classified(2)));
        assert_eq!(a.get(1, 2), Some(&classified(0)));
        assert_eq!(a.get(1, 3), Some(&Expected::NoSuchEdge));
        assert_eq!(a.get(1, 5), Some(&classified(1)));
        // Epochs outside 1..=5 and unknown pairs have no answer.
        assert_eq!(a.get(1, 0), None);
        assert_eq!(a.get(1, 6), None);
        assert_eq!(a.get(2, 1), None);
    }

    #[test]
    fn churned_pairs_follow_their_epoch_bits() {
        let f = Friends {
            row: HashMap::from([(7, 0)]),
            degree: vec![2, 3],
            base: vec![vec![1, 4]],
            churned: HashMap::from([((7, 9), 0b10), ((1, 7), 0b01)]),
            epochs: 2,
        };
        assert_eq!(f.degree(7, 2), Some(3));
        assert_eq!(f.degree(7, 3), None);
        assert_eq!(f.degree(8, 1), None);
        // 4 never churned; 1 was removed and 9 inserted by batch 1.
        assert!(f.has_edge(7, 4, 1) && f.has_edge(7, 4, 2));
        assert!(f.has_edge(7, 1, 1) && !f.has_edge(7, 1, 2));
        assert!(!f.has_edge(7, 9, 1) && f.has_edge(9, 7, 2));
        assert!(!f.has_edge(7, 4, 0));
    }
}
