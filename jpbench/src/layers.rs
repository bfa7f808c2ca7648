//! Direct calls into single layers, made in the traced run on inputs
//! drawn from the workloads: each isolates one layer's cost from the
//! engine around it.

use crate::client::Tracer;
use crate::ops::mix;
use jackpine_core::macrobench::{flood_risk, map_browsing, ScenarioConfig};
use jackpine_datagen::TigerDataset;
use jackpine_engine::wal::{Wal, WalRecord};
use jackpine_engine::SpatialDb;
use jackpine_geom::algorithms::{buffer::buffer_with_segments, intersection, union};
use jackpine_geom::{wkb, Envelope, Geometry};
use jackpine_index::{RTree, RTreeConfig};
use jackpine_storage::Value;
use jackpine_topo::{relate_prepared, PreparedGeometry};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Each direct measurement repeats whole rounds over its inputs until
/// this much time is spent, so one slow round cannot dominate.
const BUDGET: Duration = Duration::from_millis(250);
/// Candidate pairs kept per join for the relate measurements.
const PAIR_CAP: usize = 20_000;
/// Overlapping polygon pairs fed to intersection and union.
const OVERLAY_PAIRS: usize = 64;
/// M4 sessions whose rivers are buffered.
const FLOOD_SESSIONS: usize = 16;
/// Records per WAL round, each appended then synced.
const WAL_ROUND: u64 = 32;

/// Repeats `round` (returning the calls it made) as one span each until
/// the budget is spent; returns nanoseconds per call.
fn per_call_ns(tracer: &mut Tracer, name: &'static str, mut round: impl FnMut() -> u64) -> f64 {
    let (mut calls, mut spent) = (0u64, Duration::ZERO);
    while spent < BUDGET {
        let (n, d) = tracer.time(name, &mut round);
        calls += n;
        spent += d;
    }
    spent.as_nanos() as f64 / calls.max(1) as f64
}

/// `index.window_probe_ns`: `RTree::query_window_probe` on STR-loaded
/// trees of the four M1 layers, probed with M1's windows from the seed.
pub fn window_probe_ns(tracer: &mut Tracer, data: &TigerDataset, seed: u64) -> f64 {
    let str_tree = |envs: Vec<Envelope>| {
        RTree::bulk_load(RTreeConfig::default(), envs.into_iter().zip(0u64..).collect())
    };
    let trees = [
        ("roads", str_tree(data.roads.iter().map(|r| r.geom.envelope()).collect())),
        ("arealm", str_tree(data.arealm.iter().map(|a| a.geom.envelope()).collect())),
        ("areawater", str_tree(data.areawater.iter().map(|w| w.geom.envelope()).collect())),
        ("pointlm", str_tree(data.pointlm.iter().map(|p| p.geom.envelope()).collect())),
    ];
    let cfg = ScenarioConfig { seed: mix(seed, 9, 0), sessions: 64 };
    let probes: Vec<(usize, Envelope)> = map_browsing(data, &cfg)
        .steps
        .iter()
        .map(|(_, sql)| {
            let layer = trees
                .iter()
                .position(|(name, _)| sql.contains(&format!("FROM {name} ")))
                .expect("M1 statements name one of the four layers");
            (layer, make_envelope_args(sql))
        })
        .collect();
    per_call_ns(tracer, "index.RTree::query_window_probe", || {
        for (layer, window) in &probes {
            black_box(trees[*layer].1.query_window_probe(window, |_, v| {
                black_box(v);
            }));
        }
        probes.len() as u64
    })
}

/// The four numbers of the `ST_MakeEnvelope(...)` call in an M1 statement.
fn make_envelope_args(sql: &str) -> Envelope {
    let args = sql
        .split("ST_MakeEnvelope(")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .expect("M1 statements carry an ST_MakeEnvelope window");
    let v: Vec<f64> =
        args.split(',').map(|s| s.trim().parse().expect("window bounds are numbers")).collect();
    Envelope::new(v[0], v[1], v[2], v[3])
}

/// Pairs `(i, j)` whose envelopes intersect, `i` indexing `a` and `j`
/// indexing `b`, in `b` order, at most [`PAIR_CAP`].
fn candidate_pairs(a: &[Envelope], b: &[Envelope]) -> Vec<(usize, usize)> {
    let tree: RTree<u64> =
        RTree::bulk_load(RTreeConfig::default(), a.iter().copied().zip(0u64..).collect());
    let mut pairs = Vec::new();
    for (j, env) in b.iter().enumerate() {
        tree.query_window(env, |_, &i| pairs.push((i as usize, j)));
        if pairs.len() >= PAIR_CAP {
            pairs.truncate(PAIR_CAP);
            break;
        }
    }
    pairs
}

/// Per-pair `relate_prepared` cost on the candidate pairs of a join.
fn relate_pairs_ns(tracer: &mut Tracer, name: &'static str, a: &[Geometry], b: &[Geometry]) -> f64 {
    let envs = |gs: &[Geometry]| gs.iter().map(Geometry::envelope).collect::<Vec<_>>();
    let pairs = candidate_pairs(&envs(a), &envs(b));
    let prep = |gs: &[Geometry]| gs.iter().map(PreparedGeometry::new).collect::<Vec<_>>();
    let (pa, pb) = (prep(a), prep(b));
    per_call_ns(tracer, name, || {
        for &(i, j) in &pairs {
            black_box(relate_prepared(&pa[i], &pb[j]).is_ok());
        }
        pairs.len() as u64
    })
}

/// `topo.relate_prepared_ns.line_poly` (T10: roads × areawater) and
/// `.poly_poly` (T08: arealm × areawater).
pub fn relate_prepared_ns(tracer: &mut Tracer, data: &TigerDataset) -> (f64, f64) {
    let roads: Vec<Geometry> =
        data.roads.iter().map(|r| Geometry::LineString(r.geom.clone())).collect();
    let arealm: Vec<Geometry> =
        data.arealm.iter().map(|a| Geometry::Polygon(a.geom.clone())).collect();
    let water: Vec<Geometry> =
        data.areawater.iter().map(|w| Geometry::Polygon(w.geom.clone())).collect();
    let line_poly = relate_pairs_ns(tracer, "topo.relate_prepared line-poly", &roads, &water);
    let poly_poly = relate_pairs_ns(tracer, "topo.relate_prepared poly-poly", &arealm, &water);
    (line_poly, poly_poly)
}

/// `geom.overlay_us`: intersection and union of overlapping
/// landmark/water pairs (A10, A11) and the in-database river buffer of
/// M4, per call.
pub fn overlay_us(tracer: &mut Tracer, data: &TigerDataset, seed: u64) -> f64 {
    let arealm: Vec<Geometry> =
        data.arealm.iter().map(|a| Geometry::Polygon(a.geom.clone())).collect();
    let water: Vec<Geometry> =
        data.areawater.iter().map(|w| Geometry::Polygon(w.geom.clone())).collect();
    let envs = |gs: &[Geometry]| gs.iter().map(Geometry::envelope).collect::<Vec<_>>();
    let pairs: Vec<(usize, usize)> = candidate_pairs(&envs(&arealm), &envs(&water))
        .into_iter()
        .filter(|&(i, j)| jackpine_topo::overlaps(&arealm[i], &water[j]).unwrap_or(false))
        .take(OVERLAY_PAIRS)
        .collect();
    // The rivers M4 buffers are the ones its sessions pick from the seed;
    // its buffer step reads them back from the statement's WKT.
    let cfg = ScenarioConfig { seed: mix(seed, 4, 1), sessions: FLOOD_SESSIONS };
    let rivers: Vec<Geometry> = flood_risk(data, &cfg)
        .steps
        .iter()
        .filter(|(label, _)| label.starts_with("buffer river"))
        .map(|(_, sql)| {
            let wkt = sql.split('\'').nth(1).expect("the buffer step quotes the river WKT");
            jackpine_geom::wkt::parse(wkt).expect("the river WKT parses")
        })
        .collect();
    let ns = per_call_ns(tracer, "geom.algorithms::intersection+union+buffer", || {
        for &(i, j) in &pairs {
            black_box(intersection(&arealm[i], &water[j]).is_ok());
            black_box(union(&arealm[i], &water[j]).is_ok());
        }
        for r in &rivers {
            black_box(buffer_with_segments(r, 0.02, 4).is_ok());
        }
        (2 * pairs.len() + rivers.len()) as u64
    });
    ns / 1e3
}

/// `geom.wkb_decode_ns`: `wkb::decode` over the stored forms of the
/// landmark, water and road geometries.
pub fn wkb_decode_ns(tracer: &mut Tracer, data: &TigerDataset) -> f64 {
    let blobs: Vec<Vec<u8>> = data
        .arealm
        .iter()
        .map(|a| wkb::encode(&Geometry::Polygon(a.geom.clone())))
        .chain(data.areawater.iter().map(|w| wkb::encode(&Geometry::Polygon(w.geom.clone()))))
        .chain(
            data.roads
                .iter()
                .take(20_000)
                .map(|r| wkb::encode(&Geometry::LineString(r.geom.clone()))),
        )
        .collect();
    per_call_ns(tracer, "geom.wkb::decode", || {
        for b in &blobs {
            black_box(wkb::decode(black_box(b)).is_ok());
        }
        blobs.len() as u64
    })
}

/// `storage.heap_get_hit_ns` and `storage.heap_get_miss_ns`:
/// `HeapFile::get` over every `arealm` row with the row cache warm, then
/// with it cleared before each round. Leaves the row cache cold.
pub fn heap_get_ns(tracer: &mut Tracer, db: &Arc<SpatialDb>) -> (f64, f64) {
    let table = db.table("arealm").expect("arealm exists");
    let heap = &table.heap;
    let ids = heap.row_ids();
    for id in &ids {
        black_box(heap.get(*id).is_ok());
    }
    let hit = per_call_ns(tracer, "storage.HeapFile::get (cached)", || {
        for id in &ids {
            black_box(heap.get(*id).is_ok());
        }
        ids.len() as u64
    });
    let (mut calls, mut spent) = (0u64, Duration::ZERO);
    while spent < BUDGET {
        heap.clear_cache();
        let (n, d) = tracer.time("storage.HeapFile::get (after clear_cache)", || {
            for id in &ids {
                black_box(heap.get(*id).is_ok());
            }
            ids.len() as u64
        });
        calls += n;
        spent += d;
    }
    (hit, spent.as_nanos() as f64 / calls.max(1) as f64)
}

/// `engine.wal_append_sync_us`: `Wal::append` of one edit-sized insert
/// record followed by `Wal::sync`, on a scratch log in `dir`.
pub fn wal_append_sync_us(tracer: &mut Tracer, data: &TigerDataset, dir: &Path) -> f64 {
    let path = dir.join("direct.jkwl");
    let wal = Wal::create(&path, false, 1).expect("scratch WAL is creatable");
    let records: Vec<WalRecord> = data
        .arealm
        .iter()
        .take(WAL_ROUND as usize)
        .map(|a| WalRecord::Insert {
            table: "arealm".into(),
            row: vec![
                Value::Int(a.id),
                Value::Text(format!("PARCEL {}", a.id)),
                Value::Text(a.category.clone()),
                Value::Geom(Geometry::Polygon(a.geom.clone())),
            ],
        })
        .collect();
    let ns = per_call_ns(tracer, "engine.Wal::append + Wal::sync", || {
        for r in &records {
            wal.append(r).expect("scratch WAL append");
            wal.sync().expect("scratch WAL sync");
        }
        records.len() as u64
    });
    drop(wal);
    let _ = std::fs::remove_file(&path);
    ns / 1e3
}
