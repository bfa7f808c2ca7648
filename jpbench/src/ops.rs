//! Statement streams: every workload's operations, generated from the
//! workload seed while the run goes, so a run never holds more than one
//! session's statements in memory (pre-generating a run's worth of
//! `browse` statements would itself move `peak_rss_mb`).

use jackpine_core::macrobench::{
    flood_risk, geocoding, land_management, map_browsing, reverse_geocoding, toxic_spill,
    ScenarioConfig,
};
use jackpine_core::micro::{analysis_suite, topo_suite};
use jackpine_datagen::rng::Rng;
use jackpine_datagen::TigerDataset;
use jackpine_geom::{algorithms, wkt, Geometry};
use std::collections::VecDeque;

/// What an operation does to the data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effect {
    Read,
    Insert,
    Update,
    Delete,
}

/// What the client keeps of a result for the output check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Keep {
    Nothing,
    /// A digest, compared exactly against a re-run (`spill`).
    Digest,
    /// The whole result set, compared with a float tolerance (`analyze`).
    Result,
}

/// One statement a client sends.
pub struct Op {
    pub sql: String,
    pub effect: Effect,
    /// Last statement of a session (or of an `analyze` pass).
    pub ends_session: bool,
    pub keep: Keep,
}

/// An endless, deterministic stream of operations.
pub trait Source: Send {
    fn next_op(&mut self) -> Op;
}

/// SplitMix64 finalizer over the combined inputs: independent seeds for
/// each (workload seed, stream, session) triple.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The full scans `spill` adds after each browse session: A01, A03, A04
/// and M5's land-use GROUP BY.
pub const SCANS: [&str; 4] = [
    "SELECT COUNT(*) FROM arealm WHERE ST_Dimension(geom) = 2",
    "SELECT SUM(ST_Length(geom)) FROM roads",
    "SELECT SUM(ST_Area(geom)) FROM arealm",
    "SELECT category, COUNT(*), SUM(ST_Area(geom)) FROM arealm GROUP BY category ORDER BY 1",
];

/// Fetches every row of every table once: warms the decoded-row caches
/// before a measured window.
pub const WARM_SCANS: [&str; 5] = [
    "SELECT SUM(id) FROM county",
    "SELECT SUM(id) FROM roads",
    "SELECT SUM(id) FROM arealm",
    "SELECT SUM(id) FROM pointlm",
    "SELECT SUM(id) FROM areawater",
];

/// Closes a queue of session statements into ops.
fn pop_session(pending: &mut VecDeque<String>, keep: Keep) -> Op {
    let sql = pending.pop_front().expect("session refilled before popping");
    Op { sql, effect: Effect::Read, ends_session: pending.is_empty(), keep }
}

/// `browse` (and `spill`): fresh M1, M2, M3 and M6 sessions in turn,
/// never repeating a statement text. On `spill` a full scan follows each
/// session, and results are kept as digests for the check.
pub struct BrowseSource<'a> {
    data: &'a TigerDataset,
    seed: u64,
    stream: u64,
    session: u64,
    spill: bool,
    pending: VecDeque<String>,
}

impl<'a> BrowseSource<'a> {
    pub fn new(data: &'a TigerDataset, seed: u64, stream: u64, spill: bool) -> Self {
        BrowseSource { data, seed, stream, session: 0, spill, pending: VecDeque::new() }
    }
}

impl Source for BrowseSource<'_> {
    fn next_op(&mut self) -> Op {
        if self.pending.is_empty() {
            let cfg =
                ScenarioConfig { seed: mix(self.seed, self.stream, self.session), sessions: 1 };
            let scenario = match self.session % 4 {
                0 => map_browsing(self.data, &cfg),
                1 => geocoding(self.data, &cfg),
                2 => reverse_geocoding(self.data, &cfg),
                _ => toxic_spill(self.data, &cfg),
            };
            self.pending.extend(scenario.steps.into_iter().map(|(_, sql)| sql));
            if self.spill {
                self.pending.push_back(SCANS[(self.session / 4 % 4) as usize].to_string());
            }
            self.session += 1;
        }
        pop_session(&mut self.pending, if self.spill { Keep::Digest } else { Keep::Nothing })
    }
}

/// Micro queries in the `analyze` list: joins and overlays whose refine
/// and overlay stages dominate.
const ANALYZE_MICROS: [&str; 8] = ["T02", "T05", "T08", "T09", "T10", "T19", "A10", "A11"];
/// Joins of a large table with `areawater`: the naive reference keeps
/// the spatial index for these, because a nested loop takes 7 s (T02,
/// T08) to minutes (T10) at scale 4.
pub const INDEXED_REFERENCE: [&str; 5] = ["T02", "T08", "T10", "A10", "A11"];
/// M4 flood-risk sessions appended to the list; several, so that the
/// choice of river by the seed averages out in the pass time.
const FLOOD_SESSIONS: usize = 4;

/// The fixed `analyze` list: `(id, sql)` pairs.
pub fn analyze_list(data: &TigerDataset, seed: u64) -> Vec<(String, String)> {
    let mut list: Vec<(String, String)> = topo_suite(data)
        .into_iter()
        .chain(analysis_suite(data))
        .filter(|q| ANALYZE_MICROS.contains(&q.id))
        .map(|q| (q.id.to_string(), q.sql))
        .collect();
    let cfg = ScenarioConfig { seed: mix(seed, 4, 0), sessions: FLOOD_SESSIONS };
    list.extend(
        flood_risk(data, &cfg).steps.into_iter().map(|(label, sql)| (format!("M4 {label}"), sql)),
    );
    list
}

/// `analyze`: the fixed list, pass after pass.
pub struct AnalyzeSource {
    list: Vec<String>,
    pos: usize,
}

impl AnalyzeSource {
    pub fn new(list: &[(String, String)]) -> Self {
        AnalyzeSource { list: list.iter().map(|(_, sql)| sql.clone()).collect(), pos: 0 }
    }
}

impl Source for AnalyzeSource {
    fn next_op(&mut self) -> Op {
        let sql = self.list[self.pos].clone();
        self.pos = (self.pos + 1) % self.list.len();
        Op { sql, effect: Effect::Read, ends_session: self.pos == 0, keep: Keep::Result }
    }
}

/// Writes in one editing session: the unit `pass_p50_s` times on `edit`.
pub const EDIT_SESSION_WRITES: u64 = 10;

/// The `edit` writer: a land-records editor issuing single-row INSERT,
/// UPDATE-by-id and DELETE-by-id on `arealm`, one third each, in
/// sessions of [`EDIT_SESSION_WRITES`].
pub struct EditWriter<'a> {
    data: &'a TigerDataset,
    rng: Rng,
    live: Vec<i64>,
    next_id: i64,
    writes: u64,
}

impl<'a> EditWriter<'a> {
    pub fn new(data: &'a TigerDataset, seed: u64) -> Self {
        let live: Vec<i64> = data.arealm.iter().map(|a| a.id).collect();
        let next_id = live.iter().copied().max().unwrap_or(0) + 1;
        EditWriter { data, rng: Rng::seed_from_u64(mix(seed, 7, 0)), live, next_id, writes: 0 }
    }
}

impl Source for EditWriter<'_> {
    fn next_op(&mut self) -> Op {
        let choice = if self.live.is_empty() { 0 } else { self.rng.gen_range(0..3usize) };
        let (sql, effect) = match choice {
            0 => {
                let template = &self.data.arealm[self.rng.gen_range(0..self.data.arealm.len())];
                let dx = self.rng.gen_range(-0.01..0.01);
                let dy = self.rng.gen_range(-0.01..0.01);
                let geom = algorithms::translate(&Geometry::Polygon(template.geom.clone()), dx, dy)
                    .expect("translating a polygon is well-defined");
                let id = self.next_id;
                self.next_id += 1;
                self.live.push(id);
                (
                    format!(
                        "INSERT INTO arealm VALUES ({id}, 'PARCEL {id}', '{}', ST_GeomFromText('{}'))",
                        template.category.replace('\'', "''"),
                        wkt::write(&geom)
                    ),
                    Effect::Insert,
                )
            }
            1 => {
                let id = self.live[self.rng.gen_range(0..self.live.len())];
                let dx = self.rng.gen_range(-0.001..0.001);
                let dy = self.rng.gen_range(-0.001..0.001);
                (
                    format!(
                        "UPDATE arealm SET name = 'PARCEL {id} EDITED', \
                         geom = ST_Translate(geom, {dx}, {dy}) WHERE id = {id}"
                    ),
                    Effect::Update,
                )
            }
            _ => {
                let id = self.live.swap_remove(self.rng.gen_range(0..self.live.len()));
                (format!("DELETE FROM arealm WHERE id = {id}"), Effect::Delete)
            }
        };
        self.writes += 1;
        let ends_session = self.writes.is_multiple_of(EDIT_SESSION_WRITES);
        Op { sql, effect, ends_session, keep: Keep::Nothing }
    }
}

/// The `edit` reader: M1's `arealm` windows and M5 land-management
/// sessions in turn, on the table the writer changes.
pub struct EditReader<'a> {
    data: &'a TigerDataset,
    seed: u64,
    session: u64,
    pending: VecDeque<String>,
}

impl<'a> EditReader<'a> {
    pub fn new(data: &'a TigerDataset, seed: u64) -> Self {
        EditReader { data, seed, session: 0, pending: VecDeque::new() }
    }
}

impl Source for EditReader<'_> {
    fn next_op(&mut self) -> Op {
        if self.pending.is_empty() {
            let cfg = ScenarioConfig { seed: mix(self.seed, 8, self.session), sessions: 1 };
            let steps = if self.session.is_multiple_of(2) {
                map_browsing(self.data, &cfg).steps
            } else {
                land_management(self.data, &cfg).steps
            };
            self.pending.extend(
                steps.into_iter().map(|(_, sql)| sql).filter(|sql| sql.contains("FROM arealm")),
            );
            self.session += 1;
        }
        pop_session(&mut self.pending, Keep::Nothing)
    }
}

/// `edit` on one client (the traced run): one write, then two reads.
pub struct EditInterleaved<'a> {
    writer: EditWriter<'a>,
    reader: EditReader<'a>,
    step: u64,
}

impl<'a> EditInterleaved<'a> {
    pub fn new(data: &'a TigerDataset, seed: u64) -> Self {
        EditInterleaved {
            writer: EditWriter::new(data, seed),
            reader: EditReader::new(data, seed),
            step: 0,
        }
    }
}

impl Source for EditInterleaved<'_> {
    fn next_op(&mut self) -> Op {
        self.step += 1;
        if self.step % 3 == 1 {
            self.writer.next_op()
        } else {
            self.reader.next_op()
        }
    }
}
