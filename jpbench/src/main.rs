//! The repository benchmark: four seeded Jackpine workloads (`browse`,
//! `analyze`, `edit`, `spill`) over the exact-rtree engine at dataset
//! scale 4, driven only through the engine crates' public functions.
//!
//! ```text
//! jackpine-perfbench --workload <browse|analyze|edit|spill> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics, with
//! timings scaled to a reference host speed (see `host.rs`); a
//! traced run (`--trace 1`) reports the per-layer metrics and writes its
//! spans to `.jpbench_out/spans-<workload>-seed<n>.csv`. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` beside this crate for the workloads and the metric map.

mod client;
mod host;
mod layers;
mod ops;

use client::{Log, Tracer, Until};
use jackpine_datagen::TigerDataset;
use jackpine_engine::{DurabilityOptions, EngineProfile, SpatialDb, WAL_FILE};
use jackpine_sqlmini::ResultSet;
use jackpine_storage::page::PAGE_SIZE;
use jackpine_storage::{PoolStats, Value};
use ops::{
    AnalyzeSource, BrowseSource, EditInterleaved, EditReader, EditWriter, Source,
    INDEXED_REFERENCE, SCANS, WARM_SCANS,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dataset scale: 105,592 rows in 1,973 heap pages of 8 KiB.
const SCALE: f64 = 4.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Calibration before and after the window (see `host.rs`).
const CALIBRATE: Duration = Duration::from_secs(1);
/// Time of one calibration round on the reference host, in ns: the
/// end-to-end timings are scaled to a host this fast.
const REF_ROUND_NS: f64 = 4e6;
/// Slices of the window the read metrics are medians over (outside
/// `analyze`, which slices by pass).
const SLICES: u64 = 10;
/// `spill`'s buffer-pool budget, about one eighth of the heap pages.
const SPILL_POOL_BYTES: usize = 2 << 20;
/// Workload run before the measured window, after the warming scans.
const WARM: Duration = Duration::from_secs(1);
/// Directory (under the working directory) for durable state and scratch
/// files; removed when the run ends.
const WORK_DIR: &str = ".jpbench_work";
/// Directory (under the working directory) the traced run writes its
/// spans to.
const OUT_DIR: &str = ".jpbench_out";

const USAGE: &str = "usage: jackpine-perfbench --workload <browse|analyze|edit|spill> \
                     --seed <n> --seconds <s> --trace <0|1>";

type Res<T> = Result<T, String>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Browse,
    Analyze,
    Edit,
    Spill,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::Analyze => "analyze",
            Workload::Edit => "edit",
            Workload::Spill => "spill",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    window: Duration,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Res<Args> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "browse" => Workload::Browse,
                    "analyze" => Workload::Analyze,
                    "edit" => Workload::Edit,
                    "spill" => Workload::Spill,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        window: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = match WorkDir::create(args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("jpbench: {e}");
            std::process::exit(1);
        }
    };
    let result = if args.trace { traced(&args, &work) } else { untraced(&args, &work) };
    drop(work);
    match result {
        Ok(report) => {
            for (name, value, unit) in &report.metrics {
                eprintln!("{:<40} {value:>14.4} {unit}", name);
            }
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("jpbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A per-run directory under [`WORK_DIR`], removed on drop.
struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    fn create(w: Workload) -> Res<WorkDir> {
        let path = Path::new(WORK_DIR).join(format!("{}-{}", w.name(), std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves the parent only when no other run is using it.
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn engine_err(context: &str) -> impl Fn(jackpine_engine::EngineError) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// What every phase of one run shares.
struct Run<'a> {
    w: Workload,
    seed: u64,
    data: &'a TigerDataset,
    /// The `analyze` list (built for every workload; it is small).
    list: Vec<(String, String)>,
    work: &'a WorkDir,
}

impl<'a> Run<'a> {
    /// Loads the dataset and builds its indexes (and, on `edit`, attaches
    /// durability under `dir`): the work `setup_s` times.
    fn setup(&self, dir: &Path) -> Res<(Arc<SpatialDb>, f64)> {
        let t0 = Instant::now();
        let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
        jackpine_core::load_dataset(&db, self.data)
            .map_err(|e| format!("loading the dataset: {e}"))?;
        if self.w == Workload::Edit {
            db.set_durability(Some(dir), DurabilityOptions { sync_each_append: true })
                .map_err(engine_err("attaching durability"))?;
        }
        Ok((db, t0.elapsed().as_secs_f64()))
    }

    /// The engine every phase measures: set up, configured and warm.
    /// One intra-query worker everywhere: with a second worker on a
    /// two-CPU host, `analyze` passes varied by a quarter from run to run.
    fn engine(&self) -> Res<(Arc<SpatialDb>, f64)> {
        let (db, secs) = self.setup(&self.db_dir())?;
        db.set_workers(1);
        if self.w == Workload::Spill {
            db.set_pool_bytes(SPILL_POOL_BYTES);
        }
        self.warm(&db)?;
        Ok((db, secs))
    }

    fn db_dir(&self) -> PathBuf {
        self.work.path.join("db")
    }

    /// Closed-loop clients of `browse` and `spill`. `spill` has one: two
    /// clients evicting from one small pool made its throughput vary by a
    /// quarter from run to run.
    fn browse_clients(&self) -> u64 {
        if self.w == Workload::Spill {
            1
        } else {
            2
        }
    }

    fn browse_source(&self, stream: u64) -> Box<dyn Source + 'a> {
        Box::new(BrowseSource::new(self.data, self.seed, stream, self.w == Workload::Spill))
    }

    /// Warms the engine: every row fetched once, then [`WARM`] of the
    /// workload's reads on streams the measured window never uses (one
    /// whole pass on `analyze`). No writes.
    fn warm(&self, db: &Arc<SpatialDb>) -> Res<()> {
        for sql in WARM_SCANS {
            db.execute(sql).map_err(engine_err(sql))?;
        }
        let (sources, until): (Vec<Box<dyn Source + '_>>, _) = match self.w {
            Workload::Analyze => (
                vec![Box::new(AnalyzeSource::new(&self.list))],
                Until::SessionAfter(Duration::ZERO),
            ),
            Workload::Edit => (
                vec![Box::new(EditReader::new(self.data, ops::mix(self.seed, 100, 0)))],
                Until::Deadline(WARM),
            ),
            _ => {
                let streams = 100..100 + self.browse_clients();
                (streams.map(|c| self.browse_source(c)).collect(), Until::Deadline(WARM))
            }
        };
        let failed: u64 = run_clients(db, sources, until).iter().map(|l| l.failed).sum();
        if failed > 0 {
            return Err(format!("{failed} statements failed while warming"));
        }
        Ok(())
    }

    /// Output checks. `replay` lists, for `spill`, each stream id with the
    /// digests its statements produced, in order. Returns the operations
    /// found wrong; a failed statement was already counted by its client.
    fn check(
        &self,
        db: Arc<SpatialDb>,
        logs: &[Log],
        replay: &[(u64, Vec<Option<u64>>)],
    ) -> Res<u64> {
        match self.w {
            Workload::Browse => Ok(0),
            Workload::Analyze => {
                let reference = analyze_reference(&db, &self.list)?;
                let mut wrong = 0;
                let results = logs.iter().flat_map(|l| l.results.iter());
                for (i, got) in results.enumerate() {
                    let (id, want) =
                        (&self.list[i % self.list.len()].0, &reference[i % self.list.len()]);
                    if got.as_ref().is_some_and(|got| !same_result(got, want)) {
                        wrong += 1;
                        eprintln!("analyze {id}: got {:?}, reference {:?}", got, want.rows);
                    }
                }
                Ok(wrong)
            }
            Workload::Spill => {
                // The reference is a fresh engine whose pool was never
                // bounded, so no page it reads was ever evicted. The full
                // scans read unchanging tables: one reference answer each.
                // Every other statement is replayed.
                drop(db);
                let (db, _) = self.setup(&self.work.path.join("reference"))?;
                db.set_workers(1);
                let mut scan_refs = HashMap::new();
                for sql in SCANS {
                    let rs = db.execute(sql).map_err(engine_err(sql))?;
                    scan_refs.insert(sql.to_string(), client::digest(&rs));
                }
                let (db, scan_refs) = (&db, &scan_refs);
                Ok(std::thread::scope(|s| {
                    let handles: Vec<_> = replay
                        .iter()
                        .map(|(stream, digests)| {
                            let mut src = BrowseSource::new(self.data, self.seed, *stream, true);
                            s.spawn(move || {
                                let mut wrong = 0u64;
                                for want in digests {
                                    let op = src.next_op();
                                    let got = match scan_refs.get(&op.sql) {
                                        Some(d) => Some(*d),
                                        None => {
                                            db.execute(&op.sql).ok().map(|rs| client::digest(&rs))
                                        }
                                    };
                                    if want.is_some() && got != *want {
                                        wrong += 1;
                                        eprintln!(
                                            "spill result differs from the unbounded engine: {}",
                                            op.sql
                                        );
                                    }
                                }
                                wrong
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("replay thread panicked")).sum()
                }))
            }
            Workload::Edit => {
                let inserted: u64 = logs.iter().map(|l| l.inserted).sum();
                let deleted: u64 = logs.iter().map(|l| l.deleted).sum();
                let expected = (self.data.arealm.len() as u64 + inserted - deleted) as i64;
                let count = |db: &Arc<SpatialDb>| -> Res<i64> {
                    let rs = db
                        .execute("SELECT COUNT(*) FROM arealm")
                        .map_err(engine_err("counting arealm"))?;
                    Ok(rs.scalar().and_then(Value::as_i64).unwrap_or(-1))
                };
                let live = count(&db)?;
                db.close().map_err(engine_err("closing"))?;
                drop(db);
                let reopened = SpatialDb::open_durable(
                    self.db_dir(),
                    EngineProfile::ExactRtree,
                    DurabilityOptions { sync_each_append: true },
                )
                .map_err(engine_err("reopening the durable directory"))?;
                let recovered = count(&reopened)?;
                if live != expected || recovered != expected {
                    eprintln!(
                        "edit: expected {expected} arealm rows, live {live}, after reopen {recovered}"
                    );
                }
                Ok(live.abs_diff(expected) + recovered.abs_diff(expected))
            }
        }
    }

    fn wal_bytes(&self) -> u64 {
        std::fs::metadata(self.db_dir().join(WAL_FILE)).map_or(0, |m| m.len())
    }
}

/// Runs `sources` as concurrent closed-loop clients, all timed from one
/// start.
fn run_clients(db: &Arc<SpatialDb>, sources: Vec<Box<dyn Source + '_>>, until: Until) -> Vec<Log> {
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = sources
            .into_iter()
            .map(|mut src| s.spawn(move || client::run(db, src.as_mut(), start, until, None)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}

/// Peak resident set size of this process so far, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile; 0 for no samples.
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn scaled(ns: &[u64], per: f64) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / per).collect()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The window's reads in slices, each with its latencies in ms and its
/// length in s. The read metrics are medians over the slices, so that a
/// few seconds of a slower host move them less than they would move a
/// mean or a tail rank over the whole window. `analyze` has one slice
/// per pass, because one of its statements alone can take a second;
/// the other workloads have [`SLICES`] equal slices of time, and a read
/// belongs to the slice it ended in.
fn read_slices(w: Workload, all: &Log, list_len: usize) -> Vec<(Vec<f64>, f64)> {
    if w == Workload::Analyze {
        return all
            .read_ns
            .chunks(list_len)
            .zip(&all.session_ns)
            .map(|(reads, &pass)| (scaled(reads, 1e6), pass as f64 / 1e9))
            .collect();
    }
    let mut slices = vec![(Vec::new(), all.elapsed_s() / SLICES as f64); SLICES as usize];
    for (&ns, &end) in all.read_ns.iter().zip(&all.read_end_ns) {
        let i = (end as u128 * SLICES as u128 / all.end_ns.max(1) as u128) as usize;
        slices[i.min(SLICES as usize - 1)].0.push(ns as f64 / 1e6);
    }
    slices
}

/// Writes per second in the first and last third of a window.
fn write_thirds(log: &Log, window: Duration) -> (f64, f64) {
    let third = window.as_nanos() as u64 / 3;
    let first = log.write_end_ns.iter().filter(|&&t| t < third).count() as f64;
    let last = log.write_end_ns.iter().filter(|&&t| t >= 2 * third).count() as f64;
    let secs = third as f64 / 1e9;
    (first / secs, last / secs)
}

/// Summed writer txn-lock wait of a metrics snapshot or delta, in ns.
fn writer_wait_ns(m: &jackpine_obs::MetricsSnapshot) -> u64 {
    ["txn_wait_insert_ns", "txn_wait_update_ns", "txn_wait_delete_ns"]
        .iter()
        .map(|n| m.wait(n).sum)
        .sum()
}

/// An untraced run: the end-to-end metrics.
fn untraced(args: &Args, work: &WorkDir) -> Res<Report> {
    let data = jackpine_bench::dataset(SCALE);
    let run = Run {
        w: args.workload,
        seed: args.seed,
        data: &data,
        list: ops::analyze_list(&data, args.seed),
        work,
    };
    // Calibrated before the engine is loaded, so that its allocations
    // cannot raise the peak RSS the window reaches.
    let mut calibration = host::rounds_ns(CALIBRATE);
    let (db, first_setup) = run.engine()?;

    let (sources, until): (Vec<Box<dyn Source + '_>>, _) = match run.w {
        Workload::Browse | Workload::Spill => {
            let streams = 0..run.browse_clients();
            (streams.map(|c| run.browse_source(c)).collect(), Until::Deadline(args.window))
        }
        Workload::Analyze => {
            (vec![Box::new(AnalyzeSource::new(&run.list))], Until::SessionAfter(args.window))
        }
        Workload::Edit => (
            vec![
                Box::new(EditWriter::new(&data, run.seed)),
                Box::new(EditReader::new(&data, run.seed)),
            ],
            Until::Deadline(args.window),
        ),
    };
    let logs = run_clients(&db, sources, until);
    let peak_rss = peak_rss_mib();
    calibration.extend(host::rounds_ns(CALIBRATE));
    let all = Log::merge(&logs);
    let secs = all.elapsed_s();

    // Every workload reports every end-to-end metric. A pass is one
    // session of the workload's main client: a whole list on `analyze`,
    // a scenario session on `browse` and `spill`, and on `edit` one
    // editing session of the writer (the reader's sessions are left out).
    let passes = if run.w == Workload::Edit { &logs[0].session_ns } else { &all.session_ns };
    let slices = read_slices(run.w, &all, run.list.len());
    let rates: Vec<f64> = slices.iter().map(|(ms, secs)| ms.len() as f64 / secs).collect();
    let latency = |q: f64| {
        let per_slice: Vec<f64> = slices
            .iter()
            .filter(|(ms, _)| !ms.is_empty())
            .map(|(ms, _)| percentile(ms, q))
            .collect();
        median(&per_slice)
    };
    let mut metrics = vec![
        ("read_qps", median(&rates), "1/s"),
        ("read_p50_ms", latency(0.50), "ms"),
        ("read_p99_ms", latency(0.99), "ms"),
        ("pass_p50_s", median(&scaled(passes, 1e9)), "s"),
    ];
    if run.w == Workload::Edit {
        let (first, last) = write_thirds(&all, args.window);
        let m = db.metrics_snapshot();
        eprintln!(
            "edit drift: write_qps {:.1} (first third {first:.1}, last third {last:.1}); \
             write p50 {:.3} ms, p99 {:.3} ms; pending_reclaim_rows {}; WAL {} bytes; \
             writer txn wait {:.1} us/write",
            all.write_ns.len() as f64 / secs,
            percentile(&scaled(&all.write_ns, 1e6), 0.50),
            percentile(&scaled(&all.write_ns, 1e6), 0.99),
            m.gauge("pending_reclaim_rows"),
            run.wal_bytes(),
            ratio(writer_wait_ns(&m) as f64 / 1e3, all.write_ns.len() as f64)
        );
    }
    metrics.push(("peak_rss_mb", peak_rss, "MiB"));

    let replay: Vec<_> = logs.iter().zip(0u64..).map(|(l, c)| (c, l.digests.clone())).collect();
    let failed = all.failed + run.check(db, &logs, &replay)?;

    let mut setups = vec![first_setup];
    for i in 1..SETUPS {
        let dir = work.path.join(format!("setup{i}"));
        let (db, secs) = run.setup(&dir)?;
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        setups.push(secs);
    }
    metrics.insert(0, ("setup_s", median(&setups), "s"));

    // Timings as they would read on the reference host: scaled by how much
    // slower than it the host ran its calibration rounds.
    let round_ns = median(&calibration);
    let speed = REF_ROUND_NS / round_ns;
    eprintln!(
        "host: calibration round {:.3} ms over {} rounds, reference {:.3} ms; \
         timings scaled by {speed:.4}",
        round_ns / 1e6,
        calibration.len(),
        REF_ROUND_NS / 1e6
    );
    for (name, value, unit) in &mut metrics {
        eprintln!("as timed on this host: {name:<14} {value:>14.4} {unit}");
        match *unit {
            "s" | "ms" => *value *= speed,
            "1/s" => *value /= speed,
            _ => {}
        }
    }
    Ok(Report { correct: failed == 0, attempted: all.attempted, failed, metrics })
}

/// The naive reference answers of the `analyze` list: prepared
/// geometries and the vectorized executor off, and the spatial index off
/// except on the joins where a nested loop would take minutes.
fn analyze_reference(db: &Arc<SpatialDb>, list: &[(String, String)]) -> Res<Vec<ResultSet>> {
    db.set_prepared(false);
    db.set_vectorized(false);
    let mut out = Vec::with_capacity(list.len());
    for (id, sql) in list {
        db.set_use_spatial_index(INDEXED_REFERENCE.contains(&id.as_str()));
        out.push(db.execute(sql).map_err(engine_err(id))?);
    }
    db.set_use_spatial_index(true);
    db.set_prepared(true);
    db.set_vectorized(true);
    Ok(out)
}

/// Equal columns and rows; floats equal to a relative 1e-9.
fn same_result(a: &ResultSet, b: &ResultSet) -> bool {
    let same = |x: &Value, y: &Value| match (x, y) {
        (Value::Float(p), Value::Float(q)) => (p - q).abs() <= 1e-9 * p.abs().max(q.abs()).max(1.0),
        _ => x == y,
    };
    a.columns == b.columns
        && a.rows.len() == b.rows.len()
        && a.rows
            .iter()
            .zip(&b.rows)
            .all(|(r, s)| r.len() == s.len() && r.iter().zip(s).all(|(x, y)| same(x, y)))
}

/// Engine-wide counters at one instant.
struct Counters {
    m: jackpine_obs::MetricsSnapshot,
    plan: (u64, u64),
    heap: (u64, u64),
    pool: PoolStats,
    at: Instant,
}

impl Counters {
    fn take(db: &SpatialDb) -> Counters {
        let mut heap = (0, 0);
        for name in db.table_names() {
            if let Ok(t) = db.table(&name) {
                let s = t.heap.stats();
                heap.0 += s.cache_hits;
                heap.1 += s.cache_misses;
            }
        }
        Counters {
            m: db.metrics_snapshot(),
            plan: db.plan_cache_stats(),
            heap,
            pool: db.pool_stats(),
            at: Instant::now(),
        }
    }
}

/// Hits over lookups between two `(hits, misses)` readings.
fn hit_ratio(before: (u64, u64), after: (u64, u64)) -> f64 {
    let hits = (after.0 - before.0) as f64;
    ratio(hits, hits + (after.1 - before.1) as f64)
}

/// A traced run: one client, so that engine-wide counter deltas belong
/// to its statements; the first half of the window untraced (the
/// overhead base), the second half traced; then the direct layer calls.
fn traced(args: &Args, work: &WorkDir) -> Res<Report> {
    let data = jackpine_bench::dataset(SCALE);
    let run = Run {
        w: args.workload,
        seed: args.seed,
        data: &data,
        list: ops::analyze_list(&data, args.seed),
        work,
    };
    let (db, _) = run.engine()?;

    const STREAM: u64 = 0;
    let mut src: Box<dyn Source + '_> = match run.w {
        Workload::Browse | Workload::Spill => run.browse_source(STREAM),
        Workload::Analyze => Box::new(AnalyzeSource::new(&run.list)),
        Workload::Edit => Box::new(EditInterleaved::new(&data, run.seed)),
    };
    let half = args.window / 2;
    let until = match run.w {
        Workload::Analyze => Until::SessionAfter(half),
        _ => Until::Deadline(half),
    };
    let plain = client::run(&db, src.as_mut(), Instant::now(), until, None);
    let mut tracer = Tracer::new();
    let before = Counters::take(&db);
    let traced = client::run(&db, src.as_mut(), Instant::now(), until, Some(&mut tracer));
    let after = Counters::take(&db);
    drop(src);

    let d = after.m.delta_since(&before.m);
    let c = |n: &str| d.counter(n) as f64;
    let stage_us = |n: &str| {
        d.stages.iter().find(|(s, _)| s.name() == n).map_or(0.0, |(_, h)| h.sum as f64 / 1e3)
    };
    let stmts = traced.attempted as f64;
    let writes = traced.write_ns.len() as f64;
    let pool_pins = |p: &PoolStats| (p.pin_hits, p.cold_pins);
    let pins = (after.pool.pin_hits + after.pool.cold_pins
        - before.pool.pin_hits
        - before.pool.cold_pins) as f64;
    let (first, last) = write_thirds(&traced, half);
    let qps = |l: &Log| l.read_ns.len() as f64 / l.elapsed_s();
    let pass_s = |l: &Log| median(&scaled(&l.session_ns, 1e9));
    // Slowdown factor: traced cost per statement (or pass) over untraced.
    let overhead = if run.w == Workload::Analyze {
        ratio(pass_s(&traced), pass_s(&plain))
    } else {
        ratio(qps(&plain), qps(&traced))
    };

    let window_probe = layers::window_probe_ns(&mut tracer, &data, run.seed);
    let (line_poly, poly_poly) = layers::relate_prepared_ns(&mut tracer, &data);
    let overlay = layers::overlay_us(&mut tracer, &data, run.seed);
    let wkb_decode = layers::wkb_decode_ns(&mut tracer, &data);
    let wal_sync = layers::wal_append_sync_us(&mut tracer, &data, &work.path);
    let (get_hit, get_miss) = layers::heap_get_ns(&mut tracer, &db);
    let prepared = |n: &str| c(&format!("prepared_cache_{n}"));

    let metrics = vec![
        ("sqlmini.parse_us", median(&scaled(&tracer.parse_ns, 1e3)), "us"),
        ("sqlmini.plan_us", ratio(stage_us("plan"), stmts), "us"),
        ("sqlmini.materialize_us", ratio(stage_us("materialize"), stmts), "us"),
        ("sqlmini.plan_cache_hit_ratio", hit_ratio(before.plan, after.plan), "ratio"),
        (
            "sqlmini.prefilter_reject_ratio",
            ratio(c("prefilter_rejects"), c("prefilter_rejects") + c("selvec_survivors")),
            "ratio",
        ),
        ("index.probe_us", ratio(stage_us("index_probe"), c("index_probes")), "us"),
        ("index.nodes_per_probe", ratio(c("index_nodes_visited"), c("index_probes")), "count"),
        ("index.candidates_per_probe", ratio(c("index_candidates"), c("index_probes")), "count"),
        ("index.window_probe_ns", window_probe, "ns"),
        ("topo.refine_us", ratio(stage_us("refine"), stmts), "us"),
        ("topo.refine_hit_ratio", ratio(c("refine_hits"), c("refine_candidates")), "ratio"),
        ("topo.relate_prepared_ns.line_poly", line_poly, "ns"),
        ("topo.relate_prepared_ns.poly_poly", poly_poly, "ns"),
        (
            "topo.prepared_cache_hit_ratio",
            ratio(prepared("hits"), prepared("hits") + prepared("misses")),
            "ratio",
        ),
        ("geom.overlay_us", overlay, "us"),
        ("geom.wkb_decode_ns", wkb_decode, "ns"),
        ("storage.rows_fetched_per_stmt", ratio(c("heap_rows_fetched"), stmts), "count"),
        ("storage.row_cache_hit_ratio", hit_ratio(before.heap, after.heap), "ratio"),
        ("storage.heap_get_hit_ns", get_hit, "ns"),
        ("storage.heap_get_miss_ns", get_miss, "ns"),
        ("storage.pool_pins_per_stmt", ratio(pins, stmts), "count"),
        (
            "storage.pool_hit_ratio",
            hit_ratio(pool_pins(&before.pool), pool_pins(&after.pool)),
            "ratio",
        ),
        (
            "storage.pool_evictions_per_s",
            ratio(
                (after.pool.evictions - before.pool.evictions) as f64,
                (after.at - before.at).as_secs_f64(),
            ),
            "1/s",
        ),
        (
            "storage.pool_resident_mb",
            (after.pool.resident_frames as usize * PAGE_SIZE) as f64 / (1 << 20) as f64,
            "MiB",
        ),
        ("engine.write_qps", ratio(writes, traced.elapsed_s()), "1/s"),
        ("engine.write_p50_ms", percentile(&scaled(&traced.write_ns, 1e6), 0.50), "ms"),
        ("engine.write_txn_wait_us", ratio(writer_wait_ns(&d) as f64 / 1e3, writes), "us"),
        (
            "engine.commit_follower_wait_us",
            ratio(d.wait("commit_follower_wait_us").sum as f64, writes),
            "us",
        ),
        ("engine.wal_append_sync_us", wal_sync, "us"),
        ("engine.wal_fsyncs_per_write", ratio(c("wal_fsyncs"), writes), "count"),
        (
            "engine.group_commit_size",
            ratio(c("group_commit_size"), c("group_commit_batches")),
            "count",
        ),
        ("engine.pending_reclaim_rows", after.m.gauge("pending_reclaim_rows") as f64, "count"),
        ("engine.write_qps_first_third", first, "1/s"),
        ("engine.write_qps_last_third", last, "1/s"),
        (
            "engine.wal_bytes_per_write",
            ratio(run.wal_bytes() as f64, (plain.write_ns.len() + traced.write_ns.len()) as f64),
            "bytes",
        ),
        ("obs.trace_overhead", overhead, "ratio"),
        ("obs.untraced_read_qps", qps(&plain), "1/s"),
        ("obs.traced_read_qps", qps(&traced), "1/s"),
        ("obs.untraced_pass_p50_s", pass_s(&plain), "s"),
        ("obs.traced_pass_p50_s", pass_s(&traced), "s"),
    ];

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let spans = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.csv", run.w.name(), run.seed));
    tracer.write_csv(&spans).map_err(|e| format!("writing {}: {e}", spans.display()))?;
    eprintln!("{} spans written to {}", tracer.spans.len(), spans.display());

    // The single stream ran through both phases, so its replay does too.
    let digests = plain.digests.iter().chain(&traced.digests).copied().collect();
    let logs = [plain, traced];
    let attempted = logs.iter().map(|l| l.attempted).sum();
    let failed =
        logs.iter().map(|l| l.failed).sum::<u64>() + run.check(db, &logs, &[(STREAM, digests)])?;
    Ok(Report { correct: failed == 0, attempted, failed, metrics })
}
