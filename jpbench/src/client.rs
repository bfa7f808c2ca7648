//! Closed-loop clients: each sends its next statement only after the
//! previous one returned, times it, and keeps what the output check
//! needs. The traced variant records spans around every call it makes
//! into a layer.

use crate::ops::{Effect, Keep, Source};
use jackpine_engine::{EngineError, SpatialDb};
use jackpine_sqlmini::ResultSet;
use jackpine_storage::Value;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one client did in one window.
#[derive(Default)]
pub struct Log {
    pub read_ns: Vec<u64>,
    /// Completion time of each read since the window opened.
    pub read_end_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    /// Completion time of each write since the window opened.
    pub write_end_ns: Vec<u64>,
    pub session_ns: Vec<u64>,
    /// One per `Keep::Digest` op, `None` where the statement failed.
    pub digests: Vec<Option<u64>>,
    /// One per `Keep::Result` op, `None` where the statement failed.
    pub results: Vec<Option<ResultSet>>,
    pub attempted: u64,
    pub failed: u64,
    pub inserted: u64,
    pub deleted: u64,
    /// Completion time of the last statement since the window opened.
    pub end_ns: u64,
}

impl Log {
    /// The timings and counts of several clients' logs (results and
    /// digests stay with each client's own log).
    pub fn merge(logs: &[Log]) -> Log {
        let mut out = Log::default();
        for l in logs {
            out.read_ns.extend(&l.read_ns);
            out.read_end_ns.extend(&l.read_end_ns);
            out.write_ns.extend(&l.write_ns);
            out.write_end_ns.extend(&l.write_end_ns);
            out.session_ns.extend(&l.session_ns);
            out.attempted += l.attempted;
            out.failed += l.failed;
            out.inserted += l.inserted;
            out.deleted += l.deleted;
            out.end_ns = out.end_ns.max(l.end_ns);
        }
        out
    }

    pub fn elapsed_s(&self) -> f64 {
        self.end_ns as f64 / 1e9
    }
}

/// How a window ends.
#[derive(Clone, Copy)]
pub enum Until {
    /// At the first statement boundary after the deadline.
    Deadline(Duration),
    /// At the first session boundary after the deadline, and after at
    /// least one statement (whole `analyze` passes).
    SessionAfter(Duration),
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Runs one client until `until`, timing every statement from `start`.
pub fn run(
    db: &Arc<SpatialDb>,
    src: &mut dyn Source,
    start: Instant,
    until: Until,
    mut tracer: Option<&mut Tracer>,
) -> Log {
    let mut log = Log::default();
    let mut session_start: Option<Instant> = None;
    loop {
        let done = match until {
            Until::Deadline(d) => start.elapsed() >= d,
            Until::SessionAfter(d) => {
                log.attempted > 0 && session_start.is_none() && start.elapsed() >= d
            }
        };
        if done {
            break;
        }
        let op = src.next_op();
        let t0 = Instant::now();
        session_start.get_or_insert(t0);
        let result = match tracer.as_deref_mut() {
            Some(t) => t.execute(db, &op.sql),
            None => db.execute(&op.sql),
        };
        let t1 = Instant::now();
        let ns = nanos(t1 - t0);
        log.attempted += 1;
        let ok = match &result {
            Ok(rs) => match op.effect {
                Effect::Read => {
                    log.read_ns.push(ns);
                    log.read_end_ns.push(nanos(t1 - start));
                    true
                }
                effect => {
                    log.write_ns.push(ns);
                    log.write_end_ns.push(nanos(t1 - start));
                    let one_row = rs.scalar() == Some(&Value::Int(1));
                    if one_row {
                        match effect {
                            Effect::Insert => log.inserted += 1,
                            Effect::Delete => log.deleted += 1,
                            _ => {}
                        }
                    } else {
                        eprintln!("write affected {:?} rows, not 1: {}", rs.scalar(), op.sql);
                    }
                    one_row
                }
            },
            Err(e) => {
                report_error(e, &op.sql);
                false
            }
        };
        if !ok {
            log.failed += 1;
        }
        match op.keep {
            Keep::Nothing => {}
            Keep::Digest => log.digests.push(result.ok().map(|rs| digest(&rs))),
            Keep::Result => log.results.push(result.ok()),
        }
        if op.ends_session {
            if let Some(s) = session_start.take() {
                log.session_ns.push(nanos(t1 - s));
            }
        }
        log.end_ns = nanos(t1 - start);
    }
    log
}

fn report_error(e: &EngineError, sql: &str) {
    let head: String = sql.chars().take(160).collect();
    eprintln!("statement failed: {e}: {head}");
}

/// An exact digest of a result set: equal digests mean equal columns
/// and bit-identical values.
pub fn digest(rs: &ResultSet) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    rs.columns.hash(&mut h);
    for row in &rs.rows {
        row.len().hash(&mut h);
        for v in row {
            match v {
                Value::Null => 0u8.hash(&mut h),
                Value::Int(i) => (1u8, i).hash(&mut h),
                Value::Float(f) => (2u8, f.to_bits()).hash(&mut h),
                Value::Text(s) => (3u8, s).hash(&mut h),
                Value::Geom(g) => (4u8, jackpine_geom::wkb::encode(g)).hash(&mut h),
            }
        }
    }
    h.finish()
}

/// One span: a call into a layer's public function, or an engine stage
/// inside such a call.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The benchmark statement this span belongs to, if any.
    pub stmt: Option<u64>,
    /// Calls the span covers (loops of direct calls record one span).
    pub calls: u64,
}

/// In-memory span recorder, written out once the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    next_stmt: u64,
    /// Wall time of each direct `parser::parse` call.
    pub parse_ns: Vec<u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), next_stmt: 0, parse_ns: Vec::new() }
    }

    fn at(&self, t: Instant) -> u64 {
        nanos(t.saturating_duration_since(self.origin))
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        stmt: Option<u64>,
        calls: u64,
    ) -> usize {
        let span =
            Span { name, start_ns: self.at(start), end_ns: self.at(end), parent, stmt, calls };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `f`, which returns the number of direct calls it made into
    /// a layer, as one span.
    pub fn time(&mut self, name: &'static str, f: impl FnOnce() -> u64) -> (u64, Duration) {
        let t0 = Instant::now();
        let calls = f();
        let t1 = Instant::now();
        self.push(name, t0, t1, None, None, calls);
        (calls, t1 - t0)
    }

    /// Executes one statement traced: a statement span whose children are
    /// a direct `parser::parse` of the text and the
    /// `SpatialDb::execute_traced` call, which in turn gets the engine's
    /// stage self-times as children, laid back to back from the call's
    /// start (the engine reports durations, not intervals).
    pub fn execute(&mut self, db: &Arc<SpatialDb>, sql: &str) -> Result<ResultSet, EngineError> {
        let stmt = Some(self.next_stmt);
        self.next_stmt += 1;
        // The statement span's own times are filled in once it ends.
        let root = self.spans.len();
        let t0 = Instant::now();
        self.push("statement", t0, t0, None, stmt, 1);
        std::hint::black_box(jackpine_sqlmini::parser::parse(std::hint::black_box(sql)).is_ok());
        let t1 = Instant::now();
        self.parse_ns.push(nanos(t1 - t0));
        self.push("sqlmini.parser::parse", t0, t1, Some(root), stmt, 1);
        let t2 = Instant::now();
        let result = db.execute_traced(sql);
        let t3 = Instant::now();
        let call = self.push("engine.SpatialDb::execute_traced", t2, t3, Some(root), stmt, 1);
        self.spans[root].end_ns = self.at(t3);
        result.map(|(rs, trace)| {
            let (mut cursor, limit) = (self.at(t2), self.at(t3));
            for (stage, h) in trace.delta.stages.iter().filter(|(_, h)| h.count > 0) {
                let end = (cursor + h.sum).min(limit);
                let span = Span {
                    name: stage.name(),
                    start_ns: cursor,
                    end_ns: end,
                    parent: Some(call),
                    stmt,
                    calls: h.count,
                };
                self.spans.push(span);
                cursor = end;
            }
            rs
        })
    }

    /// Writes the spans as CSV, one line per span: `span` is the line's
    /// own index, `parent` the index of the span that caused it.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span,parent,stmt,name,start_ns,end_ns,calls")?;
        let opt = |v: Option<u64>| v.map_or(String::new(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{i},{},{},{},{},{},{}",
                opt(s.parent.map(|p| p as u64)),
                opt(s.stmt),
                s.name,
                s.start_ns,
                s.end_ns,
                s.calls
            )?;
        }
        out.flush()
    }
}
