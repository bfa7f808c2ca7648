//! Ground-truth integration tests: SQL answers on the benchmark dataset
//! must equal brute-force computation with the geometry/topology crates
//! directly — the SQL engine, planner and indexes may not change answers.

use jackpine::bench::load_dataset;
use jackpine::datagen::{TigerConfig, TigerDataset};
use jackpine::engine::{EngineProfile, SpatialDb};
use jackpine::geom::algorithms as alg;
use jackpine::geom::{wkt, Envelope, Geometry};
use jackpine::storage::Value;
use jackpine::topo;
use std::sync::Arc;

fn setup() -> (TigerDataset, Arc<SpatialDb>) {
    let data = TigerDataset::generate(&TigerConfig { seed: 31, scale: 0.03 });
    let db = Arc::new(SpatialDb::new(EngineProfile::ExactRtree));
    load_dataset(&db, &data).expect("load");
    (data, db)
}

fn scalar_i64(db: &Arc<SpatialDb>, sql: &str) -> i64 {
    db.execute(sql).expect("query").scalar().and_then(Value::as_i64).expect("int scalar")
}

fn scalar_f64(db: &Arc<SpatialDb>, sql: &str) -> f64 {
    db.execute(sql).expect("query").scalar().and_then(Value::as_f64).expect("float scalar")
}

#[test]
fn crosses_count_matches_brute_force() {
    let (data, db) = setup();
    let river = data.areawater.iter().find(|w| w.name.ends_with("RIVER")).expect("river exists");
    let river_geom = Geometry::Polygon(river.geom.clone());
    let want = data
        .roads
        .iter()
        .filter(|r| {
            topo::crosses(&Geometry::LineString(r.geom.clone()), &river_geom).expect("crosses")
        })
        .count() as i64;
    let got = scalar_i64(
        &db,
        &format!(
            "SELECT COUNT(*) FROM roads WHERE ST_Crosses(geom, ST_GeomFromText('{}'))",
            wkt::write(&river_geom)
        ),
    );
    assert_eq!(got, want);
    assert!(want > 0, "the river should cross some roads at this scale");
}

#[test]
fn county_touch_pairs_match_brute_force() {
    let (data, db) = setup();
    let mut want = 0i64;
    for (i, a) in data.counties.iter().enumerate() {
        for b in &data.counties[i + 1..] {
            if topo::touches(&Geometry::Polygon(a.geom.clone()), &Geometry::Polygon(b.geom.clone()))
                .expect("touches")
            {
                want += 1;
            }
        }
    }
    let got = scalar_i64(
        &db,
        "SELECT COUNT(*) FROM county a JOIN county b ON ST_Touches(a.geom, b.geom) \
         WHERE a.id < b.id",
    );
    assert_eq!(got, want);
    assert!(want > 0);
}

#[test]
fn total_road_length_matches_brute_force() {
    let (data, db) = setup();
    let want: f64 = data.roads.iter().map(|r| r.geom.length()).sum();
    let got = scalar_f64(&db, "SELECT SUM(ST_Length(geom)) FROM roads");
    assert!((got - want).abs() < want * 1e-12, "SQL {got} vs direct {want}");
}

#[test]
fn total_landmark_area_matches_brute_force() {
    let (data, db) = setup();
    let want: f64 = data.arealm.iter().map(|a| a.geom.area()).sum();
    let got = scalar_f64(&db, "SELECT SUM(ST_Area(geom)) FROM arealm");
    assert!((got - want).abs() < want * 1e-12);
}

#[test]
fn points_within_window_match_brute_force() {
    let (data, db) = setup();
    let window =
        wkt::parse("POLYGON ((-102 28, -97 28, -97 33, -102 33, -102 28))").expect("window wkt");
    let want = data
        .pointlm
        .iter()
        .filter(|p| topo::within(&Geometry::Point(p.geom), &window).expect("within"))
        .count() as i64;
    let got = scalar_i64(
        &db,
        &format!(
            "SELECT COUNT(*) FROM pointlm WHERE ST_Within(geom, ST_GeomFromText('{}'))",
            wkt::write(&window)
        ),
    );
    assert_eq!(got, want);
    assert!(want > 0, "central window should contain landmarks");
}

#[test]
fn overlap_pairs_and_intersection_area_match_brute_force() {
    let (data, db) = setup();
    let mut pairs = 0i64;
    let mut area_sum = 0.0f64;
    for a in &data.arealm {
        let ga = Geometry::Polygon(a.geom.clone());
        for w in &data.areawater {
            let gw = Geometry::Polygon(w.geom.clone());
            if topo::overlaps(&ga, &gw).expect("overlaps") {
                pairs += 1;
                area_sum += alg::area(&alg::intersection(&ga, &gw).expect("intersection computes"));
            }
        }
    }
    let got_pairs = scalar_i64(
        &db,
        "SELECT COUNT(*) FROM arealm a JOIN areawater b ON ST_Overlaps(a.geom, b.geom)",
    );
    assert_eq!(got_pairs, pairs);
    if pairs > 0 {
        let got_area = scalar_f64(
            &db,
            "SELECT SUM(ST_Area(ST_Intersection(a.geom, b.geom))) FROM arealm a \
             JOIN areawater b ON ST_Overlaps(a.geom, b.geom)",
        );
        assert!(
            (got_area - area_sum).abs() < area_sum.max(1e-9) * 1e-9,
            "SQL {got_area} vs direct {area_sum}"
        );
    }
}

#[test]
fn nearest_road_matches_brute_force() {
    let (data, db) = setup();
    let q = jackpine::geom::Coord::new(-100.0, 30.0);
    // Brute force by exact geometry distance.
    let want = data
        .roads
        .iter()
        .min_by(|a, b| {
            let pa = Geometry::Point(jackpine::geom::Point::from_coord(q).unwrap());
            let da = alg::distance(&Geometry::LineString(a.geom.clone()), &pa);
            let dbv = alg::distance(&Geometry::LineString(b.geom.clone()), &pa);
            da.total_cmp(&dbv)
        })
        .expect("roads non-empty")
        .id;
    let r = db
        .execute(
            "SELECT id FROM roads \
             ORDER BY ST_Distance(geom, ST_GeomFromText('POINT (-100 30)')) LIMIT 1",
        )
        .expect("knn query");
    assert_eq!(r.rows[0][0], Value::Int(want));
}

#[test]
fn group_by_category_matches_brute_force() {
    let (data, db) = setup();
    let r = db
        .execute("SELECT category, COUNT(*) FROM arealm GROUP BY category ORDER BY 1")
        .expect("group query");
    use std::collections::BTreeMap;
    let mut want: BTreeMap<&str, i64> = BTreeMap::new();
    for a in &data.arealm {
        *want.entry(a.category.as_str()).or_default() += 1;
    }
    let got: Vec<(String, i64)> =
        r.rows.iter().map(|row| (row[0].to_string(), row[1].as_i64().expect("count"))).collect();
    let want: Vec<(String, i64)> = want.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    assert_eq!(got, want);
}

/// An envelope relation: `rel(row envelope, window)`.
type EnvRel = fn(&Envelope, &Envelope) -> bool;

/// Counts the `arealm` rows whose envelope stands in `rel` to `window`.
fn brute_force_mbr(data: &TigerDataset, window: &Envelope, rel: EnvRel) -> i64 {
    data.arealm.iter().filter(|a| rel(&a.geom.envelope(), window)).count() as i64
}

#[test]
fn mbr_predicates_on_negative_envelopes_match_brute_force() {
    let (data, db) = setup();
    // Every longitude in the dataset is negative, so each envelope here
    // is built from unary minus.
    let window = Envelope::new(-102.0, 28.0, -97.0, 33.0);
    let env = "ST_MakeEnvelope(-102, 28, -97, 33)";
    let cases: [(&str, EnvRel); 3] = [
        ("MBRIntersects", |g, w| g.intersects(w)),
        ("MBRWithin", |g, w| w.contains_envelope(g)),
        ("MBRContains", |g, w| g.contains_envelope(w)),
    ];
    for (name, rel) in cases {
        let want = brute_force_mbr(&data, &window, rel);
        let sql = format!("SELECT COUNT(*) FROM arealm WHERE {name}(geom, {env})");
        assert_eq!(scalar_i64(&db, &sql), want, "{sql}");
    }
    assert!(brute_force_mbr(&data, &window, |g, w| g.intersects(w)) > 0);
    // The constant on the left: MBRContains(env, geom) = MBRWithin(geom, env).
    let want = brute_force_mbr(&data, &window, |g, w| w.contains_envelope(g));
    let sql = format!("SELECT COUNT(*) FROM arealm WHERE MBRContains({env}, geom)");
    assert_eq!(scalar_i64(&db, &sql), want);
    // Literal arithmetic and a negated negative fold to the same window.
    let want = brute_force_mbr(&data, &window, |g, w| g.intersects(w));
    let sql = "SELECT COUNT(*) FROM arealm \
               WHERE MBRIntersects(geom, ST_MakeEnvelope(-(100 + 2), 28, -(-(-97)), 30 + 3))";
    assert_eq!(scalar_i64(&db, sql), want);
}

#[test]
fn function_names_resolve_in_any_case() {
    let (_, db) = setup();
    let canonical = scalar_i64(
        &db,
        "SELECT COUNT(*) FROM arealm WHERE MBRIntersects(geom, ST_MakeEnvelope(-102, 28, -97, 33))",
    );
    for sql in [
        "SELECT COUNT(*) FROM arealm WHERE mbrintersects(geom, st_makeenvelope(-102, 28, -97, 33))",
        "SELECT COUNT(*) FROM arealm WHERE MbrInterSects(geom, St_MakeEnvelope(-102, 28, -97, 33))",
    ] {
        assert_eq!(scalar_i64(&db, sql), canonical, "{sql}");
    }
    let area = scalar_f64(&db, "SELECT SUM(ST_Area(geom)) FROM arealm");
    assert_eq!(scalar_f64(&db, "SELECT SUM(st_area(geom)) FROM arealm"), area);
    assert_eq!(scalar_f64(&db, "SELECT SUM(sT_aReA(geom)) FROM arealm"), area);
}

#[test]
fn unknown_function_fails_only_when_evaluated() {
    let (_, db) = setup();
    db.execute("CREATE TABLE empty_t (id BIGINT, geom GEOMETRY)").expect("create");
    // Over an empty input the call never runs, so the query succeeds.
    let r = db.execute("SELECT COUNT(*) FROM empty_t WHERE NoSuchFn(geom)").expect("empty input");
    assert_eq!(r.scalar(), Some(&Value::Int(0)));
    assert!(db.execute("SELECT noSuchFn(geom) FROM empty_t").expect("empty input").is_empty());
    // Over rows it fails with the name as written.
    let err = db.execute("SELECT COUNT(*) FROM arealm WHERE NoSuchFn(geom)").unwrap_err();
    assert_eq!(err.to_string(), "unresolved name: function NoSuchFn");
    let err = db.execute("SELECT noSuchFn(geom) FROM arealm").unwrap_err();
    assert_eq!(err.to_string(), "unresolved name: function noSuchFn");
    // A constant call fails the same way.
    let err = db.execute("SELECT NoSuchFn(1)").unwrap_err();
    assert_eq!(err.to_string(), "unresolved name: function NoSuchFn");
}

#[test]
fn mbr_only_profile_reports_missing_functions_when_evaluated() {
    let data = TigerDataset::generate(&TigerConfig { seed: 31, scale: 0.03 });
    let db = Arc::new(SpatialDb::new(EngineProfile::MbrOnly));
    load_dataset(&db, &data).expect("load");
    db.execute("CREATE TABLE empty_t (id BIGINT, geom GEOMETRY)").expect("create");
    let want = db.execute("SELECT ST_Buffer(geom, 1) FROM arealm").unwrap_err().to_string();
    assert!(want.contains("ST_Buffer"), "{want}");
    for sql in [
        "SELECT ST_Buffer(ST_Point(-100, 30), 1)",
        "SELECT COUNT(*) FROM arealm WHERE ST_Area(ST_Buffer(geom, 1)) > 0",
    ] {
        assert_eq!(db.execute(sql).unwrap_err().to_string(), want, "{sql}");
    }
    assert!(db.execute("SELECT ST_Buffer(geom, 1) FROM empty_t").expect("empty input").is_empty());
    // The exact profile has the function.
    let (_, exact) = setup();
    assert!(exact.execute("SELECT ST_Buffer(ST_Point(-100, 30), 1)").is_ok());
}

#[test]
fn negating_i64_min_wraps() {
    let (_, db) = setup();
    let r = db.execute("SELECT -(-9223372036854775807 - 1)").expect("wrapping negation");
    assert_eq!(r.scalar(), Some(&Value::Int(i64::MIN)));
    // The same rule per row: the literal cannot fold through a column.
    db.execute("CREATE TABLE ints (v BIGINT)").expect("create");
    db.execute("INSERT INTO ints VALUES (-9223372036854775807)").expect("insert");
    let r = db.execute("SELECT -(v - 1) FROM ints").expect("wrapping negation per row");
    assert_eq!(r.scalar(), Some(&Value::Int(i64::MIN)));
}
