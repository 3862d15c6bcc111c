//! End-to-end tests of the SQL serving front door: real TCP connections
//! against a live [`qs_server`] over one shared engine/CJOIN pipeline.
//!
//! Invariants, mirroring the chaos suite one layer up:
//!
//! 1. **Oracle-exact under concurrency** — rows streamed over the wire by
//!    many simultaneous clients match the library path bit-for-bit.
//! 2. **Typed errors only** — adversarial SQL, armed failpoints and
//!    overload produce `ERR <KIND>` frames, never a dead listener or a
//!    hung connection.
//! 3. **Fault blast radius is one request** — a poisoned connection (or a
//!    client vanishing mid-stream) never takes down the server; slot
//!    accounting in the CJOIN pipeline survives mid-chain aborts.
//!
//! The failpoint registry is process-global, and every test here drives
//! injection sites (CJOIN channels, FIFO/SPL pushes, the pool, disk
//! reads): a test that does not arm the registry can still evaluate a
//! co-runner's armed points and abort. So every test holds
//! [`fault::test_guard`] for its whole body and starts disarmed.

use sharing_repro::prelude::*;
use sharing_repro::storage::fault;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn build_db(mode: ExecutionMode, scale: f64, admission: Option<AdmissionConfig>) -> Arc<SharingDb> {
    let catalog = Catalog::new();
    generate_ssb(
        &catalog,
        &SsbConfig {
            scale,
            seed: 7,
            page_bytes: 8 * 1024,
            ..Default::default()
        },
    );
    let mut config = DbConfig::new(mode);
    config.admission = admission;
    Arc::new(SharingDb::new(catalog, config).expect("build db"))
}

/// Minimal protocol client for the tests.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One request's terminal outcome.
#[derive(Debug)]
enum Outcome {
    /// `END` reached; the sorted `ROW` payloads.
    Rows(Vec<String>),
    /// `ERR <KIND> <retry> <msg>` frame, split into (kind, retry, msg).
    Err(String, String, String),
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("send");
        self.stream.write_all(b"\n").expect("send newline");
        self.stream.flush().expect("flush");
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read frame");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_string()
    }

    /// Send one SQL statement and consume frames to the terminal one.
    fn query(&mut self, sql: &str) -> Outcome {
        self.send(sql);
        let mut rows = Vec::new();
        loop {
            let frame = self.read_line();
            if let Some(row) = frame.strip_prefix("ROW ") {
                rows.push(row.to_string());
            } else if frame.starts_with("SCHEMA ") {
                continue;
            } else if frame.starts_with("END ") {
                rows.sort();
                return Outcome::Rows(rows);
            } else if let Some(rest) = frame.strip_prefix("ERR ") {
                let mut it = rest.splitn(3, ' ');
                return Outcome::Err(
                    it.next().unwrap_or_default().to_string(),
                    it.next().unwrap_or_default().to_string(),
                    it.next().unwrap_or_default().to_string(),
                );
            } else {
                panic!("unexpected frame: {frame}");
            }
        }
    }
}

/// Rows from the library path, formatted exactly like `ROW` payloads.
fn library_rows(db: &SharingDb, sql: &str) -> Vec<String> {
    let t = db.submit_sql(sql).expect("library submit");
    let mut rows: Vec<String> = t
        .collect_rows()
        .expect("library rows")
        .into_iter()
        .map(|r| {
            r.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

/// The full SSB template mix as SQL text (all four query flights).
fn template_sqls(db: &SharingDb, variants: u64) -> Vec<String> {
    let mut sqls = Vec::new();
    for t in SsbTemplate::all() {
        for v in 0..variants {
            sqls.push(
                t.sql(db.catalog(), &TemplateParams::variant(v))
                    .expect("template sql"),
            );
        }
    }
    sqls
}

/// Acceptance gate of the tentpole: ≥8 concurrent clients stream the full
/// template mix over one live GQP+SP pipeline, and every result matches
/// the library path exactly. Meta commands interleave with queries.
#[test]
fn eight_concurrent_clients_are_oracle_exact() {
    let _guard = fault::test_guard();
    fault::disarm();
    let db = build_db(ExecutionMode::GqpSp, 0.002, None);
    let handle = qs_server::serve(db.clone(), "127.0.0.1:0").expect("serve");
    let addr = handle.addr();

    let sqls = template_sqls(&db, 2);
    // Expected rows through the library path, before the clients start.
    let expected: Vec<Vec<String>> = sqls.iter().map(|s| library_rows(&db, s)).collect();

    let clients = 8usize;
    let barrier = Arc::new(Barrier::new(clients));
    std::thread::scope(|scope| {
        for c in 0..clients {
            let barrier = barrier.clone();
            let sqls = &sqls;
            let expected = &expected;
            scope.spawn(move || {
                let mut cl = Client::connect(addr);
                cl.send(".ping");
                assert_eq!(cl.read_line(), "PONG");
                barrier.wait();
                // Each client walks the mix from its own offset, so at any
                // instant the server carries a diverse concurrent set.
                for k in 0..sqls.len() {
                    let i = (k + c * 5) % sqls.len();
                    match cl.query(&sqls[i]) {
                        Outcome::Rows(rows) => assert_eq!(
                            rows, expected[i],
                            "client {c}: wire rows diverged on sql #{i}"
                        ),
                        Outcome::Err(kind, _, msg) => {
                            panic!("client {c}: sql #{i} failed: {kind} {msg}")
                        }
                    }
                }
                cl.send(".quit");
                assert_eq!(cl.read_line(), "BYE");
            });
        }
    });

    // (Counters may settle a beat after the last terminal frame lands.)
    let mut stats = handle.stats();
    for _ in 0..100 {
        if stats.completed == (sqls.len() * clients) as u64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        stats = handle.stats();
    }
    assert_eq!(stats.errors, 0, "no error frames: {stats:?}");
    assert_eq!(stats.completed, (sqls.len() * clients) as u64);
    handle.shutdown();
}

/// Overload at the door: a capacity-1 gate under 8 hammering clients must
/// shed with typed `ERR SHED` frames carrying a numeric Retry-After —
/// every request terminates as `END` or `ERR SHED`, nothing else.
#[test]
fn overload_sheds_with_retry_hint_over_the_wire() {
    let _guard = fault::test_guard();
    fault::disarm();
    let db = build_db(
        ExecutionMode::GqpSp,
        0.002,
        Some(AdmissionConfig {
            max_concurrent: 1,
            max_queued: 0,
            queue_timeout: Duration::from_millis(20),
        }),
    );
    let sql = SsbTemplate::Q4_1
        .sql(db.catalog(), &TemplateParams::variant(0))
        .expect("sql");
    let handle = qs_server::serve(db, "127.0.0.1:0").expect("serve");
    let addr = handle.addr();

    let clients = 8usize;
    let barrier = Arc::new(Barrier::new(clients));
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let barrier = barrier.clone();
            let sql = &sql;
            scope.spawn(move || {
                let mut cl = Client::connect(addr);
                barrier.wait();
                for _ in 0..5 {
                    match cl.query(sql) {
                        Outcome::Rows(_) => {}
                        Outcome::Err(kind, retry, msg) => {
                            assert_eq!(kind, "SHED", "only shed errors are legal: {kind} {msg}");
                            let ms: u64 =
                                retry.parse().expect("SHED carries numeric retry-after ms");
                            assert!(ms > 0, "retry-after must be positive");
                        }
                    }
                }
            });
        }
    });

    // The terminal frame reaches the client just before the server thread
    // bumps its disposition counter; give the counters a moment to settle.
    let mut stats = handle.stats();
    for _ in 0..100 {
        if stats.completed + stats.errors == stats.requests {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        stats = handle.stats();
    }
    assert_eq!(stats.requests, (clients * 5) as u64);
    assert!(stats.sheds > 0, "capacity 1 under 8 clients must shed: {stats:?}");
    assert_eq!(
        stats.completed + stats.errors,
        stats.requests,
        "every request terminates: {stats:?}"
    );
    assert_eq!(stats.sheds, stats.errors, "sheds are the only errors: {stats:?}");
    handle.shutdown();
}

/// A per-connection deadline expires mid-query (channel delays armed so
/// the revolution cannot beat the clock) and surfaces as `ERR DEADLINE`;
/// clearing the deadline restores normal service on the same connection.
#[test]
fn deadline_expires_as_typed_frame_and_clears() {
    let _guard = fault::test_guard();
    fault::disarm();
    let db = build_db(ExecutionMode::Gqp, 0.002, None);
    let sql = SsbTemplate::Q4_1
        .sql(db.catalog(), &TemplateParams::variant(0))
        .expect("sql");
    let expected = library_rows(&db, &sql);
    let handle = qs_server::serve(db, "127.0.0.1:0").expect("serve");

    // Every CJOIN channel send sleeps: the revolution takes many batches,
    // so a 1 ms budget cannot win.
    fault::arm(
        11,
        &[
            ("cjoin.chan.delay", fault::FaultSpec::prob(1.0)),
            ("cjoin.dim.chan.delay", fault::FaultSpec::prob(1.0)),
            ("cjoin.fanout.chan.delay", fault::FaultSpec::prob(1.0)),
        ],
    );
    let mut cl = Client::connect(handle.addr());
    cl.send(".deadline_ms 1");
    assert_eq!(cl.read_line(), "OK deadline_ms 1");
    match cl.query(&sql) {
        Outcome::Err(kind, retry, _) => {
            assert_eq!(kind, "DEADLINE");
            assert_eq!(retry, "-", "only SHED carries a retry-after");
        }
        Outcome::Rows(_) => panic!("1 ms deadline under armed delays must expire"),
    }
    fault::disarm();

    // Same connection, deadline cleared: full result again.
    cl.send(".deadline_ms 0");
    assert_eq!(cl.read_line(), "OK deadline_ms 0");
    match cl.query(&sql) {
        Outcome::Rows(rows) => assert_eq!(rows, expected),
        Outcome::Err(kind, _, msg) => panic!("clean rerun failed: {kind} {msg}"),
    }
    handle.shutdown();
}

/// A client that vanishes mid-stream (connection dropped between ROW
/// frames) must not hurt the server: its query is cancelled, the
/// listener lives, and fresh connections get exact results.
#[test]
fn client_disconnect_mid_stream_cancels_and_server_survives() {
    let _guard = fault::test_guard();
    fault::disarm();
    let db = build_db(ExecutionMode::GqpSp, 0.002, None);
    let handle = qs_server::serve(db.clone(), "127.0.0.1:0").expect("serve");
    let addr = handle.addr();

    // A wide selective scan: thousands of ROW frames, far beyond the
    // socket buffers, so the server must still be writing when the client
    // walks away.
    let big = "SELECT lo_orderkey, lo_quantity, lo_discount FROM lineorder WHERE lo_quantity < 40";
    {
        let mut cl = Client::connect(addr);
        cl.send(big);
        let first = cl.read_line();
        assert!(first.starts_with("SCHEMA "), "got {first}");
        let row = cl.read_line();
        assert!(row.starts_with("ROW "), "got {row}");
        // Drop the connection with most of the stream unread.
    }

    // The abandoned query is cancelled, not leaked: a fresh client gets
    // oracle-exact results for the same and for other statements.
    let sql = SsbTemplate::Q1_1
        .sql(db.catalog(), &TemplateParams::variant(0))
        .expect("sql");
    let expected = library_rows(&db, &sql);
    let mut cl = Client::connect(addr);
    match cl.query(&sql) {
        Outcome::Rows(rows) => assert_eq!(rows, expected),
        Outcome::Err(kind, _, msg) => panic!("post-disconnect query failed: {kind} {msg}"),
    }

    // Cancellation is observable (either the ticket noticed the write
    // failure, or it drained before the OS surfaced the close — both are
    // legal; the hard invariant is the listener surviving, shown above).
    let stats = handle.stats();
    assert!(stats.connections >= 2, "{stats:?}");
    handle.shutdown();
}

/// Adversarial input over the wire: every historical panic site and a
/// pile of junk produce typed `PARSE`/`BIND`/`PROTO` frames on a
/// connection that stays usable; an unbounded line is refused.
#[test]
fn adversarial_sql_gets_typed_frames_and_connection_survives() {
    let _guard = fault::test_guard();
    fault::disarm();
    let db = build_db(ExecutionMode::GqpSp, 0.0005, None);
    let handle = qs_server::serve(db.clone(), "127.0.0.1:0").expect("serve");
    let addr = handle.addr();

    let adversarial = [
        "SELECT",
        "SELECT FROM",
        "SELECT SUM( FROM lineorder",
        "SELECT * FROM",
        "(((((",
        "SELECT )))) FROM lineorder",
        "FROM lineorder SELECT *",
        "SELECT 'unterminated FROM lineorder",
        "SELECT \u{0}\u{0}\u{0}",
        "SELECT lo_orderkey FROM no_such_table",
        "SELECT no_such_col FROM lineorder",
        "SELECT SUM(lo_revenue), lo_orderkey FROM lineorder",
    ];

    let mut cl = Client::connect(addr);
    for sql in adversarial {
        match cl.query(sql) {
            Outcome::Err(kind, retry, msg) => {
                assert!(
                    kind == "PARSE" || kind == "BIND" || kind == "PLAN",
                    "hostile input must fail typed, got {kind} {msg} for {sql:?}"
                );
                assert_eq!(retry, "-");
            }
            Outcome::Rows(_) => panic!("hostile input unexpectedly succeeded: {sql:?}"),
        }
    }
    // Unknown meta command: typed PROTO, connection still usable.
    cl.send(".selfdestruct");
    assert!(cl.read_line().starts_with("ERR PROTO "));

    // The same connection still serves real queries after the abuse.
    let sql = SsbTemplate::Q1_1
        .sql(db.catalog(), &TemplateParams::variant(0))
        .expect("sql");
    let expected = library_rows(&db, &sql);
    match cl.query(&sql) {
        Outcome::Rows(rows) => assert_eq!(rows, expected),
        Outcome::Err(kind, _, msg) => panic!("post-abuse query failed: {kind} {msg}"),
    }

    // A line past MAX_LINE_BYTES is refused with PROTO and the connection
    // closed — but the listener accepts the next client fine.
    let mut hostile = Client::connect(addr);
    let long = "x".repeat(qs_server::MAX_LINE_BYTES + 10);
    hostile.send(&long);
    assert!(hostile.read_line().starts_with("ERR PROTO "));
    let mut fresh = Client::connect(addr);
    fresh.send(".ping");
    assert_eq!(fresh.read_line(), "PONG");

    assert_eq!(handle.stats().panics_contained, 0, "typed errors, not contained panics");
    handle.shutdown();
}

/// Failpoint round over the wire, arming the NEW mid-chain injection
/// sites (dim-stage and fan-out channel sends): active queries abort with
/// typed frames naming the failpoint, the pipeline's slot accounting
/// survives (fresh admissions work after disarm), and the listener never
/// dies.
#[test]
fn mid_chain_failpoints_abort_typed_and_pipeline_recovers() {
    let _guard = fault::test_guard();
    fault::disarm();
    let db = build_db(ExecutionMode::Gqp, 0.002, None);
    let sql = SsbTemplate::Q2_1
        .sql(db.catalog(), &TemplateParams::variant(0))
        .expect("sql");
    let expected = library_rows(&db, &sql);
    let handle = qs_server::serve(db.clone(), "127.0.0.1:0").expect("serve");
    let addr = handle.addr();

    for point in ["cjoin.dim.chan.abort", "cjoin.fanout.chan.abort"] {
        fault::arm(23, &[(point, fault::FaultSpec::prob(1.0))]);
        let mut cl = Client::connect(addr);
        match cl.query(&sql) {
            Outcome::Err(kind, _, msg) => {
                assert_eq!(kind, "ABORTED", "{point}: wrong kind ({msg})");
                assert!(msg.contains(point), "{point}: abort frame must name it: {msg}");
            }
            Outcome::Rows(_) => panic!("{point}: armed abort must fail the query"),
        }
        fault::disarm();

        // Slot accounting survived the mid-chain abort: several fresh
        // admissions on the same pipeline run to completion, exact.
        for _ in 0..3 {
            match cl.query(&sql) {
                Outcome::Rows(rows) => assert_eq!(rows, expected, "{point}: post-abort rerun"),
                Outcome::Err(kind, _, msg) => {
                    panic!("{point}: pipeline did not recover: {kind} {msg}")
                }
            }
        }
    }
    assert!(handle.stats().errors >= 2, "one typed error per armed point");
    handle.shutdown();
}
