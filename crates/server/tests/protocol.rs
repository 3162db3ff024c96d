//! Protocol robustness and end-to-end behavior of `dram-serve`: every
//! malformed-input class answers a 4xx without crashing the server,
//! concurrent clients get byte-identical bodies to direct library
//! evaluation, every response carries a unique `x-request-id`, slow
//! clients hit the request deadline, and graceful shutdown drains
//! accepted work.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dram_core::Dram;
use dram_server::client::{self, Connection, Reply, Request};
use dram_server::{route_serve, serve, Limits, RouterConfig, ServerConfig, ServerHandle};

fn start(threads: usize) -> ServerHandle {
    serve(
        "127.0.0.1:0",
        ServerConfig {
            threads,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral")
}

const TIMEOUT: Duration = Duration::from_secs(30);

/// Sends raw bytes on a fresh connection and reads the reply with the
/// client's reader.
fn raw(addr: SocketAddr, bytes: &[u8]) -> Reply {
    let mut conn = Connection::open(addr, TIMEOUT).expect("connect");
    conn.stream().write_all(bytes).expect("send");
    conn.read_reply().expect("reply")
}

/// Issues a well-formed request on a fresh connection.
fn exchange(addr: SocketAddr, request: Request<'_>) -> Reply {
    client::call(addr, &request, TIMEOUT).expect("call")
}

#[test]
fn malformed_request_line_is_400() {
    let server = start(2);
    for garbage in [
        "WHAT\r\n\r\n",
        "GET\r\n\r\n",
        "GET /healthz\r\n\r\n",
        "get /healthz HTTP/1.1\r\n\r\n",
        "GET healthz HTTP/1.1\r\n\r\n",
        "GET /healthz SMTP/1.1\r\n\r\n",
    ] {
        let reply = raw(server.local_addr(), garbage.as_bytes());
        assert_eq!(reply.status, 400, "{garbage:?} -> {reply:?}");
    }
    // The server is still alive and serving.
    let status = exchange(server.local_addr(), Request::get("/healthz")).status;
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn oversized_body_is_413_before_read() {
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            limits: Limits {
                max_body: 256,
                ..Limits::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    // Declared oversized: rejected from the header alone, no body sent.
    let reply = raw(
        server.local_addr(),
        b"POST /v1/evaluate HTTP/1.1\r\ncontent-length: 1000000\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(reply.status, 413, "{reply:?}");
    let status = exchange(server.local_addr(), Request::get("/healthz")).status;
    assert_eq!(status, 200, "server survived the oversized request");
    server.shutdown();
}

#[test]
fn oversized_headers_are_431() {
    let server = start(1);
    let huge = format!(
        "GET /healthz HTTP/1.1\r\nx-filler: {}\r\n\r\n",
        "a".repeat(64 * 1024)
    );
    let reply = raw(server.local_addr(), huge.as_bytes());
    assert_eq!(reply.status, 431, "{reply:?}");
    server.shutdown();
}

#[test]
fn unknown_route_is_404_and_wrong_method_is_405() {
    let server = start(1);
    let reply = exchange(server.local_addr(), Request::get("/v2/evaluate"));
    let (status, body) = (reply.status, reply.text());
    assert_eq!(status, 404);
    assert!(body.contains("no such route"), "{body}");
    let status = exchange(server.local_addr(), Request::new("DELETE", "/v1/evaluate")).status;
    assert_eq!(status, 405);
    let status = exchange(server.local_addr(), Request::new("POST", "/metrics")).status;
    assert_eq!(status, 405);
    server.shutdown();
}

#[test]
fn truncated_json_is_400() {
    let server = start(1);
    let truncated = r#"{"preset": "ddr3_1g"#;
    let reply = exchange(
        server.local_addr(),
        Request::post("/v1/evaluate", truncated),
    );
    let (status, body) = (reply.status, reply.text());
    assert_eq!(status, 400);
    assert!(body.contains("invalid JSON"), "{body}");
    // Body shorter than content-length (client hangs up mid-body).
    let mut conn = Connection::open(server.local_addr(), TIMEOUT).expect("connect");
    conn.stream()
        .write_all(b"POST /v1/evaluate HTTP/1.1\r\ncontent-length: 500\r\n\r\n{\"preset\":")
        .expect("send");
    conn.stream()
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let reply = conn.read_reply().expect("reply");
    assert_eq!(reply.status, 400, "{reply:?}");
    server.shutdown();
}

/// The acceptance-criteria core: N concurrent clients against a 1-thread
/// and an 8-thread server all receive bodies byte-identical to a direct
/// library evaluation of the same description.
#[test]
fn concurrent_clients_get_bit_identical_library_results() {
    let preset = "ddr3_1g_x16_55nm";
    let expected = {
        let dram = Dram::new(dram_core::reference::ddr3_1g_x16_55nm()).expect("builds");
        dram_server::api::evaluate_document(&dram).to_string()
    };
    for threads in [1, 8] {
        let server = start(threads);
        let addr = server.local_addr();
        let bodies: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    s.spawn(move || {
                        let body = format!(r#"{{"preset":"{preset}"}}"#);
                        let reply = exchange(addr, Request::post("/v1/evaluate", &body));
                        let body = reply.text().into_owned();
                        assert_eq!(reply.status, 200, "{body}");
                        body
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        for body in &bodies {
            assert_eq!(
                body, &expected,
                "served body diverged from library output at {threads} server threads"
            );
        }
        server.shutdown();
    }
}

#[test]
fn graceful_shutdown_drains_accepted_connections() {
    let server = start(2);
    let addr = server.local_addr();
    const CLIENTS: usize = 8;

    // Open connections and send complete requests, but don't read yet.
    let mut conns: Vec<Connection> = (0..CLIENTS)
        .map(|_| {
            let mut conn = Connection::open(addr, TIMEOUT).expect("connect");
            conn.send(&Request::post("/v1/evaluate", r#"{"preset":"ddr3_1g_55nm"}"#).close())
                .expect("send");
            conn
        })
        .collect();

    // Wait until the accept loop has taken ownership of every
    // connection, so shutdown is obliged to drain them.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.accepted() < CLIENTS as u64 {
        assert!(std::time::Instant::now() < deadline, "accept stalled");
        std::thread::sleep(Duration::from_millis(5));
    }

    let served = server.shutdown();
    assert!(
        served >= CLIENTS as u64,
        "shutdown dropped in-flight requests: served {served} of {CLIENTS}"
    );

    // Every already-accepted client still gets a complete 200.
    for conn in &mut conns {
        let reply = conn.read_reply().expect("drained response");
        assert_eq!(reply.status, 200, "{reply:?}");
        assert!(reply.text().contains("idd_ma"), "{reply:?}");
    }

    // And the listener is really gone: new connections fail.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener still accepting after shutdown"
    );
}

#[test]
fn metrics_reflect_served_traffic_and_cache() {
    let server = start(2);
    let addr = server.local_addr();
    let status = exchange(
        addr,
        Request::post("/v1/evaluate", r#"{"preset":"ddr2_1g_75nm"}"#),
    )
    .status;
    assert_eq!(status, 200);
    let status = exchange(
        addr,
        Request::post("/v1/evaluate", r#"{"preset":"ddr2_1g_75nm"}"#),
    )
    .status;
    assert_eq!(status, 200);
    let status = exchange(addr, Request::get("/nope")).status;
    assert_eq!(status, 404);

    let reply = exchange(addr, Request::get("/metrics"));
    let (status, body) = (reply.status, reply.text());
    assert_eq!(status, 200);
    let doc = dram_units::json::Value::parse(&body).expect("metrics is valid JSON");
    let by_route = doc.get("requests_by_route").expect("routes");
    let evaluate = by_route.get("evaluate").and_then(|v| v.as_f64()).unwrap();
    assert!(evaluate >= 2.0, "{body}");
    assert!(doc.get("responses_4xx").and_then(|v| v.as_f64()).unwrap() >= 1.0);
    // The global engine saw this preset twice: the second hit the cache.
    let engine = doc.get("engine").expect("engine");
    assert!(engine.get("cache_hits").and_then(|v| v.as_f64()).unwrap() >= 1.0);
    assert!(engine.get("threads").and_then(|v| v.as_f64()).unwrap() >= 1.0);
    let hist = doc.get("latency_histogram").expect("histogram");
    let counts: f64 = hist
        .get("counts")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .filter_map(|v| v.as_f64())
        .sum();
    // The /metrics request itself is recorded after its response body is
    // built, so it is not yet in its own histogram.
    assert!(counts >= 3.0, "{body}");
    server.shutdown();
}

/// The tracing acceptance criterion: every response — 200, 4xx, even the
/// accept-loop backpressure 503 — carries an `x-request-id`, and ids
/// never repeat.
#[test]
fn every_response_carries_a_unique_request_id() {
    let server = start(2);
    let addr = server.local_addr();
    let mut ids = HashSet::new();
    let replies = [
        exchange(
            addr,
            Request::post("/v1/evaluate", r#"{"preset":"ddr2_1g_75nm"}"#),
        ),
        exchange(addr, Request::get("/healthz")),
        exchange(addr, Request::get("/nope")),
        raw(addr, b"WHAT\r\n\r\n"),
    ];
    for reply in &replies {
        let id = reply
            .header("x-request-id")
            .unwrap_or_else(|| panic!("response without x-request-id: {reply:?}"));
        assert!(ids.insert(id.to_string()), "id `{id}` repeated: {reply:?}");
    }
    server.shutdown();

    // The backpressure 503 answered by the accept loop itself is also
    // identified, with an id from the same sequence space.
    let shedder = serve(
        "127.0.0.1:0",
        ServerConfig {
            queue_depth: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let reply = exchange(shedder.local_addr(), Request::get("/healthz"));
    assert_eq!(reply.status, 503, "{reply:?}");
    // Ids are unique per server (the counter is per [`RequestIdSource`]),
    // so only presence is asserted across instances.
    assert!(
        reply.header("x-request-id").is_some(),
        "503 carries an id: {reply:?}"
    );
    shedder.shutdown();
}

/// Slowloris regression: a client trickling one byte at a time used to
/// reset the 5 s socket timeout on every byte, holding a worker for up
/// to `max_head × io_timeout`. The overall request deadline now answers
/// 408 within bound no matter how diligently the client trickles.
#[test]
fn trickling_client_gets_408_at_the_request_deadline() {
    let deadline = Duration::from_millis(600);
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            limits: Limits {
                request_deadline: deadline,
                ..Limits::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let started = Instant::now();
    let mut conn = Connection::open(server.local_addr(), Duration::from_secs(10)).expect("connect");
    // Trickle a plausible request head one byte at a time, far slower
    // than it completes but fast enough to keep resetting a per-read
    // timeout. The server must cut us off at the deadline regardless.
    let head = b"GET /healthz HTTP/1.1\r\nhost: trickle\r\n\r\n";
    for byte in head {
        if conn.stream().write_all(std::slice::from_ref(byte)).is_err() {
            break; // server already answered and closed
        }
        std::thread::sleep(Duration::from_millis(100));
        if started.elapsed() > Duration::from_secs(5) {
            break;
        }
    }
    let reply = conn.read_reply().expect("reply");
    let elapsed = started.elapsed();
    assert_eq!(
        reply.status, 408,
        "wanted 408 for the trickling client, got: {reply:?}"
    );
    assert!(
        reply.header("x-request-id").is_some(),
        "408 carries an id: {reply:?}"
    );
    assert!(
        elapsed < deadline + Duration::from_secs(2),
        "worker was held {elapsed:?}, deadline is {deadline:?}"
    );

    // The worker is free again: a normal request succeeds promptly.
    let status = exchange(server.local_addr(), Request::get("/healthz")).status;
    assert_eq!(status, 200);
    server.shutdown();
}

/// A connect-then-close port probe must produce no response bytes and
/// must not count as traffic anywhere: no route counter, no 4xx, no
/// slow-request sample.
#[test]
fn silent_probe_writes_nothing_and_counts_nothing() {
    let server = start(1);
    let addr = server.local_addr();
    for _ in 0..3 {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut received = Vec::new();
        s.read_to_end(&mut received).expect("read");
        assert!(
            received.is_empty(),
            "probe got {} response bytes: {:?}",
            received.len(),
            String::from_utf8_lossy(&received)
        );
    }
    // Give the workers a moment to finish the probe connections, then
    // serve one real request and read the metrics.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.accepted() < 3 {
        assert!(Instant::now() < deadline, "accept stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    let reply = exchange(addr, Request::get("/metrics"));
    let (status, body) = (reply.status, reply.text());
    assert_eq!(status, 200);
    let doc = dram_units::json::Value::parse(&body).expect("metrics JSON");
    let by_route = doc.get("requests_by_route").expect("routes");
    assert_eq!(
        by_route.get("other").and_then(|v| v.as_f64()),
        Some(0.0),
        "probes leaked into the `other` counter: {body}"
    );
    assert_eq!(
        doc.get("responses_4xx").and_then(|v| v.as_f64()),
        Some(0.0),
        "{body}"
    );
    let slow_other = doc
        .get("slow_requests")
        .and_then(|s| s.get("other"))
        .and_then(|v| v.as_array())
        .expect("slow_requests.other");
    assert!(
        slow_other.is_empty(),
        "probes produced slow samples: {body}"
    );
    server.shutdown();
}

/// Conflicting or malformed `Content-Length` framing is rejected before
/// any body handling; agreeing duplicates and surrounding whitespace are
/// tolerated per RFC 9110.
#[test]
fn content_length_smuggling_vectors_are_rejected() {
    let server = start(1);
    let addr = server.local_addr();
    let cases: [(&[u8], u16); 6] = [
        // Conflicting duplicates → 400.
        (
            b"POST /v1/evaluate HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 3\r\nconnection: close\r\n\r\n{}x",
            400,
        ),
        // Agreeing duplicates → accepted (body parse then fails → 400
        // from JSON, but framing is fine; use healthz to see the 200).
        (
            b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: 0\r\nconnection: close\r\n\r\n",
            200,
        ),
        // Whitespace around the value is legal OWS.
        (
            b"GET /healthz HTTP/1.1\r\ncontent-length:   0  \r\nconnection: close\r\n\r\n",
            200,
        ),
        // Whitespace before the colon is a smuggling vector → 400.
        (
            b"GET /healthz HTTP/1.1\r\ncontent-length : 0\r\nconnection: close\r\n\r\n",
            400,
        ),
        // A signed value is not HTTP → 400.
        (
            b"POST /v1/evaluate HTTP/1.1\r\ncontent-length: +2\r\nconnection: close\r\n\r\n{}",
            400,
        ),
        // Internal whitespace → 400.
        (
            b"POST /v1/evaluate HTTP/1.1\r\ncontent-length: 1 2\r\nconnection: close\r\n\r\n{}",
            400,
        ),
    ];
    for (bytes, want) in cases {
        let reply = raw(addr, bytes);
        assert_eq!(
            reply.status,
            want,
            "{} -> {reply:?}",
            String::from_utf8_lossy(bytes)
        );
    }
    server.shutdown();
}

/// `/v1/batch` answers N evaluate requests in one connection; each
/// result is byte-identical to the corresponding single `/v1/evaluate`
/// body, and per-item errors don't fail their neighbours.
#[test]
fn batch_results_are_bit_identical_to_single_calls() {
    let presets = ["ddr3_1g_x16_55nm", "ddr2_1g_75nm", "ddr3_2g_55nm"];
    for threads in [1, 8] {
        let server = start(threads);
        let addr = server.local_addr();

        let singles: Vec<String> = presets
            .iter()
            .map(|p| {
                let body = format!(r#"{{"preset":"{p}"}}"#);
                let reply = exchange(addr, Request::post("/v1/evaluate", &body));
                let body = reply.text().into_owned();
                assert_eq!(reply.status, 200, "{body}");
                body
            })
            .collect();

        let items: Vec<String> = presets
            .iter()
            .map(|p| format!(r#"{{"preset":"{p}"}}"#))
            .collect();
        let batch_body = format!(
            r#"{{"requests":[{},{{"preset":"bogus"}}]}}"#,
            items.join(",")
        );
        let reply = exchange(addr, Request::post("/v1/batch", &batch_body));
        let (status, body) = (reply.status, reply.text());
        assert_eq!(status, 200, "{body}");
        let doc = dram_units::json::Value::parse(&body).expect("batch JSON");
        let results = doc.get("results").and_then(|v| v.as_array()).unwrap();
        assert_eq!(results.len(), presets.len() + 1);
        for (i, single) in singles.iter().enumerate() {
            assert_eq!(
                &results[i].to_string(),
                single,
                "batch item {i} diverged from the single call at {threads} threads"
            );
        }
        assert!(
            results[presets.len()]
                .get("error")
                .and_then(|v| v.as_str())
                .is_some_and(|e| e.contains("unknown preset")),
            "{body}"
        );
        server.shutdown();
    }
}

/// After traffic, `/metrics` exposes per-route slow-request samples that
/// carry the ids the clients saw on the wire.
#[test]
fn metrics_slow_samples_correlate_with_response_ids() {
    let server = start(2);
    let addr = server.local_addr();
    let mut seen_ids = HashSet::new();
    for _ in 0..3 {
        let evaluate = Request::post("/v1/evaluate", r#"{"preset":"ddr3_1g_x16_55nm"}"#);
        let reply = exchange(addr, evaluate);
        assert_eq!(reply.status, 200, "{reply:?}");
        seen_ids.insert(reply.header("x-request-id").expect("id header").to_string());
    }
    let reply = exchange(addr, Request::get("/metrics"));
    let (status, body) = (reply.status, reply.text());
    assert_eq!(status, 200);
    let doc = dram_units::json::Value::parse(&body).expect("metrics JSON");
    let samples = doc
        .get("slow_requests")
        .and_then(|s| s.get("evaluate"))
        .and_then(|v| v.as_array())
        .expect("slow_requests.evaluate");
    assert!(!samples.is_empty(), "no slow samples after traffic: {body}");
    for s in samples {
        let id = s.get("id").and_then(|v| v.as_str()).expect("sample id");
        assert!(
            seen_ids.contains(id),
            "sample id `{id}` never seen on the wire: {body}"
        );
        assert!(
            s.get("queue_us").and_then(|v| v.as_f64()).is_some(),
            "{body}"
        );
        assert!(
            s.get("handle_us").and_then(|v| v.as_f64()).is_some(),
            "{body}"
        );
        // Warm or cold, exactly one model lookup per evaluate request.
        let hits = s.get("cache_hits").and_then(|v| v.as_f64()).unwrap();
        let misses = s.get("cache_misses").and_then(|v| v.as_f64()).unwrap();
        assert_eq!(hits + misses, 1.0, "{body}");
    }
    server.shutdown();
}

/// `/metrics` over the wire in both formats: the JSON document with an
/// explicit `application/json` content type, and the Prometheus text
/// exposition behind `?format=prometheus` (and Accept negotiation) with
/// the versioned `text/plain` content type.
#[test]
fn metrics_serves_both_json_and_prometheus_formats() {
    let server = start(2);
    let addr = server.local_addr();
    let status = exchange(
        addr,
        Request::post("/v1/evaluate", r#"{"preset":"ddr2_1g_75nm"}"#),
    )
    .status;
    assert_eq!(status, 200);

    // Default: JSON, explicitly typed.
    let reply = exchange(addr, Request::get("/metrics"));
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.header("content-type"),
        Some("application/json"),
        "{reply:?}"
    );
    assert!(
        dram_units::json::Value::parse(&reply.text()).is_ok(),
        "{reply:?}"
    );

    // Query-selected Prometheus exposition.
    let reply = exchange(addr, Request::get("/metrics?format=prometheus"));
    let (status, prom) = (reply.status, reply.text());
    assert_eq!(status, 200);
    assert_eq!(
        reply.header("content-type"),
        Some("text/plain; version=0.0.4"),
        "{reply:?}"
    );
    for family in [
        "# TYPE dram_serve_requests_total counter",
        "# TYPE dram_serve_handle_seconds histogram",
        "# TYPE dram_serve_uptime_seconds gauge",
        "dram_serve_build_info{version=",
        "dram_engine_cache_hits_total",
        "dram_serve_handle_seconds_bucket{le=\"+Inf\"}",
    ] {
        assert!(prom.contains(family), "missing `{family}` in:\n{prom}");
    }
    // The evaluate request this test made is visible in the route family.
    assert!(
        prom.contains("dram_serve_route_requests_total{route=\"evaluate\"} 1"),
        "{prom}"
    );

    // Accept-header negotiation selects Prometheus without a query.
    let reply = exchange(
        addr,
        Request::get("/metrics").header("accept", "text/plain"),
    );
    assert_eq!(
        reply.header("content-type"),
        Some("text/plain; version=0.0.4"),
        "{reply:?}"
    );

    // Unknown formats are a 400, not a silent default.
    let reply = exchange(addr, Request::get("/metrics?format=yaml"));
    let (status, body) = (reply.status, reply.text());
    assert_eq!(status, 400);
    assert!(body.contains("unknown metrics format"), "{body}");
    server.shutdown();
}

/// A `/v1/sweep` runs through the engine's differential fast path, and
/// the rebuild counters it drives are visible on `/metrics` in both the
/// JSON document (`registry` section) and the Prometheus exposition.
#[test]
fn sweep_drives_rebuild_counters_onto_both_metrics_formats() {
    let server = start(2);
    let addr = server.local_addr();
    let sweep = r#"{"preset":"ddr3_1g_x16_55nm","top":5}"#;
    let reply = exchange(addr, Request::post("/v1/sweep", sweep));
    let (status, body) = (reply.status, reply.text());
    assert_eq!(status, 200, "{body}");

    let reply = exchange(addr, Request::get("/metrics"));
    let (status, body) = (reply.status, reply.text());
    assert_eq!(status, 200);
    let doc = dram_units::json::Value::parse(&body).expect("metrics JSON parses");
    let registry = doc.get("registry").expect("registry section");
    let rebuilds = registry
        .get("dram_model_rebuilds_total")
        .and_then(|v| v.as_f64())
        .expect("rebuild counter exported");
    let skipped = registry
        .get("dram_rebuild_phases_skipped_total")
        .and_then(|v| v.as_f64())
        .expect("skipped-phase counter exported");
    // 38 params × up/down, every one a differential rebuild; each skips
    // at least one build phase.
    assert!(rebuilds >= 76.0, "rebuilds {rebuilds}");
    assert!(
        skipped >= rebuilds,
        "skipped {skipped} < rebuilds {rebuilds}"
    );

    let reply = exchange(addr, Request::get("/metrics?format=prometheus"));
    let (status, prom) = (reply.status, reply.text());
    assert_eq!(status, 200);
    for family in [
        "# TYPE dram_model_rebuilds_total counter",
        "# TYPE dram_rebuild_phases_skipped_total counter",
    ] {
        assert!(prom.contains(family), "missing `{family}` in:\n{prom}");
    }
    // The exported samples carry the same non-zero counts.
    let sample = prom
        .lines()
        .find_map(|l| l.strip_prefix("dram_model_rebuilds_total "))
        .expect("rebuild sample line");
    assert!(
        sample.trim().parse::<f64>().expect("numeric") >= 76.0,
        "{sample}"
    );
    server.shutdown();
}

#[test]
fn sweep_and_pattern_roundtrip_over_the_wire() {
    let server = start(4);
    let addr = server.local_addr();
    let pattern = r#"{"preset":"ddr3_1g_x16_55nm","pattern":"act nop wrt nop rd nop pre nop"}"#;
    let reply = exchange(addr, Request::post("/v1/pattern", pattern));
    let (status, body) = (reply.status, reply.text());
    assert_eq!(status, 200, "{body}");
    let doc = dram_units::json::Value::parse(&body).unwrap();
    assert!(doc.get("power_w").and_then(|v| v.as_f64()).unwrap() > 0.0);

    let sweep = r#"{"preset":"ddr3_1g_x16_55nm","top":3}"#;
    let reply = exchange(addr, Request::post("/v1/sweep", sweep));
    let (status, body) = (reply.status, reply.text());
    assert_eq!(status, 200, "{body}");
    let doc = dram_units::json::Value::parse(&body).unwrap();
    assert_eq!(
        doc.get("entries").and_then(|v| v.as_array()).unwrap().len(),
        3
    );
    server.shutdown();
}

/// Every JSON key path of `doc` in document order, with the kind of its
/// value. Array elements descend as `path[]`; a path/kind pair is listed
/// once, where it first appears.
fn json_schema(doc: &dram_units::json::Value) -> Vec<String> {
    use dram_units::json::Value;
    fn walk(path: &str, v: &Value, out: &mut Vec<String>) {
        let kind = match v {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        };
        let entry = format!("{path}: {kind}");
        if !path.is_empty() && !out.contains(&entry) {
            out.push(entry);
        }
        match v {
            Value::Obj(members) => {
                for (k, child) in members {
                    let child_path = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    walk(&child_path, child, out);
                }
            }
            Value::Arr(items) => {
                for child in items {
                    walk(&format!("{path}[]"), child, out);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk("", doc, &mut out);
    out
}

/// Every `# HELP`/`# TYPE` line of a Prometheus exposition, plus each
/// sample's name with its label *names*, as a set.
fn prom_schema(text: &str) -> std::collections::BTreeSet<String> {
    text.lines()
        .map(|line| {
            if line.starts_with('#') {
                return line.to_string();
            }
            let series = line.split(' ').next().expect("sample name");
            match series.split_once('{') {
                Some((name, labels)) => {
                    let names: Vec<&str> = labels
                        .trim_end_matches('}')
                        .split(',')
                        .map(|kv| kv.split('=').next().expect("label name"))
                        .collect();
                    format!("{name}{{{}}}", names.join(","))
                }
                None => series.to_string(),
            }
        })
        .collect()
}

fn metrics_json(addr: SocketAddr) -> dram_units::json::Value {
    let reply = exchange(addr, Request::get("/metrics?format=json"));
    assert_eq!(reply.status, 200, "{reply:?}");
    dram_units::json::Value::parse(&reply.text()).expect("metrics JSON parses")
}

fn metrics_prom(addr: SocketAddr) -> std::collections::BTreeSet<String> {
    let reply = exchange(addr, Request::get("/metrics?format=prometheus"));
    assert_eq!(reply.status, 200, "{reply:?}");
    prom_schema(&reply.text())
}

/// The `/metrics` schema of `dram-serve` and `dram-route`, pinned: every
/// JSON key path (in document order, with its value's kind) and every
/// Prometheus family header and sample series shape. One request per
/// route first, so each slow-request table and each process-wide
/// registry family the routes register is present.
#[test]
fn metrics_schema_is_pinned_for_server_and_router() {
    let server = start(2);
    let addr = server.local_addr();
    let trace = "!policy aggressive\n0 act 0\n6 rd 0\n10 pre 0\n500 pde\n2500 pdx\n4000 sre\n60000 srx\n!length 100000\n";
    let batch = r#"{"requests":[{"preset":"ddr3_1g_x16_55nm"}]}"#;
    let pattern = r#"{"preset":"ddr3_1g_x16_55nm","pattern":"act nop rd nop pre nop"}"#;
    for (request, want) in [
        (Request::get("/healthz"), 200),
        (Request::get("/v1/presets"), 200),
        (
            Request::post("/v1/evaluate", r#"{"preset":"ddr3_1g_x16_55nm"}"#),
            200,
        ),
        (Request::post("/v1/evaluate", r#"{"description":"x"}"#), 400),
        (Request::post("/v1/batch", batch), 200),
        (Request::post("/v1/pattern", pattern), 200),
        (
            Request::post("/v1/sweep", r#"{"preset":"ddr3_1g_x16_55nm","top":2}"#),
            200,
        ),
        (
            Request::post("/v1/trace?preset=ddr3_1g_x16_55nm", trace),
            200,
        ),
        (Request::get("/metrics"), 200),
        (Request::get("/debug/reactor"), 200),
        (Request::get("/no-such-route"), 404),
    ] {
        let reply = exchange(addr, request);
        assert_eq!(reply.status, want, "{reply:?}");
    }
    let router = route_serve(
        "127.0.0.1:0",
        RouterConfig {
            nodes: vec![addr.to_string()],
            scrape_timeout: Duration::from_secs(10),
            ..RouterConfig::default()
        },
    )
    .expect("bind router");
    let raddr = router.local_addr();
    let reply = exchange(
        raddr,
        Request::post("/v1/evaluate", r#"{"preset":"ddr3_1g_x16_55nm"}"#),
    );
    assert_eq!(reply.status, 200, "{reply:?}");

    assert_eq!(json_schema(&metrics_json(addr)), expected_serve_json());
    assert_eq!(metrics_prom(addr), strings(SERVE_PROM));
    assert_eq!(json_schema(&metrics_json(raddr)), ROUTE_JSON);
    let route_prom = metrics_prom(raddr);
    assert_eq!(route_prom, strings(ROUTE_PROM));

    // A router whose every backend is stale (never scraped) still writes
    // every family header; only the scraped backend samples and their
    // JSON fields are missing.
    let dead = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let dead_addr = dead.local_addr().expect("addr");
    drop(dead);
    let stale = route_serve(
        "127.0.0.1:0",
        RouterConfig {
            nodes: vec![dead_addr.to_string()],
            scrape_timeout: Duration::from_millis(200),
            ..RouterConfig::default()
        },
    )
    .expect("bind router");
    let scraped = [
        "dram_route_backend_requests_total{node}",
        "dram_route_backend_cache_hits_total{node}",
        "dram_route_backend_cache_misses_total{node}",
    ];
    let mut want = route_prom;
    want.retain(|line| !scraped.contains(&line.as_str()));
    assert_eq!(metrics_prom(stale.local_addr()), want);
    let scraped = ["requests_total", "cache_hits", "cache_misses"];
    let want: Vec<&str> = ROUTE_JSON
        .iter()
        .copied()
        .filter(|row| {
            !scraped
                .iter()
                .any(|f| row.starts_with(&format!("nodes[].{f}:")))
        })
        .collect();
    assert_eq!(json_schema(&metrics_json(stale.local_addr())), want);
    stale.shutdown();
    router.shutdown();
    server.shutdown();
}

fn strings(rows: &[&str]) -> std::collections::BTreeSet<String> {
    rows.iter().map(|r| (*r).to_string()).collect()
}

/// [`SERVE_JSON`] with the slow-request table spelled out: one sample
/// per route, except `debug`, whose traffic is never sampled.
fn expected_serve_json() -> Vec<String> {
    let mut out = Vec::new();
    for row in SERVE_JSON {
        if *row == "engine: object" {
            for route in [
                "healthz", "presets", "evaluate", "batch", "pattern", "sweep", "trace", "metrics",
                "debug", "other",
            ] {
                out.push(format!("slow_requests.{route}: array"));
                if route == "debug" {
                    continue;
                }
                out.push(format!("slow_requests.{route}[]: object"));
                for field in [
                    "id: string",
                    "status: number",
                    "queue_us: number",
                    "handle_us: number",
                    "cache_hits: number",
                    "cache_misses: number",
                ] {
                    out.push(format!("slow_requests.{route}[].{field}"));
                }
            }
        }
        out.push((*row).to_string());
    }
    out
}

const SERVE_JSON: &[&str] = &[
    "uptime_seconds: number",
    "version: string",
    "requests_total: number",
    "requests_by_route: object",
    "requests_by_route.healthz: number",
    "requests_by_route.presets: number",
    "requests_by_route.evaluate: number",
    "requests_by_route.batch: number",
    "requests_by_route.pattern: number",
    "requests_by_route.sweep: number",
    "requests_by_route.trace: number",
    "requests_by_route.metrics: number",
    "requests_by_route.debug: number",
    "requests_by_route.other: number",
    "responses_4xx: number",
    "responses_5xx: number",
    "rejected_busy: number",
    "shed_load: number",
    "worker_panics: number",
    "worker_respawns: number",
    "keepalive_reuses: number",
    "pipelined_requests: number",
    "idle_closed: number",
    "retry_after_s: number",
    "latency_histogram: object",
    "latency_histogram.bucket_upper_us: array",
    "latency_histogram.bucket_upper_us[]: number",
    "latency_histogram.bucket_upper_us[]: null",
    "latency_histogram.counts: array",
    "latency_histogram.counts[]: number",
    "slow_requests: object",
    "engine: object",
    "engine.cache_hits: number",
    "engine.cache_misses: number",
    "engine.cache_entries: number",
    "engine.hit_rate: number",
    "engine.threads: number",
    "engine.error_cache_hits: number",
    "engine.error_cache_entries: number",
    "registry: object",
    "registry.dram_dsl_parses_total: number",
    "registry.dram_model_builds_total: number",
    "registry.dram_model_rebuilds_total: number",
    "registry.dram_rebuild_phases_skipped_total: number",
    "registry.dram_trace_bytes_total: number",
    "registry.dram_trace_commands_total: number",
    "registry.dram_trace_state_cycles_active_power_down_total: number",
    "registry.dram_trace_state_cycles_active_total: number",
    "registry.dram_trace_state_cycles_precharge_power_down_total: number",
    "registry.dram_trace_state_cycles_self_refresh_total: number",
    "registry.dram_trace_state_cycles_standby_total: number",
];

const SERVE_PROM: &[&str] = &[
    "# HELP dram_dsl_parses_total Description-language parses attempted.",
    "# HELP dram_engine_cache_entries Models currently cached by the shared engine.",
    "# HELP dram_engine_cache_hit_rate Fraction of engine lookups served from the cache.",
    "# HELP dram_engine_cache_hits_total Model-cache hits in the shared evaluation engine.",
    "# HELP dram_engine_cache_misses_total Model-cache misses (models built) in the shared engine.",
    "# HELP dram_engine_error_cache_entries Known-bad descriptions currently memoized by the engine.",
    "# HELP dram_engine_error_cache_hits_total Lookups answered from the engine's negative (known-bad) cache.",
    "# HELP dram_engine_threads Worker threads the shared engine evaluates with.",
    "# HELP dram_model_builds_total DRAM models built from a description (cache misses included).",
    "# HELP dram_model_rebuilds_total Differential model rebuilds (dirty phases only, base model reused).",
    "# HELP dram_rebuild_phases_skipped_total Build phases reused from the base model across differential rebuilds.",
    "# HELP dram_serve_build_info Constant 1, labeled with the crate version.",
    "# HELP dram_serve_handle_seconds Request handling latency (queue wait excluded).",
    "# HELP dram_serve_idle_closed_total Parked keep-alive connections closed by the idle-timeout sweep.",
    "# HELP dram_serve_keepalive_reuses_total Requests served on reused keep-alive connections.",
    "# HELP dram_serve_pipelined_requests_total Pipelined requests served from a connection's carry buffer.",
    "# HELP dram_serve_rejected_busy_total Connections rejected with 503 because the accept queue was full.",
    "# HELP dram_serve_requests_total Requests served, all routes.",
    "# HELP dram_serve_responses_4xx_total Responses with a 4xx status.",
    "# HELP dram_serve_responses_5xx_total Responses with a 5xx status.",
    "# HELP dram_serve_retry_after_seconds Current adaptive Retry-After advertised on 503 responses.",
    "# HELP dram_serve_route_requests_total Requests served, per route.",
    "# HELP dram_serve_shed_load_total Expensive requests shed with 503 at the shed-at watermark.",
    "# HELP dram_serve_uptime_seconds Seconds since the service started.",
    "# HELP dram_serve_worker_panics_total Request-handler panics caught and answered with 500.",
    "# HELP dram_serve_worker_respawns_total Dead worker threads replaced by the supervisor.",
    "# HELP dram_trace_bytes_total Bytes fed through streaming trace decoders.",
    "# HELP dram_trace_commands_total Commands folded from streamed traces.",
    "# HELP dram_trace_state_cycles_active_power_down_total Cycles billed to this power state across streamed traces.",
    "# HELP dram_trace_state_cycles_active_total Cycles billed to this power state across streamed traces.",
    "# HELP dram_trace_state_cycles_precharge_power_down_total Cycles billed to this power state across streamed traces.",
    "# HELP dram_trace_state_cycles_self_refresh_total Cycles billed to this power state across streamed traces.",
    "# HELP dram_trace_state_cycles_standby_total Cycles billed to this power state across streamed traces.",
    "# TYPE dram_dsl_parses_total counter",
    "# TYPE dram_engine_cache_entries gauge",
    "# TYPE dram_engine_cache_hit_rate gauge",
    "# TYPE dram_engine_cache_hits_total counter",
    "# TYPE dram_engine_cache_misses_total counter",
    "# TYPE dram_engine_error_cache_entries gauge",
    "# TYPE dram_engine_error_cache_hits_total counter",
    "# TYPE dram_engine_threads gauge",
    "# TYPE dram_model_builds_total counter",
    "# TYPE dram_model_rebuilds_total counter",
    "# TYPE dram_rebuild_phases_skipped_total counter",
    "# TYPE dram_serve_build_info gauge",
    "# TYPE dram_serve_handle_seconds histogram",
    "# TYPE dram_serve_idle_closed_total counter",
    "# TYPE dram_serve_keepalive_reuses_total counter",
    "# TYPE dram_serve_pipelined_requests_total counter",
    "# TYPE dram_serve_rejected_busy_total counter",
    "# TYPE dram_serve_requests_total counter",
    "# TYPE dram_serve_responses_4xx_total counter",
    "# TYPE dram_serve_responses_5xx_total counter",
    "# TYPE dram_serve_retry_after_seconds gauge",
    "# TYPE dram_serve_route_requests_total counter",
    "# TYPE dram_serve_shed_load_total counter",
    "# TYPE dram_serve_uptime_seconds gauge",
    "# TYPE dram_serve_worker_panics_total counter",
    "# TYPE dram_serve_worker_respawns_total counter",
    "# TYPE dram_trace_bytes_total counter",
    "# TYPE dram_trace_commands_total counter",
    "# TYPE dram_trace_state_cycles_active_power_down_total counter",
    "# TYPE dram_trace_state_cycles_active_total counter",
    "# TYPE dram_trace_state_cycles_precharge_power_down_total counter",
    "# TYPE dram_trace_state_cycles_self_refresh_total counter",
    "# TYPE dram_trace_state_cycles_standby_total counter",
    "dram_dsl_parses_total",
    "dram_engine_cache_entries",
    "dram_engine_cache_hit_rate",
    "dram_engine_cache_hits_total",
    "dram_engine_cache_misses_total",
    "dram_engine_error_cache_entries",
    "dram_engine_error_cache_hits_total",
    "dram_engine_threads",
    "dram_model_builds_total",
    "dram_model_rebuilds_total",
    "dram_rebuild_phases_skipped_total",
    "dram_serve_build_info{version}",
    "dram_serve_handle_seconds_bucket{le}",
    "dram_serve_handle_seconds_count",
    "dram_serve_handle_seconds_sum",
    "dram_serve_idle_closed_total",
    "dram_serve_keepalive_reuses_total",
    "dram_serve_pipelined_requests_total",
    "dram_serve_rejected_busy_total",
    "dram_serve_requests_total",
    "dram_serve_responses_4xx_total",
    "dram_serve_responses_5xx_total",
    "dram_serve_retry_after_seconds",
    "dram_serve_route_requests_total{route}",
    "dram_serve_shed_load_total",
    "dram_serve_uptime_seconds",
    "dram_serve_worker_panics_total",
    "dram_serve_worker_respawns_total",
    "dram_trace_bytes_total",
    "dram_trace_commands_total",
    "dram_trace_state_cycles_active_power_down_total",
    "dram_trace_state_cycles_active_total",
    "dram_trace_state_cycles_precharge_power_down_total",
    "dram_trace_state_cycles_self_refresh_total",
    "dram_trace_state_cycles_standby_total",
];

const ROUTE_JSON: &[&str] = &[
    "requests_total: number",
    "proxied_total: number",
    "retries_total: number",
    "failovers_total: number",
    "hedges_total: number",
    "hedge_wins_total: number",
    "bad_gateway_total: number",
    "poisoned_total: number",
    "stale_scrapes_total: number",
    "uptime_seconds: number",
    "backend_cache_hits_aggregate: number",
    "backend_cache_misses_aggregate: number",
    "nodes: array",
    "nodes[]: object",
    "nodes[].addr: string",
    "nodes[].up: bool",
    "nodes[].ring_points: number",
    "nodes[].routed: number",
    "nodes[].down_transitions: number",
    "nodes[].stale: bool",
    "nodes[].requests_total: number",
    "nodes[].cache_hits: number",
    "nodes[].cache_misses: number",
];

const ROUTE_PROM: &[&str] = &[
    "# HELP dram_route_backend_cache_hits_aggregate Engine cache hits summed over every reachable backend.",
    "# HELP dram_route_backend_cache_hits_total Engine cache hits scraped from this backend.",
    "# HELP dram_route_backend_cache_misses_aggregate Engine cache misses summed over every reachable backend.",
    "# HELP dram_route_backend_cache_misses_total Engine cache misses scraped from this backend.",
    "# HELP dram_route_backend_requests_total requests_total scraped from this backend (stale=1 if last scrape missed).",
    "# HELP dram_route_backend_stale Whether this backend's values are last-known (scrape missed).",
    "# HELP dram_route_bad_gateway_total Requests answered 502 with no backend response.",
    "# HELP dram_route_failovers_total Requests (or attempts) served off their ring owner.",
    "# HELP dram_route_hedge_wins_total Hedged attempts whose response won the race.",
    "# HELP dram_route_hedges_total Hedged second attempts fired after the latency threshold.",
    "# HELP dram_route_node_down_transitions_total Times this node was marked down.",
    "# HELP dram_route_node_routed_total Requests forwarded to this node.",
    "# HELP dram_route_node_up Node liveness (1 up, 0 down).",
    "# HELP dram_route_poisoned_total Client connections poisoned by a mid-body upstream failure.",
    "# HELP dram_route_proxied_total Requests answered by a backend through the proxy path.",
    "# HELP dram_route_requests_total Client requests handled by the router.",
    "# HELP dram_route_retries_total Upstream attempts beyond the first, per the retry policy.",
    "# HELP dram_route_ring_points Virtual points this node owns on the consistent-hash ring.",
    "# HELP dram_route_stale_scrapes_total Backend scrapes that missed the budget and served stale values.",
    "# HELP dram_route_uptime_seconds Seconds since the router started.",
    "# TYPE dram_route_backend_cache_hits_aggregate gauge",
    "# TYPE dram_route_backend_cache_hits_total counter",
    "# TYPE dram_route_backend_cache_misses_aggregate gauge",
    "# TYPE dram_route_backend_cache_misses_total counter",
    "# TYPE dram_route_backend_requests_total counter",
    "# TYPE dram_route_backend_stale gauge",
    "# TYPE dram_route_bad_gateway_total counter",
    "# TYPE dram_route_failovers_total counter",
    "# TYPE dram_route_hedge_wins_total counter",
    "# TYPE dram_route_hedges_total counter",
    "# TYPE dram_route_node_down_transitions_total counter",
    "# TYPE dram_route_node_routed_total counter",
    "# TYPE dram_route_node_up gauge",
    "# TYPE dram_route_poisoned_total counter",
    "# TYPE dram_route_proxied_total counter",
    "# TYPE dram_route_requests_total counter",
    "# TYPE dram_route_retries_total counter",
    "# TYPE dram_route_ring_points gauge",
    "# TYPE dram_route_stale_scrapes_total counter",
    "# TYPE dram_route_uptime_seconds gauge",
    "dram_route_backend_cache_hits_aggregate",
    "dram_route_backend_cache_hits_total{node}",
    "dram_route_backend_cache_misses_aggregate",
    "dram_route_backend_cache_misses_total{node}",
    "dram_route_backend_requests_total{node}",
    "dram_route_backend_stale{node}",
    "dram_route_bad_gateway_total",
    "dram_route_failovers_total",
    "dram_route_hedge_wins_total",
    "dram_route_hedges_total",
    "dram_route_node_down_transitions_total{node}",
    "dram_route_node_routed_total{node}",
    "dram_route_node_up{node}",
    "dram_route_poisoned_total",
    "dram_route_proxied_total",
    "dram_route_requests_total",
    "dram_route_retries_total",
    "dram_route_ring_points{node}",
    "dram_route_stale_scrapes_total",
    "dram_route_uptime_seconds",
];

/// Two servers in one process keep their own request accounting:
/// traffic to one moves none of the other's `dram_serve_*` series. Only
/// the process-wide library counters (`dram_model_*`,
/// `dram_dsl_parses_total`, `dram_trace_*`, fault counters) are shared,
/// on purpose: they count work no server instance owns.
#[test]
fn two_servers_in_one_process_keep_separate_request_metrics() {
    use dram_core::EngineSnapshot;
    use dram_obs::Format;
    let (a, b) = (start(2), start(2));
    // Rendered in-process, so the scrape itself is not a request; uptime
    // is left out because it moves with the clock, not with traffic.
    let serve_series = |server: &ServerHandle| -> Vec<String> {
        let text = server
            .metrics()
            .render(Format::Prometheus, &EngineSnapshot::default());
        text.lines()
            .filter(|l| l.starts_with("dram_serve_") && !l.starts_with("dram_serve_uptime"))
            .map(str::to_string)
            .collect()
    };
    let before = serve_series(&b);
    for request in [
        Request::get("/healthz"),
        Request::post("/v1/evaluate", r#"{"preset":"ddr3_1g_x16_55nm"}"#),
        Request::get("/no-such-route"),
    ] {
        exchange(a.local_addr(), request);
    }
    // A counts a request after writing its reply.
    let deadline = Instant::now() + TIMEOUT;
    while a.metrics().total() < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(a.metrics().total(), 3);
    assert_ne!(serve_series(&a), before, "A's series moved");
    assert_eq!(serve_series(&b), before, "B's series did not");
    let doc = dram_units::json::Value::parse(
        &b.metrics().render(Format::Json, &EngineSnapshot::default()),
    )
    .expect("metrics JSON");
    assert_eq!(
        doc.get("requests_total").and_then(|v| v.as_f64()),
        Some(0.0)
    );
    let by_route = doc.get("requests_by_route").and_then(|v| v.as_object());
    assert!(
        by_route.is_some_and(|routes| routes.iter().all(|(_, n)| n.as_f64() == Some(0.0))),
        "{doc:?}"
    );
    a.shutdown();
    b.shutdown();
}
