//! End-to-end contract of the admission-control server: hostile inputs
//! get structured errors on a connection that stays up, verdicts match
//! the library API, repeats hit the cache, and the whole thing starts
//! and stops cleanly. Everything runs against a real socket on a
//! kernel-assigned port.

use rta_experiments::loadgen::{self, LoadgenOptions};
use rta_experiments::serve::{spawn, ServeOptions, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn test_server(max_frame: usize) -> ServerHandle {
    serve_with(|options| options.max_frame = max_frame)
}

fn serve_with(configure: impl FnOnce(&mut ServeOptions)) -> ServerHandle {
    let mut options = ServeOptions {
        addr: "127.0.0.1:0".into(),
        lru_capacity: 8,
        ..Default::default()
    };
    configure(&mut options);
    spawn(&options).expect("bind test server")
}

/// Pulls one `"key":<integer>` field out of a response line.
fn stat_field(line: &str, key: &str) -> u64 {
    let start = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().expect("integer field")
}

/// One client connection with line-framed send/receive helpers.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Self {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        Self {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, frame: &str) -> String {
        self.writer
            .write_all(format!("{frame}\n").as_bytes())
            .expect("send frame");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        assert!(line.ends_with('\n'), "unterminated response: {line:?}");
        line
    }
}

const FIGURE1_SET: &str = r#"{"version":1,"tasks":[
    {"period":100,"deadline":100,"dag":{"wcets":[2,3,4,4,2,4,3,2,2,3],
     "edges":[[0,1],[0,2],[0,3],[1,4],[1,5],[2,6],[3,6],[4,7],[5,7],[5,8],[6,8],[2,9],[7,9],[8,9]]}},
    {"period":120,"deadline":120,"dag":{"wcets":[4,5,6,5],"edges":[[0,1],[0,2],[1,3],[2,3]]}}
]}"#;

fn analyze_frame(set: &str) -> String {
    format!(
        "{{\"v\":1,\"id\":42,\"cores\":4,\"task_set\":{}}}",
        set.replace('\n', " ")
    )
}

#[test]
fn hostile_inputs_get_structured_errors_and_the_connection_survives() {
    let handle = test_server(4096);
    let mut client = Client::connect(&handle);
    for (frame, kind) in [
        // Malformed JSON.
        ("{\"cores\": 4, \"task_set\":", "syntax"),
        // NaN is not valid JSON at all.
        (
            "{\"cores\":4,\"task_set\":{\"tasks\":[{\"period\":NaN}]}}",
            "syntax",
        ),
        // Negative WCET: parses as a float, rejected by the schema.
        (
            "{\"cores\":4,\"task_set\":{\"tasks\":[{\"period\":9,\"deadline\":9,\
             \"dag\":{\"wcets\":[-3],\"edges\":[]}}]}}",
            "schema",
        ),
        // Cyclic edge list: schema-valid, rejected by the model.
        (
            "{\"cores\":4,\"task_set\":{\"tasks\":[{\"period\":9,\"deadline\":9,\
             \"dag\":{\"wcets\":[1,1],\"edges\":[[0,1],[1,0]]}}]}}",
            "model",
        ),
        // Future schema version.
        (
            "{\"cores\":4,\"task_set\":{\"version\":7,\"tasks\":[]}}",
            "version",
        ),
        // Protocol violations.
        ("[1,2,3]", "protocol"),
        ("{\"cores\":4}", "protocol"),
        ("{\"cores\":99999,\"task_set\":{\"tasks\":[]}}", "protocol"),
    ] {
        let response = client.send(frame);
        assert!(
            response.contains(&format!("\"kind\":\"{kind}\"")),
            "{frame} => {response}"
        );
        assert!(response.contains("\"ok\":false"), "{response}");
    }
    // The same connection still answers a well-formed request.
    let response = client.send(&analyze_frame(FIGURE1_SET));
    assert!(response.contains("\"ok\":true"), "{response}");
    assert!(response.contains("\"id\":42"), "{response}");
    handle.shutdown();
}

#[test]
fn a_volume_past_u64_is_a_model_error_not_a_wrapped_verdict() {
    // A 3-node chain of 7·10¹⁸ each: the critical path, 2.1·10¹⁹, exceeds
    // both u64::MAX and D = T = 10¹⁹. Summed with wrapping arithmetic, the
    // volume would be 2.1·10¹⁹ mod 2⁶⁴ and every method would accept the set.
    let handle = test_server(4096);
    let mut client = Client::connect(&handle);
    let response = client.send(
        "{\"v\":1,\"id\":7,\"cores\":1,\"task_set\":{\"version\":1,\"tasks\":[\
         {\"period\":10000000000000000000,\"deadline\":10000000000000000000,\
         \"dag\":{\"wcets\":[7000000000000000000,7000000000000000000,7000000000000000000],\
         \"edges\":[[0,1],[1,2]]}}]}}",
    );
    assert!(response.contains("\"ok\":false"), "{response}");
    assert!(response.contains("\"kind\":\"model\""), "{response}");
    // The connection survives the rejection.
    let response = client.send(&analyze_frame(FIGURE1_SET));
    assert!(response.contains("\"ok\":true"), "{response}");
    handle.shutdown();
}

#[test]
fn a_deeply_nested_frame_is_a_syntax_error_not_a_dead_server() {
    // Well inside the default 1 MiB frame cap; reading it by plain
    // recursion would overflow the connection thread's stack and abort the
    // whole process.
    let handle = serve_with(|_| {});
    let mut client = Client::connect(&handle);
    let response = client.send(&"[".repeat(100_000));
    assert!(response.contains("\"kind\":\"syntax\""), "{response}");
    assert!(
        response.contains("nest deeper than 128 levels"),
        "{response}"
    );
    // The same connection still answers a well-formed request.
    let response = client.send(&analyze_frame(FIGURE1_SET));
    assert!(response.contains("\"ok\":true"), "{response}");
    handle.shutdown();
}

#[test]
fn oversized_frames_error_and_resynchronize() {
    let handle = test_server(512);
    let mut client = Client::connect(&handle);
    // Far larger than the 512-byte frame cap.
    let huge = format!("{{\"cores\":4,\"padding\":\"{}\"}}", "x".repeat(4096));
    let response = client.send(&huge);
    assert!(response.contains("\"kind\":\"too_large\""), "{response}");
    // The connection re-synchronized at the newline: next frame works.
    let response = client.send("{\"cores\":2,\"task_set\":{\"tasks\":[]}}");
    assert!(response.contains("\"ok\":true"), "{response}");
    handle.shutdown();
}

#[test]
fn verdicts_match_the_library_and_repeats_hit_the_cache() {
    let handle = test_server(1 << 20);
    let mut client = Client::connect(&handle);
    let cold = client.send(&analyze_frame(FIGURE1_SET));
    assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
    // The paper's four methods accept the Figure-1-style set on 4 cores
    // (the library agrees; this is the wire rendering of the same
    // outcome), and so does Long-paths — FP-ideal acceptance implies it.
    for method in ["FP-ideal", "LP-ILP", "LP-max", "LP-sound", "Long-paths"] {
        assert!(
            cold.contains(&format!("{{\"method\":\"{method}\",\"schedulable\":true}}")),
            "{cold}"
        );
    }
    // Gen-sporadic's verdict is not implied by FP-ideal's (the dominance
    // edge runs the other way); only its presence in the default frame is
    // part of the contract.
    assert!(
        cold.contains("{\"method\":\"Gen-sporadic\",\"schedulable\":"),
        "{cold}"
    );
    let warm = client.send(&analyze_frame(FIGURE1_SET));
    assert!(warm.contains("\"cache\":\"hit\""), "{warm}");
    // Bounds on request: near-hit (same set, new shape), per-task arrays.
    let bounds_frame = format!(
        "{{\"cores\":4,\"bounds\":true,\"methods\":[\"LP-sound\"],\"task_set\":{}}}",
        FIGURE1_SET.replace('\n', " ")
    );
    let with_bounds = client.send(&bounds_frame);
    assert!(with_bounds.contains("\"cache\":\"near\""), "{with_bounds}");
    assert!(with_bounds.contains("\"bounds\":["), "{with_bounds}");
    // A second connection sees the same warm cache.
    let mut other = Client::connect(&handle);
    let repeat = other.send(&analyze_frame(FIGURE1_SET));
    assert!(repeat.contains("\"cache\":\"hit\""), "{repeat}");
    let stats = other.send("{\"stats\":true}");
    assert!(stats.contains("\"errors\":0"), "{stats}");
    assert!(stats.contains("\"cached_sets\":1"), "{stats}");
    handle.shutdown();
}

#[test]
fn simulate_frames_answer_with_library_identical_results() {
    use rta_experiments::serve::sim_json;
    use rta_model::json::task_set_from_json;
    use rta_sim::{PreemptionPolicy, SimRequest};

    let handle = test_server(1 << 20);
    let mut client = Client::connect(&handle);
    let frame = format!(
        "{{\"v\":1,\"id\":9,\"simulate\":{{\"cores\":4,\"horizon\":2000,\
         \"policy\":\"lazy\",\"seed\":7,\"task_set\":{}}}}}",
        FIGURE1_SET.replace('\n', " ")
    );
    let response = client.send(&frame);
    assert!(response.contains("\"ok\":true"), "{response}");
    assert!(response.contains("\"id\":9"), "{response}");
    // The wire result is the library result, byte for byte.
    let ts = task_set_from_json(FIGURE1_SET).expect("test set parses");
    let outcome = SimRequest::new(4, 2000)
        .with_policy(PreemptionPolicy::LazyPreemptive)
        .with_seed(7)
        .evaluate(&ts);
    let expected = format!("\"sim\":{}", sim_json(&outcome));
    assert!(response.contains(&expected), "{response} vs {expected}");
    // The trace-truncation counter is part of the frame contract (0 for
    // wire runs, which never record a trace) — pinned explicitly so the
    // field can never be silently dropped from the response again.
    assert!(response.contains("\"trace_dropped\":0"), "{response}");
    // Horizons above the server-side cap are refused with a structured
    // error, and the connection survives.
    let refused = client.send(&format!(
        "{{\"simulate\":{{\"cores\":4,\"horizon\":99999999,\"task_set\":{}}}}}",
        FIGURE1_SET.replace('\n', " ")
    ));
    assert!(refused.contains("\"kind\":\"protocol\""), "{refused}");
    let stats = client.send("{\"stats\":true}");
    assert!(stat_field(&stats, "\"sim_requests\":") >= 1, "{stats}");
    handle.shutdown();
}

#[test]
fn loadgen_simulate_mix_drives_the_simulate_frame() {
    let handle = test_server(1 << 20);
    let report = loadgen::run(&LoadgenOptions {
        addr: handle.addr().to_string(),
        connections: 2,
        requests_per_connection: 20,
        repeat_percent: 50,
        simulate_percent: 40,
        pool_size: 4,
        cores: 2,
        target: 1.0,
        ..Default::default()
    })
    .expect("loadgen run");
    assert_eq!(report.errors, 0);
    assert_eq!(report.requests, 40);
    assert!(report.sims > 0, "40% simulate mix produced no sims");
    assert_eq!(
        report.hits + report.near_hits + report.misses + report.sims,
        40
    );
    assert!(report
        .to_bench_json(&LoadgenOptions::default())
        .contains("\"sim_requests\""));
    handle.shutdown();
}

#[test]
fn loadgen_competitor_mix_round_trips_the_method_subset() {
    let handle = test_server(1 << 20);
    let report = loadgen::run(&LoadgenOptions {
        addr: handle.addr().to_string(),
        connections: 2,
        requests_per_connection: 15,
        repeat_percent: 60,
        competitor_percent: 50,
        pool_size: 4,
        cores: 2,
        target: 1.0,
        ..Default::default()
    })
    .expect("loadgen run");
    // Every competitor-subset frame is a well-formed analysis request: a
    // mix heavy in them still completes without a single error frame.
    assert_eq!(report.errors, 0);
    assert_eq!(report.requests, 30);
    assert_eq!(report.hits + report.near_hits + report.misses, 30);
    // Repeated pool sets alternate between the all-methods and the
    // competitor-subset shape, so the subset path must produce near-hits
    // (same cached set, different requested shape), not just misses.
    assert!(report.near_hits > 0, "{report:?}");
    handle.shutdown();
}

#[test]
fn wire_shutdown_stops_the_server() {
    let handle = test_server(4096);
    let addr = handle.addr();
    let mut client = Client::connect(&handle);
    let response = client.send("{\"shutdown\":true,\"id\":1}");
    assert!(response.contains("\"shutdown\":true"), "{response}");
    // The accept loop exits; join returns instead of blocking forever.
    handle.join();
    // New connections are no longer served (connect may still succeed
    // briefly on some platforms' backlog, but no response comes back).
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let _ = stream.write_all(b"{\"stats\":true}\n");
        let mut line = String::new();
        let _ = BufReader::new(stream).read_line(&mut line);
        assert!(line.is_empty(), "served after shutdown: {line}");
    }
}

const OVERLOADED_FRAME: &str = "{\"v\":1,\"ok\":false,\"error\":{\"kind\":\"overloaded\",\
     \"message\":\"server is shedding load; retry with backoff\"}}\n";

/// A raw connection for tests that need to observe timeouts and closes
/// rather than clean request/response pairs.
struct RawConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn connect(handle: &ServerHandle) -> Self {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        Self {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            stream,
        }
    }

    fn read_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line),
            Err(e) => panic!("read timed out or failed: {e}"),
        }
    }

    fn at_eof(&mut self) -> bool {
        let mut byte = [0u8; 1];
        matches!(self.reader.read(&mut byte), Ok(0))
    }
}

#[test]
fn idle_connections_get_a_timeout_frame_and_are_closed() {
    let handle = serve_with(|o| {
        o.idle_timeout = Duration::from_millis(80);
        o.frame_timeout = Duration::from_millis(500);
    });
    let mut conn = RawConn::connect(&handle);
    // Say nothing: the server must end the standoff, not us.
    let line = conn.read_line().expect("a timeout frame before the close");
    assert!(line.contains("\"kind\":\"timeout\""), "{line}");
    assert!(line.contains("idle"), "{line}");
    assert!(conn.at_eof(), "connection must be closed after the timeout");
    let report = handle.shutdown();
    assert_eq!(report.cut_off, 0, "{report:?}");
    assert_eq!(report.panicked, 0, "{report:?}");
}

#[test]
fn slowloris_frames_trip_the_frame_budget() {
    let handle = serve_with(|o| {
        o.idle_timeout = Duration::from_secs(5);
        o.frame_timeout = Duration::from_millis(100);
    });
    let mut conn = RawConn::connect(&handle);
    // Dribble out the start of a frame, then stall mid-frame: the frame
    // budget (not the much longer idle budget) must cut us off.
    for byte in b"{\"v\":1," {
        conn.stream.write_all(&[*byte]).expect("slow write");
        std::thread::sleep(Duration::from_millis(10));
    }
    let line = conn.read_line().expect("a timeout frame before the close");
    assert!(line.contains("\"kind\":\"timeout\""), "{line}");
    assert!(line.contains("frame"), "{line}");
    assert!(conn.at_eof(), "connection must be closed after the timeout");
    // The incident is visible in the stats counters.
    let mut control = Client::connect(&handle);
    let stats = control.send("{\"stats\":true}");
    assert!(stat_field(&stats, "\"timeouts\":") >= 1, "{stats}");
    handle.shutdown();
}

#[test]
fn mid_frame_disconnects_are_cleaned_up() {
    let handle = serve_with(|o| o.drain_timeout = Duration::from_secs(2));
    {
        let mut conn = RawConn::connect(&handle);
        conn.stream
            .write_all(b"{\"v\":1,\"cores\":4,\"task_")
            .expect("partial write");
        // Drop mid-frame: the server must treat this as a closed
        // connection, not an error, and release the pool slot.
    }
    let mut control = Client::connect(&handle);
    let response = control.send(&analyze_frame(FIGURE1_SET));
    assert!(response.contains("\"ok\":true"), "{response}");
    let report = handle.shutdown();
    assert_eq!(report.cut_off, 0, "{report:?}");
    assert_eq!(report.panicked, 0, "{report:?}");
}

#[test]
fn excess_connections_get_structured_overloaded_frames() {
    let handle = serve_with(|o| {
        o.max_conns = 2;
        // Watermark above the pool bound: in-pool connections never shed,
        // so this test isolates the pool-refusal path.
        o.shed_watermark = 3;
    });
    let mut c1 = Client::connect(&handle);
    let mut c2 = Client::connect(&handle);
    // Round trips prove both connections hold pool slots before the
    // third one arrives.
    assert!(c1.send("{\"stats\":true}").contains("\"ok\":true"));
    assert!(c2.send("{\"stats\":true}").contains("\"ok\":true"));
    // The pool is full: the excess connection gets exactly one
    // structured overloaded frame, byte-pinned, and is closed.
    let mut c3 = RawConn::connect(&handle);
    let line = c3.read_line().expect("an overloaded frame");
    assert_eq!(line, OVERLOADED_FRAME);
    assert!(c3.at_eof(), "refused connection must be closed");
    // In-pool connections are unharmed, and the refusal is counted.
    let response = c1.send(&analyze_frame(FIGURE1_SET));
    assert!(response.contains("\"ok\":true"), "{response}");
    let stats = c1.send("{\"stats\":true}");
    assert!(stat_field(&stats, "\"shed\":") >= 1, "{stats}");
    assert_eq!(stat_field(&stats, "\"active_conns\":"), 2, "{stats}");
    // Freeing a slot re-opens the pool.
    drop(c2);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut probe = RawConn::connect(&handle);
        probe
            .stream
            .write_all(b"{\"stats\":true}\n")
            .expect("probe write");
        match probe.read_line() {
            Some(line) if line.contains("\"ok\":true") => break,
            _ => assert!(Instant::now() < deadline, "pool slot never freed"),
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown();
}

#[test]
fn watermark_shedding_answers_cache_hits_and_refuses_cold_analyses() {
    let handle = serve_with(|o| {
        o.max_conns = 8;
        o.shed_watermark = 2;
    });
    // Below the watermark: full service caches the set's facts.
    let mut c1 = Client::connect(&handle);
    let cold = c1.send(&analyze_frame(FIGURE1_SET));
    assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
    // The second connection puts the pool at the watermark: shed mode.
    let mut c2 = Client::connect(&handle);
    // Cache hits are still answered in full…
    let hit = c2.send(&analyze_frame(FIGURE1_SET));
    assert!(hit.contains("\"ok\":true"), "{hit}");
    assert!(hit.contains("\"cache\":\"hit\""), "{hit}");
    // …but anything needing a cold analysis is refused with a structured
    // frame that echoes the request id, and the connection survives.
    let fresh = "{\"v\":1,\"id\":9,\"cores\":4,\"task_set\":{\"tasks\":[\
         {\"period\":50,\"deadline\":50,\"dag\":{\"wcets\":[7],\"edges\":[]}}]}}";
    let refused = c2.send(fresh);
    assert!(refused.contains("\"kind\":\"overloaded\""), "{refused}");
    assert!(refused.contains("\"id\":9"), "{refused}");
    let again = c2.send(&analyze_frame(FIGURE1_SET));
    assert!(again.contains("\"cache\":\"hit\""), "{again}");
    let stats = c2.send("{\"stats\":true}");
    assert!(stat_field(&stats, "\"shed\":") >= 1, "{stats}");
    // Closing a connection lifts the pressure: the same cold request now
    // gets a full analysis.
    drop(c2);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = c1.send("{\"stats\":true}");
        if stat_field(&stats, "\"active_conns\":") == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "shed connection never released");
        std::thread::sleep(Duration::from_millis(10));
    }
    let served = c1.send(fresh);
    assert!(served.contains("\"ok\":true"), "{served}");
    assert!(served.contains("\"cache\":\"miss\""), "{served}");
    let report = handle.shutdown();
    assert_eq!(report.cut_off, 0, "{report:?}");
    assert_eq!(report.panicked, 0, "{report:?}");
}

#[test]
fn shutdown_drains_live_connections_without_cutting_them_off() {
    let handle = serve_with(|o| o.drain_timeout = Duration::from_secs(5));
    // Three live mid-conversation connections at shutdown time.
    let mut clients: Vec<Client> = (0..3).map(|_| Client::connect(&handle)).collect();
    for client in &mut clients {
        let response = client.send(&analyze_frame(FIGURE1_SET));
        assert!(response.contains("\"ok\":true"), "{response}");
    }
    let report = handle.shutdown();
    assert_eq!(report.cut_off, 0, "{report:?}");
    assert_eq!(report.panicked, 0, "{report:?}");
    assert!(report.drained >= 3, "{report:?}");
}

#[test]
fn loadgen_round_trip_reports_hits_and_no_errors() {
    let handle = test_server(1 << 20);
    let report = loadgen::run(&LoadgenOptions {
        addr: handle.addr().to_string(),
        connections: 4,
        requests_per_connection: 25,
        repeat_percent: 70,
        pool_size: 4,
        cores: 2,
        target: 1.0,
        ..Default::default()
    })
    .expect("loadgen run");
    assert_eq!(report.errors, 0);
    assert_eq!(report.requests, 100);
    assert_eq!(report.hits + report.near_hits + report.misses, 100);
    assert!(report.hits > 0, "no cache hits in a 70% repeat mix");
    assert!(report.verdicts_per_sec > 0.0);
    handle.shutdown();
}

#[test]
fn metrics_frame_round_trips_the_registry_and_counts_the_burst() {
    let handle = test_server(1 << 20);
    let mut client = Client::connect(&handle);
    // The registry is process-global and other tests in this binary run
    // concurrently, so every count assertion is a >= on a scrape delta.
    let before = client.send("{\"v\":1,\"metrics\":true}");
    assert!(before.contains("\"ok\":true"), "{before}");
    assert!(
        before.contains("\"metrics\":{\"schema\":1,\"counters\":{"),
        "{before}"
    );
    let fp_before = stat_field(&before, "\"analysis_verdict_ns_fp_ideal\":{\"count\":");
    let req_before = stat_field(&before, "\"serve_requests_total\":");
    const BURST: u64 = 5;
    for i in 0..BURST {
        // Distinct single-node sets, one method each: every frame misses
        // the LRU and lands exactly one FP-ideal verdict observation.
        let frame = format!(
            "{{\"v\":1,\"cores\":2,\"methods\":[\"FP-ideal\"],\"task_set\":{{\"tasks\":[\
             {{\"period\":{p},\"deadline\":{p},\"dag\":{{\"wcets\":[{w}],\"edges\":[]}}}}]}}}}",
            p = 50 + i,
            w = 5 + i,
        );
        let response = client.send(&frame);
        assert!(response.contains("\"ok\":true"), "{response}");
    }
    let after = client.send("{\"v\":1,\"id\":9,\"metrics\":true}");
    assert!(after.contains("\"id\":9"), "{after}");
    let fp_after = stat_field(&after, "\"analysis_verdict_ns_fp_ideal\":{\"count\":");
    let req_after = stat_field(&after, "\"serve_requests_total\":");
    assert!(
        fp_after >= fp_before + BURST,
        "verdict histogram missed the burst: {fp_before} -> {fp_after}\n{after}"
    );
    assert!(
        req_after >= req_before + BURST,
        "request counter missed the burst: {req_before} -> {req_after}\n{after}"
    );
    // The full histogram shape survives the wire: quantile estimates and
    // sparse [le, count] buckets, and the per-frame-kind serve histograms
    // count the scrape itself.
    assert!(after.contains("\"p99\":"), "{after}");
    assert!(after.contains("\"buckets\":[["), "{after}");
    assert!(
        stat_field(&after, "\"serve_frame_ns_metrics\":{\"count\":") >= 1,
        "{after}"
    );
    handle.shutdown();
}

#[test]
fn metrics_dump_writes_prometheus_text_on_drain() {
    let path = std::env::temp_dir().join(format!(
        "rta_metrics_dump_{}_{:?}.prom",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    let handle = serve_with(|options| options.metrics_dump = Some(path.clone()));
    let mut client = Client::connect(&handle);
    let response = client.send(&analyze_frame(FIGURE1_SET));
    assert!(response.contains("\"ok\":true"), "{response}");
    drop(client);
    handle.shutdown();
    let text = std::fs::read_to_string(&path).expect("metrics dump written on drain");
    assert!(
        text.contains("# TYPE serve_requests_total counter"),
        "{text}"
    );
    assert!(
        text.contains("# TYPE analysis_verdict_ns_fp_ideal histogram"),
        "{text}"
    );
    assert!(text.contains("_bucket{le="), "{text}");
    let _ = std::fs::remove_file(&path);
}

/// The keys of a `{"stats":true}` response, in wire order.
fn stats_keys(line: &str) -> Vec<&str> {
    let (_, body) = line.split_once("\"stats\":{").expect("stats object");
    let (body, _) = body.split_once('}').expect("flat stats object");
    body.split(',')
        .map(|field| {
            field
                .split_once(':')
                .expect("key:value")
                .0
                .trim_matches('"')
        })
        .collect()
}

#[test]
fn stats_frame_keeps_its_key_sequence() {
    let handle = test_server(1 << 20);
    let stats = Client::connect(&handle).send("{\"stats\":true}");
    assert_eq!(
        stats_keys(&stats),
        [
            "requests",
            "sim_requests",
            "errors",
            "active_conns",
            "shed",
            "timeouts",
            "overruns",
            "drained",
            "accept_errors",
            "injected_drops",
            "injected_delays",
            "cached_sets",
            "hits",
            "near_hits",
            "misses",
            "evictions",
        ],
        "{stats}"
    );
    handle.shutdown();
}

#[test]
fn each_server_counts_only_its_own_frames() {
    let a = test_server(1 << 20);
    let b = test_server(1 << 20);
    let mut client = Client::connect(&a);
    for _ in 0..3 {
        let response = client.send(&analyze_frame(FIGURE1_SET));
        assert!(response.contains("\"ok\":true"), "{response}");
    }
    for _ in 0..2 {
        let response = client.send("{\"cores\":4}");
        assert!(response.contains("\"ok\":false"), "{response}");
    }
    let stats = client.send("{\"stats\":true}");
    assert_eq!(stat_field(&stats, "\"requests\":"), 3, "{stats}");
    assert_eq!(stat_field(&stats, "\"errors\":"), 2, "{stats}");
    let metrics = client.send("{\"metrics\":true}");
    assert_eq!(stat_field(&metrics, "\"serve_requests_total\":"), 3);
    assert_eq!(stat_field(&metrics, "\"serve_errors_total\":"), 2);
    for name in [
        "requests",
        "sim_requests",
        "errors",
        "shed",
        "timeouts",
        "overruns",
        "accept_errors",
        "drained",
        "cut_off",
        "panicked",
        "injected_drops",
        "injected_delays",
    ] {
        assert!(
            metrics.contains(&format!("\"serve_{name}_total\":")),
            "serve_{name}_total missing: {metrics}"
        );
    }

    // B saw none of it: every counter of its stats frame is zero (only
    // the asking connection is active), and so are its metrics counters.
    let mut other = Client::connect(&b);
    let stats = other.send("{\"stats\":true}");
    for key in stats_keys(&stats) {
        let expected = u64::from(key == "active_conns");
        assert_eq!(
            stat_field(&stats, &format!("\"{key}\":")),
            expected,
            "{key}: {stats}"
        );
    }
    let metrics = other.send("{\"metrics\":true}");
    assert_eq!(stat_field(&metrics, "\"serve_requests_total\":"), 0);
    assert_eq!(stat_field(&metrics, "\"serve_errors_total\":"), 0);
    a.shutdown();
    b.shutdown();
}
