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
fn loadgen_mixes_simulate_competitor_and_bounds_frames() {
    // All three optional legs at once, with bounds on every analysis:
    // each rendered frame is well formed and answered.
    let handle = test_server(1 << 20);
    let report = loadgen::run(&LoadgenOptions {
        addr: handle.addr().to_string(),
        connections: 2,
        requests_per_connection: 30,
        simulate_percent: 20,
        competitor_percent: 30,
        bounds: true,
        pool_size: 4,
        cores: 2,
        target: 1.0,
        ..Default::default()
    })
    .expect("loadgen run");
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.requests, 60);
    assert!(report.sims > 0, "20% simulate mix produced no sims");
    assert_eq!(
        report.hits + report.near_hits + report.misses + report.sims,
        report.requests,
        "{report:?}"
    );
    let drain = handle.shutdown();
    assert_eq!(drain.panicked, 0, "{drain:?}");
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

/// How many writes of two or more responses a metrics response's
/// `serve_write_frames` histogram counts (every bucket but `le = 1`); zero
/// while no write has been observed.
fn batched_writes(metrics: &str) -> u64 {
    let doc = rta_model::json::parse(metrics).expect("metrics frame is JSON");
    let Some(histogram) = doc
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("serve_write_frames"))
    else {
        return 0;
    };
    let buckets = histogram.get("buckets").and_then(|b| b.as_array());
    buckets
        .expect("sparse [le, count] buckets")
        .iter()
        .map(|bucket| match bucket.as_array().expect("[le, count]") {
            [le, _] if le.as_u64() == Some(1) => 0,
            [_, count] => count.as_u64().expect("count"),
            other => panic!("bucket {other:?}"),
        })
        .sum()
}

#[test]
fn pipelined_frames_are_answered_in_order_and_leave_together() {
    use rand::SeedableRng;
    use rta_analysis::AnalysisRequest;
    use rta_experiments::serve::{sim_json, verdicts_json};
    use rta_model::json::{task_set_from_json, task_set_to_json_compact};
    use rta_model::TaskSet;
    use rta_sim::SimRequest;

    let handle = test_server(1 << 20);
    let figure1 = task_set_from_json(FIGURE1_SET).expect("test set parses");
    let pooled = task_set_to_json_compact(&figure1);
    let fresh: Vec<TaskSet> = (0..2)
        .map(|i| {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(0x9_1BE + i);
            rta_taskgen::generate_task_set(&mut rng, &rta_taskgen::group1(2.0))
        })
        .collect();
    let analyze = |id: u64, set: &str, bounds: bool| {
        format!("{{\"v\":1,\"id\":{id},\"cores\":4,\"bounds\":{bounds},\"task_set\":{set}}}\n")
    };
    // The library path's answer, as the response's last member.
    let verdicts = |ts: &TaskSet, bounds: bool| {
        let outcome = AnalysisRequest::new(4).with_bounds(bounds).evaluate(ts);
        format!("\"verdicts\":{}}}\n", verdicts_json(&outcome))
    };
    // Every frame with how its response must start (after `{"v":1,`) and
    // end.
    let frames = [
        (
            analyze(1, &pooled, false),
            "\"id\":1,\"ok\":true,\"cache\":\"miss\"",
            verdicts(&figure1, false),
        ),
        (
            analyze(2, &pooled, false),
            "\"id\":2,\"ok\":true,\"cache\":\"hit\"",
            verdicts(&figure1, false),
        ),
        (
            analyze(3, &task_set_to_json_compact(&fresh[0]), false),
            "\"id\":3,\"ok\":true,\"cache\":\"miss\"",
            verdicts(&fresh[0], false),
        ),
        (
            analyze(4, &pooled, true),
            "\"id\":4,\"ok\":true,\"cache\":\"near\"",
            verdicts(&figure1, true),
        ),
        (
            format!(
                "{{\"v\":1,\"id\":5,\"simulate\":{{\"cores\":4,\"horizon\":2000,\
                 \"task_set\":{pooled}}}}}\n"
            ),
            "\"id\":5,\"ok\":true,\"micros\":",
            format!(
                "\"sim\":{}}}\n",
                sim_json(&SimRequest::new(4, 2000).evaluate(&figure1))
            ),
        ),
        (
            "{\"cores\":4,\"task_set\":\n".into(),
            "\"ok\":false,\"error\":{\"kind\":\"syntax\"",
            "}}\n".into(),
        ),
        (
            "{\"v\":1,\"id\":7,\"stats\":true}\n".into(),
            "\"id\":7,\"ok\":true,\"stats\":{",
            "}}\n".into(),
        ),
        (
            analyze(8, &task_set_to_json_compact(&fresh[1]), false),
            "\"id\":8,\"ok\":true,\"cache\":\"miss\"",
            verdicts(&fresh[1], false),
        ),
        (
            analyze(9, &pooled, false),
            "\"id\":9,\"ok\":true,\"cache\":\"hit\"",
            verdicts(&figure1, false),
        ),
        (
            analyze(10, &pooled, true),
            "\"id\":10,\"ok\":true,\"cache\":\"hit\"",
            verdicts(&figure1, true),
        ),
    ];
    // A bare keep-alive newline last: no frame follows it, so the answers
    // must leave without waiting for one.
    let burst: String = frames.iter().map(|(frame, ..)| frame.as_str()).collect();
    let burst = burst + "\n";

    let mut conn = RawConn::connect(&handle);
    let mut control = Client::connect(&handle);
    let batched_before = batched_writes(&control.send("{\"metrics\":true}"));
    conn.stream.write_all(burst.as_bytes()).expect("one write");
    for (frame, head, tail) in &frames {
        let line = conn.read_line().expect("one response per non-blank frame");
        assert!(
            line.starts_with(&format!("{{\"v\":1,{head}")) && line.ends_with(tail.as_str()),
            "{frame} => {line} (expected {head} ... {tail})"
        );
    }
    // Answers to frames that arrived together left in shared writes.
    let batched_after = batched_writes(&control.send("{\"metrics\":true}"));
    assert!(
        batched_after > batched_before,
        "no write carried two responses: {batched_before} -> {batched_after}"
    );

    // A second burst ending in a wire shutdown: every answer, then the
    // acknowledgement, then the close.
    let second = format!(
        "{}{{\"v\":1,\"id\":12,\"stats\":true}}\n{}{{\"id\":14,\"shutdown\":true}}\n",
        analyze(11, &pooled, false),
        analyze(13, &task_set_to_json_compact(&fresh[0]), true),
    );
    conn.stream
        .write_all(second.as_bytes())
        .expect("second write");
    for head in [
        "{\"v\":1,\"id\":11,\"ok\":true,\"cache\":\"hit\",",
        "{\"v\":1,\"id\":12,\"ok\":true,\"stats\":{",
        "{\"v\":1,\"id\":13,\"ok\":true,\"cache\":\"near\",",
        "{\"v\":1,\"id\":14,\"ok\":true,\"shutdown\":true}\n",
    ] {
        let line = conn.read_line().expect("an answer before the close");
        assert!(line.starts_with(head), "{line} does not start with {head}");
    }
    assert!(
        conn.at_eof(),
        "the connection closes after the acknowledgement"
    );
    let report = handle.join();
    assert_eq!(report.cut_off, 0, "{report:?}");
    assert_eq!(report.panicked, 0, "{report:?}");
}

#[test]
fn no_answer_waits_behind_a_cold_analysis() {
    let handle = test_server(1 << 20);
    let mut conn = RawConn::connect(&handle);
    let set = FIGURE1_SET.replace('\n', " ");
    let cached = format!("{{\"v\":1,\"id\":1,\"cores\":4,\"task_set\":{set}}}\n");
    conn.stream.write_all(cached.as_bytes()).expect("warm");
    assert!(conn
        .read_line()
        .expect("warm answer")
        .contains("\"cache\":\"miss\""));
    // A cached frame pipelined ahead of one LP-ILP bounds request at 40
    // cores, a cold analysis of tens of milliseconds.
    let cold = format!(
        "{{\"v\":1,\"id\":2,\"cores\":40,\"methods\":[\"LP-ILP\"],\"bounds\":true,\
         \"task_set\":{set}}}\n"
    );
    conn.stream
        .write_all(format!("{cached}{cold}").as_bytes())
        .expect("one write");
    let first = conn.read_line().expect("the cached answer");
    let first_at = Instant::now();
    let second = conn.read_line().expect("the cold answer");
    let gap = first_at.elapsed();
    assert!(first.contains("\"cache\":\"hit\""), "{first}");
    // The set is cached for 4 cores, not for 40: a near-hit, analyzed.
    assert!(
        second.contains("\"id\":2,\"ok\":true,\"cache\":\"near\""),
        "{second}"
    );
    // Timed by the server's own clock: the cached answer left before the
    // analysis started, so it arrived about the analysis's time earlier.
    let micros = stat_field(&second, "\"micros\":");
    assert!(
        gap.as_micros() >= u128::from(micros / 2),
        "the cached answer waited behind the cold one: {gap:?} apart, cold analysis {micros} us"
    );
    handle.shutdown();
}

/// One core, a 2⁶² node with T = D = 2⁶³, then a chain of two 2⁶² nodes
/// with T = D = 2⁶⁴ − 1: the second task's bound passes `u64::MAX`, so
/// rendering it through a `u64` would panic.
const PAST_U64_SET: &str = "{\"version\":1,\"tasks\":[\
     {\"period\":9223372036854775808,\"deadline\":9223372036854775808,\
      \"dag\":{\"wcets\":[4611686018427387904],\"edges\":[]}},\
     {\"period\":18446744073709551615,\"deadline\":18446744073709551615,\
      \"dag\":{\"wcets\":[4611686018427387904,4611686018427387904],\"edges\":[[0,1]]}}]}";

#[test]
fn bounds_past_u64_are_printed_exactly() {
    use rta_analysis::AnalysisRequest;
    use rta_experiments::serve::verdicts_json;
    use rta_model::json::task_set_from_json;

    let handle = test_server(4096);
    let mut client = Client::connect(&handle);
    let frame = |bounds: bool| {
        format!("{{\"v\":1,\"id\":3,\"cores\":1,\"bounds\":{bounds},\"task_set\":{PAST_U64_SET}}}")
    };
    let with_bounds = client.send(&frame(true));
    assert!(with_bounds.contains("\"ok\":true"), "{with_bounds}");
    // Byte for byte the library's answer, bounds past u64::MAX included.
    let ts = task_set_from_json(PAST_U64_SET).expect("test set parses");
    let library = AnalysisRequest::new(1).with_bounds(true).evaluate(&ts);
    let expected = verdicts_json(&library);
    assert!(
        with_bounds.ends_with(&format!("\"verdicts\":{expected}}}\n")),
        "{with_bounds}"
    );
    let past_u64 = library
        .outcomes()
        .iter()
        .flat_map(|o| o.bounds.iter().flatten());
    assert!(
        past_u64.clone().any(|b| b.scaled() > u128::from(u64::MAX)),
        "the frame exercises a bound past u64::MAX"
    );
    for bound in past_u64 {
        assert!(
            with_bounds.contains(&bound.scaled().to_string()),
            "{with_bounds}"
        );
    }
    // The same verdicts as the frame without bounds.
    let without = client.send(&frame(false));
    let verdicts = |line: &str| -> Vec<String> {
        line.split("\"schedulable\":")
            .skip(1)
            .map(|rest| rest.chars().take_while(char::is_ascii_alphabetic).collect())
            .collect()
    };
    assert_eq!(verdicts(&with_bounds), verdicts(&without), "{without}");
    assert_eq!(verdicts(&without).len(), 6, "{without}");
    let report = handle.shutdown();
    assert_eq!(report.panicked, 0, "{report:?}");
}

/// The `lru_text_hits_total` counter of a metrics response; 0 until the
/// first text hit registers it.
fn text_hits(metrics: &str) -> u64 {
    if metrics.contains("\"lru_text_hits_total\":") {
        stat_field(metrics, "\"lru_text_hits_total\":")
    } else {
        0
    }
}

#[test]
fn text_hits_are_answered_while_cold_analyses_are_shed() {
    let handle = serve_with(|o| {
        o.max_conns = 8;
        o.shed_watermark = 2;
    });
    let mut c1 = Client::connect(&handle);
    let cold = c1.send(&analyze_frame(FIGURE1_SET));
    assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
    // The second connection puts the pool at the watermark.
    let mut c2 = Client::connect(&handle);
    let before = text_hits(&c2.send("{\"metrics\":true}"));
    const REPEATS: u64 = 3;
    for _ in 0..REPEATS {
        let hit = c2.send(&analyze_frame(FIGURE1_SET));
        assert!(hit.contains("\"cache\":\"hit\""), "{hit}");
    }
    // The process-wide counter may also count other tests' hits, never
    // fewer than these.
    let after = text_hits(&c2.send("{\"metrics\":true}"));
    assert!(after >= before + REPEATS, "{before} -> {after}");
    // The same set spelled differently is found through its decoded set.
    let respelled = analyze_frame(&FIGURE1_SET.replace(':', ": "));
    let hit = c2.send(&respelled);
    assert!(hit.contains("\"cache\":\"hit\""), "{hit}");
    // A set the cache has never seen is still refused.
    let fresh = "{\"v\":1,\"id\":9,\"cores\":4,\"task_set\":{\"tasks\":[\
         {\"period\":50,\"deadline\":50,\"dag\":{\"wcets\":[7],\"edges\":[]}}]}}";
    let refused = c2.send(fresh);
    assert!(refused.contains("\"kind\":\"overloaded\""), "{refused}");
    let stats = c2.send("{\"stats\":true}");
    assert_eq!(stat_field(&stats, "\"hits\":"), REPEATS + 1, "{stats}");
    assert_eq!(stat_field(&stats, "\"shed\":"), 1, "{stats}");
    let report = handle.shutdown();
    assert_eq!(report.panicked, 0, "{report:?}");
}

/// Two tasks whose simulation ends past `u64::MAX` on one fully
/// preemptive core: the first task preempts the second's first node (2⁶³)
/// for 900,000 of the horizon's 10⁷ units, so the chain would complete at
/// 2⁶⁴ + 899,999.
const PAST_U64_SIM_SET: &str = r#"{"tasks":[
    {"period":100,"deadline":100,"dag":{"wcets":[3,4,2],"edges":[[0,1]]}},
    {"period":18446744073709551615,"deadline":18446744073709551615,
     "dag":{"wcets":[9223372036854775808,9223372036854775807],"edges":[[0,1]]}}
]}"#;

fn simulate_frame(horizon: u64, policy: &str, set: &str) -> String {
    format!(
        "{{\"v\":1,\"id\":5,\"simulate\":{{\"cores\":1,\"horizon\":{horizon},\
         \"policy\":\"{policy}\",\"task_set\":{}}}}}",
        set.replace('\n', " ")
    )
}

#[test]
fn simulate_frames_whose_times_pass_u64_are_refused() {
    use rta_experiments::serve::sim_json;
    use rta_model::json::task_set_from_json;
    use rta_sim::{PreemptionPolicy, SimRequest};

    let handle = test_server(4096);
    let mut client = Client::connect(&handle);
    let refused = client.send(&simulate_frame(10_000_000, "full", PAST_U64_SIM_SET));
    assert!(refused.contains("\"ok\":false"), "{refused}");
    assert!(refused.contains("\"kind\":\"protocol\""), "{refused}");
    assert!(refused.contains("fit in u64"), "{refused}");
    // One answer only: the next line answers the next frame.
    let stats = client.send("{\"stats\":true}");
    assert_eq!(stat_field(&stats, "\"sim_requests\":"), 0, "{stats}");
    // Just inside both bounds: the release after the first (10 + T) and
    // the only completion (its WCET) both come at u64::MAX exactly.
    let edge = format!(
        "{{\"tasks\":[{{\"period\":{t},\"deadline\":{t},\"dag\":{{\"wcets\":[{t}],\"edges\":[]}}}}]}}",
        t = u64::MAX - 10
    );
    let answered = client.send(&simulate_frame(10, "full", &edge));
    assert!(answered.contains("\"ok\":true"), "{answered}");
    let outcome = SimRequest::new(1, 10)
        .with_policy(PreemptionPolicy::FullyPreemptive)
        .evaluate(&task_set_from_json(&edge).expect("test set parses"));
    let expected = format!("\"sim\":{}", sim_json(&outcome));
    assert!(answered.contains(&expected), "{answered} vs {expected}");
    assert!(answered.contains(&format!("\"max_responses\":[{}]", u64::MAX - 10)));
    let report = handle.shutdown();
    assert_eq!(report.panicked, 0, "{report:?}");
}

#[test]
fn simulate_frames_past_the_node_job_cap_are_refused_at_once() {
    let handle = test_server(1 << 14);
    let mut client = Client::connect(&handle);
    // 10⁷ single-node jobs, one per time unit: about 20 million events.
    let every_tick = r#"{"tasks":[{"period":1,"deadline":1,"dag":{"wcets":[1],"edges":[]}}]}"#;
    let start = Instant::now();
    let refused = client.send(&simulate_frame(10_000_000, "eager", every_tick));
    let elapsed = start.elapsed();
    assert!(refused.contains("\"kind\":\"protocol\""), "{refused}");
    assert!(refused.contains("10000000 node-jobs"), "{refused}");
    assert!(
        elapsed < Duration::from_secs(5),
        "refused after {elapsed:?}"
    );
    // 488 jobs of 2,048 parallel nodes with distinct WCETs on 1,024 cores:
    // within the node-job cap, but every completion walks the cores (2.1 s
    // of a release build before the cap on node-jobs times cores).
    let wcets: Vec<String> = (1..=2048).map(|w| w.to_string()).collect();
    let wide = format!(
        r#"{{"tasks":[{{"period":3000,"deadline":3000,"dag":{{"wcets":[{}],"edges":[]}}}}]}}"#,
        wcets.join(",")
    );
    let frame = format!(
        "{{\"v\":1,\"id\":6,\"simulate\":{{\"cores\":1024,\"horizon\":1464000,\
         \"policy\":\"full\",\"task_set\":{wide}}}}}"
    );
    let start = Instant::now();
    let refused = client.send(&frame);
    let elapsed = start.elapsed();
    assert!(refused.contains("\"kind\":\"protocol\""), "{refused}");
    assert!(
        refused.contains("999424 node-jobs on 1024 cores"),
        "{refused}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "refused after {elapsed:?}"
    );
    let report = handle.shutdown();
    assert_eq!(report.panicked, 0, "{report:?}");
}
