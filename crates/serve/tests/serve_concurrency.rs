//! End-to-end service tests over real sockets: boot on an ephemeral
//! port, drive the API from many concurrent client threads, and check
//! the three properties the service exists to provide — correct typed
//! errors, the capture-once invariant under a request storm, and a
//! clean graceful drain.
//!
//! Every test builds its own in-memory [`Experiments`] (no disk cache,
//! no trace store) so nothing leaks between tests or into the repo's
//! cache directories.

use graphpim::config::PimMode;
use graphpim::experiments::cache::json;
use graphpim::experiments::{figjson, Experiments, RunKey};
use graphpim_graph::generate::LdbcSize;
use graphpim_serve::http::client;
use graphpim_serve::{AdmissionPolicy, ServeConfig, ServerHandle};
use std::sync::Arc;

/// Boots a service at 1k scale on an ephemeral port with an isolated
/// in-memory engine. Returns the handle, its address, and the engine.
fn boot(policy: AdmissionPolicy) -> (ServerHandle, String, Arc<Experiments>) {
    let ctx = Arc::new(Experiments::with_cache(LdbcSize::K1, None).with_trace_store(None));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        http_threads: 8,
        policy,
        ..ServeConfig::default()
    };
    let handle = graphpim_serve::start(cfg, Arc::clone(&ctx)).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    (handle, addr, ctx)
}

fn get_json(addr: &str, path: &str) -> (u16, json::Value) {
    let (status, body) = client::get(addr, path).expect("request");
    let text = String::from_utf8(body).expect("UTF-8 body");
    let value = json::parse(&text).unwrap_or_else(|| panic!("{path} must answer JSON: {text}"));
    (status, value)
}

fn error_id(doc: &json::Value) -> String {
    doc.as_object()
        .and_then(|o| o.get("error")?.as_object()?.get("id")?.as_str())
        .unwrap_or_else(|| panic!("expected an error document"))
        .to_string()
}

#[test]
fn boot_health_stats_and_typed_errors() {
    let (handle, addr, _ctx) = boot(AdmissionPolicy::default());

    let (status, health) = get_json(&addr, "/healthz");
    assert_eq!(status, 200);
    let health = health.as_object().unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("scale").unwrap().as_str(), Some("LDBC-1k"));

    let (status, figures) = get_json(&addr, "/figures");
    assert_eq!(status, 200);
    let listed = figures.as_object().unwrap().get("figures").unwrap();
    let listed: Vec<_> = listed
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|v| v.as_str())
        .collect();
    assert_eq!(listed.len(), figjson::FIGURES.len());
    assert!(listed.contains(&"fig07"));

    // Typed errors, straight from the engine's error catalog.
    let (status, doc) = get_json(&addr, "/counters/not-a-stem");
    assert_eq!((status, error_id(&doc).as_str()), (400, "invalid_run_key"));
    let (status, doc) = get_json(&addr, "/counters/DC-Baseline-LDBC-1k-fus0-bw10");
    assert_eq!((status, error_id(&doc).as_str()), (400, "zero_fus"));
    let valid_uncached = RunKey::new("DC", PimMode::Baseline, LdbcSize::K1).file_stem();
    let (status, doc) = get_json(&addr, &format!("/counters/{valid_uncached}"));
    assert_eq!((status, error_id(&doc).as_str()), (404, "run_uncached"));
    let (status, doc) = get_json(&addr, "/figures/fig99");
    assert_eq!((status, error_id(&doc).as_str()), (404, "unknown_figure"));
    let (status, doc) = get_json(&addr, "/figures/fig07");
    assert_eq!((status, error_id(&doc).as_str()), (409, "figure_uncached"));
    let (status, doc) = get_json(&addr, "/no/such/route");
    assert_eq!((status, error_id(&doc).as_str()), (404, "not_found"));
    let (status, _) = client::post(&addr, "/healthz", "{}").expect("request");
    assert_eq!(status, 404, "POST to a GET-only route is an unknown route");
    let (status, body) =
        client::request(&addr, "PUT", "/healthz", Some(b"{}"), &[]).expect("request");
    assert_eq!(status, 405, "{}", String::from_utf8_lossy(&body));

    let (status, stats) = get_json(&addr, "/stats");
    assert_eq!(status, 200);
    let stats = stats.as_object().unwrap();
    assert!(stats.get("scheduler").is_some());
    assert!(stats.get("engine").is_some());
    assert!(stats.get("cost_model").is_some());

    handle.shutdown();
}

/// An unknown figure's 404 is valid JSON that echoes the requested name
/// exactly, whatever characters it holds: control characters, quotes and
/// non-ASCII text alike. The path form cannot carry a line feed (it ends
/// the request line), so only the JSON body form sends one.
#[test]
fn unknown_figure_errors_echo_any_name() {
    let (handle, addr, _ctx) = boot(AdmissionPolicy::default());
    let message = |doc: &json::Value| {
        doc.as_object()
            .and_then(|o| o.get("error")?.as_object()?.get("message")?.as_str())
            .map(str::to_string)
    };

    let name = "a\tb\"caf\u{e9}";
    let (status, doc) = get_json(&addr, &format!("/figures/{name}"));
    assert_eq!((status, error_id(&doc).as_str()), (404, "unknown_figure"));
    assert_eq!(
        message(&doc),
        Some(format!("{name} is not a served figure"))
    );

    let name = "a\nb\tc\"caf\u{e9}";
    let body = format!("{{\"fig\": \"{}\"}}", json::escape(name));
    let (status, body) = client::post(&addr, "/sweeps", &body).expect("request");
    let text = String::from_utf8(body).expect("UTF-8 body");
    let doc = json::parse(&text).unwrap_or_else(|| panic!("must answer JSON: {text:?}"));
    assert_eq!((status, error_id(&doc).as_str()), (404, "unknown_figure"));
    assert_eq!(
        message(&doc),
        Some(format!("{name} is not a served figure"))
    );

    handle.shutdown();
}

/// The storm test: many clients sweep the *same* two keys at once. The
/// engine's per-key memo must collapse all of that to exactly two
/// simulations (the capture-once invariant, observed through `/stats`),
/// every follower must still see a complete event log ending in `done`,
/// and the drain afterwards must be clean — refused connections, no
/// stuck threads.
#[test]
fn concurrent_sweeps_dedup_to_one_simulation_per_key() {
    const CLIENTS: usize = 16;
    let (handle, addr, _ctx) = boot(AdmissionPolicy::default());
    let stems: Vec<String> = [
        RunKey::new("DC", PimMode::Baseline, LdbcSize::K1),
        RunKey::new("DC", PimMode::GraphPim, LdbcSize::K1),
    ]
    .iter()
    .map(RunKey::file_stem)
    .collect();
    let body = format!(
        "{{\"keys\": [{}]}}",
        stems
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let addr = addr.clone();
            let body = body.clone();
            std::thread::spawn(move || {
                let client_id = format!("client-{i}");
                let (status, response) = client::request(
                    &addr,
                    "POST",
                    "/sweeps",
                    Some(body.as_bytes()),
                    &[("X-Client-Id", &client_id)],
                )
                .expect("submit sweep");
                let text = String::from_utf8_lossy(&response).to_string();
                assert_eq!(status, 202, "submit must be accepted: {text}");
                let job = json::parse(&text)
                    .and_then(|d| d.as_object()?.get("job")?.as_u64())
                    .expect("acceptance document carries the job id");
                // Follow the stream to the end; the terminal `done`
                // event must arrive for every follower, no matter how
                // the 16 jobs interleaved.
                let mut saw_done = false;
                let status = client::get_streaming(
                    &addr,
                    &format!("/jobs/{job}/events"),
                    &[],
                    &mut |line| {
                        if line.contains("\"event\": \"done\"") {
                            saw_done = true;
                        }
                    },
                )
                .expect("event stream");
                assert_eq!(status, 200);
                assert!(saw_done, "stream must end with the done event");
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }

    // 16 clients x 2 keys, but the memo makes each key simulate once.
    let (status, stats) = get_json(&addr, "/stats");
    assert_eq!(status, 200);
    let engine = stats.as_object().unwrap().get("engine").unwrap();
    let runs = engine.as_object().unwrap().get("runs").unwrap().as_u64();
    assert_eq!(runs, Some(2), "capture-once invariant: {stats:?}");

    // Both counters endpoints serve from cache now.
    for stem in &stems {
        let (status, _) = get_json(&addr, &format!("/counters/{stem}"));
        assert_eq!(status, 200);
    }

    // Graceful drain: POST /shutdown flips the drain flag, the handle
    // joins every thread, and the port stops answering.
    let (status, _) = client::post(&addr, "/shutdown", "{}").expect("shutdown");
    assert_eq!(status, 200);
    assert!(handle.shutdown_requested());
    handle.shutdown();
    assert!(
        client::get(&addr, "/healthz").is_err(),
        "a drained service must refuse connections"
    );
}

#[test]
fn admission_sheds_on_budget_and_client_cap() {
    // Zero queue budget: any uncached submission overflows it.
    let policy = AdmissionPolicy {
        queue_budget_seconds: 0.0,
        ..AdmissionPolicy::default()
    };
    let (handle, addr, _ctx) = boot(policy);
    let stem = RunKey::new("DC", PimMode::Baseline, LdbcSize::K1).file_stem();
    let body = format!("{{\"keys\": [\"{stem}\"]}}");
    let (status, response) =
        client::request(&addr, "POST", "/sweeps", Some(body.as_bytes()), &[]).expect("submit");
    let doc = json::parse(&String::from_utf8_lossy(&response)).expect("shed document");
    assert_eq!(
        (status, error_id(&doc).as_str()),
        (429, "queue_budget_exceeded")
    );
    handle.shutdown();

    // Zero per-client cap: shed before the budget is even consulted.
    let policy = AdmissionPolicy {
        client_inflight_cap: 0,
        ..AdmissionPolicy::default()
    };
    let (handle, addr, _ctx) = boot(policy);
    let (status, response) =
        client::request(&addr, "POST", "/sweeps", Some(body.as_bytes()), &[]).expect("submit");
    let doc = json::parse(&String::from_utf8_lossy(&response)).expect("shed document");
    assert_eq!(
        (status, error_id(&doc).as_str()),
        (429, "client_inflight_cap")
    );
    handle.shutdown();
}

/// The full Figure 7 path: 409 before, streamed sweep with per-run
/// events, then a cached figure that is byte-identical to the shared
/// formatter's output (what `fig07 --json` prints). 24 simulated runs,
/// so release builds only.
#[test]
#[cfg_attr(debug_assertions, ignore = "24 x 1k simulations; run with --release")]
fn fig07_byte_identity_and_streamed_sweep() {
    let (handle, addr, ctx) = boot(AdmissionPolicy::default());

    let (status, doc) = get_json(&addr, "/figures/fig07");
    assert_eq!((status, error_id(&doc).as_str()), (409, "figure_uncached"));

    let (status, response) =
        client::request(&addr, "POST", "/sweeps", Some(b"{\"fig\": \"fig07\"}"), &[])
            .expect("submit");
    let text = String::from_utf8_lossy(&response).to_string();
    assert_eq!(status, 202, "{text}");
    let job = json::parse(&text)
        .and_then(|d| d.as_object()?.get("job")?.as_u64())
        .expect("job id");

    let mut run_events = 0usize;
    let mut saw_done = false;
    let status = client::get_streaming(&addr, &format!("/jobs/{job}/events"), &[], &mut |line| {
        if line.contains("\"event\": \"run\"") {
            run_events += 1;
        }
        if line.contains("\"event\": \"done\"") {
            saw_done = true;
        }
    })
    .expect("event stream");
    assert_eq!(status, 200);
    assert!(saw_done);
    let expected_runs = figjson::figure_keys("fig07", &ctx).unwrap().len();
    assert_eq!(run_events, expected_runs, "one run event per sweep key");

    // Byte identity with the shared formatter — the same bytes the
    // `fig07 --json` CLI prints.
    let (status, served) = client::get(&addr, "/figures/fig07").expect("cached figure");
    assert_eq!(status, 200);
    let reference = figjson::figure_json("fig07", &ctx).expect("formatter output");
    assert_eq!(String::from_utf8(served).unwrap(), reference);

    handle.shutdown();
}
