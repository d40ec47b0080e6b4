//! Golden-file test freezing the `GET /metrics` exposition format.
//!
//! Scrapers and dashboards key on metric *names, types, and label
//! sets*; those must never change silently. Sample values vary run to
//! run, so every value is normalized to `V` before comparison — the
//! golden freezes the shape, not the numbers.
//!
//! To intentionally change the format, update the golden with:
//! `UPDATE_GOLDEN=1 cargo test --test metrics_golden`.

use questpro_server::metrics::{render, HttpCounters, OntologyCounters};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics.golden")
}

/// Replaces the trailing sample value of every non-comment line with
/// `V`, leaving names, labels, and `# HELP`/`# TYPE` lines verbatim.
fn normalize(exposition: &str) -> String {
    let mut out = String::new();
    for line in exposition.lines() {
        if line.starts_with('#') || line.is_empty() {
            out.push_str(line);
        } else {
            let cut = line.rfind(' ').expect("sample lines are `name value`");
            out.push_str(&line[..cut]);
            out.push_str(" V");
        }
        out.push('\n');
    }
    out
}

#[test]
fn metrics_exposition_format_is_frozen() {
    // Exercise the counters so every status class renders — the *shape*
    // must be identical whether or not traffic happened.
    let http = HttpCounters::default();
    http.record_request();
    http.record_response(200);
    http.record_response(404);
    http.record_overload();
    let onto = OntologyCounters::default();
    onto.record_update(3);
    onto.record_rejection();
    let got = normalize(&render(&http, 2, &onto, 3));

    // The format is also traffic-independent: a cold scrape has the
    // exact same lines.
    assert_eq!(
        got,
        normalize(&render(
            &HttpCounters::default(),
            0,
            &OntologyCounters::default(),
            0
        )),
        "exposition shape must not depend on traffic"
    );

    // The live-update counters are part of the frozen surface.
    for name in [
        "questpro_ontology_updates_total",
        "questpro_ontology_update_rejections_total",
        "questpro_ontology_update_pages_copied_total",
        "questpro_ontology_versions_open",
    ] {
        assert!(got.contains(name), "{name} missing from the exposition");
    }

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "GET /metrics exposition changed; if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test metrics_golden"
    );
}

#[test]
fn every_trace_stage_appears_in_the_exposition() {
    let text = render(&HttpCounters::default(), 0, &OntologyCounters::default(), 0);
    for stage in questpro_trace::STAGES {
        assert!(
            text.contains(&format!("stage=\"{stage}\",le=\"+Inf\"")),
            "stage {stage} missing from the histogram family"
        );
    }
}

#[test]
fn route_labels_and_the_exposition_cannot_drift_apart() {
    use questpro_server::router::ROUTES;

    let text = render(&HttpCounters::default(), 0, &OntologyCounters::default(), 0);
    // Forward: every dispatchable route renders its full histogram even
    // with zero traffic.
    for route in ROUTES {
        assert!(
            text.contains(&format!("route=\"{route}\",le=\"+Inf\"")),
            "route {route} missing from the histogram family"
        );
    }
    // Backward: the exposition carries no label outside the dispatch
    // table (a stale label here means ROUTES and the router diverged).
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some(rest) = line.split("route=\"").nth(1) else {
            continue;
        };
        let label = rest.split('"').next().expect("closing quote");
        assert!(
            ROUTES.contains(&label),
            "exposition carries unknown route label {label:?}"
        );
    }
}
