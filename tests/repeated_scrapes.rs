//! Exporting into one registry again is a fresh scrape, not a second
//! copy of the history: a sampler that keeps one registry for a whole
//! run (E22's does) must read each lifetime histogram once, so a
//! histogram's `_count` keeps matching the counter it mirrors.

use product_sort::graph::factories;
use product_sort::obs::{Event, Profile, Registry, SpanClass, Stage, Tier, TimedEvent};
use product_sort::service::{ServiceConfig, SortService};

/// The value of the Prometheus series `series` (name plus label set,
/// exactly as rendered) in `text`.
fn sample(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no series {series} in\n{text}"))
        .parse()
        .expect("an integer sample")
}

#[test]
fn service_latency_count_matches_completed_requests_after_repeated_exports() {
    let config = ServiceConfig {
        coalesce_budget_ns: 0,
        workers: 1,
        ..ServiceConfig::default()
    };
    let service = SortService::builder(config)
        .register_shape(&factories::path(3), 2)
        .expect("path(3) is connected")
        .start();
    let tickets: Vec<_> = (0..10u64)
        .map(|i| {
            let keys = (0..9).map(|k| (k * 7 + i) % 9).collect();
            service.submit(0, 0, keys).expect("admitted")
        })
        .collect();
    for ticket in tickets {
        ticket.wait().expect("sorted");
    }
    let mut registry = Registry::new();
    for scrape in 1..=3 {
        service.export_metrics(&mut registry);
        let text = registry.prometheus_text();
        let completed = sample(
            &text,
            r#"pns_service_requests_total{outcome="completed",tenant="0"}"#,
        );
        let latencies = sample(&text, r#"pns_service_latency_ns_count{tenant="0"}"#);
        assert_eq!(completed, 10, "scrape {scrape}");
        assert_eq!(latencies, completed, "scrape {scrape}");
    }
}

#[test]
fn span_histogram_count_matches_the_span_count_after_repeated_exports() {
    let mut events = Vec::new();
    for span in 1..=3u64 {
        events.push(TimedEvent {
            t_ns: span * 100,
            event: Event::SpanEnter {
                span,
                parent: 0,
                tier: Tier::Kernel.code(),
                stage: Stage::Round.code(),
                class: SpanClass::Compare.code(),
            },
        });
        events.push(TimedEvent {
            t_ns: span * 100 + 40,
            event: Event::SpanExit { span, dur_ns: 40 },
        });
    }
    let profile = Profile::from_events(&events);
    let (_, stat) = profile.stats().next().expect("one span key");
    assert_eq!(stat.count, 3);
    let mut registry = Registry::new();
    for scrape in 1..=3 {
        profile.export_to(&mut registry);
        let text = registry.prometheus_text();
        let count = sample(
            &text,
            r#"pns_span_ns_count{class="compare",stage="round",tier="kernel"}"#,
        );
        assert_eq!(count, stat.count, "scrape {scrape}");
    }
}
