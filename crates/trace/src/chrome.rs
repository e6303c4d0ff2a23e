//! Chrome trace-event JSON export.
//!
//! Renders a [`Collector`]'s event log in the [trace-event format]
//! understood by Perfetto and `chrome://tracing`: one JSON object with a
//! `traceEvents` array. Spans become complete events (`"ph":"X"`) with
//! microsecond `ts`/`dur`; instants become `"ph":"i"` with thread scope.
//! Every event carries `pid` 1 and `tid` = its track, and a `thread_name`
//! metadata event names each declared track (`main`, `worker-1`, …), so
//! the viewer shows exactly one named track per worker thread.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::sync::atomic::Ordering;

use crate::{json, Collector, Event};

/// Renders `col`'s events as a Chrome trace-event JSON document.
pub fn chrome_json(col: &Collector) -> String {
    let events = col.all_events();
    // Every declared or observed track gets a name.
    let declared = col.tracks.load(Ordering::Relaxed);
    let tracks = events.iter().map(|e| e.track).fold(declared, u32::max);
    let mut s = String::with_capacity(events.len() * 96 + 256);
    s.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    s.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"lasagne\"}}",
    );
    for t in 0..=tracks {
        let name = if t == 0 {
            "main".to_string()
        } else {
            format!("worker-{t}")
        };
        s.push_str(&format!(
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\
             \"args\":{{\"name\":{}}}}}",
            json::escape(&name)
        ));
    }
    for ev in &events {
        s.push(',');
        s.push_str(&event_json(ev));
    }
    s.push_str("]}");
    s
}

/// Nanoseconds → microseconds with sub-µs precision, as trace-event `ts`
/// values are microseconds.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1000, nanos % 1000)
}

fn event_json(ev: &Event) -> String {
    let mut s = format!(
        "{{\"name\":{},\"cat\":{},",
        json::escape(&ev.name),
        json::escape(ev.cat)
    );
    match ev.dur_nanos {
        Some(dur) => s.push_str(&format!(
            "\"ph\":\"X\",\"ts\":{},\"dur\":{},",
            micros(ev.ts_nanos),
            micros(dur)
        )),
        None => s.push_str(&format!(
            "\"ph\":\"i\",\"s\":\"t\",\"ts\":{},",
            micros(ev.ts_nanos)
        )),
    }
    s.push_str(&format!("\"pid\":1,\"tid\":{},\"args\":{{", ev.track));
    s.push_str(&format!("\"depth\":{}", ev.depth));
    for (k, v) in &ev.args {
        s.push_str(&format!(",{}:{}", json::escape(k), v.to_json()));
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArgVal, TraceCtx};

    #[test]
    fn export_is_valid_json_with_named_tracks() {
        let ctx = TraceCtx::collecting();
        ctx.declare_tracks(2);
        {
            let mut sp = ctx.span("lift", "main");
            sp.arg("insts", 42u64);
        }
        ctx.instant(
            "fences",
            "fence",
            vec![
                ("rule", ArgVal::from("shared-load")),
                ("site", ArgVal::U64(3)),
            ],
        );
        let out = ctx.chrome_json().unwrap();
        let doc = json::parse(&out).expect("chrome export parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // process_name + 3 thread_name (tracks 0..=2) + span + instant.
        assert_eq!(events.len(), 6);
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(names, ["lasagne", "main", "worker-1", "worker-2"]);
        let span = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .expect("complete span event");
        assert_eq!(span.get("cat").unwrap().as_str(), Some("lift"));
        assert_eq!(
            span.get("args").unwrap().get("insts").unwrap().as_u64(),
            Some(42)
        );
        assert!(span.get("dur").unwrap().as_f64().is_some());
    }
}
