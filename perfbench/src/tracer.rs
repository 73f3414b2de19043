//! Spans the traced run records around each call the benchmark makes into
//! a layer. They stay in memory and go to standard error, one JSON object
//! per line, when the traced units are done.

use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
    /// The span open when this one opened (the call that made this one).
    parent: Option<usize>,
}

/// Records nested spans when on; does nothing when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span inside the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if self.on {
            let now = self.origin.elapsed().as_nanos();
            self.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.origin.elapsed().as_nanos();
        }
    }

    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}\n",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect()
    }
}
