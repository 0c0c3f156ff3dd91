//! In-memory spans around the benchmark's calls into the simulator's
//! public functions. A disabled tracer records nothing and reads no clock,
//! so the timed runs and the traced run share one code path.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    parent: u32,
    /// Index of the outermost enclosing span (itself when top-level).
    root: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// An open span, closed by [`Tracer::end`].
pub struct Open(Option<u32>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let root = if parent == NO_PARENT {
            idx
        } else {
            self.spans[parent as usize].root
        };
        self.spans.push(Span {
            name,
            parent,
            root,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[idx as usize];
        span.dur_ns = now - span.start_ns;
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Seconds spent in spans called `name` under top-level spans called
    /// `root`.
    pub fn total_s(&self, root: &str, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && self.spans[s.root as usize].name == root)
            .map(|s| s.dur_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Number of spans called `name` under top-level spans called `root`.
    pub fn count(&self, root: &str, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && self.spans[s.root as usize].name == root)
            .count() as u64
    }

    /// Seconds covered by the direct children of the top-level spans called
    /// `root`, and the seconds of those top-level spans themselves.
    pub fn child_coverage_s(&self, root: &str) -> (f64, f64) {
        let mut children = 0u64;
        let mut whole = 0u64;
        for s in &self.spans {
            if s.name != root {
                continue;
            }
            if s.parent == NO_PARENT {
                whole += s.dur_ns;
            }
        }
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &self.spans[s.parent as usize];
                if p.parent == NO_PARENT && p.name == root {
                    children += s.dur_ns;
                }
            }
        }
        (children as f64 / 1e9, whole as f64 / 1e9)
    }

    /// Writes every span as one JSON document:
    /// `{"spans": [[name, parent, start_ns, dur_ns], ...]}`, with `parent`
    /// the index of the enclosing span or -1.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        write!(out, "{{{header},\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                line,
                "{sep}\n[\"{}\",{parent},{},{}]",
                s.name, s.start_ns, s.dur_ns
            );
            out.write_all(line.as_bytes())?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}
