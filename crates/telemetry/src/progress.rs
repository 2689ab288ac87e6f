//! Live stderr progress: a heartbeat line for campaigns and a `note` sink
//! for run-descriptive one-liners (the cache summary in the examples).
//!
//! Everything goes to stderr so stdout — the deterministic rendered report —
//! stays byte-identical across `--jobs`, telemetry settings, and `--quiet`.

/// A point-in-time campaign progress snapshot.
#[derive(Clone, Copy, Debug, Default)]
pub struct Heartbeat {
    /// Seeds committed so far.
    pub done: usize,
    /// Total seeds in the campaign.
    pub total: usize,
    /// Distinct bugs found so far.
    pub bugs: usize,
    /// Committed seeds per second since campaign start.
    pub seeds_per_sec: f64,
    /// Campaign-cache hit rate over all lookups, once any lookup happened.
    pub cache_hit_rate: Option<f64>,
    /// Estimated seconds remaining at the current rate.
    pub eta_secs: Option<f64>,
}

impl Heartbeat {
    /// Render the single-line form used on stderr.
    pub fn render(&self) -> String {
        let mut line = format!(
            "[gauntlet] {}/{} seeds · {:.1} seeds/s · {} bug(s)",
            self.done, self.total, self.seeds_per_sec, self.bugs
        );
        if let Some(rate) = self.cache_hit_rate {
            line.push_str(&format!(" · cache {:.0}% hit", rate * 100.0));
        }
        // A zero rate yields an infinite (or NaN) ETA — render it as
        // unknown rather than the literal `ETA infs`.
        match self.eta_secs.filter(|eta| eta.is_finite()) {
            Some(eta) => line.push_str(&format!(" · ETA {eta:.0}s")),
            None => line.push_str(" · ETA —"),
        }
        line
    }
}

/// The stderr sink.  With `enabled == false` (`--quiet`) every call is a
/// no-op, so examples route all their run-descriptive prints through one
/// object instead of scattering `eprintln!`s.
#[derive(Clone, Copy, Debug)]
pub struct ProgressSink {
    enabled: bool,
}

impl ProgressSink {
    pub fn new(enabled: bool) -> Self {
        ProgressSink { enabled }
    }

    /// A silent sink.
    pub fn quiet() -> Self {
        ProgressSink { enabled: false }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Print one run-descriptive line to stderr.
    pub fn note(&self, message: &str) {
        if self.enabled {
            eprintln!("{message}");
        }
    }

    /// Print a heartbeat line to stderr.
    pub fn heartbeat(&self, beat: &Heartbeat) {
        if self.enabled {
            eprintln!("{}", beat.render());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_renders_all_fields() {
        let beat = Heartbeat {
            done: 40,
            total: 100,
            bugs: 3,
            seeds_per_sec: 12.34,
            cache_hit_rate: Some(0.876),
            eta_secs: Some(4.9),
        };
        assert_eq!(
            beat.render(),
            "[gauntlet] 40/100 seeds · 12.3 seeds/s · 3 bug(s) · cache 88% hit · ETA 5s"
        );
    }

    #[test]
    fn heartbeat_omits_missing_cache_and_eta() {
        let beat = Heartbeat {
            done: 1,
            total: 10,
            bugs: 0,
            seeds_per_sec: 0.5,
            cache_hit_rate: None,
            eta_secs: None,
        };
        assert_eq!(
            beat.render(),
            "[gauntlet] 1/10 seeds · 0.5 seeds/s · 0 bug(s) · ETA —"
        );
    }

    #[test]
    fn heartbeat_clamps_non_finite_eta_to_unknown() {
        // A stalled campaign has rate 0, so the naive division produces an
        // infinite ETA; it must render as unknown, not `ETA infs`.
        let beat = Heartbeat {
            done: 0,
            total: 10,
            bugs: 0,
            seeds_per_sec: 0.0,
            cache_hit_rate: None,
            eta_secs: Some(f64::INFINITY),
        };
        assert_eq!(
            beat.render(),
            "[gauntlet] 0/10 seeds · 0.0 seeds/s · 0 bug(s) · ETA —"
        );
        let nan = Heartbeat {
            eta_secs: Some(f64::NAN),
            ..beat
        };
        assert!(nan.render().ends_with("ETA —"));
    }
}
