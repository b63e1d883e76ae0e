//! The one shape every per-event workload is driven through, the match
//! digest, and the single place the benchmark reads `EngineMetrics`.

use cep::core::engine::Engine;
use cep::core::event::EventRef;
use cep::core::matches::Match;
use cep::core::metrics::EngineMetrics;
use cep::core::registry::{QueryId, QueryRegistry};

/// A freshly set-up system under test — one engine or one registry —
/// pushed one event at a time. Matches land in a `Vec` the driver owns
/// (the caller's `Vec` of the library API) until visited or discarded.
pub trait Driver {
    /// Offers one event; returns how many matches the call handed back.
    fn process(&mut self, event: &EventRef) -> usize;
    /// Signals end of stream; returns how many matches it released.
    fn flush(&mut self) -> usize;
    /// Drops the matches handed back so far, unseen.
    fn discard(&mut self);
    /// Shows each match handed back so far to `f` with its query tag
    /// (0 for a single-query engine, query id + 1 for a registry), then
    /// drops them.
    fn visit(&mut self, f: &mut dyn FnMut(u64, &Match));
    /// The system's own counters.
    fn counters(&self) -> Counters;
    /// `(distinct fragments, sharing ratio)` of a registry.
    fn sharing(&self) -> Option<(usize, f64)> {
        None
    }
}

/// A single-query engine behind the `Engine` trait.
pub struct EngineDriver {
    engine: Box<dyn Engine>,
    out: Vec<Match>,
}

impl EngineDriver {
    pub fn new(engine: Box<dyn Engine>) -> EngineDriver {
        EngineDriver {
            engine,
            out: Vec::new(),
        }
    }
}

impl Driver for EngineDriver {
    #[inline]
    fn process(&mut self, event: &EventRef) -> usize {
        let before = self.out.len();
        self.engine.process(event, &mut self.out);
        self.out.len() - before
    }

    fn flush(&mut self) -> usize {
        let before = self.out.len();
        self.engine.flush(&mut self.out);
        self.out.len() - before
    }

    fn discard(&mut self) {
        self.out.clear();
    }

    fn visit(&mut self, f: &mut dyn FnMut(u64, &Match)) {
        for m in self.out.drain(..) {
            f(0, &m);
        }
    }

    fn counters(&self) -> Counters {
        Counters::read(self.engine.metrics())
    }
}

/// A multi-query registry; matches are tagged with their query.
pub struct RegistryDriver {
    registry: QueryRegistry,
    out: Vec<(QueryId, Match)>,
}

impl RegistryDriver {
    pub fn new(registry: QueryRegistry) -> RegistryDriver {
        RegistryDriver {
            registry,
            out: Vec::new(),
        }
    }
}

impl Driver for RegistryDriver {
    #[inline]
    fn process(&mut self, event: &EventRef) -> usize {
        let before = self.out.len();
        self.registry.process(event, &mut self.out);
        self.out.len() - before
    }

    fn flush(&mut self) -> usize {
        let before = self.out.len();
        self.registry.flush(&mut self.out);
        self.out.len() - before
    }

    fn discard(&mut self) {
        self.out.clear();
    }

    fn visit(&mut self, f: &mut dyn FnMut(u64, &Match)) {
        for (id, m) in self.out.drain(..) {
            f(id.0 + 1, &m);
        }
    }

    fn counters(&self) -> Counters {
        Counters::read(&self.registry.metrics())
    }

    fn sharing(&self) -> Option<(usize, f64)> {
        let plan = self.registry.set_plan();
        Some((plan.distinct_fragments, plan.sharing_ratio()))
    }
}

/// Order-independent digest of a run's output: match count plus the
/// wrapping sum of one 64-bit hash per match over (query tag, bound
/// `(position, serial number)` pairs, `last_ts`, `emitted_at`). Emission
/// order may differ between backends, shard counts and plan swaps; the
/// set of matches may not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub sum: u64,
}

fn mix(mut x: u64) -> u64 {
    // splitmix64 finaliser
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Digest {
    pub fn add(&mut self, tag: u64, m: &Match) {
        let mut h = mix(m.emitted_at ^ 0xE117_7ED0) ^ mix(m.last_ts ^ 0x1A57).rotate_left(17);
        for (pos, binding) in &m.bindings {
            for e in binding.events() {
                // Summed, so the hash does not depend on binding order.
                h = h.wrapping_add(mix(((*pos as u64) << 48) ^ e.seq ^ 0x5E9));
            }
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(mix(h ^ tag.rotate_left(40)));
    }
}

/// The counters this benchmark reads from the library's public
/// `EngineMetrics`, copied in one place so a change to that struct
/// touches one function here.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub matches: u64,
    pub partials_created: u64,
    pub peak_partials: u64,
    pub peak_buffered: u64,
    pub est_peak_bytes: u64,
    pub pred_evals: u64,
    pub index_probes: u64,
    pub delta_updates: u64,
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
    pub plan_swaps: u64,
    pub suppressed_swaps: u64,
    pub replayed_events: u64,
    pub replay_ns: u64,
    pub peak_retained: u64,
    pub fanout_emits: u64,
}

impl Counters {
    pub fn read(m: &EngineMetrics) -> Counters {
        Counters {
            matches: m.matches_emitted,
            partials_created: m.partial_matches_created,
            peak_partials: m.peak_partial_matches as u64,
            peak_buffered: m.peak_buffered_events as u64,
            est_peak_bytes: m.peak_memory_bytes as u64,
            pred_evals: m.predicate_evaluations,
            index_probes: m.index_probes,
            delta_updates: m.delta_updates,
            plan_cache_hits: m.plan_cache_hits,
            plan_cache_misses: m.plan_cache_misses,
            plan_swaps: m.plan_swaps,
            suppressed_swaps: m.suppressed_swaps,
            replayed_events: m.replayed_events,
            replay_ns: m.replay_time_ns,
            peak_retained: m.peak_retained_events as u64,
            fanout_emits: m.fanout_emits,
        }
    }

    /// Adds the counters of another query of the same rep. Peaks add:
    /// the queries of a rep run one after the other, and the sum is what
    /// a deployment holding all of them at once would hold.
    pub fn add(&mut self, o: &Counters) {
        self.matches += o.matches;
        self.partials_created += o.partials_created;
        self.peak_partials += o.peak_partials;
        self.peak_buffered += o.peak_buffered;
        self.est_peak_bytes += o.est_peak_bytes;
        self.pred_evals += o.pred_evals;
        self.index_probes += o.index_probes;
        self.delta_updates += o.delta_updates;
        self.plan_cache_hits += o.plan_cache_hits;
        self.plan_cache_misses += o.plan_cache_misses;
        self.plan_swaps += o.plan_swaps;
        self.suppressed_swaps += o.suppressed_swaps;
        self.replayed_events += o.replayed_events;
        self.replay_ns += o.replay_ns;
        self.peak_retained += o.peak_retained;
        self.fanout_emits += o.fanout_emits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cep::core::event::{Event, TypeId};
    use cep::core::matches::Binding;
    use std::sync::Arc;

    fn ev(seq: u64) -> EventRef {
        let mut e = Event::new(TypeId(0), seq, vec![]);
        e.seq = seq;
        Arc::new(e)
    }

    fn m(bindings: Vec<(usize, Binding)>, emitted_at: u64) -> Match {
        Match {
            bindings,
            last_ts: 9,
            emitted_at,
        }
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = m(vec![(0, Binding::One(ev(1))), (1, Binding::One(ev(2)))], 9);
        let a_swapped = m(vec![(1, Binding::One(ev(2))), (0, Binding::One(ev(1)))], 9);
        let b = m(vec![(0, Binding::One(ev(2))), (1, Binding::One(ev(1)))], 9);
        let later = m(vec![(0, Binding::One(ev(1))), (1, Binding::One(ev(2)))], 10);
        let of = |ms: &[&Match]| {
            let mut d = Digest::default();
            for x in ms {
                d.add(0, x);
            }
            d
        };
        assert_eq!(of(&[&a, &b]), of(&[&b, &a_swapped]));
        assert_ne!(of(&[&a]), of(&[&b]), "positions matter");
        assert_ne!(of(&[&a]), of(&[&later]), "emitted_at matters");
        assert_ne!(of(&[&a]), of(&[&a, &a]), "multiplicity matters");
        let mut tagged = Digest::default();
        tagged.add(3, &a);
        assert_ne!(tagged, of(&[&a]), "the query tag matters");
    }
}
