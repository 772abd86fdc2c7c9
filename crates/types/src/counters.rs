//! Declare-once counter groups.
//!
//! Every deterministic counter the engine exposes belongs to one group
//! (engine, fault, UDF guard, recovery, durability, serving), and each
//! group is one [`counters!`](crate::counters!) table. The stats struct,
//! `any`/`merge`, the `(name, value)` export the journal persists, the
//! by-name fold a resume seeds from, and the atomic cells worker threads
//! bump are all generated from that table, so a counter cannot be in the
//! snapshot yet missing from the fingerprint or the crash-resume seed.

use std::sync::atomic::{AtomicU64, Ordering};

/// One counter bumped from worker threads. `Relaxed` on purpose: a cell
/// is a statistic and publishes no other data; readers only see it after
/// the pool batch that bumped it has been joined.
#[derive(Debug, Default)]
pub struct CounterCell(AtomicU64);

impl CounterCell {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declare one counter group: a name prefix, then `field: sum|max` lines.
///
/// ```
/// fudj_types::counters! {
///     /// Example group.
///     pub struct DemoStats("demo."), cells DemoCells {
///         /// Things seen.
///         seen: sum,
///         /// Largest thing seen.
///         largest: max,
///     }
/// }
/// let cells = DemoCells::default();
/// cells.seen.add(2);
/// let mut total = cells.load();
/// total.merge(&DemoStats { seen: 1, largest: 9 });
/// assert_eq!(total.fields(), [("demo.seen", 3), ("demo.largest", 9)]);
/// assert!(total.fold("demo.largest", 4) && total.largest == 9);
/// ```
///
/// Generates the `Copy + Eq + Default` struct with one public `u64` field
/// per line, plus `LEN`, `any`, `merge`, `fields` and `fold`; `sum`
/// counters accumulate, `max` counters keep the high-water mark. With
/// `, cells Name` it also generates a module-private struct of
/// [`CounterCell`]s with the same field names and `load()`.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $Stats:ident($prefix:literal) {
            $( $(#[$fmeta:meta])* $field:ident : $kind:ident ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $Stats {
            $( $(#[$fmeta])* pub $field: u64, )+
        }

        impl $Stats {
            /// Number of counters in this group.
            pub const LEN: usize = [$(stringify!($field)),+].len();

            /// Whether any counter is non-zero.
            pub fn any(&self) -> bool {
                *self != Self::default()
            }

            /// Fold `other` into `self`: `sum` counters add, `max`
            /// counters keep the larger value.
            pub fn merge(&mut self, other: &Self) {
                $( $crate::counters!(@fold $kind self.$field, other.$field); )+
            }

            /// `(prefixed name, value)` of every counter, in declaration
            /// order.
            pub fn fields(&self) -> [(&'static str, u64); Self::LEN] {
                [ $( (concat!($prefix, stringify!($field)), self.$field) ),+ ]
            }

            /// Fold `value` into the counter with this prefixed name (by its
            /// declared kind). Returns `false`, changing nothing, for a name
            /// this group does not have.
            pub fn fold(&mut self, name: &str, value: u64) -> bool {
                match name {
                    $( concat!($prefix, stringify!($field)) =>
                        $crate::counters!(@fold $kind self.$field, value), )+
                    _ => return false,
                }
                true
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $Stats:ident($prefix:literal), cells $Cells:ident {
            $( $(#[$fmeta:meta])* $field:ident : $kind:ident ),+ $(,)?
        }
    ) => {
        $crate::counters! {
            $(#[$meta])*
            $vis struct $Stats($prefix) { $( $(#[$fmeta])* $field: $kind ),+ }
        }

        /// Worker-thread accumulator behind the group's stats struct.
        #[derive(Debug, Default)]
        struct $Cells {
            $( $field: $crate::counters::CounterCell, )+
        }

        impl $Cells {
            /// Copy out the counters.
            fn load(&self) -> $Stats {
                $Stats { $( $field: self.$field.get(), )+ }
            }
        }
    };
    (@fold sum $acc:expr, $v:expr) => { $acc += $v };
    (@fold max $acc:expr, $v:expr) => { $acc = $acc.max($v) };
}

#[cfg(test)]
mod tests {
    counters! {
        /// Test group with one counter of each kind.
        struct DemoStats("demo."), cells DemoCells {
            /// A volume.
            volume: sum,
            /// A high-water mark.
            peak: max,
        }
    }

    #[test]
    fn merge_and_fold_honour_sum_vs_max() {
        let mut a = DemoStats { volume: 5, peak: 7 };
        a.merge(&DemoStats { volume: 3, peak: 4 });
        assert_eq!(a, DemoStats { volume: 8, peak: 7 });
        a.merge(&DemoStats { volume: 0, peak: 9 });
        assert_eq!(a, DemoStats { volume: 8, peak: 9 });

        assert!(a.fold("demo.volume", 2));
        assert!(a.fold("demo.peak", 1));
        assert_eq!(
            a,
            DemoStats {
                volume: 10,
                peak: 9
            }
        );
        assert!(a.fold("demo.peak", 11));
        assert_eq!(a.peak, 11);
    }

    #[test]
    fn fold_of_an_unknown_name_changes_nothing() {
        let mut a = DemoStats { volume: 1, peak: 2 };
        assert!(!a.fold("demo.volumes", 100));
        assert!(!a.fold("volume", 100), "the prefix is part of the name");
        assert!(!a.fold("", 100));
        assert_eq!(a, DemoStats { volume: 1, peak: 2 });
    }

    #[test]
    fn any_is_false_only_at_default() {
        assert!(!DemoStats::default().any());
        for (name, _) in DemoStats::default().fields() {
            let mut s = DemoStats::default();
            assert!(s.fold(name, 1));
            assert!(s.any(), "{name}");
        }
    }

    #[test]
    fn fields_list_every_counter_in_declaration_order() {
        assert_eq!(DemoStats::LEN, 2);
        let s = DemoStats { volume: 3, peak: 4 };
        assert_eq!(s.fields(), [("demo.volume", 3), ("demo.peak", 4)]);
    }

    #[test]
    fn cells_load_equals_the_sum_of_concurrent_adds() {
        let cells = DemoCells::default();
        let (threads, per_thread) = (4u64, 1_000u64);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        cells.volume.add(1);
                        cells.peak.add(2);
                    }
                });
            }
        });
        assert_eq!(
            cells.load(),
            DemoStats {
                volume: threads * per_thread,
                peak: 2 * threads * per_thread,
            }
        );
    }
}
