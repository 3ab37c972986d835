//! The machine model: capacity, outages, and the advance-reservation calendar.
//!
//! The cluster tracks how many processors exist, how many are currently lost to
//! outages, and which future intervals are promised to advance reservations (the
//! mechanism Section 3.1 says metacomputing needs from local schedulers). The
//! simulator enforces the capacity constraint `Σ procs·share ≤ available`.

use serde::{Deserialize, Serialize};

/// An advance reservation: `procs` processors promised for `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reservation {
    /// Reservation identifier.
    pub id: u64,
    /// Start of the reserved window, seconds.
    pub start: f64,
    /// End of the reserved window, seconds.
    pub end: f64,
    /// Number of processors reserved.
    pub procs: u32,
}

impl Reservation {
    /// True if the reservation overlaps the interval `[from, to)`.
    pub fn overlaps(&self, from: f64, to: f64) -> bool {
        self.start < to && from < self.end
    }

    /// True if the reservation is active at time `t`.
    pub fn active_at(&self, t: f64) -> bool {
        t >= self.start && t < self.end
    }
}

/// The cluster's time-varying capacity state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Total number of processors in the machine.
    pub total_procs: u32,
    /// Processors currently unavailable due to outages.
    pub down_procs: u32,
    /// Outstanding advance reservations (kept sorted by start time).
    pub reservations: Vec<Reservation>,
    next_reservation_id: u64,
}

impl Cluster {
    /// A healthy cluster with the given number of processors.
    pub fn new(total_procs: u32) -> Self {
        assert!(total_procs > 0, "cluster must have at least one processor");
        Cluster {
            total_procs,
            down_procs: 0,
            reservations: Vec::new(),
            next_reservation_id: 1,
        }
    }

    /// Processors currently available for scheduling (total minus down), ignoring
    /// reservations.
    pub fn available_procs(&self) -> u32 {
        self.total_procs.saturating_sub(self.down_procs)
    }

    /// Processors promised to reservations active at time `t`.
    pub fn reserved_at(&self, t: f64) -> u32 {
        self.reservations
            .iter()
            .filter(|r| r.active_at(t))
            .map(|r| r.procs)
            .sum()
    }

    /// The largest number of processors promised to reservations at any instant of
    /// the interval `[from, to)`. Because reservations are step functions this is
    /// evaluated at interval edges.
    pub fn max_reserved_during(&self, from: f64, to: f64) -> u32 {
        let mut points: Vec<f64> = vec![from];
        for r in &self.reservations {
            if r.overlaps(from, to) {
                if r.start > from {
                    points.push(r.start);
                }
                if r.end < to {
                    points.push(r.end);
                }
            }
        }
        points
            .into_iter()
            .map(|p| self.reserved_at(p))
            .max()
            .unwrap_or(0)
    }

    /// Record an outage taking down `procs` processors (clamped to what is still up).
    /// Returns the number actually taken down.
    pub fn take_down(&mut self, procs: u32) -> u32 {
        let actually = procs.min(self.available_procs());
        self.down_procs += actually;
        actually
    }

    /// Restore `procs` processors after an outage ends (clamped to what is down).
    pub fn bring_up(&mut self, procs: u32) -> u32 {
        let actually = procs.min(self.down_procs);
        self.down_procs -= actually;
        actually
    }

    /// Try to book an advance reservation. The booking succeeds if, at every instant
    /// of the window, the newly reserved processors plus already-reserved processors
    /// fit within the *total* machine (outages are not predictable, so the promise
    /// is made against nominal capacity). Returns the reservation id on success,
    /// and `None` for an empty, non-finite or unsatisfiable window.
    ///
    /// The booking goes after every reservation with an equal or earlier start,
    /// which keeps [`Cluster::reservations`] in start order and equal starts in
    /// booking order.
    pub fn try_reserve(&mut self, start: f64, end: f64, procs: u32) -> Option<u64> {
        if !start.is_finite() || !end.is_finite() {
            return None;
        }
        if end <= start || procs == 0 || procs > self.total_procs {
            return None;
        }
        let already = self.max_reserved_during(start, end);
        if already + procs > self.total_procs {
            return None;
        }
        let id = self.next_reservation_id;
        self.next_reservation_id += 1;
        let at = self.reservations.partition_point(|r| r.start <= start);
        self.reservations.insert(
            at,
            Reservation {
                id,
                start,
                end,
                procs,
            },
        );
        Some(id)
    }

    /// Cancel a reservation by id. Returns true if it existed.
    pub fn cancel_reservation(&mut self, id: u64) -> bool {
        let before = self.reservations.len();
        self.reservations.retain(|r| r.id != id);
        before != self.reservations.len()
    }

    /// Drop reservations whose window has entirely passed.
    pub fn expire_reservations(&mut self, now: f64) {
        self.reservations.retain(|r| r.end > now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_accounting() {
        let mut c = Cluster::new(128);
        assert_eq!(c.available_procs(), 128);
        assert_eq!(c.take_down(32), 32);
        assert_eq!(c.available_procs(), 96);
        // taking down more than exists is clamped
        assert_eq!(c.take_down(500), 96);
        assert_eq!(c.available_procs(), 0);
        assert_eq!(c.bring_up(64), 64);
        assert_eq!(c.available_procs(), 64);
        assert_eq!(c.bring_up(1000), 64);
        assert_eq!(c.available_procs(), 128);
    }

    #[test]
    #[should_panic]
    fn zero_size_cluster_rejected() {
        Cluster::new(0);
    }

    #[test]
    fn reservation_overlap_and_active() {
        let r = Reservation {
            id: 1,
            start: 100.0,
            end: 200.0,
            procs: 16,
        };
        assert!(r.overlaps(150.0, 160.0));
        assert!(r.overlaps(0.0, 101.0));
        assert!(!r.overlaps(200.0, 300.0));
        assert!(!r.overlaps(0.0, 100.0));
        assert!(r.active_at(100.0));
        assert!(!r.active_at(200.0));
    }

    #[test]
    fn booking_respects_total_capacity() {
        let mut c = Cluster::new(64);
        let a = c.try_reserve(100.0, 200.0, 40).unwrap();
        // A second overlapping reservation that would exceed the machine fails...
        assert!(c.try_reserve(150.0, 250.0, 30).is_none());
        // ...but a non-overlapping one succeeds.
        let b = c.try_reserve(200.0, 300.0, 60).unwrap();
        assert_ne!(a, b);
        assert_eq!(c.reserved_at(150.0), 40);
        assert_eq!(c.reserved_at(250.0), 60);
        assert_eq!(c.reserved_at(350.0), 0);
        assert_eq!(c.max_reserved_during(0.0, 400.0), 60);
        assert_eq!(c.max_reserved_during(100.0, 200.0), 40);
    }

    #[test]
    fn booking_rejects_degenerate_requests() {
        let mut c = Cluster::new(64);
        assert!(c.try_reserve(100.0, 100.0, 8).is_none());
        assert!(c.try_reserve(100.0, 50.0, 8).is_none());
        assert!(c.try_reserve(100.0, 200.0, 0).is_none());
        assert!(c.try_reserve(100.0, 200.0, 65).is_none());
    }

    #[test]
    fn cancel_and_expire() {
        let mut c = Cluster::new(32);
        let id = c.try_reserve(10.0, 20.0, 8).unwrap();
        let id2 = c.try_reserve(30.0, 40.0, 8).unwrap();
        assert!(c.cancel_reservation(id));
        assert!(!c.cancel_reservation(id));
        assert_eq!(c.reservations.len(), 1);
        c.expire_reservations(45.0);
        assert!(c.reservations.is_empty());
        let _ = id2;
    }

    #[test]
    fn booking_rejects_non_finite_windows() {
        let mut c = Cluster::new(64);
        for (start, end) in [
            (f64::NAN, 100.0),
            (0.0, f64::NAN),
            (f64::NAN, f64::NAN),
            (0.0, f64::INFINITY),
            (f64::NEG_INFINITY, 100.0),
        ] {
            assert!(c.try_reserve(start, end, 8).is_none(), "[{start}, {end})");
        }
        assert!(c.reservations.is_empty());
        assert!(c.try_reserve(0.0, 100.0, 8).is_some());
    }

    #[test]
    fn equal_starts_keep_booking_order() {
        let mut c = Cluster::new(64);
        let a = c.try_reserve(100.0, 200.0, 4).unwrap();
        let b = c.try_reserve(50.0, 300.0, 4).unwrap();
        let d = c.try_reserve(100.0, 150.0, 4).unwrap();
        let e = c.try_reserve(100.0, 400.0, 4).unwrap();
        let f = c.try_reserve(120.0, 130.0, 4).unwrap();
        let order: Vec<u64> = c.reservations.iter().map(|r| r.id).collect();
        assert_eq!(order, vec![b, a, d, e, f]);
    }

    #[test]
    fn reservation_ids_are_unique_and_increasing() {
        let mut c = Cluster::new(32);
        let a = c.try_reserve(0.0, 10.0, 1).unwrap();
        let b = c.try_reserve(0.0, 10.0, 1).unwrap();
        assert!(b > a);
    }
}
