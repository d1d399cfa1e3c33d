//! FIFO multi-server stations: the queueing resources of the cluster model.
//!
//! A [`Station`] models `c` identical servers in front of one FIFO queue —
//! exactly the shape of the paper's per-node database executor ("Cassandra
//! is not fast enough to satisfy all of the requests as quickly as they
//! arrive … a lot of requests spend a considerable time waiting", §V-B) and
//! of the master's outbound CPU. It holds only who is waiting and how many
//! servers are busy: the caller schedules each completion on its own
//! calendar and stamps whatever times its traces need, so the paper's
//! *time in queue* vs *time in service* is the caller's arrival, start and
//! completion instants.

use std::collections::VecDeque;

/// `c` servers in front of one FIFO queue of jobs `J`.
#[derive(Debug, Clone)]
pub struct Station<J> {
    servers: usize,
    busy: usize,
    queue: VecDeque<J>,
}

impl<J> Station<J> {
    /// A station with `servers` parallel servers, all idle.
    ///
    /// # Panics
    /// If `servers` is zero — a station with no server would hold every
    /// job forever, which is never a useful model.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "station capacity must be positive");
        Station {
            servers,
            busy: 0,
            queue: VecDeque::new(),
        }
    }

    /// A job arrives. A free server takes it at once, and it comes back
    /// for the caller to schedule its completion; otherwise it waits in
    /// the queue and `None` comes back.
    pub fn arrive(&mut self, job: J) -> Option<J> {
        if self.busy < self.servers {
            self.busy += 1;
            Some(job)
        } else {
            self.queue.push_back(job);
            None
        }
    }

    /// A server finishes its job and takes the next waiting one, which
    /// comes back for the caller to schedule its completion; with nobody
    /// waiting the server goes idle and `None` comes back.
    pub fn finish(&mut self) -> Option<J> {
        debug_assert!(self.busy > 0, "a job finished on an idle station");
        let next = self.queue.pop_front();
        if next.is_none() {
            self.busy -= 1;
        }
        next
    }

    /// Jobs currently being served.
    pub fn busy(&self) -> usize {
        self.busy
    }

    /// Jobs currently waiting in queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use crate::time::{SimDuration, SimTime};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// A job's life on a station: when it arrived, started and finished.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Life {
        arrived: SimTime,
        started: SimTime,
        finished: SimTime,
    }

    /// What [`play`] saw: each job's index and life, in completion order,
    /// and the station's `(busy, queue_len)` after every event.
    type Played = (Vec<(usize, Life)>, Vec<(usize, usize)>);

    /// Submits jobs `(arrival, service)` to a `servers`-server station and
    /// plays them out.
    fn play(servers: usize, jobs: &[(SimTime, SimDuration)]) -> Played {
        enum Ev {
            Arrive(usize),
            Done(usize),
        }
        let mut calendar = EventQueue::new();
        let mut station = Station::new(servers);
        let mut lives: Vec<Life> = jobs
            .iter()
            .map(|&(arrived, _)| Life {
                arrived,
                started: SimTime::MAX,
                finished: SimTime::MAX,
            })
            .collect();
        for (job, &(at, _)) in jobs.iter().enumerate() {
            calendar.schedule_at(at, Ev::Arrive(job));
        }
        let (mut done, mut seen) = (Vec::new(), Vec::new());
        while let Some(ev) = calendar.pop() {
            let now = calendar.now();
            let started = match ev {
                Ev::Arrive(job) => station.arrive(job),
                Ev::Done(job) => {
                    lives[job].finished = now;
                    done.push((job, lives[job]));
                    station.finish()
                }
            };
            if let Some(job) = started {
                lives[job].started = now;
                calendar.schedule_in(jobs[job].1, Ev::Done(job));
            }
            seen.push((station.busy(), station.queue_len()));
        }
        (done, seen)
    }

    fn finish_ms(done: &[(usize, Life)]) -> Vec<f64> {
        done.iter()
            .map(|(_, l)| l.finished.as_millis_f64())
            .collect()
    }

    #[test]
    fn single_server_serializes_jobs() {
        let (done, _) = play(1, &[(SimTime::ZERO, ms(10)); 3]);
        assert_eq!(finish_ms(&done), vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn multi_server_runs_in_parallel() {
        let (done, _) = play(3, &[(SimTime::ZERO, ms(10)); 3]);
        assert_eq!(finish_ms(&done), vec![10.0, 10.0, 10.0]);
    }

    #[test]
    fn job_report_decomposes_wait_and_service() {
        let (done, _) = play(1, &[(SimTime::ZERO, ms(10)); 2]);
        let (first, second) = (done[0].1, done[1].1);
        assert_eq!(first.started - first.arrived, SimDuration::ZERO);
        assert_eq!(first.finished - first.started, ms(10));
        assert_eq!(second.started - second.arrived, ms(10));
        assert_eq!(second.finished - second.arrived, ms(20));
    }

    #[test]
    fn fifo_order_is_respected() {
        let (done, _) = play(1, &[(SimTime::ZERO, ms(1)); 5]);
        let order: Vec<usize> = done.iter().map(|&(job, _)| job).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn completion_can_resubmit() {
        // A finished job goes straight back in: the station hands the
        // freed server to it when nobody else waits.
        let mut calendar = EventQueue::new();
        let mut station = Station::new(1);
        let first = station.arrive(0u32).expect("idle server takes it");
        calendar.schedule_in(ms(1), first);
        let mut completions = 0;
        while let Some(job) = calendar.pop() {
            completions += 1;
            assert_eq!(station.finish(), None);
            if job == 0 {
                let again = station.arrive(1).expect("the server is free again");
                calendar.schedule_in(ms(1), again);
            }
        }
        assert_eq!(completions, 2);
        assert_eq!(calendar.now(), SimTime::from_nanos(2_000_000));
    }

    #[test]
    fn utilization_accounting() {
        // Two servers, two 10 ms jobs in parallel, then idle until 20 ms:
        // the caller's busy integral over the station's readings is 50 %.
        let (done, seen) = play(2, &[(SimTime::ZERO, ms(10)); 2]);
        assert_eq!(seen, vec![(1, 0), (2, 0), (1, 0), (0, 0)]);
        let busy_ms: f64 = done
            .iter()
            .map(|(_, l)| (l.finished - l.started).as_millis_f64())
            .sum();
        assert!((busy_ms / (2.0 * 20.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn queue_length_accounting() {
        let (done, seen) = play(1, &[(SimTime::ZERO, ms(10)); 3]);
        // All three arrive at once: one in service, then two waiting.
        assert_eq!(&seen[..3], &[(1, 0), (1, 1), (1, 2)]);
        assert_eq!(&seen[3..], &[(1, 1), (1, 0), (0, 0)]);
        let waits: Vec<f64> = done
            .iter()
            .map(|(_, l)| (l.started - l.arrived).as_millis_f64())
            .collect();
        assert_eq!(waits, vec![0.0, 10.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Station::<()>::new(0);
    }

    #[test]
    fn idle_resource_reports_clean_stats() {
        let mut station = Station::new(4);
        assert_eq!((station.busy(), station.queue_len()), (0, 0));
        for job in 0..5 {
            assert_eq!(station.arrive(job).is_some(), job < 4);
        }
        assert_eq!((station.busy(), station.queue_len()), (4, 1));
        assert_eq!(
            station.finish(),
            Some(4),
            "the waiting job takes the server"
        );
        assert_eq!((station.busy(), station.queue_len()), (4, 0));
    }

    #[test]
    fn zero_service_jobs_complete_instantly_in_order() {
        let (done, _) = play(1, &[(SimTime::ZERO, SimDuration::ZERO); 3]);
        assert_eq!(done.len(), 3);
        assert!(done.iter().all(|(_, l)| l.finished == SimTime::ZERO));
        assert!(done.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
