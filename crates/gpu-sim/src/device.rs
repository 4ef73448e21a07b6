//! A single simulated GPU.

use sim::{DetRng, SimDuration};

use crate::arch::GpuArch;
use crate::counter::CounterTable;
use crate::memory::Memory;
use crate::stream::{GpuEvent, Stream, StreamId};

/// Identifies a device within a cluster (== its rank).
pub type DeviceId = usize;

/// A simulated GPU: architecture, memory, streams, events, counting
/// tables, and the SM-occupancy ledger communication kernels use.
#[derive(Debug)]
pub struct Device {
    /// The device id (cluster rank).
    pub id: DeviceId,
    /// Architecture model.
    pub arch: GpuArch,
    /// Device memory.
    pub mem: Memory,
    pub(crate) streams: Vec<Stream>,
    pub(crate) events: Vec<GpuEvent>,
    pub(crate) counters: Vec<CounterTable>,
    comm_sms: u32,
    compute_sms: u32,
    /// Deterministic per-device randomness (tile jitter, poll phase).
    pub rng: DetRng,
    /// Streams and counting tables freed by [`Device::reset`], emptied,
    /// handed out again by `create_stream` / `create_counter` so a reused
    /// device keeps their queue and slot allocations.
    pub(crate) spare_streams: Vec<Stream>,
    spare_counters: Vec<CounterTable>,
}

impl Device {
    /// Minimum SMs always left to compute kernels even under heavy
    /// communication occupancy: 1/16 of the machine, at least one.
    pub fn min_compute_sms(sm_count: u32) -> u32 {
        (sm_count / 16).max(1)
    }

    /// Creates a device.
    pub fn new(id: DeviceId, arch: GpuArch, functional: bool, rng: DetRng) -> Self {
        let mut device = Device {
            id,
            arch,
            mem: Memory::new(functional),
            streams: Vec::new(),
            events: Vec::new(),
            counters: Vec::new(),
            comm_sms: 0,
            compute_sms: 0,
            rng: rng.clone(),
            spare_streams: Vec::new(),
            spare_counters: Vec::new(),
        };
        device.reset(functional, rng);
        device
    }

    /// Returns the device to the state [`Device::new`] gives with `rng`:
    /// no buffer, stream, event or counting table (ids restart at 0),
    /// empty SM ledgers. Queued kernels and parked waits are dropped
    /// unrun. Streams, tables and the buffer table keep their
    /// allocations for reuse. Every field is named here, so a new field
    /// does not compile until its reset is decided.
    pub(crate) fn reset(&mut self, functional: bool, rng: DetRng) {
        let Device {
            id: _,
            arch: _,
            mem,
            streams,
            events,
            counters,
            comm_sms,
            compute_sms,
            rng: device_rng,
            spare_streams,
            spare_counters,
        } = self;
        mem.reset(functional);
        spare_streams.extend(streams.drain(..).map(|mut stream| {
            stream.clear();
            stream
        }));
        events.clear();
        spare_counters.extend(counters.drain(..).map(|mut table| {
            table.reinit(table.num_groups());
            table
        }));
        *comm_sms = 0;
        *compute_sms = 0;
        *device_rng = rng;
    }

    /// Creates a new stream and returns its id.
    pub fn create_stream(&mut self) -> StreamId {
        let stream = self.spare_streams.pop().unwrap_or_default();
        self.streams.push(stream);
        self.streams.len() - 1
    }

    /// Creates a new synchronization event and returns its id.
    pub fn create_event(&mut self) -> usize {
        self.events.push(GpuEvent::default());
        self.events.len() - 1
    }

    /// Creates a counting table with `groups` slots and returns its index.
    pub fn create_counter(&mut self, groups: usize) -> usize {
        let mut table = self.spare_counters.pop().unwrap_or_default();
        table.reinit(groups);
        self.counters.push(table);
        self.counters.len() - 1
    }

    /// Immutable access to a counting table.
    ///
    /// # Panics
    ///
    /// Panics if the table does not exist.
    pub fn counter(&self, table: usize) -> &CounterTable {
        &self.counters[table]
    }

    /// Iterates over the device's counting tables with their indices
    /// (post-run inspection, e.g. for lost-signal diagnosis).
    pub fn counter_tables(&self) -> impl Iterator<Item = (usize, &CounterTable)> {
        self.counters.iter().enumerate()
    }

    /// Mutable access to a counting table (fault-injection hook: arming
    /// dropped/delayed increments before a run).
    ///
    /// # Panics
    ///
    /// Panics if the table does not exist.
    pub fn counter_mut(&mut self, table: usize) -> &mut CounterTable {
        &mut self.counters[table]
    }

    /// SMs a *new* compute wave can claim right now: total minus
    /// communication SMs minus SMs other in-flight compute waves hold,
    /// floored at [`Device::min_compute_sms`] (kernels time-share when
    /// oversubscribed rather than starving).
    pub fn avail_sms_for_compute(&self) -> u32 {
        (self
            .arch
            .sm_count
            .saturating_sub(self.comm_sms)
            .saturating_sub(self.compute_sms))
        .max(Self::min_compute_sms(self.arch.sm_count))
    }

    /// SMs currently held by in-flight compute waves.
    pub fn compute_sms(&self) -> u32 {
        self.compute_sms
    }

    /// Marks `n` SMs as held by a compute wave.
    pub fn occupy_compute_sms(&mut self, n: u32) {
        self.compute_sms += n;
    }

    /// Releases `n` compute SMs.
    ///
    /// # Panics
    ///
    /// Panics if releasing more than currently held.
    pub fn release_compute_sms(&mut self, n: u32) {
        assert!(
            n <= self.compute_sms,
            "releasing {n} compute SMs but only {} held",
            self.compute_sms
        );
        self.compute_sms -= n;
    }

    /// SMs currently held by communication kernels.
    pub fn comm_sms(&self) -> u32 {
        self.comm_sms
    }

    /// Marks `n` SMs as held by a communication kernel (NCCL-style
    /// kernels occupy a constant SM count, §4.2.1; communication has
    /// priority, §4.1.4).
    pub fn occupy_comm_sms(&mut self, n: u32) {
        self.comm_sms += n;
    }

    /// Releases `n` communication SMs.
    ///
    /// # Panics
    ///
    /// Panics if releasing more than currently held.
    pub fn release_comm_sms(&mut self, n: u32) {
        assert!(
            n <= self.comm_sms,
            "releasing {n} comm SMs but only {} held",
            self.comm_sms
        );
        self.comm_sms -= n;
    }

    /// A randomized polling delay of the signaling kernel: the counter is
    /// observed up to one polling quantum after it reaches the threshold.
    pub fn signal_poll_delay(&mut self) -> SimDuration {
        let ns = self.rng.uniform(0.0, self.arch.signal_poll_ns as f64);
        SimDuration::from_nanos(ns as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Device {
        Device::new(0, GpuArch::rtx4090(), false, DetRng::new(1))
    }

    #[test]
    fn resource_ids_are_sequential() {
        let mut d = device();
        assert_eq!(d.create_stream(), 0);
        assert_eq!(d.create_stream(), 1);
        assert_eq!(d.create_event(), 0);
        assert_eq!(d.create_counter(4), 0);
        assert_eq!(d.counter(0).num_groups(), 4);
    }

    #[test]
    fn reset_restarts_ids_and_ledgers() {
        let mut d = device();
        let s = d.create_stream();
        d.create_stream();
        d.create_event();
        let t = d.create_counter(4);
        d.counter_mut(t)
            .arm_fault(1, crate::counter::IncrementFault::Dropped, 1);
        d.mem.alloc(8);
        d.occupy_comm_sms(16);
        d.occupy_compute_sms(3);
        d.streams[s]
            .queue
            .push_back(crate::stream::Op::Delay(SimDuration::from_nanos(5)));
        d.streams[s].busy = true;
        d.reset(true, DetRng::new(1));
        let mut fresh = Device::new(0, GpuArch::rtx4090(), true, DetRng::new(1));
        assert_eq!((d.comm_sms(), d.compute_sms()), (0, 0));
        assert_eq!(d.mem.num_buffers(), 0);
        assert!(d.mem.functional());
        assert_eq!(d.counter_tables().count(), 0);
        assert_eq!(d.rng.next_u64(), fresh.rng.next_u64());
        assert_eq!(d.create_stream(), 0);
        assert_eq!(d.create_event(), 0);
        assert_eq!(d.create_counter(2), 0);
        assert_eq!(d.counter(0).num_groups(), 2);
        assert_eq!(d.counter_mut(0).take_increment_fault(1), None);
        assert!(d.streams.iter().all(|s| s.queue.is_empty() && !s.busy));
        assert_eq!(fresh.create_stream(), 0);
    }

    #[test]
    fn comm_sm_ledger() {
        let mut d = device();
        assert_eq!(d.avail_sms_for_compute(), 128);
        d.occupy_comm_sms(16);
        assert_eq!(d.avail_sms_for_compute(), 112);
        assert_eq!(d.comm_sms(), 16);
        d.occupy_comm_sms(16);
        assert_eq!(d.avail_sms_for_compute(), 96);
        d.release_comm_sms(32);
        assert_eq!(d.avail_sms_for_compute(), 128);
    }

    #[test]
    fn compute_ledger_shares_the_machine() {
        let mut d = device();
        assert_eq!(d.avail_sms_for_compute(), 128);
        d.occupy_compute_sms(100);
        assert_eq!(d.avail_sms_for_compute(), 28);
        d.occupy_comm_sms(16);
        assert_eq!(d.avail_sms_for_compute(), 12);
        d.occupy_compute_sms(12);
        // Oversubscribed: time-sharing floor applies.
        assert_eq!(d.avail_sms_for_compute(), Device::min_compute_sms(128));
        d.release_compute_sms(112);
        d.release_comm_sms(16);
        assert_eq!(d.avail_sms_for_compute(), 128);
    }

    #[test]
    fn avail_sms_floors_under_oversubscription() {
        let mut d = device();
        d.occupy_comm_sms(1000);
        assert_eq!(d.avail_sms_for_compute(), Device::min_compute_sms(128));
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn over_release_panics() {
        let mut d = device();
        d.release_comm_sms(1);
    }

    #[test]
    fn poll_delay_is_bounded() {
        let mut d = device();
        for _ in 0..100 {
            let delay = d.signal_poll_delay();
            assert!(delay.as_nanos() < d.arch.signal_poll_ns);
        }
    }
}
