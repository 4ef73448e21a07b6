//! Simulated device memory.

/// Identifies a buffer in one device's memory.
pub type BufferId = usize;

/// One device's memory: a set of `f32` buffers.
///
/// In *functional* mode buffers hold real data so correctness can be
/// verified; in *timing* mode only lengths are tracked, keeping large
/// benchmark shapes cheap. Mixing the modes up is a programming error, so
/// data access in timing mode panics rather than returning fake data.
#[derive(Debug)]
pub struct Memory {
    buffers: Vec<Buffer>,
    functional: bool,
}

#[derive(Debug)]
struct Buffer {
    len: usize,
    data: Vec<f32>,
}

impl Memory {
    /// Creates an empty memory in the given mode.
    pub fn new(functional: bool) -> Self {
        Memory {
            buffers: Vec::new(),
            functional,
        }
    }

    /// Frees every buffer and switches to `functional` mode: buffer ids
    /// restart at 0, and the buffer table keeps its allocation.
    pub(crate) fn reset(&mut self, functional: bool) {
        let Memory {
            buffers,
            functional: mode,
        } = self;
        buffers.clear();
        *mode = functional;
    }

    /// Whether buffers carry real data.
    pub fn functional(&self) -> bool {
        self.functional
    }

    /// Allocates a zero-initialized buffer of `len` elements.
    pub fn alloc(&mut self, len: usize) -> BufferId {
        let data = if self.functional {
            vec![0.0; len]
        } else {
            Vec::new()
        };
        self.buffers.push(Buffer { len, data });
        self.buffers.len() - 1
    }

    /// Allocates a buffer initialized with `data` (functional mode), or a
    /// length-only buffer (timing mode).
    pub fn alloc_init(&mut self, data: &[f32]) -> BufferId {
        let id = self.alloc(data.len());
        if self.functional {
            self.buffers[id].data.copy_from_slice(data);
        }
        id
    }

    /// Number of buffers allocated.
    pub fn num_buffers(&self) -> usize {
        self.buffers.len()
    }

    /// Element length of a buffer.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never allocated.
    pub fn len_of(&self, id: BufferId) -> usize {
        self.buffers[id].len
    }

    /// Borrows a buffer's contents.
    ///
    /// # Panics
    ///
    /// Panics if `id` is invalid or the memory is in timing mode.
    pub fn data(&self, id: BufferId) -> &[f32] {
        assert!(
            self.functional,
            "buffer data access in timing-only mode (buffer {id})"
        );
        &self.buffers[id].data
    }

    /// Mutably borrows a buffer's contents.
    ///
    /// # Panics
    ///
    /// Panics if `id` is invalid or the memory is in timing mode.
    pub fn data_mut(&mut self, id: BufferId) -> &mut [f32] {
        assert!(
            self.functional,
            "buffer data access in timing-only mode (buffer {id})"
        );
        &mut self.buffers[id].data
    }

    /// Copies `src` into the buffer.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch, invalid id, or timing mode.
    pub fn write(&mut self, id: BufferId, src: &[f32]) {
        let dst = self.data_mut(id);
        assert_eq!(
            dst.len(),
            src.len(),
            "write length mismatch on buffer {id}: {} vs {}",
            dst.len(),
            src.len()
        );
        dst.copy_from_slice(src);
    }

    /// Returns a copy of the buffer's contents.
    ///
    /// # Panics
    ///
    /// Panics if `id` is invalid or the memory is in timing mode.
    pub fn snapshot(&self, id: BufferId) -> Vec<f32> {
        self.data(id).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_alloc_zeroes() {
        let mut mem = Memory::new(true);
        let id = mem.alloc(8);
        assert_eq!(mem.len_of(id), 8);
        assert!(mem.data(id).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn alloc_init_copies() {
        let mut mem = Memory::new(true);
        let id = mem.alloc_init(&[1.0, 2.0, 3.0]);
        assert_eq!(mem.data(id), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn timing_mode_tracks_lengths_without_data() {
        let mut mem = Memory::new(false);
        let id = mem.alloc(1 << 24);
        assert_eq!(mem.len_of(id), 1 << 24);
        assert!(!mem.functional());
    }

    #[test]
    #[should_panic(expected = "timing-only mode")]
    fn timing_mode_data_access_panics() {
        let mut mem = Memory::new(false);
        let id = mem.alloc(4);
        let _ = mem.data(id);
    }

    #[test]
    fn write_and_snapshot_roundtrip() {
        let mut mem = Memory::new(true);
        let id = mem.alloc(3);
        mem.write(id, &[4.0, 5.0, 6.0]);
        assert_eq!(mem.snapshot(id), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn write_wrong_length_panics() {
        let mut mem = Memory::new(true);
        let id = mem.alloc(3);
        mem.write(id, &[1.0]);
    }

    #[test]
    fn reset_frees_buffers_and_restarts_ids() {
        let mut mem = Memory::new(false);
        mem.alloc(10);
        mem.alloc(3);
        mem.reset(true);
        assert!(mem.functional());
        assert_eq!(mem.num_buffers(), 0);
        assert_eq!(mem.alloc(2), 0);
        assert_eq!(mem.data(0), &[0.0, 0.0]);
    }

    #[test]
    fn buffer_ids_are_sequential() {
        let mut mem = Memory::new(true);
        assert_eq!(mem.alloc(1), 0);
        assert_eq!(mem.alloc(1), 1);
        assert_eq!(mem.num_buffers(), 2);
    }
}
