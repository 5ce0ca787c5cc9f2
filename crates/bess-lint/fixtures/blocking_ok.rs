// Fixture: the leader-force pattern — ordered guards dropped before the
// device wait — plus an annotated deliberate block, and a guard held
// while redeeming queue tickets, which never wait. None may be flagged.

pub struct OkFlush {
    state: Mutex<u32>,
    dev: Disk,
}

impl OkFlush {
    pub fn drops_first(&self, d: &DevIo2) {
        let state = self.state.lock();
        let data = vec![0u8];
        drop(state);
        self.dev.write_at(&data, 0);
        d.flush_all();
    }

    pub fn annotated(&self) {
        let state = self.state.lock();
        // LINT: allow(blocking-under-lock) — fixture: deliberate solo-force baseline.
        self.dev.sync();
        drop(state);
    }

    pub fn redeems_under_guard(&self, q: &IoQueue) {
        let state = self.state.lock();
        q.complete(0);
        q.drain();
        drop(state);
    }
}

pub struct DevIo2 {
    file: u32,
}

impl DevIo2 {
    pub fn flush_all(&self) {
        self.note();
    }

    fn note(&self) {}
}
