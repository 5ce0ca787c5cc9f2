// Fixture: blocking operations while an ordered guard is live — direct
// device I/O, a direct sleep, a chained block through DevIo::flush_all,
// and a guard held across a queue submission, whose ops run on the
// submitting thread and reach the device through `read_at`.

pub struct BadFlush {
    state: Mutex<u32>,
    dev: Disk,
}

impl BadFlush {
    pub fn direct(&self) {
        let state = self.state.lock();
        self.dev.write_at(&[0u8], 0);
        drop(state);
    }

    pub fn sleepy(&self) {
        let state = self.state.lock();
        std::thread::sleep(std::time::Duration::from_millis(1));
        drop(state);
    }

    pub fn chained(&self, d: &DevIo) {
        let state = self.state.lock();
        d.flush_all();
        drop(state);
    }

    pub fn submits(&self, q: &IoQueue, ops: Vec<IoOp>) {
        let state = self.state.lock();
        q.submit_owned(ops);
        drop(state);
    }
}

pub struct IoQueue {
    dev: Disk,
}

impl IoQueue {
    pub fn submit_owned(&self, ops: Vec<IoOp>) {
        for op in &ops {
            self.execute(op);
        }
    }

    fn execute(&self, op: &IoOp) {
        let mut buf = [0u8; 8];
        self.dev.read_at(&mut buf, op.offset);
    }
}

pub struct DevIo {
    file: File,
}

impl DevIo {
    pub fn flush_all(&self) {
        self.sync_dev();
    }

    fn sync_dev(&self) {
        self.file.sync_all();
    }
}
