//! The in-process transport: one worker thread per shard running the
//! shared worker loop over an `mpsc` pair. Frames cross unencoded —
//! zero serialization.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use super::wire::Frame;
use super::{ChannelError, ShardTransport, SpawnSpec, TransportEvent, WorkerChannel};
use crate::error::Result;
use crate::worker::{self, build_engine, Link, Sent};

/// Factory for in-thread workers.
pub(crate) struct ThreadTransport;

impl ShardTransport for ThreadTransport {
    fn spawn(&self, spec: &SpawnSpec<'_>) -> Result<Box<dyn WorkerChannel>> {
        let config = spec.config;
        let engine = build_engine(
            &spec.feed.dataset,
            &config.methods,
            config.mode,
            spec.checkpoint,
        )?;
        let (to, down) = channel();
        let (up, from) = channel();
        let (every, heartbeat) = (config.checkpoint_every, config.heartbeat_timeout);
        let join = std::thread::spawn(move || {
            worker::run(engine, &mut MpscLink { down, up }, every, heartbeat);
        });
        Ok(Box::new(ThreadChannel { to, from, join }))
    }
}

/// The worker thread's end: frames down, frames up.
struct MpscLink {
    down: Receiver<Frame>,
    up: Sender<Frame>,
}

impl Link for MpscLink {
    fn recv(&mut self) -> Option<Frame> {
        self.down.recv().ok()
    }

    fn send(&mut self, frame: Frame) -> Sent {
        match self.up.send(frame) {
            Ok(()) => Sent::Delivered,
            Err(_) => Sent::Gone,
        }
    }
}

/// Channel to one worker thread epoch. Dropping it closes both mpsc
/// ends, which is exactly how zombies are abandoned: their next send
/// fails and the thread exits on its own. The coordinator joins the
/// thread only after a clean drain.
struct ThreadChannel {
    to: Sender<Frame>,
    from: Receiver<Frame>,
    join: JoinHandle<()>,
}

impl WorkerChannel for ThreadChannel {
    fn send(&mut self, frame: Frame) -> std::result::Result<(), ()> {
        self.to.send(frame).map_err(|_| ())
    }

    fn recv_deadline(&mut self, timeout: Duration) -> std::result::Result<Frame, ChannelError> {
        self.from.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => ChannelError::Timeout,
            RecvTimeoutError::Disconnected => ChannelError::Down,
        })
    }

    fn take_events(&mut self) -> Vec<TransportEvent> {
        Vec::new()
    }

    fn finish(self: Box<Self>, _grace: Duration) {
        // Only called after a clean drain, so the join cannot block on
        // a hung worker (those epochs are dropped, not finished).
        let _ = self.join.join();
    }
}

#[cfg(test)]
mod tests {
    use tm_core::stream::{StreamEngine, StreamMode};

    use super::*;
    use crate::config::DaemonConfig;
    use crate::error::DaemonError;
    use crate::feed::build_feeds;
    use crate::ShardSpec;
    use tm_traffic::DatasetSpec;

    fn spawn_with_checkpoint(checkpoint: Option<&str>) -> Result<Box<dyn WorkerChannel>> {
        let shards = vec![ShardSpec::new("east", DatasetSpec::tiny(), 11)];
        let config = DaemonConfig::new(vec!["gravity".parse().unwrap()]);
        let feeds = build_feeds(&shards, &config, 0..4).unwrap();
        ThreadTransport.spawn(&SpawnSpec {
            index: 0,
            epoch: 0,
            shard: &shards[0],
            feed: &feeds[0],
            config: &config,
            checkpoint,
        })
    }

    /// Satellite: a corrupted checkpoint blob must surface as a typed
    /// restore error, never a panic or a silently-cold engine.
    #[test]
    fn corrupted_checkpoint_json_is_a_typed_error() {
        for junk in ["{\"version\": 99", "not json", "{}", "[1,2,3]"] {
            match spawn_with_checkpoint(Some(junk)) {
                Err(DaemonError::Core(_)) => {}
                Err(other) => panic!("unexpected error class for {junk:?}: {other}"),
                Ok(_) => panic!("corrupt checkpoint {junk:?} must not restore"),
            }
        }
    }

    /// Satellite: a structurally valid checkpoint whose method roster or
    /// mode disagrees with the daemon config is rejected with a typed
    /// error naming the mismatch.
    #[test]
    fn mismatched_checkpoint_is_a_typed_error() {
        let shards = vec![ShardSpec::new("east", DatasetSpec::tiny(), 11)];
        let config = DaemonConfig::new(vec!["gravity".parse().unwrap()]);
        let feeds = build_feeds(&shards, &config, 0..4).unwrap();

        // Roster mismatch: checkpoint taken with two methods.
        let wide = StreamEngine::for_dataset(
            &feeds[0].dataset,
            &[
                "gravity".parse().unwrap(),
                "entropy:lambda=1e3".parse().unwrap(),
            ],
            StreamMode::Warm,
        )
        .unwrap();
        let json = wide.checkpoint().to_json();
        let msg = match spawn_with_checkpoint(Some(&json)) {
            Err(DaemonError::Core(e)) => e.to_string(),
            Err(other) => panic!("roster mismatch must be a typed core error, got {other}"),
            Ok(_) => panic!("roster mismatch must not restore"),
        };
        assert!(msg.contains("restore"), "{msg}");

        // Mode mismatch: cold checkpoint into a warm-mode config.
        let cold = StreamEngine::for_dataset(
            &feeds[0].dataset,
            &["gravity".parse().unwrap()],
            StreamMode::Cold,
        )
        .unwrap();
        let json = cold.checkpoint().to_json();
        let msg = match spawn_with_checkpoint(Some(&json)) {
            Err(DaemonError::Core(e)) => e.to_string(),
            Err(other) => panic!("mode mismatch must be a typed core error, got {other}"),
            Ok(_) => panic!("mode mismatch must not restore"),
        };
        assert!(msg.contains("warm"), "{msg}");
    }
}
