//! The receiving half of the TCP transport: one I/O thread per fabric.
//!
//! The thread owns every node's listener and every accepted stream, all
//! non-blocking, and sleeps in one level-triggered readiness wait over
//! the lot. A ready listener is accepted from, a ready stream is read
//! once into a scratch buffer shared by all of them, the bytes go
//! through the connection's [`Reassembly`], and each completed payload
//! is handed to its node's [`Deliver`]. Level-triggered means nothing
//! has to be drained to exhaustion: whatever one `accept` or `read`
//! leaves behind is reported again by the next wait.
//!
//! So a connection costs a descriptor and a map entry, not a thread
//! with its stack, its buffered reader and its allocator arena; and a
//! node's sockets can all be closed the moment it is killed, because
//! nothing is parked inside a `read` on them.
//!
//! The fabric talks to the thread through a command channel followed by
//! a [`Poller::notify`]; the thread never blocks on anything but the
//! wait, and never writes to a socket.

use crate::framing::Reassembly;
use polling::{Event, PollMode, Poller};
use polystyrene_membership::NodeId;
use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Takes the payload of one frame addressed to a node. `false` (it does
/// not decode, or the node's worker is gone) poisons the connection it
/// came in on.
pub(crate) type Deliver = Box<dyn FnMut(&[u8]) -> bool + Send>;

/// Bytes one `read` can take. Frames are a few hundred bytes, so this
/// is many of them; the pages are touched only as far as reads fill
/// them.
const SCRATCH_BYTES: usize = 64 * 1024;

/// How often connections are checked against the mid-frame deadline, at
/// most: the one thing the thread does without a socket asking for it.
const SWEEP_EVERY: Duration = Duration::from_secs(1);

enum Command {
    Attach {
        id: NodeId,
        listener: TcpListener,
        deliver: Deliver,
    },
    Detach(NodeId),
    Close,
}

/// The fabric's handle on its I/O thread.
pub(crate) struct IoThread {
    commands: Sender<Command>,
    poller: Arc<Poller>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl IoThread {
    /// Starts the thread, watching nothing yet. A connection that opens
    /// a frame and does not complete it within `mid_frame_deadline` is
    /// closed.
    ///
    /// # Panics
    ///
    /// Panics if the poller or the thread cannot be created.
    pub(crate) fn start(mid_frame_deadline: Duration) -> Self {
        let poller = Arc::new(Poller::new().expect("failed to create the readiness poller"));
        let (commands, inbox) = mpsc::channel();
        let reactor = Reactor {
            poller: Arc::clone(&poller),
            commands: inbox,
            delivers: HashMap::new(),
            sockets: HashMap::new(),
            next_key: 0,
            scratch: vec![0; SCRATCH_BYTES],
            mid_frame_deadline,
        };
        let thread = std::thread::Builder::new()
            .name("poly-tcp-io".into())
            .spawn(move || reactor.run())
            .expect("failed to spawn the I/O thread");
        Self {
            commands,
            poller,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Sends `command` and wakes the thread. After [`IoThread::close`]
    /// there is no one to tell, which leaves the node unreachable: what
    /// a fabric that is shut down owes it.
    fn tell(&self, command: Command) {
        if self.commands.send(command).is_ok() {
            let _ = self.poller.notify();
        }
    }

    /// Hands over a node's bound, non-blocking listener: connections to
    /// it are accepted and their frames' payloads given to `deliver`.
    pub(crate) fn attach(&self, id: NodeId, listener: TcpListener, deliver: Deliver) {
        self.tell(Command::Attach {
            id,
            listener,
            deliver,
        });
    }

    /// Closes the node's listener and every connection accepted on it.
    /// Returns at once; the sockets close as soon as the thread wakes.
    pub(crate) fn detach(&self, id: NodeId) {
        self.tell(Command::Detach(id));
    }

    /// Stops the thread, closing every socket it holds, and joins it.
    /// `Err` carries the payload of the panic it died of, once; further
    /// calls find nothing to join.
    pub(crate) fn close(&self) -> std::thread::Result<()> {
        let Some(thread) = self
            .thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        else {
            return Ok(());
        };
        self.tell(Command::Close);
        thread.join()
    }
}

impl Drop for IoThread {
    /// A fabric dropped without `close` must not leave the thread
    /// asleep in its wait for good.
    fn drop(&mut self) {
        let _ = self.close();
    }
}

/// An accepted connection.
struct Conn {
    stream: TcpStream,
    frames: Reassembly,
    /// When the first byte of the frame now incomplete arrived.
    frame_opened: Option<Instant>,
}

impl Conn {
    /// Reads once and delivers the frames that completes. `false` means
    /// the connection is over: closed by the peer, failed, or carrying
    /// something that is not a frame `deliver` takes.
    fn read(&mut self, scratch: &mut [u8], deliver: &mut Deliver) -> bool {
        let n = match self.stream.read(scratch) {
            // At a frame boundary the peer hung up; inside a frame it
            // died. Either way there is nothing more to read.
            Ok(0) => return false,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return true
            }
            Err(_) => return false,
        };
        let mut completed = false;
        let pushed = self.frames.push(&scratch[..n], |payload| {
            completed = true;
            deliver(payload)
        });
        if pushed.is_err() {
            return false;
        }
        // The deadline runs from the first byte of the frame that is
        // open *now*: a busy connection whose reads keep ending inside
        // a frame is not a stalled one.
        if !self.frames.mid_frame() {
            self.frame_opened = None;
        } else if completed || self.frame_opened.is_none() {
            self.frame_opened = Some(Instant::now());
        }
        true
    }
}

enum Socket {
    Listener(TcpListener),
    Conn(Conn),
}

impl AsRawFd for Socket {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Socket::Listener(listener) => listener.as_raw_fd(),
            Socket::Conn(conn) => conn.stream.as_raw_fd(),
        }
    }
}

/// The I/O thread's state.
struct Reactor {
    poller: Arc<Poller>,
    commands: Receiver<Command>,
    delivers: HashMap<NodeId, Deliver>,
    /// Every watched socket under its poller key, with the node it
    /// belongs to. Keys are never reused, so an event that outlives its
    /// socket finds nothing instead of a stranger.
    sockets: HashMap<usize, (NodeId, Socket)>,
    next_key: usize,
    scratch: Vec<u8>,
    mid_frame_deadline: Duration,
}

impl Reactor {
    fn run(mut self) {
        let sweep_every = self.mid_frame_deadline.min(SWEEP_EVERY);
        let mut next_sweep = Instant::now() + sweep_every;
        let mut events = Vec::new();
        loop {
            events.clear();
            let until_sweep = next_sweep.saturating_duration_since(Instant::now());
            match self.poller.wait(&mut events, Some(until_sweep)) {
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("the readiness wait failed: {e}"),
            }
            // Commands before events: a killed node's sockets close
            // unread, whatever this wait found on them.
            loop {
                match self.commands.try_recv() {
                    Ok(Command::Attach {
                        id,
                        listener,
                        deliver,
                    }) => {
                        self.delivers.insert(id, deliver);
                        self.watch(id, Socket::Listener(listener))
                            .expect("failed to watch a node's listener");
                    }
                    Ok(Command::Detach(id)) => {
                        self.delivers.remove(&id);
                        self.close_where(|node, _| node == id);
                    }
                    Ok(Command::Close) | Err(TryRecvError::Disconnected) => return,
                    Err(TryRecvError::Empty) => break,
                }
            }
            for event in &events {
                self.serve(event.key);
            }
            if Instant::now() >= next_sweep {
                let deadline = self.mid_frame_deadline;
                self.close_where(|_, socket| {
                    matches!(socket, Socket::Conn(conn)
                        if conn.frame_opened.is_some_and(|at| at.elapsed() > deadline))
                });
                next_sweep = Instant::now() + sweep_every;
            }
        }
    }

    /// Registers `socket`, which must be non-blocking, under a new key.
    fn watch(&mut self, node: NodeId, socket: Socket) -> std::io::Result<()> {
        let key = self.next_key;
        self.next_key += 1;
        self.poller
            .add_with_mode(&socket, Event::readable(key), PollMode::Level)?;
        self.sockets.insert(key, (node, socket));
        Ok(())
    }

    /// Closes every socket `doomed` picks, taking each off the poller
    /// first, as it must be.
    fn close_where(&mut self, doomed: impl Fn(NodeId, &Socket) -> bool) {
        let poller = &self.poller;
        self.sockets.retain(|_, (node, socket)| {
            let close = doomed(*node, socket);
            if close {
                let _ = poller.delete(&*socket);
            }
            !close
        });
    }

    /// One step for the socket behind a readiness event: one `accept`
    /// or one `read`.
    fn serve(&mut self, key: usize) {
        let Some((node, socket)) = self.sockets.get_mut(&key) else {
            return;
        };
        let node = *node;
        match socket {
            Socket::Listener(listener) => match listener.accept() {
                Ok((stream, _)) => {
                    // A stream that cannot be made non-blocking or
                    // watched is dropped: the peer sees a reset and
                    // connects again.
                    if stream.set_nonblocking(true).is_ok() {
                        let conn = Conn {
                            stream,
                            frames: Reassembly::default(),
                            frame_opened: None,
                        };
                        let _ = self.watch(node, Socket::Conn(conn));
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                // Out of descriptors, most likely, with the listener
                // still ready: back off instead of spinning on it.
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            },
            Socket::Conn(conn) => {
                let open = self
                    .delivers
                    .get_mut(&node)
                    .is_some_and(|deliver| conn.read(&mut self.scratch, deliver));
                if !open {
                    if let Some((_, socket)) = self.sockets.remove(&key) {
                        let _ = self.poller.delete(&socket);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::write_frame_into;
    use std::io::Write;
    use std::sync::mpsc;

    /// Safety valve of one await, sized so a loaded CI box never reaches it.
    const MAX_WAIT: Duration = Duration::from_secs(30);

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        write_frame_into(&mut frame, payload, &mut Vec::new()).unwrap();
        frame
    }

    #[test]
    fn a_stalled_frame_is_swept_while_its_sibling_keeps_delivering() {
        let io = IoThread::start(Duration::from_millis(50));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let (deliver, delivered) = mpsc::channel();
        io.attach(
            NodeId::new(0),
            listener,
            Box::new(move |payload| deliver.send(payload.to_vec()).is_ok()),
        );
        let mut stalled = TcpStream::connect(addr).unwrap();
        let mut sibling = TcpStream::connect(addr).unwrap();

        // Opens a frame and goes silent without closing.
        let frame = framed(b"never finished");
        stalled.write_all(&frame[..frame.len() - 3]).unwrap();
        sibling.write_all(&framed(b"before")).unwrap();
        assert_eq!(delivered.recv_timeout(MAX_WAIT).unwrap(), b"before");

        // Awaited, not slept for: the read returns when the sweep has
        // closed the connection, and only a timeout fails it.
        stalled.set_read_timeout(Some(MAX_WAIT)).unwrap();
        match stalled.read(&mut [0u8; 8]) {
            Ok(0) => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
            other => panic!("the stalled connection was left open: {other:?}"),
        }
        // The same node's other connection is none the worse for it.
        sibling.write_all(&framed(b"after")).unwrap();
        assert_eq!(delivered.recv_timeout(MAX_WAIT).unwrap(), b"after");
        assert!(
            delivered.try_recv().is_err(),
            "the half frame was never one"
        );
        io.close().expect("the I/O thread ran clean");
    }

    #[test]
    fn the_mid_frame_clock_restarts_with_each_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = Conn {
            stream: listener.accept().unwrap().0,
            frames: Reassembly::default(),
            frame_opened: None,
        };
        let mut scratch = [0u8; 256];
        let mut seen = 0;
        let mut count: Deliver = Box::new(move |_| {
            seen += 1;
            seen <= 3
        });
        let frame = framed(b"a frame");
        let (head, tail) = frame.split_at(4);

        // A read that ends inside a frame starts the clock,
        peer.write_all(&[&frame[..], head].concat()).unwrap();
        assert!(conn.read(&mut scratch, &mut count));
        let first = conn.frame_opened.expect("a frame is open");
        // one that adds to the same frame leaves it running,
        peer.write_all(&tail[..1]).unwrap();
        assert!(conn.read(&mut scratch, &mut count));
        assert_eq!(conn.frame_opened, Some(first));
        // one that completes it and opens the next restarts it: a busy
        // connection is not a stalled one,
        peer.write_all(&[&tail[1..], head].concat()).unwrap();
        assert!(conn.read(&mut scratch, &mut count));
        assert!(conn.frame_opened.expect("the next frame is open") > first);
        // and one that ends at a boundary stops it.
        peer.write_all(tail).unwrap();
        assert!(conn.read(&mut scratch, &mut count));
        assert_eq!(conn.frame_opened, None);
        // A refused payload and a hang-up both end the connection.
        peer.write_all(&frame).unwrap();
        assert!(!conn.read(&mut scratch, &mut count));
        drop(peer);
        assert!(!conn.read(&mut scratch, &mut count));
    }
}
