//! Real-socket [`Transport`]: length-prefixed f32 frames over Unix-domain
//! or TCP-loopback sockets.
//!
//! This is the third wire under the step [`Program`]s, after the in-process
//! mailbox and the seeded lossy channel: the same collectives now cross a
//! genuine kernel socket, with everything that implies — partial reads,
//! `EAGAIN`, torn frames on a severed connection, and peers that are whole
//! other OS processes. The frame format is deliberately tiny:
//!
//! ```text
//! data frame  :=  elem_count : u32 LE  |  elem_count × f32 LE
//! hello frame :=  MAGIC : u64 LE | channel : u64 LE | src : u64 LE | pid : u64 LE
//! ```
//!
//! One [`SocketNode`] per process owns the listener; every inbound
//! connection announces `(channel, src rank, pid)` in a hello frame and is
//! filed into a registry keyed by `(channel, src)`. A [`SocketChannel`] is
//! one group's view: it lazily dials its peers (connect-retry until the
//! deadline, so rendezvous order doesn't matter), buffers per-source bytes
//! until complete frames drain out, and — crucially — treats a peer's EOF
//! as "discard the torn tail, wait for a re-accepted connection", not as
//! instant death. A *dead process* therefore surfaces as a deadline
//! timeout, while a transient disconnect heals invisibly.
//!
//! Failure-injection hooks ([`SocketChannel::sever_outbound_after`],
//! [`SocketChannel::sever_outbound_after_lossy`]) cut a connection
//! mid-frame so the retransmission machinery of
//! [`ReliableTransport`](crate::ReliableTransport) can finally be tested
//! against a real short write instead of a simulated one.

use crate::reliable::PollTransport;
use crate::Transport;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// First u64 of every hello frame; connections that don't present it are
/// dropped by the acceptor.
const HELLO_MAGIC: u64 = 0x4d45_4741_534f_434b; // "MEGASOCK"

/// How long the acceptor waits for a hello before dropping a connection.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// Backoff between connect attempts while a peer's listener isn't up yet.
const DIAL_BACKOFF: Duration = Duration::from_millis(2);

/// Where a peer's listener lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireAddr {
    /// Unix-domain socket path (the default: lowest latency, no ports).
    Uds(PathBuf),
    /// TCP socket address (loopback in tests; any address in principle).
    Tcp(SocketAddr),
}

impl fmt::Display for WireAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireAddr::Uds(p) => write!(f, "uds:{}", p.display()),
            WireAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

impl WireAddr {
    /// Parse the `Display` form back (`uds:/path` or `tcp:host:port`).
    pub fn parse(s: &str) -> Option<WireAddr> {
        if let Some(p) = s.strip_prefix("uds:") {
            Some(WireAddr::Uds(PathBuf::from(p)))
        } else if let Some(a) = s.strip_prefix("tcp:") {
            a.parse().ok().map(WireAddr::Tcp)
        } else {
            None
        }
    }
}

/// Hard socket-transport failure. Kept `Copy + Eq` so
/// [`StepFailure`](crate::StepFailure) keeps its derives over this error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketError {
    /// The channel's overall deadline expired (peer dead or wedged).
    Deadline,
    /// An I/O failure that isn't survivable by reconnecting.
    Io(io::ErrorKind),
}

impl fmt::Display for SocketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocketError::Deadline => write!(f, "socket deadline exceeded"),
            SocketError::Io(k) => write!(f, "socket i/o error: {k:?}"),
        }
    }
}

/// A connected stream of either family, unified behind the few calls the
/// channel needs.
#[derive(Debug)]
enum Stream {
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn connect(addr: &WireAddr) -> io::Result<Stream> {
        match addr {
            WireAddr::Uds(p) => UnixStream::connect(p).map(Stream::Uds),
            WireAddr::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.set_write_timeout(t),
            Stream::Tcp(s) => s.set_write_timeout(t),
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.write_all(buf),
            Stream::Tcp(s) => s.write_all(buf),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }

    fn shutdown(&self) {
        let _ = match self {
            Stream::Uds(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

#[derive(Debug)]
enum Listener {
    Uds(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Uds(l) => l.accept().map(|(s, _)| Stream::Uds(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
        }
    }
}

/// Accepted-and-identified inbound connections for one `(channel, src)`.
///
/// Connections are queued in accept order and must be drained in that
/// order: a sender writes sequentially and closes its old connection
/// before (or while) dialing a new one, so every frame on connection `k`
/// precedes every frame on connection `k+1`. Taking the newest eagerly
/// would silently skip frames still buffered in an older socket.
#[derive(Debug, Default)]
struct InboundSlot {
    /// Un-taken connections with their per-key accept epochs, oldest first.
    streams: VecDeque<(Stream, u64)>,
    /// Accept counter for this key (epoch of the most recent connection).
    next_epoch: u64,
    /// Peer's OS process id, from the hello frame.
    pid: u32,
}

#[derive(Debug, Default)]
struct Inbound {
    slots: Mutex<HashMap<(u64, usize), InboundSlot>>,
    cv: Condvar,
}

/// Per-process socket endpoint: one listener plus the registry of
/// identified inbound connections, shared by every [`SocketChannel`] in
/// the process.
#[derive(Debug)]
pub struct SocketNode {
    addr: WireAddr,
    inbound: Arc<Inbound>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl SocketNode {
    /// Bind a listener at `addr` and start the acceptor thread. For
    /// `Tcp` with port 0 the returned node's [`SocketNode::addr`] carries
    /// the actual bound port.
    pub fn bind(addr: &WireAddr) -> io::Result<SocketNode> {
        let (listener, actual) = match addr {
            WireAddr::Uds(p) => {
                // A stale socket file from a crashed run blocks bind.
                let _ = std::fs::remove_file(p);
                (Listener::Uds(UnixListener::bind(p)?), addr.clone())
            }
            WireAddr::Tcp(a) => {
                let l = TcpListener::bind(a)?;
                let actual = WireAddr::Tcp(l.local_addr()?);
                (Listener::Tcp(l), actual)
            }
        };
        let inbound = Arc::new(Inbound::default());
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let inbound = Arc::clone(&inbound);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, &inbound, &stop))
        };
        Ok(SocketNode {
            addr: actual,
            inbound,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The address peers should dial (actual port for `Tcp(…:0)` binds).
    pub fn addr(&self) -> &WireAddr {
        &self.addr
    }

    /// Take the oldest un-taken inbound stream for `(chan, src)` with an
    /// epoch strictly newer than `than_epoch`, waiting until `deadline`.
    fn take_newer(
        &self,
        chan: u64,
        src: usize,
        than_epoch: u64,
        deadline: Instant,
    ) -> Option<(Stream, u64, u32)> {
        let mut slots = self.inbound.slots.lock().unwrap();
        loop {
            if let Some(slot) = slots.get_mut(&(chan, src)) {
                while let Some(&(_, epoch)) = slot.streams.front() {
                    if epoch > than_epoch {
                        let (s, epoch) = slot.streams.pop_front().unwrap();
                        return Some((s, epoch, slot.pid));
                    }
                    slot.streams.pop_front(); // stale (already superseded)
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self.inbound.cv.wait_timeout(slots, deadline - now).unwrap();
            slots = guard;
        }
    }
}

impl Drop for SocketNode {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection; it sees the
        // stop flag and exits. If the dial fails (say the UDS socket file
        // was already unlinked), `accept` may never return — detach the
        // acceptor instead of joining a thread that can't wake.
        match Stream::connect(&self.addr) {
            Ok(_) => {
                if let Some(h) = self.acceptor.take() {
                    let _ = h.join();
                }
            }
            Err(_) => drop(self.acceptor.take()),
        }
        if let WireAddr::Uds(p) = &self.addr {
            let _ = std::fs::remove_file(p);
        }
    }
}

fn accept_loop(listener: Listener, inbound: &Inbound, stop: &AtomicBool) {
    loop {
        let mut stream = match listener.accept() {
            Ok(s) => s,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Identify the connection: 32-byte hello, bounded wait.
        let _ = stream.set_read_timeout(Some(HELLO_TIMEOUT));
        let mut hello = [0u8; 32];
        if read_exact(&mut stream, &mut hello).is_err() {
            continue; // garbage / probe connection
        }
        let word = |i: usize| u64::from_le_bytes(hello[i * 8..(i + 1) * 8].try_into().unwrap());
        if word(0) != HELLO_MAGIC {
            continue;
        }
        let (chan, src, pid) = (word(1), word(2) as usize, word(3) as u32);
        let mut slots = inbound.slots.lock().unwrap();
        let slot = slots.entry((chan, src)).or_default();
        slot.next_epoch += 1;
        let epoch = slot.next_epoch;
        slot.streams.push_back((stream, epoch));
        slot.pid = pid;
        drop(slots);
        inbound.cv.notify_all();
    }
}

fn read_exact(stream: &mut Stream, buf: &mut [u8]) -> io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Outbound connection state toward one peer.
#[derive(Debug)]
struct OutState {
    stream: Stream,
    /// Cumulative payload bytes written toward this peer (drives the
    /// byte-indexed sever plan).
    sent_bytes: u64,
}

/// Inbound state from one peer.
#[derive(Debug, Default)]
struct InState {
    /// The stream currently being read, with the registry epoch it came
    /// from (`None` between a disconnect and the re-accept).
    held: Option<Stream>,
    /// Registry epoch of the newest stream we've consumed; we only accept
    /// strictly newer ones after a disconnect.
    epoch_seen: u64,
    /// Complete frames parsed but not yet returned.
    ready: VecDeque<Vec<f32>>,
    /// Raw byte tail of a partially received frame.
    rx_buf: Vec<u8>,
    /// Peer pid from the hello (0 until first connection).
    pid: u32,
}

/// One-shot injected failure: cut the connection to `to` once cumulative
/// payload bytes cross `after_bytes`, mid-frame.
#[derive(Debug)]
struct SeverPlan {
    to: usize,
    after_bytes: u64,
    /// Resend the severed frame on the new connection? `false` models a
    /// genuinely lost frame and is only sound under `ReliableTransport`.
    resend: bool,
    done: bool,
}

/// Frames the sender-side replay log keeps per peer (matches the reliable
/// layer's retransmit window: round-synchronous collectives keep at most a
/// handful of frames in flight per edge).
const REPLAY_WINDOW: usize = 64;

/// A group's socket endpoint: [`Transport`] + [`PollTransport`] over one
/// logical channel of a [`SocketNode`].
///
/// `peers[r]` is where group rank `r` listens (`None` for self). Outbound
/// connections are dialed lazily with retry until the deadline, so no
/// global connect ordering is needed. Exactly one channel id must map to
/// one (group, member) pair per process, with one exception: several
/// receive-only channels may share an id when each receives from its own
/// set of peers. Inbound streams are handed out per (channel id, sender),
/// so each such channel owns exactly its peers' streams; a send on one of
/// them, or two of them receiving from the same peer, is not supported.
#[derive(Debug)]
pub struct SocketChannel {
    node: Arc<SocketNode>,
    chan: u64,
    rank: usize,
    peers: Vec<Option<WireAddr>>,
    out: Vec<Option<OutState>>,
    inbox: Vec<InState>,
    deadline: Instant,
    io_timeout: Duration,
    sever: Option<SeverPlan>,
    /// Per-peer log of recently sent frames, armed by
    /// [`SocketChannel::enable_replay`]. When a connection tears, the next
    /// reconnect resends the whole log — covering frames that were only
    /// partially written (or never written at all) when the wire broke.
    /// Replaying necessarily re-delivers frames the peer already consumed,
    /// so this is only sound under `ReliableTransport`, whose sequence
    /// numbers absorb the duplicates.
    replay: Option<Vec<VecDeque<Vec<u8>>>>,
    /// Peers whose outbound connection was lost after bytes were sent
    /// (next reconnect must replay the log when one is armed).
    torn: Vec<bool>,
    /// Injected per-frame send delay (models a slow link from a fault
    /// plan; applied before every write).
    send_delay: Option<Duration>,
}

impl SocketChannel {
    /// A channel for group member `rank` over `node`, identified to peers
    /// as channel `chan`. `peers` maps group ranks to listener addresses.
    pub fn new(
        node: Arc<SocketNode>,
        chan: u64,
        rank: usize,
        peers: Vec<Option<WireAddr>>,
    ) -> SocketChannel {
        let n = peers.len();
        SocketChannel {
            node,
            chan,
            rank,
            peers,
            out: (0..n).map(|_| None).collect(),
            inbox: (0..n).map(|_| InState::default()).collect(),
            deadline: Instant::now() + Duration::from_secs(30),
            io_timeout: Duration::from_millis(10),
            sever: None,
            replay: None,
            torn: vec![false; n],
            send_delay: None,
        }
    }

    /// Group rank this channel speaks as.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Set the hard overall deadline (typically `now + group timeout`,
    /// refreshed before each program).
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = deadline;
    }

    /// Per-syscall poll granularity (read timeout slices).
    pub fn set_io_timeout(&mut self, t: Duration) {
        self.io_timeout = t;
    }

    /// Peer pid learned from the hello frame, if `from` ever connected.
    pub fn peer_pid(&self, from: usize) -> Option<u32> {
        let pid = self.inbox[from].pid;
        (pid != 0).then_some(pid)
    }

    /// Listener address of `peer`, if it has one.
    pub fn peer_addr(&self, peer: usize) -> Option<&WireAddr> {
        self.peers.get(peer).and_then(|a| a.as_ref())
    }

    /// Test hook: once cumulative payload bytes to `to` cross
    /// `after_bytes`, write only the partial frame, shut the connection
    /// down, reconnect, and resend the whole frame. The receiver sees a
    /// genuine torn frame + EOF; no data is lost.
    pub fn sever_outbound_after(&mut self, to: usize, after_bytes: u64) {
        self.sever = Some(SeverPlan {
            to,
            after_bytes,
            resend: true,
            done: false,
        });
    }

    /// Test hook: like [`SocketChannel::sever_outbound_after`] but the
    /// severed frame is *not* resent — it is genuinely lost mid-wire.
    /// Only sound when a `ReliableTransport` sits on top to recover it.
    pub fn sever_outbound_after_lossy(&mut self, to: usize, after_bytes: u64) {
        self.sever = Some(SeverPlan {
            to,
            after_bytes,
            resend: false,
            done: false,
        });
    }

    /// Arm the sender-side replay log: every outbound frame is logged (last
    /// [`REPLAY_WINDOW`] per peer) *before* the write attempt, and the
    /// first write after a torn connection resends the whole log on the
    /// fresh stream. This makes recovery from a mid-frame sever correct
    /// even when sender and receiver are in different OS processes, where
    /// the shared [`RetransmitStore`](crate::RetransmitStore) is inert —
    /// the cost is duplicate delivery of already-consumed frames, so only
    /// arm this under a `ReliableTransport` whose sequence numbers discard
    /// them. Replay fires on the *next* send to the torn peer; a frame
    /// severed after the final send on an edge stays lost, which
    /// round-synchronous training traffic (every edge carries frames every
    /// iteration) never hits mid-stream.
    pub fn enable_replay(&mut self) {
        if self.replay.is_none() {
            self.replay = Some((0..self.peers.len()).map(|_| VecDeque::new()).collect());
        }
    }

    /// Inject a per-frame send delay (a fault plan's slow-link model);
    /// `None` restores full speed.
    pub fn set_send_delay(&mut self, delay: Option<Duration>) {
        self.send_delay = delay;
    }

    fn dial(&self, to: usize) -> Result<Stream, SocketError> {
        let addr = self.peers[to]
            .as_ref()
            .expect("dialing a peer with no address");
        loop {
            // Connect may fail (listener not up yet — rendezvous in
            // progress) and the hello write may fail (raced a dying
            // listener); both just retry until the deadline.
            if let Ok(mut s) = Stream::connect(addr) {
                let mut hello = [0u8; 32];
                hello[0..8].copy_from_slice(&HELLO_MAGIC.to_le_bytes());
                hello[8..16].copy_from_slice(&self.chan.to_le_bytes());
                hello[16..24].copy_from_slice(&(self.rank as u64).to_le_bytes());
                hello[24..32].copy_from_slice(&u64::from(std::process::id()).to_le_bytes());
                let _ = s.set_write_timeout(Some(HELLO_TIMEOUT));
                if s.write_all(&hello).is_ok() {
                    return Ok(s);
                }
            }
            if Instant::now() >= self.deadline {
                return Err(SocketError::Deadline);
            }
            std::thread::sleep(DIAL_BACKOFF);
        }
    }

    fn ensure_out(&mut self, to: usize) -> Result<(), SocketError> {
        if self.out[to].is_none() {
            let stream = self.dial(to)?;
            self.out[to] = Some(OutState {
                stream,
                sent_bytes: 0,
            });
        }
        Ok(())
    }

    /// Write `frame` to `to`, honoring the sever plan and reconnecting
    /// once on a write failure (the whole frame is resent — at-least-once;
    /// in plain mode a delivered-then-resent frame would duplicate, which
    /// the reliable layer's sequence numbers absorb). With the replay log
    /// armed, the first write after a torn connection resends the entire
    /// log, so frames lost or half-written when the wire broke reach the
    /// peer bit-exactly even across process boundaries.
    fn write_frame(&mut self, to: usize, frame: &[u8]) -> Result<(), SocketError> {
        if let Some(d) = self.send_delay {
            std::thread::sleep(d);
        }
        // Log before any write attempt so a torn, lost, or half-written
        // frame is covered by the replay on the next reconnect.
        if let Some(log) = self.replay.as_mut() {
            let q = &mut log[to];
            q.push_back(frame.to_vec());
            while q.len() > REPLAY_WINDOW {
                q.pop_front();
            }
        }
        self.ensure_out(to)?;

        // Injected failure: cut the connection mid-frame.
        let sever_now = match &self.sever {
            Some(p) if !p.done && p.to == to => {
                let sent = self.out[to].as_ref().unwrap().sent_bytes;
                sent + frame.len() as u64 > p.after_bytes
            }
            _ => false,
        };
        if sever_now {
            let plan = self.sever.as_mut().unwrap();
            plan.done = true;
            let resend = plan.resend;
            let out = self.out[to].as_mut().unwrap();
            let partial = (plan.after_bytes.saturating_sub(out.sent_bytes)) as usize;
            let partial = partial.min(frame.len().saturating_sub(1));
            let _ = out.stream.write_all(&frame[..partial]);
            out.stream.shutdown();
            self.out[to] = None;
            self.torn[to] = true;
            if !resend && self.replay.is_none() {
                return Ok(()); // frame genuinely lost mid-wire
            }
            // With replay armed even a "lossy" sever heals: the frame is
            // in the log, so fall through and let the reconnect resend it.
            self.ensure_out(to)?;
        }

        let remaining = self.deadline.saturating_duration_since(Instant::now());
        let wt = remaining.max(Duration::from_millis(1));
        for attempt in 0..2 {
            // After a torn connection with the log armed, resend the whole
            // window (duplicates are the reliable layer's problem);
            // otherwise just this frame.
            let burst: Vec<&[u8]> = match (&self.replay, self.torn[to]) {
                (Some(log), true) => log[to].iter().map(|f| f.as_slice()).collect(),
                _ => vec![frame],
            };
            let out = self.out[to].as_mut().unwrap();
            let _ = out.stream.set_write_timeout(Some(wt));
            let mut failed = None;
            for f in &burst {
                match out.stream.write_all(f) {
                    Ok(()) => out.sent_bytes += f.len() as u64,
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            match failed {
                None => {
                    self.torn[to] = false;
                    return Ok(());
                }
                Some(e) => {
                    out.stream.shutdown();
                    self.out[to] = None;
                    self.torn[to] = true;
                    if attempt == 1 {
                        return Err(SocketError::Io(e.kind()));
                    }
                    self.ensure_out(to)?; // reconnect, resend whole frame
                }
            }
        }
        unreachable!("write loop returns within two attempts");
    }

    /// Pull bytes from `from` until at least one complete frame is ready
    /// or `attempt_deadline` passes. EOF ⇒ discard the torn tail and wait
    /// for a re-accepted connection.
    fn pump(&mut self, from: usize, attempt_deadline: Instant) -> Result<bool, SocketError> {
        let mut scratch = [0u8; 64 * 1024];
        loop {
            if !self.inbox[from].ready.is_empty() {
                return Ok(true);
            }
            let now = Instant::now();
            if now >= attempt_deadline {
                return Ok(false);
            }
            if self.inbox[from].held.is_none() {
                let epoch_seen = self.inbox[from].epoch_seen;
                match self
                    .node
                    .take_newer(self.chan, from, epoch_seen, attempt_deadline)
                {
                    Some((s, epoch, pid)) => {
                        let st = &mut self.inbox[from];
                        st.held = Some(s);
                        st.epoch_seen = epoch;
                        st.pid = pid;
                    }
                    None => return Ok(false),
                }
            }
            let slice = self
                .io_timeout
                .min(attempt_deadline - now)
                .max(Duration::from_millis(1));
            let st = &mut self.inbox[from];
            let held = st.held.as_mut().unwrap();
            let _ = held.set_read_timeout(Some(slice));
            match held.read(&mut scratch) {
                Ok(0) => {
                    // Peer closed: complete frames already drained; the
                    // byte tail is a torn frame the peer will resend whole
                    // on its next connection.
                    st.rx_buf.clear();
                    if let Some(s) = st.held.take() {
                        s.shutdown();
                    }
                }
                Ok(n) => {
                    st.rx_buf.extend_from_slice(&scratch[..n]);
                    drain_frames(&mut st.rx_buf, &mut st.ready);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::ConnectionReset
                        || e.kind() == io::ErrorKind::BrokenPipe =>
                {
                    st.rx_buf.clear();
                    if let Some(s) = st.held.take() {
                        s.shutdown();
                    }
                }
                Err(e) => return Err(SocketError::Io(e.kind())),
            }
        }
    }
}

/// Split complete `len | payload` frames off the front of `rx_buf`.
fn drain_frames(rx_buf: &mut Vec<u8>, ready: &mut VecDeque<Vec<f32>>) {
    loop {
        if rx_buf.len() < 4 {
            return;
        }
        let n = u32::from_le_bytes(rx_buf[0..4].try_into().unwrap()) as usize;
        let total = 4 + 4 * n;
        if rx_buf.len() < total {
            return;
        }
        let mut frame = Vec::with_capacity(n);
        for i in 0..n {
            let o = 4 + 4 * i;
            frame.push(f32::from_le_bytes(rx_buf[o..o + 4].try_into().unwrap()));
        }
        rx_buf.drain(..total);
        ready.push_back(frame);
    }
}

impl Transport for SocketChannel {
    type Error = SocketError;

    fn send(&mut self, to: usize, payload: &[f32]) -> Result<(), Self::Error> {
        assert!(payload.len() <= u32::MAX as usize, "frame too large");
        let mut frame = Vec::with_capacity(4 + 4 * payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        for v in payload {
            frame.extend_from_slice(&v.to_le_bytes());
        }
        self.write_frame(to, &frame)
    }

    fn recv(&mut self, from: usize) -> Result<Vec<f32>, Self::Error> {
        loop {
            if let Some(f) = self.inbox[from].ready.pop_front() {
                return Ok(f);
            }
            if self.pump(from, self.deadline)? {
                continue;
            }
            return Err(SocketError::Deadline);
        }
    }
}

impl PollTransport for SocketChannel {
    fn recv_within(
        &mut self,
        from: usize,
        wait: Duration,
    ) -> Result<Option<Vec<f32>>, Self::Error> {
        if let Some(f) = self.inbox[from].ready.pop_front() {
            return Ok(Some(f));
        }
        let attempt_deadline = (Instant::now() + wait).min(self.deadline);
        if self.pump(from, attempt_deadline)? {
            return Ok(Some(self.inbox[from].ready.pop_front().unwrap()));
        }
        if Instant::now() >= self.deadline {
            return Err(SocketError::Deadline);
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        execute, reference_run, ring_all_gather, ring_all_reduce, ReduceOp, ReliableTransport,
        RetransmitStore, RetryPolicy,
    };

    fn seeded(rank: usize, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((rank * 31 + i * 7) % 97) as f32 * 0.125 - 3.0)
            .collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("megatron-sock-{tag}-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&d);
        d
    }

    /// Bind one node per "process" (thread here) and return the nodes plus
    /// the full address map.
    fn uds_world(tag: &str, g: usize) -> (Vec<Arc<SocketNode>>, Vec<WireAddr>) {
        let dir = tmp_dir(tag);
        let nodes: Vec<Arc<SocketNode>> = (0..g)
            .map(|r| {
                let addr = WireAddr::Uds(dir.join(format!("r{r}.sock")));
                Arc::new(SocketNode::bind(&addr).unwrap())
            })
            .collect();
        let addrs = nodes.iter().map(|n| n.addr().clone()).collect();
        (nodes, addrs)
    }

    fn peers_for(rank: usize, addrs: &[WireAddr]) -> Vec<Option<WireAddr>> {
        addrs
            .iter()
            .enumerate()
            .map(|(i, a)| (i != rank).then(|| a.clone()))
            .collect()
    }

    fn run_over_sockets(
        prog: &crate::Program,
        nodes: &[Arc<SocketNode>],
        addrs: &[WireAddr],
        chan: u64,
        mut rig: impl FnMut(usize, &mut SocketChannel) + Copy + Send,
    ) -> Vec<Vec<f32>> {
        let g = prog.ranks;
        let mut bufs: Vec<Vec<f32>> = (0..g).map(|r| seeded(r, prog.len)).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = bufs
                .iter_mut()
                .enumerate()
                .map(|(rank, buf)| {
                    let node = Arc::clone(&nodes[rank]);
                    let peers = peers_for(rank, addrs);
                    s.spawn(move || {
                        let mut ch = SocketChannel::new(node, chan, rank, peers);
                        ch.set_deadline(Instant::now() + Duration::from_secs(20));
                        rig(rank, &mut ch);
                        execute(prog, rank, buf, &mut ch).unwrap()
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        bufs
    }

    #[test]
    fn ring_all_reduce_over_uds_matches_reference() {
        for g in [2, 3, 5] {
            let n = 4 * g + 3; // non-divisible length
            let prog = ring_all_reduce(g, n, ReduceOp::Sum);
            let (nodes, addrs) = uds_world(&format!("ar{g}"), g);
            let got = run_over_sockets(&prog, &nodes, &addrs, 7, |_, _| {});
            let mut want: Vec<Vec<f32>> = (0..g).map(|r| seeded(r, n)).collect();
            reference_run(&prog, &mut want);
            assert_eq!(got, want, "g={g}");
        }
    }

    #[test]
    fn ring_all_gather_over_tcp_loopback_matches_reference() {
        let g = 3;
        let n = 10;
        let prog = ring_all_gather(g, n);
        let nodes: Vec<Arc<SocketNode>> = (0..g)
            .map(|_| {
                let addr = WireAddr::Tcp("127.0.0.1:0".parse().unwrap());
                Arc::new(SocketNode::bind(&addr).unwrap())
            })
            .collect();
        let addrs: Vec<WireAddr> = nodes.iter().map(|n| n.addr().clone()).collect();
        let got = run_over_sockets(&prog, &nodes, &addrs, 9, |_, _| {});
        let mut want: Vec<Vec<f32>> = (0..g).map(|r| seeded(r, prog.len)).collect();
        reference_run(&prog, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn torn_frame_on_severed_connection_is_resent_whole() {
        // Rank 0 sends three frames to rank 1; the connection is cut in
        // the middle of the second frame's bytes. The receiver must see
        // exactly the three intact frames, in order.
        let (nodes, addrs) = uds_world("sever", 2);
        let payloads: Vec<Vec<f32>> = (0..3).map(|k| seeded(k, 64)).collect();
        std::thread::scope(|s| {
            let sender = {
                let node = Arc::clone(&nodes[0]);
                let peers = peers_for(0, &addrs);
                let payloads = payloads.clone();
                s.spawn(move || {
                    let mut ch = SocketChannel::new(node, 3, 0, peers);
                    ch.set_deadline(Instant::now() + Duration::from_secs(10));
                    // Frame = 4 + 64·4 = 260 bytes; sever mid-second-frame.
                    ch.sever_outbound_after(1, 260 + 100);
                    for p in &payloads {
                        ch.send(1, p).unwrap();
                    }
                })
            };
            let receiver = {
                let node = Arc::clone(&nodes[1]);
                let peers = peers_for(1, &addrs);
                s.spawn(move || {
                    let mut ch = SocketChannel::new(node, 3, 1, peers);
                    ch.set_deadline(Instant::now() + Duration::from_secs(10));
                    (0..3).map(|_| ch.recv(0).unwrap()).collect::<Vec<_>>()
                })
            };
            sender.join().unwrap();
            let got = receiver.join().unwrap();
            assert_eq!(got, payloads);
        });
    }

    #[test]
    fn reliable_over_socket_survives_lossy_mid_stream_disconnect() {
        // A ring all-reduce where rank 1's connection to rank 2 is severed
        // mid-frame and the frame is NOT resent by the socket layer: the
        // ReliableTransport on top must recover it from the shared store.
        // This is the acceptance-criteria sever test: real torn frame,
        // real EOF, real re-accept, no timeout surfacing.
        let g = 3;
        let n = 32;
        let prog = ring_all_reduce(g, n, ReduceOp::Sum);
        let (nodes, addrs) = uds_world("lossy", g);
        let store = RetransmitStore::new(g);
        let mut bufs: Vec<Vec<f32>> = (0..g).map(|r| seeded(r, n)).collect();
        let mut stats = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = bufs
                .iter_mut()
                .enumerate()
                .map(|(rank, buf)| {
                    let node = Arc::clone(&nodes[rank]);
                    let peers = peers_for(rank, &addrs);
                    let store = &store;
                    let prog = &prog;
                    s.spawn(move || {
                        let mut ch = SocketChannel::new(node, 11, rank, peers);
                        ch.set_deadline(Instant::now() + Duration::from_secs(20));
                        if rank == 1 {
                            // Chunk frames are ≈ 4 + ⌈32/3⌉·4 + 8 bytes
                            // (seq header adds 2 elems); cut inside the
                            // second frame to rank 2 and drop it cold.
                            ch.sever_outbound_after_lossy(2, 60 + 20);
                        }
                        let mut rel =
                            ReliableTransport::new(ch, store, rank, RetryPolicy::default());
                        let report = execute(&prog, rank, buf, &mut rel).unwrap();
                        (report, rel.stats())
                    })
                })
                .collect();
            for h in handles {
                stats.push(h.join().unwrap());
            }
        });
        let mut want: Vec<Vec<f32>> = (0..g).map(|r| seeded(r, n)).collect();
        reference_run(&prog, &mut want);
        assert_eq!(bufs, want, "lossy sever must not corrupt the reduction");
        let recovered: u64 = stats.iter().map(|(_, st)| st.retransmits).sum();
        assert!(
            recovered >= 1,
            "the severed frame must be recovered from the store (got {recovered})"
        );
    }

    #[test]
    fn replay_log_heals_lossy_sever_without_a_shared_store() {
        // Same lossy mid-frame sever as above, but every rank owns a
        // PRIVATE RetransmitStore — the true multi-process topology, where
        // the receiver's store never saw the sender's frames and
        // store-based recovery is inert. The sender-side replay log must
        // resend the lost frame on reconnect, bit-exactly.
        let g = 3;
        let n = 32;
        let prog = ring_all_reduce(g, n, ReduceOp::Sum);
        let (nodes, addrs) = uds_world("replay", g);
        let mut bufs: Vec<Vec<f32>> = (0..g).map(|r| seeded(r, n)).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = bufs
                .iter_mut()
                .enumerate()
                .map(|(rank, buf)| {
                    let node = Arc::clone(&nodes[rank]);
                    let peers = peers_for(rank, &addrs);
                    let prog = &prog;
                    s.spawn(move || {
                        let store = RetransmitStore::new(g); // private per "process"
                        let mut ch = SocketChannel::new(node, 13, rank, peers);
                        ch.set_deadline(Instant::now() + Duration::from_secs(20));
                        ch.enable_replay();
                        if rank == 1 {
                            ch.sever_outbound_after_lossy(2, 60 + 20);
                        }
                        let mut rel =
                            ReliableTransport::new(ch, &store, rank, RetryPolicy::default());
                        execute(prog, rank, buf, &mut rel).unwrap();
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let mut want: Vec<Vec<f32>> = (0..g).map(|r| seeded(r, n)).collect();
        reference_run(&prog, &mut want);
        assert_eq!(bufs, want, "replayed sever must not corrupt the reduction");
    }

    #[test]
    fn recv_on_dead_peer_times_out_with_deadline() {
        let (nodes, addrs) = uds_world("dead", 2);
        let mut ch = SocketChannel::new(Arc::clone(&nodes[0]), 5, 0, peers_for(0, &addrs));
        ch.set_deadline(Instant::now() + Duration::from_millis(80));
        assert_eq!(ch.recv(1), Err(SocketError::Deadline));
    }

    #[test]
    fn recv_within_soft_misses_then_delivers() {
        let (nodes, addrs) = uds_world("poll", 2);
        std::thread::scope(|s| {
            let receiver = {
                let node = Arc::clone(&nodes[1]);
                let peers = peers_for(1, &addrs);
                s.spawn(move || {
                    let mut ch = SocketChannel::new(node, 6, 1, peers);
                    ch.set_deadline(Instant::now() + Duration::from_secs(10));
                    let mut misses = 0u32;
                    loop {
                        match ch.recv_within(0, Duration::from_millis(5)).unwrap() {
                            Some(f) => return (misses, f),
                            None => misses += 1,
                        }
                    }
                })
            };
            let sender = {
                let node = Arc::clone(&nodes[0]);
                let peers = peers_for(0, &addrs);
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(40));
                    let mut ch = SocketChannel::new(node, 6, 0, peers);
                    ch.set_deadline(Instant::now() + Duration::from_secs(10));
                    ch.send(1, &[1.0, 2.0, 3.0]).unwrap();
                })
            };
            sender.join().unwrap();
            let (misses, frame) = receiver.join().unwrap();
            assert_eq!(frame, vec![1.0, 2.0, 3.0]);
            assert!(misses >= 1, "expected at least one soft miss");
        });
    }

    /// Two receive-only channels on one node may share a channel id as
    /// long as each receives from its own peer: inbound streams are keyed
    /// by (channel id, sender), so neither sees the other's frames.
    #[test]
    fn receive_only_channels_may_share_an_id_per_peer() {
        let (nodes, addrs) = uds_world("shared", 3);
        std::thread::scope(|s| {
            let receivers: Vec<_> = [1usize, 2]
                .into_iter()
                .map(|from| {
                    let node = Arc::clone(&nodes[0]);
                    let peers = peers_for(0, &addrs);
                    s.spawn(move || {
                        let mut ch = SocketChannel::new(node, 9, 0, peers);
                        ch.set_deadline(Instant::now() + Duration::from_secs(10));
                        (0..3).map(|_| ch.recv(from).unwrap()).collect::<Vec<_>>()
                    })
                })
                .collect();
            for sender in [1usize, 2] {
                let node = Arc::clone(&nodes[sender]);
                let peers = peers_for(sender, &addrs);
                s.spawn(move || {
                    let mut ch = SocketChannel::new(node, 9, sender, peers);
                    ch.set_deadline(Instant::now() + Duration::from_secs(10));
                    for i in 0..3 {
                        ch.send(0, &[sender as f32, i as f32]).unwrap();
                    }
                });
            }
            for (from, h) in [1usize, 2].into_iter().zip(receivers) {
                let want: Vec<Vec<f32>> = (0..3).map(|i| vec![from as f32, i as f32]).collect();
                assert_eq!(h.join().unwrap(), want, "channel receiving from {from}");
            }
        });
    }

    #[test]
    fn wire_addr_round_trips_through_display() {
        let u = WireAddr::Uds(PathBuf::from("/tmp/x.sock"));
        let t = WireAddr::Tcp("127.0.0.1:4821".parse().unwrap());
        assert_eq!(WireAddr::parse(&u.to_string()), Some(u));
        assert_eq!(WireAddr::parse(&t.to_string()), Some(t));
        assert_eq!(WireAddr::parse("bogus"), None);
    }
}
