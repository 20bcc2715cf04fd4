//! The live-cluster suite over loopback sockets (`TcpFabric`).

#[macro_use]
mod cluster_suite;

use cluster_suite::{fast_config, Under};
use polystyrene_membership::NodeId;
use polystyrene_protocol::LinkProfile;
use polystyrene_space::prelude::*;
use polystyrene_transport::{TcpCluster, TcpFabric};
use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Safety valve of one await, sized so a loaded CI box never reaches it.
const MAX_WAIT: Duration = Duration::from_secs(30);

impl Under for TcpFabric {
    const FRAMED: bool = true;
    const TICK: Duration = Duration::from_millis(4);
}

cluster_suite!(TcpFabric);

/// Crash-stop at the socket: a kill closes the victim's listener and the
/// connections it had accepted there and then, whether or not anything
/// arrives on them, so a peer's next write cannot land in a dead node.
#[test]
fn a_kill_closes_the_victims_sockets() {
    let mut cluster = TcpCluster::spawn(
        Torus2::new(3.0, 3.0),
        shapes::torus_grid(3, 3, 1.0),
        fast_config::<TcpFabric>(LinkProfile::ideal(), 3),
    );
    assert!(cluster.await_ticks(3, MAX_WAIT), "the cluster stalled");
    let victim = NodeId::new(4);
    let addr = cluster
        .transport()
        .addr_of(victim)
        .expect("an alive node listens");
    let mut peer = TcpStream::connect(addr).expect("an alive node accepts");
    assert!(cluster.kill(victim));
    assert_eq!(cluster.transport().addr_of(victim), None);

    // Awaited, not slept for: the read returns when the victim's end
    // closes (a reset if that found the connection still in the accept
    // backlog), and only running into the timeout fails it.
    peer.set_read_timeout(Some(MAX_WAIT)).unwrap();
    match peer.read(&mut [0u8; 8]) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("the victim's end of a connection outlived it: {other:?}"),
    }
    // The listener goes in the same pass; retried until it has.
    let deadline = Instant::now() + MAX_WAIT;
    loop {
        match TcpStream::connect(addr) {
            Err(e) if e.kind() == ErrorKind::ConnectionRefused => break,
            other => assert!(
                Instant::now() < deadline,
                "the victim's listener outlived it: {other:?}"
            ),
        }
        std::thread::yield_now();
    }
    cluster.shutdown();
}
