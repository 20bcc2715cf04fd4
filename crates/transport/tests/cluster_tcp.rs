//! The live-cluster suite over loopback sockets (`TcpFabric`).

#[macro_use]
mod cluster_suite;

use cluster_suite::Under;
use polystyrene::prelude::PolystyreneConfig;
use polystyrene_protocol::LinkProfile;
use polystyrene_transport::{TcpConfig, TcpFabric};
use std::time::Duration;

impl Under for TcpFabric {
    const FRAMED: bool = true;

    fn fast_config(link: LinkProfile, replication: usize) -> TcpConfig {
        let mut c = TcpConfig::default();
        c.runtime.tick = Duration::from_millis(4);
        c.runtime.poly = PolystyreneConfig::builder()
            .replication(replication)
            .build();
        c.runtime.link = link;
        c.reader_poll = Duration::from_millis(50);
        c
    }
}

cluster_suite!(TcpFabric);
