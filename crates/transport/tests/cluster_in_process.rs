//! The live-cluster suite over in-process mailboxes (`Registry`).

#[macro_use]
mod cluster_suite;

use cluster_suite::{Point, Under};
use polystyrene_protocol::LinkProfile;
use polystyrene_runtime::{Registry, RuntimeConfig};
use std::time::Duration;

impl Under for Registry<Point> {
    const FRAMED: bool = false;

    fn fast_config(link: LinkProfile, replication: usize) -> RuntimeConfig {
        let mut c = RuntimeConfig::default();
        c.tick = Duration::from_millis(2);
        c.poly.replication = replication;
        c.link = link;
        c
    }
}

cluster_suite!(Registry<Point>);
