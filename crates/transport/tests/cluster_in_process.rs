//! The live-cluster suite over in-process mailboxes (`Registry`).

#[macro_use]
mod cluster_suite;

use cluster_suite::{Point, Under};
use polystyrene_runtime::Registry;
use std::time::Duration;

impl Under for Registry<Point> {
    const FRAMED: bool = false;
    const TICK: Duration = Duration::from_millis(2);
}

cluster_suite!(Registry<Point>);
