//! Pipelined frames share dispatch jobs. A burst of batch frames in one
//! write must run as jobs of many frames, not one job per frame: that
//! batching is what `pipeline_depth` buys a pipelining client. The check reads the process-global `sbfd_pipeline_*`
//! counters, so it is the only test in this binary.

use std::time::Duration;

use sbf_server::metrics::server_metrics;
use sbf_server::{Request, Response, SbfClient, SbfServer, ServerConfig};

/// Frames in the burst: twice the default `pipeline_depth` of 32.
const FRAMES: u64 = 64;

#[test]
fn a_burst_of_batch_frames_shares_dispatch_jobs() {
    sbf_telemetry::set_enabled(true);
    let config = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .m(1 << 14)
        .k(5)
        .seed(42)
        .shards(4)
        .workers(2)
        .read_timeout(Some(Duration::from_secs(10)))
        .write_timeout(Some(Duration::from_secs(10)))
        .build()
        .unwrap();
    let handle = SbfServer::bind(config).unwrap().spawn().unwrap();
    let mut client = SbfClient::builder(handle.addr()).connect().unwrap();
    client.ping().unwrap();

    let reqs: Vec<Request> = (0..FRAMES)
        .map(|i| Request::InsertBatch {
            keys: (0..4u64)
                .map(|j| (i * 4 + j).to_le_bytes().to_vec())
                .collect(),
        })
        .collect();
    let m = server_metrics();
    let (frames_before, batches_before) = (m.pipeline_frames.get(), m.pipeline_batches.get());
    let resps = client.pipeline(&reqs).unwrap();
    let frames = m.pipeline_frames.get() - frames_before;
    let batches = m.pipeline_batches.get() - batches_before;

    assert!(resps.iter().all(|r| matches!(r, Response::Ok)), "{resps:?}");
    assert_eq!(frames, FRAMES, "every frame of the burst was dispatched");
    assert!(
        frames > batches,
        "{frames} frames rode {batches} jobs: pipelined frames no longer share a job"
    );
    drop(client);
    handle.shutdown_and_join().unwrap();
}
