//! The replication plane: what this node answers a peer (`ART_LIST`,
//! `ART_PULL`, `ART_PUSH`), the adoption decision every transferred
//! artifact goes through, and the pull pass a `--peer` daemon runs at
//! boot and on its refresh tick.

use super::partition::Partition;
use super::session::{payload_json, respond, respond_error};
use super::{ServerCtx, SOCKET_TIMEOUT};
use crate::client::{self, PulledArtifact};
use crate::proto::{self, op};
use pdbt_fleet::{
    artifact_file_name, fingerprint_field, fingerprint_hex, validate, ArtifactAd, ArtifactVersion,
};
use pdbt_obs::json::Json;
use rand::prelude::*;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Answers an `ART_LIST`: one advertisement per sealable partition, in
/// fingerprint order.
pub(super) fn serve_list(ctx: &ServerCtx, stream: &mut TcpStream) {
    let ads: Vec<Json> = {
        let _plane = ctx.plane();
        let mut table = ctx.partitions();
        let sealable = table.iter_mut().filter_map(|(&fingerprint, p)| {
            let (sealed, version) = p.seal()?;
            let ad = ArtifactAd {
                fingerprint,
                version,
                blocks: p.state.cache().len() as u64,
                traces: p.state.library_len() as u64,
                bytes: sealed.len() as u64,
                label: p.label.clone(),
            };
            Some(ad.to_json())
        });
        sealable.collect()
    };
    let doc = Json::obj([("artifacts", Json::Arr(ads))]);
    respond(ctx, stream, op::RESULT, &doc);
}

/// Answers an `ART_PULL` with the transfer of that partition's current
/// seal. An unknown or unsealable fingerprint is an `ERROR` frame,
/// never a partial stream.
pub(super) fn serve_pull(ctx: &ServerCtx, frame: &proto::Frame, stream: &mut TcpStream) {
    let Some(fp) = payload_json(frame).as_ref().and_then(fingerprint_field) else {
        respond_error(ctx, stream, None, "ART_PULL needs a hex `fingerprint`");
        return;
    };
    let sealed = {
        let _plane = ctx.plane();
        ctx.partitions()
            .get_mut(&fp)
            .and_then(|p| Some((p.seal()?, p.label.clone())))
    };
    let Some(((sealed, version), label)) = sealed else {
        let unknown = format!("no artifact for fingerprint {}", fingerprint_hex(fp));
        respond_error(ctx, stream, None, &unknown);
        return;
    };
    let sent = PulledArtifact::send(stream, op::RESULT, fp, version.generation, &label, &sealed);
    if sent.is_err() {
        ctx.reply_errors.fetch_add(1, Ordering::Relaxed);
        return;
    }
    ctx.fleet.pushed.inc();
    ctx.fleet.bytes.add(sealed.len() as u64);
}

/// Answers an `ART_PUSH`: receives the offered transfer, then runs the
/// adoption decision. Always answers with a verdict or an `ERROR`
/// frame; never panics on hostile input.
pub(super) fn serve_push(ctx: &ServerCtx, frame: &proto::Frame, stream: &mut TcpStream) {
    let Some(header) = payload_json(frame) else {
        respond_error(ctx, stream, None, "ART_PUSH header is not valid JSON");
        return;
    };
    let offer = match PulledArtifact::recv(&header, stream) {
        Ok(offer) => offer,
        Err(refused) => {
            if refused.attempted {
                ctx.fleet.rejected.inc();
            }
            respond_error(ctx, stream, None, &refused.why);
            return;
        }
    };
    ctx.fleet.bytes.add(offer.bytes.len() as u64);
    let _plane = ctx.plane();
    let (adopted, reason, current) =
        adopt_artifact(ctx, &offer.bytes, offer.generation, offer.fingerprint);
    let verdict = Json::obj([
        ("fingerprint", Json::str(fingerprint_hex(offer.fingerprint))),
        ("adopted", Json::from(adopted)),
        ("reason", Json::str(reason)),
        ("generation", Json::from(current)),
    ]);
    respond(ctx, stream, op::RESULT, &verdict);
}

/// The adoption decision for a transferred artifact whose envelope
/// held: the wire trust boundary ([`validate`]), then the version order
/// against the locally *materialized* version — the local side seals
/// its live growth first, so the comparison is deterministic no matter
/// when the offer arrives. On adoption the partition is replaced by
/// [`Partition::from_artifact`]; in-flight sessions keep the old
/// state's `Arc` and finish undisturbed.
///
/// Returns `(adopted, reason, local generation after the decision)`.
/// Caller holds `ctx.replication`.
pub(super) fn adopt_artifact(
    ctx: &ServerCtx,
    bytes: &[u8],
    generation: u64,
    fp: u64,
) -> (bool, String, u64) {
    let opened = match validate(bytes, fp) {
        Ok(o) => o,
        Err((reason, quarantined)) => {
            // Quarantines are counted where disk-scan damage already
            // shows up, and the artifact is refused wholesale: a
            // partial copy never replaces a healthy partition — the
            // peer can re-pull.
            ctx.artifacts.sections_quarantined.add(quarantined as u64);
            ctx.fleet.rejected.inc();
            let local = ctx
                .partitions()
                .get(&fp)
                .map_or(0, |p| p.version.generation);
            return (false, reason, local);
        }
    };
    let incoming =
        ArtifactVersion::of_bytes(generation, bytes).expect("an artifact that opened still parses");
    // Materialize the local version before comparing: live growth is
    // sealed (and its generation bumped) first, so an offer can never
    // overwrite translations the incoming artifact lacks.
    let (held, prior_disk) = match ctx.partitions().get_mut(&fp) {
        Some(p) => (p.seal().map(|(_, v)| v), p.disk_generation),
        None => (None, None),
    };
    if let Some(held) = held.filter(|held| *held >= incoming) {
        ctx.fleet.rejected.inc();
        let generation = held.generation;
        let stale = format!("stale: local generation {generation} is newer or equal");
        return (false, stale, generation);
    }
    let sealed = Arc::new(bytes.to_vec());
    // Persist the adopted bytes so a restart boots warm from disk; a
    // write failure demotes this to memory-only adoption (the drain
    // write-back will retry).
    let persisted = ctx.cfg.artifact_dir.as_ref().and_then(|dir| {
        let path = dir.join(artifact_file_name(fp, generation));
        std::fs::write(&path, sealed.as_slice())
            .inspect_err(|e| eprintln!("pdbt-serve: persisting {} failed: {e}", path.display()))
            .ok()
    });
    let disk_generation = persisted.map_or(prior_disk, |()| Some(generation));
    let partition = Partition::from_artifact(
        &opened,
        || fingerprint_hex(fp),
        ctx.cfg.rules.as_ref(),
        ctx.cfg.jobs,
        incoming,
        sealed,
        disk_generation,
    );
    ctx.partitions().insert(fp, partition);
    ctx.fleet.adopted.inc();
    (true, "adopted".to_string(), generation)
}

/// One replication pass: ask every peer for its advertisements, pull
/// whatever is missing here or newer than what this node holds, and
/// run each pull through the adoption decision. Peer failures are
/// logged and skipped — replication is opportunistic, never fatal.
pub(super) fn replicate_once(ctx: &ServerCtx) {
    for peer in &ctx.cfg.peers {
        let ads = match client::list_artifacts(peer.as_str(), SOCKET_TIMEOUT) {
            Ok(ads) => ads,
            Err(e) => {
                eprintln!("pdbt-serve: peer {peer} unreachable: {e}");
                continue;
            }
        };
        for ad in ads {
            let worth_pulling = {
                let _plane = ctx.plane();
                ctx.partitions()
                    .get_mut(&ad.fingerprint)
                    .and_then(Partition::seal)
                    .is_none_or(|(_, held)| held < ad.version)
            };
            if !worth_pulling {
                continue;
            }
            let name = fingerprint_hex(ad.fingerprint);
            let pulled = match client::pull_artifact(peer.as_str(), ad.fingerprint, SOCKET_TIMEOUT)
            {
                Ok(p) => p,
                Err(e) => {
                    ctx.fleet.rejected.inc();
                    eprintln!("pdbt-serve: pull of {name} from {peer} failed: {e}");
                    continue;
                }
            };
            ctx.fleet.pulled.inc();
            ctx.fleet.bytes.add(pulled.bytes.len() as u64);
            let _plane = ctx.plane();
            let (adopted, reason, _) =
                adopt_artifact(ctx, &pulled.bytes, pulled.generation, ad.fingerprint);
            if !adopted {
                eprintln!("pdbt-serve: pulled artifact {name} from {peer} not adopted: {reason}");
            }
        }
    }
}

/// The refresh tick: re-runs [`replicate_once`] on a jittered period
/// (0.5–1.5× `--replicate-interval`) until `stop` is set, seeded so a
/// fleet's ticks are deterministic per node but decorrelated across
/// nodes. Returns at once without peers or an interval.
pub(super) fn tick(ctx: &ServerCtx, seed: u64, stop: &AtomicBool) {
    if ctx.cfg.peers.is_empty() {
        return;
    }
    let Some(interval) = ctx.cfg.replicate_interval else {
        return;
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut jittered = || Instant::now() + interval.mul_f64(0.5 + rng.gen::<f64>());
    let mut next = jittered();
    while !stop.load(Ordering::Relaxed) {
        if Instant::now() < next {
            std::thread::sleep(Duration::from_millis(50));
            continue;
        }
        replicate_once(ctx);
        next = jittered();
    }
}
