#ifndef WEBDEX_CLOUD_SNAPSHOT_H_
#define WEBDEX_CLOUD_SNAPSHOT_H_

#include <string>

#include "cloud/cloud_env.h"
#include "common/status.h"

namespace webdex::cloud {

/// Persistence for the simulated region's *durable* state: every S3
/// bucket/object and every DynamoDB / SimpleDB table/item, in one binary
/// format, "WDXSNAP5" (varint-framed, corruption-checked).
///
/// Rationale: real S3/DynamoDB state survives while EC2 fleets come and
/// go; snapshots give the simulator the same property across process
/// runs, so a corpus indexed once in `webdex_cli` can be reopened later
/// ("save"/"restore").  The chaos state — FaultInjector stream cursors
/// and circuit-breaker trackers — round-trips too, so a resumed faulted
/// run draws the identical continuation of its fault schedule
/// (docs/FAULTS.md).  Ephemeral state — virtual clocks,
/// queue contents, usage meters — is intentionally *not* saved: it
/// belongs to the fleet/session, not to the durable stores.

/// Serializes the durable state of `env` into a byte string.
std::string SerializeSnapshot(CloudEnv& env);

/// Restores a serialized snapshot into `env`, which must be freshly
/// constructed (no buckets or tables).  Fails with Corruption on any
/// malformed input or other format's header, and with AlreadyExists if
/// `env` is not empty.
Status RestoreSnapshot(const std::string& snapshot, CloudEnv* env);

/// File-based convenience wrappers.
Status SaveSnapshotFile(CloudEnv& env, const std::string& path);
Status LoadSnapshotFile(const std::string& path, CloudEnv* env);

}  // namespace webdex::cloud

#endif  // WEBDEX_CLOUD_SNAPSHOT_H_
