#ifndef CSOD_SERVE_SERVICE_H_
#define CSOD_SERVE_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/telemetry.h"
#include "query/executor.h"
#include "query/query.h"
#include "serve/streaming_detector.h"

namespace csod::serve {

/// \brief Multi-tenant streaming front-end: named tenants, each an
/// independent `StreamingDetector` (own key space, seed, window, shards),
/// plus a textual query endpoint speaking the paper's query template.
///
/// Tenancy is coarse-grained by design: tenants share nothing but the
/// telemetry sink, so one tenant's ingestion or recovery never perturbs
/// another's determinism contract. The service mutex only guards the
/// tenant map — ingestion and queries run on the tenant's own
/// synchronization (see StreamingDetector's thread-safety notes).
///
/// The query endpoint accepts `SELECT Outlier K SUM(score), key FROM
/// <tenant>` / `SELECT Top K ...` (query::ParseQuery — the same grammar as
/// the batch executor; the FROM clause names the tenant, and attribute
/// names are informational because streaming events are already keyed by
/// dictionary index). Answers carry the version/epoch range of the snapshot
/// that answered and the staleness, so clients can correlate them with
/// ingestion progress.
class StreamingService {
 public:
  /// `telemetry` may be null (disabled); it becomes the default sink of
  /// every tenant created without an explicit one.
  explicit StreamingService(obs::Telemetry* telemetry = nullptr);

  /// Registers a tenant. `options.telemetry` inherits the service sink
  /// when unset. Fails with AlreadyExists on a duplicate name.
  Status AddTenant(const std::string& name,
                   StreamingDetectorOptions options);

  /// Unregisters a tenant. Holders of the detector handle (and of its
  /// published snapshots) keep a valid object until they drop it; the
  /// service just stops routing new calls to it.
  Status RemoveTenant(const std::string& name);

  /// The tenant's detector, or NotFound. The returned handle keeps the
  /// detector alive even across a concurrent RemoveTenant — an in-flight
  /// ingest or query finishes against a detached detector rather than
  /// racing its destruction (use-after-free otherwise).
  Result<std::shared_ptr<StreamingDetector>> Tenant(
      const std::string& name) const;

  std::vector<std::string> TenantNames() const;

  /// Ingests one keyed score-delta batch into `tenant`'s current epoch.
  Status Ingest(const std::string& tenant, const std::vector<size_t>& keys,
                const std::vector<double>& deltas);

  /// Advances `tenant`'s virtual clock (see StreamingDetector::AdvanceTo).
  Result<uint64_t> AdvanceTo(const std::string& tenant, uint64_t tick);

  /// Advances every tenant's clock to `tick` (tenants whose clock is
  /// already past `tick` fail the monotonicity check individually; the
  /// first error is returned after every tenant was attempted).
  Status AdvanceAllTo(uint64_t tick);

  /// Parses and answers `SELECT Outlier K ... FROM <tenant>` /
  /// `SELECT Top K ... FROM <tenant>` against the tenant's latest
  /// snapshot. The tenant is named by the FROM clause.
  Result<StreamingQueryResult> Query(const std::string& query_text) const;

  /// Same, with an explicit parsed query and tenant name.
  Result<StreamingQueryResult> QueryTenant(const std::string& tenant,
                                           const query::Query& query) const;

 private:
  obs::Telemetry* telemetry_;  // Never null (Disabled() when unset).

  mutable std::mutex mu_;
  // shared_ptr, not unique_ptr: Tenant() hands out ref-holding handles, so
  // RemoveTenant only detaches a tenant — destruction waits for the last
  // in-flight caller to finish.
  std::map<std::string, std::shared_ptr<StreamingDetector>> tenants_;
};

}  // namespace csod::serve

#endif  // CSOD_SERVE_SERVICE_H_
