#include "serve/service.h"

#include <utility>

namespace csod::serve {

StreamingService::StreamingService(obs::Telemetry* telemetry)
    : telemetry_(telemetry != nullptr ? telemetry
                                      : obs::Telemetry::Disabled()) {}

Status StreamingService::AddTenant(const std::string& name,
                                   StreamingDetectorOptions options) {
  if (name.empty()) {
    return Status::InvalidArgument("AddTenant: tenant name must be non-empty");
  }
  if (options.telemetry == nullptr) options.telemetry = telemetry_;
  CSOD_ASSIGN_OR_RETURN(std::unique_ptr<StreamingDetector> detector,
                        StreamingDetector::Create(options));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = tenants_.emplace(
      name, std::shared_ptr<StreamingDetector>(std::move(detector)));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("AddTenant: tenant '" + name +
                                 "' already exists");
  }
  return Status::OK();
}

Status StreamingService::RemoveTenant(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tenants_.erase(name) == 0) {
    return Status::NotFound("RemoveTenant: no tenant '" + name + "'");
  }
  return Status::OK();
}

Result<std::shared_ptr<StreamingDetector>> StreamingService::Tenant(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    return Status::NotFound("no tenant '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> StreamingService::TenantNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, detector] : tenants_) names.push_back(name);
  return names;
}

Status StreamingService::Ingest(const std::string& tenant,
                                const std::vector<size_t>& keys,
                                const std::vector<double>& deltas) {
  CSOD_ASSIGN_OR_RETURN(std::shared_ptr<StreamingDetector> detector,
                        Tenant(tenant));
  return detector->IngestBatch(keys, deltas);
}

Result<uint64_t> StreamingService::AdvanceTo(const std::string& tenant,
                                             uint64_t tick) {
  CSOD_ASSIGN_OR_RETURN(std::shared_ptr<StreamingDetector> detector,
                        Tenant(tenant));
  return detector->AdvanceTo(tick);
}

Status StreamingService::AdvanceAllTo(uint64_t tick) {
  std::vector<std::shared_ptr<StreamingDetector>> detectors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    detectors.reserve(tenants_.size());
    for (const auto& [name, detector] : tenants_) {
      detectors.push_back(detector);
    }
  }
  Status first_error;
  for (const std::shared_ptr<StreamingDetector>& detector : detectors) {
    const Result<uint64_t> epoch = detector->AdvanceTo(tick);
    if (!epoch.ok() && first_error.ok()) first_error = epoch.status();
  }
  return first_error;
}

Result<StreamingQueryResult> StreamingService::Query(
    const std::string& query_text) const {
  CSOD_ASSIGN_OR_RETURN(query::Query query, query::ParseQuery(query_text));
  return QueryTenant(query.source, query);
}

Result<StreamingQueryResult> StreamingService::QueryTenant(
    const std::string& tenant, const query::Query& query) const {
  CSOD_ASSIGN_OR_RETURN(std::shared_ptr<StreamingDetector> detector,
                        Tenant(tenant));
  return detector->Query(query.kind, query.k);
}

}  // namespace csod::serve
