#include "serve/registry.h"

#include <utility>

#include "common/check.h"

namespace gradgcl::serve {

ModelRegistry::ModelRegistry()
    : swaps_total_(obs::MetricsRegistry::Instance().GetCounter("serve/swaps")) {}

uint64_t ModelRegistry::Publish(
    const std::string& name, std::shared_ptr<const InferenceSession> session) {
  GRADGCL_CHECK_MSG(session != nullptr, "Publish needs a session");
  GRADGCL_CHECK_MSG(!name.empty(), "Publish needs a model name");
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<ModelHandle>& slot = models_[name];
  if (slot == nullptr) {
    // Private constructor: can't use make_unique.
    slot.reset(new ModelHandle(name));
  }
  // `prev` also keeps the old snapshot alive past the swap, so it is
  // never destroyed under the handle's lock.
  const std::shared_ptr<const ModelSnapshot> prev = slot->Acquire();
  const uint64_t version = prev == nullptr ? 1 : prev->version + 1;
  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->session = std::move(session);
  snapshot->version = version;
  snapshot->model_name = name;
  // The RCU swap: readers mid-Acquire either get `prev` (and keep it
  // alive through their batch) or the new snapshot — never a torn mix.
  {
    std::lock_guard<std::mutex> lock(slot->mu_);
    slot->snapshot_ = std::move(snapshot);
  }
  swaps_total_.Add(1);
  return version;
}

ModelHandle* ModelRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second.get();
}

std::vector<std::string> ModelRegistry::ModelNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, handle] : models_) names.push_back(name);
  return names;
}

}  // namespace gradgcl::serve
