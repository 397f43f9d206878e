// Multi-model registry with RCU-style snapshot hot-swap.
//
// Production serving needs two things a bare InferenceSession does not
// give: (1) several named models living in one engine process, and
// (2) replacing a model's parameters with a newer training snapshot
// WITHOUT stopping traffic. ModelRegistry provides both, following the
// named-blob + registry pattern of caffe2's core/workspace.cc and
// core/registry.h: names map to stable handles, handles map to
// immutable published snapshots.
//
//  * A ModelSnapshot is immutable: a frozen InferenceSession plus the
//    monotonically increasing version it was published as (1-based per
//    model name). Snapshots are never mutated after Publish.
//  * Publish(name, session) swaps the name's current snapshot pointer
//    under the handle's mutex — the RCU write side. It never waits for
//    in-flight work.
//  * ModelHandle::Acquire() is the RCU read side: it copies the
//    shared_ptr under the same mutex, which pins the snapshot for as
//    long as the caller holds it. A batch that acquired version N keeps
//    computing on version N even if version N+1 is published
//    mid-forward; the old snapshot is reclaimed by shared_ptr
//    refcounting once the last reader drops it. Zero downtime, zero
//    torn reads. The lock is held only for a refcount increment and
//    costs one uncontended lock per batch. (A mutex rather than
//    std::atomic<std::shared_ptr>: libstdc++ 12 guards the atomic form
//    with a lock bit that ThreadSanitizer does not model.)
//  * Handles have stable addresses for the registry's lifetime —
//    engines resolve a name once and then do one Acquire() per batch
//    on the hot path (no map lookups while serving).
//
// Registration (Publish / Find / ModelNames) takes the registry mutex
// and may allocate; it is the control plane, expected to run at
// model-rollout frequency, not request frequency.

#ifndef GRADGCL_SERVE_REGISTRY_H_
#define GRADGCL_SERVE_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/session.h"

namespace gradgcl::serve {

// One published model version: immutable after Publish.
struct ModelSnapshot {
  std::shared_ptr<const InferenceSession> session;
  uint64_t version = 0;     // 1-based, monotonic per model name
  std::string model_name;   // the registry key this was published under
};

// Hot-path handle to one named model. Obtained from
// ModelRegistry::Find; valid for the registry's lifetime.
class ModelHandle {
 public:
  ModelHandle(const ModelHandle&) = delete;
  ModelHandle& operator=(const ModelHandle&) = delete;

  // RCU read side: pins the current snapshot. Never returns nullptr
  // for a handle obtained from Find (a handle exists only after its
  // first Publish).
  std::shared_ptr<const ModelSnapshot> Acquire() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snapshot_;
  }

  const std::string& name() const { return name_; }

  // Version of the currently published snapshot.
  uint64_t CurrentVersion() const { return Acquire()->version; }

 private:
  friend class ModelRegistry;
  explicit ModelHandle(std::string name) : name_(std::move(name)) {}

  const std::string name_;
  mutable std::mutex mu_;
  std::shared_ptr<const ModelSnapshot> snapshot_;  // guarded by mu_
};

class ModelRegistry {
 public:
  ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  // Publishes `session` (non-null) as the next version of `name`,
  // creating the model on first publish. Returns the new version.
  // In-flight readers holding the previous snapshot keep it alive
  // until they drop it; new Acquire() calls see the new one.
  uint64_t Publish(const std::string& name,
                   std::shared_ptr<const InferenceSession> session);

  // Stable handle for `name`, or nullptr when nothing was ever
  // published under it.
  ModelHandle* Find(const std::string& name) const;

  // Registered model names, sorted.
  std::vector<std::string> ModelNames() const;

 private:
  mutable std::mutex mu_;
  // unique_ptr values keep handle addresses stable across rehashes.
  std::map<std::string, std::unique_ptr<ModelHandle>> models_;
  obs::Counter swaps_total_;  // serve/swaps: one per Publish
};

}  // namespace gradgcl::serve

#endif  // GRADGCL_SERVE_REGISTRY_H_
