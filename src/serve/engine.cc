#include "serve/engine.h"

#include <utility>

#include "obs/trace.h"
#include "tensor/pool.h"

namespace gradgcl::serve {

namespace {

// Legacy single-session engines publish the caller-owned session as
// version 1 of "default" in a private registry; the no-op deleter
// preserves the original "session must outlive the engine" contract.
std::unique_ptr<ModelRegistry> MakeSingleModelRegistry(
    const InferenceSession& session) {
  auto registry = std::make_unique<ModelRegistry>();
  registry->Publish("default", std::shared_ptr<const InferenceSession>(
                                   &session, [](const InferenceSession*) {}));
  return registry;
}

}  // namespace

const char* ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kOverloaded:
      return "overloaded";
    case ServeStatus::kShutdown:
      return "shutdown";
    case ServeStatus::kUnknownModel:
      return "unknown_model";
  }
  return "?";
}

EmbeddingEngine::EmbeddingEngine(const InferenceSession& session,
                                 const ServeOptions& options)
    : EmbeddingEngine(MakeSingleModelRegistry(session), nullptr, "default",
                      options) {}

EmbeddingEngine::EmbeddingEngine(const ModelRegistry& registry,
                                 const std::string& default_model,
                                 const ServeOptions& options)
    : EmbeddingEngine(nullptr, &registry, default_model, options) {}

EmbeddingEngine::EmbeddingEngine(std::unique_ptr<ModelRegistry> own_registry,
                                 const ModelRegistry* registry,
                                 const std::string& default_model,
                                 const ServeOptions& options)
    : options_(options),
      own_registry_(std::move(own_registry)),
      registry_(own_registry_ != nullptr ? own_registry_.get() : registry),
      default_model_(registry_->Find(default_model)),
      unknown_model_rejected_(
          obs::MetricsRegistry::Instance().GetCounter("serve/rejected")),
      queue_("serve", "graphs",
             {.num_workers = options.num_workers,
              .max_batch = options.max_batch_graphs,
              .max_wait_micros = options.max_wait_micros,
              .max_queue = options.max_queue_graphs,
              .cancel_pending_on_shutdown =
                  options.cancel_pending_on_shutdown},
             [this](const std::vector<BatchQueue::Request*>& batch) {
               ExecuteBatch(batch);
             }) {
  GRADGCL_CHECK_MSG(default_model_ != nullptr,
                    "serve: default model was never published");
}

EmbeddingEngine::~EmbeddingEngine() { Shutdown(); }

EmbedResult EmbeddingEngine::Embed(const std::vector<Graph>& graphs) {
  return EmbedOn(default_model_, graphs);
}

EmbedResult EmbeddingEngine::Embed(const std::string& model,
                                   const std::vector<Graph>& graphs) {
  ModelHandle* handle = registry_->Find(model);
  if (handle == nullptr) {
    unknown_model_rejected_.Add(1);
    return EmbedResult{ServeStatus::kUnknownModel, Matrix(), model, 0};
  }
  return EmbedOn(handle, graphs);
}

EmbedResult EmbeddingEngine::EmbedOn(ModelHandle* model,
                                     const std::vector<Graph>& graphs) {
  GRADGCL_CHECK_MSG(!graphs.empty(), "Embed needs >= 1 graph");
  Request req;
  req.size = static_cast<int>(graphs.size());
  req.key = model;
  req.graphs = &graphs;
  EmbedResult out;
  switch (queue_.Submit(&req)) {
    case BatchQueue::Outcome::kExecuted:
      out.embeddings = std::move(req.result);
      out.model_name = model->name();
      out.model_version = req.version;
      break;
    case BatchQueue::Outcome::kOverloaded:
      out.status = ServeStatus::kOverloaded;
      break;
    case BatchQueue::Outcome::kShutdown:
      out.status = ServeStatus::kShutdown;
      break;
  }
  return out;
}

void EmbeddingEngine::ExecuteBatch(
    const std::vector<BatchQueue::Request*>& batch) {
  obs::TraceScope span("serve/batch");
  // Pooled storage for batch assembly + forward: steady-state serving
  // allocates no matrix buffers from the heap.
  TapeScope tape;
  // RCU read side: pin the model snapshot once per batch. Everything
  // below — forward, scatter, version tags — runs on this version even
  // if a newer one is published mid-batch.
  const std::shared_ptr<const ModelSnapshot> snapshot =
      static_cast<const ModelHandle*>(batch.front()->key)->Acquire();
  int total = 0;
  for (const BatchQueue::Request* r : batch) total += r->size;
  std::vector<const Graph*> ptrs;
  ptrs.reserve(total);
  for (const BatchQueue::Request* r : batch) {
    for (const Graph& g : *static_cast<const Request*>(r)->graphs) {
      ptrs.push_back(&g);
    }
  }
  Matrix all = snapshot->session->EmbedGraphs(MakeBatch(ptrs));
  // Scatter result rows back to their requests; a single-request batch
  // takes the matrix whole.
  if (batch.size() == 1) {
    Request* r = static_cast<Request*>(batch[0]);
    r->result = std::move(all);
    r->version = snapshot->version;
    return;
  }
  int offset = 0;
  for (BatchQueue::Request* base : batch) {
    Request* r = static_cast<Request*>(base);
    r->result = all.RowSlice(offset, offset + r->size);
    r->version = snapshot->version;
    offset += r->size;
  }
}

void EmbeddingEngine::Shutdown() { queue_.Shutdown(); }

bool EmbeddingEngine::RunOneBatch() { return queue_.RunOneBatch(); }

int EmbeddingEngine::QueueDepth() const { return queue_.QueueDepth(); }

}  // namespace gradgcl::serve
