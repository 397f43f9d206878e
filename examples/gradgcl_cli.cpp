// Command-line experiment runner — the library's "one binary to try
// everything". Runs one pre-train + probe pipeline from flags:
//
//   gradgcl_cli --task=graph    --dataset=MUTAG  --backbone=graphcl
//               --weight=0.5    --epochs=15      --seed=1
//   gradgcl_cli --task=node     --dataset=Cora   --backbone=grace
//   gradgcl_cli --task=transfer --dataset=BBBP   --backbone=simgrace
//   gradgcl_cli --save=encoder.ggcl / --load=encoder.ggcl
//
// Flags: --task (graph|node|transfer), --dataset (profile / task name),
// --backbone (graphcl|joao|simgrace|infograph|mvgrl|grace|gca|bgrl|
// costa|sgcl), --weight (GradGCL a in [0,1]), --epochs, --seed,
// --save/--load (encoder state file).

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "datasets/molecule_universe.h"
#include "datasets/node_synthetic.h"
#include "datasets/tu_synthetic.h"
#include "eval/cross_validation.h"
#include "models/bgrl.h"
#include "models/costa.h"
#include "models/gca.h"
#include "models/grace.h"
#include "models/graphcl.h"
#include "models/infograph.h"
#include "models/joao.h"
#include "models/mvgrl.h"
#include "models/sgcl.h"
#include "models/simgrace.h"
#include "nn/serialize.h"

namespace {

using namespace gradgcl;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      // A std::string, not the bare literal: assigning "1" trips a
      // GCC 12 -Wrestrict false positive.
      flags[arg.substr(2)] = std::string("1");
    } else {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

EncoderConfig MakeEncoder(int in_dim, EncoderKind kind) {
  EncoderConfig config;
  config.kind = kind;
  config.in_dim = in_dim;
  config.hidden_dim = 32;
  config.out_dim = 32;
  return config;
}

std::unique_ptr<GraphSslModel> MakeGraphBackbone(const std::string& name,
                                                 int in_dim, double weight,
                                                 Rng& rng) {
  if (name == "graphcl") {
    GraphClConfig c;
    c.encoder = MakeEncoder(in_dim, EncoderKind::kGin);
    c.grad_gcl.weight = weight;
    return std::make_unique<GraphCl>(c, rng);
  }
  if (name == "joao") {
    JoaoConfig c;
    c.graphcl.encoder = MakeEncoder(in_dim, EncoderKind::kGin);
    c.graphcl.grad_gcl.weight = weight;
    return std::make_unique<Joao>(c, rng);
  }
  if (name == "simgrace") {
    SimGraceConfig c;
    c.encoder = MakeEncoder(in_dim, EncoderKind::kGin);
    c.grad_gcl.weight = weight;
    return std::make_unique<SimGrace>(c, rng);
  }
  if (name == "infograph") {
    InfoGraphConfig c;
    c.encoder = MakeEncoder(in_dim, EncoderKind::kGin);
    c.grad_gcl.weight = weight;
    return std::make_unique<InfoGraphModel>(c, rng);
  }
  if (name == "mvgrl") {
    MvgrlConfig c;
    c.encoder = MakeEncoder(in_dim, EncoderKind::kGin);
    c.grad_gcl.loss = LossKind::kJsd;
    c.grad_gcl.weight = weight;
    return std::make_unique<MvgrlGraph>(c, rng);
  }
  return nullptr;
}

std::unique_ptr<NodeSslModel> MakeNodeBackbone(const std::string& name,
                                               int in_dim, double weight,
                                               Rng& rng) {
  if (name == "grace") {
    GraceConfig c;
    c.encoder = MakeEncoder(in_dim, EncoderKind::kGcn);
    c.grad_gcl.weight = weight;
    return std::make_unique<Grace>(c, rng);
  }
  if (name == "gca") {
    GraceConfig c;
    c.encoder = MakeEncoder(in_dim, EncoderKind::kGcn);
    c.grad_gcl.weight = weight;
    return std::make_unique<Gca>(c, rng);
  }
  if (name == "bgrl") {
    BgrlConfig c;
    c.encoder = MakeEncoder(in_dim, EncoderKind::kGcn);
    c.grad_gcl.weight = weight;
    return std::make_unique<Bgrl>(c, rng);
  }
  if (name == "costa") {
    CostaConfig c;
    c.encoder = MakeEncoder(in_dim, EncoderKind::kGcn);
    c.grad_gcl.weight = weight;
    return std::make_unique<Costa>(c, rng);
  }
  if (name == "sgcl") {
    SgclConfig c;
    c.encoder = MakeEncoder(in_dim, EncoderKind::kGcn);
    c.grad_gcl.weight = weight;
    return std::make_unique<Sgcl>(c, rng);
  }
  if (name == "mvgrl") {
    MvgrlConfig c;
    c.encoder = MakeEncoder(in_dim, EncoderKind::kGcn);
    c.grad_gcl.loss = LossKind::kJsd;
    c.grad_gcl.weight = weight;
    return std::make_unique<MvgrlNode>(c, rng);
  }
  return nullptr;
}

int RunGraphTask(const std::map<std::string, std::string>& flags) {
  const std::string dataset_name = FlagOr(flags, "dataset", "MUTAG");
  const std::string backbone = FlagOr(flags, "backbone", "graphcl");
  const double weight = std::stod(FlagOr(flags, "weight", "0.5"));
  const int epochs = std::stoi(FlagOr(flags, "epochs", "15"));
  const uint64_t seed = std::stoull(FlagOr(flags, "seed", "1"));

  const TuProfile profile = TuProfileByName(dataset_name);
  const std::vector<Graph> data = GenerateTuDataset(profile, seed);
  Rng rng(seed + 1);
  auto model =
      MakeGraphBackbone(backbone, profile.feature_dim, weight, rng);
  if (!model) {
    std::fprintf(stderr, "unknown graph backbone '%s'\n", backbone.c_str());
    return 1;
  }
  const std::string load = FlagOr(flags, "load", "");
  if (!load.empty() && !LoadModule(load, *model)) {
    std::fprintf(stderr, "failed to load '%s'\n", load.c_str());
    return 1;
  }

  TrainOptions options;
  options.epochs = epochs;
  options.seed = seed + 2;
  TrainGraphSsl(*model, data, options, [](const EpochStats& s) {
    std::printf("epoch %3d  loss %.4f  (%.2fs)\n", s.epoch, s.loss,
                s.seconds);
  });

  std::vector<int> labels;
  for (const Graph& g : data) labels.push_back(g.label);
  const ScoreSummary result = CrossValidateAccuracy(
      model->EmbedGraphs(data), labels, profile.num_classes, 10, {},
      seed + 3);
  std::printf("%s%s on %s: 10-fold SVM accuracy %.2f%% +- %.2f\n",
              backbone.c_str(), weight == 0 ? "" : "(gradgcl)",
              dataset_name.c_str(), 100 * result.mean, 100 * result.stddev);

  const std::string save = FlagOr(flags, "save", "");
  if (!save.empty()) {
    if (!SaveModule(save, *model)) {
      std::fprintf(stderr, "failed to save '%s'\n", save.c_str());
      return 1;
    }
    std::printf("saved encoder state to %s\n", save.c_str());
  }
  return 0;
}

int RunNodeTask(const std::map<std::string, std::string>& flags) {
  const std::string dataset_name = FlagOr(flags, "dataset", "Cora");
  const std::string backbone = FlagOr(flags, "backbone", "grace");
  const double weight = std::stod(FlagOr(flags, "weight", "0.3"));
  const int epochs = std::stoi(FlagOr(flags, "epochs", "30"));
  const uint64_t seed = std::stoull(FlagOr(flags, "seed", "1"));

  const NodeDataset data =
      GenerateNodeDataset(NodeProfileByName(dataset_name), seed);
  Rng rng(seed + 1);
  auto model =
      MakeNodeBackbone(backbone, data.graph.feature_dim(), weight, rng);
  if (!model) {
    std::fprintf(stderr, "unknown node backbone '%s'\n", backbone.c_str());
    return 1;
  }

  TrainOptions options;
  options.epochs = epochs;
  options.seed = seed + 2;
  TrainNodeSsl(*model, data, options);

  const Matrix emb = model->EmbedNodes(data);
  std::vector<int> train_y, test_y;
  for (int i : data.train_idx) train_y.push_back(data.labels[i]);
  for (int i : data.test_idx) test_y.push_back(data.labels[i]);
  ProbeOptions probe;
  probe.kind = ProbeKind::kLogistic;
  LinearProbe head = LinearProbe::Fit(emb.Gather(data.train_idx), train_y,
                                      data.num_classes, probe);
  const std::vector<int> pred = head.Predict(emb.Gather(data.test_idx));
  std::printf("%s on %s: test accuracy %.2f%%, macro-F1 %.3f\n",
              backbone.c_str(), dataset_name.c_str(),
              100 * Accuracy(pred, test_y),
              MacroF1(pred, test_y, data.num_classes));
  return 0;
}

int RunTransferTask(const std::map<std::string, std::string>& flags) {
  const std::string task_name = FlagOr(flags, "dataset", "BBBP");
  const std::string backbone = FlagOr(flags, "backbone", "simgrace");
  const double weight = std::stod(FlagOr(flags, "weight", "0.5"));
  const int epochs = std::stoi(FlagOr(flags, "epochs", "10"));
  const uint64_t seed = std::stoull(FlagOr(flags, "seed", "1"));

  const PretrainKind kind =
      task_name == "PPI" ? PretrainKind::kPpi : PretrainKind::kZinc;
  const std::vector<Graph> corpus = GeneratePretrainSet(kind, 300, seed);
  Rng rng(seed + 1);
  auto model = MakeGraphBackbone(backbone, kNumAtomTypes, weight, rng);
  if (!model) {
    std::fprintf(stderr, "unknown backbone '%s'\n", backbone.c_str());
    return 1;
  }
  TrainOptions options;
  options.epochs = epochs;
  options.seed = seed + 2;
  TrainGraphSsl(*model, corpus, options);

  const TransferTask task = GenerateTransferTask(task_name, 200, seed + 3);
  const Matrix emb = model->EmbedGraphs(task.graphs);
  std::vector<int> train_idx, test_idx, train_y, test_y;
  for (size_t i = 0; i < task.graphs.size(); ++i) {
    if (i % 2 == 0) {
      train_idx.push_back(static_cast<int>(i));
      train_y.push_back(task.graphs[i].label);
    } else {
      test_idx.push_back(static_cast<int>(i));
      test_y.push_back(task.graphs[i].label);
    }
  }
  ProbeOptions probe;
  probe.kind = ProbeKind::kLogistic;
  LinearProbe head =
      LinearProbe::Fit(emb.Gather(train_idx), train_y, 2, probe);
  const Matrix scores = head.Scores(emb.Gather(test_idx));
  std::vector<double> pos;
  for (int i = 0; i < scores.rows(); ++i) {
    pos.push_back(scores(i, 1) - scores(i, 0));
  }
  std::printf("%s pretrain -> %s: ROC-AUC %.3f\n", backbone.c_str(),
              task_name.c_str(), RocAuc(pos, test_y));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = ParseFlags(argc, argv);
  const std::string task = FlagOr(flags, "task", "graph");
  if (task == "graph") return RunGraphTask(flags);
  if (task == "node") return RunNodeTask(flags);
  if (task == "transfer") return RunTransferTask(flags);
  std::fprintf(stderr,
               "usage: gradgcl_cli --task=graph|node|transfer "
               "[--dataset=..] [--backbone=..] [--weight=..] "
               "[--epochs=..] [--seed=..] [--save=..] [--load=..]\n");
  return 1;
}
