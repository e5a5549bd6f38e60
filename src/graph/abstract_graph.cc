#include "src/graph/abstract_graph.h"

#include <map>

namespace sand {
namespace {

// Signature of one stage, covering every branch; part of PathSignature.
std::string StageSignature(const AugStage& stage) {
  std::string sig = BranchTypeName(stage.type);
  sig += "{";
  auto append_ops = [&sig](const std::vector<AugOp>& ops) {
    for (size_t i = 0; i < ops.size(); ++i) {
      if (i != 0) {
        sig += ",";
      }
      sig += ops[i].Signature();
    }
  };
  if (stage.type == BranchType::kSingle || stage.type == BranchType::kMulti) {
    append_ops(stage.ops);
  } else {
    for (size_t b = 0; b < stage.branches.size(); ++b) {
      if (b != 0) {
        sig += "|";
      }
      append_ops(stage.branches[b].ops);
    }
  }
  sig += "}";
  return sig;
}

}  // namespace

Result<AbstractViewGraph> AbstractViewGraph::Build(const TaskConfig& config) {
  SAND_RETURN_IF_ERROR(config.Validate());
  AbstractViewGraph graph;
  graph.config_ = config;

  // Root: encoded video. Then the decoded-frame node every pipeline has.
  graph.nodes_.push_back(AbstractNode{ViewType::kVideo, config.dataset_path, -1});
  graph.nodes_.push_back(AbstractNode{ViewType::kFrame, "frame", -1});
  graph.edges_.push_back(AbstractEdge{0, 1, "decode", -1});

  // Augmentation stages in order; each output stream becomes a node.
  std::map<std::string, int> stream_to_node = {{"frame", 1}};
  int depth = 0;
  for (size_t s = 0; s < config.augmentation.size(); ++s) {
    const AugStage& stage = config.augmentation[s];
    std::string signature = StageSignature(stage);
    for (const std::string& output : stage.outputs) {
      graph.nodes_.push_back(AbstractNode{ViewType::kAugFrame, output, depth});
      int to = static_cast<int>(graph.nodes_.size()) - 1;
      for (const std::string& input : stage.inputs) {
        auto it = stream_to_node.find(input);
        if (it == stream_to_node.end()) {
          return Internal("abstract graph: unresolved stream " + input);
        }
        graph.edges_.push_back(AbstractEdge{it->second, to, signature, static_cast<int>(s)});
      }
      stream_to_node[output] = to;
    }
    ++depth;
  }

  // Batch view node fed by every terminal stream (streams not consumed by
  // any later stage).
  graph.nodes_.push_back(AbstractNode{ViewType::kBatchView, "view", -1});
  int view_node = static_cast<int>(graph.nodes_.size()) - 1;
  for (const std::string& terminal : graph.TerminalStreams()) {
    auto it = stream_to_node.find(terminal);
    if (it != stream_to_node.end()) {
      graph.edges_.push_back(AbstractEdge{it->second, view_node, "batch", -1});
    }
  }
  return graph;
}

std::vector<std::string> AbstractViewGraph::TerminalStreams() const {
  std::vector<std::string> terminals;
  for (const AugStage& stage : config_.augmentation) {
    for (const std::string& output : stage.outputs) {
      bool consumed = false;
      for (const AugStage& later : config_.augmentation) {
        for (const std::string& input : later.inputs) {
          if (input == output) {
            consumed = true;
          }
        }
      }
      if (!consumed) {
        terminals.push_back(output);
      }
    }
  }
  if (terminals.empty()) {
    terminals.push_back("frame");  // no augmentation: raw decoded frames feed the batch
  }
  return terminals;
}

std::string AbstractViewGraph::PathSignature() const {
  std::string sig = config_.dataset_path;
  sig += "|decode";
  for (const AugStage& stage : config_.augmentation) {
    sig += "|";
    sig += StageSignature(stage);
  }
  return sig;
}

}  // namespace sand
