// Abstract view dependency graph (paper §5.2).
//
// One graph per task, derived from its configuration. Nodes are view
// *types* (Table 1), edges are preprocessing operations. The graph is the
// blueprint from which concrete per-object plans are generated, and the
// structure against which cross-task sharing is detected (identical roots,
// identical operation paths).

#ifndef SAND_GRAPH_ABSTRACT_GRAPH_H_
#define SAND_GRAPH_ABSTRACT_GRAPH_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/config/pipeline_config.h"
#include "src/graph/view.h"

namespace sand {

struct AbstractNode {
  ViewType type;
  std::string stream;  // pipeline stream name ("frame", "augmented_frame_0", ...)
  int aug_depth = -1;  // position in the augmentation chain, -1 for non-aug nodes
};

struct AbstractEdge {
  int from = -1;
  int to = -1;
  std::string op_signature;  // stable identity of the operation (or "decode"/"batch")
  // Stage metadata for augmentation edges, used when instantiating concrete
  // nodes; -1 for decode/batch edges.
  int stage_index = -1;
};

class AbstractViewGraph {
 public:
  // Builds the dependency chain video -> frame -> aug* -> batch view from a
  // validated config.
  static Result<AbstractViewGraph> Build(const TaskConfig& config);

  const TaskConfig& config() const { return config_; }
  const std::vector<AbstractNode>& nodes() const { return nodes_; }
  const std::vector<AbstractEdge>& edges() const { return edges_; }

  // The dataset path labels the root (paper: "root node ... labeled with
  // the pathname of the video dataset").
  const std::string& root_label() const { return config_.dataset_path; }

  // Signature of the whole operation path from the root to the terminal
  // stream. Two tasks whose path signatures match can share every
  // intermediate object (given coordinated randomness).
  std::string PathSignature() const;

  // Final (terminal) stream names feeding the batch view.
  std::vector<std::string> TerminalStreams() const;

 private:
  TaskConfig config_;
  std::vector<AbstractNode> nodes_;
  std::vector<AbstractEdge> edges_;
};

}  // namespace sand

#endif  // SAND_GRAPH_ABSTRACT_GRAPH_H_
