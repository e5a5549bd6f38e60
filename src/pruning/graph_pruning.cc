#include "src/pruning/graph_pruning.h"

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

namespace sand {
namespace {

// Working space reused across subtree walks and graphs.
struct PruneWorkspace {
  std::vector<uint32_t> seen;  // == stamp once the current walk visited
  uint32_t stamp = 0;
  std::vector<int> stack;
  std::vector<int> below;
  std::vector<char> cached_below;
  std::vector<int> candidates;
};

// One graph's pruning state. Pruning flips only cache flags, so the
// graph's shape, sizes and subtree weights are read once into flat arrays:
// a round reads a few fields of every node, and a ConcreteNode spans
// hundreds of bytes. The flags are mirrored and written through.
class GraphPruner {
 public:
  GraphPruner(VideoObjectGraph& graph, PruneWorkspace& work) : graph_(graph) {
    for (const ConcreteNode& node : graph.nodes) {
      first_child_.push_back(static_cast<uint32_t>(children_.size()));
      children_.insert(children_.end(), node.children.begin(), node.children.end());
      stored_bytes_.push_back(node.est_stored_bytes);
      cached_.push_back(node.cache);
    }
    first_child_.push_back(static_cast<uint32_t>(children_.size()));
    // Subtree edge weights, Algorithm 1's sort key: the op costs below
    // each node, summed in walk order.
    for (const ConcreteNode& node : graph.nodes) {
      double total = 0;
      for (int below : WalkBelow(node.id, work)) {
        total += graph.node(below).op_cost_ns;
      }
      weights_.push_back(total);
    }
  }

  // Collapses the cheapest-to-recompute subtree whose parent is smaller
  // than the cached objects beneath it. Returns the bytes saved, 0 (and
  // no flag flipped) when no collapse saves space.
  uint64_t PruneOnce(PruneWorkspace& work) {
    // Candidate parents: non-cached nodes with at least one cached node
    // strictly below them (the generalized "parents of leaves"). The
    // planner appends every node after its parents, so one pass in reverse
    // id order sees each child before its parents.
    const size_t n = cached_.size();
    std::vector<char>& cached_below = work.cached_below;
    cached_below.assign(n, 0);
    for (size_t id = n; id-- > 0;) {
      for (int child : Children(static_cast<int>(id))) {
        if (cached_[static_cast<size_t>(child)] || cached_below[static_cast<size_t>(child)]) {
          cached_below[id] = 1;
          break;
        }
      }
    }
    std::vector<int>& candidates = work.candidates;
    candidates.clear();
    for (size_t id = 0; id < n; ++id) {
      if (!cached_[id] && cached_below[id]) {
        candidates.push_back(static_cast<int>(id));
      }
    }
    // Rank by subtree edge weight: the cheapest recomputation first
    // (Algorithm 1, SORT-BY-SUBTREE-WEIGHTS).
    std::sort(candidates.begin(), candidates.end(), [this](int a, int b) {
      return weights_[static_cast<size_t>(a)] < weights_[static_cast<size_t>(b)];
    });
    for (int candidate : candidates) {
      const std::vector<int>& below = WalkBelow(candidate, work);
      uint64_t below_cached = 0;
      for (int node : below) {
        if (cached_[static_cast<size_t>(node)]) {
          below_cached += stored_bytes_[static_cast<size_t>(node)];
        }
      }
      // The root represents the already-stored encoded video; caching it
      // costs nothing extra.
      const bool source = graph_.node(candidate).op.type == ConcreteOpType::kSource;
      const uint64_t parent_cost = source ? 0 : stored_bytes_[static_cast<size_t>(candidate)];
      if (below_cached <= parent_cost) {
        continue;  // no net space saving (Algorithm 1: reducedSize <= 0)
      }
      for (int node : below) {
        SetCached(node, false);
      }
      SetCached(candidate, !source);
      return below_cached - parent_cost;
    }
    return 0;
  }

 private:
  // Nodes in the subtree under `id` (excluding `id`), deduplicated: merge
  // nodes give the graph DAG shape, so a child can be reachable twice.
  // Depth-first visit order; valid until the next walk.
  const std::vector<int>& WalkBelow(int id, PruneWorkspace& work) const {
    if (work.seen.size() < cached_.size()) {
      work.seen.resize(cached_.size(), 0);
    }
    if (++work.stamp == 0) {  // wrapped: forget every earlier walk
      std::fill(work.seen.begin(), work.seen.end(), 0);
      work.stamp = 1;
    }
    work.below.clear();
    std::span<const int> first = Children(id);
    work.stack.assign(first.begin(), first.end());
    while (!work.stack.empty()) {
      const int current = work.stack.back();
      work.stack.pop_back();
      if (work.seen[static_cast<size_t>(current)] == work.stamp) {
        continue;
      }
      work.seen[static_cast<size_t>(current)] = work.stamp;
      work.below.push_back(current);
      std::span<const int> next = Children(current);
      work.stack.insert(work.stack.end(), next.begin(), next.end());
    }
    return work.below;
  }

  std::span<const int> Children(int id) const {
    return std::span<const int>(children_).subspan(
        first_child_[static_cast<size_t>(id)],
        first_child_[static_cast<size_t>(id) + 1] - first_child_[static_cast<size_t>(id)]);
  }

  void SetCached(int id, bool cache) {
    if (cached_[static_cast<size_t>(id)] != cache) {
      cached_[static_cast<size_t>(id)] = cache;
      graph_.node(id).cache = cache;
    }
  }

  VideoObjectGraph& graph_;
  // Children of node i: children_[first_child_[i], first_child_[i + 1]).
  std::vector<uint32_t> first_child_;
  std::vector<int> children_;
  std::vector<uint64_t> stored_bytes_;
  std::vector<char> cached_;
  std::vector<double> weights_;
};

}  // namespace

uint64_t PruneGraphOnce(VideoObjectGraph& graph) {
  PruneWorkspace work;
  return GraphPruner(graph, work).PruneOnce(work);
}

PruningReport PruneToBudget(MaterializationPlan& plan, uint64_t budget_bytes) {
  PruningReport report;
  report.budget_bytes = budget_bytes;
  report.initial_bytes = plan.CachedBytes();

  PruneWorkspace work;
  // Built the first time a graph is pruned. Reset once a graph saves
  // nothing: that step flipped no flag, and only the graph's own flags
  // decide its next step, so it would save nothing again.
  std::vector<std::optional<GraphPruner>> pruners(plan.videos.size());
  std::vector<char> exhausted(plan.videos.size(), 0);
  uint64_t data_size = report.initial_bytes;
  bool progress = true;
  while (data_size > budget_bytes && progress) {
    progress = false;
    ++report.rounds;
    for (size_t v = 0; v < plan.videos.size(); ++v) {
      if (exhausted[v]) {
        continue;
      }
      if (!pruners[v]) {
        pruners[v].emplace(plan.videos[v], work);
      }
      uint64_t reduced = pruners[v]->PruneOnce(work);
      if (reduced > 0) {
        progress = true;
        ++report.subtrees_pruned;
        data_size -= std::min(reduced, data_size);
      } else {
        exhausted[v] = 1;
        pruners[v].reset();
      }
      if (data_size <= budget_bytes) {
        break;
      }
    }
  }
  report.final_bytes = plan.CachedBytes();
  report.fits_budget = report.final_bytes <= budget_bytes;
  report.estimated_recompute_ns = EstimatedRecomputeNs(plan);
  return report;
}

namespace {

// Cost of producing node `id` on demand: zero if its object is cached,
// otherwise its own op cost plus the cost of producing its parents.
double OnDemandCost(const VideoObjectGraph& graph, int id, std::vector<double>& memo) {
  if (memo[static_cast<size_t>(id)] >= 0) {
    return memo[static_cast<size_t>(id)];
  }
  const ConcreteNode& node = graph.node(id);
  double cost = 0;
  if (node.op.type != ConcreteOpType::kSource && !node.cache) {
    cost = node.op_cost_ns;
    for (int parent : node.parents) {
      cost += OnDemandCost(graph, parent, memo);
    }
  }
  memo[static_cast<size_t>(id)] = cost;
  return cost;
}

}  // namespace

double EstimatedRecomputeNs(const MaterializationPlan& plan) {
  // Work re-done at serve time: for every leaf use, the cost of deriving
  // the leaf from its nearest cached objects (zero when the leaf itself is
  // cached). This is the quantity Algorithm 1 trades against storage.
  double total = 0;
  for (const VideoObjectGraph& graph : plan.videos) {
    std::vector<double> memo(graph.nodes.size(), -1.0);
    for (const ConcreteNode& node : graph.nodes) {
      if (node.is_leaf) {
        total += OnDemandCost(graph, node.id, memo) *
                 static_cast<double>(std::max<size_t>(node.consumers.size(), 1));
      }
    }
  }
  return total;
}

}  // namespace sand
