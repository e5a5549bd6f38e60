// Tests for Algorithm 1 (object graph pruning under a storage budget).

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "src/pruning/graph_pruning.h"
#include "src/workloads/models.h"

namespace sand {
namespace {

DatasetMeta TestMeta(int videos = 4) {
  DatasetMeta meta;
  meta.path = "/dataset/train";
  for (int v = 0; v < videos; ++v) {
    meta.video_names.push_back("vid" + std::to_string(v));
  }
  meta.frames_per_video = 48;
  meta.height = 32;
  meta.width = 48;
  meta.channels = 3;
  meta.gop_size = 8;
  meta.encoded_bytes_per_video = 10000;
  return meta;
}

MaterializationPlan MakePlan(int videos = 4, int k = 2) {
  DatasetMeta meta = TestMeta(videos);
  ModelProfile profile;
  profile.videos_per_batch = 2;
  profile.frames_per_video = 4;
  profile.frame_stride = 4;
  std::vector<TaskConfig> tasks = {MakeTaskConfig(profile, meta.path, "t")};
  PlannerOptions options;
  options.k_epochs = k;
  options.seed = 5;
  auto plan = BuildMaterializationPlan(meta, tasks, 0, options);
  EXPECT_TRUE(plan.ok());
  return plan.TakeValue();
}

TEST(PruningTest, LargeBudgetPrunesNothing) {
  MaterializationPlan plan = MakePlan();
  uint64_t initial = plan.CachedBytes();
  PruningReport report = PruneToBudget(plan, initial * 2);
  EXPECT_EQ(report.subtrees_pruned, 0);
  EXPECT_EQ(report.final_bytes, initial);
  EXPECT_TRUE(report.fits_budget);
}

TEST(PruningTest, MeetsTightBudget) {
  MaterializationPlan plan = MakePlan();
  uint64_t initial = plan.CachedBytes();
  uint64_t budget = initial / 3;
  PruningReport report = PruneToBudget(plan, budget);
  EXPECT_TRUE(report.fits_budget) << report.final_bytes << " vs " << budget;
  EXPECT_LE(plan.CachedBytes(), budget);
  EXPECT_GT(report.subtrees_pruned, 0);
  EXPECT_EQ(report.initial_bytes, initial);
}

TEST(PruningTest, ZeroBudgetCachesNothing) {
  MaterializationPlan plan = MakePlan();
  PruningReport report = PruneToBudget(plan, 0);
  EXPECT_TRUE(report.fits_budget);
  EXPECT_EQ(plan.CachedBytes(), 0u);
}

TEST(PruningTest, PrunedNodesStayConnected) {
  MaterializationPlan plan = MakePlan();
  PruneToBudget(plan, plan.CachedBytes() / 2);
  // Invariant: on every root-to-leaf path there is at most one cached node
  // "frontier" transition... weaker but checkable: a cached node must not
  // have a cached ancestor (the collapse replaces whole subtrees).
  for (const VideoObjectGraph& graph : plan.videos) {
    for (const ConcreteNode& node : graph.nodes) {
      if (!node.cache) {
        continue;
      }
      // Walk up all ancestor chains.
      std::vector<int> stack = node.parents;
      while (!stack.empty()) {
        int current = stack.back();
        stack.pop_back();
        EXPECT_FALSE(graph.node(current).cache)
            << "cached node " << node.id << " has cached ancestor " << current;
        stack.insert(stack.end(), graph.node(current).parents.begin(),
                     graph.node(current).parents.end());
      }
    }
  }
}

TEST(PruningTest, RecomputeGrowsAsBudgetShrinks) {
  MaterializationPlan loose = MakePlan();
  MaterializationPlan tight = MakePlan();
  uint64_t initial = loose.CachedBytes();
  PruningReport loose_report = PruneToBudget(loose, initial);
  PruningReport tight_report = PruneToBudget(tight, initial / 4);
  EXPECT_GE(tight_report.estimated_recompute_ns, loose_report.estimated_recompute_ns)
      << "less cache must mean more recomputation";
}

TEST(PruningTest, PruneGraphOnceReturnsSavings) {
  MaterializationPlan plan = MakePlan(1);
  VideoObjectGraph& graph = plan.videos[0];
  uint64_t before = 0;
  for (const ConcreteNode& node : graph.nodes) {
    if (node.cache) {
      before += node.est_stored_bytes;
    }
  }
  uint64_t saved = PruneGraphOnce(graph);
  uint64_t after = 0;
  for (const ConcreteNode& node : graph.nodes) {
    if (node.cache && node.op.type != ConcreteOpType::kSource) {
      after += node.est_stored_bytes;
    }
  }
  EXPECT_EQ(before - after, saved);
}

// A task whose merge stage gives the concrete graph DAG shape: the merged
// node is reachable from its decoded frame both directly and through the
// inverted copy.
TaskConfig MergeDagTask(const std::string& dataset_path) {
  TaskConfig task;
  task.tag = "dag";
  task.dataset_path = dataset_path;
  task.sampling.videos_per_batch = 2;
  task.sampling.frames_per_video = 2;
  task.sampling.frame_stride = 2;
  AugStage multi;
  multi.name = "fan";
  multi.type = BranchType::kMulti;
  multi.inputs = {"frame"};
  multi.outputs = {"a", "b"};
  task.augmentation.push_back(multi);
  AugStage invert;
  invert.name = "inv";
  invert.type = BranchType::kSingle;
  invert.inputs = {"b"};
  invert.outputs = {"b2"};
  AugOp op;
  op.kind = OpKind::kInvert;
  invert.ops.push_back(op);
  task.augmentation.push_back(invert);
  AugStage merge;
  merge.name = "join";
  merge.type = BranchType::kMerge;
  merge.inputs = {"a", "b2"};
  merge.outputs = {"out"};
  task.augmentation.push_back(merge);
  return task;
}

MaterializationPlan MakeMergeDagPlan() {
  DatasetMeta meta = TestMeta(2);
  TaskConfig task = MergeDagTask(meta.path);
  EXPECT_TRUE(task.Validate().ok());
  PlannerOptions options;
  options.k_epochs = 2;
  std::vector<TaskConfig> tasks = {task};
  auto plan = BuildMaterializationPlan(meta, tasks, 0, options);
  EXPECT_TRUE(plan.ok());
  return plan.TakeValue();
}

TEST(PruningTest, HandlesMergeDags) {
  // Merge stages give the concrete graph DAG shape (a node reachable via
  // two parents); pruning must not double-count or loop.
  MaterializationPlan plan = MakeMergeDagPlan();
  uint64_t initial = plan.CachedBytes();
  ASSERT_GT(initial, 0u);
  PruningReport report = PruneToBudget(plan, initial / 4);
  EXPECT_TRUE(report.fits_budget);
  EXPECT_LE(plan.CachedBytes(), initial / 4);
}

TEST(PruningTest, MergeDagSavingsCountSharedChildOnce) {
  // A collapse whose subtree reaches a cached merge node through two
  // parents must count that node's bytes once: every reported saving
  // equals the drop in the plan's cached bytes. Sizing each merge like its
  // decoded frame makes no collapse below the root save space, so the root
  // collapse walks down to the cached merge along both paths.
  MaterializationPlan plan = MakeMergeDagPlan();
  bool has_shared_child = false;
  for (VideoObjectGraph& graph : plan.videos) {
    for (ConcreteNode& node : graph.nodes) {
      if (node.op.type == ConcreteOpType::kMerge && node.parents.size() == 2) {
        has_shared_child = true;
        node.est_stored_bytes = graph.node(node.parents[0]).est_stored_bytes;
      }
    }
  }
  ASSERT_TRUE(has_shared_child);
  int collapses = 0;
  for (VideoObjectGraph& graph : plan.videos) {
    for (;;) {
      uint64_t before = plan.CachedBytes();
      uint64_t saved = PruneGraphOnce(graph);
      EXPECT_EQ(saved, before - plan.CachedBytes());
      if (saved == 0) {
        break;
      }
      ++collapses;
    }
  }
  EXPECT_GT(collapses, 0);
  EXPECT_EQ(plan.CachedBytes(), 0u);
}

// FNV-1a over everything pruning decides: every node's cache flag, the
// round and collapse counts, the final footprint and the recompute
// estimate's bits.
class DecisionHash {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      AddByte(static_cast<uint8_t>(value >> (8 * i)));
    }
  }
  void AddByte(uint8_t byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001b3ULL;
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t PruneAndHash(MaterializationPlan plan, double budget_share) {
  const uint64_t budget =
      static_cast<uint64_t>(budget_share * static_cast<double>(plan.CachedBytes()));
  PruningReport report = PruneToBudget(plan, budget);
  DecisionHash hash;
  for (const VideoObjectGraph& graph : plan.videos) {
    for (const ConcreteNode& node : graph.nodes) {
      hash.AddByte(node.cache ? 1 : 0);
    }
  }
  hash.Add(static_cast<uint64_t>(report.rounds));
  hash.Add(static_cast<uint64_t>(report.subtrees_pruned));
  hash.Add(report.final_bytes);
  uint64_t recompute_bits = 0;
  std::memcpy(&recompute_bits, &report.estimated_recompute_ns, sizeof(recompute_bits));
  hash.Add(recompute_bits);
  return hash.value();
}

// Budget shares of the golden sweep: no pruning, the service's share in the
// budget-bound benchmark (0.45 budget x 0.9 eviction watermark), a tight
// budget, and collapse to the roots.
constexpr double kGoldenShares[] = {1.0, 0.405, 0.05, 0.0};

// Recorded from the round-robin pruner that re-ran one subtree walk per
// node and per sort comparison. Any faster pruner must reproduce these
// decisions bit for bit.
constexpr uint64_t kGoldenSweep[] = {
    // 8 videos, seed 1, k 2
    0xc0c7cb987d2e5496ULL, 0x6a40d67f9cc770c4ULL, 0x2d9aa3e13a57b889ULL, 0x2d9aa3e13a57b889ULL,
    // 8 videos, seed 1, k 4
    0xe78f49f7a3df341cULL, 0x4696cec30d9a10feULL, 0xe6a5e1599b0163faULL, 0x48488e7f26029270ULL,
    // 8 videos, seed 5, k 2
    0x9af930cf69bf5220ULL, 0xa6caf2ee925c50e9ULL, 0x222bc48b6a25cb5aULL, 0x222bc48b6a25cb5aULL,
    // 8 videos, seed 5, k 4
    0xd8374c9d48fa26f5ULL, 0x1d66060905403de0ULL, 0x69fc5f83da3c75feULL, 0xb1cb8cd5c44bd545ULL,
    // 8 videos, seed 77, k 2
    0x0319e9aa7d54d827ULL, 0x19b7c964446a8586ULL, 0xcf69506698441e74ULL, 0xcf69506698441e74ULL,
    // 8 videos, seed 77, k 4
    0x580a71f2ae519e5eULL, 0xff500d3e9d9a7f3cULL, 0xaa63eba5786cb283ULL, 0x492fbece9fe2c811ULL,
    // 48 videos, seed 1, k 2
    0xd53a5cc65fd2fdcfULL, 0x885b60b84fb80a90ULL, 0xf14d0d37b5f7762dULL, 0x3c32c36f8b45b223ULL,
    // 48 videos, seed 1, k 4
    0xa59fa80a99ac45b6ULL, 0xccbe6cb7171383b3ULL, 0x42f6f51845c53ec4ULL, 0xbd4c297af3fbc352ULL,
    // 48 videos, seed 5, k 2
    0xefbea408e666192eULL, 0x92d2765739d7a3e2ULL, 0x46445638d7c1c566ULL, 0xa6fd25d7a0ae953dULL,
    // 48 videos, seed 5, k 4
    0xd601a0dbba9347c7ULL, 0x9753112383488909ULL, 0x0824f7821d76a519ULL, 0xbed31ca624fcbadcULL,
    // 48 videos, seed 77, k 2
    0x8676da4eec28cad1ULL, 0xe177eec7d28940ebULL, 0x9f7912127e55cca2ULL, 0x008a2f6c0679f177ULL,
    // 48 videos, seed 77, k 4
    0x7556c16262dc4690ULL, 0x41dab9e4a2a95c1dULL, 0x87c23f745aaaec4fULL, 0xadeb55b441e8c17eULL,
};
constexpr uint64_t kGoldenMergeDag[] = {
    0x615bdc8e63bd838dULL, 0x1e7b5033d0e669ddULL, 0x7be24c20efa37347ULL, 0x7be24c20efa37347ULL,
};

TEST(PruningTest, GoldenDecisionsSlowFastMae) {
  // SlowFast + MAE on one dataset (the Fig. 17 pair) on sandbench's
  // 48-frame 64x96 videos, metadata only.
  size_t index = 0;
  for (int videos : {8, 48}) {
    DatasetMeta meta = TestMeta(videos);
    meta.height = 64;
    meta.width = 96;
    std::vector<TaskConfig> tasks = {MakeTaskConfig(SlowFastProfile(), meta.path, "slowfast"),
                                     MakeTaskConfig(MaeProfile(), meta.path, "mae")};
    for (uint64_t seed : {1, 5, 77}) {
      for (int k : {2, 4}) {
        PlannerOptions options;
        options.k_epochs = k;
        options.seed = seed;
        auto plan = BuildMaterializationPlan(meta, tasks, 0, options);
        ASSERT_TRUE(plan.ok());
        for (double share : kGoldenShares) {
          SCOPED_TRACE(testing::Message() << videos << " videos, seed " << seed << ", k " << k
                                          << ", share " << share);
          ASSERT_LT(index, std::size(kGoldenSweep));
          EXPECT_EQ(PruneAndHash(*plan, share), kGoldenSweep[index]);
          ++index;
        }
      }
    }
  }
  EXPECT_EQ(index, std::size(kGoldenSweep));
}

TEST(PruningTest, GoldenDecisionsMergeDag) {
  MaterializationPlan plan = MakeMergeDagPlan();
  static_assert(std::size(kGoldenMergeDag) == std::size(kGoldenShares));
  for (size_t i = 0; i < std::size(kGoldenShares); ++i) {
    SCOPED_TRACE(testing::Message() << "share " << kGoldenShares[i]);
    EXPECT_EQ(PruneAndHash(plan, kGoldenShares[i]), kGoldenMergeDag[i]);
  }
}

TEST(PruningTest, BudgetMonotonicity) {
  // final_bytes must be monotone non-decreasing in the budget.
  uint64_t previous = 0;
  MaterializationPlan reference = MakePlan();
  uint64_t initial = reference.CachedBytes();
  for (uint64_t divisor : {16, 8, 4, 2, 1}) {
    MaterializationPlan plan = MakePlan();
    PruningReport report = PruneToBudget(plan, initial / divisor);
    EXPECT_GE(report.final_bytes, previous);
    previous = report.final_bytes;
  }
}

}  // namespace
}  // namespace sand
