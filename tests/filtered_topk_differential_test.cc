// Differential harness for filtered vector search (FilteredIndexTopK).
//
// A seeded driver generates random predicates spanning selectivities from
// ~0 to ~0.9 and runs `SELECT id, dot(emb, ?) AS sim FROM vecs WHERE <p>
// ORDER BY sim DESC LIMIT k` against an indexed session, comparing with a
// reference session that has NO index (its plan is the exact Filter +
// Sort + Limit pipeline). Every predicate carries its C++ counterpart so
// the harness can count survivors independently of either engine path.
//
// The contract under test, per predicate x k:
//   - FULL probe budgets (default 0 and an over-clamped 1000): the indexed
//     plan is bit-identical to the exact plan across morsel sizes
//     {1, 7, 4096, whole-input}.
//   - a PARTIAL budget (num_probes=1): the row count never drops below
//     min(k, survivors), every returned row satisfies the predicate, and
//     the sim column is non-increasing.
// The predicates reach both strategies the cost rule picks (pre_filter
// and post_filter, checked through EXPLAIN), each with survivor counts on
// both sides of k — so the pre-filter run both narrows its survivors
// with a probe and ranks them without one, and the post-filter run both
// stops early and widens to every cell.
//
// Like dml_differential, the suite registers twice: TDP_NUM_THREADS=1 and
// a _mt variant at 4 kernel threads (see CMakeLists), and rides in the
// TSan/ASan CI jobs.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/run_options.h"
#include "src/index/ivf_index.h"
#include "src/runtime/session.h"
#include "src/storage/table.h"
#include "src/tensor/ops.h"
#include "tests/vector_test_util.h"

namespace tdp {
namespace {

using exec::RunOptions;
using exec::ScalarValue;

// A SQL predicate over the `id` column paired with its oracle.
struct Predicate {
  std::string sql;
  std::function<bool(int64_t)> fn;
};

// Random predicates across the selectivity spectrum: modular equality
// (~1/m), range (< / >=), conjunction (AND), disjunction (OR), inequality
// (~0.9), a never-true range for the zero-survivor edge, and a negated
// range the cost rule estimates at 0.7 although at most 16 rows pass.
std::vector<Predicate> MakePredicates(Rng& rng, int64_t n) {
  std::vector<Predicate> preds;
  {
    const int64_t m = rng.UniformInt(3, 9);
    const int64_t r = rng.UniformInt(0, m - 1);
    preds.push_back({"id % " + std::to_string(m) + " = " + std::to_string(r),
                     [m, r](int64_t id) { return id % m == r; }});
  }
  {
    const int64_t cut = rng.UniformInt(1, n - 1);
    preds.push_back({"id < " + std::to_string(cut),
                     [cut](int64_t id) { return id < cut; }});
  }
  {
    const int64_t lo = rng.UniformInt(0, n / 2);
    const int64_t hi = lo + rng.UniformInt(1, n / 2);
    preds.push_back(
        {"id >= " + std::to_string(lo) + " AND id < " + std::to_string(hi),
         [lo, hi](int64_t id) { return id >= lo && id < hi; }});
  }
  {
    const int64_t m = rng.UniformInt(2, 4);
    const int64_t cut = n - rng.UniformInt(1, n / 4);
    preds.push_back(
        {"id % " + std::to_string(m) + " = 0 OR id >= " + std::to_string(cut),
         [m, cut](int64_t id) { return id % m == 0 || id >= cut; }});
  }
  {
    const int64_t x = rng.UniformInt(0, n - 1);
    preds.push_back({"id <> " + std::to_string(x),
                     [x](int64_t id) { return id != x; }});
  }
  preds.push_back({"id < 0", [](int64_t) { return false; }});
  {
    const int64_t cut = rng.UniformInt(0, 16);
    preds.push_back({"NOT (id >= " + std::to_string(cut) + ")",
                     [cut](int64_t id) { return id < cut; }});
  }
  return preds;
}

std::shared_ptr<Table> MakeVecTable(int64_t n, int64_t dim, int64_t clusters,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  auto table =
      TableBuilder("vecs")
          .AddInt64("id", ids)
          .AddTensor("emb",
                     testutil::MakeClusteredUnitVectors(n, dim, clusters, rng))
          .Build();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.value();
}

// Morsel sizes: 0 = the executor default (whole-input morsels).
const int64_t kMorselSizes[] = {1, 7, 4096, 0};

class FilteredTopKDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FilteredTopKDifferentialTest, FilteredSearchAgreesWithExactPlan) {
  const uint64_t seed = GetParam();
  Rng rng(0xF17'0000 + seed);
  const int64_t n = 240 + static_cast<int64_t>(seed) * 40;
  const int64_t dim = 8;
  const std::shared_ptr<Table> data = MakeVecTable(n, dim, 6, 100 + seed);

  Session indexed;
  ASSERT_TRUE(indexed.RegisterTable("vecs", data).ok());
  index::IvfIndex::Options opts;
  opts.num_lists = 6 + static_cast<int64_t>(seed % 3) * 2;
  ASSERT_TRUE(indexed.CreateVectorIndex("vecs", "emb", opts).ok());

  Session reference;  // no index: the exact Filter + Sort + Limit plan
  ASSERT_TRUE(reference.RegisterTable("vecs", data).ok());

  const std::vector<Predicate> preds = MakePredicates(rng, n);
  // Per planned strategy: whether some case had more than k survivors,
  // and whether some had k or fewer.
  std::map<std::string, std::pair<bool, bool>> sides_of_k;

  for (const Predicate& pred : preds) {
    int64_t survivors = 0;
    for (int64_t id = 0; id < n; ++id) {
      if (pred.fn(id)) ++survivors;
    }
    for (const int64_t k : {int64_t{1}, int64_t{5}, int64_t{17}}) {
      const std::string sql = "SELECT id, dot(emb, ?) AS sim FROM vecs "
                              "WHERE " + pred.sql +
                              " ORDER BY sim DESC LIMIT " + std::to_string(k);
      const std::vector<ScalarValue> params = {ScalarValue::FromTensor(
          testutil::MakeUnitQuery(dim, rng))};
      const std::string what = "seed " + std::to_string(seed) + " [" +
                               pred.sql + "] k=" + std::to_string(k);

      auto expected = reference.Sql(sql, {}, testutil::WithParams(params));
      ASSERT_TRUE(expected.ok()) << what << ": "
                                 << expected.status().ToString();
      ASSERT_EQ((*expected)->num_rows(), std::min(k, survivors)) << what;

      // The indexed plan really is the filtered-index shape, and names
      // the strategy the cost rule chose.
      auto plan = indexed.Explain(sql);
      ASSERT_TRUE(plan.ok()) << what;
      const size_t at = plan->find("FilteredIndexTopK(strategy=");
      ASSERT_NE(at, std::string::npos) << what << "\n" << *plan;
      const size_t from = plan->find('=', at) + 1;
      const std::string strategy =
          plan->substr(from, plan->find(',', from) - from);
      auto& [above_k, within_k] = sides_of_k[strategy];
      (survivors > k ? above_k : within_k) = true;

      // Full budgets: bit-identity across morsel sizes.
      for (const int64_t morsel : kMorselSizes) {
        for (const int64_t probes : {int64_t{0}, int64_t{1000}}) {
          RunOptions run = testutil::WithParams(params);
          run.morsel_rows = morsel;
          run.vector_search.num_probes = probes;
          const std::string config = what + " [morsel=" +
                                     std::to_string(morsel) +
                                     "] probes=" + std::to_string(probes);
          auto got = indexed.Sql(sql, {}, run);
          ASSERT_TRUE(got.ok()) << config << ": " << got.status().ToString();
          testutil::ExpectTablesBitIdentical(**expected, **got, config);
        }
      }

      // A partial budget: the survivor floor holds, rows satisfy the
      // predicate, and scores are non-increasing. (Recall may differ from
      // exact — row MEMBERSHIP is not pinned, only the contract.)
      RunOptions run = testutil::WithParams(params);
      run.vector_search.num_probes = 1;
      auto got = indexed.Sql(sql, {}, run);
      ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
      const std::string sub = what + " partial strategy=" + strategy;
      ASSERT_EQ((*got)->num_rows(), std::min(k, survivors)) << sub;
      const Tensor ids = (*got)->column(0).data().Contiguous();
      const Tensor sims = (*got)->column(1).data().Contiguous();
      for (int64_t i = 0; i < (*got)->num_rows(); ++i) {
        EXPECT_TRUE(pred.fn(static_cast<int64_t>(ids.At({i}))))
            << sub << " row " << i;
        if (i > 0) {
          EXPECT_GE(sims.At({i - 1}), sims.At({i})) << sub << " row " << i;
        }
      }
    }
  }

  for (const char* strategy : {"pre_filter", "post_filter"}) {
    ASSERT_TRUE(sides_of_k.contains(strategy))
        << "seed " << seed << " never planned " << strategy;
    EXPECT_TRUE(sides_of_k[strategy].first)
        << "seed " << seed << ": no " << strategy
        << " case with more than k survivors";
    EXPECT_TRUE(sides_of_k[strategy].second)
        << "seed " << seed << ": no " << strategy
        << " case with k or fewer survivors";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilteredTopKDifferentialTest,
                         ::testing::Range<uint64_t>(0, 4));

}  // namespace
}  // namespace tdp
