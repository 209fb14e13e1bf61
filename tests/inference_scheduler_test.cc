// Concurrent model serving through Session: every query calls its
// batchable model body directly, from its own ModelEval stage, and no
// layer batches calls across queries. Checks that concurrent clients get
// their solo results bit for bit, that every body call holds one query's
// rows in slices of at most `preferred_batch_rows`, and that a failing
// body's Status reaches every client. This suite runs under TSan and
// ASan/UBSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/session.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace {

using exec::ScalarValue;

constexpr int kClients = 8;
constexpr int kQueriesPerClient = 25;
constexpr int64_t kBatchRows = 16;
// Client c owns kBaseRows + c rows, so each of its queries spans two
// ModelEval batches.
constexpr int64_t kBaseRows = 20;
// Row i of client c holds x = c * kOwnerStride + i, so a body can tell
// whose rows it was given.
constexpr float kOwnerStride = 1000;

constexpr const char* kQuery =
    "SELECT affine(x) AS y FROM vals WHERE owner = ?";

/// What one call of the model body saw.
struct BodyCall {
  int64_t rows = 0;
  int64_t first_owner = 0;
  int64_t last_owner = 0;
};

/// `vals(owner, x)`: kBaseRows + c rows per client c.
std::shared_ptr<Table> MakeVals() {
  std::vector<int64_t> owners;
  std::vector<float> xs;
  for (int c = 0; c < kClients; ++c) {
    for (int64_t i = 0; i < kBaseRows + c; ++i) {
      owners.push_back(c);
      xs.push_back(static_cast<float>(c) * kOwnerStride +
                   static_cast<float>(i));
    }
  }
  auto table = TableBuilder("vals")
                   .AddInt64("owner", owners)
                   .AddFloat32("x", xs)
                   .Build();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.value();
}

exec::RunOptions ForClient(int c) {
  exec::RunOptions run;
  run.params = {ScalarValue::Int(c)};
  return run;
}

/// The result column's float32 bits.
std::vector<float> Values(const Table& table) {
  const Tensor y = table.column(0).data().Contiguous();
  EXPECT_EQ(y.dtype(), DType::kFloat32);
  return std::vector<float>(y.data<float>(), y.data<float>() + y.numel());
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(ModelServingTest, ConcurrentClientsCallTheModelPerQuery) {
  auto calls = std::make_shared<std::vector<BodyCall>>();
  auto calls_mu = std::make_shared<std::mutex>();
  udf::ScalarFunction fn;
  fn.name = "affine";
  fn.return_type = udf::DeclaredType::kFloat;
  fn.batchable = true;
  fn.preferred_batch_rows = kBatchRows;
  fn.fn = [calls, calls_mu](const std::vector<udf::Argument>& args,
                            int64_t num_rows,
                            Device) -> StatusOr<Column> {
    const Tensor x = args[0].column.DecodeValues().Contiguous();
    BodyCall call;
    call.rows = num_rows;
    if (num_rows > 0) {
      const float* p = x.data<float>();
      call.first_owner = static_cast<int64_t>(std::floor(p[0] / kOwnerStride));
      call.last_owner =
          static_cast<int64_t>(std::floor(p[num_rows - 1] / kOwnerStride));
    }
    {
      std::lock_guard<std::mutex> lock(*calls_mu);
      calls->push_back(call);
    }
    return Column::Plain(AddScalar(MulScalar(x, 0.37), 1.5));
  };

  Session session;
  ASSERT_TRUE(session.functions().RegisterScalar(std::move(fn)).ok());
  ASSERT_TRUE(session.RegisterTable("vals", MakeVals()).ok());

  std::vector<std::vector<float>> solo(kClients);
  for (int c = 0; c < kClients; ++c) {
    auto r = session.Sql(kQuery, {}, ForClient(c));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ((*r)->num_rows(), kBaseRows + c);
    solo[c] = Values(**r);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        auto r = session.Sql(kQuery, {}, ForClient(c));
        if (!r.ok() || !SameBits(Values(**r), solo[c])) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every body call held rows of one client only, in one ModelEval slice,
  // and the calls add up to exactly the rows the queries asked for.
  int64_t rows = 0;
  for (const BodyCall& call : *calls) {
    EXPECT_GE(call.rows, 1);
    EXPECT_LE(call.rows, kBatchRows);
    EXPECT_EQ(call.first_owner, call.last_owner);
    rows += call.rows;
  }
  int64_t expected = 0;
  for (int c = 0; c < kClients; ++c) {
    expected += (1 + kQueriesPerClient) * (kBaseRows + c);
  }
  EXPECT_EQ(rows, expected);
}

// A failing model body fails every concurrent query with its own Status,
// whether the client drains Run() or a cursor; no client hangs.
TEST(ModelServingTest, FailingModelReachesEveryClient) {
  udf::ScalarFunction fn;
  fn.name = "affine";
  fn.return_type = udf::DeclaredType::kFloat;
  fn.batchable = true;
  fn.preferred_batch_rows = 8;
  fn.fn = [](const std::vector<udf::Argument>&, int64_t,
             Device) -> StatusOr<Column> {
    return Status::ExecutionError("model weights not loaded");
  };
  Session session;
  ASSERT_TRUE(session.functions().RegisterScalar(std::move(fn)).ok());
  ASSERT_TRUE(session.RegisterTable("vals", MakeVals()).ok());

  std::vector<Status> statuses(kClients * kQueriesPerClient, Status::OK());
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        Status& status = statuses[c * kQueriesPerClient + q];
        if (c % 2 == 0) {
          status = session.Sql(kQuery, {}, ForClient(c)).status();
          continue;
        }
        auto cursor = session.Execute(kQuery, {}, ForClient(c));
        if (!cursor.ok()) {
          status = cursor.status();
          continue;
        }
        while (true) {
          auto chunk = (*cursor)->Next();
          if (!chunk.ok()) {
            status = chunk.status();
            break;
          }
          if (!chunk->has_value()) break;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), StatusCode::kExecutionError) << status.ToString();
    EXPECT_NE(status.ToString().find("model weights not loaded"),
              std::string::npos)
        << status.ToString();
  }
}

}  // namespace
}  // namespace tdp
