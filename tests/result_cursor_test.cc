// exec::ResultCursor — the pull-based streaming half of the execution
// API: chunk-stream parity with Run(), backpressure (production counter
// bounded by queue capacity, proving the stream is incremental rather
// than materialize-then-slice), early-close cancellation, caller
// cancellation tokens, and mid-stream error propagation (fault injection
// must surface the same Status through Next() as through Run(), never a
// silently truncated stream).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/runtime/session.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace {

using exec::Chunk;
using exec::ResultCursor;
using exec::RunOptions;

class ResultCursorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(777);
    const int64_t rows = 10000;
    std::vector<int64_t> keys;
    std::vector<double> values;
    for (int64_t i = 0; i < rows; ++i) {
      keys.push_back(i);
      values.push_back(rng.Uniform(-100, 100));
    }
    auto table =
        TableBuilder("big").AddInt64("k", keys).AddFloat64("v", values).Build();
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_TRUE(session_.RegisterTable("big", table.value()).ok());
  }

  std::shared_ptr<exec::CompiledQuery> Prepare(const std::string& sql) {
    auto query = session_.Prepare(sql);
    TDP_CHECK(query.ok()) << query.status().ToString();
    return query.value();
  }

  Session session_;
};

TEST_F(ResultCursorTest, DrainedStreamMatchesRun) {
  auto query = Prepare("SELECT k, v FROM big WHERE v > 0");
  RunOptions run;
  run.morsel_rows = 97;  // prime-sized morsels, many chunks
  auto reference = query->Run(run);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  auto cursor = query->Open(std::move(run));
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::vector<Chunk> chunks;
  while (true) {
    auto chunk = (*cursor)->Next();
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (!chunk->has_value()) break;
    chunks.push_back(std::move(**chunk));
  }
  ASSERT_GT(chunks.size(), 10u);
  EXPECT_EQ((*cursor)->chunks_produced(),
            static_cast<int64_t>(chunks.size()));
  auto table = Chunk::Concat(chunks).ToTable("result");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), (*reference)->num_rows());
  for (int64_t c = 0; c < (*table)->num_columns(); ++c) {
    EXPECT_TRUE(TensorEqual((*table)->column(c).data().Contiguous(),
                            (*reference)->column(c).data().Contiguous()));
  }
}

// Backpressure proves streaming: with a bounded queue, the producer can
// be at most (capacity + one wave) chunks ahead of the consumer, so after
// the first Next() production must be far from finished. A
// materialize-then-slice implementation would fail this deterministically.
TEST_F(ResultCursorTest, BoundedQueueKeepsProductionIncremental) {
  auto query = Prepare("SELECT k, v FROM big WHERE v > -200");
  RunOptions run;
  run.morsel_rows = 8;  // ~1250 chunks
  auto cursor = query->Open(std::move(run));
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto first = (*cursor)->Next();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->has_value());
  // consumed(1) + queue capacity (max(2, pool width)) + one wave in
  // flight (pool width), plus slack for the wave that completes while we
  // pop.
  const int64_t wave = ThreadPool::Global().num_threads();
  const int64_t capacity = std::max<int64_t>(2, wave);
  EXPECT_LE((*cursor)->chunks_produced(), 1 + capacity + 2 * wave);
  EXPECT_LT((*cursor)->chunks_produced(), 100);
}

TEST_F(ResultCursorTest, EarlyCloseStopsProduction) {
  auto query = Prepare("SELECT k, v FROM big WHERE v > -200");
  RunOptions run;
  run.morsel_rows = 8;  // ~1250 chunks if fully drained
  auto cursor = query->Open(std::move(run));
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto first = (*cursor)->Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  (*cursor)->Close();
  // Close() joins the producer, so the counter is frozen — and far below
  // the ~1250 chunks a full drain would have produced.
  const int64_t after_close = (*cursor)->chunks_produced();
  EXPECT_LT(after_close, 100);
  EXPECT_EQ((*cursor)->chunks_produced(), after_close);
  // A closed cursor reports Cancelled, not end-of-stream.
  auto next = (*cursor)->Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kCancelled);
}

TEST_F(ResultCursorTest, CallerTokenCancelsRunAndCursor) {
  auto query = Prepare("SELECT k, v FROM big WHERE v > -200");
  // Pre-cancelled token: Run() fails before doing any work.
  RunOptions run;
  run.cancel = std::make_shared<exec::CancellationToken>();
  run.cancel->Cancel();
  auto result = query->Run(run);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  // Token cancelled mid-stream: Next() eventually reports Cancelled (after
  // draining what was already queued), and production stops early.
  RunOptions streamed;
  streamed.morsel_rows = 8;
  streamed.cancel = std::make_shared<exec::CancellationToken>();
  auto token = streamed.cancel;
  auto cursor = query->Open(std::move(streamed));
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto first = (*cursor)->Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  token->Cancel();
  Status final_status = Status::OK();
  while (true) {
    auto chunk = (*cursor)->Next();
    if (!chunk.ok()) {
      final_status = chunk.status();
      break;
    }
    if (!chunk->has_value()) break;
  }
  EXPECT_EQ(final_status.code(), StatusCode::kCancelled)
      << final_status.ToString();
  EXPECT_LT((*cursor)->chunks_produced(), 100);
}

// A one-morsel run behind a cursor (the whole relation is one morsel):
// exactly one chunk, identical rows.
TEST_F(ResultCursorTest, OneMorselCursorYieldsOneChunk) {
  auto query = Prepare("SELECT k FROM big WHERE v > 0");
  RunOptions run;
  run.morsel_rows = int64_t{1} << 30;
  auto reference = query->Run(run);
  ASSERT_TRUE(reference.ok());
  auto cursor = query->Open(std::move(run));
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto chunk = (*cursor)->Next();
  ASSERT_TRUE(chunk.ok());
  ASSERT_TRUE(chunk->has_value());
  EXPECT_EQ((**chunk).num_rows(), (*reference)->num_rows());
  auto end = (*cursor)->Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
  EXPECT_EQ((*cursor)->chunks_produced(), 1);
}

TEST_F(ResultCursorTest, OpenValidatesParameterCount) {
  auto query = Prepare("SELECT k FROM big WHERE k = ?");
  auto cursor = query->Open();  // 0 params bound, 1 expected
  ASSERT_FALSE(cursor.ok());
  EXPECT_EQ(cursor.status().code(), StatusCode::kInvalidArgument);
  RunOptions run;
  run.params = {exec::ScalarValue::Int(42)};
  auto ok_cursor = query->Open(std::move(run));
  ASSERT_TRUE(ok_cursor.ok()) << ok_cursor.status().ToString();
  auto chunk = (*ok_cursor)->Next();
  ASSERT_TRUE(chunk.ok());
  ASSERT_TRUE(chunk->has_value());
  EXPECT_EQ((**chunk).num_rows(), 1);
}

// Fault injection (satellite: StatusOr error-path audit): a mid-stream
// executor error must surface through Next() as the *same* Status the
// materializing Run() returns — after the chunks that preceded the fault,
// never as a clean end-of-stream (silent truncation).
TEST_F(ResultCursorTest, MidStreamFaultMatchesRunStatus) {
  auto query = Prepare("SELECT k, v FROM big WHERE v > -200");
  const auto fault = [](int64_t morsel_index) {
    if (morsel_index == 5) {
      return Status::ExecutionError("injected fault at morsel 5");
    }
    return Status::OK();
  };

  RunOptions run;
  run.morsel_rows = 64;
  run.inject_morsel_fault = fault;
  auto materialized = query->Run(run);
  ASSERT_FALSE(materialized.ok());

  RunOptions streamed;
  streamed.morsel_rows = 64;
  streamed.inject_morsel_fault = fault;
  auto cursor = query->Open(std::move(streamed));
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  int64_t chunks_before_error = 0;
  Status stream_status = Status::OK();
  bool clean_end = false;
  while (true) {
    auto chunk = (*cursor)->Next();
    if (!chunk.ok()) {
      stream_status = chunk.status();
      break;
    }
    if (!chunk->has_value()) {
      clean_end = true;
      break;
    }
    ++chunks_before_error;
  }
  EXPECT_FALSE(clean_end) << "mid-stream fault read as end-of-stream";
  EXPECT_EQ(stream_status.code(), materialized.status().code());
  EXPECT_EQ(stream_status.message(), materialized.status().message());
  // The pre-fault chunks stream out before the error: incremental, and
  // capped at the fault's morsel index.
  EXPECT_LE(chunks_before_error, 5);
  // The error is sticky: re-polling must not turn it into end-of-stream.
  auto again = (*cursor)->Next();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().message(), materialized.status().message());
}

// Session::Sql must propagate a mid-run failure exactly like the cursor
// (shared StatusOr path through Prepare).
TEST_F(ResultCursorTest, SessionSqlPropagatesInjectedFault) {
  RunOptions run;
  run.morsel_rows = 64;
  run.inject_morsel_fault = [](int64_t i) {
    return i == 3 ? Status::ExecutionError("boom") : Status::OK();
  };
  auto result =
      session_.Sql("SELECT k, v FROM big WHERE v > -200", QueryOptions{}, run);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
  EXPECT_EQ(result.status().message(), "boom");
}

}  // namespace
}  // namespace tdp
