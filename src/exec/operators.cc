#include "src/exec/operators.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/string_util.h"
#include "src/common/thread_pool.h"
#include "src/exec/bound_expr.h"
#include "src/exec/key_table.h"
#include "src/exec/operator_kernels.h"
#include "src/exec/primitive_cache.h"
#include "src/exec/soft_ops.h"
#include "src/exec/spill.h"
#include "src/tensor/dispatch.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace exec {
namespace {

using plan::AggDef;
using plan::AggKind;
using plan::AggregateNode;
using plan::FilterNode;
using plan::JoinNode;
using plan::LimitNode;
using plan::ProjectNode;
using plan::ScanNode;
using plan::SortNode;
using plan::TvfScanNode;

// The argument checks of FinalizeAggregate, made before either kernel
// reads a row: a string column can only be COUNTed, and every argument
// must be a scalar column.
Status CheckAggArguments(const AggregateNode& node, const AggInputs& inputs) {
  for (size_t d = 0; d < node.aggregates.size(); ++d) {
    const AggDef& def = node.aggregates[d];
    if (!def.arg) continue;
    const Column& arg_col = inputs.arg_columns[d];
    if (arg_col.encoding() == Encoding::kDictionary &&
        def.kind != AggKind::kCount) {
      return Status::TypeError("cannot " +
                               std::string(plan::AggKindName(def.kind)) +
                               " a string column");
    }
    if (arg_col.DecodeValues().dim() != 1) {
      return Status::TypeError("aggregate argument must be a scalar column");
    }
  }
  return Status::OK();
}

}  // namespace

// ---- Scan -------------------------------------------------------------------

StatusOr<Chunk> ExecuteScan(const ScanNode& node, const ExecContext& ctx) {
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                       ctx.catalog->GetTable(node.table_name));
  // The catalog may hold a newer registration of this table (training
  // loops re-register inputs); validate it still matches the bound schema.
  // Downstream expressions read columns by position, so both the count and
  // the per-position names must still agree — a reordered/renamed
  // re-registration has to fail loudly, never silently read wrong data.
  Chunk chunk;
  if (node.projected_columns.empty()) {
    if (static_cast<size_t>(table->num_columns()) != node.schema.size()) {
      return Status::ExecutionError(
          "table " + node.table_name +
          " changed shape since compilation; re-compile the query");
    }
    for (size_t i = 0; i < node.schema.size(); ++i) {
      if (!EqualsIgnoreCase(table->column_names()[i], node.schema[i].name)) {
        return Status::ExecutionError(
            "table " + node.table_name + " column " + std::to_string(i) +
            " is now '" + table->column_names()[i] +
            "' (compiled against '" + node.schema[i].name +
            "'); re-compile the query");
      }
    }
    chunk = Chunk::FromTable(*table);
  } else {
    for (size_t k = 0; k < node.projected_columns.size(); ++k) {
      const int64_t i = node.projected_columns[k];
      if (i >= table->num_columns()) {
        return Status::ExecutionError(
            "table " + node.table_name +
            " changed shape since compilation; re-compile the query");
      }
      const std::string& name =
          table->column_names()[static_cast<size_t>(i)];
      if (!EqualsIgnoreCase(name, node.schema[k].name)) {
        return Status::ExecutionError(
            "table " + node.table_name + " column " + std::to_string(i) +
            " is now '" + name + "' (compiled against '" +
            node.schema[k].name + "'); re-compile the query");
      }
      chunk.names.push_back(name);
      chunk.columns.push_back(table->column(i));
    }
  }
  // A table registered on the other device serves its columns retagged
  // for this run's kernels: the same buffers, no copy.
  for (Column& c : chunk.columns) c = c.To(ctx.device);
  return chunk;
}

StatusOr<Chunk> ExecuteTvfScan(const TvfScanNode& node, Chunk input,
                               const ExecContext& ctx) {
  for (Column& c : input.columns) c = c.To(ctx.device);
  TDP_ASSIGN_OR_RETURN(Chunk out, node.fn->fn(input, node.args, ctx.device));
  if (out.names.size() != node.fn->output_schema.size()) {
    return Status::ExecutionError(
        "TVF " + node.fn->name + " returned " +
        std::to_string(out.names.size()) + " columns, declared " +
        std::to_string(node.fn->output_schema.size()));
  }
  return out;
}

// ---- Filter / Project -------------------------------------------------------

StatusOr<Chunk> ExecuteFilter(const FilterNode& node, const Chunk& input,
                              const ExecContext& ctx) {
  TDP_ASSIGN_OR_RETURN(
      Tensor mask,
      EvaluatePredicate(*node.predicate, input, EvalOpts(ctx)));
  if (mask.numel() != input.num_rows()) {
    return Status::ExecutionError("predicate mask length mismatch");
  }
  return input.Select(NonZero(mask));
}

StatusOr<Chunk> ExecuteProject(const ProjectNode& node, const Chunk& input,
                               const ExecContext& ctx) {
  Chunk out;
  for (size_t i = 0; i < node.exprs.size(); ++i) {
    TDP_ASSIGN_OR_RETURN(
        Column c,
        EvaluateExprToColumn(*node.exprs[i], input, EvalOpts(ctx)));
    out.names.push_back(node.schema[i].name);
    out.columns.push_back(std::move(c));
  }
  return out;
}

// ---- ModelEval (streaming micro-batch model evaluation) ---------------------

StatusOr<Chunk> ExecuteModelEval(const plan::ModelEvalNode& node,
                                 const Chunk& morsel, const ExecContext& ctx) {
  TDP_CHECK(node.wrapped != nullptr);
  const auto run_wrapped = [&](const Chunk& batch) -> StatusOr<Chunk> {
    switch (node.wrapped->kind) {
      case plan::NodeKind::kFilter:
        return ExecuteFilter(static_cast<const FilterNode&>(*node.wrapped),
                             batch, ctx);
      case plan::NodeKind::kProject:
        return ExecuteProject(static_cast<const ProjectNode&>(*node.wrapped),
                              batch, ctx);
      case plan::NodeKind::kTvfScan:
        return ExecuteTvfScan(static_cast<const TvfScanNode&>(*node.wrapped),
                              batch, ctx);
      default:
        return Status::Internal("ModelEval wraps unsupported operator: " +
                                node.wrapped->Describe());
    }
  };
  const int64_t batch_rows = std::max<int64_t>(node.batch_rows, 1);
  const int64_t rows = morsel.num_rows();
  // Zero or one batch: a single direct call, exactly what the breaker path
  // would have done with this input (empty inputs included — TVF bodies
  // already handle 0-row chunks on the materialized path). Soft runs always
  // take it: one forward keeps the autograd graph, and with it every
  // gradient bit, independent of the batch size.
  if (ctx.soft_mode || rows <= batch_rows) return run_wrapped(morsel);
  std::vector<Chunk> outputs;
  outputs.reserve(static_cast<size_t>((rows + batch_rows - 1) / batch_rows));
  for (int64_t start = 0; start < rows; start += batch_rows) {
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    const int64_t count = std::min(batch_rows, rows - start);
    TDP_ASSIGN_OR_RETURN(Chunk out,
                         run_wrapped(morsel.SliceRows(start, count)));
    outputs.push_back(std::move(out));
  }
  // Slice-order reassembly: row-locality of batchable bodies makes this
  // concatenation bit-identical to one whole-morsel evaluation.
  return Chunk::Concat(outputs);
}

// ---- Aggregate --------------------------------------------------------------

StatusOr<AggInputs> EvaluateAggInputs(const AggregateNode& node,
                                      const Chunk& input,
                                      const ExecContext& ctx) {
  AggInputs out;
  out.rows = input.num_rows();
  out.key_columns.reserve(node.group_exprs.size());
  for (const auto& expr : node.group_exprs) {
    TDP_ASSIGN_OR_RETURN(
        Column key,
        EvaluateExprToColumn(*expr, input, EvalOpts(ctx)));
    out.key_columns.push_back(std::move(key));
  }
  out.arg_columns.reserve(node.aggregates.size());
  for (const AggDef& def : node.aggregates) {
    if (def.arg) {
      TDP_ASSIGN_OR_RETURN(
          Column arg,
          EvaluateExprToColumn(*def.arg, input, EvalOpts(ctx)));
      out.arg_columns.push_back(std::move(arg));
    } else {
      out.arg_columns.emplace_back();
    }
  }
  return out;
}

namespace {

// Whether `a` and `b` are one column: the same tensor handle under the
// same encoding metadata.
bool SameColumn(const Column& a, const Column& b) {
  return a.data().impl() == b.data().impl() && a.encoding() == b.encoding() &&
         &a.dictionary() == &b.dictionary() && &a.domain() == &b.domain();
}

}  // namespace

AggInputs MergeAggInputs(const std::vector<const AggInputs*>& parts) {
  TDP_CHECK(!parts.empty());
  if (parts.size() == 1) return *parts[0];
  // Column i of part p: the keys, then the arguments.
  const size_t num_keys = parts[0]->key_columns.size();
  const size_t num_columns = num_keys + parts[0]->arg_columns.size();
  const auto column = [&](size_t p, size_t i) -> const Column& {
    return i < num_keys ? parts[p]->key_columns[i]
                        : parts[p]->arg_columns[i - num_keys];
  };
  // A column-reference key or argument evaluates to the morsel's own
  // column handle, so `MIN(x), MAX(x)` hands each part the same column
  // twice. A column that is, in every part, an earlier one shares that
  // one's merge instead of being concatenated again.
  std::vector<Column> merged(num_columns);
  std::vector<Column> column_parts(parts.size());
  for (size_t i = 0; i < num_columns; ++i) {
    if (!column(0, i).defined()) continue;  // COUNT(*): no argument
    const auto same_in_every_part = [&](size_t j) {
      for (size_t p = 0; p < parts.size(); ++p) {
        if (!SameColumn(column(p, i), column(p, j))) return false;
      }
      return true;
    };
    size_t j = 0;
    while (j < i && !same_in_every_part(j)) ++j;
    if (j < i) {
      merged[i] = merged[j];
      continue;
    }
    for (size_t p = 0; p < parts.size(); ++p) column_parts[p] = column(p, i);
    merged[i] = Column::Concat(column_parts);
  }
  AggInputs out;
  for (const AggInputs* p : parts) out.rows += p->rows;
  out.key_columns.assign(merged.begin(), merged.begin() + num_keys);
  out.arg_columns.assign(merged.begin() + num_keys, merged.end());
  return out;
}

namespace {

// Both finalize kernels, in memory and paged, fold rows into per-group
// accumulators in fixed blocks of `kAggBlock` rows. When `AggFoldsBlocks`
// holds, each block accumulates into partials of its own, and the
// partials fold into the totals in block order; otherwise each group's
// rows accumulate straight into its total, in row order. The
// floating-point reduction tree thus depends only on the row count, and
// the paged kernel, whose pages are these blocks, reproduces it operation
// for operation.

/// Rows per accumulation block, and per page of the paged aggregate.
constexpr int64_t kAggBlock = 4096;

/// Whether one aggregate over `rows` rows and `num_groups` groups folds
/// per-block partials: only when the fold (one entry per block and group)
/// costs no more than the rows it splits, and never for DISTINCT, whose
/// table of seen pairs spans every row.
bool AggFoldsBlocks(const AggDef& def, int64_t rows, int64_t num_groups) {
  const int64_t num_blocks = (rows + kAggBlock - 1) / kAggBlock;
  return !def.distinct && num_blocks > 1 && num_blocks * num_groups <= rows;
}

// ---- Sharded passes ---------------------------------------------------------
//
// The in-memory kernel runs its per-row passes on the pool. A pass whose
// rows write disjoint outputs uses `ParallelFor`; a pass with per-shard
// results (a least code, a count) cuts its range into `Shards` and
// combines their results in shard order. Either way no result depends on
// the thread count.

/// Work below which a pass stays one serial shard: about what one pool
/// dispatch costs.
constexpr int64_t kMinShardWork = int64_t{1} << 15;

/// `count` contiguous, near-equal shards of `[0, n)`.
struct Shards {
  int64_t n = 0;
  int64_t count = 1;
  int64_t begin(int64_t s) const { return n * s / count; }
  int64_t end(int64_t s) const { return n * (s + 1) / count; }
};

/// At most one shard per pool thread, each with `kMinShardWork` of the
/// pass's `work` or more.
int64_t ShardCount(int64_t work) {
  return std::clamp<int64_t>(work / kMinShardWork, 1,
                             ThreadPool::Global().num_threads());
}

/// Runs `fn(shard, begin, end)` for every shard, on the pool.
void ForEachShard(const Shards& shards,
                  const std::function<void(int64_t, int64_t, int64_t)>& fn) {
  ParallelFor(0, shards.count, 1, [&](int64_t first, int64_t last) {
    for (int64_t s = first; s < last; ++s) {
      fn(s, shards.begin(s), shards.end(s));
    }
  });
}

/// Calls `fn(values)` with aggregate `def`'s argument, `column`, as its
/// decoded rows in their own dtype: `values[r]` is row r's argument, which
/// the accumulator widens to double as it reads it, the cast
/// `Tensor::To(kFloat64)` makes. Without an argument, `values` is a null
/// `const double*`. A contiguous column is read in place.
template <typename Fn>
void VisitArgument(const AggDef& def, const Column& column, Fn&& fn) {
  if (!def.arg) {
    fn(static_cast<const double*>(nullptr));
    return;
  }
  const Tensor decoded = column.DecodeValues();
  const Tensor values =
      decoded.is_contiguous() ? decoded : decoded.Contiguous();
  TDP_DISPATCH_ALL(values.dtype(), { fn(values.data<scalar_t>()); });
}

// ---- Grouping ---------------------------------------------------------------
//
// Both ways of grouping number the groups in key code order, take each
// group's first row as its representative, and leave row r's group number
// in `row_group[r]`. Dense keys find their group by arithmetic, sparse
// keys through a `KeyTable`; the numbers, the representatives and so
// every output bit are the same either way.

/// One key column's order codes: the column's own payload when it holds
/// int64 values or dictionary codes, which are their own codes, else codes
/// computed in one pass on the pool.
struct KeyCodes {
  Tensor borrowed;
  std::vector<int64_t> owned;
  const int64_t* data = nullptr;
};

StatusOr<KeyCodes> KeyCodesOf(const Column& column) {
  KeyCodes codes;
  const Tensor values = column.DecodeValues();
  if (values.dtype() == DType::kInt64 && values.dim() == 1 &&
      values.is_contiguous()) {
    codes.borrowed = values;
    codes.data = values.data<int64_t>();
    return codes;
  }
  TDP_ASSIGN_OR_RETURN(codes.owned, OrderPreservingCodes(column));
  codes.data = codes.owned.data();
  return codes;
}

/// Per key column, the least code and the size of the code range; the
/// dense domain is the product of the sizes.
struct DenseDomain {
  std::vector<int64_t> min;
  std::vector<uint64_t> size;
  int64_t slots = 1;
};

/// The keys' dense domain, when it has no more slots than there are rows,
/// so that dense grouping's arrays hold at most one entry per row. Empty
/// for sparse keys: floats, wide integer spans, large products.
std::optional<DenseDomain> FindDenseDomain(const KeyColumns& codes,
                                           int64_t rows) {
  if (rows == 0) return std::nullopt;
  const size_t width = codes.size();
  const Shards shards{rows, ShardCount(rows)};
  std::vector<int64_t> lo(static_cast<size_t>(shards.count) * width);
  std::vector<int64_t> hi(lo.size());
  ForEachShard(shards, [&](int64_t s, int64_t begin, int64_t end) {
    for (size_t k = 0; k < width; ++k) {
      const int64_t* c = codes[k];
      int64_t mn = c[begin], mx = c[begin];
      for (int64_t r = begin + 1; r < end; ++r) {
        mn = std::min(mn, c[r]);
        mx = std::max(mx, c[r]);
      }
      lo[static_cast<size_t>(s) * width + k] = mn;
      hi[static_cast<size_t>(s) * width + k] = mx;
    }
  });
  DenseDomain domain;
  for (size_t k = 0; k < width; ++k) {
    int64_t mn = lo[k], mx = hi[k];
    for (int64_t s = 1; s < shards.count; ++s) {
      mn = std::min(mn, lo[static_cast<size_t>(s) * width + k]);
      mx = std::max(mx, hi[static_cast<size_t>(s) * width + k]);
    }
    // One less than the range's size, exact even when the range spans
    // all of int64.
    const uint64_t span =
        static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn);
    if (span >= static_cast<uint64_t>(rows) ||
        __builtin_mul_overflow(domain.slots, static_cast<int64_t>(span + 1),
                               &domain.slots) ||
        domain.slots > rows) {
      return std::nullopt;
    }
    domain.min.push_back(mn);
    domain.size.push_back(span + 1);
  }
  return domain;
}

/// Dense grouping. A row's slot is its key's mixed-radix position in the
/// domain, the first key most significant, so slot order is code order:
/// ranking the occupied slots numbers the groups as sorting the distinct
/// keys does, and a slot's least row is its group's first row. The key
/// codes are released once the slots are known.
int64_t DenseGroups(std::vector<KeyCodes> codes, const DenseDomain& domain,
                    int64_t rows, Device device,
                    std::vector<int64_t>& row_group,
                    Tensor& representatives) {
  int64_t* group = row_group.data();
  for (size_t k = 0; k < codes.size(); ++k) {
    const int64_t* code = codes[k].data;
    const bool most_significant = k == 0;
    const uint64_t min = static_cast<uint64_t>(domain.min[k]);
    const uint64_t size = domain.size[k];
    ParallelFor(0, rows, GrainForCost(2), [=](int64_t begin, int64_t end) {
      for (int64_t r = begin; r < end; ++r) {
        const uint64_t high =
            most_significant ? 0 : static_cast<uint64_t>(group[r]) * size;
        group[r] =
            static_cast<int64_t>(high + (static_cast<uint64_t>(code[r]) - min));
      }
    });
  }
  codes = {};

  // Each slot's least row, `rows` for an empty slot. Stored from the last
  // row back, so the least row is stored last. This one pass is serial:
  // for 2^18 rows over 64K slots on a 4-vCPU host it took 0.6 ms, and an
  // atomic least-row pass on 4 threads 1.8 ms, its shards contending for
  // cache lines.
  std::vector<int64_t> slot_first(static_cast<size_t>(domain.slots), rows);
  int64_t* first = slot_first.data();
  for (int64_t r = rows - 1; r >= 0; --r) first[group[r]] = r;

  // Rank the occupied slots: count them per shard, offset each shard by
  // the counts before it, then number them, which turns `slot_first` into
  // the slot -> group map.
  const Shards shards{domain.slots, ShardCount(domain.slots)};
  std::vector<int64_t> offset(static_cast<size_t>(shards.count) + 1, 0);
  ForEachShard(shards, [&](int64_t s, int64_t begin, int64_t end) {
    int64_t occupied = 0;
    for (int64_t slot = begin; slot < end; ++slot) {
      occupied += first[slot] < rows;
    }
    offset[static_cast<size_t>(s) + 1] = occupied;
  });
  for (size_t s = 1; s < offset.size(); ++s) offset[s] += offset[s - 1];
  const int64_t num_groups = offset.back();
  representatives = Tensor::Empty({num_groups}, DType::kInt64, device);
  int64_t* rep = representatives.data<int64_t>();
  ForEachShard(shards, [&](int64_t s, int64_t begin, int64_t end) {
    int64_t next = offset[static_cast<size_t>(s)];
    for (int64_t slot = begin; slot < end; ++slot) {
      if (first[slot] == rows) continue;
      rep[next] = first[slot];
      first[slot] = next++;
    }
  });
  ParallelFor(0, rows, GrainForCost(2), [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) group[r] = first[group[r]];
  });
  return num_groups;
}

/// The representatives in group order: key-table id `id`, whose first
/// row is `first_rows[id]`, is group `rank[id]`.
Tensor RepresentativesByRank(const std::vector<int64_t>& rank,
                             const std::vector<int64_t>& first_rows,
                             Device device) {
  Tensor representatives = Tensor::Empty(
      {static_cast<int64_t>(rank.size())}, DType::kInt64, device);
  int64_t* rep = representatives.data<int64_t>();
  for (size_t id = 0; id < rank.size(); ++id) rep[rank[id]] = first_rows[id];
  return representatives;
}

/// Hash grouping, for keys too sparse to slot. The key table numbers
/// distinct keys in first-occurrence order, so each group's first row
/// falls out of the insert pass; ranking the distinct keys then renumbers
/// the groups in code order.
int64_t HashGroups(const KeyColumns& cols, int64_t rows, Device device,
                   std::vector<int64_t>& row_group,
                   Tensor& representatives) {
  KeyTable groups(static_cast<int64_t>(cols.size()));
  std::vector<int64_t> first_rows;
  for (int64_t r = 0; r < rows; ++r) {
    bool inserted = false;
    row_group[static_cast<size_t>(r)] = groups.Insert(cols, r, &inserted);
    if (inserted) first_rows.push_back(r);
  }
  const std::vector<int64_t> rank = groups.SortedRanks();
  ParallelFor(0, rows, GrainForCost(2), [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      int64_t& g = row_group[static_cast<size_t>(r)];
      g = rank[static_cast<size_t>(g)];
    }
  });
  representatives = RepresentativesByRank(rank, first_rows, device);
  return groups.size();
}

/// Groups the rows by `keys` in key order (see "Grouping" above): each
/// row's group in `row_group`, each group's first row in
/// `representatives`. Returns the number of groups.
StatusOr<int64_t> GroupRows(const std::vector<Column>& keys, int64_t rows,
                            Device device, std::vector<int64_t>& row_group,
                            Tensor& representatives) {
  std::vector<KeyCodes> codes;
  KeyColumns cols;
  for (const Column& key : keys) {
    TDP_ASSIGN_OR_RETURN(KeyCodes key_codes, KeyCodesOf(key));
    cols.push_back(key_codes.data);
    codes.push_back(std::move(key_codes));
  }
  if (const std::optional<DenseDomain> domain = FindDenseDomain(cols, rows)) {
    return DenseGroups(std::move(codes), *domain, rows, device, row_group,
                       representatives);
  }
  return HashGroups(cols, rows, device, row_group, representatives);
}

/// The rows sorted by group bucket, stably: a bucket is a contiguous range
/// of groups, and holds exactly the rows of its groups, ascending. A pass
/// that gives each bucket its own shard walks every group's rows in row
/// order, and no two shards touch one group.
struct RowBuckets {
  std::vector<int64_t> rows;   // row ids, bucket after bucket
  std::vector<int64_t> start;  // bucket b is rows[start[b] .. start[b+1])
};

/// `row_group`'s rows in `num_buckets` buckets or fewer: group g falls in
/// bucket g >> shift. Each row shard counts its rows per bucket, the
/// counts are laid out bucket by bucket and, within a bucket, in shard
/// order, and each shard then places its rows, so a bucket's rows stay in
/// row order.
RowBuckets BucketRows(const std::vector<int64_t>& row_group,
                      int64_t num_groups, int64_t num_buckets) {
  int shift = 0;
  while (((num_groups - 1) >> shift) >= num_buckets) ++shift;
  const int64_t buckets = ((num_groups - 1) >> shift) + 1;
  const int64_t rows = static_cast<int64_t>(row_group.size());
  const int64_t* group = row_group.data();
  const Shards shards{rows, ShardCount(rows)};
  // Shard s's count, then its next position, for bucket b at
  // [s * buckets + b].
  std::vector<int64_t> cursor(static_cast<size_t>(shards.count * buckets));
  ForEachShard(shards, [&](int64_t s, int64_t begin, int64_t end) {
    std::vector<int64_t> count(static_cast<size_t>(buckets), 0);
    for (int64_t r = begin; r < end; ++r) ++count[group[r] >> shift];
    std::copy(count.begin(), count.end(), cursor.begin() + s * buckets);
  });
  RowBuckets out;
  out.start.resize(static_cast<size_t>(buckets) + 1);
  int64_t next = 0;
  for (int64_t b = 0; b < buckets; ++b) {
    out.start[static_cast<size_t>(b)] = next;
    for (int64_t s = 0; s < shards.count; ++s) {
      next += std::exchange(cursor[static_cast<size_t>(s * buckets + b)], next);
    }
  }
  out.start.back() = next;
  out.rows.resize(static_cast<size_t>(rows));
  int64_t* placed = out.rows.data();
  ForEachShard(shards, [&](int64_t s, int64_t begin, int64_t end) {
    std::vector<int64_t> at(cursor.begin() + s * buckets,
                            cursor.begin() + (s + 1) * buckets);
    for (int64_t r = begin; r < end; ++r) placed[at[group[r] >> shift]++] = r;
  });
  return out;
}

// ---- Accumulation -----------------------------------------------------------

/// Per-group accumulators of one aggregate: the running sum or extreme,
/// the rows counted, and whether any row has reached the group.
struct AggAccumulators {
  explicit AggAccumulators(int64_t slots) { Reset(slots); }
  void Reset(int64_t slots) {
    acc.assign(static_cast<size_t>(slots), 0.0);
    counts.assign(static_cast<size_t>(slots), 0);
    has.assign(static_cast<size_t>(slots), 0);
  }
  std::vector<double> acc;
  std::vector<int64_t> counts;
  std::vector<unsigned char> has;
};

/// Accumulates `n` rows of aggregate `def`, rows `row_at(0)` ..
/// `row_at(n - 1)` in that order, into the slots `base + group[r]` of
/// `out`; `values[r]` is row r's argument (unread without one, see
/// `VisitArgument`). For COUNT(DISTINCT), row r counts only when its
/// (group, value code) key in `distinct` is new to `seen`.
template <typename RowAt, typename T>
void AccumulateAggRows(const AggDef& def, int64_t n, RowAt row_at,
                       const int64_t* group, const T* values,
                       const KeyColumns& distinct, KeyTable& seen,
                       AggAccumulators& out, size_t base) {
  double* acc = out.acc.data() + base;
  int64_t* counts = out.counts.data() + base;
  unsigned char* has = out.has.data() + base;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t r = row_at(i);
    const size_t g = static_cast<size_t>(group[r]);
    if (def.distinct && def.arg) {
      bool inserted = false;
      seen.Insert(distinct, r, &inserted);
      if (!inserted) continue;
    }
    const double v = def.arg ? static_cast<double>(values[r]) : 0.0;
    switch (def.kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        acc[g] += v;
        break;
      case AggKind::kMin:
        acc[g] = has[g] ? std::min(acc[g], v) : v;
        break;
      case AggKind::kMax:
        acc[g] = has[g] ? std::max(acc[g], v) : v;
        break;
    }
    has[g] = 1;
    ++counts[g];
  }
}

/// Rows `lo`, `lo + 1`, ... for `AccumulateAggRows`.
auto RowsFrom(int64_t lo) {
  return [lo](int64_t i) { return lo + i; };
}

/// Folds the `num_groups` partials of one block, at slots `base` ..
/// `base + num_groups - 1` of `block`, into the totals.
void FoldAggBlock(AggKind kind, int64_t num_groups,
                  const AggAccumulators& block, size_t base,
                  AggAccumulators& total) {
  const double* blk_acc = block.acc.data() + base;
  const int64_t* blk_counts = block.counts.data() + base;
  const unsigned char* blk_has = block.has.data() + base;
  double* acc = total.acc.data();
  int64_t* counts = total.counts.data();
  unsigned char* has = total.has.data();
  for (size_t g = 0; g < static_cast<size_t>(num_groups); ++g) {
    if (!blk_has[g]) continue;
    switch (kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        acc[g] += blk_acc[g];
        break;
      case AggKind::kMin:
        acc[g] = has[g] ? std::min(acc[g], blk_acc[g]) : blk_acc[g];
        break;
      case AggKind::kMax:
        acc[g] = has[g] ? std::max(acc[g], blk_acc[g]) : blk_acc[g];
        break;
    }
    has[g] = 1;
    counts[g] += blk_counts[g];
  }
}

/// The group key output columns: for each group, in group order, the key
/// columns' values at its representative row. Probability-encoded keys
/// are hard-decoded — the exact operator swap of §4. Empty without GROUP
/// BY.
Chunk GroupKeyColumns(const AggregateNode& node, const AggInputs& inputs,
                      const Tensor& representatives) {
  Chunk out;
  if (node.group_exprs.empty()) return out;
  for (size_t k = 0; k < inputs.key_columns.size(); ++k) {
    Column key_col = inputs.key_columns[k];
    if (key_col.encoding() == Encoding::kProbability) {
      key_col = Column::Plain(key_col.DecodeValues());
    }
    out.names.push_back(node.group_names[k]);
    out.columns.push_back(key_col.Select(representatives));
  }
  return out;
}

/// One aggregate's output column from its per-group accumulators: the
/// count for COUNT, the sum for SUM, sum / count for AVG, the running
/// extreme for MIN/MAX, each cast to `dtype` (the schema's output type).
Column AggregateOutputColumn(AggKind kind, DType dtype,
                             const std::vector<double>& acc,
                             const std::vector<int64_t>& counts,
                             Device device) {
  const int64_t num_groups = static_cast<int64_t>(acc.size());
  Tensor result = Tensor::Empty({num_groups}, dtype, device);
  TDP_DISPATCH_ALL(dtype, {
    scalar_t* out = result.data<scalar_t>();
    for (int64_t g = 0; g < num_groups; ++g) {
      const size_t ug = static_cast<size_t>(g);
      double v = 0;
      switch (kind) {
        case AggKind::kCountStar:
        case AggKind::kCount:
          v = static_cast<double>(counts[ug]);
          break;
        case AggKind::kSum:
        case AggKind::kMin:
        case AggKind::kMax:
          v = acc[ug];
          break;
        case AggKind::kAvg:
          v = counts[ug] > 0 ? acc[ug] / static_cast<double>(counts[ug]) : 0;
          break;
      }
      out[g] = static_cast<scalar_t>(v);
    }
  });
  return Column::Plain(std::move(result));
}

/// The over-budget GROUP BY: the in-memory kernel's result, computed a
/// `kAggBlock`-row page at a time from the resident inputs, so no
/// whole-relation code, argument or group array is ever materialized.
/// Pass A discovers the groups page by page in a key table, however dense
/// the keys. Order codes are row-local, so inserting page by page assigns
/// the same first-occurrence ids and first rows, and the rank renumbering
/// the same group order, as one pass over the relation: the in-memory
/// kernel's groups and representatives. Pass B, once per aggregate (so at
/// most one table of seen DISTINCT pairs is live), recomputes each page's
/// key codes and arguments exactly as pass A does, resolves each row's
/// group through the finished key table, and accumulates through the
/// in-memory kernel's accumulator. Pages ARE its blocks, so folding each
/// page's partials as the page arrives is that kernel's block-order fold;
/// otherwise rows accumulate straight across the pages, each group's in
/// row order, as that kernel's do.
StatusOr<Chunk> PagedFinalizeAggregate(const AggregateNode& node,
                                       const AggInputs& inputs,
                                       const ExecContext& ctx) {
  const int64_t rows = inputs.rows;
  const bool grouped = !node.group_exprs.empty();

  // The group key codes of rows lo .. lo + n - 1.
  std::vector<std::vector<int64_t>> key_codes(inputs.key_columns.size());
  const auto page_keys = [&](int64_t lo, int64_t n) -> StatusOr<KeyColumns> {
    for (size_t k = 0; k < key_codes.size(); ++k) {
      TDP_ASSIGN_OR_RETURN(
          key_codes[k],
          OrderPreservingCodes(inputs.key_columns[k].SliceRows(lo, n)));
    }
    return ColumnsOf(key_codes);
  };

  // Pass A: group discovery, recording each group's first row.
  KeyTable groups(static_cast<int64_t>(key_codes.size()));
  std::vector<int64_t> first_rows;
  for (int64_t lo = 0; grouped && lo < rows; lo += kAggBlock) {
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    const int64_t n = std::min(kAggBlock, rows - lo);
    TDP_ASSIGN_OR_RETURN(const KeyColumns cols, page_keys(lo, n));
    for (int64_t i = 0; i < n; ++i) {
      bool inserted = false;
      groups.Insert(cols, i, &inserted);
      if (inserted) first_rows.push_back(lo + i);
    }
  }
  const std::vector<int64_t> rank = groups.SortedRanks();
  const int64_t num_groups = grouped ? groups.size() : 1;
  Chunk out = GroupKeyColumns(
      node, inputs, RepresentativesByRank(rank, first_rows, ctx.device));

  // Pass B, once per aggregate.
  std::vector<int64_t> row_group;
  std::vector<int64_t> distinct_codes;
  for (size_t d = 0; d < node.aggregates.size(); ++d) {
    const AggDef& def = node.aggregates[d];
    const bool folds_blocks = AggFoldsBlocks(def, rows, num_groups);
    AggAccumulators total(num_groups), block(0);
    KeyTable distinct_seen(2);  // (group, value) pairs, as in memory
    for (int64_t lo = 0; lo < rows; lo += kAggBlock) {
      TDP_RETURN_NOT_OK(CheckCancel(ctx));
      const int64_t n = std::min(kAggBlock, rows - lo);
      row_group.assign(static_cast<size_t>(n), 0);
      if (grouped) {
        TDP_ASSIGN_OR_RETURN(const KeyColumns cols, page_keys(lo, n));
        for (int64_t i = 0; i < n; ++i) {
          const int64_t id = groups.Find(cols, i);
          if (id < 0) return Status::Internal("aggregate page key not found");
          row_group[static_cast<size_t>(i)] = rank[static_cast<size_t>(id)];
        }
      }
      const Column arg =
          def.arg ? inputs.arg_columns[d].SliceRows(lo, n) : Column();
      if (def.arg && def.distinct) {
        TDP_ASSIGN_OR_RETURN(distinct_codes, OrderPreservingCodes(arg));
      }
      const KeyColumns distinct_cols = {row_group.data(),
                                        distinct_codes.data()};
      VisitArgument(def, arg, [&](const auto* values) {
        if (folds_blocks) {
          block.Reset(num_groups);
          AccumulateAggRows(def, n, RowsFrom(0), row_group.data(), values,
                            distinct_cols, distinct_seen, block, 0);
          FoldAggBlock(def.kind, num_groups, block, 0, total);
        } else {
          AccumulateAggRows(def, n, RowsFrom(0), row_group.data(), values,
                            distinct_cols, distinct_seen, total, 0);
        }
      });
    }
    out.names.push_back(def.name);
    out.columns.push_back(AggregateOutputColumn(
        def.kind, node.schema[node.group_exprs.size() + d].dtype, total.acc,
        total.counts, ctx.device));
  }
  return out;
}

}  // namespace

StatusOr<Chunk> FinalizeAggregate(const AggregateNode& node,
                                  const AggInputs& inputs,
                                  const ExecContext& ctx) {
  TDP_RETURN_NOT_OK(CheckAggArguments(node, inputs));
  const int64_t rows = inputs.rows;

  // Scratch this kernel may materialize beyond the (caller-owned)
  // evaluated inputs, 8 bytes a row per array: key codes (unless a key
  // holds them already), the per-row group array, distinct codes, dense
  // grouping's slot arrays and the row buckets. Arguments are read in
  // place, and the key codes are released before the slot arrays exist,
  // so no more arrays are live at once than this count allows. Over
  // budget -> the paged two-pass kernel, bit-identical.
  const int64_t scratch =
      rows * 8 *
      static_cast<int64_t>(inputs.key_columns.size() +
                           node.aggregates.size() + 2);
  if (ctx.memory != nullptr && !ctx.soft_mode && rows > 0 &&
      ctx.memory->ShouldSpill(scratch)) {
    return PagedFinalizeAggregate(node, inputs, ctx);
  }
  const ScopedReservation reservation(ctx.memory, scratch);

  // Group numbers, in key order. Without GROUP BY every row belongs to
  // the single group 0.
  std::vector<int64_t> row_group(static_cast<size_t>(rows), 0);
  Tensor representatives;
  int64_t num_groups = 1;
  if (!node.group_exprs.empty()) {
    TDP_ASSIGN_OR_RETURN(num_groups,
                         GroupRows(inputs.key_columns, rows, ctx.device,
                                   row_group, representatives));
  }

  Chunk out = GroupKeyColumns(node, inputs, representatives);

  // Aggregates. Rows fold in fixed blocks whose partials combine in block
  // order (see `AggFoldsBlocks`), so the floating-point reduction tree
  // depends only on the row count — results are identical for every
  // TDP_NUM_THREADS and every morsel size (the streaming executor merges
  // per-morsel inputs in morsel order before this accumulation).
  const int64_t num_blocks = (rows + kAggBlock - 1) / kAggBlock;
  // Rows by group bucket, made for the first aggregate that does not fold
  // when the pool can split its groups.
  const int64_t num_buckets = std::min(num_groups, ShardCount(rows));
  RowBuckets buckets;
  for (size_t def_index = 0; def_index < node.aggregates.size(); ++def_index) {
    const AggDef& def = node.aggregates[def_index];
    const Column& arg_col = inputs.arg_columns[def_index];
    std::vector<int64_t> arg_codes;  // for DISTINCT
    if (def.arg && def.distinct) {
      TDP_ASSIGN_OR_RETURN(arg_codes, OrderPreservingCodes(arg_col));
    }
    // COUNT(DISTINCT): a row counts when its (group, value) pair is new.
    const KeyColumns distinct_cols = {row_group.data(), arg_codes.data()};

    AggAccumulators total(num_groups);
    VisitArgument(def, arg_col, [&](const auto* values) {
      if (AggFoldsBlocks(def, rows, num_groups)) {
        AggAccumulators blocks(num_blocks * num_groups);
        KeyTable no_distinct(2);  // folding never runs DISTINCT
        ParallelFor(0, num_blocks, GrainForCost(kAggBlock),
                    [&](int64_t block_begin, int64_t block_end) {
                      for (int64_t blk = block_begin; blk < block_end;
                           ++blk) {
                        const int64_t lo = blk * kAggBlock;
                        AccumulateAggRows(
                            def, std::min(kAggBlock, rows - lo), RowsFrom(lo),
                            row_group.data(), values, distinct_cols,
                            no_distinct, blocks,
                            static_cast<size_t>(blk * num_groups));
                      }
                    });
        for (int64_t blk = 0; blk < num_blocks; ++blk) {
          FoldAggBlock(def.kind, num_groups, blocks,
                       static_cast<size_t>(blk * num_groups), total);
        }
      } else if (num_buckets > 1) {
        // Each bucket of groups on its own shard, its rows in row order,
        // so each group still sums its rows in row order. A DISTINCT pair
        // holds its group, so a table of seen pairs per bucket decides
        // exactly what one table over every row would.
        if (buckets.start.empty()) {
          buckets = BucketRows(row_group, num_groups, num_buckets);
        }
        const int64_t count = static_cast<int64_t>(buckets.start.size()) - 1;
        ParallelFor(0, count, 1, [&](int64_t first, int64_t last) {
          for (int64_t b = first; b < last; ++b) {
            const int64_t* ids = buckets.rows.data() + buckets.start[b];
            KeyTable distinct_seen(2);
            AccumulateAggRows(
                def, buckets.start[b + 1] - buckets.start[b],
                [ids](int64_t i) { return ids[i]; }, row_group.data(), values,
                distinct_cols, distinct_seen, total, 0);
          }
        });
      } else {
        KeyTable distinct_seen(2);
        AccumulateAggRows(def, rows, RowsFrom(0), row_group.data(), values,
                          distinct_cols, distinct_seen, total, 0);
      }
    });

    out.names.push_back(def.name);
    out.columns.push_back(AggregateOutputColumn(
        def.kind, node.schema[node.group_exprs.size() + def_index].dtype,
        total.acc, total.counts, ctx.device));
  }
  return out;
}

StatusOr<Chunk> ExecuteAggregate(const AggregateNode& node,
                                 const Chunk& input, const ExecContext& ctx) {
  // Soft path: trainable mode + PE keys + COUNT(*) aggregates only.
  if (ctx.soft_mode && !node.group_exprs.empty()) {
    bool all_count_star = true;
    for (const AggDef& def : node.aggregates) {
      if (def.kind != AggKind::kCountStar) all_count_star = false;
    }
    // Probe the first key's encoding to decide; PE keys require soft.
    bool keys_are_pe = true;
    std::vector<Column> probe;
    for (const auto& expr : node.group_exprs) {
      TDP_ASSIGN_OR_RETURN(
          Column key,
          EvaluateExprToColumn(*expr, input, EvalOpts(ctx)));
      if (key.encoding() != Encoding::kProbability) keys_are_pe = false;
      probe.push_back(std::move(key));
    }
    if (keys_are_pe) {
      if (!all_count_star) {
        return Status::Unimplemented(
            "trainable aggregation over PE keys supports COUNT(*) only");
      }
      TDP_ASSIGN_OR_RETURN(SoftGroupByResult soft, SoftGroupByCount(probe));
      Chunk out;
      for (size_t g = 0; g < node.group_names.size(); ++g) {
        out.names.push_back(node.group_names[g]);
        out.columns.push_back(Column::Plain(soft.key_values[g]));
      }
      for (const AggDef& def : node.aggregates) {
        out.names.push_back(def.name);
        out.columns.push_back(Column::Plain(soft.counts));
      }
      return out;
    }
    // Fall through to exact with already-evaluated keys discarded.
  }

  TDP_ASSIGN_OR_RETURN(AggInputs inputs, EvaluateAggInputs(node, input, ctx));
  return FinalizeAggregate(node, inputs, ctx);
}

// ---- Join -------------------------------------------------------------------

StatusOr<JoinHashTable> BuildJoinHashTable(const JoinNode& node,
                                           Chunk build_input,
                                           const ExecContext& ctx) {
  JoinHashTable ht;
  ht.build = std::move(build_input);
  const auto& build_key_cols =
      node.build_left ? node.left_keys : node.right_keys;
  // Pure-residual joins (no keys) probe as a cartesian product over the
  // resident build side.
  if (build_key_cols.empty()) return ht;
  TDP_ASSIGN_OR_RETURN(JoinKeyCodes codes,
                       ComputeJoinKeyCodes(ht.build, build_key_cols));
  const KeyColumns cols = ColumnsOf(codes.columns);
  ht.index = JoinIndex(static_cast<int64_t>(cols.size()));
  for (int64_t r = 0; r < ht.build.num_rows(); ++r) {
    if (!codes.never_match[static_cast<size_t>(r)]) ht.index.Add(cols, r);
  }
  ht.index.Finish();

  // Over budget, the payload goes to disk once, in build-row order, and
  // only a 0-row prototype of it stays resident; the index (keys and row
  // numbers) is the cheap part and stays too.
  const int64_t rows = ht.build.num_rows();
  if (ctx.memory != nullptr && !ctx.soft_mode && rows > 0 &&
      ctx.memory->ShouldSpill(ChunkFootprintBytes(ht.build) + rows * 48)) {
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    TDP_ASSIGN_OR_RETURN(ht.spill_file, ctx.memory->NewSpillFile("joinbuild"));
    TDP_ASSIGN_OR_RETURN(const int64_t bytes,
                         WritePages(ht.spill_file, ht.build));
    ctx.memory->AddSpilledBytes(bytes);
    // A Select, not a slice: a 0-row view would keep the payload alive.
    ht.build = ht.build.Select(Tensor::Empty({0}, DType::kInt64, ctx.device));
  }
  return ht;
}

StatusOr<Chunk> ProbeJoin(const JoinNode& node, const JoinHashTable& ht,
                          const Chunk& probe, const ExecContext& ctx) {
  const int64_t probe_rows = probe.num_rows();
  const int64_t build_rows = ht.build.num_rows();
  const auto& probe_key_cols =
      node.build_left ? node.right_keys : node.left_keys;

  // Matched row pairs, in probe-row-major order; matches of one probe row
  // come out in ascending build-row order (the index keeps them sorted).
  std::vector<int64_t> probe_idx;
  std::vector<int64_t> build_idx;
  if (!probe_key_cols.empty()) {
    TDP_ASSIGN_OR_RETURN(JoinKeyCodes codes,
                         ComputeJoinKeyCodes(probe, probe_key_cols));
    const KeyColumns cols = ColumnsOf(codes.columns);
    probe_idx.reserve(static_cast<size_t>(probe_rows));
    build_idx.reserve(static_cast<size_t>(probe_rows));
    for (int64_t r = 0; r < probe_rows; ++r) {
      if (codes.never_match[static_cast<size_t>(r)]) continue;
      for (int64_t b : ht.index.Matches(cols, r)) {
        probe_idx.push_back(r);
        build_idx.push_back(b);
      }
    }
  } else {
    // Pure residual join: cartesian pairs filtered below.
    probe_idx.reserve(static_cast<size_t>(probe_rows * build_rows));
    build_idx.reserve(static_cast<size_t>(probe_rows * build_rows));
    for (int64_t l = 0; l < probe_rows; ++l) {
      for (int64_t r = 0; r < build_rows; ++r) {
        probe_idx.push_back(l);
        build_idx.push_back(r);
      }
    }
  }

  // The build side's matched rows: a Select from the resident build, or
  // one ordered pass over its spilled pages. Either way row i is build
  // row build_idx[i].
  std::vector<Column> build_cols;
  if (ht.spill_file.empty()) {
    const Tensor bsel = Tensor::FromVector(build_idx, {}, ctx.device);
    for (const Column& c : ht.build.columns) {
      build_cols.push_back(c.Select(bsel));
    }
  } else {
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    TDP_ASSIGN_OR_RETURN(build_cols,
                         GatherPages(ht.spill_file, ht.build, build_idx));
  }
  const Tensor psel = Tensor::FromVector(probe_idx, {}, ctx.device);
  std::vector<Column> probe_cols;
  for (const Column& c : probe.columns) probe_cols.push_back(c.Select(psel));

  // Assemble in schema order (left columns first) regardless of which
  // side was the build: the build-side flip is invisible downstream.
  const std::vector<Column>& left = node.build_left ? build_cols : probe_cols;
  const std::vector<Column>& right = node.build_left ? probe_cols : build_cols;
  Chunk joined;
  for (size_t i = 0; i < left.size(); ++i) {
    joined.names.push_back(node.schema[i].name);
    joined.columns.push_back(left[i]);
  }
  for (size_t i = 0; i < right.size(); ++i) {
    joined.names.push_back(node.schema[left.size() + i].name);
    joined.columns.push_back(right[i]);
  }

  if (node.residual) {
    TDP_ASSIGN_OR_RETURN(
        Tensor mask,
        EvaluatePredicate(*node.residual, joined, EvalOpts(ctx)));
    joined = joined.Select(NonZero(mask));
  }
  return joined;
}

// ---- Sort / Limit / Distinct ------------------------------------------------

StatusOr<Chunk> ExecuteSort(const SortNode& node, const Chunk& input,
                            const ExecContext& ctx) {
  const int64_t rows = input.num_rows();
  // The keys are evaluated once, over the whole relation, and collapsed
  // to order codes; `SortRows` ranks the rows by them.
  SortKeys keys;
  for (const plan::SortItem& item : node.items) {
    TDP_ASSIGN_OR_RETURN(
        Column key_col, EvaluateExprToColumn(*item.expr, input, EvalOpts(ctx)));
    TDP_ASSIGN_OR_RETURN(SortKey key, MakeSortKey(key_col, item.descending));
    keys.push_back(std::move(key));
  }
  // Sort scratch: the key codes and the permutation. The sort runs in
  // memory at every budget: its input is resident for the whole call and
  // its output must be, so a spill would bound neither.
  const ScopedReservation reservation(
      ctx.memory,
      rows * 8 * static_cast<int64_t>(node.items.size() + 2));
  const std::vector<int64_t> perm = SortRows(keys, rows, node.fused_limit);
  return input.Select(Tensor::FromVector(perm, {}, ctx.device));
}

StatusOr<Chunk> ExecuteLimit(const LimitNode& node, const Chunk& input) {
  const int64_t rows = input.num_rows();
  const int64_t start = std::min(node.offset, rows);
  const int64_t count = node.limit < 0
                            ? rows - start
                            : std::min(node.limit, rows - start);
  Tensor idx = Tensor::Empty({count}, DType::kInt64,
                             input.columns.empty()
                                 ? Device::kCpu
                                 : input.columns[0].data().device());
  int64_t* p = idx.data<int64_t>();
  for (int64_t i = 0; i < count; ++i) p[i] = start + i;
  return input.Select(idx);
}

StatusOr<Chunk> ExecuteDistinct(const Chunk& input) {
  const int64_t rows = input.num_rows();
  std::vector<std::vector<int64_t>> codes;
  for (const Column& c : input.columns) {
    TDP_ASSIGN_OR_RETURN(std::vector<int64_t> col_codes,
                         OrderPreservingCodes(c));
    codes.push_back(std::move(col_codes));
  }
  const KeyColumns cols = ColumnsOf(codes);
  KeyTable seen(static_cast<int64_t>(cols.size()));
  std::vector<int64_t> keep;
  for (int64_t r = 0; r < rows; ++r) {
    bool inserted = false;
    seen.Insert(cols, r, &inserted);
    if (inserted) keep.push_back(r);
  }
  const Device device =
      input.columns.empty() ? Device::kCpu : input.columns[0].data().device();
  return input.Select(Tensor::FromVector(keep, {}, device));
}

// ---- IndexTopK --------------------------------------------------------------

namespace {

// Evaluates the node's absorbed projection over the candidate `rows`.
// Every expression here is row-local (the rewrite rejects UDF-bearing
// projections), so evaluating over a candidate subset yields the same
// bytes as evaluating over the full relation and then selecting — the
// property the exactness guarantee rests on.
StatusOr<Chunk> ProjectIndexTopK(const plan::IndexTopKNode& node,
                                 const Chunk& rows, const ExecContext& ctx) {
  Chunk out;
  for (size_t i = 0; i < node.exprs.size(); ++i) {
    TDP_ASSIGN_OR_RETURN(
        Column c,
        EvaluateExprToColumn(*node.exprs[i], rows, EvalOpts(ctx)));
    out.names.push_back(node.schema[i].name);
    out.columns.push_back(std::move(c));
  }
  return out;
}

// The first `node.k` rows of `projected` ranked by the node's sort keys —
// the similarity DESC first, then the absorbed `extra_keys` tie-breaks —
// through `SortRows`, the comparator ExecuteSort uses, so ranking a
// candidate subset reproduces the exact plan's order (ties included) bit
// for bit.
StatusOr<std::vector<int64_t>> TopKRows(const plan::IndexTopKNode& node,
                                        const Chunk& projected) {
  std::vector<std::pair<int64_t, bool>> items;  // (ordinal, descending)
  items.emplace_back(node.sim_ordinal, true);
  for (const auto& extra : node.extra_keys) {
    items.emplace_back(extra.ordinal, extra.descending);
  }
  SortKeys keys;
  for (const auto& [ordinal, descending] : items) {
    TDP_ASSIGN_OR_RETURN(
        SortKey key,
        MakeSortKey(projected.columns[static_cast<size_t>(ordinal)],
                    descending));
    keys.push_back(std::move(key));
  }
  return SortRows(keys, projected.num_rows(), node.k);
}

// The rows of `rows` that pass `predicate`, ascending.
StatusOr<std::vector<int64_t>> PassingRows(const BoundExpr& predicate,
                                           const Chunk& rows,
                                           const ExecContext& ctx) {
  TDP_ASSIGN_OR_RETURN(Tensor mask,
                       EvaluatePredicate(predicate, rows, EvalOpts(ctx)));
  if (mask.numel() != rows.num_rows()) {
    return Status::ExecutionError("predicate mask length mismatch");
  }
  return NonZero(mask).ToVector<int64_t>();
}

}  // namespace

StatusOr<Chunk> ExecuteIndexTopK(const plan::IndexTopKNode& node,
                                 const Chunk& input, const ExecContext& ctx) {
  // Re-resolve the index from THIS run's catalog snapshot: plans are
  // immutable and shared, so index validity — like table resolution — is
  // per-run state. The index covers the table's PHYSICAL rows (deleted
  // rows included); it serves this run when (a) FindVectorIndex finds an
  // entry tagged with the registration this snapshot serves, and (b) the
  // entry holds one id per physical row of that table, whose live view is
  // `input` (row i of `input` is live position i). Without such an index
  // (the table was re-registered after compilation) the run ranks every
  // surviving row, which is the exact Sort+Limit result; the next compile
  // drops the IndexTopK node entirely (the catalog version moved).
  const std::shared_ptr<const VectorIndexEntry> entry =
      ctx.catalog->FindVectorIndex(node.table_name, node.column_name);
  const bool index_valid =
      entry != nullptr &&
      entry->index->num_rows() == entry->table->num_physical_rows() &&
      entry->table->num_rows() == input.num_rows();

  // The index may narrow the candidates only at a partial probe budget
  // and only when there is a row to keep. Negative budgets were rejected
  // at run entry (ValidateRunOptions); 0 means "probe every cell". Cosine
  // ranking only trusts the dot-ordered cell probe on unit-norm rows (see
  // IvfIndex::rows_unit_norm); otherwise every cell counts as probed, so
  // partial-probe recall can never silently collapse — results stay
  // exact, only the scan saving is lost.
  const auto& sim = static_cast<const exec::BoundVectorSim&>(
      *node.exprs[static_cast<size_t>(node.sim_ordinal)]);
  const int64_t num_lists = index_valid ? entry->index->num_lists() : 0;
  const bool trust_partial_probe =
      sim.sim_kind == exec::BoundVectorSim::SimKind::kDot ||
      (index_valid && entry->index->rows_unit_norm());
  const int64_t probes = std::min(ctx.vector_search.num_probes, num_lists);
  const bool narrow = index_valid && node.k > 0 && trust_partial_probe &&
                      probes > 0 && probes < num_lists;

  // One probe at `budget` cells over the rows `selection` marks (null:
  // every physical row), as ascending LIVE row ids. Probed ids are
  // physical; the deleted ones are dropped and the rest mapped to live
  // positions (MapPhysicalToLive preserves ascending order).
  const auto probe = [&](int64_t budget, const std::vector<uint8_t>* selection)
      -> StatusOr<std::vector<int64_t>> {
    TDP_ASSIGN_OR_RETURN(EvalResult query,
                         EvaluateExpr(*sim.query, input, EvalOpts(ctx)));
    if (!query.is_scalar || !query.scalar.is_tensor()) {
      return Status::TypeError(
          "IndexTopK query must be a constant tensor (bind the vector with "
          "ScalarValue::FromTensor)");
    }
    TDP_ASSIGN_OR_RETURN(
        std::vector<int64_t> physical,
        entry->index->ProbeCandidates(query.scalar.tensor_value(), budget,
                                      /*min_candidates=*/node.k, selection));
    return entry->table->MapPhysicalToLive(physical);
  };

  // Candidates: LIVE row ids in ascending order, each passing the
  // predicate; `all_rows` means every row of `input` is one, unlisted.
  std::vector<int64_t> candidates;
  bool all_rows = false;
  if (narrow && node.predicate != nullptr && node.post_filter) {
    // Post-filter: probe first, apply the predicate to the probed rows,
    // and double the budget until k of them pass or every cell was
    // probed — so the result never holds fewer than min(k, survivors)
    // rows however the survivors cluster.
    for (int64_t budget = probes;; budget = std::min(budget * 2, num_lists)) {
      TDP_ASSIGN_OR_RETURN(std::vector<int64_t> live, probe(budget, nullptr));
      const Chunk probed =
          input.Select(Tensor::FromVector(live, {}, ctx.device));
      TDP_ASSIGN_OR_RETURN(std::vector<int64_t> passing,
                           PassingRows(*node.predicate, probed, ctx));
      for (int64_t& row : passing) row = live[static_cast<size_t>(row)];
      if (static_cast<int64_t>(passing.size()) >= node.k ||
          budget >= num_lists) {
        candidates = std::move(passing);
        break;
      }
    }
  } else {
    // Survivors: the live rows that pass the predicate (every live row
    // when there is none). When more than k survive, one probe narrows
    // them, taking the survivors as its selection: pruned rows are never
    // collected, cells without a survivor cost no budget, and the probe's
    // k-row floor counts survivors — so the floor holds in live rows,
    // deletes included. With k or fewer survivors a probe would return
    // them all, so none is made.
    all_rows = node.predicate == nullptr;
    if (!all_rows) {
      TDP_ASSIGN_OR_RETURN(candidates,
                           PassingRows(*node.predicate, input, ctx));
      all_rows = static_cast<int64_t>(candidates.size()) == input.num_rows();
    }
    const int64_t survivors =
        all_rows ? input.num_rows() : static_cast<int64_t>(candidates.size());
    if (narrow && survivors > node.k) {
      const Table& table = *entry->table;
      std::vector<uint8_t> selection;
      if (!all_rows || table.has_deletes()) {
        selection.assign(static_cast<size_t>(table.num_physical_rows()), 0);
        if (all_rows) {
          for (int64_t p = 0; p < table.num_physical_rows(); ++p) {
            selection[static_cast<size_t>(p)] = !table.IsDeleted(p);
          }
        } else {
          for (int64_t p : table.MapLiveToPhysical(candidates)) {
            selection[static_cast<size_t>(p)] = 1;
          }
        }
      }
      TDP_ASSIGN_OR_RETURN(
          candidates, probe(probes, selection.empty() ? nullptr : &selection));
      all_rows = false;
    }
  }

  // Projecting the ascending candidates and ranking the projection by the
  // plan's own sort keys (sim DESC, then tie-breaks, then row order)
  // reproduces the exact plan's ranking over the candidate subset — with
  // full probes the subset IS the surviving relation, making the result
  // bit-identical to the exact plan, tie-breaks included. When every row
  // is a candidate the gather is skipped (`input` IS the candidate chunk):
  // the expressions are row-local, so skipping the identity gather cannot
  // change a byte.
  const Chunk cand_rows =
      all_rows ? input
               : input.Select(Tensor::FromVector(candidates, {}, ctx.device));
  TDP_ASSIGN_OR_RETURN(Chunk projected,
                       ProjectIndexTopK(node, cand_rows, ctx));
  TDP_ASSIGN_OR_RETURN(std::vector<int64_t> top, TopKRows(node, projected));
  return projected.Select(Tensor::FromVector(top, {}, ctx.device));
}

// ---- DDL / DML kernels ------------------------------------------------------

namespace {

Chunk RowsAffectedChunk(int64_t n) {
  Chunk out;
  out.names.push_back("rows_affected");
  out.columns.push_back(
      Column::Plain(Tensor::FromVector(std::vector<int64_t>{n}, {})));
  return out;
}

Status RequireWriter(const ExecContext& ctx, const char* what) {
  if (ctx.writer == nullptr) {
    return Status::InvalidArgument(
        std::string(what) +
        " needs a writable session; this execution context is read-only");
  }
  return Status::OK();
}

// Builds the append/assign batch for one target column from evaluated
// VALUES scalars, matching `tmpl` (the table's tail column — the
// encoding/dtype/row-shape contract WithAppended enforces).
StatusOr<Column> ColumnFromScalars(const Column& tmpl,
                                   const std::string& col_name,
                                   const std::vector<ScalarValue>& values) {
  const int64_t n = static_cast<int64_t>(values.size());
  for (const ScalarValue& v : values) {
    if (v.is_null()) {
      return Status::InvalidArgument("column " + col_name +
                                     ": NULL values are not supported");
    }
  }
  switch (tmpl.encoding()) {
    case Encoding::kDictionary: {
      std::vector<std::string> strs;
      strs.reserve(values.size());
      for (const ScalarValue& v : values) {
        if (!v.is_string()) {
          return Status::TypeError("column " + col_name +
                                   " takes string values");
        }
        strs.push_back(v.string_value());
      }
      return Column::FromStrings(strs, tmpl.data().device());
    }
    case Encoding::kProbability:
      return Status::InvalidArgument(
          "column " + col_name +
          ": INSERT into probability-encoded columns is not supported");
    case Encoding::kPlain:
      break;
  }
  const DType dtype = tmpl.data().dtype();
  const Device device = tmpl.data().device();
  if (tmpl.data().dim() >= 2) {
    // Tensor column: each value is a whole row tensor (bound through a
    // `?` parameter with ScalarValue::FromTensor).
    std::vector<int64_t> row_shape = tmpl.data().shape();
    row_shape[0] = 1;
    int64_t row_numel = 1;
    for (size_t d = 1; d < row_shape.size(); ++d) row_numel *= row_shape[d];
    std::vector<Tensor> rows;
    rows.reserve(values.size());
    for (const ScalarValue& v : values) {
      if (!v.is_tensor() || v.tensor_value().numel() != row_numel) {
        return Status::TypeError(
            "column " + col_name + " takes " + std::to_string(row_numel) +
            "-element tensor rows (bind with ScalarValue::FromTensor)");
      }
      rows.push_back(Reshape(
          v.tensor_value().Detach().To(dtype).To(device), row_shape));
    }
    return Column::Plain(Cat(rows, 0));
  }
  Tensor data;
  switch (dtype) {
    case DType::kInt64: {
      std::vector<int64_t> out;
      out.reserve(values.size());
      for (const ScalarValue& v : values) {
        if (!v.is_int()) {
          return Status::TypeError("column " + col_name +
                                   " takes integer values");
        }
        out.push_back(v.int_value());
      }
      data = Tensor::FromVector(out, {}, device);
      break;
    }
    case DType::kBool: {
      data = Tensor::Empty({n}, DType::kBool, device);
      bool* p = data.data<bool>();
      for (int64_t i = 0; i < n; ++i) {
        if (!values[static_cast<size_t>(i)].is_bool()) {
          return Status::TypeError("column " + col_name +
                                   " takes boolean values");
        }
        p[i] = values[static_cast<size_t>(i)].bool_value();
      }
      break;
    }
    case DType::kFloat32:
    case DType::kFloat64: {
      std::vector<double> out;
      out.reserve(values.size());
      for (const ScalarValue& v : values) {
        if (!v.is_numeric()) {
          return Status::TypeError("column " + col_name +
                                   " takes numeric values");
        }
        out.push_back(v.AsDouble());
      }
      data = Tensor::FromVector(out, {}, device).To(dtype);
      break;
    }
    default:
      return Status::TypeError("column " + col_name +
                               ": unsupported column dtype for INSERT");
  }
  return Column::Plain(std::move(data));
}

// Coerces an evaluated column (INSERT ... SELECT source / UPDATE
// assignment result) to `tmpl`'s encoding, dtype, and device. Numeric
// widening (int column into a float column) is the only conversion; a
// genuine encoding mismatch fails with the column named.
StatusOr<Column> CoerceToColumn(const Column& tmpl,
                                const std::string& col_name,
                                const Column& incoming) {
  if (incoming.encoding() != tmpl.encoding()) {
    return Status::TypeError(
        "column " + col_name + " is " +
        std::string(EncodingName(tmpl.encoding())) + "-encoded; got " +
        std::string(EncodingName(incoming.encoding())) + " values");
  }
  if (tmpl.encoding() != Encoding::kPlain) return incoming;
  const DType dtype = tmpl.data().dtype();
  const Device device = tmpl.data().device();
  if (incoming.data().dim() != tmpl.data().dim()) {
    return Status::TypeError("column " + col_name + " rank mismatch");
  }
  if (incoming.data().dtype() == dtype &&
      incoming.data().device() == device) {
    return incoming;
  }
  const bool numeric_ok =
      IsFloatingPoint(dtype) || incoming.data().dtype() == dtype;
  if (!numeric_ok) {
    return Status::TypeError("column " + col_name + " type mismatch");
  }
  return Column::Plain(incoming.data().Detach().To(dtype).To(device));
}

/// Re-tags `entry` onto `table` (sharing the index storage).
std::shared_ptr<const VectorIndexEntry> RetagIndexEntry(
    const VectorIndexEntry& entry, std::shared_ptr<const Table> table) {
  return std::shared_ptr<const VectorIndexEntry>(new VectorIndexEntry{
      entry.table_name, entry.column_name, entry.index, std::move(table)});
}

/// The matching live positions (and selected rows) of a DML WHERE clause
/// over the full-table scan `input`; null predicate selects every row.
struct DmlSelection {
  std::vector<int64_t> positions;
  Chunk rows;
};

StatusOr<DmlSelection> SelectDmlRows(const exec::BoundExpr* predicate,
                                     const Chunk& input,
                                     const ExecContext& ctx) {
  DmlSelection sel;
  if (predicate == nullptr) {
    sel.positions.resize(static_cast<size_t>(input.num_rows()));
    for (int64_t i = 0; i < input.num_rows(); ++i) {
      sel.positions[static_cast<size_t>(i)] = i;
    }
    sel.rows = input;
    return sel;
  }
  TDP_ASSIGN_OR_RETURN(
      Tensor mask, EvaluatePredicate(*predicate, input, EvalOpts(ctx)));
  if (mask.numel() != input.num_rows()) {
    return Status::ExecutionError("predicate mask length mismatch");
  }
  const Tensor selected = NonZero(mask);
  sel.positions = selected.ToVector<int64_t>();
  sel.rows = input.Select(selected);
  return sel;
}

}  // namespace

StatusOr<Chunk> ExecuteCreateTable(const plan::CreateTableNode& node,
                                   const ExecContext& ctx) {
  TDP_RETURN_NOT_OK(RequireWriter(ctx, "CREATE TABLE"));
  std::vector<std::string> names;
  std::vector<Column> columns;
  names.reserve(node.table_schema.size());
  columns.reserve(node.table_schema.size());
  for (size_t i = 0; i < node.table_schema.size(); ++i) {
    const plan::ColumnMeta& meta = node.table_schema[i];
    names.push_back(meta.name);
    const int64_t width = node.tensor_widths[i];
    if (width > 0) {
      columns.push_back(
          Column::Plain(Tensor::Empty({0, width}, DType::kFloat32)));
    } else if (meta.encoding == Encoding::kDictionary) {
      columns.push_back(Column::FromStrings({}));
    } else {
      columns.push_back(Column::Plain(Tensor::Empty({0}, meta.dtype)));
    }
  }
  TDP_ASSIGN_OR_RETURN(
      std::shared_ptr<Table> table,
      Table::Create(node.table_name, std::move(names), std::move(columns)));
  // replace=false: CREATE TABLE of an existing name is an error, atomically
  // decided under the catalog mutex (two racing CREATEs cannot both win).
  TDP_RETURN_NOT_OK(ctx.writer->RegisterTable(node.table_name,
                                              std::move(table),
                                              /*replace=*/false));
  return RowsAffectedChunk(0);
}

StatusOr<Chunk> ExecuteInsert(const plan::InsertNode& node,
                              const Chunk& source, const ExecContext& ctx) {
  TDP_RETURN_NOT_OK(RequireWriter(ctx, "INSERT"));
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> target,
                       ctx.catalog->GetTable(node.table_name));
  const size_t num_cols = static_cast<size_t>(target->num_columns());
  if (node.column_map.size() != num_cols) {
    return Status::ExecutionError(
        "table " + node.table_name +
        " changed shape since compilation; re-compile the statement");
  }

  // Build the append batch in TABLE column order (column_map[i] is the
  // target column of value position i; the binder guarantees the map is a
  // permutation).
  std::vector<Column> batch(num_cols);
  int64_t added = 0;
  if (node.children.empty()) {
    added = static_cast<int64_t>(node.rows.size());
    // VALUES rows: evaluate every expression to a constant (no input
    // relation exists), then build one column per value position.
    const Chunk no_input;
    std::vector<std::vector<ScalarValue>> by_position(num_cols);
    for (const auto& row : node.rows) {
      if (row.size() != num_cols) {
        return Status::Internal("INSERT row arity mismatch");
      }
      for (size_t i = 0; i < row.size(); ++i) {
        TDP_ASSIGN_OR_RETURN(
            EvalResult v,
            EvaluateExpr(*row[i], no_input, EvalOpts(ctx)));
        if (!v.is_scalar) {
          return Status::TypeError(
              "INSERT VALUES entries must be constant expressions");
        }
        by_position[i].push_back(std::move(v.scalar));
      }
    }
    for (size_t i = 0; i < num_cols; ++i) {
      const int64_t t = node.column_map[i];
      TDP_ASSIGN_OR_RETURN(
          batch[static_cast<size_t>(t)],
          ColumnFromScalars(target->TailColumn(t),
                            target->column_names()[static_cast<size_t>(t)],
                            by_position[i]));
    }
  } else {
    // INSERT ... SELECT: the evaluated child's columns are the value
    // positions.
    if (source.columns.size() != num_cols) {
      return Status::Internal("INSERT SELECT arity mismatch");
    }
    added = source.num_rows();
    if (added == 0) return RowsAffectedChunk(0);
    for (size_t i = 0; i < num_cols; ++i) {
      const int64_t t = node.column_map[i];
      TDP_ASSIGN_OR_RETURN(
          batch[static_cast<size_t>(t)],
          CoerceToColumn(target->TailColumn(t),
                         target->column_names()[static_cast<size_t>(t)],
                         source.columns[i]));
    }
  }

  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> written,
                       target->WithAppended(batch));

  // Vector indexes extend incrementally: the new physical rows are
  // assigned to their nearest existing centroids — no rebuild, recall
  // degrades gracefully until the next explicit CREATE VECTOR INDEX. An
  // entry that cannot extend (unexpected shape/dtype) is dropped; the
  // exact fallback keeps queries correct.
  std::vector<std::shared_ptr<const VectorIndexEntry>> entries;
  for (const auto& entry :
       ctx.catalog->TableVectorIndexes(node.table_name)) {
    if (entry->index->num_rows() != target->num_physical_rows()) continue;
    const auto col = target->ColumnIndex(entry->column_name);
    if (!col.ok()) continue;
    auto extended = entry->index->WithAppended(
        batch[static_cast<size_t>(col.value())].data());
    if (!extended.ok()) continue;
    entries.push_back(std::shared_ptr<const VectorIndexEntry>(
        new VectorIndexEntry{entry->table_name, entry->column_name,
                             std::make_shared<const index::IvfIndex>(
                                 std::move(extended).value()),
                             written}));
  }

  TDP_RETURN_NOT_OK(ctx.writer->ApplyDmlWrite(
      node.table_name, target, std::move(written), std::move(entries)));
  return RowsAffectedChunk(added);
}

StatusOr<Chunk> ExecuteUpdate(const plan::UpdateNode& node,
                              const Chunk& input, const ExecContext& ctx) {
  TDP_RETURN_NOT_OK(RequireWriter(ctx, "UPDATE"));
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> target,
                       ctx.catalog->GetTable(node.table_name));
  if (input.num_rows() != target->num_rows()) {
    return Status::ExecutionError(
        "table " + node.table_name +
        " changed while the UPDATE was running; retry the statement");
  }
  TDP_ASSIGN_OR_RETURN(DmlSelection sel,
                       SelectDmlRows(node.predicate.get(), input, ctx));
  if (sel.positions.empty()) return RowsAffectedChunk(0);

  // Assignment expressions are evaluated over the OLD matching rows
  // (standard SQL: `SET a = b, b = a` swaps). Every expression here is
  // row-local, so evaluating over the selected subset equals evaluating
  // over the relation and gathering.
  std::vector<std::pair<int64_t, Column>> updates;
  updates.reserve(node.assignments.size());
  for (const auto& [col, expr] : node.assignments) {
    TDP_ASSIGN_OR_RETURN(
        Column values,
        EvaluateExprToColumn(*expr, sel.rows, EvalOpts(ctx)));
    TDP_ASSIGN_OR_RETURN(
        values,
        CoerceToColumn(target->TailColumn(col),
                       target->column_names()[static_cast<size_t>(col)],
                       values));
    updates.emplace_back(col, std::move(values));
  }
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> written,
                       target->WithUpdated(sel.positions, updates));

  // WithUpdated compacts to a single physical==live segment: a live row's
  // physical id becomes its live position and deleted ids vanish. An
  // index entry follows that renumbering (its storage is shared when the
  // base had no deletes, so nothing moved); an entry whose column was
  // assigned is dropped, and queries take the exact fallback until the
  // index is rebuilt.
  std::vector<int64_t> new_ids;  // physical id -> live position, or -1
  if (target->has_deletes()) {
    new_ids.reserve(static_cast<size_t>(target->num_physical_rows()));
    int64_t live = 0;
    for (int64_t p = 0; p < target->num_physical_rows(); ++p) {
      new_ids.push_back(target->IsDeleted(p) ? -1 : live++);
    }
  }
  std::vector<std::shared_ptr<const VectorIndexEntry>> entries;
  for (const auto& entry :
       ctx.catalog->TableVectorIndexes(node.table_name)) {
    if (entry->index->num_rows() != target->num_physical_rows()) continue;
    const auto col = target->ColumnIndex(entry->column_name);
    if (!col.ok()) continue;
    const bool assigned =
        std::any_of(node.assignments.begin(), node.assignments.end(),
                    [&col](const auto& a) { return a.first == col.value(); });
    if (assigned) continue;
    std::shared_ptr<const index::IvfIndex> renumbered = entry->index;
    if (!new_ids.empty()) {
      renumbered = std::make_shared<const index::IvfIndex>(
          entry->index->WithRenumbered(new_ids));
    }
    entries.push_back(std::shared_ptr<const VectorIndexEntry>(
        new VectorIndexEntry{entry->table_name, entry->column_name,
                             std::move(renumbered), written}));
  }

  TDP_RETURN_NOT_OK(ctx.writer->ApplyDmlWrite(
      node.table_name, target, std::move(written), std::move(entries)));
  return RowsAffectedChunk(static_cast<int64_t>(sel.positions.size()));
}

StatusOr<Chunk> ExecuteDelete(const plan::DeleteNode& node,
                              const Chunk& input, const ExecContext& ctx) {
  TDP_RETURN_NOT_OK(RequireWriter(ctx, "DELETE"));
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> target,
                       ctx.catalog->GetTable(node.table_name));
  if (input.num_rows() != target->num_rows()) {
    return Status::ExecutionError(
        "table " + node.table_name +
        " changed while the DELETE was running; retry the statement");
  }
  TDP_ASSIGN_OR_RETURN(DmlSelection sel,
                       SelectDmlRows(node.predicate.get(), input, ctx));
  // A no-match DELETE is a pure no-op: skip the install entirely, so it
  // bumps neither the catalog version nor any reader's snapshot.
  if (sel.positions.empty()) return RowsAffectedChunk(0);

  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> written,
                       target->WithDeleted(sel.positions));

  // DELETE never moves a physical row — every index entry survives with
  // its storage shared; probing filters the newly-deleted ids.
  std::vector<std::shared_ptr<const VectorIndexEntry>> entries;
  for (const auto& entry :
       ctx.catalog->TableVectorIndexes(node.table_name)) {
    if (entry->index->num_rows() != target->num_physical_rows()) continue;
    entries.push_back(RetagIndexEntry(*entry, written));
  }

  TDP_RETURN_NOT_OK(ctx.writer->ApplyDmlWrite(
      node.table_name, target, std::move(written), std::move(entries)));
  return RowsAffectedChunk(static_cast<int64_t>(sel.positions.size()));
}

int64_t DefaultMorselRows() {
  static const int64_t cached = [] {
    constexpr int64_t kDefault = 64 * 1024;
    const char* env = std::getenv("TDP_MORSEL_ROWS");
    if (env == nullptr || *env == '\0') return kDefault;
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0' || v < 1 || v > (int64_t{1} << 40)) {
      TDP_LOG(Warning) << "ignoring invalid TDP_MORSEL_ROWS='" << env << "'";
      return kDefault;
    }
    return static_cast<int64_t>(v);
  }();
  return cached;
}

}  // namespace exec
}  // namespace tdp
