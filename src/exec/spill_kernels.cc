#include "src/exec/spill_kernels.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "src/common/logging.h"
#include "src/exec/bound_expr.h"
#include "src/exec/memory_budget.h"
#include "src/exec/spill.h"
#include "src/tensor/dtype.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace exec {
namespace {

using plan::AggDef;
using plan::AggKind;
using plan::AggregateNode;
using plan::JoinNode;
using plan::SortNode;

// Grace partition of row `row`'s join key. Uses the key table hash's high
// bits: the partition's own table indexes slots by the low bits, which
// would otherwise be constant within a partition.
size_t JoinPartition(const KeyColumns& cols, int64_t row, int64_t parts) {
  return static_cast<size_t>((KeyTable::Hash(cols, row) >> 32) %
                             static_cast<uint64_t>(parts));
}

// Rows-per-run / partition-count sizing against the budget. The spill
// paths must work at ANY positive budget (the differential suite runs
// pathological 1-byte budgets), so sizes are floored rather than failed.
int64_t ClampRows(int64_t v, int64_t lo, int64_t hi) {
  return std::max(lo, std::min(v, hi));
}

// Copies row `i` of contiguous `src` into row `pos[i]` of contiguous
// `dst` for every row of `src`; `pos` entries of -1 are skipped (rows
// beyond a fused limit). Exact byte copies — no value re-encoding.
void ScatterRows(Tensor& dst, const Tensor& src,
                 const std::vector<int64_t>& pos) {
  const int64_t src_rows = src.size(0);
  if (src_rows == 0) return;
  const int64_t row_elems = src.numel() / src_rows;
  const int64_t row_bytes = row_elems * DTypeSize(src.dtype());
  const uint8_t* sp = TensorRawBytes(src);
  uint8_t* dp = TensorRawBytesMutable(dst);
  for (int64_t i = 0; i < src_rows; ++i) {
    const int64_t p = pos[static_cast<size_t>(i)];
    if (p < 0) continue;
    std::memcpy(dp + p * row_bytes, sp + i * row_bytes,
                static_cast<size_t>(row_bytes));
  }
}

// Allocates the assembly target for `prototype`'s payload with `rows`
// rows (same dtype, same per-row shape, same device).
Tensor AllocLike(const Tensor& prototype, int64_t rows) {
  std::vector<int64_t> shape = prototype.shape();
  TDP_CHECK(!shape.empty());
  shape[0] = rows;
  return Tensor::Empty(shape, prototype.dtype(), prototype.device());
}

// Wraps an assembled payload tensor in `prototype`'s encoding (dictionary
// strings / PE domain copied from the prototype — same contents, so codes
// stay meaningful and decoded values are bit-identical).
Column WrapLike(const Column& prototype, Tensor payload) {
  switch (prototype.encoding()) {
    case Encoding::kPlain:
      return Column::Plain(std::move(payload));
    case Encoding::kDictionary:
      return Column::Dictionary(std::move(payload), prototype.dictionary());
    case Encoding::kProbability:
      return Column::Probability(std::move(payload), prototype.domain());
  }
  return Column::Plain(std::move(payload));
}

}  // namespace

// ---- External merge sort ----------------------------------------------------

StatusOr<Chunk> ExternalSortChunk(const SortNode& node, const SortKeys& keys,
                                  const Chunk& input, const ExecContext& ctx) {
  QueryMemory* mem = ctx.memory;
  TDP_CHECK(mem != nullptr);
  const int64_t rows = input.num_rows();
  const size_t num_keys = keys.size();
  TDP_CHECK(rows > 0 && num_keys > 0);

  // The key codes and the runs' row orders stay resident — 8 bytes/row/key
  // plus 8 bytes/row, against the payload+permutation+copy footprint the
  // in-memory sort holds; the payload is what spills.
  const ScopedReservation order_reservation(
      mem, static_cast<int64_t>(num_keys + 1) * rows * 8);

  const int64_t row_bytes =
      ChunkFootprintBytes(input) / std::max<int64_t>(rows, 1) +
      static_cast<int64_t>(num_keys) * 8 + 16;
  const int64_t run_rows = ClampRows(
      mem->budget_bytes() / 3 / std::max<int64_t>(row_bytes, 1), 1024, rows);
  const int64_t num_runs = (rows + run_rows - 1) / run_rows;
  const int64_t page_rows = std::min<int64_t>(run_rows, 4096);

  // Phase 1: order each row-order run and spill its payload. A run keeps
  // at most the fused limit's rows: no later row of it can reach the
  // output. Run file layout:
  //   [num_pages] then per page: [page_rows][num_cols][column][column]...
  std::vector<std::vector<int64_t>> run_order(static_cast<size_t>(num_runs));
  std::vector<std::string> run_files(static_cast<size_t>(num_runs));
  for (int64_t r = 0; r < num_runs; ++r) {
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    const int64_t lo = r * run_rows;
    std::vector<int64_t>& order = run_order[static_cast<size_t>(r)];
    order = SortRows(keys, lo, std::min(run_rows, rows - lo), node.fused_limit);
    const int64_t n = static_cast<int64_t>(order.size());
    const Chunk run_chunk =
        input.Select(Tensor::FromVector(order, {}, ctx.device));
    const ScopedReservation run_reservation(mem,
                                            ChunkFootprintBytes(run_chunk));

    TDP_ASSIGN_OR_RETURN(std::string path, mem->NewSpillFile("sortrun"));
    run_files[static_cast<size_t>(r)] = path;
    SpillWriter w(path);
    const int64_t pages = (n + page_rows - 1) / page_rows;
    TDP_RETURN_NOT_OK(w.WriteInt64(pages));
    for (int64_t p = 0; p < pages; ++p) {
      const int64_t plo = p * page_rows;
      const int64_t pn = std::min(page_rows, n - plo);
      TDP_RETURN_NOT_OK(w.WriteInt64(pn));
      const Chunk page = run_chunk.SliceRows(plo, pn);
      TDP_RETURN_NOT_OK(
          w.WriteInt64(static_cast<int64_t>(page.columns.size())));
      for (const Column& c : page.columns) {
        TDP_RETURN_NOT_OK(w.WriteColumn(c));
      }
    }
    TDP_RETURN_NOT_OK(w.Close());
    mem->AddSpilledBytes(w.bytes_written());
  }

  // Phase 2: k-way merge of the runs' heads by the same order. Each pop
  // records the output position of its run's next row; the per-run
  // position lists are the only other whole-relation state this phase
  // keeps (~8 bytes/row, small next to the materialized output the kernel
  // must return regardless).
  std::vector<size_t> head(static_cast<size_t>(num_runs), 0);
  const auto head_row = [&](int64_t r) {
    const size_t ur = static_cast<size_t>(r);
    return run_order[ur][head[ur]];
  };
  // priority_queue comparator: true when `a`'s head merges AFTER `b`'s.
  const auto merge_after = [&](int64_t a, int64_t b) {
    return SortsBefore(keys, head_row(b), head_row(a));
  };
  std::priority_queue<int64_t, std::vector<int64_t>, decltype(merge_after)>
      heap(merge_after);
  for (int64_t r = 0; r < num_runs; ++r) {
    if (!run_order[static_cast<size_t>(r)].empty()) heap.push(r);
  }
  const int64_t out_rows =
      node.fused_limit >= 0 ? std::min(node.fused_limit, rows) : rows;
  std::vector<std::vector<int64_t>> out_pos(static_cast<size_t>(num_runs));
  for (int64_t emitted = 0; emitted < out_rows; ++emitted) {
    TDP_CHECK(!heap.empty());
    const int64_t r = heap.top();
    heap.pop();
    const size_t ur = static_cast<size_t>(r);
    out_pos[ur].push_back(emitted);
    if (++head[ur] < run_order[ur].size()) heap.push(r);
  }

  // Phase 3: per-column assembly — one pass over each run's pages per
  // column, scattering rows into their merge positions. Peak scratch: one
  // output column + one page.
  Chunk out;
  out.names = input.names;
  std::vector<int64_t> scatter_pos;
  for (size_t j = 0; j < input.columns.size(); ++j) {
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    const Column& prototype = input.columns[j];
    Tensor payload = AllocLike(prototype.data(), out_rows);
    for (int64_t r = 0; r < num_runs; ++r) {
      const std::vector<int64_t>& positions = out_pos[static_cast<size_t>(r)];
      SpillReader reader(run_files[static_cast<size_t>(r)]);
      TDP_ASSIGN_OR_RETURN(int64_t pages, reader.ReadInt64());
      int64_t consumed = 0;
      for (int64_t p = 0; p < pages; ++p) {
        if (consumed >= static_cast<int64_t>(positions.size())) break;
        TDP_ASSIGN_OR_RETURN(int64_t pn, reader.ReadInt64());
        TDP_ASSIGN_OR_RETURN(int64_t cols, reader.ReadInt64());
        TDP_CHECK(static_cast<int64_t>(j) < cols);
        for (size_t c = 0; c < j; ++c) {
          TDP_RETURN_NOT_OK(reader.SkipColumn());
        }
        TDP_ASSIGN_OR_RETURN(Column page_col, reader.ReadColumn());
        for (int64_t c = static_cast<int64_t>(j) + 1; c < cols; ++c) {
          TDP_RETURN_NOT_OK(reader.SkipColumn());
        }
        scatter_pos.assign(static_cast<size_t>(pn), -1);
        for (int64_t i = 0; i < pn; ++i) {
          if (consumed + i < static_cast<int64_t>(positions.size())) {
            scatter_pos[static_cast<size_t>(i)] =
                positions[static_cast<size_t>(consumed + i)];
          }
        }
        ScatterRows(payload, page_col.data().Contiguous(), scatter_pos);
        consumed += pn;
      }
    }
    out.columns.push_back(WrapLike(prototype, std::move(payload)));
  }
  return out;
}

// ---- Grace hash join --------------------------------------------------------

StatusOr<std::shared_ptr<SpilledJoinBuild>> BuildSpilledJoin(
    const JoinNode& node, const Chunk& build_input, const ExecContext& ctx) {
  QueryMemory* mem = ctx.memory;
  TDP_CHECK(mem != nullptr);
  const auto& build_key_cols =
      node.build_left ? node.left_keys : node.right_keys;
  TDP_CHECK(!build_key_cols.empty());
  const int64_t rows = build_input.num_rows();

  TDP_ASSIGN_OR_RETURN(JoinKeyCodes codes,
                       ComputeJoinKeyCodes(build_input, build_key_cols));
  const KeyColumns cols = ColumnsOf(codes.columns);

  const int64_t footprint = ChunkFootprintBytes(build_input) + rows * 48;
  const int64_t part_budget = std::max<int64_t>(mem->budget_bytes() / 4, 1);
  const int64_t parts = ClampRows(
      (footprint + part_budget - 1) / part_budget, 2, 64);

  auto build = std::make_shared<SpilledJoinBuild>();
  build->num_partitions = parts;
  build->build_rows = rows;
  build->prototype = build_input.SliceRows(0, 0);
  build->files.resize(static_cast<size_t>(parts));
  build->partition_rows.assign(static_cast<size_t>(parts), 0);
  build->index.assign(static_cast<size_t>(parts),
                      JoinIndex(static_cast<int64_t>(cols.size())));

  // Assign rows to partitions in build-row order: partition-local index
  // order == global build-row order, the property probe emission relies
  // on. A key hashes to exactly one partition; NaN-keyed rows go nowhere.
  std::vector<std::vector<int64_t>> partition_sel(
      static_cast<size_t>(parts));
  for (int64_t r = 0; r < rows; ++r) {
    if (codes.never_match[static_cast<size_t>(r)]) continue;
    const size_t p = JoinPartition(cols, r, parts);
    build->index[p].Add(cols, r, build->partition_rows[p]++);
    partition_sel[p].push_back(r);
  }
  for (JoinIndex& index : build->index) index.Finish();

  // Spill each partition's payload. Partition file layout:
  //   [rows][num_pages] then per page: [page_rows][num_cols][column]...
  constexpr int64_t kJoinPageRows = 4096;
  for (int64_t p = 0; p < parts; ++p) {
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    const std::vector<int64_t>& sel = partition_sel[static_cast<size_t>(p)];
    const int64_t n = static_cast<int64_t>(sel.size());
    Tensor sel_t = Tensor::FromVector(sel, {}, ctx.device);
    const Chunk part = build_input.Select(sel_t);
    const ScopedReservation part_reservation(mem, ChunkFootprintBytes(part));
    TDP_ASSIGN_OR_RETURN(std::string path, mem->NewSpillFile("joinpart"));
    build->files[static_cast<size_t>(p)] = path;
    SpillWriter w(path);
    const int64_t pages = n == 0 ? 0 : (n + kJoinPageRows - 1) / kJoinPageRows;
    TDP_RETURN_NOT_OK(w.WriteInt64(n));
    TDP_RETURN_NOT_OK(w.WriteInt64(pages));
    for (int64_t pg = 0; pg < pages; ++pg) {
      const int64_t plo = pg * kJoinPageRows;
      const int64_t pn = std::min(kJoinPageRows, n - plo);
      TDP_RETURN_NOT_OK(w.WriteInt64(pn));
      const Chunk page = part.SliceRows(plo, pn);
      TDP_RETURN_NOT_OK(
          w.WriteInt64(static_cast<int64_t>(page.columns.size())));
      for (const Column& c : page.columns) {
        TDP_RETURN_NOT_OK(w.WriteColumn(c));
      }
    }
    TDP_RETURN_NOT_OK(w.Close());
    mem->AddSpilledBytes(w.bytes_written());
  }
  return build;
}

StatusOr<Chunk> ProbeSpilledJoin(const JoinNode& node,
                                 const SpilledJoinBuild& build,
                                 const Chunk& probe, const ExecContext& ctx) {
  const auto& probe_key_cols =
      node.build_left ? node.right_keys : node.left_keys;
  TDP_ASSIGN_OR_RETURN(JoinKeyCodes codes,
                       ComputeJoinKeyCodes(probe, probe_key_cols));
  const KeyColumns cols = ColumnsOf(codes.columns);

  // Emission order (identical to the in-memory probe): probe-row-major,
  // matches of one probe row in ascending build-row order — which is
  // ascending partition-local order, since every match of a key lives in
  // one partition and partitions preserve build-row order.
  std::vector<int64_t> probe_idx;
  std::vector<int32_t> match_part;
  std::vector<int64_t> match_local;
  for (int64_t r = 0; r < probe.num_rows(); ++r) {
    if (codes.never_match[static_cast<size_t>(r)]) continue;
    const size_t p = JoinPartition(cols, r, build.num_partitions);
    for (int64_t local : build.index[p].Matches(cols, r)) {
      probe_idx.push_back(r);
      match_part.push_back(static_cast<int32_t>(p));
      match_local.push_back(local);
    }
  }
  const int64_t total = static_cast<int64_t>(probe_idx.size());

  // Build-side columns: load matched partitions one at a time, gather
  // their matched rows, scatter into emission positions.
  std::vector<Tensor> build_payloads;
  build_payloads.reserve(build.prototype.columns.size());
  for (const Column& c : build.prototype.columns) {
    build_payloads.push_back(AllocLike(c.data(), total));
  }
  // Per-partition match entries (emission position, local row), in
  // ascending local order so one sequential pass over the pages suffices.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> entries(
      static_cast<size_t>(build.num_partitions));
  for (int64_t s = 0; s < total; ++s) {
    entries[static_cast<size_t>(match_part[static_cast<size_t>(s)])]
        .emplace_back(match_local[static_cast<size_t>(s)], s);
  }
  std::vector<int64_t> scatter_pos;
  for (int64_t p = 0; p < build.num_partitions; ++p) {
    auto& part_entries = entries[static_cast<size_t>(p)];
    if (part_entries.empty()) continue;
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    std::sort(part_entries.begin(), part_entries.end());
    SpillReader reader(build.files[static_cast<size_t>(p)]);
    TDP_ASSIGN_OR_RETURN(int64_t part_rows, reader.ReadInt64());
    TDP_ASSIGN_OR_RETURN(int64_t pages, reader.ReadInt64());
    (void)part_rows;
    size_t cursor = 0;  // next unconsumed entry
    int64_t page_lo = 0;
    for (int64_t pg = 0; pg < pages && cursor < part_entries.size(); ++pg) {
      TDP_ASSIGN_OR_RETURN(int64_t pn, reader.ReadInt64());
      TDP_ASSIGN_OR_RETURN(int64_t cols, reader.ReadInt64());
      TDP_CHECK(cols == static_cast<int64_t>(build_payloads.size()));
      // A build row may match many probe rows: every entry of this page
      // scatters one copy. The per-column inner loop re-reads nothing —
      // columns arrive in file order.
      const size_t page_begin = cursor;
      size_t page_end = cursor;
      while (page_end < part_entries.size() &&
             part_entries[page_end].first < page_lo + pn) {
        ++page_end;
      }
      for (int64_t c = 0; c < cols; ++c) {
        TDP_ASSIGN_OR_RETURN(Column page_col, reader.ReadColumn());
        const Tensor src = page_col.data().Contiguous();
        const int64_t row_elems = pn == 0 ? 0 : src.numel() / pn;
        const int64_t row_bytes = row_elems * DTypeSize(src.dtype());
        const uint8_t* sp = TensorRawBytes(src);
        uint8_t* dp =
            TensorRawBytesMutable(build_payloads[static_cast<size_t>(c)]);
        for (size_t e = page_begin; e < page_end; ++e) {
          const int64_t local = part_entries[e].first - page_lo;
          const int64_t out_s = part_entries[e].second;
          std::memcpy(dp + out_s * row_bytes, sp + local * row_bytes,
                      static_cast<size_t>(row_bytes));
        }
      }
      cursor = page_end;
      page_lo += pn;
    }
  }

  // Assemble in schema order (left columns first), exactly like the
  // in-memory probe.
  Tensor psel = Tensor::FromVector(probe_idx, {}, ctx.device);
  const Chunk probe_selected = probe.Select(psel);
  Chunk joined;
  const size_t left_cols = node.build_left
                               ? build.prototype.columns.size()
                               : probe.columns.size();
  const auto push_build = [&](size_t schema_offset) {
    for (size_t i = 0; i < build.prototype.columns.size(); ++i) {
      joined.names.push_back(node.schema[schema_offset + i].name);
      joined.columns.push_back(WrapLike(build.prototype.columns[i],
                                        std::move(build_payloads[i])));
    }
  };
  const auto push_probe = [&](size_t schema_offset) {
    for (size_t i = 0; i < probe_selected.columns.size(); ++i) {
      joined.names.push_back(node.schema[schema_offset + i].name);
      joined.columns.push_back(probe_selected.columns[i]);
    }
  };
  if (node.build_left) {
    push_build(0);
    push_probe(left_cols);
  } else {
    push_probe(0);
    push_build(left_cols);
  }

  if (node.residual) {
    TDP_ASSIGN_OR_RETURN(
        Tensor mask, EvaluatePredicate(*node.residual, joined, EvalOpts(ctx)));
    joined = joined.Select(NonZero(mask));
  }
  return joined;
}

// ---- Paged two-pass aggregation ---------------------------------------------

StatusOr<Chunk> SpilledFinalizeAggregate(const AggregateNode& node,
                                         const AggInputs& inputs,
                                         const ExecContext& ctx) {
  QueryMemory* mem = ctx.memory;
  TDP_CHECK(mem != nullptr);
  const int64_t rows = inputs.rows;
  const size_t num_key_cols = inputs.key_columns.size();
  const int64_t num_blocks = (rows + kAggBlock - 1) / kAggBlock;

  // Which defs carry an argument blob / a distinct-codes blob per page.
  std::vector<int64_t> arg_blob(node.aggregates.size(), -1);
  std::vector<int64_t> distinct_blob(node.aggregates.size(), -1);
  int64_t num_arg_blobs = 0, num_distinct_blobs = 0;
  for (size_t d = 0; d < node.aggregates.size(); ++d) {
    if (node.aggregates[d].arg) arg_blob[d] = num_arg_blobs++;
    if (node.aggregates[d].distinct && node.aggregates[d].arg) {
      distinct_blob[d] = num_distinct_blobs++;
    }
  }

  // Pass A: spill pages (key order codes + per-def argument doubles +
  // distinct codes) while discovering groups. Order codes are row-local,
  // so inserting page by page into the key table assigns the same
  // first-occurrence ids and first rows — and the rank renumbering below
  // the same group order — as the in-memory kernel's single pass.
  TDP_ASSIGN_OR_RETURN(std::string path, mem->NewSpillFile("aggpages"));
  SpillWriter w(path);
  KeyTable groups(static_cast<int64_t>(num_key_cols));
  std::vector<int64_t> first_rows;
  {
    std::vector<std::vector<int64_t>> page_key_codes(num_key_cols);
    std::vector<std::vector<double>> page_args(
        static_cast<size_t>(num_arg_blobs));
    std::vector<std::vector<int64_t>> page_distinct(
        static_cast<size_t>(num_distinct_blobs));
    for (int64_t b = 0; b < num_blocks; ++b) {
      TDP_RETURN_NOT_OK(CheckCancel(ctx));
      const int64_t lo = b * kAggBlock;
      const int64_t pn = std::min(kAggBlock, rows - lo);
      for (size_t k = 0; k < num_key_cols; ++k) {
        TDP_ASSIGN_OR_RETURN(
            page_key_codes[k],
            OrderPreservingCodes(inputs.key_columns[k].SliceRows(lo, pn)));
      }
      for (size_t d = 0; d < node.aggregates.size(); ++d) {
        if (arg_blob[d] >= 0) {
          page_args[static_cast<size_t>(arg_blob[d])] =
              inputs.arg_columns[d]
                  .SliceRows(lo, pn)
                  .DecodeValues()
                  .To(DType::kFloat64)
                  .ToVector<double>();
        }
        if (distinct_blob[d] >= 0) {
          TDP_ASSIGN_OR_RETURN(
              page_distinct[static_cast<size_t>(distinct_blob[d])],
              OrderPreservingCodes(inputs.arg_columns[d].SliceRows(lo, pn)));
        }
      }
      // Group discovery over this page, recording each group's first
      // global row (the representative).
      if (!node.group_exprs.empty()) {
        const KeyColumns cols = ColumnsOf(page_key_codes);
        for (int64_t i = 0; i < pn; ++i) {
          bool inserted = false;
          groups.Insert(cols, i, &inserted);
          if (inserted) first_rows.push_back(lo + i);
        }
      }
      // Page out everything pass B needs.
      TDP_RETURN_NOT_OK(w.WriteInt64(pn));
      for (size_t k = 0; k < num_key_cols; ++k) {
        TDP_RETURN_NOT_OK(w.WriteInt64Span(page_key_codes[k].data(),
                                           static_cast<size_t>(pn)));
      }
      for (const auto& blob : page_args) {
        TDP_RETURN_NOT_OK(
            w.WriteBytes(blob.data(), static_cast<size_t>(pn) * 8));
      }
      for (const auto& blob : page_distinct) {
        TDP_RETURN_NOT_OK(w.WriteInt64Span(blob.data(),
                                           static_cast<size_t>(pn)));
      }
    }
  }
  TDP_RETURN_NOT_OK(w.Close());
  mem->AddSpilledBytes(w.bytes_written());

  // Renumber groups in sorted key order; the group key columns are the
  // in-memory kernel's, from the same ranks and first rows.
  const std::vector<int64_t> rank = groups.SortedRanks();
  const int64_t num_groups = node.group_exprs.empty() ? 1 : groups.size();
  Chunk out = GroupKeyColumns(node, inputs, rank, first_rows, ctx.device);

  // Pass B, once per aggregate: re-stream the pages, resolving each row's
  // group through the finished key table, and accumulate through the
  // in-memory kernel's accumulator. Pages ARE its blocks (both
  // `kAggBlock` rows, both row-aligned), so when `AggFoldsBlocks` holds,
  // folding each page's partials as the page arrives is that kernel's
  // block-order fold; otherwise rows accumulate straight across the pages,
  // which IS its serial loop.
  for (size_t def_index = 0; def_index < node.aggregates.size();
       ++def_index) {
    const AggDef& def = node.aggregates[def_index];
    const bool folds_blocks = AggFoldsBlocks(def, rows, num_groups);
    AggAccumulators total(num_groups), block(0);
    KeyTable distinct_seen(2);  // (group, value) pairs, as in memory

    SpillReader reader(path);
    std::vector<int64_t> page_codes;
    std::vector<double> page_args;
    std::vector<int64_t> page_distinct;
    std::vector<int64_t> row_gid;
    for (int64_t b = 0; b < num_blocks; ++b) {
      TDP_RETURN_NOT_OK(CheckCancel(ctx));
      TDP_ASSIGN_OR_RETURN(int64_t pn, reader.ReadInt64());
      // Row group ids for this page.
      row_gid.assign(static_cast<size_t>(pn), 0);
      if (!node.group_exprs.empty()) {
        page_codes.resize(static_cast<size_t>(pn) * num_key_cols);
        TDP_RETURN_NOT_OK(reader.ReadInt64Span(page_codes.data(),
                                               page_codes.size()));
        KeyColumns cols(num_key_cols);
        for (size_t k = 0; k < num_key_cols; ++k) {
          cols[k] = page_codes.data() + k * static_cast<size_t>(pn);
        }
        for (int64_t i = 0; i < pn; ++i) {
          const int64_t id = groups.Find(cols, i);
          if (id < 0) return Status::Internal("aggregate page key not found");
          row_gid[static_cast<size_t>(i)] = rank[static_cast<size_t>(id)];
        }
      } else if (num_key_cols > 0) {
        TDP_RETURN_NOT_OK(
            reader.Skip(static_cast<int64_t>(num_key_cols) * pn * 8));
      }
      // This def's argument doubles (skip the other defs' blobs).
      if (arg_blob[def_index] >= 0) {
        TDP_RETURN_NOT_OK(reader.Skip(arg_blob[def_index] * pn * 8));
        page_args.resize(static_cast<size_t>(pn));
        TDP_RETURN_NOT_OK(
            reader.ReadBytes(page_args.data(), static_cast<size_t>(pn) * 8));
        TDP_RETURN_NOT_OK(reader.Skip(
            (num_arg_blobs - arg_blob[def_index] - 1) * pn * 8));
      } else {
        TDP_RETURN_NOT_OK(reader.Skip(num_arg_blobs * pn * 8));
      }
      if (distinct_blob[def_index] >= 0) {
        TDP_RETURN_NOT_OK(reader.Skip(distinct_blob[def_index] * pn * 8));
        page_distinct.resize(static_cast<size_t>(pn));
        TDP_RETURN_NOT_OK(reader.ReadInt64Span(page_distinct.data(),
                                               page_distinct.size()));
        TDP_RETURN_NOT_OK(reader.Skip(
            (num_distinct_blobs - distinct_blob[def_index] - 1) * pn * 8));
      } else {
        TDP_RETURN_NOT_OK(reader.Skip(num_distinct_blobs * pn * 8));
      }

      const KeyColumns distinct_cols = {row_gid.data(), page_distinct.data()};
      if (folds_blocks) {
        block.Reset(num_groups);
        AccumulateAggRows(def, 0, pn, row_gid.data(), page_args.data(),
                          distinct_cols, distinct_seen, block, 0);
        FoldAggBlock(def.kind, num_groups, block, 0, total);
      } else {
        AccumulateAggRows(def, 0, pn, row_gid.data(), page_args.data(),
                          distinct_cols, distinct_seen, total, 0);
      }
    }

    out.names.push_back(def.name);
    out.columns.push_back(AggregateOutputColumn(
        def.kind, node.schema[node.group_exprs.size() + def_index].dtype,
        total.acc, total.counts, ctx.device));
  }
  return out;
}

}  // namespace exec
}  // namespace tdp
