#include "perfbench/workloads/common.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>
#include <variant>

namespace tdp {
namespace perfbench {
namespace {

/// One result cell: an exact integer, a float, or a string.
struct Cell {
  bool is_string = false;
  bool is_float = false;
  double number = 0;
  std::string text;

  bool operator<(const Cell& o) const {
    if (is_string != o.is_string) return is_string < o.is_string;
    return is_string ? text < o.text : number < o.number;
  }
};
using Row = std::vector<Cell>;

std::vector<Row> EngineRows(const Table& table) {
  const int64_t cols = table.num_columns();
  std::vector<std::vector<std::string>> decoded(static_cast<size_t>(cols));
  for (int64_t c = 0; c < cols; ++c) {
    if (table.column(c).encoding() == Encoding::kDictionary) {
      decoded[static_cast<size_t>(c)] = table.column(c).DecodeStrings();
    }
  }
  std::vector<Row> rows(static_cast<size_t>(table.num_rows()));
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      const Column& col = table.column(c);
      Cell cell;
      if (col.encoding() == Encoding::kDictionary) {
        cell.is_string = true;
        cell.text = decoded[static_cast<size_t>(c)][static_cast<size_t>(r)];
      } else {
        const DType dtype = col.data().dtype();
        cell.is_float = dtype == DType::kFloat32 || dtype == DType::kFloat64;
        cell.number = col.data().At({r});
      }
      rows[static_cast<size_t>(r)].push_back(std::move(cell));
    }
  }
  return rows;
}

std::vector<Row> OracleRows(const baseline::BaselineTable& table) {
  std::vector<Row> rows;
  for (const auto& in : table.rows) {
    Row row;
    for (const auto& v : in) {
      Cell cell;
      if (const auto* s = std::get_if<std::string>(&v)) {
        cell.is_string = true;
        cell.text = *s;
      } else if (const auto* i = std::get_if<int64_t>(&v)) {
        cell.number = static_cast<double>(*i);
      } else if (const auto* b = std::get_if<bool>(&v)) {
        cell.number = *b ? 1 : 0;
      } else {
        cell.is_float = true;
        cell.number = std::get<double>(v);
      }
      row.push_back(std::move(cell));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string RowText(const Row& row) {
  std::string out;
  for (const Cell& c : row) {
    out += c.is_string ? c.text : std::to_string(c.number);
    out += '|';
  }
  return out;
}

bool CellsMatch(const Cell& a, const Cell& b, double rel_tol) {
  if (a.is_string || b.is_string) {
    return a.is_string == b.is_string && a.text == b.text;
  }
  if (!a.is_float && !b.is_float) return a.number == b.number;
  return std::fabs(a.number - b.number) <=
         rel_tol * std::max({1.0, std::fabs(a.number), std::fabs(b.number)});
}

}  // namespace

Deck::Deck(std::vector<int> counts, Rng rng)
    : counts_(std::move(counts)), rng_(rng) {}

int Deck::Next() {
  if (at_ == round_.size()) {
    round_.clear();
    for (size_t f = 0; f < counts_.size(); ++f) {
      round_.insert(round_.end(), static_cast<size_t>(counts_[f]),
                    static_cast<int>(f));
    }
    for (size_t i = round_.size(); i > 1; --i) {
      std::swap(round_[i - 1], round_[rng_.NextUint64(i)]);
    }
    at_ = 0;
  }
  return round_[at_++];
}

Tensor ClusteredUnitVectors(int64_t n, int64_t dim, int64_t clusters,
                            Rng& rng) {
  std::vector<float> centres(static_cast<size_t>(clusters * dim));
  for (float& x : centres) x = static_cast<float>(rng.Normal());
  std::vector<float> out(static_cast<size_t>(n * dim));
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = rng.UniformInt(0, clusters - 1);
    double norm = 0;
    for (int64_t d = 0; d < dim; ++d) {
      const float x = centres[static_cast<size_t>(c * dim + d)] +
                      0.35f * static_cast<float>(rng.Normal());
      out[static_cast<size_t>(i * dim + d)] = x;
      norm += static_cast<double>(x) * x;
    }
    const float inv = static_cast<float>(1.0 / std::sqrt(norm));
    for (int64_t d = 0; d < dim; ++d) out[static_cast<size_t>(i * dim + d)] *= inv;
  }
  return Tensor::FromVector(out, {n, dim});
}

bool SameRows(const Table& result, const baseline::BaselineTable& expected,
              double rel_tol, std::string* why) {
  std::vector<Row> got = EngineRows(result);
  std::vector<Row> want = OracleRows(expected);
  if (got.size() != want.size()) {
    *why = "row count " + std::to_string(got.size()) + " vs oracle " +
           std::to_string(want.size());
    return false;
  }
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  for (size_t r = 0; r < got.size(); ++r) {
    bool same = got[r].size() == want[r].size();
    for (size_t c = 0; same && c < got[r].size(); ++c) {
      same = CellsMatch(got[r][c], want[r][c], rel_tol);
    }
    if (!same) {
      *why = "row " + RowText(got[r]) + " vs oracle " + RowText(want[r]);
      return false;
    }
  }
  return true;
}

std::string Substitute(const std::string& sql,
                       const std::vector<exec::ScalarValue>& params) {
  std::string out;
  size_t next = 0;
  for (const char c : sql) {
    if (c != '?' || next >= params.size()) {
      out += c;
      continue;
    }
    const exec::ScalarValue& p = params[next++];
    if (p.is_string()) {
      out += "'" + p.string_value() + "'";
    } else if (p.is_int()) {
      out += std::to_string(p.int_value());
    } else {
      std::ostringstream num;
      num.precision(17);
      num << p.AsDouble();
      out += num.str();
    }
  }
  return out;
}

void Check(Tally& checks, bool ok, const std::string& what) {
  checks.Record(ok);
  if (!ok) std::cerr << "perfbench: check failed: " << what << std::endl;
}

}  // namespace perfbench
}  // namespace tdp
