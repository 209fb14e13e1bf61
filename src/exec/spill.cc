#include "src/exec/spill.h"

#include <algorithm>
#include <cstring>

#include "src/tensor/dtype.h"

namespace tdp {
namespace exec {

namespace {

constexpr uint8_t kUndefinedColumn = 255;

void AppendRaw(std::string& buf, const void* data, size_t size) {
  buf.append(reinterpret_cast<const char*>(data), size);
}

void AppendInt64(std::string& buf, int64_t v) { AppendRaw(buf, &v, sizeof(v)); }

void AppendTensor(std::string& buf, const Tensor& t) {
  const Tensor c = t.Contiguous();
  const uint8_t dtype = static_cast<uint8_t>(c.dtype());
  const uint8_t device = static_cast<uint8_t>(c.device());
  AppendRaw(buf, &dtype, 1);
  AppendRaw(buf, &device, 1);
  AppendInt64(buf, c.dim());
  for (int64_t d = 0; d < c.dim(); ++d) AppendInt64(buf, c.size(d));
  const int64_t bytes = c.numel() * DTypeSize(c.dtype());
  AppendRaw(buf, TensorRawBytes(c), static_cast<size_t>(bytes));
}

void AppendColumn(std::string& buf, const Column& c) {
  if (!c.defined()) {
    const uint8_t enc = kUndefinedColumn;
    AppendRaw(buf, &enc, 1);
    return;
  }
  const uint8_t enc = static_cast<uint8_t>(c.encoding());
  AppendRaw(buf, &enc, 1);
  AppendTensor(buf, c.data());
  switch (c.encoding()) {
    case Encoding::kPlain:
      break;
    case Encoding::kDictionary: {
      AppendInt64(buf, static_cast<int64_t>(c.dictionary().size()));
      for (const std::string& s : c.dictionary()) {
        AppendInt64(buf, static_cast<int64_t>(s.size()));
        AppendRaw(buf, s.data(), s.size());
      }
      break;
    }
    case Encoding::kProbability: {
      AppendInt64(buf, static_cast<int64_t>(c.domain().size()));
      AppendRaw(buf, c.domain().data(), c.domain().size() * sizeof(double));
      break;
    }
  }
}

struct BufReader {
  const char* p;
  const char* end;

  bool Read(void* out, size_t n) {
    if (static_cast<size_t>(end - p) < n) return false;
    std::memcpy(out, p, n);
    p += n;
    return true;
  }
  bool ReadInt64(int64_t* v) { return Read(v, sizeof(*v)); }
};

StatusOr<Tensor> ParseTensor(BufReader& r) {
  uint8_t dtype_byte = 0, device_byte = 0;
  int64_t rank = 0;
  if (!r.Read(&dtype_byte, 1) || !r.Read(&device_byte, 1) ||
      !r.ReadInt64(&rank) || rank < 0 || rank > 16) {
    return Status::ExecutionError("spill: corrupt tensor header");
  }
  std::vector<int64_t> shape(static_cast<size_t>(rank));
  for (int64_t d = 0; d < rank; ++d) {
    if (!r.ReadInt64(&shape[static_cast<size_t>(d)]) ||
        shape[static_cast<size_t>(d)] < 0) {
      return Status::ExecutionError("spill: corrupt tensor shape");
    }
  }
  const DType dtype = static_cast<DType>(dtype_byte);
  const Device device = static_cast<Device>(device_byte);
  Tensor t = Tensor::Empty(shape, dtype, device);
  const int64_t bytes = t.numel() * DTypeSize(dtype);
  if (!r.Read(TensorRawBytesMutable(t), static_cast<size_t>(bytes))) {
    return Status::ExecutionError("spill: truncated tensor payload");
  }
  return t;
}

StatusOr<Column> ParseColumn(BufReader& r) {
  uint8_t enc = 0;
  if (!r.Read(&enc, 1)) {
    return Status::ExecutionError("spill: corrupt column header");
  }
  if (enc == kUndefinedColumn) return Column();
  TDP_ASSIGN_OR_RETURN(Tensor data, ParseTensor(r));
  switch (static_cast<Encoding>(enc)) {
    case Encoding::kPlain:
      return Column::Plain(std::move(data));
    case Encoding::kDictionary: {
      int64_t count = 0;
      if (!r.ReadInt64(&count) || count < 0) {
        return Status::ExecutionError("spill: corrupt dictionary");
      }
      std::vector<std::string> dict(static_cast<size_t>(count));
      for (int64_t i = 0; i < count; ++i) {
        int64_t len = 0;
        if (!r.ReadInt64(&len) || len < 0) {
          return Status::ExecutionError("spill: corrupt dictionary entry");
        }
        std::string s(static_cast<size_t>(len), '\0');
        if (!r.Read(s.data(), s.size())) {
          return Status::ExecutionError("spill: truncated dictionary entry");
        }
        dict[static_cast<size_t>(i)] = std::move(s);
      }
      return Column::Dictionary(std::move(data), std::move(dict));
    }
    case Encoding::kProbability: {
      int64_t count = 0;
      if (!r.ReadInt64(&count) || count < 0) {
        return Status::ExecutionError("spill: corrupt PE domain");
      }
      std::vector<double> domain(static_cast<size_t>(count));
      if (!r.Read(domain.data(), domain.size() * sizeof(double))) {
        return Status::ExecutionError("spill: truncated PE domain");
      }
      return Column::Probability(std::move(data), std::move(domain));
    }
  }
  return Status::ExecutionError("spill: unknown column encoding");
}

}  // namespace

SpillWriter::SpillWriter(const std::string& path)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc) {}

Status SpillWriter::Write(const void* data, size_t size) {
  out_.write(reinterpret_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  bytes_written_ += static_cast<int64_t>(size);
  return CheckStream();
}

Status SpillWriter::CheckStream() {
  if (!out_.good()) {
    return Status::ExecutionError("spill: write failed on " + path_ +
                                  " (disk full?)");
  }
  return Status::OK();
}

Status SpillWriter::WriteInt64(int64_t v) { return Write(&v, sizeof(v)); }

Status SpillWriter::WriteColumn(const Column& c) {
  std::string buf;
  AppendColumn(buf, c);
  TDP_RETURN_NOT_OK(WriteInt64(static_cast<int64_t>(buf.size())));
  return Write(buf.data(), buf.size());
}

Status SpillWriter::Close() {
  out_.flush();
  TDP_RETURN_NOT_OK(CheckStream());
  out_.close();
  return Status::OK();
}

SpillReader::SpillReader(const std::string& path)
    : path_(path), in_(path, std::ios::binary) {}

Status SpillReader::Read(void* data, size_t size) {
  in_.read(reinterpret_cast<char*>(data), static_cast<std::streamsize>(size));
  if (!in_.good()) {
    return Status::ExecutionError("spill: read failed on " + path_);
  }
  return Status::OK();
}

StatusOr<int64_t> SpillReader::ReadInt64() {
  int64_t v = 0;
  TDP_RETURN_NOT_OK(Read(&v, sizeof(v)));
  return v;
}

StatusOr<Column> SpillReader::ReadColumn() {
  TDP_ASSIGN_OR_RETURN(int64_t len, ReadInt64());
  if (len < 0) return Status::ExecutionError("spill: corrupt column length");
  std::string buf(static_cast<size_t>(len), '\0');
  TDP_RETURN_NOT_OK(Read(buf.data(), buf.size()));
  BufReader r{buf.data(), buf.data() + buf.size()};
  return ParseColumn(r);
}

Status SpillReader::SkipColumn() {
  TDP_ASSIGN_OR_RETURN(int64_t len, ReadInt64());
  if (len < 0) return Status::ExecutionError("spill: corrupt column length");
  in_.seekg(len, std::ios::cur);
  if (!in_.good()) {
    return Status::ExecutionError("spill: seek failed on " + path_);
  }
  return Status::OK();
}

// ---- Paged chunk files ------------------------------------------------------

StatusOr<int64_t> WritePages(const std::string& path, const Chunk& chunk) {
  SpillWriter w(path);
  const int64_t rows = chunk.num_rows();
  for (int64_t lo = 0; lo < rows; lo += kSpillPageRows) {
    const Chunk page = chunk.SliceRows(lo, std::min(kSpillPageRows, rows - lo));
    // Payload bytes only: the reader's prototype carries the encodings,
    // dictionaries and domains, so no page repeats them.
    for (const Column& c : page.columns) {
      TDP_RETURN_NOT_OK(w.WriteColumn(Column::Plain(c.data())));
    }
  }
  TDP_RETURN_NOT_OK(w.Close());
  return w.bytes_written();
}

StatusOr<std::vector<Column>> GatherPages(const std::string& path,
                                          const Chunk& prototype,
                                          const std::vector<int64_t>& rows) {
  const int64_t n = static_cast<int64_t>(rows.size());
  std::vector<Tensor> payloads;
  payloads.reserve(prototype.columns.size());
  for (const Column& c : prototype.columns) {
    std::vector<int64_t> shape = c.data().shape();
    shape[0] = n;
    payloads.push_back(
        Tensor::Empty(shape, c.data().dtype(), c.data().device()));
  }

  // Output positions grouped by the page their row lives on (a counting
  // sort), so one ordered pass over the pages serves every position.
  const int64_t pages =
      n == 0 ? 0 : *std::max_element(rows.begin(), rows.end()) /
                           kSpillPageRows + 1;
  std::vector<int64_t> page_begin(static_cast<size_t>(pages) + 1, 0);
  for (int64_t r : rows) {
    ++page_begin[static_cast<size_t>(r / kSpillPageRows) + 1];
  }
  for (size_t p = 1; p < page_begin.size(); ++p) {
    page_begin[p] += page_begin[p - 1];
  }
  std::vector<int64_t> next(page_begin.begin(), page_begin.end() - 1);
  std::vector<int64_t> by_page(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const size_t p = static_cast<size_t>(rows[static_cast<size_t>(i)] /
                                         kSpillPageRows);
    by_page[static_cast<size_t>(next[p]++)] = i;
  }

  SpillReader reader(path);
  for (int64_t p = 0; p < pages; ++p) {
    const int64_t begin = page_begin[static_cast<size_t>(p)];
    const int64_t end = page_begin[static_cast<size_t>(p) + 1];
    for (Tensor& payload : payloads) {
      if (begin == end) {
        TDP_RETURN_NOT_OK(reader.SkipColumn());
        continue;
      }
      TDP_ASSIGN_OR_RETURN(Column page, reader.ReadColumn());
      const Tensor src = page.data().Contiguous();
      const int64_t row_bytes =
          src.numel() / src.size(0) * DTypeSize(src.dtype());
      const uint8_t* sp = TensorRawBytes(src);
      uint8_t* dp = TensorRawBytesMutable(payload);
      for (int64_t e = begin; e < end; ++e) {
        const int64_t i = by_page[static_cast<size_t>(e)];
        const int64_t local =
            rows[static_cast<size_t>(i)] - p * kSpillPageRows;
        std::memcpy(dp + i * row_bytes, sp + local * row_bytes,
                    static_cast<size_t>(row_bytes));
      }
    }
  }

  // Same encoding, same dictionary or domain as the rows written.
  std::vector<Column> out;
  out.reserve(payloads.size());
  for (size_t c = 0; c < payloads.size(); ++c) {
    const Column& proto = prototype.columns[c];
    switch (proto.encoding()) {
      case Encoding::kPlain:
        out.push_back(Column::Plain(std::move(payloads[c])));
        break;
      case Encoding::kDictionary:
        out.push_back(
            Column::Dictionary(std::move(payloads[c]), proto.dictionary()));
        break;
      case Encoding::kProbability:
        out.push_back(
            Column::Probability(std::move(payloads[c]), proto.domain()));
        break;
    }
  }
  return out;
}

}  // namespace exec
}  // namespace tdp
