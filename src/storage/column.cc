#include "src/storage/column.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "src/common/logging.h"
#include "src/tensor/ops.h"

namespace tdp {

std::string_view EncodingName(Encoding encoding) {
  switch (encoding) {
    case Encoding::kPlain:
      return "plain";
    case Encoding::kDictionary:
      return "dictionary";
    case Encoding::kProbability:
      return "probability";
  }
  return "unknown";
}

Column Column::Plain(Tensor data) {
  TDP_CHECK(data.defined());
  TDP_CHECK_GE(data.dim(), 1) << "columns must have a row dimension";
  Column c;
  c.encoding_ = Encoding::kPlain;
  c.data_ = std::move(data);
  return c;
}

Column Column::Dictionary(Tensor codes, std::vector<std::string> dictionary) {
  TDP_CHECK(codes.defined());
  TDP_CHECK(codes.dtype() == DType::kInt64 && codes.dim() == 1)
      << "dictionary codes must be 1-d int64";
  TDP_CHECK(std::is_sorted(dictionary.begin(), dictionary.end()))
      << "dictionary must be sorted (order-preserving encoding)";
  Column c;
  c.encoding_ = Encoding::kDictionary;
  c.data_ = std::move(codes);
  c.dictionary_ =
      std::make_shared<const std::vector<std::string>>(std::move(dictionary));
  return c;
}

Column Column::FromStrings(const std::vector<std::string>& values,
                           Device device) {
  // Order-preserving: sort distinct values so that code comparisons agree
  // with lexicographic comparisons.
  std::map<std::string, int64_t> index;
  for (const std::string& v : values) index.emplace(v, 0);
  std::vector<std::string> dictionary;
  dictionary.reserve(index.size());
  int64_t next = 0;
  for (auto& [key, code] : index) {
    code = next++;
    dictionary.push_back(key);
  }
  Tensor codes =
      Tensor::Empty({static_cast<int64_t>(values.size())}, DType::kInt64,
                    device);
  int64_t* p = codes.data<int64_t>();
  for (size_t i = 0; i < values.size(); ++i) p[i] = index[values[i]];
  return Dictionary(std::move(codes), std::move(dictionary));
}

Column Column::Probability(Tensor probs, std::vector<double> domain) {
  TDP_CHECK(probs.defined());
  TDP_CHECK_EQ(probs.dim(), 2) << "PE tensor must be [rows, classes]";
  TDP_CHECK(IsFloatingPoint(probs.dtype()));
  TDP_CHECK_EQ(probs.size(1), static_cast<int64_t>(domain.size()))
      << "PE domain size must match the class dimension";
  Column c;
  c.encoding_ = Encoding::kProbability;
  c.data_ = std::move(probs);
  c.domain_ = std::make_shared<const std::vector<double>>(std::move(domain));
  return c;
}

int64_t Column::DictionaryCode(const std::string& value) const {
  TDP_CHECK(encoding_ == Encoding::kDictionary);
  const std::vector<std::string>& dict = dictionary();
  const auto it = std::lower_bound(dict.begin(), dict.end(), value);
  if (it == dict.end() || *it != value) return -1;
  return it - dict.begin();
}

int64_t Column::LowerBoundCode(const std::string& value) const {
  TDP_CHECK(encoding_ == Encoding::kDictionary);
  const std::vector<std::string>& dict = dictionary();
  return std::lower_bound(dict.begin(), dict.end(), value) - dict.begin();
}

int64_t Column::UpperBoundCode(const std::string& value) const {
  TDP_CHECK(encoding_ == Encoding::kDictionary);
  const std::vector<std::string>& dict = dictionary();
  return std::upper_bound(dict.begin(), dict.end(), value) - dict.begin();
}

std::vector<std::string> Column::DecodeStrings() const {
  TDP_CHECK(encoding_ == Encoding::kDictionary)
      << "DecodeStrings on a non-dictionary column";
  const std::vector<int64_t> codes = data_.ToVector<int64_t>();
  std::vector<std::string> out;
  out.reserve(codes.size());
  for (int64_t code : codes) {
    TDP_CHECK(code >= 0 && code < static_cast<int64_t>(dictionary().size()));
    out.push_back(dictionary()[static_cast<size_t>(code)]);
  }
  return out;
}

Tensor Column::DecodeValues() const {
  switch (encoding_) {
    case Encoding::kPlain:
      return data_;
    case Encoding::kDictionary:
      return data_;  // codes are the comparable representation
    case Encoding::kProbability: {
      // Hard decode: domain[argmax(probs)].
      const Tensor arg = ArgMax(data_.Detach(), 1, /*keepdim=*/false);
      const std::vector<double>& dom = domain();
      Tensor domain_t = Tensor::Empty({static_cast<int64_t>(dom.size())},
                                      DType::kFloat32, data_.device());
      float* dp = domain_t.data<float>();
      for (size_t i = 0; i < dom.size(); ++i) {
        dp[i] = static_cast<float>(dom[i]);
      }
      return IndexSelect(domain_t, 0, arg);
    }
  }
  TDP_LOG(Fatal) << "unknown encoding";
  return Tensor();
}

Column Column::To(Device device) const {
  Column c = *this;
  c.data_ = data_.To(device);
  return c;
}

Column Column::Select(const Tensor& indices) const {
  Column c = *this;
  c.data_ = IndexSelect(data_, 0, indices);
  return c;
}

Column Column::SliceRows(int64_t start, int64_t count) const {
  TDP_CHECK(start >= 0 && count >= 0 && start + count <= length());
  Column c = *this;
  c.data_ = data_.Slice(0, start, count);
  return c;
}

Column Column::Concat(const std::vector<Column>& parts) {
  TDP_CHECK(!parts.empty());
  if (parts.size() == 1) return parts[0];
  std::vector<Tensor> tensors;
  tensors.reserve(parts.size());
  bool shared_dictionary = true;
  for (const Column& p : parts) {
    TDP_CHECK(p.encoding_ == parts[0].encoding_)
        << "cannot concatenate columns of different encodings";
    TDP_DCHECK(p.domain().size() == parts[0].domain().size());
    shared_dictionary =
        shared_dictionary && p.dictionary_ == parts[0].dictionary_;
    tensors.push_back(p.data_);
  }
  if (!shared_dictionary) return ConcatDictionaries(parts);
  Column c = parts[0];
  c.data_ = Cat(tensors, 0);
  return c;
}

Column Column::ConcatDictionaries(const std::vector<Column>& parts) {
  // remap[i][code] is part i's code in the merged dictionary, -1 while no
  // row of part i uses it.
  std::vector<Tensor> codes;
  std::vector<std::vector<int64_t>> remap(parts.size());
  int64_t total = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    codes.push_back(parts[i].data_.RowMajor());
    remap[i].assign(parts[i].dictionary().size(), -1);
    const int64_t* cp = codes[i].data<int64_t>();
    const int64_t n = codes[i].numel();
    for (int64_t r = 0; r < n; ++r) {
      TDP_CHECK(cp[r] >= 0 && cp[r] < static_cast<int64_t>(remap[i].size()));
      remap[i][static_cast<size_t>(cp[r])] = 0;
    }
    total += n;
  }
  // The merged dictionary is the sorted union of the strings the rows use,
  // so it and the codes equal `FromStrings` over the decoded rows.
  struct Entry {
    const std::string* value;
    size_t part;
    size_t code;
  };
  std::vector<Entry> entries;
  for (size_t i = 0; i < parts.size(); ++i) {
    for (size_t k = 0; k < remap[i].size(); ++k) {
      if (remap[i][k] == 0) {
        entries.push_back({&parts[i].dictionary()[k], i, k});
      }
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return *a.value < *b.value; });
  std::vector<std::string> dictionary;
  for (const Entry& e : entries) {
    if (dictionary.empty() || dictionary.back() != *e.value) {
      dictionary.push_back(*e.value);
    }
    remap[e.part][e.code] = static_cast<int64_t>(dictionary.size()) - 1;
  }
  Tensor out = Tensor::Empty({total}, DType::kInt64, parts[0].data_.device());
  int64_t* op = out.data<int64_t>();
  for (size_t i = 0; i < parts.size(); ++i) {
    const int64_t* cp = codes[i].data<int64_t>();
    const int64_t n = codes[i].numel();
    for (int64_t r = 0; r < n; ++r) {
      *op++ = remap[i][static_cast<size_t>(cp[r])];
    }
  }
  return Dictionary(std::move(out), std::move(dictionary));
}

const std::vector<std::string>& Column::EmptyDictionary() {
  static const std::vector<std::string>* empty = new std::vector<std::string>();
  return *empty;
}

const std::vector<double>& Column::EmptyDomain() {
  static const std::vector<double>* empty = new std::vector<double>();
  return *empty;
}

std::string Column::ToString() const {
  std::ostringstream os;
  os << "Column(" << EncodingName(encoding_) << ", " << data_.ToString();
  if (encoding_ == Encoding::kDictionary) {
    os << ", dict_size=" << dictionary().size();
  }
  if (encoding_ == Encoding::kProbability) {
    os << ", domain_size=" << domain().size();
  }
  os << ")";
  return os.str();
}

}  // namespace tdp
