#include "perfbench/core/trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <unordered_map>

namespace tdp {
namespace perfbench {
namespace {

std::atomic<uint64_t> next_id{1};
thread_local uint64_t current_span = 0;
thread_local uint64_t current_request = 0;
thread_local std::vector<SpanRecord>* thread_buffer = nullptr;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Append(const SpanRecord& span) {
  if (thread_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<SpanRecord>>());
    thread_buffer = buffers_.back().get();
  }
  thread_buffer->push_back(span);
}

std::vector<SpanRecord> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return all;
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!Tracer::Get().enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = current_span;
  span_.request = current_request;
  saved_parent_ = current_span;
  current_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  current_span = saved_parent_;
  Tracer::Get().Append(span_);
}

RequestScope::RequestScope() : saved_(current_request) {
  if (Tracer::Get().enabled()) {
    current_request = next_id.fetch_add(1, std::memory_order_relaxed);
  }
}

RequestScope::~RequestScope() { current_request = saved_; }

std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    auto parent = by_id.find(s.parent);
    if (s.parent == 0 || parent == by_id.end()) continue;
    const SpanRecord& p = spans[parent->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[parent->second].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t end = INT64_MIN;
    for (const auto& [lo, hi] : kids) {
      const int64_t from = std::max(lo, end);
      if (hi > from) covered += hi - from;
      end = std::max(end, hi);
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanStats> Aggregate(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, SpanStats> out;
  for (const SpanRecord& s : spans) {
    out[s.name].ms.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

bool WriteSpansCsv(const std::string& path,
                   const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<int64_t> self = SelfTimesNs(spans);
  out << "name,start_ns,end_ns,id,parent,request,self_ns\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.id << ','
        << s.parent << ',' << s.request << ',' << self[i] << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
}  // namespace tdp
