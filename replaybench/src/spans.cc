#include "spans.h"

#include <fstream>

namespace replaybench {

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

SpanLog::Scope SpanLog::Open(std::string name) {
  if (!enabled_) return Scope(nullptr, 0);
  Span span;
  span.name = std::move(name);
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[index_].end_ns = log_->NowNs();
  log_->open_.pop_back();
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name << "\","
        << "\"cat\":\"replaybench\"," << buf << "\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace replaybench
