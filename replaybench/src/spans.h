// The runner's own timed spans: name, start, end and parent, kept in
// memory and written at the end as Chrome trace-event JSON. They wrap the
// runner's calls into each layer (setup, replay cycles, checks, probes),
// so they time the program from outside.

#ifndef REPLAYBENCH_SPANS_H_
#define REPLAYBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace replaybench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;  // since the log was created
    int64_t end_ns = 0;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanLog* log, size_t index) : log_(log), index_(index) {}
    ~Scope();
    Scope(Scope&& other) noexcept : log_(other.log_), index_(other.index_) {
      other.log_ = nullptr;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    SpanLog* log_;
    size_t index_;
  };

  /// A disabled log records nothing (the untraced run).
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Opens a span whose parent is the innermost open one.
  Scope Open(std::string name);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes complete ("X") events, one thread row per nesting depth's
  /// root, with span and parent ids in `args`. Returns false on I/O
  /// failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  int64_t NowNs() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

}  // namespace replaybench

#endif  // REPLAYBENCH_SPANS_H_
