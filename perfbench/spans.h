// In-memory span log for the traced benchmark run.
//
// The benchmark wraps a span around every call it makes into a layer's
// public function.  A span records its name, start, end and parent; spans
// of one request (or one utterance) carry the same request id.  Nothing is
// written while the run measures: the log stays in memory and is dumped as
// JSON at exit.  When the log is disabled (untraced runs) a span costs one
// relaxed atomic load.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  std::uint64_t request = 0;  // shared by the spans of one request; 0 = none
  std::int64_t parent = -1;   // index of the parent span; -1 = root
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint32_t thread = 0;
};

struct LayerTime {
  std::size_t count = 0;
  double total_s = 0.0;
  /// Duration minus the part of the interval covered by child spans.
  double self_s = 0.0;
};

class SpanLog {
 public:
  static constexpr std::int64_t kThreadParent = -2;

  static void enable(bool on);
  [[nodiscard]] static bool enabled();

  /// Opens a span.  kThreadParent nests it under the innermost span open
  /// on this thread; an explicit index links a span to a parent opened on
  /// another thread (a request's receive side under its send side).
  static std::int64_t open(const char* name, std::uint64_t request,
                           std::int64_t parent);
  static void close(std::int64_t id);

  /// Spans opened so far; a span's index is its id.
  [[nodiscard]] static std::size_t size();
  [[nodiscard]] static std::vector<SpanRecord> snapshot();
  /// Per span name: count, summed duration and summed self time of the
  /// spans opened at index `from` or later.
  [[nodiscard]] static std::map<std::string, LayerTime> layer_times(
      std::size_t from = 0);
  static void write_json(const std::string& path);
};

/// RAII span; a no-op while the log is disabled.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0,
                std::int64_t parent = SpanLog::kThreadParent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void end();
  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  std::int64_t id_ = -1;
};

}  // namespace perfbench
