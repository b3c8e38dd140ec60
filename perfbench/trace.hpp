#pragma once
// In-memory span recorder for the traced run.
//
// Spans wrap the harness's own calls into each canopus layer (the library
// itself is not instrumented by these). Each span records its layer name,
// start, end, parent span and the operation (one write or one query) it
// belongs to; spans are kept in memory and reduced when the run ends. A
// layer's self time is its duration minus the durations of its direct
// children. Spans must open and close on the thread that owns the Tracer.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// A disabled tracer records nothing, so the same instrumented code can be
  /// timed with and without spans.
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  class Span {
   public:
    Span(Tracer& tracer, const char* layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  /// Starts a new operation: later spans carry its id.
  void begin_op() { ++op_; }

  /// Per-layer self seconds summed over every recorded span.
  std::map<std::string, double> self_seconds() const;
  /// Summed duration of the spans named `layer`.
  double total_seconds(const std::string& layer) const;
  std::size_t span_count() const { return spans_.size(); }

  struct Record {
    std::string layer;
    Clock::time_point start;
    Clock::time_point end;
    std::size_t parent;  // kNoParent for a root span
    std::uint64_t op;
  };
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  const std::vector<Record>& records() const { return spans_; }

 private:
  bool enabled_;
  std::uint64_t op_ = 0;
  std::vector<Record> spans_;
  std::vector<std::size_t> open_;
};

/// Layer self times of `records`; exposed for the harness tests.
std::map<std::string, double> self_seconds(
    const std::vector<Tracer::Record>& records);

}  // namespace perfbench
