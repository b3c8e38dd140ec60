#include "trace.hpp"

namespace perfbench {

Tracer::Span::Span(Tracer& tracer, const char* layer)
    : tracer_(tracer), index_(kNoParent) {
  if (!tracer_.enabled_) return;
  const std::size_t parent =
      tracer_.open_.empty() ? kNoParent : tracer_.open_.back();
  index_ = tracer_.spans_.size();
  tracer_.spans_.push_back({layer, Clock::now(), {}, parent, tracer_.op_});
  tracer_.open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ == kNoParent) return;
  tracer_.spans_[index_].end = Clock::now();
  tracer_.open_.pop_back();
}

std::map<std::string, double> self_seconds(
    const std::vector<Tracer::Record>& records) {
  std::vector<double> self(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    self[i] = std::chrono::duration<double>(records[i].end - records[i].start)
                  .count();
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].parent != Tracer::kNoParent) {
      self[records[i].parent] -=
          std::chrono::duration<double>(records[i].end - records[i].start)
              .count();
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    out[records[i].layer] += self[i];
  }
  return out;
}

std::map<std::string, double> Tracer::self_seconds() const {
  return perfbench::self_seconds(spans_);
}

double Tracer::total_seconds(const std::string& layer) const {
  double sum = 0.0;
  for (const auto& r : spans_) {
    if (r.layer == layer) {
      sum += std::chrono::duration<double>(r.end - r.start).count();
    }
  }
  return sum;
}

}  // namespace perfbench
