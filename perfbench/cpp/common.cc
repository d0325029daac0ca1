#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <utility>

namespace perfbench {

void Outcome::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", why.c_str());
}

void Outcome::AddOverhead(const std::vector<Metric>& untraced,
                          const std::vector<Metric>& traced) {
  for (size_t i = 0; i < traced.size(); ++i) {
    Add("overhead." + traced[i].name, traced[i].value - untraced[i].value,
        traced[i].unit);
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

int64_t CoveredNanos(std::vector<std::pair<int64_t, int64_t>> intervals,
                     int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = -1;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (a > run_end) {
      if (run_end > run_start) covered += run_end - run_start;
      run_start = a;
      run_end = b;
    } else {
      run_end = std::max(run_end, b);
    }
  }
  if (run_end > run_start) covered += run_end - run_start;
  return covered;
}

int64_t Tracer::Begin(const std::string& name, int64_t op, int64_t parent) {
  if (!enabled_) return -1;
  const int64_t start = NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, op, parent, start, start});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t span) {
  if (span < 0) return;
  const int64_t end = NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].end_ns = end;
}

int64_t Tracer::Record(const std::string& name, int64_t op, int64_t parent,
                       int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, op, parent, start_ns, end_ns});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::SelfMillis(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    // Concurrent children (explainer batches on pool threads) overlap, so
    // subtract their union.
    const int64_t covered =
        CoveredNanos(children[i], spans[i].start_ns, spans[i].end_ns);
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                  covered) /
              1e6;
  }
  return self;
}

std::vector<double> Tracer::Durations(const std::vector<Span>& spans,
                                      const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.Millis());
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  const std::vector<double> self = SelfMillis(spans);
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[perfbench] cannot write %s\n", path.c_str());
    return false;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"op\": %lld, \"parent\": %lld, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"self_ms\": %.6f}\n",
                 s.name.c_str(), static_cast<long long>(s.op),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), self[i]);
  }
  const bool ok = std::fclose(f) == 0;

  // Mean self time per root op, by root kind: where one op's time goes.
  std::vector<size_t> root(spans.size());
  std::map<std::string, int64_t> roots;
  std::map<std::string, std::map<std::string, double>> self_by_kind;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t p = spans[i].parent;
    root[i] = p < 0 ? i : root[static_cast<size_t>(p)];
    const std::string& kind = spans[root[i]].name;
    if (p < 0) ++roots[kind];
    self_by_kind[kind][spans[i].name] += self[i];
  }
  for (const auto& [kind, by_name] : self_by_kind) {
    std::vector<std::pair<double, std::string>> costs;
    for (const auto& [name, ms] : by_name) {
      costs.push_back({ms / static_cast<double>(roots[kind]), name});
    }
    std::sort(costs.rbegin(), costs.rend());
    std::fprintf(stderr, "[perfbench] trace: %lld x %s, mean self time per op:",
                 static_cast<long long>(roots[kind]), kind.c_str());
    for (const auto& [ms, name] : costs) {
      std::fprintf(stderr, "  %s %.4f ms", name.c_str(), ms);
    }
    std::fprintf(stderr, "\n");
  }
  return ok;
}

}  // namespace perfbench
