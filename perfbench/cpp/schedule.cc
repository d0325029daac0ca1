#include "schedule.h"

#include <cmath>
#include <utility>

#include "common/rng.h"

namespace perfbench {

std::vector<Arrival> MakeSchedule(uint64_t seed,
                                  const std::vector<Phase>& phases,
                                  int first_video) {
  vsd::Rng rng(seed ^ 0x5E12E0A11ULL);
  std::vector<Arrival> arrivals;
  double phase_start = 0.0;
  for (size_t p = 0; p < phases.size(); ++p) {
    const double phase_end = phase_start + phases[p].seconds;
    double at = phase_start;
    while (true) {
      at += -std::log(1.0 - rng.Uniform()) / phases[p].rate_per_s;
      if (at >= phase_end) break;
      Arrival a;
      a.due_us = static_cast<int64_t>(at * 1e6);
      a.phase = static_cast<int>(p);
      a.session = static_cast<uint64_t>(rng.UniformInt(kSessions));
      a.tenant = a.session % kTenants;
      arrivals.push_back(a);
    }
    phase_start = phase_end;
  }
  // Fisher-Yates over the video indices.
  std::vector<int> videos(arrivals.size());
  for (size_t i = 0; i < videos.size(); ++i) {
    videos[i] = first_video + static_cast<int>(i);
  }
  for (size_t i = videos.size(); i > 1; --i) {
    std::swap(videos[i - 1], videos[static_cast<size_t>(
                                 rng.UniformInt(static_cast<int>(i)))]);
  }
  for (size_t i = 0; i < arrivals.size(); ++i) arrivals[i].video = videos[i];
  return arrivals;
}

}  // namespace perfbench
