#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// One open-loop arrival, fixed before the run starts.
struct Arrival {
  int64_t due_us = 0;  ///< Offset from the start of the pass.
  int phase = 0;       ///< Index into the phase list.
  uint64_t session = 0;
  uint64_t tenant = 0;
  int video = 0;  ///< Index of the (distinct) video this request sends.
};

/// A constant-rate stretch of the open loop.
struct Phase {
  double rate_per_s = 0.0;
  double seconds = 0.0;
};

inline constexpr int kSessions = 64;
inline constexpr int kTenants = 4;

/// Poisson arrivals for consecutive phases, a pure function of `seed`.
/// Sessions are drawn uniformly from `kSessions` ids; the tenant is the
/// session modulo `kTenants`. Videos are a seeded permutation of
/// [first_video, first_video + size), so every request sends a video no
/// other request sends.
std::vector<Arrival> MakeSchedule(uint64_t seed,
                                  const std::vector<Phase>& phases,
                                  int first_video);

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_
