// Open-loop hygiene: the arrival schedule and the videos it sends are a
// pure function of the seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "schedule.h"
#include "setup.h"

namespace perfbench {
namespace {

const std::vector<Phase> kPhases = {{200.0, 2.0}, {500.0, 1.0}};

bool Same(const std::vector<Arrival>& a, const std::vector<Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_us != b[i].due_us || a[i].phase != b[i].phase ||
        a[i].session != b[i].session || a[i].tenant != b[i].tenant ||
        a[i].video != b[i].video) {
      return false;
    }
  }
  return true;
}

TEST(ScheduleTest, SameSeedSameSchedule) {
  EXPECT_TRUE(Same(MakeSchedule(7, kPhases, 0), MakeSchedule(7, kPhases, 0)));
}

TEST(ScheduleTest, DifferentSeedDifferentSchedule) {
  const auto a = MakeSchedule(7, kPhases, 0);
  const auto b = MakeSchedule(8, kPhases, 0);
  EXPECT_FALSE(Same(a, b));
  int same_due = 0, same_video = 0;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    same_due += a[i].due_us == b[i].due_us;
    same_video += a[i].video == b[i].video;
  }
  EXPECT_LT(same_due, 10);
  EXPECT_LT(same_video, 10);
}

TEST(ScheduleTest, PoissonRatesPhasesAndDistinctVideos) {
  const auto a = MakeSchedule(11, kPhases, 100);
  int light = 0, heavy = 0;
  std::set<int> videos;
  int64_t last = -1;
  for (const Arrival& x : a) {
    EXPECT_GE(x.due_us, last);
    last = x.due_us;
    (x.phase == 0 ? light : heavy)++;
    EXPECT_EQ(x.phase, x.due_us < 2'000'000 ? 0 : 1);
    EXPECT_LT(x.session, static_cast<uint64_t>(kSessions));
    EXPECT_EQ(x.tenant, x.session % kTenants);
    videos.insert(x.video);
  }
  EXPECT_NEAR(light, 400, 80);  // 200 req/s for 2 s.
  EXPECT_NEAR(heavy, 500, 100);  // 500 req/s for 1 s.
  EXPECT_EQ(videos.size(), a.size());
  EXPECT_EQ(*videos.begin(), 100);
  EXPECT_EQ(*videos.rbegin(), 100 + static_cast<int>(a.size()) - 1);
}

uint64_t Fingerprint(const vsd::data::Dataset& d) {
  uint64_t h = 1469598103934665603ULL;
  for (const auto& v : d.samples) {
    for (float p : v.expressive_frame.pixels()) {
      uint32_t bits;
      std::memcpy(&bits, &p, sizeof bits);
      h = (h ^ bits) * 1099511628211ULL;
    }
  }
  return h;
}

TEST(ScheduleTest, VideosFollowTheSeed) {
  Tracer off(false);
  EXPECT_EQ(Fingerprint(RenderVideos(4, 5, &off, -1)),
            Fingerprint(RenderVideos(4, 5, &off, -1)));
  EXPECT_NE(Fingerprint(RenderVideos(4, 5, &off, -1)),
            Fingerprint(RenderVideos(4, 6, &off, -1)));
}

}  // namespace
}  // namespace perfbench
