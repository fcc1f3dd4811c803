#include <gtest/gtest.h>

#include <string>

#include "sim/engine.hpp"
#include "util/error.hpp"

namespace chicsim::sim {
namespace {

TEST(PeriodicTimer, FiresOnSchedule) {
  Engine engine;
  std::vector<double> fire_times;
  PeriodicTimer timer(engine, 10.0, 5.0, [&] { fire_times.push_back(engine.now()); });
  engine.run_until(27.0);
  timer.stop();
  EXPECT_EQ(fire_times, (std::vector<double>{10.0, 15.0, 20.0, 25.0}));
}

TEST(PeriodicTimer, StopPreventsFurtherFires) {
  Engine engine;
  int fires = 0;
  PeriodicTimer timer(engine, 1.0, 1.0, [&] {
    if (++fires == 3) timer.stop();
  });
  engine.run();
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, DestructionCancelsPendingEvent) {
  Engine engine;
  int fires = 0;
  {
    PeriodicTimer timer(engine, 1.0, 1.0, [&] { ++fires; });
    engine.run_until(2.5);
  }
  engine.run();  // drains nothing: destructor cancelled the next fire
  EXPECT_EQ(fires, 2);
}

TEST(PeriodicTimer, StopIsIdempotent) {
  Engine engine;
  PeriodicTimer timer(engine, 1.0, 1.0, [] {});
  timer.stop();
  timer.stop();
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, NonPositivePeriodThrows) {
  Engine engine;
  EXPECT_THROW(PeriodicTimer(engine, 1.0, 0.0, [] {}), util::SimError);
  EXPECT_THROW(PeriodicTimer(engine, 1.0, -2.0, [] {}), util::SimError);
}

TEST(PeriodicTimer, PeriodBelowClockResolutionThrowsInsteadOfSpinning) {
  // At t = 1e6 s one ulp is about 1.2e-10 s, so 1e6 + 1e-12 == 1e6: a
  // re-arm there would re-fire at the same instant forever.
  Engine engine;
  int fires = 0;
  PeriodicTimer timer(engine, 1e6, 1e-12, [&] { ++fires; }, "ds_evaluate");
  try {
    engine.run();
    ADD_FAILURE() << "a timer that cannot advance time was re-armed";
  } catch (const util::SimError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("ds_evaluate"), std::string::npos) << what;
    EXPECT_NE(what.find("1e-12"), std::string::npos) << what;
    EXPECT_NE(what.find("t = 1e+06 s"), std::string::npos) << what;
  }
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(engine.now(), 1e6);
}

TEST(PeriodicTimer, CallbackMayScheduleOtherEvents) {
  Engine engine;
  int extra = 0;
  PeriodicTimer timer(engine, 1.0, 1.0, [&] {
    engine.schedule_in(0.5, [&] { ++extra; });
    if (engine.now() >= 3.0) timer.stop();
  });
  engine.run();
  EXPECT_EQ(extra, 3);
}

}  // namespace
}  // namespace chicsim::sim
