// AdmissionGate: shed-don't-queue semantics (kUnavailable with a
// retry-after-ms hint, no partial work), the Ticket RAII, the hint
// parser RetryPolicy consumes, and the end-to-end property — a
// parallel Dimsat() request arriving beyond the gate's high-water mark is
// shed before doing any work, and runs normally once the gate drains.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/retry.h"
#include "common/status.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "exec/admission.h"
#include "exec/work_stealing_pool.h"
#include "tests/test_util.h"

namespace olapdc {
namespace {

TEST(AdmissionGateTest, AdmitsUpToHighWaterThenSheds) {
  exec::AdmissionGate gate(
      exec::AdmissionGate::Options{/*high_water=*/2, /*retry_after_ms=*/50});
  ASSERT_OK(gate.TryAdmit());
  ASSERT_OK(gate.TryAdmit());
  EXPECT_EQ(gate.in_flight(), 2);

  Status shed = gate.TryAdmit();
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(gate.in_flight(), 2);  // the shed request holds no slot
  EXPECT_EQ(gate.admitted(), 2u);
  EXPECT_EQ(gate.shed(), 1u);

  gate.Release();
  ASSERT_OK(gate.TryAdmit());  // a drained slot admits again
  gate.Release();
  gate.Release();
  EXPECT_EQ(gate.in_flight(), 0);
}

TEST(AdmissionGateTest, TicketReleasesOnlyWhenAdmitted) {
  exec::AdmissionGate gate(
      exec::AdmissionGate::Options{/*high_water=*/1, /*retry_after_ms=*/50});
  {
    exec::AdmissionGate::Ticket first(&gate);
    ASSERT_TRUE(first.admitted());
    exec::AdmissionGate::Ticket second(&gate);
    EXPECT_FALSE(second.admitted());
    EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(gate.in_flight(), 1);
  }
  // Only the admitted ticket released; the shed one had nothing to
  // release and must not drive in_flight negative.
  EXPECT_EQ(gate.in_flight(), 0);
}

TEST(AdmissionGateTest, NullGateTicketAdmitsEverything) {
  exec::AdmissionGate::Ticket ticket(nullptr);
  EXPECT_TRUE(ticket.admitted());
}

TEST(AdmissionGateTest, RetryAfterHintRoundTrips) {
  exec::AdmissionGate gate(
      exec::AdmissionGate::Options{/*high_water=*/0, /*retry_after_ms=*/123});
  Status shed = gate.TryAdmit();
  ASSERT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(exec::RetryAfterMsFromStatus(shed), 123);

  EXPECT_EQ(exec::RetryAfterMsFromStatus(Status::OK()), 0);
  EXPECT_EQ(exec::RetryAfterMsFromStatus(Status::Unavailable("no hint")), 0);
  // A shed is transient by design: the retry policy classifies it as
  // retryable, unlike a hard error.
  RetryPolicy policy;
  EXPECT_TRUE(policy.ShouldRetry(shed, 0));
  EXPECT_FALSE(policy.ShouldRetry(Status::Internal("boom"), 0));
}

TEST(AdmissionGateTest, AdaptiveHintTracksObservedDrainRate) {
  exec::AdmissionGate gate(
      exec::AdmissionGate::Options{/*high_water=*/4, /*retry_after_ms=*/5});
  // No releases observed yet: the hint is the configured floor.
  EXPECT_EQ(gate.RetryAfterMsHint(), 5);

  // Slow drain: releases ~40ms apart pull the EWMA up, so the hint a
  // shed client receives reflects roughly how long until a slot frees
  // (bounds are generous — CI timing only has to land in the ballpark).
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(gate.TryAdmit());
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    gate.Release();
  }
  const int64_t slow_hint = gate.RetryAfterMsHint();
  EXPECT_GE(slow_hint, 10);
  EXPECT_LE(slow_hint, 60000);

  // Fast drain: a burst of back-to-back releases decays the EWMA back
  // toward the floor — the hint adapts downward, not just upward.
  for (int i = 0; i < 64; ++i) {
    ASSERT_OK(gate.TryAdmit());
    gate.Release();
  }
  EXPECT_LT(gate.RetryAfterMsHint(), slow_hint);

  // One source of truth: the shed status carries the same adaptive
  // hint the HTTP plane turns into Retry-After.
  exec::AdmissionGate full(
      exec::AdmissionGate::Options{/*high_water=*/0, /*retry_after_ms=*/7});
  Status shed = full.TryAdmit();
  ASSERT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(exec::RetryAfterMsFromStatus(shed), full.RetryAfterMsHint());
}

TEST(AdmissionGateTest, DrainShedsNewAdmitsWhileInFlightKeepSlots) {
  exec::AdmissionGate gate(
      exec::AdmissionGate::Options{/*high_water=*/4, /*retry_after_ms=*/5});
  ASSERT_OK(gate.TryAdmit());
  gate.BeginDrain();
  gate.BeginDrain();  // idempotent
  EXPECT_TRUE(gate.draining());

  // Plenty of headroom, but draining sheds everything new.
  Status shed = gate.TryAdmit();
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(gate.in_flight(), 1);

  // WaitIdle times out while the in-flight request holds its slot and
  // succeeds promptly once it releases.
  EXPECT_FALSE(gate.WaitIdle(/*timeout_ms=*/20));
  gate.Release();
  EXPECT_TRUE(gate.WaitIdle(/*timeout_ms=*/1000));
  EXPECT_EQ(gate.in_flight(), 0);
}

TEST(AdmissionGateTest, ParallelDimsatIsShedBeforeDoingAnyWork) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");

  exec::WorkStealingPool pool(1);
  exec::AdmissionGate gate(
      exec::AdmissionGate::Options{/*high_water=*/1, /*retry_after_ms=*/25});
  DimsatOptions options;
  options.enumerate_all = true;
  options.pool = &pool;
  options.admission = &gate;
  options.num_threads = 2;

  // The saturated pool's slot is taken; the next request must be shed
  // immediately — kUnavailable, retry hint, and zero work performed.
  ASSERT_OK(gate.TryAdmit());
  DimsatResult shed = Dimsat(ds, store, options);
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(exec::RetryAfterMsFromStatus(shed.status), 25);
  EXPECT_FALSE(shed.satisfiable);
  EXPECT_TRUE(shed.frozen.empty());
  EXPECT_FALSE(shed.stats.Any());
  EXPECT_EQ(gate.in_flight(), 1);  // only the slot we took by hand

  // Once the gate drains the identical request runs to completion.
  gate.Release();
  DimsatResult admitted = Dimsat(ds, store, options);
  ASSERT_OK(admitted.status);
  EXPECT_EQ(admitted.frozen.size(), 4u);
  EXPECT_EQ(gate.in_flight(), 0);
  EXPECT_EQ(gate.shed(), 1u);
}

TEST(AdmissionGateTest, SequentialFallbackIgnoresTheGate) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");

  exec::AdmissionGate gate(
      exec::AdmissionGate::Options{/*high_water=*/0, /*retry_after_ms=*/50});
  DimsatOptions options;
  options.enumerate_all = true;
  options.admission = &gate;
  options.num_threads = 1;
  // The sequential engine holds no pool resources, so a full gate must
  // not block it (Dimsat() dispatches it past the gate).
  DimsatResult r = Dimsat(ds, store, options);
  ASSERT_OK(r.status);
  EXPECT_EQ(r.frozen.size(), 4u);
  EXPECT_EQ(gate.shed(), 0u);
}

}  // namespace
}  // namespace olapdc
