// Shared plumbing of the repository benchmark: command-line options, the
// result report, latency samples, per-layer span logs and small timing
// helpers. Everything here is workload-agnostic; the workloads live in
// tpcd_workloads.cc (point_read, scan_update) and fleet_workload.cc
// (fleet_route).

#ifndef RCC_PERFBENCH_HARNESS_H_
#define RCC_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double UsSince(Clock::time_point t0) {
  return UsBetween(t0, Clock::now());
}

/// Real-time microseconds spent in `fn`.
template <typename Fn>
double TimeUs(Fn&& fn) {
  Clock::time_point t0 = Clock::now();
  fn();
  return UsSince(t0);
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes: every metric is still emitted, nothing is meant to be
  /// steady. Used by the benchmark's own smoke test.
  bool smoke = false;
};

/// Nearest-rank percentile of `v` (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Attempted/failed statement accounting, shared by client threads. Every
/// kind of miss — statement error, kOverloaded refusal, expired deadline,
/// wrong answer, protocol error, unexpected plan shape — is one failure.
class Tally {
 public:
  void Attempt() { attempted_.fetch_add(1); }
  /// Counts one failure; the first few are described on stderr.
  void Fail(const std::string& what);
  int64_t attempted() const { return attempted_.load(); }
  int64_t failed() const { return failed_.load(); }

 private:
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }
  /// Extra facts the workload wants on stdout ahead of the result line.
  void Note(const std::string& line) { notes_.push_back(line); }
  std::string ResultJson(const Tally& tally, bool correct) const;
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> notes_;
};

/// Samples (µs or counts) per layer span, split by statement class. The
/// traced run fills one; per-layer metrics are read from it.
class SpanLog {
 public:
  void Add(const std::string& span, const std::string& cls, double v) {
    samples_[span][cls].push_back(v);
  }
  /// Every sample of `span`, all classes pooled.
  std::vector<double> All(const std::string& span) const;
  double P50(const std::string& span) const { return Median(All(span)); }
  double P99(const std::string& span) const {
    return Percentile(All(span), 0.99);
  }
  /// Human-readable per-class p50 table (one line per span x class).
  std::vector<std::string> ClassTable() const;

 private:
  std::map<std::string, std::map<std::string, std::vector<double>>> samples_;
};

/// Inputs every workload reports through the same per-layer metric list
/// (BENCHMARK.json `per_layer`). A layer the workload does not exercise
/// reports 0; README.md says which.
struct LayerInputs {
  const SpanLog* spans = nullptr;
  /// Plan-cache lookups of the in-process replay and how many hit / hit L1.
  int64_t lookups = 0, hits = 0, l1_hits = 0;
  /// Executor counters summed over the replay's ExecutePrepared calls.
  int64_t switch_local = 0, switch_remote = 0, guard_evaluations = 0;
  int64_t exec_rows = 0;
  double exec_run_us_total = 0;
  /// Wire-only inputs (0 for the in-process fleet workload).
  double wire_read_p50_us = 0;
  double bytes_per_stmt = 0;
  std::vector<double> quiesce_step_us;  ///< AdvanceVirtualTime, delivering steps
  /// Fleet route observations of the replay.
  int64_t routed = 0, route_observations = 0, probes = 0, backend_routes = 0;
  /// Replication: deliveries and ops raised by the replay's steps, and the
  /// per-step ns per row of the delivering regions' views.
  int64_t deliveries = 0, ops = 0;
  std::vector<double> ns_per_view_row;
  std::vector<double> write_us;  ///< every timed write of the traced run
  double qps_untraced = 0, qps_traced = 0;
  double error_ratio = 0;
};

/// Adds every per-layer metric, in BENCHMARK.json order.
void AddLayerMetrics(const LayerInputs& in, Report* report);

/// One timed operation: when it completed (seconds into its window) and
/// its latency.
struct TimedSample {
  double at_s;
  double us;
};

/// CPU time the hypervisor took from this machine ("steal" in /proc/stat),
/// sampled every 100 ms by a background thread for the whole process.
class StealSampler {
 public:
  StealSampler();
  ~StealSampler();
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Share of the busy CPU time between `a` and `b` that was stolen (so a
  /// one-thread workload is judged by its own core); 0 when unknown.
  double StolenShare(Clock::time_point a, Clock::time_point b) const;

 private:
  struct Sample {
    Clock::time_point t;
    uint64_t steal = 0, busy = 0;
  };
  void Run();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;          // guarded by mu_
  std::vector<Sample> samples_;  // guarded by mu_
  std::thread thread_;  // last: starts once the members above exist
};

/// The process-wide sampler; main() starts it before any window.
StealSampler& HostSteal();

/// An interval in which the host stole more than this share of the busy
/// CPU time is host noise, not a measurement of the program.
constexpr double kMaxStolenShare = 0.05;

/// True when the host stole more than kMaxStolenShare over [a, b).
bool HostDisturbed(Clock::time_point a, Clock::time_point b);

/// A measured window: its samples are timed from `start`.
struct Window {
  Clock::time_point start;
  double seconds = 0;
};

/// Reads are counted over equal intervals of at least one second that hold
/// at least kMinReadsPerInterval reads each, one interval for windows under
/// two seconds. Intervals the host disturbed are left out, unless that
/// leaves fewer than a quarter of them: a few seconds of host noise then
/// move a few intervals at most, not the result.
constexpr double kMinReadsPerInterval = 100;

/// p50 latency of the sparse series (writes, deliveries): samples timed
/// while the host was disturbed are left out, unless that leaves fewer
/// than a quarter of them.
double QuietP50(const std::vector<TimedSample>& samples, const Window& window);

/// Read throughput and latency of a window: the medians over its kept
/// intervals of each interval's QPS and p50, and the p99 of all reads in
/// the kept intervals (so at least ten lie beyond it once 1,000 are kept).
struct ReadStats {
  double qps = 0, p50_us = 0, p99_us = 0;
  int intervals = 0, used = 0;  // intervals cut, and kept (not disturbed)
};
ReadStats ReadStatsOf(const std::vector<TimedSample>& reads,
                      const Window& window);

/// Keeps every thread of the process on one core, moving them all to the
/// next allowed core each second. A single-threaded client then does not
/// spend a whole run on one core with a noisy neighbour: that core holds a
/// share of the intervals, which the median over intervals outvotes. A
/// client/server run hands each request between threads on one core, so
/// no hand-off waits for another virtual CPU to be woken; on a shared host
/// that wait reached milliseconds and cut point_read's QPS 2-4x for minutes
/// at a time. Threads created after a move start on the current core.
/// Restores the process's cores on destruction.
class CoreRotation {
 public:
  explicit CoreRotation(Clock::time_point start);
  ~CoreRotation();
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;
  /// Call often; moves the threads when a new second has begun.
  void Tick(Clock::time_point now);

 private:
  Clock::time_point start_;
  std::vector<int> cores_;
  int64_t second_ = -1;
};

/// Current resident set size of this process, MiB, after returning freed
/// heap memory to the system.
double CurrentRssMb();

/// Adds every end-to-end metric, in BENCHMARK.json order.
struct EndToEnd {
  double setup_s = 0;
  ReadStats reads;
  double write_p50_us = 0;
  double delivery_p50_us = 0;
  /// Peak resident set of the program: the peak up to the window's start
  /// and the resident set after it, once the latency samples are freed
  /// (their size follows throughput, which the metric must not).
  double peak_rss_mb = 0;
};
void AddEndToEndMetrics(const EndToEnd& e2e, Report* report);

/// The traced run alternates untraced and traced one-second slices (so host
/// drift hits both alike); trace.overhead_ratio compares their median QPS.
inline int TraceSlices(double seconds) {
  return std::max(2, static_cast<int>(seconds));
}

/// Read QPS of each untraced and traced slice. The median of each side
/// leaves out slices the host disturbed, unless all of that side were.
class SliceQps {
 public:
  void Add(bool traced, const Window& slice, double qps);
  double Median(bool traced) const;

 private:
  std::vector<double> all_[2], kept_[2];
};

/// Median of `runs` timed calls of `setup` (seconds); the last call's
/// product is kept in `*keep`.
template <typename T, typename Fn>
double MedianSetupSeconds(int runs, T* keep, Fn&& setup) {
  std::vector<double> secs;
  for (int i = 0; i < runs; ++i) {
    *keep = T();  // tear the previous one down outside the timed region
    Clock::time_point t0 = Clock::now();
    *keep = setup();
    secs.push_back(UsSince(t0) / 1e6);
  }
  return Median(secs);
}

int RunPointRead(const Options& opts);
int RunScanUpdate(const Options& opts);
int RunFleetRoute(const Options& opts);

/// Prints notes, then the result line last; returns the exit code.
int Finish(const Report& report, const Tally& tally, bool correct);

}  // namespace perfbench

#endif  // RCC_PERFBENCH_HARNESS_H_
