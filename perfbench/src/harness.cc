#include "harness.h"

#include <dirent.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double CurrentRssMb() {
  malloc_trim(0);
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

StealSampler::StealSampler() : thread_([this] { Run(); }) {}

StealSampler::~StealSampler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void StealSampler::Run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    lock.unlock();
    Sample s;
    s.t = Clock::now();
    unsigned long long v[8] = {};
    std::FILE* f = std::fopen("/proc/stat", "r");
    bool ok = f != nullptr &&
              std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                          &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8;
    if (f != nullptr) std::fclose(f);
    // Busy time: everything but idle (v[3]) and iowait (v[4]), steal included.
    for (unsigned long long x : v) s.busy += x;
    s.busy -= v[3] + v[4];
    s.steal = v[7];
    lock.lock();
    if (ok) samples_.push_back(s);
    cv_.wait_for(lock, std::chrono::milliseconds(100), [this] { return stop_; });
  }
}

double StealSampler::StolenShare(Clock::time_point a, Clock::time_point b) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Sample* from = nullptr;
  const Sample* to = nullptr;
  for (const Sample& s : samples_) {
    if (s.t <= a || from == nullptr) from = &s;
    if (to == nullptr && s.t >= b) to = &s;
  }
  if (to == nullptr && !samples_.empty()) to = &samples_.back();
  if (from == nullptr || to->busy <= from->busy) return 0;
  return static_cast<double>(to->steal - from->steal) /
         static_cast<double>(to->busy - from->busy);
}

CoreRotation::CoreRotation(Clock::time_point start) : start_(start) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cores_.push_back(c);
  }
}

namespace {

/// Sets the allowed cores of every thread of this process. A thread that
/// exits meanwhile is skipped.
void SetProcessAffinity(const cpu_set_t& set) {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (const dirent* e = readdir(dir)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
    if (tid > 0) sched_setaffinity(tid, sizeof(set), &set);
  }
  closedir(dir);
}

}  // namespace

CoreRotation::~CoreRotation() {
  if (cores_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cores_) CPU_SET(c, &set);
  SetProcessAffinity(set);
}

void CoreRotation::Tick(Clock::time_point now) {
  if (cores_.size() < 2) return;
  const int64_t second =
      std::chrono::duration_cast<std::chrono::seconds>(now - start_).count();
  if (second == second_) return;
  second_ = second;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cores_[static_cast<size_t>(second) % cores_.size()], &set);
  SetProcessAffinity(set);
}

StealSampler& HostSteal() {
  static StealSampler sampler;
  return sampler;
}

bool HostDisturbed(Clock::time_point a, Clock::time_point b) {
  return HostSteal().StolenShare(a, b) > kMaxStolenShare;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Tally::Fail(const std::string& what) {
  if (failed_.fetch_add(1) < 5) {
    std::fprintf(stderr, "perfbench: failed statement: %s\n", what.c_str());
  }
}

std::string Report::ResultJson(const Tally& tally, bool correct) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted());
  out += ", \"failed\": " + std::to_string(tally.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char num[64];
    double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  return out;
}

std::vector<double> SpanLog::All(const std::string& span) const {
  std::vector<double> out;
  auto it = samples_.find(span);
  if (it == samples_.end()) return out;
  for (const auto& [cls, v] : it->second) out.insert(out.end(), v.begin(), v.end());
  return out;
}

std::vector<std::string> SpanLog::ClassTable() const {
  std::vector<std::string> out;
  for (const auto& [span, by_class] : samples_) {
    for (const auto& [cls, v] : by_class) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "layer %-26s class %-14s n=%-7zu p50=%-12.3f p99=%.3f",
                    span.c_str(), cls.c_str(), v.size(), Median(v),
                    Percentile(v, 0.99));
      out.push_back(line);
    }
  }
  return out;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Latencies per interval of a window, only of the intervals kept.
struct Intervals {
  double len = 0;
  int cut = 0;
  std::vector<std::vector<double>> kept;
};

Intervals SplitWindow(const std::vector<TimedSample>& samples,
                      const Window& w) {
  const double min_len =
      std::max(1.0, kMinReadsPerInterval * w.seconds /
                        static_cast<double>(std::max<size_t>(1, samples.size())));
  const size_t n = std::max<size_t>(1, static_cast<size_t>(w.seconds / min_len));
  const double len = w.seconds / static_cast<double>(n);
  std::vector<std::vector<double>> values(n);
  for (const TimedSample& s : samples) {
    size_t i = static_cast<size_t>(s.at_s / len);
    if (i < n) values[i].push_back(s.us);
  }
  std::vector<bool> keep(n);
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    auto at = [&](size_t k) {
      return w.start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(len * static_cast<double>(k)));
    };
    keep[i] = !HostDisturbed(at(i), at(i + 1));
    kept += keep[i];
  }
  const bool noisy_throughout = kept * 4 < n;  // then keep every interval
  Intervals out;
  out.len = len;
  out.cut = static_cast<int>(n);
  for (size_t i = 0; i < n; ++i) {
    if (keep[i] || noisy_throughout) out.kept.push_back(std::move(values[i]));
  }
  return out;
}

}  // namespace

void AddLayerMetrics(const LayerInputs& in, Report* r) {
  const SpanLog& s = *in.spans;
  const double deliver_p50 = s.P50("replication.deliver");
  r->Add("sql.parse_us", s.P50("sql.parse"), "us");
  r->Add("plan.lookup_us", s.P50("plan.lookup"), "us");
  r->Add("plan.l1_hit_ratio", Ratio(in.l1_hits, in.lookups), "ratio");
  r->Add("plan.hit_ratio", Ratio(in.hits, in.lookups), "ratio");
  r->Add("optimizer.prepare_us", s.P50("optimizer.prepare"), "us");
  r->Add("cache.execute_prepared_us", s.P50("cache.execute_prepared"), "us");
  r->Add("exec.setup_us", s.P50("exec.setup"), "us");
  r->Add("exec.run_us", s.P50("exec.run"), "us");
  r->Add("exec.shutdown_us", s.P50("exec.shutdown"), "us");
  r->Add("exec.run_ns_per_row",
         Ratio(in.exec_run_us_total * 1000.0, static_cast<double>(in.exec_rows)),
         "ns");
  r->Add("exec.switch_local", static_cast<double>(in.switch_local), "count");
  r->Add("exec.switch_remote", static_cast<double>(in.switch_remote), "count");
  r->Add("exec.guard_evaluations", static_cast<double>(in.guard_evaluations),
         "count");
  r->Add("backend.remote_us", s.P50("backend.remote"), "us");
  r->Add("core.select_us", s.P50("core.select"), "us");
  r->Add("core.update_us", s.P50("core.update"), "us");
  r->Add("server.encode_us", s.P50("server.encode"), "us");
  r->Add("server.decode_us", s.P50("server.decode"), "us");
  r->Add("server.bytes_per_stmt", in.bytes_per_stmt, "B");
  r->Add("server.overhead_us",
         in.wire_read_p50_us > 0 ? in.wire_read_p50_us - s.P50("core.select")
                                 : 0,
         "us");
  r->Add("server.quiesce_us",
         in.quiesce_step_us.empty() ? 0 : Median(in.quiesce_step_us) - deliver_p50,
         "us");
  r->Add("fleet.route_us", s.P50("fleet.route"), "us");
  r->Add("fleet.probes_per_select",
         Ratio(static_cast<double>(in.probes), static_cast<double>(in.routed)),
         "count");
  r->Add("fleet.backend_route_ratio",
         Ratio(static_cast<double>(in.backend_routes),
               static_cast<double>(in.route_observations)),
         "ratio");
  r->Add("fleet.fallthroughs",
         static_cast<double>(in.route_observations - in.routed), "count");
  r->Add("replication.deliver_us", deliver_p50, "us");
  r->Add("replication.deliver_p99_us", s.P99("replication.deliver"), "us");
  r->Add("replication.ops_per_delivery",
         Ratio(static_cast<double>(in.ops), static_cast<double>(in.deliveries)),
         "count");
  r->Add("replication.ns_per_view_row", Median(in.ns_per_view_row), "ns");
  r->Add("write_p99_us", Percentile(in.write_us, 0.99), "us");
  r->Add("trace.overhead_ratio", Ratio(in.qps_traced, in.qps_untraced),
         "ratio");
  r->Add("error_ratio", in.error_ratio, "ratio");
}

double QuietP50(const std::vector<TimedSample>& samples, const Window& window) {
  std::vector<double> all, kept;
  for (const TimedSample& s : samples) {
    const Clock::time_point end =
        window.start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(s.at_s));
    all.push_back(s.us);
    const auto took = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::micro>(s.us));
    if (!HostDisturbed(end - took, end)) kept.push_back(s.us);
  }
  return Median(kept.size() * 4 < all.size() ? all : kept);
}

ReadStats ReadStatsOf(const std::vector<TimedSample>& reads,
                      const Window& window) {
  Intervals iv = SplitWindow(reads, window);
  std::vector<double> qps, p50, kept;
  for (const std::vector<double>& v : iv.kept) {
    qps.push_back(static_cast<double>(v.size()) / iv.len);
    kept.insert(kept.end(), v.begin(), v.end());
    if (!v.empty()) p50.push_back(Median(v));
  }
  return {Median(qps), Median(p50), Percentile(kept, 0.99), iv.cut,
          static_cast<int>(iv.kept.size())};
}

void SliceQps::Add(bool traced, const Window& slice, double qps) {
  all_[traced].push_back(qps);
  const auto end = slice.start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(slice.seconds));
  if (!HostDisturbed(slice.start, end)) kept_[traced].push_back(qps);
}

double SliceQps::Median(bool traced) const {
  return perfbench::Median(kept_[traced].empty() ? all_[traced] : kept_[traced]);
}

void AddEndToEndMetrics(const EndToEnd& e, Report* r) {
  char line[128];
  std::snprintf(line, sizeof(line),
                "read intervals: %d, kept %d (the host stole over %.0f%% of the busy CPU in the rest)",
                e.reads.intervals, e.reads.used, kMaxStolenShare * 100);
  r->Note(line);
  r->Add("setup_s", e.setup_s, "s");
  r->Add("read_qps", e.reads.qps, "1/s");
  r->Add("read_p50_us", e.reads.p50_us, "us");
  r->Add("read_p99_us", e.reads.p99_us, "us");
  r->Add("write_p50_us", e.write_p50_us, "us");
  r->Add("delivery_p50_us", e.delivery_p50_us, "us");
  r->Add("peak_rss_mb", e.peak_rss_mb, "MB");
}

int Finish(const Report& report, const Tally& tally, bool correct) {
  for (const std::string& line : report.notes()) std::printf("%s\n", line.c_str());
  std::printf("%s\n", report.ResultJson(tally, correct).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
