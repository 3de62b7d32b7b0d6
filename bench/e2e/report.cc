#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include <malloc.h>

#include "e2e.h"

namespace tailguard::e2e {

namespace {

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(std::string_view name, double value,
                    std::string_view unit) {
  metrics_.push_back(Metric{std::string(name), value, std::string(unit)});
}

void Report::fail(const std::string& why) {
  // Keep the output bounded when one check fails on every query.
  if (errors_.size() < 20) errors_.push_back(why);
}

std::string Report::to_json(std::string_view workload) const {
  std::string out = "{\"workload\": " + quote(workload) +
                    ", \"correct\": " + (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"digest\": " + quote(digest_) + ", \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i)
    out += (i == 0 ? "" : ", ") + quote(errors_[i]);
  out += "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out += (i == 0 ? "" : ", ") + quote(metrics_[i].name) +
           ": {\"value\": " + number(metrics_[i].value) +
           ", \"unit\": " + quote(metrics_[i].unit) + "}";
  }
  out += "}}";
  return out;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const auto idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double cpu_us(bool process) {
  // The CPU-time clocks are exact; getrusage is sampled at the scheduler
  // tick (4 ms here), coarser than one simulation call.
  timespec ts{};
  clock_gettime(process ? CLOCK_PROCESS_CPUTIME_ID : CLOCK_THREAD_CPUTIME_ID,
                &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

namespace {

/// One "Vm...:" field of /proc/self/status, in MB; 0 when absent. VmHWM
/// rather than getrusage's ru_maxrss: the latter keeps the high-water mark
/// of the process image that forked us (the Python runner).
double status_mb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  const std::size_t len = std::strlen(field);
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0) {
      kib = std::strtod(line + len, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace

PeakRssProbe::PeakRssProbe() {
  reset();
  base_mb_ = status_mb("VmRSS:");
}

void PeakRssProbe::reset() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

void PeakRssProbe::release_free_heap() { malloc_trim(0); }

double PeakRssProbe::peak_mb() const {
  return std::max(peak_mb_, status_mb("VmHWM:") - base_mb_);
}

bool TraceLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"query\": %llu, \"span\": %s, \"parent\": %s, "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 static_cast<unsigned long long>(s.query),
                 quote(s.name).c_str(),
                 s.parent[0] == '\0' ? "null" : quote(s.parent).c_str(),
                 static_cast<long long>(s.start_ns - origin_ns_),
                 static_cast<long long>(s.end_ns - origin_ns_));
  }
  for (const Aggregate& a : aggregates_) {
    std::fprintf(f,
                 "{\"span\": %s, \"parent\": \"replay\", \"aggregate\": true, "
                 "\"calls\": %llu, \"total_ns\": %s}\n",
                 quote(a.name).c_str(),
                 static_cast<unsigned long long>(a.calls),
                 number(a.total_ns).c_str());
  }
  return std::fclose(f) == 0;
}

}  // namespace tailguard::e2e
