#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <string_view>

namespace perfbench {

f64 cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<f64>(ts.tv_sec) + static_cast<f64>(ts.tv_nsec) * 1e-9;
}

f64 peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<f64>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

f64 percentile(std::vector<f64> v, f64 q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const f64 pos = std::clamp(q, 0.0, 1.0) * static_cast<f64>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const f64 frac = pos - static_cast<f64>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

f64 median(std::vector<f64> v) { return percentile(std::move(v), 0.5); }

f64 sum_of_minima(const std::vector<std::vector<f64>>& rows) {
  if (rows.empty()) return 0.0;
  std::vector<f64> mins = rows.front();
  for (const std::vector<f64>& row : rows) {
    for (std::size_t c = 0; c < mins.size(); ++c) {
      mins[c] = std::min(mins[c], row[c]);
    }
  }
  f64 sum = 0.0;
  for (const f64 m : mins) sum += m;
  return sum;
}

void digest_mix(u64& h, u64 v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
}

void SpanLog::open(std::string name) {
  if (!enabled_) return;
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start = cpu_seconds();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
}

void SpanLog::close(std::string args) {
  if (!enabled_ || stack_.empty()) return;
  Span& s = spans_[static_cast<std::size_t>(stack_.back())];
  s.end = cpu_seconds();
  s.args = std::move(args);
  stack_.pop_back();
}

std::vector<f64> SpanLog::self_seconds() const {
  std::vector<f64> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const f64 dur = spans_[i].end - spans_[i].start;
    self[i] += dur;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -= dur;
    }
  }
  return self;
}

f64 SpanLog::total_seconds(const std::string& name, std::size_t from) const {
  f64 total = 0.0;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += spans_[i].end - spans_[i].start;
  }
  return total;
}

std::string SpanLog::to_json() const {
  std::string out = "{\"traceEvents\":[\n";
  const f64 t0 = spans_.empty() ? 0.0 : spans_.front().start;
  const std::vector<f64> self = self_seconds();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"pid\":1,\"tid\":1,\"ph\":\"X\",\"name\":\"%s\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"self_us\":%.3f",
                  s.name.c_str(), (s.start - t0) * 1e6,
                  (s.end - s.start) * 1e6, i, s.parent, self[i] * 1e6);
    out += i == 0 ? "" : ",\n";
    out += buf;
    if (!s.args.empty()) out += "," + s.args;
    out += "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

namespace {

/// The text right after the first `key` in one trace line, or nullptr.
const char* field(const std::string& line, std::string_view key) {
  const std::size_t at = line.find(key);
  return at == std::string::npos ? nullptr : line.c_str() + at + key.size();
}

/// "<sec>.<6 digits>" microsecond timestamp back to integer picoseconds.
u64 parse_ts_ps(const char* p) {
  char* end = nullptr;
  const u64 whole = std::strtoull(p, &end, 10);
  u64 frac = 0;
  if (*end == '.') frac = std::strtoull(end + 1, nullptr, 10);
  return whole * 1000000ull + frac;
}

}  // namespace

std::vector<f64> iteration_spans_us(const std::string& trace_json,
                                    bool* balanced) {
  struct Open {
    bool iteration = false;
    u64 ps = 0;
  };
  std::map<u64, std::vector<Open>> open;  // by row (tid)
  std::vector<f64> out;
  *balanced = true;
  std::size_t pos = 0;
  while (pos < trace_json.size()) {
    std::size_t eol = trace_json.find('\n', pos);
    if (eol == std::string::npos) eol = trace_json.size();
    const std::string line = trace_json.substr(pos, eol - pos);
    pos = eol + 1;
    const char* ph = field(line, "\"ph\":\"");
    const char* tid = field(line, "\"tid\":");
    const char* ts = field(line, "\"ts\":");
    if (ph == nullptr || tid == nullptr || ts == nullptr) continue;
    const u64 row = std::strtoull(tid, nullptr, 10);
    if (*ph == 'B') {
      const char* cat = field(line, "\"cat\":\"");
      std::vector<Open>& stack = open[row];
      // A host fallback runs its iteration inside the in-network one, on
      // the same row: only the outermost iteration span is a sample.
      const bool outer = std::none_of(stack.begin(), stack.end(),
                                      [](const Open& o) { return o.iteration; });
      const bool iteration = outer && cat != nullptr &&
                             std::string(cat).rfind("iteration\"", 0) == 0;
      stack.push_back({iteration, parse_ts_ps(ts)});
    } else if (*ph == 'E') {
      std::vector<Open>& stack = open[row];
      if (stack.empty()) {
        *balanced = false;
        continue;
      }
      const Open o = stack.back();
      stack.pop_back();
      if (o.iteration) {
        out.push_back(static_cast<f64>(parse_ts_ps(ts) - o.ps) / 1e6);
      }
    }
  }
  for (const auto& [row, stack] : open) {
    if (!stack.empty()) *balanced = false;
  }
  return out;
}

}  // namespace perfbench
