#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

Percentile NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const size_t n = values.size();
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return {values[rank - 1], n};
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

bool BacklogGrowing(const std::vector<double>& latencies_in_send_order) {
  const size_t quarter = latencies_in_send_order.size() / 4;
  if (quarter == 0) return false;
  const auto begin = latencies_in_send_order.begin();
  const double first = Median(std::vector<double>(begin, begin + quarter));
  const double last = Median(std::vector<double>(
      latencies_in_send_order.end() - static_cast<std::ptrdiff_t>(quarter),
      latencies_in_send_order.end()));
  return last > 2.0 * first && last - first > kBacklogSlackUs;
}

StepVerdict JudgeStep(const LadderStep& step) {
  StepVerdict verdict;
  verdict.p50_us = NearestRank(step.latencies_us, 0.5).value;
  verdict.served_share =
      step.sent == 0 ? 0.0
                     : static_cast<double>(step.served) /
                           static_cast<double>(step.sent);
  verdict.backlog = BacklogGrowing(step.latencies_us);
  verdict.meets = step.sent > 0 && verdict.p50_us <= kP50LimitUs &&
                  !verdict.backlog &&
                  verdict.served_share >= kMinServedShare;
  return verdict;
}

double MaxRate(const std::vector<LadderStep>& ladder) {
  double best = 0.0;
  for (const LadderStep& step : ladder) {
    if (!JudgeStep(step).meets) break;
    best = step.rate_rps;
  }
  return best;
}

double Trace::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

Trace::Span::Span(Trace* trace, std::string name) : trace_(trace) {
  if (trace_ == nullptr || !trace_->enabled_) return;
  index_ = static_cast<int>(trace_->events_.size());
  trace_->events_.push_back(
      Event{std::move(name), trace_->open_, trace_->NowUs(), 0.0});
  trace_->open_ = index_;
}

Trace::Span::~Span() {
  if (index_ < 0) return;
  Event& event = trace_->events_[static_cast<size_t>(index_)];
  event.dur_us = trace_->NowUs() - event.start_us;
  trace_->open_ = event.parent;
}

std::vector<double> Trace::Durations(const std::string& name) const {
  std::vector<double> seconds;
  for (const Event& e : events_) {
    if (e.name == name) seconds.push_back(e.dur_us * 1e-6);
  }
  return seconds;
}

double Trace::ChildSeconds(int parent) const {
  double us = 0.0;
  for (const Event& e : events_) {
    if (e.parent == parent) us += e.dur_us;
  }
  return us * 1e-6;
}

void Trace::WriteChrome(std::ostream& os) const {
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\": " << JsonString(e.name)
       << ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
       << ", \"ts\": " << JsonNumber(e.start_us)
       << ", \"dur\": " << JsonNumber(e.dur_us) << ", \"args\": {\"id\": " << i
       << ", \"parent\": " << e.parent << "}}";
  }
  os << "\n]}\n";
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

std::string Metrics::ToJson() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, entry] : values_) {
    os << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
       << JsonNumber(entry.first) << ", \"unit\": " << JsonString(entry.second)
       << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

std::string JsonString(const std::string& raw) {
  std::string out = "\"";
  for (const char c : raw) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

namespace {

double StatusFieldMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == field) {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

}  // namespace

double PeakRssMb() { return StatusFieldMb("VmHWM:"); }

double CurrentRssMb() { return StatusFieldMb("VmRSS:"); }

}  // namespace perfbench
