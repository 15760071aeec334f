#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "util/json.hpp"

namespace perfbench {

namespace {
std::int64_t ns_since(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}
}  // namespace

std::int64_t Tracer::open(const char* name, std::string key) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.key = std::move(key);
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(std::move(span));
  open_.push_back(id);
  spans_.back().start_ns = ns_since(epoch_);
  return id;
}

void Tracer::close(std::int64_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = ns_since(epoch_);
  // Scoped spans close innermost first, so `id` is on top of the stack.
  const auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

void Tracer::count(const std::string& name, double amount) {
  if (enabled_) counters_[name] += amount;
}

double Tracer::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

double Tracer::total_ms(const std::string& name) const {
  double total = 0.0;
  for (const double ms : durations_ms(name)) total += ms;
  return total;
}

std::size_t Tracer::calls(const std::string& name) const {
  return durations_ms(name).size();
}

void Tracer::write_jsonl(const std::string& path,
                         const std::string& header) const {
  namespace json = pwu::util::json;
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write span dump " + path);
  out << header << '\n';
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    json::Object obj;
    obj.emplace("id", json::Value(i));
    obj.emplace("name", json::Value(span.name));
    obj.emplace("start_us", json::Value(static_cast<double>(span.start_ns) / 1e3));
    obj.emplace("end_us", json::Value(static_cast<double>(span.end_ns) / 1e3));
    obj.emplace("parent", json::Value(static_cast<double>(span.parent)));
    obj.emplace("key", json::Value(span.key));
    out << json::Value(std::move(obj)).dump() << '\n';
  }
  json::Object counters;
  for (const auto& [name, value] : counters_) {
    counters.emplace(name, json::Value(value));
  }
  json::Object footer;
  footer.emplace("counters", json::Value(std::move(counters)));
  out << json::Value(std::move(footer)).dump() << '\n';
}

}  // namespace perfbench
