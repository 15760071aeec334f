// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent, key): the name is the layer call
// `<module>.<stage>`, the parent is the span that was open when it began,
// and the key ties the spans of one session or request together. Spans are
// recorded only around calls made from the benchmark's own files, kept in
// memory, and written out once when the run ends (write_jsonl). Counters
// (rows, bytes, calls) live beside them under the same layer names.
//
// A disabled tracer records nothing; Span is then a no-op, so the untraced
// run pays one branch per call site.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into spans(), -1 for a root span
  std::string key;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  std::int64_t open(const char* name, std::string key = {});
  void close(std::int64_t id);

  /// Adds `amount` to the counter `name` (no-op when disabled).
  void count(const std::string& name, double amount = 1.0);
  double counter(const std::string& name) const;

  /// Durations (ms) of every closed span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  double total_ms(const std::string& name) const;
  std::size_t calls(const std::string& name) const;

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes one JSON header line, then one line per span.
  void write_jsonl(const std::string& path, const std::string& header) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> open_;
  std::map<std::string, double> counters_;
};

/// Scoped span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::string key = {})
      : tracer_(tracer), id_(tracer.open(name, std::move(key))) {}
  ~Span() { tracer_.close(id_); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
