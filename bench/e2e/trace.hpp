#pragma once
/// \file trace.hpp
/// In-memory span recorder for the end-to-end benchmark. The benchmark
/// times every layer from outside, by wrapping the public calls into it; a
/// wrapper opens a span on entry and closes it on exit. Spans carry a name,
/// start, end, the enclosing span (parent) and the id of the operation they
/// belong to; they stay in memory until the run ends and are then written
/// out as one JSON document. Per-name totals follow the named-accumulator
/// idiom (one accumulator per span name, looked up once by id).
///
/// A disabled Tracer records nothing: untraced runs never construct the
/// wrappers at all, so the end-to-end numbers carry no tracing cost.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/json.hpp"

namespace omniboost::e2e {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p t.
inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

class Tracer {
 public:
  using NameId = std::uint32_t;
  static constexpr std::int64_t kNoParent = -1;

  struct Span {
    NameId name = 0;
    double start_us = 0.0;
    double end_us = 0.0;
    std::int64_t parent = kNoParent;
    std::uint64_t op = 0;
  };

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, NameId name) : tracer_(&tracer) {
      index_ = tracer.open(name);
    }
    ~Scope() { tracer_->close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Interns a span name; call once per name, outside the hot path.
  NameId name(const std::string& n) {
    const auto it = ids_.find(n);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<NameId>(names_.size());
    names_.push_back(n);
    ids_.emplace(n, id);
    return id;
  }

  /// Starts a new operation: spans opened from now on carry its id.
  std::uint64_t begin_op() { return ++op_; }

  std::size_t open(NameId name) {
    Span s;
    s.name = name;
    s.start_us = now_us();
    s.parent = open_.empty() ? kNoParent
                             : static_cast<std::int64_t>(open_.back());
    s.op = op_;
    spans_.push_back(s);
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    spans_[index].end_us = now_us();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  /// Total and self time (microseconds) and span count per name. Self time
  /// is a span's duration minus the durations of its direct children.
  struct Totals {
    double total_us = 0.0;
    double self_us = 0.0;
    std::size_t count = 0;
  };
  std::unordered_map<std::string, Totals> totals() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent)
        child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
    std::unordered_map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Totals& t = out[names_[s.name]];
      t.total_us += s.end_us - s.start_us;
      t.self_us += s.end_us - s.start_us - child_us[i];
      ++t.count;
    }
    return out;
  }

  /// Writes every span as `[name, start_us, end_us, parent, op]` rows.
  bool write(const std::string& path, util::Json header) const {
    util::Json names = util::Json::array();
    for (const std::string& n : names_) names.push_back(util::Json::string(n));
    header.set("names", std::move(names));
    header.set("span_columns", [] {
      util::Json cols = util::Json::array();
      for (const char* c : {"name", "start_us", "end_us", "parent", "op"})
        cols.push_back(util::Json::string(c));
      return cols;
    }());
    // The header object is closed by hand so the span rows stream out
    // without building a second tree of ~1e5 nodes.
    const std::string head = header.dump();
    std::ofstream out(path);
    out << head.substr(0, head.size() - 1) << ",\"spans\":[";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf), "%s[%u,%.3f,%.3f,%lld,%llu]",
                    i == 0 ? "" : ",", s.name, s.start_us, s.end_us,
                    static_cast<long long>(s.parent),
                    static_cast<unsigned long long>(s.op));
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, NameId> ids_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint64_t op_ = 0;
};

}  // namespace omniboost::e2e
