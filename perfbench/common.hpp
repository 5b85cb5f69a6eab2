// Shared helpers of the benchmark binary: argument lookup, a minimal JSON
// writer for the raw-sample files the Python side reads, the benchmark's
// own span recorder, and the peak-RSS probe.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace_store.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t to_us(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

/// `--name value` lookup over argv. Every flag is required: run.py is the
/// one place that sets them.
class Args {
 public:
  Args(int argc, char** argv) : argv_(argv + 1, argv + argc) {}

  [[nodiscard]] std::string str(std::string_view name) const {
    for (std::size_t k = 0; k + 1 < argv_.size(); ++k) {
      if (argv_[k] == name) {
        return argv_[k + 1];
      }
    }
    throw std::runtime_error("missing argument " + std::string(name));
  }
  [[nodiscard]] double num(std::string_view name) const {
    return std::strtod(str(name).c_str(), nullptr);
  }
  [[nodiscard]] std::uint64_t u64(std::string_view name) const {
    return std::strtoull(str(name).c_str(), nullptr, 10);
  }

 private:
  std::vector<std::string> argv_;
};

/// Peak resident set of this process, in MB (ru_maxrss is KiB on Linux).
inline double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// User + system CPU seconds of every thread of this process so far.
inline double process_cpu_s() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

/// Appends JSON text to a string, placing the commas between elements.
class Json {
 public:
  Json& open(char bracket) {
    sep();
    out_ += bracket;
    first_.push_back(true);
    return *this;
  }
  Json& close(char bracket) {
    out_ += bracket;
    first_.pop_back();
    return *this;
  }
  Json& key(std::string_view k) {
    sep();
    quote(k);
    out_ += ':';
    pending_value_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& integer(std::int64_t v) {
    sep();
    out_ += std::to_string(v);
    return *this;
  }
  Json& boolean(bool v) {
    sep();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& string(std::string_view v) {
    sep();
    quote(v);
    return *this;
  }
  /// Embeds an already-serialized JSON value verbatim.
  Json& raw(std::string_view v) {
    sep();
    out_ += v;
    return *this;
  }
  template <typename T>
  Json& nums(std::string_view k, const std::vector<T>& values) {
    key(k).open('[');
    for (const T v : values) {
      num(static_cast<double>(v));
    }
    return close(']');
  }
  [[nodiscard]] const std::string& text() const { return out_; }

 private:
  void sep() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) {
        out_ += ',';
      }
      first_.back() = false;
    }
  }
  void quote(std::string_view v) {
    out_ += '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool pending_value_ = false;
};

inline void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

/// The benchmark's own spans: one per call it makes into the program
/// (run(), each HTTP request, each poll). Kept in memory, written once at
/// the end of the run. `trace_id` ties a request's spans together and
/// `parent` names the span that caused it (0 = none).
class SpanLog {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t trace_id = 0;
    std::string name;
    std::int64_t start_us = 0;
    std::int64_t end_us = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  std::uint64_t add(std::string name, std::uint64_t trace_id,
                    std::uint64_t parent, std::int64_t start_us,
                    std::int64_t end_us) {
    if (!enabled_) {
      return 0;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.trace_id = trace_id;
    s.name = std::move(name);
    s.start_us = start_us;
    s.end_us = end_us;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  /// Tags a recorded span with the trace id its response carried.
  void set_trace(std::uint64_t id, std::uint64_t trace_id) {
    if (!enabled_ || id == 0) {
      return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].trace_id = trace_id;
  }

  /// One JSON object per line.
  void write(const std::string& path) const {
    if (!enabled_) {
      return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    std::string text;
    for (const Span& s : spans_) {
      Json j;
      j.open('{');
      j.key("id").integer(static_cast<std::int64_t>(s.id));
      j.key("parent").integer(static_cast<std::int64_t>(s.parent));
      j.key("trace_id").string(mfcp::obs::format_trace_id(s.trace_id));
      j.key("name").string(s.name);
      j.key("start_us").integer(s.start_us);
      j.key("end_us").integer(s.end_us);
      j.close('}');
      text += j.text();
      text += '\n';
    }
    write_file(path, text);
  }

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
